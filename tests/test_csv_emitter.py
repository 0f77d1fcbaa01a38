"""The bulk CSV emitter, ingest.write_csv, against the row-by-row lines of
scalar_csv.py: mixed tables of key, int and float columns, awkward texts
and extreme values, at chunk sizes of 1, 2 and 3 rows and the default."""
from __future__ import annotations

import io
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iorisk import ingest
from iorisk.ingest import write_csv

from scalar_csv import _csv_lines

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
CHUNKS = (1, 2, 3, ingest._WRITE_CHUNK)
INT64 = np.iinfo(np.int64)

# a comma, a quote, a lone "\r", "\n", "\r\n", empty, leading and
# trailing spaces, non-ASCII
AWKWARD_TEXTS = (",", 'a"b', "a\rb", "\r", "a\nb", "\r\n", "", " lead",
                 "trail ", "œ-ü", "plain", "x,y\r\nz")
TEXTS = st.sampled_from(AWKWARD_TEXTS) | st.text(max_size=5)
INTS = (st.sampled_from((0, 1, 4095, 4096, -1, -4096, INT64.min, INT64.max))
        | st.integers(INT64.min, INT64.max))
FLOATS = (st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0,
                           5e-324, 1e16, 1e-5, 0.1))
          | st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def tables(draw):
    """(header, emitter columns, oracle rows) of one mixed table."""
    n = draw(st.integers(0, 7))
    kinds = draw(st.lists(st.sampled_from(("key", "int", "float", "ints",
                                           "floats")), min_size=1,
                          max_size=5))
    columns, cells = [], []
    for kind in kinds:
        if kind == "key":
            names = draw(st.lists(TEXTS, min_size=1, max_size=4,
                                  unique=True))
            codes = draw(st.lists(st.integers(0, len(names) - 1),
                                  min_size=n, max_size=n))
            columns.append((np.array(codes, dtype=np.int32), names))
            cells.append([[names[c]] for c in codes])
        else:
            width = 2 if kind in ("ints", "floats") else 1
            values = draw(st.lists(
                st.lists(INTS if kind.startswith("int") else FLOATS,
                         min_size=width, max_size=width),
                min_size=n, max_size=n))
            dtype = np.int64 if kind.startswith("int") else np.float64
            array = np.array(values, dtype=dtype).reshape(n, width)
            columns.append(array if width == 2 else array[:, 0])
            # the report writers handed csv.writer each float as its repr
            cells.append([[v if dtype is np.int64 else repr(v) for v in row]
                          for row in values])
    rows = [sum((column[i] for column in cells), []) for i in range(n)]
    width = sum(2 if k in ("ints", "floats") else 1 for k in kinds)
    header = draw(st.lists(TEXTS, min_size=width, max_size=width))
    return header, columns, rows


def _emitted(header, columns, chunk) -> str:
    buf = io.StringIO()
    with mock.patch.object(ingest, "_WRITE_CHUNK", chunk):
        write_csv(buf, header, columns)
    return buf.getvalue()


@PROPERTY
@given(tables())
def test_emitter_matches_row_by_row_lines(table):
    header, columns, rows = table
    expected = "".join(_csv_lines([header, *rows]))
    for chunk in CHUNKS:
        assert _emitted(header, columns, chunk) == expected, chunk


@pytest.mark.parametrize("text", ["", "a\rb", " x "])
def test_a_lone_field_is_written_as_csv_writer_writes_it(text):
    # an empty field alone in its row is quoted, as csv.writer does
    codes = np.zeros(2, dtype=np.int32)
    assert (_emitted([text], [(codes, [text])], 1)
            == "".join(_csv_lines([[text], [text], [text]])))


@pytest.mark.parametrize("alone", [False, True])
def test_quoted_texts_are_the_fields_csv_writer_writes(alone):
    # texts of digits only are cleared by one search of their join; a
    # comma, a quote, a lone "\r" or an empty text among them sends them
    # through csv.writer
    digits = ["0", "360", "1577836800"]
    awkward = [",", 'a"b', "a\rb", ""]
    for texts in ([digits] + [digits + [text] for text in awkward]
                  + [[text] for text in awkward]):
        row = (lambda text: [text]) if alone else (lambda text: [text, ""])
        want = [next(_csv_lines([row(text)]))[:-1 if alone else -2]
                for text in texts]
        assert ingest._quoted(texts, alone) == want, texts


def test_path_and_stream_get_the_same_bytes(tmp_path):
    header = ["k", "v"]
    columns = [(np.array([0, 1], dtype=np.int32), ["a\rb", "œ"]),
               np.array([0.1, -0.0])]
    write_csv(tmp_path / "t.csv", header, columns)
    assert ((tmp_path / "t.csv").read_bytes()
            == _emitted(header, columns, 1).encode())


def test_column_lengths_are_checked():
    with pytest.raises(ValueError, match="unequal lengths"):
        write_csv(io.StringIO(), ["a", "b"],
                  [np.zeros(3, dtype=np.int64), np.zeros(2)])


def test_write_memory_beyond_the_columns_is_a_few_tables(tmp_path):
    # numpy and Python report their allocations to tracemalloc. A node
    # usage table of 4,096 rows and 24 columns: two key columns, repeated
    # bins and 21 counters of up to 13 digits, each a text of its own.
    # Writing it holds a block of _WRITE_CHUNK rows of texts, an object
    # array of them and their join: 3.9 times the columns' bytes at 1,024
    # rows, and 15.6 times at 4,096
    rng = np.random.default_rng(1)
    n = 4096
    columns = [(rng.integers(0, 64, n).astype(np.int32),
                tuple(f"nid{i:05d}" for i in range(64))),
               (np.zeros(n, np.int32), ("fs1",)),
               ingest.repeated_ints(360 * rng.integers(0, 500, n)),
               rng.integers(0, 2 ** 40, (n, 21))]
    header = ["node", "fs", "bin"] + [f"c{i}" for i in range(21)]
    table = sum((c[0] if isinstance(c, tuple) else c).nbytes
                for c in columns)
    with open(os.devnull, "w") as out:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_csv(out, header, columns)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak < 6 * table, peak / table
