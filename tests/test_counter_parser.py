"""The chunked counter feed parser against the row-by-row oracle in
scalar_ingest.py: for every feed, whichever of numpy's C reader or the
csv.reader fallback reads each chunk, the result is an equal CounterFeed
or the same error with the same message, line and field."""
from __future__ import annotations

import contextlib
import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from iorisk import ingest
from iorisk.ingest import COUNTER_HEADER, FeedFormatError
from iorisk.ops import N_COUNTERS

import scalar_ingest as ref

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
HEADER = ",".join(COUNTER_HEADER)


@contextlib.contextmanager
def chunk_size(n):
    saved = ingest._PARSE_CHUNK, ref._PARSE_CHUNK
    ingest._PARSE_CHUNK = ref._PARSE_CHUNK = n
    try:
        yield
    finally:
        ingest._PARSE_CHUNK, ref._PARSE_CHUNK = saved


def outcome(parse, text, newline):
    """The feed's arrays and registries, or the error parse raised."""
    try:
        feed = parse(io.StringIO(text, newline=newline))
    except FeedFormatError as exc:
        return ("FeedFormatError", str(exc), exc.line_no, exc.feed_field)
    except (ValueError, OverflowError, csv.Error) as exc:
        return (type(exc).__name__, str(exc))
    arrays = (feed.ts, feed.node_idx, feed.fs_idx, feed.values)
    return (("feed", feed.nodes, feed.filesystems)
            + tuple((a.dtype.str, a.shape, a.tolist()) for a in arrays))


def assert_matches_oracle(text, chunk):
    # newline="\n" is StringIO's own reading; "" is read_counter_file's
    with chunk_size(chunk):
        for newline in ("\n", ""):
            assert (outcome(ingest.parse_counter_feed, text, newline)
                    == outcome(ref.parse_counter_feed, text, newline))


def line(ts="1", node="n1", fs="fs2", counters=None, **at):
    """One counters.csv line; at= replaces a counter's text by name."""
    counters = list(counters or [str(c) for c in range(21)])
    for name, text in at.items():
        counters[COUNTER_HEADER.index(name) - 3] = text
    return ",".join([ts, node, fs] + counters)


def feed(*lines, eol="\n"):
    return eol.join((HEADER,) + lines) + eol


FULL = line()

DIALECT_CASES = {
    "quoted key with a comma": feed(FULL, line(node='"n,1"'), FULL),
    "quoted key with doubled quotes": feed(line(node='"n""1"'), FULL),
    "quoted key with a newline across a chunk boundary":
        feed(FULL, line(ts="2", node='"n\n1"'), line(ts="3"), FULL),
    "quoted counter with a newline across a chunk boundary":
        feed(FULL, line(ts="2", cdr='"5\n"'), FULL),
    "fault after a quoted newline":
        feed(FULL, line(node='"n\n1"'), FULL, line(ts="4", mkdir="-1")),
    "quote left open at the end of the feed":
        HEADER + "\n" + FULL + "\n" + line(cdr='"7'),
    "spaces around keys and numbers":
        feed(line(ts=" 1 ", node=" n1 ", fs="fs2 ", read_kb=" 5 "), FULL),
    "plus sign and underscore digits":
        feed(line(read_kb="+5"), line(write_kb="1_000"), FULL),
    "CRLF line endings": feed(FULL, line(node="n2"), FULL, eol="\r\n"),
    "CR line endings": feed(FULL, line(node="n2"), eol="\r"),
    "lone CR inside a line": feed(FULL, FULL + "\r" + FULL),
    "blank line": feed(FULL, "", FULL),
    "whitespace-only line": feed(FULL, "   ", FULL),
    "trailing blank line": feed(FULL, FULL, ""),
    "short row": feed(FULL, FULL, line()[:-3]),
    "long row": feed(FULL, line() + ",9"),
    "negative value in the second chunk":
        feed(FULL, FULL, line(ts="3"), line(ts="4", mkdir="-2")),
    "non-integer value in the second chunk":
        feed(FULL, FULL, FULL, line(sync="x")),
    "zero timestamp": feed(FULL, line(ts="0")),
    "non-ASCII digit": feed(FULL, line(open="٣")),
    "non-ASCII letter the C parser reads as a number":
        feed(FULL, line(close="Ǿ")),
    "ASCII separator the C parser takes for space":
        feed(FULL, line(read_ops="\x1c5")),
    "value beyond int64": feed(FULL, line(other="9" * 20)),
    "int64 maximum": feed(FULL, line(other=str(2**63 - 1))),
    "one past the int64 maximum": feed(FULL, line(ts=str(2**63))),
    "one below the int64 minimum": feed(FULL, line(cdr=str(-2**63 - 1))),
    "header only": HEADER + "\n",
    "header without a newline": HEADER,
}


@pytest.mark.parametrize("chunk", [2, 3, 65536])
@pytest.mark.parametrize("text", DIALECT_CASES.values(), ids=DIALECT_CASES)
def test_dialect_cases_match_oracle(text, chunk):
    assert_matches_oracle(text, chunk)


@pytest.mark.parametrize("chunk", [2, 65536])
def test_value_beyond_int64_names_line_and_field(chunk):
    with chunk_size(chunk), pytest.raises(FeedFormatError) as exc:
        ingest.parse_counter_feed(io.StringIO(
            DIALECT_CASES["value beyond int64"]))
    assert str(exc.value) == ("counter feed: value out of int64 range "
                              f"'{'9' * 20}' (line 3, field 'other')")


FIELD_CHARS = '017-+ ,"\n\ra_.\t\x00\x1c\x7fé٣Ǿ'
odd_fields = st.one_of(
    st.text(FIELD_CHARS, max_size=4),
    st.text(FIELD_CHARS, max_size=3).map(
        lambda s: '"' + s.replace('"', '""') + '"'),
    st.sampled_from(["", "+5", "1_000", " 5 ", "-1", "0", "9" * 20,
                     '"12"', '"n,1"', '"a""b"', '"x\ny"', "Ǿ"]))


@st.composite
def records(draw):
    """A counters.csv line: mostly well formed, with a few odd fields,
    now and then a wrong field count, a blank or a whitespace line."""
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return draw(st.sampled_from(["", "  "]))
    fields = ([str(draw(st.integers(1, 9999))),
               draw(st.sampled_from(["n1", "n2", '"n,3"', " n4 ",
                                     '"n""5"'])),
               draw(st.sampled_from(["fs2", "fs3"]))]
              + [str(v) for v in draw(st.lists(st.integers(0, 999),
                                               min_size=21, max_size=21))])
    if kind == 1:
        fields = fields[:draw(st.integers(0, 23))]
    elif kind == 2:
        fields += ["0"]
    for _ in range(draw(st.integers(0, 2))):
        if fields:
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] = draw(odd_fields)
    return ",".join(fields)


@st.composite
def feeds(draw):
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [HEADER] + draw(st.lists(records(), max_size=8))
    return eol.join(lines) + draw(st.sampled_from([eol, "", eol + eol]))


@PROPERTY
@given(feeds(), st.sampled_from([1, 2, 3, 65536]))
def test_parser_matches_oracle(text, chunk):
    assert_matches_oracle(text, chunk)


# read_counter_file sizes its columns from the file's line count; a
# stream of unknown length starts them empty and doubles them as it goes
FILE_CASES = {
    "quoted newline in a key":
        feed(FULL, line(ts="2", node='"n\n1"'), line(ts="3", node='"a\nb"'),
             FULL),
    "CRLF line ends": feed(FULL, line(node="n2"), FULL, eol="\r\n"),
    "no trailing newline": feed(FULL, line(node="n2"), FULL)[:-1],
    "header only": HEADER + "\n",
    "blank line": feed(FULL, FULL, "", FULL),
    "fault on a later chunk": feed(FULL, FULL, FULL, line(ts="4", sync="-3")),
    "stream that has to grow": feed(*[line(ts=str(t)) for t in range(1, 41)]),
}


@pytest.mark.parametrize("chunk", [1, 2, 3, ingest._PARSE_CHUNK])
@pytest.mark.parametrize("text", FILE_CASES.values(), ids=FILE_CASES)
def test_file_and_stream_reads_match_oracle(tmp_path, text, chunk):
    # outcome compares shapes too: the views end at the parsed rows
    path = tmp_path / "counters.csv"
    path.write_text(text, newline="")

    def read_file(_stream):  # the same text, through the file's path
        return ingest.read_counter_file(path)

    with chunk_size(chunk):
        want = outcome(ref.parse_counter_feed, text, "")
        assert outcome(read_file, text, "") == want
        assert outcome(ingest.parse_counter_feed, text, "") == want


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_fault_on_a_later_chunk_names_line_and_field(tmp_path, chunk):
    path = tmp_path / "counters.csv"
    path.write_text(FILE_CASES["fault on a later chunk"])
    with chunk_size(chunk), pytest.raises(FeedFormatError) as exc:
        ingest.read_counter_file(path)
    assert (exc.value.line_no, exc.value.feed_field) == (5, "sync")
    assert str(exc.value) == ("counter feed: negative counter value -3 "
                              "(line 5, field 'sync')")


@pytest.mark.parametrize("text", [
    "", "a", "a\n", "a\r\nb", "a\rb\r", "\r\r\n\n\r", "x" * 65535 + "\r\ny",
    "x" * 65535 + "\r" + "y", "x" * 65535 + "\r", "x" * 65536 + "\n\r",
    "x" * 65534 + "\r\n\r\n" + "x" * 65534 + "\n"])
def test_line_count_is_one_more_than_the_line_ends(tmp_path, text):
    # a "\r\n" astride two of the counter's blocks counts once
    path = tmp_path / "lines.csv"
    path.write_text(text, newline="")
    with open(path, newline="") as f:
        ends = sum(line.endswith(("\r", "\n")) for line in f)
    assert ingest._line_count(path) == 1 + ends


def test_memory_beyond_the_feed_is_about_one_chunk(tmp_path, monkeypatch):
    # numpy reports its array allocations to tracemalloc. Beyond the
    # returned columns, read_counter_file holds one chunk at a time: its
    # lines as strings (about one table here), its structured table and
    # numpy's parse buffers, about 3.5 tables in all. Keeping every
    # chunk's table until the end, as a reader that concatenates does,
    # peaks at 39 tables on this feed.
    from test_deltify_chunks import _sparse_feed
    import tracemalloc

    path = tmp_path / "counters.csv"
    ingest.write_counter_csv(_sparse_feed(), path)
    monkeypatch.setattr(ingest, "_PARSE_CHUNK", 1024)
    table = ingest._PARSE_CHUNK * (3 * 8 + 8 * N_COUNTERS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        feed = ingest.read_counter_file(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(feed) >= 32 * ingest._PARSE_CHUNK
    columns = sum(a.nbytes for a in (feed.ts, feed.node_idx, feed.fs_idx,
                                     feed.values))
    assert peak - columns < 5 * table, (peak - columns) / table
