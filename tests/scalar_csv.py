"""Row-by-row CSV lines: the oracle for ``iorisk.ingest.write_csv``.

``_csv_lines`` is the function every CSV writer of the package went
through before the bulk emitter, kept verbatim: one ``csv.writer`` row at
a time through a ``StringIO``. The emitter must write the same bytes for
every table.
"""
from __future__ import annotations

import csv
import io
import itertools


def _csv_lines(rows):
    r"""Each row as a line that csv.writer(lineterminator="\n") writes,
    except that a field holding a lone "\r" is quoted too: csv.reader ends
    a record at an unquoted "\r", so the row would not read back."""
    buf = io.StringIO()
    # "\r\n" as terminator makes csv.writer quote fields holding "\r" or "\n"
    writer = csv.writer(buf, lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
        yield buf.getvalue()[:-2] + "\n"
        buf.seek(0)
        buf.truncate()


def _write_csv(path, header, rows) -> None:
    """Write header and rows as _csv_lines formats them."""
    with open(path, "w", newline="") as f:
        f.writelines(_csv_lines(itertools.chain([header], rows)))
