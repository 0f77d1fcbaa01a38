"""The 21 Lustre server counters: 5 OSS (bulk data) and 16 MDS (metadata).

Column order is fixed by the counters.csv feed header and is relied on by
every array in the pipeline: OSS counters occupy columns 0..4, MDS counters
columns 5..20.
"""
from __future__ import annotations

OSS_COUNTERS = ("read_kb", "read_ops", "write_kb", "write_ops", "other")
MDS_COUNTERS = (
    "open", "close", "mknod", "link", "unlink", "mkdir", "rmdir", "ren",
    "getattr", "setattr", "getxattr", "setxattr", "statfs", "sync", "sdr",
    "cdr",
)
COUNTER_NAMES = OSS_COUNTERS + MDS_COUNTERS

N_COUNTERS = len(COUNTER_NAMES)
N_OSS = len(OSS_COUNTERS)
OSS_SLICE = slice(0, N_OSS)
MDS_SLICE = slice(N_OSS, N_COUNTERS)

# Columns used by quality metrics and job summaries.
READ_KB = COUNTER_NAMES.index("read_kb")
READ_OPS = COUNTER_NAMES.index("read_ops")
WRITE_KB = COUNTER_NAMES.index("write_kb")
WRITE_OPS = COUNTER_NAMES.index("write_ops")
