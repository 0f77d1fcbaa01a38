from __future__ import annotations

from iorisk.ingest import COUNTER_HEADER
from iorisk.ops import (COUNTER_NAMES, MDS_COUNTERS, MDS_SLICE, N_COUNTERS,
                        N_OSS, OSS_COUNTERS, OSS_SLICE, READ_KB, READ_OPS,
                        WRITE_KB, WRITE_OPS)


def test_exactly_21_counters_with_fixed_partition():
    assert N_COUNTERS == 21
    assert len(set(COUNTER_NAMES)) == 21
    assert len(OSS_COUNTERS) == N_OSS == 5
    assert len(MDS_COUNTERS) == 16
    assert COUNTER_NAMES == OSS_COUNTERS + MDS_COUNTERS
    assert COUNTER_NAMES[OSS_SLICE] == OSS_COUNTERS
    assert COUNTER_NAMES[MDS_SLICE] == MDS_COUNTERS
    assert OSS_COUNTERS == ("read_kb", "read_ops", "write_kb", "write_ops",
                            "other")


def test_columns_match_feed_header_order():
    assert COUNTER_HEADER[:3] == ("ts", "node", "fs")
    assert COUNTER_HEADER[3:] == COUNTER_NAMES
    assert (READ_KB, READ_OPS, WRITE_KB, WRITE_OPS) == (0, 1, 2, 3)
