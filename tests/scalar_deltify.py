"""Whole-feed deltify: the oracle for ``iorisk.ingest.deltify_and_bin``.

This is ``deltify_and_bin`` as the package shipped it before binning went
through stream-aligned chunks: it sorts and gathers the whole counter
matrix, deltifies every pair in one kernel call and aggregates duplicate
(stream, bin) rows in one pass. It is kept verbatim, except that it takes
a ``CounterFeed`` only, as the package function now does. The chunked
function must return the same ``UsageTable``, array for array, registries
included, at every chunk budget.
"""
from __future__ import annotations

import numpy as np

from iorisk import _kernels
from iorisk.config import Config
from iorisk.ingest import CounterFeed, UsageTable, _recode
from iorisk.ops import N_COUNTERS


def _empty_usage(bin_width) -> UsageTable:
    return UsageTable({"node": np.empty(0, dtype=np.int32),
                       "fs": np.empty(0, dtype=np.int32)},
                      {"node": (), "fs": ()},
                      np.empty(0, dtype=np.int64),
                      np.empty((0, N_COUNTERS), dtype=np.int64), bin_width)


def deltify_and_bin(feed: CounterFeed, bin_width: int = Config.bin_width_s,
                    *, max_gap_bins: int | None = Config.max_gap_bins,
                    pre_differenced: bool = False) -> UsageTable:
    """Convert cumulative snapshots to per-bin deltas.

    A sample at time t covers activity since the previous sample of the same
    (node, fs) stream; a bin labelled b covers (b, b+w]. Deltas spanning
    several bins are apportioned by time overlap (the rule in _kernels,
    exact sum). Counter decreases are treated as resets (the new value is the
    delta since the restart). Gaps longer than max_gap_bins bins are
    dropped. Input order does not matter; rows are sorted internally.
    The table lists only the nodes and filesystems that have rows, in order
    of first appearance in its rows, as the store reads them back.

    With pre_differenced=True each row's values are taken directly as the
    delta for the bin its timestamp closes.
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    n_fs = len(feed.filesystems)
    if len(feed) == 0 or n_fs == 0:
        return _empty_usage(bin_width)

    order = np.lexsort((feed.ts, feed.fs_idx, feed.node_idx))
    stream = (feed.node_idx[order].astype(np.int64) * n_fs
              + feed.fs_idx[order])
    ts = np.ascontiguousarray(feed.ts[order])
    values = np.ascontiguousarray(feed.values[order])

    if pre_differenced:
        keep = values.any(axis=1)
        s_codes = stream[keep]
        bins = bin_width * ((ts[keep] - 1) // bin_width)
        deltas = values[keep]
    else:
        if max_gap_bins is None:
            max_gap_s = np.iinfo(np.int64).max // 4
        else:
            max_gap_s = max_gap_bins * bin_width
        s_codes, bins, deltas, _, _ = _kernels.deltify_pairs(
            stream, ts, values, bin_width, max_gap_s)

    if len(s_codes) == 0:
        return _empty_usage(bin_width)

    # spanning pairs can produce all-zero shares; keep the table sparse
    nonzero = deltas.any(axis=1)
    if not nonzero.all():
        s_codes = s_codes[nonzero]
        bins = bins[nonzero]
        deltas = deltas[nonzero]
    if len(s_codes) == 0:
        return _empty_usage(bin_width)

    # aggregate duplicate (stream, bin) rows and fix the canonical order
    order2 = np.lexsort((bins, s_codes))
    s2 = s_codes[order2]
    b2 = bins[order2]
    d2 = deltas[order2]
    starts = np.flatnonzero(
        np.concatenate(([True], (s2[1:] != s2[:-1]) | (b2[1:] != b2[:-1]))))
    agg = np.add.reduceat(d2, starts, axis=0)
    u_s = s2[starts]
    u_b = b2[starts]

    node_idx, nodes = _recode(u_s // n_fs, feed.nodes)
    fs_idx, filesystems = _recode(u_s % n_fs, feed.filesystems)
    return UsageTable(codes={"node": node_idx, "fs": fs_idx},
                      names={"node": nodes, "fs": filesystems},
                      bin_start=u_b, deltas=agg, bin_width=bin_width)
