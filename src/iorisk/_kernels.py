"""Numeric kernels: deltify, attribute and risk, vectorized with numpy.

Apportioning rule. Deltify and attribute both split a non-negative
integer counter delta d between K claimants in proportion to integer
overlaps ov_0 .. ov_{K-1} out of a span (the pair's duration for deltify,
the bin width for attribute; the overlaps sum to the span):

1. claimant k gets round_half_even((d * ov_k) / span), evaluated in float64
   in exactly that order;
2. the residue d - sum(shares) goes to the last claimant, k = K-1;
3. if that leaves the last share negative, the negative amount is carried
   back to claimant K-2, and so on, until no share is negative.

The shares therefore sum to d exactly and none is negative. With K = 1
the single claimant gets d. ``apportion`` is the only implementation of
the rule; the kernels group their rows by K and call it once per group.

Grouping rule. Every binned table is built by sorting rows on key columns
and summing the rows that share every key. ``sort_groups`` is the only
implementation of that sort and ``group_sum`` the only one of the sum;
``merge_sums`` adds one such table into another.

Bin rule. A bin labelled b covers (b, b+w]: a time t falls in the bin it
closes, ``closing_bin``, and an interval (t0, t1] meets ``bins_spanned``
bins.
"""
from __future__ import annotations

import math

import numpy as np

from .ops import N_COUNTERS, N_OSS


def closing_bin(t, w):
    """Label of the bin that time t closes (see the bin rule)."""
    return w * ((t - 1) // w)


def bins_spanned(t0, t1, w):
    """How many bins the interval (t0, t1], t1 > t0, meets."""
    return (t1 - 1) // w - t0 // w + 1


def apportion(deltas, overlap, span, out=None):
    """Split each row of deltas (n, 21) between K claimants.

    overlap is (n, K) and span is (n,); returns shares of shape (n, K, 21)
    under the apportioning rule of this module, summing to deltas along
    axis 1. out, if given, is the (n, K, 21) int64 array the shares go
    to, and deltas may be out[:, -1]; without it, with K = 1 the result
    is a view of deltas.
    """
    n, k_count = overlap.shape
    if k_count == 1:
        if out is None:
            return deltas[:, None, :]
        out[:, 0] = deltas
        return out
    shares = (np.empty((n, k_count, deltas.shape[1]), dtype=np.int64)
              if out is None else out)
    d = deltas.astype(np.float64)
    span = span.astype(np.float64)[:, None]
    # the last claimant's rounded share plus the residue is deltas less
    # the other shares, so only the others are rounded
    last = shares[:, -1]
    last[:] = deltas
    share = np.empty_like(d)
    for k in range(k_count - 1):
        # non-negative operands, so rint's ties-to-even is the rule's rounding
        np.multiply(d, overlap[:, k, None], out=share)
        share /= span
        shares[:, k] = np.rint(share, out=share)
        last -= shares[:, k]
    # the others are rounded from non-negative operands, so a carry starts
    # only at a negative last share
    if (last < 0).any():
        for k in range(k_count - 1, 0, -1):
            carry = np.minimum(shares[:, k], 0)
            shares[:, k] -= carry
            shares[:, k - 1] += carry
    return shares


def sort_groups(*keys):
    """Sort rows by key columns, the first key major -> (order, starts).

    The sort is stable, so rows that share every key keep their input
    order; starts holds the position in order of each group's first row.
    Zero rows give empty order and starts.

    Two or more integer keys are sorted as one int64 column that packs
    them (see _packed) where it can: a stable argsort of it is the same
    order as np.lexsort's. On 20,000 rows of (job, fs, bin) keys it took
    half the time, and a sixth on eight such runs, each sorted, one after
    another (2-core x86 machine).
    """
    packed = _packed(keys) if len(keys) > 1 else None
    if packed is None:
        order = np.lexsort(keys[::-1])
    else:
        order = np.argsort(packed, kind="stable")
        keys = (packed,)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in keys:  # one sorted copy of a key at a time
        key = key[order]
        first[1:] |= key[1:] != key[:-1]
        del key
    return order, np.flatnonzero(first)


def _packed(keys, *more):
    """Signed integer key columns as one int64 column that sorts as they
    do, the first major, or None where a column is of another kind, there
    are no rows, or the columns' ranges multiply past int64. more, other
    tables' key columns of the same kinds, widen the ranges, so that their
    own packing with the same more compares with this one."""
    tables = (keys, *more)
    if not any(len(t[0]) for t in tables) or any(
            key.dtype.kind != "i" for t in tables for key in t):
        return None
    lows = [min(int(t[i].min()) for t in tables if len(t[i]))
            for i in range(len(keys))]
    spans = [max(int(t[i].max()) for t in tables if len(t[i])) - low + 1
             for i, low in enumerate(lows)]
    if math.prod(spans) > 2 ** 63:  # the largest packed value is prod - 1
        return None
    packed = np.zeros(len(keys[0]), np.int64)
    for key, low, span in zip(keys, lows, spans):
        packed *= span
        # in the order that keeps every partial sum inside int64
        if low > 0:
            packed -= low
            packed += key
        else:
            packed += key
            packed -= low
    return packed


def groups(key):
    """(value, rows) for each distinct value of key, in ascending order of
    value; rows holds the value's positions in key, ascending."""
    order, starts = sort_groups(key)
    for rows in np.split(order, starts)[1:]:
        yield key[rows[0]], rows


def group_sum(keys, values, sizes=None):
    """Sum the rows of values that share every key -> (keys, sums).

    Groups come in key order (see sort_groups). The returned key columns
    keep their dtypes, so zero rows give typed empty columns and an empty
    (0, ...) sum.

    values is an array, whose rows are summed where they lie (see
    _segment_sums), or arrays whose rows, in turn, are the rows: a
    non-empty list, or an iterator that yields arrays of sizes[i] rows
    each. In that form the arrays are added into sums of the result's
    exact size one at a time, and each is dropped once it is in, so that
    the arrays are never all resident beside the sums, as they are when
    first concatenated. group_sum then takes both lists over: it empties
    keys once the rows are sorted, and the list of arrays front to back.
    Beyond the sums and the returned keys, the merge holds a group index
    and a flag per row.
    """
    order, starts = sort_groups(*keys)
    first = order[starts]
    grouped = [key[first] for key in keys]
    if isinstance(values, np.ndarray):
        return grouped, _segment_sums(values, order, starts)
    keys.clear()  # the caller's key columns, freed once sorted
    keys = grouped
    if sizes is None:
        sizes = [len(v) for v in values]
        values = _drained(values)
    n = len(order)
    # a group's rows come in input order, so two rows of one array in one
    # group are neighbours; such an array needs np.add.at, over three times
    # slower than the plain scatter an array of distinct groups takes
    later = np.ones(n, dtype=bool)
    later[starts] = False
    later = np.flatnonzero(later)
    ends = np.cumsum(sizes)
    owner = np.searchsorted(ends, order[later], side="right")
    repeats = np.zeros(len(sizes), dtype=bool)
    repeats[owner[owner == np.searchsorted(ends, order[later - 1],
                                           side="right")]] = True
    del later, owner
    # each row's group, by input position
    rank = np.zeros(n, dtype=np.int32 if n < 2 ** 31 else np.int64)
    rank[starts[1:]] = 1
    np.cumsum(rank, out=rank)
    group = np.empty_like(rank)
    group[order] = rank
    del order, rank
    opens = np.zeros(n, dtype=bool)
    opens[first] = True  # the rows that open their groups, in input order
    del first
    sums, lo = None, 0
    for size, repeat in zip(sizes, repeats):
        part = next(values)
        if sums is None:  # the first array types the sums
            sums = np.zeros((len(starts),) + part.shape[1:], part.dtype)
        rows = group[lo:lo + size]
        if repeat:
            np.add.at(sums, rows, part)
        else:  # the groups begun before get their sums so far added back
            seen = ~opens[lo:lo + size]
            before = sums[rows[seen]]
            sums[rows] = part
            sums[rows[seen]] += before
        del part
        lo += size
    return keys, sums


def merge_sums(keys, sums, more_keys, more_sums):
    """Add a table of sums into another in place: each table's rows have
    distinct keys, in key order, as group_sum returns them. A row of
    more_sums is added to the row of sums with its keys, or goes, with its
    keys, where its keys sort, so the table stays in key order.

    keys, a list of key columns, and sums grow in place (ndarray.resize),
    so they must own their memory and have no views; a later row moves up
    past the rows put in before it, a piece of at most len(more_sums) rows
    at a time. Beyond the two tables, the merge holds each row's keys
    packed (see _packed) and a few columns over the rows of more_sums.
    """
    ours, theirs = (_packed(keys, more_keys), _packed(more_keys, keys))
    if ours is None:  # no rows, or past int64: records compare alike
        ours, theirs = _records(keys), _records(more_keys)
    at = np.searchsorted(ours, theirs)
    held = at < len(ours)
    held[held] = ours[at[held]] == theirs[held]
    del ours, theirs
    sums[at[held]] += more_sums[held]
    new = np.flatnonzero(~held)
    if not len(new):
        return
    to = at[new] + np.arange(len(new))  # where the new rows go
    n, step = len(sums), len(more_sums)
    cols = [*keys, sums]
    for col in cols:
        col.resize((n + len(new),) + col.shape[1:], refcheck=False)
    # each place from the first new row's on takes the row that was
    # before it by the new rows before it, the last places first, so no
    # row is read after its place is taken; the new rows' places take
    # some row, then their own
    for hi in range(n + len(new), to[0], -step):
        places = np.arange(max(hi - step, to[0]), hi)
        rows = places - np.searchsorted(to, places)
        for col in cols:
            col[places[0]:hi] = np.take(col, rows, axis=0)
    for col, more in zip(cols, (*more_keys, more_sums)):
        col[to] = more[new]


def _records(keys):
    """The key columns as one record column, which sorts and searches as
    the columns do, the first major."""
    records = np.empty(len(keys[0]), [(f"k{i}", key.dtype)
                                      for i, key in enumerate(keys)])
    for i, key in enumerate(keys):
        records[f"k{i}"] = key
    return records


def _drained(values):
    """The list's arrays front to back, each taken out as it is given."""
    values.reverse()
    while values:
        yield values.pop()


# groups of at most this many rows are summed a row rank at a time, larger
# ones by np.add.reduceat over their own rows: on 32,768 rows of 21
# counters in 2-row groups (2-core x86 machine) the rank-wise adds took
# 2.4 ms, reduceat over the sorted copy 12 ms
_SHORT_GROUP = 8


def _segment_sums(values, order, starts):
    """The sums of the groups of rows order[starts[g]:starts[g+1]] of
    values, without gathering values in sorted order: each sum starts as
    its group's first row, a short group's j-th rows are added in for
    j = 1, 2, .., and only the long groups' rows are gathered, for
    np.add.reduceat. Integer sums wrap as reduceat's do, so their bytes
    are those of np.add.reduceat(values[order], starts, axis=0)."""
    sizes = np.diff(starts, append=len(order))
    sums = np.take(values, order[starts], axis=0)
    short = sizes <= _SHORT_GROUP
    grown = np.flatnonzero(short)
    # the j-th rows are taken and added an eighth of the rows at a time,
    # so the rows taken stay a fraction of values
    piece = max(1, len(order) // 8)
    for j in range(1, _SHORT_GROUP):
        grown = grown[sizes[grown] > j]
        if not len(grown):
            break
        for lo in range(0, len(grown), piece):
            at = grown[lo:lo + piece]
            rows = np.take(values, order[starts[at] + j], axis=0)
            if at[-1] - at[0] == len(at) - 1:  # in place, not via a copy
                sums[at[0]:at[-1] + 1] += rows
            else:
                sums[at] += rows
            del rows
    long = np.flatnonzero(~short)
    if len(long):
        lens = sizes[long]
        local = np.cumsum(lens) - lens
        rows = np.repeat(starts[long] - local, lens) + np.arange(lens.sum())
        sums[long] = np.add.reduceat(np.take(values, order[rows], axis=0),
                                     local, axis=0)
    return sums


def deltify_pairs(stream, ts, values, bin_width, max_gap_s, out=None):
    """Cumulative snapshots sorted by (stream, ts) -> per-bin delta rows.

    A sample at time t covers activity (t_prev, t] of its stream; a bin
    labelled b covers (b, b+w]. A counter decrease is a reset: the new
    value is the delta. Pairs further apart than max_gap_s, and pairs with
    no counter change, are dropped. A pair is apportioned over the bins it
    covers by time overlap out of its duration (see the module docstring);
    a pair with no duration (duplicate timestamps) lands whole in the bin
    its timestamp closes. Returns (stream, bin_start, deltas, gap_pairs,
    reset_pairs): one row per covered bin, unaggregated and in no
    particular order, then the count of pairs dropped as further apart
    than max_gap_s and the count of the other pairs in which a counter
    went down. out, if given, is a workspace of at least len(values) - 1
    rows for the pairs' deltas; the result shares no memory with it.
    """
    w = bin_width
    t0, t1 = ts[:-1], ts[1:]
    v0, v1 = values[:-1], values[1:]
    delta = np.subtract(v1, v0, out=None if out is None else out[:len(v1)])
    down = v1 < v0
    np.copyto(delta, v1, where=down)
    same = stream[1:] == stream[:-1]
    near = same & (t1 - t0 <= max_gap_s)
    gap_pairs = int(np.count_nonzero(same) - np.count_nonzero(near))
    # the pairs in which a counter went down, from the few counters that
    # did: a row-wise pass over all of them took a third of the kernel
    reset = np.zeros(len(near), dtype=bool)
    reset[np.flatnonzero(down) // N_COUNTERS] = True
    reset_pairs = int(np.count_nonzero(near & reset))
    del down, reset
    keep = np.flatnonzero(near & delta.any(axis=1))
    pair_stream, t0, t1 = stream[1:][keep], t0[keep], t1[keep]
    delta = np.take(delta, keep, axis=0)
    dt = t1 - t0
    b_last = closing_bin(t1, w)
    nbins = np.where(dt > 0, bins_spanned(t0, t1, w), 1)

    parts = [(np.empty(0, np.int64), np.empty(0, np.int64),
              np.empty((0, N_COUNTERS), np.int64))]
    for k_count, rows in groups(nbins):
        bins = b_last[rows, None] - w * np.arange(k_count - 1, -1, -1)
        overlap = (np.minimum(t1[rows, None], bins + w)
                   - np.maximum(t0[rows, None], bins))
        shares = apportion(np.take(delta, rows, axis=0), overlap, dt[rows])
        parts.append((np.repeat(pair_stream[rows], k_count), bins.ravel(),
                      shares.reshape(-1, N_COUNTERS)))
    return (*(np.concatenate(p) for p in zip(*parts)), gap_pairs,
            reset_pairs)


def claim_ranges(node_idx, bin_start, bin_width, node_ptr, job_start,
                 job_end):
    """Node-bin rows -> (j0, j1), int64 (n,) each: the jobs holding each
    row's node during its bin.

    Jobs on a node are non-overlapping intervals sorted by start and
    stored as CSR segments (node_ptr), so the jobs overlapping the bin
    [b, b+w) form the contiguous index range [j0, j1).
    """
    w = bin_width
    j0 = np.empty(len(bin_start), dtype=np.int64)
    j1 = np.empty(len(bin_start), dtype=np.int64)
    for node, rows in groups(node_idx):
        lo, hi = int(node_ptr[node]), int(node_ptr[node + 1])
        bins = bin_start[rows]
        j0[rows] = lo + np.searchsorted(job_end[lo:hi], bins, side="right")
        j1[rows] = lo + np.searchsorted(job_start[lo:hi], bins + w,
                                        side="left")
    return j0, j1


def attribute_shares(fs_idx, bin_start, deltas, bin_width, j0, j1,
                     job_start, job_end, job_of):
    """Node-bin rows -> per-claimant share rows.

    A row's claimants are the jobs j0 .. j1 - 1 of claim_ranges, in start
    order, followed by the unattributed remainder (job -1) when the jobs
    leave part of the bin uncovered. Shares follow the apportioning rule
    with the bin width as the span. Returns (job, fs, bin_start, deltas),
    one row per claimant, in no particular order. The claimants of each
    group of rows with as many are found first, so the shares go straight
    into one table of their exact size.
    """
    w = bin_width
    # (rows, overlap, claim) per group; the first types an empty table
    claims = [(np.empty(0, np.int64), np.empty((0, 1), np.int64),
               np.empty((0, 1), np.int32))]
    for n_j, picked in groups(j1 - j0):
        jobs = j0[picked, None] + np.arange(n_j)
        b = bin_start[picked, None]
        overlap = (np.minimum(job_end[jobs], b + w)
                   - np.maximum(job_start[jobs], b))
        claim = job_of[jobs].astype(np.int32)
        free = w - overlap.sum(axis=1)
        part = free > 0
        for group in ((picked[~part], overlap[~part], claim[~part]),
                      (picked[part],
                       np.column_stack((overlap[part], free[part])),
                       np.column_stack((claim[part],
                                        np.full(part.sum(), -1, np.int32))))):
            if len(group[0]):
                claims.append(group)
    job = np.concatenate([claim.ravel() for _, _, claim in claims])
    fs, bins = (np.concatenate([np.repeat(col[picked], claim.shape[1])
                                for picked, _, claim in claims])
                for col in (fs_idx, bin_start))
    shares = np.empty((len(job), N_COUNTERS), np.int64)
    lo = 0
    for picked, overlap, claim in claims:
        out = shares[lo:lo + claim.size].reshape(*claim.shape, N_COUNTERS)
        # each row's deltas go where its last claimant's share goes;
        # mode="clip": with the default mode, take buffers its output
        apportion(np.take(deltas, picked, axis=0, mode="clip",
                          out=out[:, -1]),
                  overlap, np.full(len(picked), w), out=out)
        lo += claim.size
    return job, fs.astype(np.int32, copy=False), bins, shares


def risk_contribs(deltas, fs_idx, avg, md_total, alpha, beta, threshold):
    """Per-counter clamped risk contributions.

    OSS counters: (x - alpha*avg) / (alpha*avg), zero when avg is zero.
    MDS counters: the same when alpha*avg >= threshold, otherwise the beta
    path (x - beta*md_total) / (beta*md_total) with the denominator floored
    at the threshold when md_total is zero. All contributions clamp at zero.
    The steps run in place: beyond deltas, the result and the denominators
    are the only (n, 21) arrays held. compute_job_metrics hands it one
    slice of rows at a time, so n is at most ingest._PARSE_CHUNK there.
    """
    denom = avg[fs_idx]
    denom *= alpha
    mds = denom[:, N_OSS:]
    beta_denom = beta * md_total[fs_idx]
    beta_denom = np.where(beta_denom > 0.0, beta_denom, threshold)
    denom[:, N_OSS:] = np.where(mds < threshold, beta_denom[:, None], mds)
    contrib = np.subtract(deltas, denom)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib /= denom
    np.copyto(contrib, 0.0, where=~(denom > 0.0))
    return np.maximum(contrib, 0.0, out=contrib)
