"""Scalar reference kernels: the oracle for ``iorisk._kernels``.

These are the per-pair, per-counter loops the package shipped before its
kernels were vectorized, kept unchanged. Each loop states the apportioning
rule inline (half-even share of (d * overlap) / span per claimant, residue
to the last claimant, negative carry walked back), so the vectorized
``apportion`` and the kernels built on it are checked against code that
shares none of their structure. ``_deltify_drops`` counts, pair by pair,
what ``deltify_pairs`` reports it dropped or took as a reset.
``group_rows_ref`` is the dict-based
oracle of the grouping rule behind ``sort_groups`` and ``group_sum``.
"""
from __future__ import annotations

import numpy as np

from iorisk.ops import N_COUNTERS, N_OSS


def _round_half_even(x):
    """Round a non-negative float to the nearest integer, ties to even."""
    f = int(x)  # x >= 0, so truncation == floor
    rem = x - f
    if rem > 0.5:
        return f + 1
    if rem < 0.5:
        return f
    return f if f % 2 == 0 else f + 1


def _deltify_loop(stream, ts, values, bin_width, max_gap_s,
                  out_stream, out_bin, out_deltas):
    n = ts.shape[0]
    w = bin_width
    written = 0
    delta = np.empty(N_COUNTERS, dtype=np.int64)
    for i in range(1, n):
        if stream[i] != stream[i - 1]:
            continue
        t0 = ts[i - 1]
        t1 = ts[i]
        dt = t1 - t0
        if dt > max_gap_s:
            continue
        any_nonzero = False
        for c in range(N_COUNTERS):
            v0 = values[i - 1, c]
            v1 = values[i, c]
            d = v1 - v0 if v1 >= v0 else v1
            delta[c] = d
            if d != 0:
                any_nonzero = True
        if not any_nonzero:
            continue
        b_last = w * ((t1 - 1) // w)
        b_first = w * (t0 // w)
        if dt <= 0 or b_first >= b_last:
            out_stream[written] = stream[i]
            out_bin[written] = b_last
            for c in range(N_COUNTERS):
                out_deltas[written, c] = delta[c]
            written += 1
            continue
        nbins = (b_last - b_first) // w + 1
        base = written
        for k in range(nbins):
            out_stream[base + k] = stream[i]
            out_bin[base + k] = b_first + k * w
        for c in range(N_COUNTERS):
            d = delta[c]
            if d == 0:
                for k in range(nbins):
                    out_deltas[base + k, c] = 0
                continue
            acc = 0
            for k in range(nbins):
                b = b_first + k * w
                lo = t0 if t0 > b else b
                hi = t1 if t1 < b + w else b + w
                share = _round_half_even(d * float(hi - lo) / float(dt))
                out_deltas[base + k, c] = share
                acc += share
            res = d - acc
            k = nbins - 1
            out_deltas[base + k, c] += res
            while out_deltas[base + k, c] < 0:
                carry = out_deltas[base + k, c]
                out_deltas[base + k, c] = 0
                k -= 1
                out_deltas[base + k, c] += carry
        written = base + nbins
    return written


def _deltify_count(stream, ts, bin_width, max_gap_s):
    n = ts.shape[0]
    w = bin_width
    total = 0
    for i in range(1, n):
        if stream[i] != stream[i - 1]:
            continue
        t0 = ts[i - 1]
        t1 = ts[i]
        dt = t1 - t0
        if dt > max_gap_s:
            continue
        b_last = w * ((t1 - 1) // w)
        b_first = w * (t0 // w)
        if dt <= 0 or b_first >= b_last:
            total += 1
        else:
            total += (b_last - b_first) // w + 1
    return total


def _deltify_drops(stream, ts, values, max_gap_s):
    """(pairs further apart than max_gap_s, other pairs in which some
    counter went down), over the consecutive same-stream pairs."""
    gap_pairs = reset_pairs = 0
    for i in range(1, ts.shape[0]):
        if stream[i] != stream[i - 1]:
            continue
        if ts[i] - ts[i - 1] > max_gap_s:
            gap_pairs += 1
        elif any(values[i, c] < values[i - 1, c] for c in range(N_COUNTERS)):
            reset_pairs += 1
    return gap_pairs, reset_pairs


def _claim_range(starts, ends, lo, hi, b, b_end):
    """Index range [j0, j1) of jobs overlapping [b, b_end) in one segment."""
    a, z = lo, hi
    while a < z:  # first job with end > b
        mid = (a + z) // 2
        if ends[mid] <= b:
            a = mid + 1
        else:
            z = mid
    j0 = a
    a, z = j0, hi
    while a < z:  # first job with start >= b_end
        mid = (a + z) // 2
        if starts[mid] < b_end:
            a = mid + 1
        else:
            z = mid
    return j0, a


def _attribute_loop(node_idx, fs_idx, bin_start, deltas, bin_width,
                    node_ptr, job_start, job_end, job_of,
                    out_job, out_fs, out_bin, out_deltas):
    m = bin_start.shape[0]
    w = bin_width
    written = 0
    for i in range(m):
        b = bin_start[i]
        b_end = b + w
        lo = node_ptr[node_idx[i]]
        hi = node_ptr[node_idx[i] + 1]
        j0, j1 = _claim_range(job_start, job_end, lo, hi, b, b_end)
        njobs = j1 - j0
        if njobs == 0:
            out_job[written] = -1
            out_fs[written] = fs_idx[i]
            out_bin[written] = b
            for c in range(N_COUNTERS):
                out_deltas[written, c] = deltas[i, c]
            written += 1
            continue
        covered = 0
        for j in range(j0, j1):
            s = job_start[j] if job_start[j] > b else b
            e = job_end[j] if job_end[j] < b_end else b_end
            covered += e - s
        if njobs == 1 and covered == w:
            out_job[written] = job_of[j0]
            out_fs[written] = fs_idx[i]
            out_bin[written] = b
            for c in range(N_COUNTERS):
                out_deltas[written, c] = deltas[i, c]
            written += 1
            continue
        un_ov = w - covered
        nclaims = njobs + (1 if un_ov > 0 else 0)
        base = written
        for k in range(njobs):
            out_job[base + k] = job_of[j0 + k]
            out_fs[base + k] = fs_idx[i]
            out_bin[base + k] = b
        if un_ov > 0:
            out_job[base + njobs] = -1
            out_fs[base + njobs] = fs_idx[i]
            out_bin[base + njobs] = b
        for c in range(N_COUNTERS):
            d = deltas[i, c]
            if d == 0:
                for k in range(nclaims):
                    out_deltas[base + k, c] = 0
                continue
            acc = 0
            for k in range(njobs):
                j = j0 + k
                s = job_start[j] if job_start[j] > b else b
                e = job_end[j] if job_end[j] < b_end else b_end
                share = _round_half_even(d * float(e - s) / float(w))
                out_deltas[base + k, c] = share
                acc += share
            if un_ov > 0:
                share = _round_half_even(d * float(un_ov) / float(w))
                out_deltas[base + njobs, c] = share
                acc += share
            res = d - acc
            k = nclaims - 1
            out_deltas[base + k, c] += res
            while out_deltas[base + k, c] < 0:
                carry = out_deltas[base + k, c]
                out_deltas[base + k, c] = 0
                k -= 1
                out_deltas[base + k, c] += carry
        written = base + nclaims
    return written


def _attribute_count(node_idx, bin_start, bin_width,
                     node_ptr, job_start, job_end):
    m = bin_start.shape[0]
    w = bin_width
    total = 0
    for i in range(m):
        b = bin_start[i]
        lo = node_ptr[node_idx[i]]
        hi = node_ptr[node_idx[i] + 1]
        j0, j1 = _claim_range(job_start, job_end, lo, hi, b, b + w)
        total += (j1 - j0) + 1
    return total


def _risk_loop(deltas, fs_idx, avg, md_total, alpha, beta, threshold, out):
    m = deltas.shape[0]
    for i in range(m):
        f = fs_idx[i]
        for c in range(N_COUNTERS):
            x = deltas[i, c]
            a = avg[f, c]
            denom = alpha * a
            if c < N_OSS:
                if denom <= 0.0:
                    out[i, c] = 0.0
                    continue
            else:
                if denom < threshold:
                    denom = beta * md_total[f]
                    if denom <= 0.0:
                        denom = threshold
                    if denom <= 0.0:
                        out[i, c] = 0.0
                        continue
            v = (x - denom) / denom
            out[i, c] = v if v > 0.0 else 0.0
    return out


def split_ref(d, overlaps, span):
    """One counter's shares under the loops' rule, as a list."""
    shares = [_round_half_even(d * float(ov) / float(span))
              for ov in overlaps]
    k = len(shares) - 1
    shares[k] += d - sum(shares)
    while shares[k] < 0:
        carry = shares[k]
        shares[k] = 0
        k -= 1
        shares[k] += carry
    return shares


def deltify_pairs_ref(stream, ts, values, bin_width, max_gap_s, out=None):
    # out is the vectorized kernel's workspace; the loop needs none
    bound = _deltify_count(stream, ts, bin_width, max_gap_s)
    out_stream = np.empty(bound, dtype=np.int64)
    out_bin = np.empty(bound, dtype=np.int64)
    out_deltas = np.empty((bound, N_COUNTERS), dtype=np.int64)
    n = _deltify_loop(stream, ts, values, bin_width, max_gap_s,
                      out_stream, out_bin, out_deltas)
    return (out_stream[:n], out_bin[:n], out_deltas[:n],
            *_deltify_drops(stream, ts, values, max_gap_s))


def attribute_rows_ref(node_idx, fs_idx, bin_start, deltas, bin_width,
                       node_ptr, job_start, job_end, job_of):
    """Every node-bin row's claimant share rows, the claiming jobs found
    in each node's CSR segment of jobs (node_ptr)."""
    bound = _attribute_count(node_idx, bin_start, bin_width,
                             node_ptr, job_start, job_end)
    out_job = np.empty(bound, dtype=np.int32)
    out_fs = np.empty(bound, dtype=np.int32)
    out_bin = np.empty(bound, dtype=np.int64)
    out_deltas = np.empty((bound, N_COUNTERS), dtype=np.int64)
    n = _attribute_loop(node_idx, fs_idx, bin_start, deltas, bin_width,
                        node_ptr, job_start, job_end, job_of,
                        out_job, out_fs, out_bin, out_deltas)
    return out_job[:n], out_fs[:n], out_bin[:n], out_deltas[:n]


def attribute_shares_ref(fs_idx, bin_start, deltas, bin_width, j0, j1,
                         job_start, job_end, job_of):
    """_kernels.attribute_shares through the loop above: each row is a
    node of its own, holding copies of its claiming jobs j0 .. j1-1."""
    count = j1 - j0
    node_ptr = np.concatenate(([0], np.cumsum(count)))
    jobs = np.repeat(j0 - node_ptr[:-1], count) + np.arange(
        node_ptr[-1], dtype=np.int64)
    return attribute_rows_ref(
        np.arange(len(bin_start)), fs_idx, bin_start, deltas, bin_width,
        node_ptr, job_start[jobs], job_end[jobs], job_of[jobs])


def risk_contribs_ref(deltas, fs_idx, avg, md_total, alpha, beta,
                      threshold):
    out = np.empty_like(deltas)
    return _risk_loop(deltas, fs_idx, avg, md_total, float(alpha),
                      float(beta), float(threshold), out)


def group_rows_ref(keys, n_rows):
    """{key tuple: [row, ...]}: the rows that share each distinct key
    tuple, in input order, gathered one row at a time."""
    groups = {}
    for row in range(n_rows):
        groups.setdefault(tuple(int(k[row]) for k in keys), []).append(row)
    return groups
