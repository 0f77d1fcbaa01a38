"""Report surfaces: heatmaps, usage breakdown tables, risk time series and
series correlation.

Heatmaps bin jobs by size (nodes) and data volume (GiB) on power-of-two
edges and weight each cell by core-hours spent. Breakdown tables use the
coarser factor-8 edges. All CSV emission is deterministic: fixed ordering,
repr-formatted floats; SVG output is a dependency-free convenience.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import _kernels
from .analytics import id_rank, job_measures
from .config import Config
from .ingest import (JobTable, UsageTable, key_column, repeated_ints,
                     write_csv)
from .metrics import FS_SUBJECT, FsMetrics, JobMetrics
from .store import write_usage

MEASURES = ("read_gib", "write_gib", "mean_read_ops_s", "mean_write_ops_s")

BREAKDOWN_EDGES_GIB = (4.0, 32.0, 256.0, 2048.0)
BREAKDOWN_LABELS = ("(0,4)", "[4,32)", "[32,256)", "[256,2048)",
                    "[2048,inf)")

SECONDS_PER_DAY = 86400


def _pow2(k: int) -> str:
    v = 2.0 ** k
    return f"{int(v)}" if v >= 1 else f"{v:g}"


# ---------------------------------------------------------------------------
# heatmaps
# ---------------------------------------------------------------------------


def bin_exp(values) -> np.ndarray:
    """The power-of-two bin of each value v > 0: k with 2^(k-1) < v <= 2^k,
    read exactly off np.frexp (v = m * 2^e with 0.5 <= m < 1)."""
    mantissa, exp = np.frexp(np.asarray(values, dtype=np.float64))
    return exp - (mantissa == 0.5)


def node_bin_label(n: int) -> str:
    """The job-size bin of n >= 1 nodes: [1,1], then (2^(k-1), 2^k]."""
    k = int(bin_exp(n))
    return "[1,1]" if k == 0 else f"({_pow2(k - 1)},{_pow2(k)}]"


def volume_bin_label(v: float) -> str:
    """The data-volume bin of v >= 0: 0, or (2^(k-1), 2^k]."""
    k = int(bin_exp(v))
    return "0" if v == 0 else f"({_pow2(k - 1)},{_pow2(k)}]"


@dataclass
class Heatmap:
    """Core-hour-weighted 2D histogram of job size vs data volume."""

    measure: str
    row_labels: tuple[str, ...]   # [1,1], (1,2], (2,4], ...
    col_labels: tuple[str, ...]   # 0, then (2^(k-1), 2^k] ascending
    weights: np.ndarray           # (rows, cols) core-h, float64
    weights_core_s: np.ndarray    # (rows, cols) core-seconds, int64 (exact)


def build_heatmap(jobs: JobTable, totals, measure: str) -> Heatmap:
    """Bin every job into one (size, volume) cell weighted by its core-h;
    totals are summarize_jobs' for the jobs."""
    if measure not in MEASURES:
        raise ValueError(f"unknown heatmap measure {measure!r}; "
                         f"expected one of {MEASURES}")
    if not len(jobs):
        raise ValueError("no jobs to bin")
    rows = bin_exp(jobs.node_counts)
    values = job_measures(jobs, totals)[:, MEASURES.index(measure)]
    exps = bin_exp(values)
    zero = values == 0
    k_min, k_max = ((exps[~zero].min(), exps[~zero].max()) if not zero.all()
                    else (1, 0))
    cols = np.where(zero, 0, exps - k_min + 1)
    weights_core_s = np.zeros((rows.max() + 1, k_max - k_min + 2),
                              dtype=np.int64)
    np.add.at(weights_core_s, (rows, cols), jobs.core_s)
    return Heatmap(
        measure=measure,
        row_labels=tuple(node_bin_label(2 ** k)
                         for k in range(rows.max() + 1)),
        col_labels=tuple(volume_bin_label(v) for v in
                         (0, *2.0 ** np.arange(k_min, k_max + 1))),
        weights=weights_core_s / 3600.0, weights_core_s=weights_core_s)


# ---------------------------------------------------------------------------
# breakdown tables
# ---------------------------------------------------------------------------


@dataclass
class BreakdownTable:
    """% of core-h per data-volume bin, for data read and written."""

    labels: tuple[str, ...]
    read_pct: tuple[float, ...]
    write_pct: tuple[float, ...]


def breakdown_bin_index(values) -> np.ndarray:
    """Bin of each per-job GiB volume; zero-I/O jobs land in the first."""
    return np.searchsorted(BREAKDOWN_EDGES_GIB, values, side="right")


def build_breakdown(jobs: JobTable, totals) -> BreakdownTable:
    """The breakdown of the jobs' core-h; totals are summarize_jobs'."""
    core_s = jobs.core_s
    total = int(core_s.sum())
    if total <= 0:
        raise ValueError("total core-h must be positive")
    gib = job_measures(jobs, totals)[:, :2]

    def pct(values):
        bins = np.zeros(len(BREAKDOWN_LABELS), dtype=np.int64)
        np.add.at(bins, breakdown_bin_index(values), core_s)
        return tuple((100.0 * bins / total).tolist())

    return BreakdownTable(labels=BREAKDOWN_LABELS, read_pct=pct(gib[:, 0]),
                          write_pct=pct(gib[:, 1]))


# ---------------------------------------------------------------------------
# time-series emission
# ---------------------------------------------------------------------------


def _day_label(day_start: int) -> str:
    return datetime.fromtimestamp(day_start, tz=timezone.utc).strftime(
        "%Y-%m-%d")


def emit_timeseries(fs_metrics: FsMetrics, job_metrics: JobMetrics,
                    out_dir, top_k: int = Config.top_k, svg: bool = False,
                    day_offset: int = 0) -> list[Path]:
    """Write per-fs, per-day risk series with the top contributing jobs.

    Each file holds, per bin: the fs total row, one row per top-k job
    (ranked by time-integrated total risk over the day) and an __other__
    remainder row, so components always sum to the fs total. Days inside a
    filesystem's data span with no bins produce a header-only file. Days
    start day_offset seconds after UTC midnight, taken modulo a day.
    """
    day_offset %= SECONDS_PER_DAY
    out_dir = Path(out_dir)
    jm = job_metrics
    fm = fs_metrics
    rank = id_rank(jm.job_ids)
    written = []
    for fs_i, fs_rows in _kernels.groups(fm.fs_idx):
        fs_id = fm.filesystems[fs_i]
        fs_dir = out_dir / "timeseries" / fs_id
        fs_dir.mkdir(parents=True, exist_ok=True)
        job_rows = np.flatnonzero(jm.fs_idx == fs_i)
        fs_day = (fm.bin_start[fs_rows] - day_offset) // SECONDS_PER_DAY
        job_day = (jm.bin_start[job_rows] - day_offset) // SECONDS_PER_DAY
        for d in range(int(fs_day.min()), int(fs_day.max()) + 1):
            day = d * SECONDS_PER_DAY + day_offset
            path = fs_dir / f"{_day_label(day)}.csv"
            day_sel, jr = fs_rows[fs_day == d], job_rows[job_day == d]
            ranked = _top_jobs(jm, jr, top_k, rank)
            bins, oss, mds = _day_tables(fm, day_sel, jm, jr, ranked)
            names = [jm.job_ids[j] for j in ranked]
            write_csv(path, ("bin_start", "subject", "risk_oss", "risk_mds"),
                      [repeated_ints(np.repeat(bins, len(names) + 2)),
                       (np.tile(np.arange(len(names) + 2), len(bins)),
                        (FS_SUBJECT, *names, "__other__")),
                       oss.ravel(), mds.ravel()])
            written.append(path)
            if svg and day_sel.size:
                svg_path = fs_dir / f"{_day_label(day)}.svg"
                render_timeseries_svg(svg_path, fs_id, _day_label(day),
                                      bins.tolist(),
                                      oss[:, :-1] + mds[:, :-1], names)
                written.append(svg_path)
    return written


def _top_jobs(jm: JobMetrics, rows, top_k: int, rank) -> list[int]:
    """Top-k job indices by integrated total risk, ties by job id."""
    if rows.size == 0 or top_k <= 0:
        return []
    # bincount adds each job's risk in row order, one row at a time
    integrated = np.bincount(jm.job_idx[rows],
                             jm.risk_oss[rows] + jm.risk_mds[rows])
    jobs = np.flatnonzero(np.bincount(jm.job_idx[rows]))
    order = np.lexsort((rank[jobs], -integrated[jobs]))
    return jobs[order[:top_k]].tolist()


def _added_in_turn(columns) -> np.ndarray:
    """Row sums of a table, adding one column at a time from the left."""
    total = np.zeros(len(columns))
    for c in range(columns.shape[1]):
        total = total + columns[:, c]
    return total


def _day_tables(fm: FsMetrics, day_sel, jm: JobMetrics, job_rows, ranked):
    """The day's bins, ascending, and its risk_oss and risk_mds tables:
    per bin, the fs total, each ranked job and the remainder."""
    fs_rows = day_sel[np.argsort(fm.bin_start[day_sel], kind="stable")]
    bins = fm.bin_start[fs_rows]
    k = len(ranked)
    slot = np.zeros(len(jm.job_ids), dtype=np.int64)
    slot[ranked] = np.arange(1, k + 1)
    rows = job_rows[slot[jm.job_idx[job_rows]] > 0]
    # every job row's (fs, bin) has its fs row: fs metrics sum job rows
    at = np.searchsorted(bins, jm.bin_start[rows])
    tables = []
    for fs_risk, job_risk in ((fm.risk_oss, jm.risk_oss),
                              (fm.risk_mds, jm.risk_mds)):
        table = np.zeros((len(bins), k + 2))
        table[:, 0] = fs_risk[fs_rows]
        table[at, slot[jm.job_idx[rows]]] = job_risk[rows]
        table[:, -1] = table[:, 0] - _added_in_turn(table[:, 1:-1])
        tables.append(table)
    return bins, *tables


def write_risk_timeseries_csv(path, fm: FsMetrics, jm: JobMetrics) -> None:
    """The full risk/quality series: per (fs, bin), one __fs__ row, then
    the job rows in job id order."""
    rank = np.concatenate((np.full(len(fm), -1),  # the fs row first
                           id_rank(jm.job_ids)[jm.job_idx]))
    bins = np.concatenate((fm.bin_start, jm.bin_start))
    fs = np.concatenate((fm.fs_idx, jm.fs_idx))
    order = np.lexsort((rank, bins, fs))
    subject = np.concatenate((np.full(len(fm), len(jm.job_ids)),
                              jm.job_idx))
    write_csv(path, ("fs", "bin_start", "subject", "risk_oss", "risk_mds",
                     "read_kb_ops", "write_kb_ops"),
              [(fs[order], fm.filesystems), repeated_ints(bins[order]),
               (subject[order], jm.job_ids + (FS_SUBJECT,)),
               *(np.concatenate((getattr(fm, name), getattr(jm, name)))[order]
                 for name in ("risk_oss", "risk_mds", "read_kb_ops",
                              "write_kb_ops"))])


# ---------------------------------------------------------------------------
# series correlation
# ---------------------------------------------------------------------------


def resample_to_bins(ts, values, bin_width: int):
    """Per-bin means of an irregular series on the closing-bin grid."""
    ts = np.asarray(ts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if ts.shape != values.shape:
        raise ValueError("timestamps and values must align")
    bins = _kernels.closing_bin(ts, bin_width)
    order, starts = _kernels.sort_groups(bins)
    sums = np.add.reduceat(values[order], starts)
    counts = np.diff(np.append(starts, len(bins)))
    return bins[order[starts]], sums / counts


def binned_series_instants(bin_start, bin_width: int):
    """Timestamps for correlating an already-binned series.

    A bin labelled b covers (b, b+w], so its value belongs to the closing
    instant b+w; resampling maps that instant back onto label b. Raw
    sample series (e.g. probe ticks) need no such shift.
    """
    return np.asarray(bin_start, dtype=np.int64) + bin_width


def correlate_series(a, b, bin_width: int,
                     lag: int = 0) -> tuple[float | None, int]:
    """Pearson correlation of two (timestamps, values) series at a lag,
    and the number of bins it pairs.

    Both series are resampled to the common bin grid by per-bin mean
    (timestamps are sample instants; for pre-binned series pass
    binned_series_instants). A value of series a at bin t is paired with
    series b at t + lag bins, so a lag past the series' span pairs none.
    The correlation is None when either side has zero variance
    (undefined).
    """
    a_bins, a_vals = resample_to_bins(a[0], a[1], bin_width)
    b_bins, b_vals = resample_to_bins(b[0], b[1], bin_width)
    # bins pair only at a shift of some b bin less some a bin; past that
    # range none do, and b_bins - shift might not fit int64
    shift = int(lag) * bin_width
    paired = a_bins.size and b_bins.size and int(
        b_bins[0] - a_bins[-1]) <= shift <= int(b_bins[-1] - a_bins[0])
    shifted = b_bins - shift if paired else b_bins[:0]
    common, ia, ib = np.intersect1d(a_bins, shifted, return_indices=True)
    if common.size < 3:
        raise ValueError(
            f"need >= 3 overlapping bins, got {common.size}")
    x = a_vals[ia]
    y = b_vals[ib]
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return None, common.size
    return float(np.corrcoef(x, y)[0, 1]), common.size


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def apply_aliases(command: str, aliases: dict[str, str] | None) -> str:
    if not aliases:
        return command
    return aliases.get(command, command)


def _commands(jobs: JobTable, rows, aliases):
    """The key column of the rows' commands, each distinct command
    relabelled once through aliases."""
    codes, commands = key_column(jobs.commands)
    return codes[rows], [apply_aliases(c, aliases) for c in commands]


def write_job_summary_csv(path, jobs: JobTable, totals) -> None:
    """One row per job from summarize_jobs' totals, in table order."""
    measures = job_measures(jobs, totals)
    write_csv(path, ("job_id", "project", "command", "nodes", "core_h",
                     "read_gib", "write_gib", "read_ops", "write_ops",
                     "mean_read_ops_s", "mean_write_ops_s"),
              [key_column(jobs.job_ids), key_column(jobs.projects),
               key_column(jobs.commands), jobs.node_counts,
               jobs.core_s / 3600.0, measures[:, :2], totals[:, [1, 3]],
               measures[:, 2:]])


def write_scatter_csv(path, jobs: JobTable, rows, averages,
                      aliases=None) -> None:
    """build_scatter's rows and averages."""
    write_csv(path, ("job_id", "command", "avg_risk_oss", "avg_risk_mds",
                     "avg_quality"),
              [(rows, jobs.job_ids), _commands(jobs, rows, aliases),
               averages])


def write_slowdown_csv(path, jobs: JobTable, rows, group_mean_s,
                       aliases=None) -> None:
    """detect_slowdown's rows and group means."""
    runtime = jobs.runtime_s[rows]
    write_csv(path, ("job_id", "command", "runtime_s", "group_mean_s",
                     "ratio"),
              [(rows, jobs.job_ids), _commands(jobs, rows, aliases),
               runtime, np.column_stack((group_mean_s,
                                         runtime / group_mean_s))])


def write_heatmap_csv(path, hm: Heatmap) -> None:
    """Rows are job-size bins, columns are measure bins, cells core-h."""
    write_csv(path, ("nodes_bin", *hm.col_labels),
              [key_column(hm.row_labels), hm.weights])


def write_breakdown_csv(path, table: BreakdownTable) -> None:
    write_csv(path, ("data_gib_bin", "read_pct", "write_pct"),
              [key_column(table.labels),
               np.column_stack((table.read_pct, table.write_pct))])


def write_unattributed_csv(path, unattributed: UsageTable) -> None:
    write_usage(path, unattributed)


def write_correlation_csv(path, rows) -> None:
    """rows: iterable of (series_a, series_b, lag, r_or_None, n_bins)."""
    a, b, lag, r, n = list(zip(*rows)) or [()] * 5
    write_csv(path, ("series_a", "series_b", "lag_bins", "pearson_r",
                     "n_bins"),
              [key_column(a), key_column(b), np.array(lag, dtype=np.int64),
               key_column(["undefined" if x is None else repr(float(x))
                           for x in r]),
               np.array(n, dtype=np.int64)])


# ---------------------------------------------------------------------------
# SVG rendering (dependency-free, deterministic)
# ---------------------------------------------------------------------------


def _heat_color(t: float) -> str:
    """Blue (cold) to red (hot) ramp for t in [0, 1]."""
    r = int(round(255 * t))
    g = int(round(80 * (1.0 - abs(2.0 * t - 1.0))))
    b = int(round(255 * (1.0 - t)))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(path, hm: Heatmap) -> None:
    """Minimal heatmap rendering on a log color scale; each cell carries
    both normalizations."""
    cell = 30
    left, top = 130, 50
    nrows, ncols = hm.weights.shape
    width = left + ncols * cell + 40
    height = top + nrows * cell + 90
    wmax = float(hm.weights.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        '<!-- norm=log (available: log, linear) -->',
        f'<text x="{left}" y="20" font-size="13">core-h heatmap: '
        f'{hm.measure} vs job size</text>',
    ]
    for r in range(nrows):
        y = top + r * cell
        parts.append(f'<text x="{left - 6}" y="{y + cell - 10}" '
                     f'text-anchor="end">{hm.row_labels[r]}</text>')
        for c in range(ncols):
            w = float(hm.weights[r, c])
            t_log = math.log1p(w) / math.log1p(wmax) if wmax > 0 else 0.0
            t_lin = w / wmax if wmax > 0 else 0.0
            x = left + c * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - 1}" '
                f'height="{cell - 1}" fill="{_heat_color(t_log)}" '
                f'data-core-h="{w!r}" data-norm-log="{t_log:.6f}" '
                f'data-norm-linear="{t_lin:.6f}"/>')
    for c in range(ncols):
        x = left + c * cell
        y = top + nrows * cell + 12
        parts.append(
            f'<text x="{x}" y="{y}" transform="rotate(45 {x} {y})">'
            f'{hm.col_labels[c]}</text>')
    parts.append(f'<text x="{left}" y="{height - 14}">rows: job size '
                 f'(nodes); cols: {hm.measure}; shade: core-h '
                 f'(log scale, max {wmax!r})</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def render_timeseries_svg(path, fs_id: str, day_label: str, bins, risk,
                          names) -> None:
    """Stacked-area chart of the top contributors plus the remainder.

    risk holds, per bin, the fs total risk, then each named job's."""
    width, height = 720, 300
    left, top, bottom = 60, 30, 40
    plot_w = width - left - 20
    plot_h = height - top - bottom

    nb = len(bins)
    total = risk[:, 0]
    series = np.column_stack((risk[:, 1:],
                              total - _added_in_turn(risk[:, 1:])))
    names = [*names, "__other__"]

    ymax = float(total.max()) if nb and total.max() > 0 else 1.0
    xs = (left + plot_w * np.arange(nb) / max(1, nb - 1)).tolist()

    def y_of(v):
        return (top + plot_h * (1.0 - v / ymax)).tolist()

    palette = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
               "#aa3377", "#bbbbbb")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        f'<text x="{left}" y="16" font-size="12">total risk, {fs_id} '
        f'{day_label} (stacked top-{len(names) - 1} jobs + other)</text>',
    ]
    if nb:
        base = np.zeros(nb)
        base_pts = [f"{x:.1f},{y:.1f}" for x, y in zip(xs, y_of(base))]
        for s_i in range(series.shape[1]):
            upper = base + series[:, s_i]
            pts = [f"{x:.1f},{y:.1f}" for x, y in zip(xs, y_of(upper))]
            color = palette[s_i % len(palette)]
            parts.append(f'<polygon points="{" ".join(pts + base_pts[::-1])}" '
                         f'fill="{color}" fill-opacity="0.8" '
                         f'data-series="{names[s_i]}"/>')
            base, base_pts = upper, pts
        for s_i, name in enumerate(names):
            color = palette[s_i % len(palette)]
            y = top + 14 * s_i
            parts.append(f'<rect x="{width - 150}" y="{y}" width="10" '
                         f'height="10" fill="{color}"/>')
            parts.append(f'<text x="{width - 136}" y="{y + 9}">'
                         f'{name}</text>')
        parts.append(f'<text x="{left}" y="{height - 8}">bins '
                     f'{bins[0]}..{bins[-1]}, ymax={ymax!r}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
