"""Report surfaces: heatmaps, usage breakdown tables, risk time series and
series correlation.

Heatmaps bin jobs by size (nodes) and data volume (GiB) on power-of-two
edges and weight each cell by core-hours spent. Breakdown tables use the
coarser factor-8 edges. All CSV emission is deterministic: fixed ordering,
repr-formatted floats; SVG output is a dependency-free convenience.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .attribute import FsUsageTable
from .config import Config
from .ingest import _csv_lines
from .metrics import FS_SUBJECT, FsMetrics, JobMetrics
from .ops import COUNTER_NAMES

MEASURES = ("read_gib", "write_gib", "mean_read_ops_s", "mean_write_ops_s")

BREAKDOWN_EDGES_GIB = (4.0, 32.0, 256.0, 2048.0)
BREAKDOWN_LABELS = ("(0,4)", "[4,32)", "[32,256)", "[256,2048)",
                    "[2048,inf)")

SECONDS_PER_DAY = 86400


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """Write header and rows as _csv_lines formats them."""
    with open(path, "w", newline="") as f:
        f.writelines(_csv_lines(itertools.chain([header], rows)))


def _pow2(k: int) -> str:
    v = 2.0 ** k
    return f"{int(v)}" if v >= 1 else f"{v:g}"


# ---------------------------------------------------------------------------
# heatmaps
# ---------------------------------------------------------------------------


def node_bin_index(n: int) -> int:
    """Row index of a job size: 0 for [1,1], k for (2^(k-1), 2^k]."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    return 0 if n == 1 else (n - 1).bit_length()


def volume_bin_exp(v: float) -> int | None:
    """Column exponent of a volume: None for 0, else k with 2^(k-1) < v <= 2^k."""
    if v < 0:
        raise ValueError(f"volume must be >= 0, got {v}")
    if v == 0:
        return None
    k = math.ceil(math.log2(v))
    while 2.0 ** (k - 1) >= v:
        k -= 1
    while v > 2.0 ** k:
        k += 1
    return k


def node_bin_label(n: int) -> str:
    k = node_bin_index(n)
    return "[1,1]" if k == 0 else f"({_pow2(k - 1)},{_pow2(k)}]"


def volume_bin_label(v: float) -> str:
    k = volume_bin_exp(v)
    return "0" if k is None else f"({_pow2(k - 1)},{_pow2(k)}]"


@dataclass
class Heatmap:
    """Core-hour-weighted 2D histogram of job size vs data volume."""

    measure: str
    row_labels: tuple[str, ...]   # [1,1], (1,2], (2,4], ...
    col_labels: tuple[str, ...]   # 0, then (2^(k-1), 2^k] ascending
    weights: np.ndarray           # (rows, cols) core-h, float64
    weights_core_s: np.ndarray    # (rows, cols) core-seconds, int64 (exact)

    @property
    def total_core_h(self) -> float:
        return float(self.weights_core_s.sum()) / 3600.0


def build_heatmap(summaries, measure: str) -> Heatmap:
    """Bin every job into one (size, volume) cell weighted by its core-h."""
    if measure not in MEASURES:
        raise ValueError(f"unknown heatmap measure {measure!r}; "
                         f"expected one of {MEASURES}")
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no job summaries to bin")

    rows = []
    for s in summaries:
        value = getattr(s, measure)
        rows.append((node_bin_index(s.nodes_count), volume_bin_exp(value),
                     s.core_s))

    max_row = max(r for r, _, _ in rows)
    exps = [e for _, e, _ in rows if e is not None]
    if exps:
        kmin, kmax = min(exps), max(exps)
        col_exps = list(range(kmin, kmax + 1))
    else:
        col_exps = []
    col_of = {e: i + 1 for i, e in enumerate(col_exps)}

    weights_core_s = np.zeros((max_row + 1, len(col_exps) + 1),
                              dtype=np.int64)
    for r, e, core_s in rows:
        c = 0 if e is None else col_of[e]
        weights_core_s[r, c] += core_s

    row_labels = ["[1,1]"] + [f"({_pow2(k - 1)},{_pow2(k)}]"
                              for k in range(1, max_row + 1)]
    col_labels = ["0"] + [f"({_pow2(k - 1)},{_pow2(k)}]" for k in col_exps]
    return Heatmap(measure=measure,
                   row_labels=tuple(row_labels),
                   col_labels=tuple(col_labels),
                   weights=weights_core_s / 3600.0,
                   weights_core_s=weights_core_s)


# ---------------------------------------------------------------------------
# breakdown tables
# ---------------------------------------------------------------------------


@dataclass
class BreakdownTable:
    """% of core-h per data-volume bin, for data read and written."""

    labels: tuple[str, ...]
    read_pct: tuple[float, ...]
    write_pct: tuple[float, ...]


def breakdown_bin_index(v: float) -> int:
    """Bin of a per-job GiB volume; zero-I/O jobs land in the first bin."""
    for i, edge in enumerate(BREAKDOWN_EDGES_GIB):
        if v < edge:
            return i
    return len(BREAKDOWN_EDGES_GIB)


def build_breakdown(summaries) -> BreakdownTable:
    summaries = list(summaries)
    total = sum(s.core_s for s in summaries)
    if total <= 0:
        raise ValueError("total core-h must be positive")
    nbins = len(BREAKDOWN_LABELS)
    read_core_s = [0] * nbins
    write_core_s = [0] * nbins
    for s in summaries:
        read_core_s[breakdown_bin_index(s.read_gib)] += s.core_s
        write_core_s[breakdown_bin_index(s.write_gib)] += s.core_s
    return BreakdownTable(
        labels=BREAKDOWN_LABELS,
        read_pct=tuple(100.0 * c / total for c in read_core_s),
        write_pct=tuple(100.0 * c / total for c in write_core_s))


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
    filesystem's data span with no bins produce a header-only file.
    """
    out_dir = Path(out_dir)
    jm = job_metrics
    fm = fs_metrics
    written = []
    for fs_i, fs_id in enumerate(fm.filesystems):
        fs_rows = np.flatnonzero(fm.fs_idx == fs_i)
        if fs_rows.size == 0:
            continue
        fs_bins = fm.bin_start[fs_rows]
        day_of = lambda b: ((b - day_offset) // SECONDS_PER_DAY) \
            * SECONDS_PER_DAY + day_offset
        first_day = day_of(int(fs_bins.min()))
        last_day = day_of(int(fs_bins.max()))
        fs_dir = out_dir / "timeseries" / fs_id
        fs_dir.mkdir(parents=True, exist_ok=True)
        job_rows_fs = np.flatnonzero(jm.fs_idx == fs_i) if len(jm) else \
            np.empty(0, dtype=np.int64)
        for day in range(first_day, last_day + SECONDS_PER_DAY,
                         SECONDS_PER_DAY):
            path = fs_dir / f"{_day_label(day)}.csv"
            day_sel = fs_rows[(fs_bins >= day)
                              & (fs_bins < day + SECONDS_PER_DAY)]
            jr = job_rows_fs[(jm.bin_start[job_rows_fs] >= day)
                             & (jm.bin_start[job_rows_fs]
                                < day + SECONDS_PER_DAY)] \
                if job_rows_fs.size else job_rows_fs
            ranked = _rank_jobs(jm, jr, top_k)
            _write_csv(path, ["bin_start", "subject", "risk_oss",
                              "risk_mds"],
                       _day_series_rows(fm, day_sel, jm, jr, ranked))
            written.append(path)
            if svg and day_sel.size:
                svg_path = fs_dir / f"{_day_label(day)}.svg"
                render_timeseries_svg(svg_path, fs_id, _day_label(day),
                                      fm, day_sel, jm, jr, ranked)
                written.append(svg_path)
    return written


def _rank_jobs(jm: JobMetrics, rows, top_k: int) -> list[int]:
    """Top-k job indices by integrated total risk, ties by job id."""
    if rows.size == 0 or top_k <= 0:
        return []
    integrated: dict[int, float] = {}
    total = jm.risk_oss[rows] + jm.risk_mds[rows]
    for r, t in zip(rows, total):
        j = int(jm.job_idx[r])
        integrated[j] = integrated.get(j, 0.0) + float(t)
    ranked = sorted(integrated, key=lambda j: (-integrated[j],
                                               jm.job_ids[j]))
    return ranked[:top_k]


def _day_series_rows(fm: FsMetrics, day_sel, jm: JobMetrics, job_rows,
                     ranked):
    """Per bin of the day: the fs total, each ranked job, the remainder."""
    by_bin: dict[int, dict[int, tuple[float, float]]] = {}
    for r in job_rows:
        b = int(jm.bin_start[r])
        by_bin.setdefault(b, {})[int(jm.job_idx[r])] = (
            float(jm.risk_oss[r]), float(jm.risk_mds[r]))
    order = np.argsort(fm.bin_start[day_sel], kind="stable")
    for i in day_sel[order]:
        b = int(fm.bin_start[i])
        fs_oss = float(fm.risk_oss[i])
        fs_mds = float(fm.risk_mds[i])
        yield [b, FS_SUBJECT, _fmt(fs_oss), _fmt(fs_mds)]
        top_oss = 0.0
        top_mds = 0.0
        jobs_here = by_bin.get(b, {})
        for j in ranked:
            oss, mds = jobs_here.get(j, (0.0, 0.0))
            top_oss += oss
            top_mds += mds
            yield [b, jm.job_ids[j], _fmt(oss), _fmt(mds)]
        yield [b, "__other__", _fmt(fs_oss - top_oss),
               _fmt(fs_mds - top_mds)]


def write_risk_timeseries_csv(path, fm: FsMetrics, jm: JobMetrics) -> None:
    """The full risk/quality series: one __fs__ row plus job rows per bin."""
    _write_csv(path, ["fs", "bin_start", "subject", "risk_oss", "risk_mds",
                      "read_kb_ops", "write_kb_ops"],
               _risk_timeseries_rows(fm, jm))


def _risk_timeseries_rows(fm: FsMetrics, jm: JobMetrics):
    job_rows: dict[tuple[int, int], list[int]] = {}
    for r in range(len(jm)):
        job_rows.setdefault((int(jm.fs_idx[r]), int(jm.bin_start[r])),
                            []).append(r)
    for i in np.lexsort((fm.bin_start, fm.fs_idx)):
        fs_i = int(fm.fs_idx[i])
        b = int(fm.bin_start[i])
        fs_id = fm.filesystems[fs_i]
        yield [fs_id, b, FS_SUBJECT,
               _fmt(fm.risk_oss[i]), _fmt(fm.risk_mds[i]),
               _fmt(fm.read_kb_ops[i]), _fmt(fm.write_kb_ops[i])]
        rows = job_rows.get((fs_i, b), [])
        rows.sort(key=lambda r: jm.job_ids[jm.job_idx[r]])
        for r in rows:
            yield [fs_id, b, jm.job_ids[jm.job_idx[r]],
                   _fmt(jm.risk_oss[r]), _fmt(jm.risk_mds[r]),
                   _fmt(jm.read_kb_ops[r]), _fmt(jm.write_kb_ops[r])]


# ---------------------------------------------------------------------------
# series correlation
# ---------------------------------------------------------------------------


def resample_to_bins(ts, values, bin_width: int):
    """Per-bin means of an irregular series on the closing-bin grid."""
    ts = np.asarray(ts, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if ts.shape != values.shape:
        raise ValueError("timestamps and values must align")
    if ts.size == 0:
        return ts.copy(), values.copy()
    bins = bin_width * ((ts - 1) // bin_width)
    order = np.argsort(bins, kind="stable")
    b = bins[order]
    v = values[order]
    starts = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
    sums = np.add.reduceat(v, starts)
    counts = np.diff(np.concatenate((starts, [len(b)])))
    return b[starts], sums / counts


def binned_series_instants(bin_start, bin_width: int):
    """Timestamps for correlating an already-binned series.

    A bin labelled b covers (b, b+w], so its value belongs to the closing
    instant b+w; resampling maps that instant back onto label b. Raw
    sample series (e.g. probe ticks) need no such shift.
    """
    return np.asarray(bin_start, dtype=np.int64) + bin_width


def correlate_series(a, b, bin_width: int, lag: int = 0) -> float | None:
    """Pearson correlation of two (timestamps, values) series at a lag.

    Both series are resampled to the common bin grid by per-bin mean
    (timestamps are sample instants; for pre-binned series pass
    binned_series_instants). A value of series a at bin t is paired with
    series b at t + lag bins. Returns None when either side has zero
    variance (undefined).
    """
    a_bins, a_vals = resample_to_bins(a[0], a[1], bin_width)
    b_bins, b_vals = resample_to_bins(b[0], b[1], bin_width)
    shifted = b_bins - lag * bin_width
    common, ia, ib = np.intersect1d(a_bins, shifted, return_indices=True)
    if common.size < 3:
        raise ValueError(
            f"need >= 3 overlapping bins, got {common.size}")
    x = a_vals[ia]
    y = b_vals[ib]
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def apply_aliases(command: str, aliases: dict[str, str] | None) -> str:
    if not aliases:
        return command
    return aliases.get(command, command)


def write_job_summary_csv(path, summaries) -> None:
    _write_csv(path, ["job_id", "project", "command", "nodes", "core_h",
                      "read_gib", "write_gib", "read_ops", "write_ops",
                      "mean_read_ops_s", "mean_write_ops_s"],
               ([s.job_id, s.project, s.command, s.nodes_count,
                 _fmt(s.core_h), _fmt(s.read_gib), _fmt(s.write_gib),
                 s.read_ops_total, s.write_ops_total,
                 _fmt(s.mean_read_ops_s), _fmt(s.mean_write_ops_s)]
                for s in summaries))


def write_scatter_csv(path, points, aliases=None) -> None:
    _write_csv(path, ["job_id", "command", "avg_risk_oss", "avg_risk_mds",
                      "avg_quality"],
               ([p.job_id, apply_aliases(p.command, aliases),
                 _fmt(p.avg_risk_oss), _fmt(p.avg_risk_mds),
                 _fmt(p.avg_quality)] for p in points))


def write_slowdown_csv(path, findings, aliases=None) -> None:
    _write_csv(path, ["job_id", "command", "runtime_s", "group_mean_s",
                      "ratio"],
               ([fd.job_id, apply_aliases(fd.command, aliases),
                 fd.runtime_s, _fmt(fd.group_mean_s), _fmt(fd.ratio)]
                for fd in findings))


def write_heatmap_csv(path, hm: Heatmap) -> None:
    """Rows are job-size bins, columns are measure bins, cells core-h."""
    _write_csv(path, ["nodes_bin"] + list(hm.col_labels),
               ([label] + [_fmt(v) for v in hm.weights[r]]
                for r, label in enumerate(hm.row_labels)))


def write_breakdown_csv(path, table: BreakdownTable) -> None:
    _write_csv(path, ["data_gib_bin", "read_pct", "write_pct"],
               ([label, _fmt(r), _fmt(wr)] for label, r, wr in
                zip(table.labels, table.read_pct, table.write_pct)))


def write_unattributed_csv(path, unattributed: FsUsageTable) -> None:
    u = unattributed
    _write_csv(path, ["fs", "bin_start"] + list(COUNTER_NAMES),
               ([u.filesystems[u.fs_idx[i]], int(u.bin_start[i])]
                + u.deltas[i].tolist() for i in range(len(u))))


def write_correlation_csv(path, rows) -> None:
    """rows: iterable of (series_a, series_b, lag, r_or_None, n_bins)."""
    _write_csv(path, ["series_a", "series_b", "lag_bins", "pearson_r",
                      "n_bins"],
               ([a, b, lag, "undefined" if r is None else _fmt(r), n]
                for a, b, lag, r, n in rows))


# ---------------------------------------------------------------------------
# SVG rendering (dependency-free, deterministic)
# ---------------------------------------------------------------------------


def _heat_color(t: float) -> str:
    """Blue (cold) to red (hot) ramp for t in [0, 1]."""
    r = int(round(255 * t))
    g = int(round(80 * (1.0 - abs(2.0 * t - 1.0))))
    b = int(round(255 * (1.0 - t)))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap_svg(path, hm: Heatmap, norm: str = "log") -> None:
    """Minimal heatmap rendering; each cell carries both normalizations."""
    if norm not in ("log", "linear"):
        raise ValueError(f"norm must be 'log' or 'linear', got {norm!r}")
    cell = 30
    left, top = 130, 50
    nrows, ncols = hm.weights.shape
    width = left + ncols * cell + 40
    height = top + nrows * cell + 90
    wmax = float(hm.weights.max())
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        f'<!-- norm={norm} (available: log, linear) -->',
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
            t = t_log if norm == "log" else t_lin
            x = left + c * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell - 1}" '
                f'height="{cell - 1}" fill="{_heat_color(t)}" '
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
                 f'({norm} scale, max {wmax!r})</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def render_timeseries_svg(path, fs_id: str, day_label: str, fm: FsMetrics,
                          day_sel, jm: JobMetrics, job_rows,
                          ranked) -> None:
    """Stacked-area chart of the top contributors plus the remainder."""
    width, height = 720, 300
    left, top, bottom = 60, 30, 40
    plot_w = width - left - 20
    plot_h = height - top - bottom

    order = np.argsort(fm.bin_start[day_sel], kind="stable")
    rows = day_sel[order]
    bins = [int(fm.bin_start[i]) for i in rows]
    total = [float(fm.risk_oss[i] + fm.risk_mds[i]) for i in rows]
    nb = len(bins)

    per_job: dict[int, dict[int, float]] = {j: {} for j in ranked}
    for r in job_rows:
        j = int(jm.job_idx[r])
        if j in per_job:
            per_job[j][int(jm.bin_start[r])] = float(
                jm.risk_oss[r] + jm.risk_mds[r])

    series = [[per_job[j].get(b, 0.0) for b in bins] for j in ranked]
    other = [total[i] - sum(s[i] for s in series) for i in range(nb)]
    series.append(other)
    names = [jm.job_ids[j] for j in ranked] + ["__other__"]

    ymax = max(total) if total and max(total) > 0 else 1.0
    xs = [left + (plot_w * i / max(1, nb - 1)) for i in range(nb)]

    def y_of(v):
        return top + plot_h * (1.0 - v / ymax)

    palette = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
               "#aa3377", "#bbbbbb")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">',
        f'<text x="{left}" y="16" font-size="12">total risk, {fs_id} '
        f'{day_label} (stacked top-{len(ranked)} jobs + other)</text>',
    ]
    if nb:
        base = [0.0] * nb
        for s_i, s in enumerate(series):
            upper = [base[i] + s[i] for i in range(nb)]
            pts = [f"{xs[i]:.1f},{y_of(upper[i]):.1f}" for i in range(nb)]
            pts += [f"{xs[i]:.1f},{y_of(base[i]):.1f}"
                    for i in range(nb - 1, -1, -1)]
            color = palette[s_i % len(palette)]
            parts.append(f'<polygon points="{" ".join(pts)}" '
                         f'fill="{color}" fill-opacity="0.8" '
                         f'data-series="{names[s_i]}"/>')
            base = upper
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
