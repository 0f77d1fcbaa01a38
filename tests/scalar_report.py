"""Row-by-row report writers: the oracle for ``iorisk.report``.

These are the report writers the package shipped before every artifact
went through the bulk emitter, kept verbatim: rows built one at a time in
Python (``_rank_jobs``, ``_day_series_rows``, ``_risk_timeseries_rows``),
floats formatted one ``repr`` at a time and lines written through
``_csv_lines`` (``scalar_csv.py``). The timeseries SVG renderer is kept as
it was too. The package writers must produce the same bytes from the same
tables.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from iorisk.config import Config
from iorisk.ingest import UsageTable
from iorisk.metrics import FS_SUBJECT, FsMetrics, JobMetrics
from iorisk.ops import COUNTER_NAMES
from iorisk.report import (SECONDS_PER_DAY, BreakdownTable, Heatmap,
                           _day_label, apply_aliases)

from scalar_csv import _write_csv


def _fmt(x: float) -> str:
    return repr(float(x))


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


def write_unattributed_csv(path, unattributed: UsageTable) -> None:
    u = unattributed
    filesystems, fs_idx = u.names["fs"], u.codes["fs"]
    _write_csv(path, ["fs", "bin_start"] + list(COUNTER_NAMES),
               ([filesystems[fs_idx[i]], int(u.bin_start[i])]
                + u.deltas[i].tolist() for i in range(len(u))))


def write_correlation_csv(path, rows) -> None:
    """rows: iterable of (series_a, series_b, lag, r_or_None, n_bins)."""
    _write_csv(path, ["series_a", "series_b", "lag_bins", "pearson_r",
                      "n_bins"],
               ([a, b, lag, "undefined" if r is None else _fmt(r), n]
                for a, b, lag, r, n in rows))


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
