"""Parallel-filesystem counter telemetry analysis toolkit.

Ingests per-node Lustre OSS/MDS counter feeds and batch-job accounting,
attributes I/O to jobs, computes contention-risk and I/O-quality metrics,
and emits risk time series, application scatter profiles, slowdown
findings, per-job I/O summaries, core-hour-weighted heatmaps and usage
breakdown tables. A deterministic synthetic workload generator provides
ground-truth fixtures. The 21 counters' names and columns are in ops.
"""

__version__ = "0.1.0"
