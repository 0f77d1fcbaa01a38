"""Pipeline configuration: defaults, config-file parsing, flag overlay.

Precedence: built-in defaults < config file (--config or $IORISK_CONFIG)
< command-line flags. The file format is plain key=value lines with #
comments; keys match the Config field names.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .analytics import (DEFAULT_MIN_GROUP, DEFAULT_SCATTER_MIN_RISK,
                        DEFAULT_SLOWDOWN_FACTOR, check_slowdown_params)
from .ingest import (DEFAULT_BIN_WIDTH_S, DEFAULT_CORES_PER_NODE,
                     DEFAULT_MAX_GAP_BINS)
from .metrics import (DEFAULT_ALPHA, DEFAULT_BETA,
                      DEFAULT_MD_SMALL_AVG_THRESHOLD, RiskParams)
from .report import DEFAULT_TOP_K

CONFIG_ENV_VAR = "IORISK_CONFIG"


@dataclass
class Config:
    bin_width_s: int = DEFAULT_BIN_WIDTH_S
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    md_small_avg_threshold: float = DEFAULT_MD_SMALL_AVG_THRESHOLD
    slowdown_factor: float = DEFAULT_SLOWDOWN_FACTOR
    min_group: int = DEFAULT_MIN_GROUP
    scatter_min_risk: float = DEFAULT_SCATTER_MIN_RISK
    cores_per_node: int = DEFAULT_CORES_PER_NODE
    baseline_days: float | None = None
    max_gap_bins: int = DEFAULT_MAX_GAP_BINS
    top_k: int = DEFAULT_TOP_K
    pre_differenced: bool = False
    day_offset_s: int = 0
    quality_agg: str = "sum"

    def validate(self) -> None:
        positive = ("bin_width_s", "alpha", "beta", "scatter_min_risk",
                    "cores_per_node", "max_gap_bins", "top_k")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"config: {name} must be positive, "
                                 f"got {getattr(self, name)}")
        check_slowdown_params(self.slowdown_factor, self.min_group)
        if self.md_small_avg_threshold < 0:
            raise ValueError("config: md_small_avg_threshold must be >= 0")
        if self.baseline_days is not None and self.baseline_days <= 0:
            raise ValueError("config: baseline_days must be positive")
        if self.quality_agg not in ("sum", "mean"):
            raise ValueError("config: quality_agg must be 'sum' or 'mean'")

    def risk_params(self) -> RiskParams:
        return RiskParams(alpha=self.alpha, beta=self.beta,
                          md_small_avg_threshold=self.md_small_avg_threshold)


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _parse_value(name: str, text: str, kind):
    text = text.strip()
    if kind == "bool":
        low = text.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"config: bad boolean for {name}: {text!r}")
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "optional_float":
        return None if text.lower() in ("", "none") else float(text)
    return text


_FIELD_KINDS = {
    "bin_width_s": "int", "alpha": "float", "beta": "float",
    "md_small_avg_threshold": "float", "slowdown_factor": "float",
    "min_group": "int", "scatter_min_risk": "float",
    "cores_per_node": "int", "baseline_days": "optional_float",
    "max_gap_bins": "int", "top_k": "int", "pre_differenced": "bool",
    "day_offset_s": "int", "quality_agg": "str",
}


def load_config_file(path) -> dict:
    """Parse key=value lines; unknown keys are rejected."""
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(),
                                  start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(
                f"config {path}: line {line_no}: expected key=value, "
                f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_KINDS:
            raise ValueError(f"config {path}: line {line_no}: "
                             f"unknown key {key!r}")
        values[key] = _parse_value(key, value, _FIELD_KINDS[key])
    return values


def resolve_config(config_path=None, overrides: dict | None = None
                   ) -> Config:
    """defaults < config file < explicit overrides (None means unset)."""
    values = {}
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        values.update(load_config_file(path))
    if overrides:
        known = {f.name for f in fields(Config)}
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in known:
                raise ValueError(f"unknown config override {key!r}")
            values[key] = value
    cfg = Config(**values)
    cfg.validate()
    return cfg
