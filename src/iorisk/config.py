"""The pipeline's parameters: one schema for flags, config files, validation
and the config a store carries.

Each Config field states its default, its command-line flag, the stage that
owns it, a help text and a rule (a bound or a set of choices); its kind is
its annotation. The argparse flags, the config-file keys and Config.validate
are all derived from the fields. Library functions that guard their
arguments call check() for the same rules.

Precedence: built-in defaults < config stored by an earlier stage (analyze
and report read it from the store) < config file (--config or
$IORISK_CONFIG) < command-line flags. A file or flag may not change a
parameter owned by a stage before the one running. The file format is plain
key=value lines with # comments; keys are the Config field names.
"""
from __future__ import annotations

import argparse
import math
import operator
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

CONFIG_ENV_VAR = "IORISK_CONFIG"
STAGES = ("ingest", "analyze", "report")


def _param(default, flag, stage, help, rule=None, choices=None):
    """A Config field; rule is one or more "<op> <bound>" joined by
    " and ", with op one of >, >= and <=."""
    return field(default=default, metadata={
        "flag": flag, "stage": stage, "help": help, "rule": rule,
        "choices": choices})


@dataclass
class Config:
    bin_width_s: int = _param(
        360, "--bin-width", "ingest", "time bin width in seconds", "> 0")
    max_gap_bins: int = _param(
        3, "--max-gap-bins", "ingest",
        "drop deltas spanning longer snapshot gaps, in bins", "> 0")
    pre_differenced: bool = _param(
        False, "--pre-differenced", "ingest",
        "counter feed already holds per-interval deltas")
    cores_per_node: int = _param(
        24, "--cores-per-node", "ingest",
        "cores per node when jobs.csv omits it", "> 0")
    alpha: float = _param(2.0, "--alpha", "analyze", "risk scale", "> 0")
    beta: float = _param(
        0.25, "--beta", "analyze", "metadata-total risk scale", "> 0")
    md_small_avg_threshold: float = _param(
        1.0, "--md-threshold", "analyze",
        "scaled-average floor that triggers the beta path", ">= 0")
    baseline_days: float | None = _param(
        None, "--baseline-days", "analyze",
        "trailing baseline window in days; unset means all data",
        # its seconds fit int64, as the timestamps do
        f"> 0 and <= {(2 ** 63 - 1) // 86400}")
    quality_agg: str = _param(
        "sum", "--quality-agg", "analyze", "fs-level quality aggregation",
        choices=("sum", "mean"))
    slowdown_factor: float = _param(
        1.5, "--slowdown-factor", "report",
        "runtime/mean ratio flagged as slowdown", "> 1")
    min_group: int = _param(
        3, "--min-group", "report", "minimum runs per command group", ">= 2")
    scatter_min_risk: float = _param(
        25.0, "--scatter-min-risk", "report", "scatter inclusion threshold",
        "> 0")
    top_k: int = _param(
        5, "--top-k", "report", "jobs broken out in time-series reports",
        "> 0")
    day_offset_s: int = _param(
        0, "--day-offset", "report",
        "daily report boundary offset from UTC midnight, in seconds")

    def validate(self) -> None:
        for f in fields(self):
            check(f.name, getattr(self, f.name))


FIELDS = {f.name: f for f in fields(Config)}
_KINDS = {"int": (int,), "float": (int, float), "float | None": (int, float),
          "bool": (bool,), "str": (str,)}
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check(name: str, value, where: str = "config") -> None:
    """Raise ValueError unless value is of Config field name's kind (a
    float one finite, an int one inside int64) and obeys its rule; None
    passes where the default is None."""
    f = FIELDS[name]
    if value is None and f.default is None:
        return
    if (not isinstance(value, _KINDS[f.type])
            or isinstance(value, bool) != (f.type == "bool")
            or isinstance(value, float) and not math.isfinite(value)):
        raise ValueError(f"{where}: {name} must be of kind {f.type}, "
                         f"got {value!r}")
    if f.type == "int" and not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{where}: {name} must fit int64, got {value!r}")
    rule, choices = f.metadata["rule"], f.metadata["choices"]
    if choices is not None and value not in choices:
        raise ValueError(f"{where}: {name} must be one of "
                         f"{', '.join(choices)}, got {value!r}")
    if rule is not None and not all(
            _OPS[op](value, float(bound))
            for op, bound in map(str.split, rule.split(" and "))):
        raise ValueError(f"{where}: {name} must be {rule}, got {value!r}")


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    """--config and one flag per Config field, each defaulting to None
    (unset)."""
    parser.add_argument("--config", metavar="FILE",
                        help="config file (key=value); $IORISK_CONFIG "
                             "otherwise")
    for f in fields(Config):
        meta = f.metadata
        help = (f"{meta['help']} ({meta['stage']} stage, default "
                f"{'unset' if f.default is None else f.default})")
        if f.type == "bool":
            parser.add_argument(meta["flag"], dest=f.name, default=None,
                                action="store_const", const=True, help=help)
        else:
            parser.add_argument(meta["flag"], dest=f.name,
                                type=_KINDS[f.type][-1],
                                choices=meta["choices"], help=help)


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _parse_value(name: str, text: str):
    text = text.strip()
    kind = FIELDS[name].type
    if kind == "bool":
        low = text.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if kind == "float | None" and text.lower() in ("", "none"):
        return None
    return _KINDS[kind][-1](text)


def load_config_file(path) -> dict:
    """Parse key=value lines; unknown keys are rejected."""
    try:
        text = Path(path).read_text()
    except ValueError as exc:  # not UTF-8
        raise ValueError(f"config {path}: {exc}") from None
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(
                f"config {path}: line {line_no}: expected key=value, "
                f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in FIELDS:
            raise ValueError(f"config {path}: line {line_no}: "
                             f"unknown key {key!r}")
        try:
            values[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ValueError(f"config {path}: line {line_no}: bad value "
                             f"for {key}: {exc}") from None
    return values


def resolve_config(config_path=None, overrides: dict | None = None,
                   stored: dict | None = None, stage: str = "ingest"
                   ) -> Config:
    """defaults < stored < config file < overrides (None means unset).

    stored is the config an earlier stage ran with. A file or override
    that gives a parameter owned by a stage before `stage` a value other
    than the stored one raises ValueError.
    """
    given = {}
    path = config_path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        given.update(load_config_file(path))
    for key, value in (overrides or {}).items():
        if key not in FIELDS:
            raise ValueError(f"unknown config override {key!r}")
        if value is not None:
            given[key] = value
    for key, value in given.items():
        owner = FIELDS[key].metadata["stage"]
        if (stored is not None and value != stored[key]
                and STAGES.index(owner) < STAGES.index(stage)):
            raise ValueError(
                f"config: {key} = {value!r} conflicts with {stored[key]!r}, "
                f"which the {owner} stage ran with; rerun {owner} to "
                f"change it")
    cfg = Config(**{**(stored or {}), **given})
    cfg.validate()
    return cfg
