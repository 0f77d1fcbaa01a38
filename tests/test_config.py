from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from iorisk.config import (CONFIG_ENV_VAR, FIELDS, Config, load_config_file,
                           resolve_config)


def test_shipped_defaults_match_analysis_constants():
    cfg = Config()
    assert cfg.alpha == 2.0
    assert cfg.beta == 0.25
    assert cfg.slowdown_factor == 1.5
    assert cfg.scatter_min_risk == 25.0
    assert cfg.bin_width_s == 360
    assert cfg.md_small_avg_threshold == 1.0
    assert cfg.min_group == 3
    assert cfg.cores_per_node == 24
    assert cfg.max_gap_bins == 3
    assert cfg.baseline_days is None
    assert cfg.pre_differenced is False
    cfg.validate()


def test_validation_rejects_nonpositive_values():
    for name, bad in (("alpha", 0.0), ("beta", -1.0), ("bin_width_s", 0),
                      ("slowdown_factor", 0.0), ("min_group", 0),
                      ("cores_per_node", -2), ("top_k", 0),
                      # detect_slowdown's own rule, checked before any stage
                      ("slowdown_factor", 1.0), ("min_group", 1)):
        cfg = Config(**{name: bad})
        with pytest.raises(ValueError):
            cfg.validate()
    with pytest.raises(ValueError):
        Config(baseline_days=-1).validate()
    with pytest.raises(ValueError):
        Config(quality_agg="median").validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "iorisk.conf"
    path.write_text(
        "# daily run settings\n"
        "alpha = 3.5\n"
        "min_group=4\n"
        "pre_differenced = yes\n"
        "baseline_days = 7\n"
        "\n")
    values = load_config_file(path)
    assert values == {"alpha": 3.5, "min_group": 4,
                      "pre_differenced": True, "baseline_days": 7.0}


def test_config_file_rejects_unknown_keys_and_bad_lines(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("nonsense_key = 1\n")
    with pytest.raises(ValueError):
        load_config_file(path)
    path.write_text("just some text\n")
    with pytest.raises(ValueError):
        load_config_file(path)


@pytest.mark.parametrize("line, detail", [
    ("bin_width_s=3.5", "invalid literal for int() with base 10: '3.5'"),
    ("alpha=abc", "could not convert string to float: 'abc'"),
    ("pre_differenced=maybe", "expected a boolean, got 'maybe'")],
    ids=["int", "float", "bool"])
def test_config_file_value_that_does_not_parse_names_file_line_and_key(
        tmp_path, line, detail):
    path = tmp_path / "bad.conf"
    path.write_text(f"# settings\ntop_k = 3\n{line}\n")
    key = line.split("=")[0]
    with pytest.raises(ValueError) as exc:
        load_config_file(path)
    assert str(exc.value) == f"config {path}: line 3: bad value for " \
                             f"{key}: {detail}"


def test_flags_beat_config_file(tmp_path):
    path = tmp_path / "iorisk.conf"
    path.write_text("alpha = 3.5\nbeta=0.5\n")
    cfg = resolve_config(path, {"alpha": 4.0})
    assert cfg.alpha == 4.0  # flag wins
    assert cfg.beta == 0.5   # file beats default


def test_env_var_points_to_config(tmp_path, monkeypatch):
    path = tmp_path / "env.conf"
    path.write_text("top_k = 9\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    cfg = resolve_config(None, {})
    assert cfg.top_k == 9
    # explicit path beats the env var
    other = tmp_path / "other.conf"
    other.write_text("top_k = 2\n")
    assert resolve_config(other, {}).top_k == 2


def test_stored_config_sits_between_defaults_and_file(tmp_path):
    stored = asdict(Config(alpha=3.0, beta=0.5, top_k=7))
    path = tmp_path / "iorisk.conf"
    path.write_text("beta = 0.75\n")
    cfg = resolve_config(path, {"top_k": 9}, stored, "analyze")
    assert (cfg.alpha, cfg.beta, cfg.top_k) == (3.0, 0.75, 9)
    assert cfg.bin_width_s == 360


@pytest.mark.parametrize("stage, name, value", [
    ("analyze", "bin_width_s", 600), ("analyze", "pre_differenced", True),
    ("report", "max_gap_bins", 5), ("report", "alpha", 3.0),
    ("report", "quality_agg", "mean")])
def test_parameter_of_an_earlier_stage_may_not_change(stage, name, value):
    stored = asdict(Config())
    with pytest.raises(ValueError, match=f"{name} = {value!r} conflicts "
                                         f"with {stored[name]!r}"):
        resolve_config(None, {name: value}, stored, stage)
    # the same value as stored, or a parameter of this or a later stage,
    # is no conflict
    resolve_config(None, {name: stored[name]}, stored, stage)
    assert getattr(resolve_config(None, {name: value}, stored,
                                  FIELDS[name].metadata["stage"]),
                   name) == value


def test_validation_checks_each_field_kind():
    for name, bad in (("min_group", 2.5), ("pre_differenced", 1),
                      ("alpha", "2"), ("top_k", True),
                      ("quality_agg", 1), ("alpha", float("inf")),
                      ("baseline_days", float("inf")),
                      ("md_small_avg_threshold", float("nan"))):
        with pytest.raises(ValueError, match=f"{name} must be of kind"):
            Config(**{name: bad}).validate()
    Config(alpha=3).validate()  # an int is a float here


def test_an_int_field_outside_int64_is_rejected(tmp_path):
    for name, value in (("bin_width_s", 10 ** 19), ("top_k", 2 ** 63),
                        ("day_offset_s", 10 ** 20),
                        ("day_offset_s", -2 ** 63 - 1)):
        with pytest.raises(ValueError, match=f"config: {name} must fit "
                                             f"int64, got {value}"):
            Config(**{name: value}).validate()
    Config(day_offset_s=-2 ** 63, top_k=2 ** 63 - 1).validate()
    path = tmp_path / "iorisk.conf"
    path.write_text("bin_width_s = 10000000000000000000\n")
    with pytest.raises(ValueError, match="bin_width_s must fit int64"):
        resolve_config(path)
    stored = asdict(Config(top_k=10 ** 19))
    with pytest.raises(ValueError, match="top_k must fit int64"):
        resolve_config(None, {}, stored, "report")


def test_a_baseline_window_longer_than_int64_seconds_is_rejected():
    days = (2 ** 63 - 1) // 86400
    Config(baseline_days=days).validate()
    for value in (days + 1, 1e305):
        with pytest.raises(ValueError, match=f"baseline_days must be > 0 "
                                             f"and <= {days}, got"):
            Config(baseline_days=value).validate()


def test_library_guards_state_the_schema_rule():
    from iorisk.analytics import detect_slowdown
    from iorisk.ingest import UsageTable
    from iorisk.metrics import compute_job_metrics
    no_rows = UsageTable({"job_id": np.empty(0, np.int32),
                          "fs": np.empty(0, np.int32)},
                         {"job_id": (), "fs": ()}, np.empty(0, np.int64),
                         np.empty((0, 21), np.int64), 360)
    with pytest.raises(ValueError,
                       match=r"compute_job_metrics: alpha must be > 0"):
        compute_job_metrics(no_rows, {}, Config(alpha=0.0))
    with pytest.raises(ValueError, match=r"config: alpha must be > 0"):
        Config(alpha=0.0).validate()
    with pytest.raises(ValueError, match=r"slowdown_factor must be > 1"):
        detect_slowdown([], factor=1.0)
    with pytest.raises(ValueError, match=r"min_group must be >= 2"):
        detect_slowdown([], min_group=1)
    with pytest.raises(ValueError, match=r"quality_agg must be one of"):
        Config(quality_agg="median").validate()


def test_readme_table_lists_every_field_with_its_flag_and_stage():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if len(cells) == 5 and cells[1] in FIELDS:
            rows[cells[1]] = (cells[0], cells[2])
    assert rows == {name: (f.metadata["flag"], f.metadata["stage"])
                    for name, f in FIELDS.items()}
