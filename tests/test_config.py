from __future__ import annotations

import pytest

from iorisk.config import CONFIG_ENV_VAR, Config, load_config_file, \
    resolve_config


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
