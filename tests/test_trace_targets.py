"""Every function the benchmark's traced child wraps still exists where
the pipeline looks it up, so renaming a writer or a layer cannot silently
drop its span from the benchmark, and the staged pipeline still calls the
store functions whose spans the benchmark reads."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from iorisk import store
from iorisk.cli import run
from iorisk.simgen import generate, preset_scenario

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # defines TARGETS; runs nothing
    return child.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert not missing


STORE_SPANS = ("write_node_usage", "read_node_usage", "write_job_usage",
               "read_job_usage")


def test_the_staged_pipeline_calls_the_traced_store_functions(
        tmp_path, monkeypatch):
    calls = []
    for name in STORE_SPANS:
        def traced(*args, _name=name, _call=getattr(store, name)):
            calls.append(_name)
            return _call(*args)
        monkeypatch.setattr(store, name, traced)
    feeds, out = tmp_path / "feeds", tmp_path / "out"
    generate(preset_scenario("demo"), feeds)
    assert run(["ingest", "--counters", str(feeds / "counters.csv"),
                "--jobs", str(feeds / "jobs.csv"), "--out", str(out)]) == 0
    assert run(["analyze", "--out", str(out)]) == 0
    assert run(["report", "--out", str(out)]) == 0
    assert set(calls) == set(STORE_SPANS)
