"""Every function the benchmark's traced child wraps still exists where
the pipeline looks it up, so renaming a writer or a layer cannot silently
drop its span from the benchmark."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
