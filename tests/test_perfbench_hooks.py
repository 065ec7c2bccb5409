"""The benchmark's tracer wraps program functions by name; each must exist."""
from __future__ import annotations

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def test_every_trace_hook_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unhooked = []
    for module_name, attr_path, _ in tracing.HOOKS:
        target = importlib.import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            unhooked.append(f"{module_name}.{attr_path}")
    assert not unhooked, "trace hooks with no callable target: " + ", ".join(unhooked)
