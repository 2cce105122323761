"""The benchmark's tracer wraps daggereq functions found by module and
name; a renamed function would make a traced run fail on lookup."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _patched_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look themselves up there
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.PATCHES]


@pytest.mark.parametrize("module, attr", _patched_names())
def test_every_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"daggereq.{module}"), attr))
