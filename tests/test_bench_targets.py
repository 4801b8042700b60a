"""The benchmark's traced run wraps its TARGETS by name; each must still exist.

`Tracer.install` skips a target the program no longer defines, so a renamed
or deleted function would silently read 0 in every per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize(
    "span, module_name, attr", [t[:3] for t in TARGETS], ids=[f"{t[0]}:{t[2]}" for t in TARGETS]
)
def test_trace_target_resolves(span, module_name, attr):
    owner = importlib.import_module(module_name)
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(leaf)), f"{module_name}.{attr} is gone; {span} would read 0"
