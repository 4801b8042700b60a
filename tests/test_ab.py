"""tools/ab.py, the paired A/B runner: a run whose outputs failed their checks exits 1."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _load_ab():
    spec = importlib.util.spec_from_file_location("tools_ab", _ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failed,status", [(0, 0), (1, 1), (3, 1)])
def test_ab_exits_1_when_any_pass_failed_its_checks(monkeypatch, capsys, failed, status):
    ab, calls = _load_ab(), []

    def child(tree, args):  # the last process of all fails its checks, if any does
        calls.append(tree)
        return {"points_per_s": 100.0, "failed": failed if len(calls) == 6 else 0}

    monkeypatch.setattr(ab, "run_child", child)
    assert ab.main([str(_ROOT), str(_ROOT), "--rounds", "2", "--passes", "1"]) == status
    assert len(calls) == 6 and f"failed {failed}" in capsys.readouterr().out
