"""Waveform-engine regression against a recorded reference.

tests/data/waveform_reference.json holds the per-point outputs of
run_capacity_sweep (waveform engine) on two small sub-grids: one straddling
the sync-failure edge and one close to the interferer.  Any rewrite of the
frame path must reproduce sync_ok exactly and the floats within 1e-9
relative.

Regenerate (only when the outputs are meant to change) with:

    PYTHONPATH=src python tests/test_waveform_reference.py
"""

import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from uavfd.campaign import GridSpec, builtin_scenarios, run_capacity_sweep

REFERENCE = Path(__file__).parent / "data" / "waveform_reference.json"
SCENARIOS = ("directional-0.1", "dipole-0.1")
SEEDS = (0, 11)
GRIDS = {
    "sync-edge": GridSpec(x_start_m=54, x_end_m=62, y_start_m=0, y_end_m=6),
    "near-interferer": GridSpec(x_start_m=10, x_end_m=12, y_start_m=0, y_end_m=6),
}
FIELDS = ("sync_ok", "evm_rms", "sinr_db", "capacity_bps")
REL_TOL = 1e-9


def sweep_points(scenario: str, seed: int, grid: str) -> list[dict]:
    sc = replace(builtin_scenarios()[scenario], engine="waveform")
    return [{f: getattr(r, f) for f in FIELDS} for r in run_capacity_sweep(sc, GRIDS[grid], seed)]


def _cases():
    return [(s, seed, g) for s in SCENARIOS for seed in SEEDS for g in GRIDS]


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_reference_covers_every_case(reference):
    assert reference["grids"] == {n: asdict(g) for n, g in GRIDS.items()}
    assert sorted(reference["runs"]) == sorted(f"{s}/{seed}/{g}" for s, seed, g in _cases())
    # the sync-edge grid must hold both outcomes, or it checks only one branch
    edge = [p["sync_ok"] for p in reference["runs"]["directional-0.1/0/sync-edge"]]
    assert 0 < sum(edge) < len(edge)


@pytest.mark.parametrize("scenario,seed,grid", _cases())
def test_waveform_engine_matches_reference(reference, scenario, seed, grid):
    expected = reference["runs"][f"{scenario}/{seed}/{grid}"]
    got = sweep_points(scenario, seed, grid)
    assert [p["sync_ok"] for p in got] == [p["sync_ok"] for p in expected]
    for i, (g, e) in enumerate(zip(got, expected)):
        for f in FIELDS[1:]:
            if e[f] is None:
                assert g[f] is None, (i, f)
            else:
                assert math.isclose(g[f], e[f], rel_tol=REL_TOL, abs_tol=0.0), (i, f, g[f], e[f])


if __name__ == "__main__":
    data = {
        "grids": {name: asdict(spec) for name, spec in GRIDS.items()},
        "runs": {f"{s}/{seed}/{g}": sweep_points(s, seed, g) for s, seed, g in _cases()},
    }
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
