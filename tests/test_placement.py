import numpy as np
import pytest

from uavfd.campaign import SweepTable
from uavfd.metrics import capacity_fd, coverage_fraction
from uavfd.placement import (
    ObjectiveKind,
    PlacementObjective,
    best_record,
    feasible_region,
)
from uavfd.propagation import noise_floor_dbm

MIN_I = PlacementObjective(ObjectiveKind.MIN_INTERFERENCE)
MAX_C = PlacementObjective(ObjectiveKind.MAX_VICTIM_CAPACITY)
EMPTY = SweepTable(*np.empty((10, 0)))


def test_feasible_region_trivial_bounds(power_dir01):
    lo = min(r.interference_dbm for r in power_dir01)
    hi = max(r.interference_dbm for r in power_dir01)
    assert len(feasible_region(power_dir01, lo - 1.0)) == 0
    everything = feasible_region(power_dir01, hi + 1.0)
    assert list(everything) == list(power_dir01)
    with pytest.raises(ValueError):
        feasible_region(EMPTY, -95.0)


def test_feasible_region_matches_coverage(power_dir01):
    for threshold in (-95.0, -94.9, -90.0, -80.0):
        region = feasible_region(power_dir01, threshold)
        cov = coverage_fraction([r.interference_dbm for r in power_dir01], threshold)
        assert len(region) / len(power_dir01) == pytest.approx(cov, abs=1e-12)


def test_feasible_region_monotone_in_threshold(power_dir01):
    sizes = [len(feasible_region(power_dir01, t)) for t in (-100.0, -95.0, -90.0, -85.0, -60.0, 0.0)]
    assert sizes == sorted(sizes)


def test_best_min_interference_hits_floor(power_dir01, scenarios):
    result = best_record(power_dir01, MIN_I)
    assert result.value == scenarios["directional-0.1"].floor_dbm
    # deterministic tie-break: the first record at the floor wins
    first_floor = next(r for r in power_dir01 if r.interference_dbm == result.value)
    assert result.index == first_floor.index
    assert result.position == first_floor.position


def test_best_max_capacity_reaches_ceiling(capacity_dir01_analytic, scenarios):
    sc = scenarios["directional-0.1"]
    snr = capacity_dir01_analytic[0].desired_dbm - noise_floor_dbm(sc.bandwidth_hz, sc.noise_figure_db)
    ceiling = capacity_fd(sc.capacity_config(), snr)
    result = best_record(capacity_dir01_analytic, MAX_C)
    assert result.value == pytest.approx(ceiling, rel=1e-3)


def test_best_record_order_invariant(capacity_dir01_analytic):
    """Row order moves the winning row among ties, never the optimum; the first tied row wins."""
    shuffled = capacity_dir01_analytic.take(np.random.default_rng(4).permutation(len(capacity_dir01_analytic)))
    for objective, column in ((MAX_C, shuffled.capacity_bps), (MIN_I, shuffled.interference_dbm)):
        got = best_record(shuffled, objective)
        assert got.value == best_record(capacity_dir01_analytic, objective).value
        assert got.index == np.flatnonzero(column == got.value)[0]
        assert got.position == shuffled[got.index].position


def test_best_max_capacity_is_argmax(capacity_dir01_analytic):
    result = best_record(capacity_dir01_analytic, MAX_C)
    assert all(result.value >= r.capacity_bps for r in capacity_dir01_analytic)


def test_best_record_requires_capacity_for_max(power_dir01):
    with pytest.raises(ValueError):
        best_record(power_dir01, MAX_C)
    with pytest.raises(ValueError):
        best_record(EMPTY, MIN_I)
