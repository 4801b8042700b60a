import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavfd.metrics import (
    TDD_DUTY,
    TDD_GUARD_OVERHEAD,
    CapacityConfig,
    apply_sinr_ceiling,
    capacity_fd,
    capacity_tdd,
    cdf,
    cdf_at,
    coverage_fraction,
    sinr_analytic,
    sinr_from_evm,
)

CFG = CapacityConfig(bandwidth_hz=10e6)


def test_sinr_from_evm():
    assert sinr_from_evm(0.1) == pytest.approx(20.0)
    assert sinr_from_evm(1.0) == pytest.approx(0.0)
    assert sinr_from_evm(0.0316) == pytest.approx(30.0, abs=0.01)
    assert sinr_from_evm(0.0) == math.inf
    with pytest.raises(ValueError):
        sinr_from_evm(-0.1)


def test_sinr_ceiling():
    assert apply_sinr_ceiling(math.inf) == 40.0
    assert apply_sinr_ceiling(12.0) == 12.0
    assert apply_sinr_ceiling(math.inf, ceiling_db=33.0) == 33.0


def test_sinr_analytic():
    assert sinr_analytic(-86.0, -math.inf, -97.0) == pytest.approx(11.0)
    assert sinr_analytic(-86.0, -86.0, -math.inf) == pytest.approx(0.0)
    # frozen from the linear-domain oracle: I+N = 10^-9.5 + 10^-9.7
    expected = -86.0 - 10 * math.log10(10 ** (-9.5) + 10 ** (-9.7))
    assert expected == pytest.approx(6.8756, abs=1e-3)
    assert sinr_analytic(-86.0, -95.0, -97.0) == pytest.approx(expected, abs=1e-12)


def test_capacity_fd():
    assert capacity_fd(CFG, 20.0) == pytest.approx(10e6 * math.log2(101), abs=1)
    assert capacity_fd(CFG, 20.0) == pytest.approx(66.58e6, abs=0.01e6)
    assert capacity_fd(CFG, -math.inf) == 0.0


def test_capacity_fd_strictly_increasing():
    vals = [capacity_fd(CFG, s) for s in np.linspace(-20, 40, 100)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_capacity_tdd_anchor():
    # calibrated baseline: 8.11 dB -> 11.6 Mbps at duty 0.5, 20% guard
    assert capacity_tdd(CFG, 8.11) == pytest.approx(11.6e6, abs=0.05e6)
    assert capacity_tdd(CFG, -math.inf) == 0.0


def test_capacity_tdd_reduces_to_fd():
    # TDD is the FD capacity scaled by its time share: half the time, less 20% guard
    assert TDD_DUTY * (1.0 - TDD_GUARD_OVERHEAD) == pytest.approx(0.4)
    for snr in (0.0, 8.11, 20.0):
        assert capacity_tdd(CFG, snr) == pytest.approx(0.4 * capacity_fd(CFG, snr))


def test_capacity_tdd_below_fd():
    for snr in (-5.0, 3.0, 11.0, 25.0):
        assert capacity_tdd(CFG, snr) < capacity_fd(CFG, snr)


def test_capacity_config_validation():
    with pytest.raises(ValueError):
        CapacityConfig(bandwidth_hz=0.0)


def test_cdf_steps():
    assert cdf([-90.0, -90.0, -90.0]) == [(-90.0, 1.0)]
    assert cdf([-100.0, -90.0]) == [(-100.0, 0.5), (-90.0, 1.0)]
    with pytest.raises(ValueError):
        cdf([])


def test_cdf_monotone_and_complete():
    rng = np.random.default_rng(0)
    values = list(rng.normal(-90, 6, 496))
    table = cdf(values)
    fracs = [f for _, f in table]
    xs = [v for v, _ in table]
    assert xs == sorted(xs)
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_cdf_at():
    values = [-100.0, -95.0, -95.0, -90.0]
    assert cdf_at(values, -95.0) == pytest.approx(0.75)
    assert cdf_at(values, -101.0) == 0.0
    assert cdf_at(values, 0.0) == 1.0


def test_coverage_fraction():
    assert coverage_fraction([-100.0] * 5, -95.0) == 1.0
    assert coverage_fraction([-90.0] * 5, -95.0) == 0.0
    assert coverage_fraction([-100.0, -95.0, -90.0], -95.0) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        coverage_fraction([], -95.0)


def test_coverage_on_sweep_is_cdf_consistent(power_dir01):
    values = [r.interference_raw_dbm for r in power_dir01]
    assert coverage_fraction(values, -95.0) <= cdf_at(values, -95.0)
    table = cdf(values)
    fracs = [f for _, f in table]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


@given(st.lists(st.floats(-200.0, 50.0) | st.sampled_from([-95.0, -90.0, 0.0, -0.0]), min_size=1, max_size=300))
def test_cdf_fractions_rise_to_exactly_one(values):
    table = cdf(values)
    xs = [v for v, _ in table]
    fracs = [f for _, f in table]
    assert xs == sorted(set(values))
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0
    # each step is the share of values at or below it, as cdf_at counts them
    assert all(f == cdf_at(values, x) == sum(v <= x for v in values) / len(values) for x, f in table)


@given(st.lists(st.floats(-150.0, 0.0), min_size=1, max_size=50), st.floats(-130.0, -60.0))
def test_sinr_and_capacity_arrays_match_per_element_calls(interference, noise):
    """One formula serves scalars and arrays; numpy's vector and scalar pow/log may differ in the last bit."""
    arr = sinr_analytic(-86.0, np.array(interference), noise)
    scalars = [sinr_analytic(-86.0, i, noise) for i in interference]
    assert all(isinstance(v, float) for v in scalars)
    np.testing.assert_allclose(arr, scalars, rtol=0.0, atol=1e-12)
    capped = apply_sinr_ceiling(arr, 30.0)
    assert capped.tolist() == [apply_sinr_ceiling(v, 30.0) for v in arr.tolist()]
    caps = capacity_fd(CFG, capped)
    np.testing.assert_allclose(caps, [capacity_fd(CFG, v) for v in capped.tolist()], rtol=1e-12, atol=1e-6)
    for i, c in zip(interference, caps.tolist()):
        # an independent math-module oracle of the two formulas
        sinr = -86.0 - 10.0 * math.log10(10.0 ** (i / 10.0) + 10.0 ** (noise / 10.0))
        assert c == pytest.approx(10e6 * math.log1p(10.0 ** (min(sinr, 30.0) / 10.0)) / math.log(2), rel=1e-9)
