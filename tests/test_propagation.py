import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uavfd.antenna import AntennaKind, dipole, horn
from uavfd.geometry import Position
from uavfd.propagation import (
    SPEED_OF_LIGHT,
    NodeConfig,
    fspl_db,
    link_gain_db,
    noise_floor_dbm,
)


def friis_oracle_db(d_m: float, f_hz: float) -> float:
    """Independent Friis formulation via the km/MHz constant."""
    return 32.44778322188337 + 20.0 * math.log10((d_m / 1000.0) * (f_hz / 1e6))


def test_fspl_anchor():
    assert fspl_db(60.0, 5.7e9) == pytest.approx(83.128, abs=0.01)


def test_fspl_against_independent_oracle():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = rng.uniform(1.0, 1000.0)
        f = rng.uniform(1e9, 10e9)
        assert fspl_db(d, f) == pytest.approx(friis_oracle_db(d, f), abs=0.01)


def test_fspl_doubling_distance():
    base = fspl_db(60.0, 5.7e9)
    assert fspl_db(120.0, 5.7e9) - base == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_fspl_unity_point():
    f = 5.7e9
    d = SPEED_OF_LIGHT / (4 * math.pi * f)
    assert fspl_db(d, f) == pytest.approx(0.0, abs=1e-9)


def test_fspl_domain_errors():
    with pytest.raises(ValueError):
        fspl_db(0.0, 1e9)
    with pytest.raises(ValueError):
        fspl_db(-2.0, 1e9)
    with pytest.raises(ValueError):
        fspl_db(10.0, 0.0)


def test_fspl_strictly_increasing():
    ds = np.linspace(1, 500, 100)
    vals = [fspl_db(d, 2e9) for d in ds]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    fs = np.linspace(1e9, 10e9, 100)
    vals = [fspl_db(50, f) for f in fs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def aligned_pair(antenna, d=60.0):
    a = NodeConfig(Position(0, 0, 0.1), antenna, Position(d, 0, 0.1))
    b = NodeConfig(Position(d, 0, 0.1), antenna, Position(0, 0, 0.1))
    return a, b


def test_link_gain_aligned_horns():
    a, b = aligned_pair(horn(21.0, 18.0))
    assert link_gain_db(a, b, 5.7e9) == pytest.approx(-41.128, abs=0.01)


def test_link_gain_rotated_receiver():
    tx = NodeConfig(Position(0, 0, 0.1), horn(21.0, 18.0, 30.0), Position(60, 0, 0.1))
    # rx boresight rotated 90 degrees off the incoming ray
    rx = NodeConfig(Position(60, 0, 0.1), horn(21.0, 18.0, 30.0), Position(60, 60, 0.1))
    assert link_gain_db(tx, rx, 5.7e9) == pytest.approx(-71.128, abs=0.01)


def test_link_gain_isotropic_is_minus_fspl():
    a, b = aligned_pair(dipole(0.0), d=35.0)
    assert link_gain_db(a, b, 2.4e9) == pytest.approx(-fspl_db(35.0, 2.4e9), abs=1e-12)


def test_link_gain_reciprocity():
    rng = np.random.default_rng(9)
    ant = horn(21.0, 18.0, 45.0)
    for _ in range(50):
        pa, pb, ta, tb = rng.normal(size=(4, 3)) * 30.0
        a = NodeConfig(Position(*pa), ant, Position(*ta))
        b = NodeConfig(Position(*pb), ant, Position(*tb))
        f = rng.uniform(1e9, 6e9)
        assert link_gain_db(a, b, f) == pytest.approx(link_gain_db(b, a, f), abs=1e-9)


def test_link_requires_distinct_positions():
    ant = dipole(0.0)
    n = NodeConfig(Position(1, 1, 1), ant, Position(0, 0, 0))
    with pytest.raises(ValueError):
        link_gain_db(n, n, 1e9)


def test_noise_floor():
    assert noise_floor_dbm(10e6, 7.0) == pytest.approx(-97.0)
    assert noise_floor_dbm(1.0, 0.0) == pytest.approx(-174.0)
    assert noise_floor_dbm(10e6, 0.0) == pytest.approx(-104.0)
    with pytest.raises(ValueError):
        noise_floor_dbm(0.0)


# ---------------------------------------------------------------- batches

ANTENNAS = [horn(21.0, 18.0, 45.0), horn(10.0, 60.0, 20.0), dipole(2.5), dipole(0.0)]
# x, y within 100 m on a 0.1 m raster and z within 10 m on a 1 cm raster: a
# ray that is not vertical stays at least 0.28 deg off it, where the dipole
# pattern is still well conditioned
_SCALE = np.array([0.1, 0.1, 0.01])


def _points(n):
    return arrays(np.int64, (n, 3), elements=st.integers(-1000, 1000)).map(lambda a: a * _SCALE)


def _ray_ok(a, b):
    return np.sqrt(((np.asarray(b) - np.asarray(a)) ** 2).sum(axis=-1)) > 0.0


@st.composite
def link_batches(draw):
    """(antenna, tx (N, 3), tx aims (N, 3), rx Position, rx aim Position, f) with no degenerate ray."""
    n = draw(st.integers(1, 30))
    tx, tx_aim = draw(_points(n)), draw(_points(n))
    rx, rx_aim = draw(_points(2))
    assume(_ray_ok(rx, rx_aim))
    keep = _ray_ok(tx, rx) & _ray_ok(tx, tx_aim)
    assume(keep.any())
    f = draw(st.floats(1e9, 10e9))
    return draw(st.sampled_from(ANTENNAS)), tx[keep], tx_aim[keep], Position(*rx), Position(*rx_aim), f


def oracle_link_gain_db(ant, tx, tx_aim, rx, rx_aim, f):
    """Independent math-module evaluation of one link: both patterns and Friis."""

    def off(node, aim, target):
        v1 = [a - n for a, n in zip(aim, node)]
        v2 = [t - n for t, n in zip(target, node)]
        c = sum(a * b for a, b in zip(v1, v2)) / (math.hypot(*v1) * math.hypot(*v2))
        return math.degrees(math.acos(min(1.0, max(-1.0, c))))

    def elev(origin, target):
        horizontal = math.hypot(target[0] - origin[0], target[1] - origin[1])
        return math.degrees(math.atan2(target[2] - origin[2], horizontal))

    def pattern(offset, elevation):
        if ant.kind is AntennaKind.HORN:
            return ant.boresight_gain_dbi - min(12.0 * (offset / ant.hpbw_deg) ** 2, ant.front_to_back_db)
        return ant.boresight_gain_dbi + 20.0 * math.log10(max(abs(math.cos(math.radians(elevation))), 1e-3))

    g_tx = pattern(off(tx, tx_aim, rx), elev(tx, rx))
    g_rx = pattern(off(rx, rx_aim, tx), elev(rx, tx))
    return g_tx + g_rx - friis_oracle_db(math.dist(tx, rx), f)


@settings(max_examples=80, deadline=None)
@given(link_batches())
def test_batch_equals_per_row_calls(case):
    ant, tx, tx_aim, rx, rx_aim, f = case
    rx_node = NodeConfig(rx, ant, rx_aim)
    batch = link_gain_db(NodeConfig(tx, ant, tx_aim), rx_node, f)
    rows = [link_gain_db(NodeConfig(Position(*p), ant, Position(*a)), rx_node, f) for p, a in zip(tx, tx_aim)]
    assert batch.shape == (len(tx),)
    assert all(type(g) is float for g in rows)
    np.testing.assert_array_equal(batch, rows)


@settings(max_examples=80, deadline=None)
@given(link_batches())
def test_batch_matches_math_oracle(case):
    ant, tx, tx_aim, rx, rx_aim, f = case
    batch = link_gain_db(NodeConfig(tx, ant, tx_aim), NodeConfig(rx, ant, rx_aim), f)
    rx_t, rx_aim_t = rx.as_tuple(), rx_aim.as_tuple()
    oracle = [oracle_link_gain_db(ant, tuple(p), tuple(a), rx_t, rx_aim_t, f) for p, a in zip(tx, tx_aim)]
    np.testing.assert_allclose(batch, oracle, rtol=0.0, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(link_batches())
def test_batch_link_gain_is_reciprocal(case):
    ant, tx, tx_aim, rx, rx_aim, f = case
    a, b = NodeConfig(tx, ant, tx_aim), NodeConfig(rx, ant, rx_aim)
    np.testing.assert_allclose(link_gain_db(a, b, f), link_gain_db(b, a, f), rtol=0.0, atol=1e-12)


def test_batch_rejects_a_coincident_row():
    ant = dipole(0.0)
    tx = NodeConfig(np.array([[1.0, 0.0, 0.0], [5.0, 5.0, 5.0]]), ant, Position(0, 0, 0))
    with pytest.raises(ValueError):
        link_gain_db(tx, NodeConfig(Position(5, 5, 5), ant, Position(0, 0, 0)), 1e9)
