import math
from dataclasses import replace

import numpy as np
import pytest

from uavfd.antenna import AntennaKind, AntennaSpec, dipole, gain_db, horn, perturb_pointing


def test_horn_anchors():
    h = horn(21.0, 18.0)
    assert gain_db(h, 0.0) == 21.0
    assert gain_db(h, 9.0) == 18.0  # half-power at HPBW/2 exactly
    assert gain_db(horn(21.0, 18.0, 30.0), 90.0) == pytest.approx(-9.0)


def test_horn_even_and_monotone():
    h = horn(21.0, 18.0, 45.0)
    offsets = np.linspace(0.0, 180.0, 721)
    gains = [gain_db(h, o) for o in offsets]
    assert all(gain_db(h, -o) == gain_db(h, o) for o in offsets[::10])
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gains, gains[1:]))
    assert min(gains) >= 21.0 - 45.0 - 1e-12


def test_horn_floor_is_front_to_back():
    h = horn(21.0, 18.0, 30.0)
    for off in (28.5, 60.0, 120.0, 180.0):
        assert gain_db(h, off) == pytest.approx(-9.0)


def test_dipole_azimuth_independent():
    d = dipole(2.5)
    rng = np.random.default_rng(3)
    vals = {gain_db(d, off, 12.0) for off in rng.uniform(0, 180, 50)}
    assert len(vals) == 1
    assert gain_db(d, 0.0, 0.0) == pytest.approx(2.5)


def test_dipole_elevation_rolloff():
    d = dipole(2.5)
    assert gain_db(d, 0.0, 60.0) == pytest.approx(2.5 + 20 * math.log10(0.5))
    assert gain_db(d, 0.0, -60.0) == gain_db(d, 0.0, 60.0)
    # cos floor keeps the zenith finite
    assert gain_db(d, 0.0, 90.0) == pytest.approx(2.5 - 60.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        AntennaSpec(AntennaKind.HORN, 21.0, hpbw_deg=0.0)
    with pytest.raises(ValueError):
        AntennaSpec(AntennaKind.HORN, 21.0, hpbw_deg=200.0)
    with pytest.raises(ValueError):
        AntennaSpec(AntennaKind.HORN, 21.0, front_to_back_db=-1.0)
    with pytest.raises(ValueError, match="front_to_back_db must be > 0 dB"):  # a back lobe as strong as the main one
        AntennaSpec(AntennaKind.HORN, 21.0, front_to_back_db=0.0)
    with pytest.raises(ValueError):
        AntennaSpec(AntennaKind.HORN, math.nan)


@pytest.mark.parametrize("kind", list(AntennaKind))
@pytest.mark.parametrize("field", ["boresight_gain_dbi", "hpbw_deg", "front_to_back_db"])
def test_spec_rejects_a_non_finite_field_of_either_kind(kind, field):
    # the dipole ignores its horn fields, but a NaN one still may not pass
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            replace(AntennaSpec(kind, 2.5), **{field: value})


@pytest.mark.parametrize("kind", list(AntennaKind))
@pytest.mark.parametrize("field", ["boresight_gain_dbi", "front_to_back_db"])
def test_spec_bounds_its_levels(kind, field):
    for value in (-1000.001, 1000.001):
        with pytest.raises(ValueError, match=f"{field} must be within ±1000 dB, got {value}"):
            replace(AntennaSpec(kind, 2.5), **{field: value})
    assert getattr(replace(AntennaSpec(kind, 2.5), **{field: 1000.0}), field) == 1000.0


def _reference_perturb(b, theta_deg: float, phi: float) -> np.ndarray:
    """One boresight at a time, as the scalar rotation did it."""
    b = np.asarray(b, dtype=float)
    helper = np.array([0.0, 0.0, 1.0]) if abs(b[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(b, helper)
    u /= np.linalg.norm(u)
    v = np.cross(b, u)
    theta = math.radians(theta_deg)
    out = b * math.cos(theta) + (u * math.cos(phi) + v * math.sin(phi)) * math.sin(theta)
    return out / np.linalg.norm(out)


def _unit_rows(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    v[: n // 4, 2] *= 30.0  # a quarter near vertical: |b_z| >= 0.9 takes the other helper axis
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def angles_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.degrees(np.arccos(np.clip((a * b).sum(axis=1), -1.0, 1.0)))


def test_perturb_matches_scalar_reference():
    rng = np.random.default_rng(7)
    b = _unit_rows(rng, 2_000)
    theta, phi = rng.normal(0.0, 5.0, len(b)), rng.uniform(0.0, 2.0 * math.pi, len(b))
    want = np.array([_reference_perturb(*args) for args in zip(b, theta, phi)])
    assert (np.abs(b[:, 2]) >= 0.9).sum() > 400
    assert np.abs(perturb_pointing(b, theta, phi) - want).max() <= 1e-15


def test_perturb_zero_sigma_is_identity():
    b = _unit_rows(np.random.default_rng(8), 100)
    out = perturb_pointing(b, np.zeros(len(b)), np.linspace(0.0, 6.0, len(b)))
    assert np.abs(out - b).max() <= 1e-15


def test_perturb_deterministic():
    """A pure function of its rows: the same inputs give the same bits, whatever the batch."""
    rng = np.random.default_rng(9)
    b = _unit_rows(rng, 50)
    theta, phi = rng.normal(0.0, 2.0, 50), rng.uniform(0.0, 2.0 * math.pi, 50)
    whole = perturb_pointing(b, theta, phi)
    assert np.array_equal(whole, perturb_pointing(b, theta, phi))
    assert np.array_equal(whole[10:13], perturb_pointing(b[10:13], theta[10:13], phi[10:13]))


def test_perturb_statistics():
    rng = np.random.default_rng(42)
    n = 10_000
    b = np.tile([1.0, 0.0, 0.0], (n, 1))
    out = perturb_pointing(b, rng.normal(0.0, 2.0, n), rng.uniform(0.0, 2.0 * math.pi, n))
    devs = angles_between(b, out)
    # deviation angle is |N(0, 2 deg)|: RMS equals sigma
    assert math.sqrt(np.mean(devs**2)) == pytest.approx(2.0, abs=0.1)
    assert devs.max() < 10.0


def test_perturb_outputs_unit_norm():
    rng = np.random.default_rng(10)
    b = _unit_rows(rng, 1_000)
    out = perturb_pointing(b, rng.normal(0.0, 30.0, len(b)), rng.uniform(0.0, 2.0 * math.pi, len(b)))
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-15
