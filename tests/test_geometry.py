import math

import numpy as np
import pytest

from uavfd.geometry import Position, boresight_offset, distance, elevation_angle


def oracle_angle(node, pointing, target):
    """Independent vector-math oracle for the boresight offset."""
    v1 = np.array(pointing) - np.array(node)
    v2 = np.array(target) - np.array(node)
    c = np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    return math.degrees(math.acos(np.clip(c, -1.0, 1.0)))


def test_distance_examples():
    assert distance(Position(0, 0, 0.1), Position(60, 0, 0.1)) == pytest.approx(60.0)
    assert distance(Position(0, 0, 0), Position(0, 0, 0)) == 0.0
    assert distance(Position(10, 0, 0.1), Position(60, 0, 1.8)) == pytest.approx(50.0289, abs=1e-3)


def test_boresight_offset_orthogonal_and_collinear():
    o = Position(0, 0, 0)
    assert boresight_offset(o, Position(1, 0, 0), Position(0, 1, 0)) == pytest.approx(90.0)
    assert boresight_offset(o, Position(1, 0, 0), Position(5, 0, 0)) == pytest.approx(0.0)


def test_boresight_offset_against_oracle():
    # frozen from the oracle: angle at (30,10,0.1) between rays to the origin
    # and to (60,0,0.1)
    got = boresight_offset(Position(30, 10, 0.1), Position(0, 0, 0.1), Position(60, 0, 0.1))
    assert got == pytest.approx(143.1301, abs=1e-3)
    assert got == pytest.approx(oracle_angle((30, 10, 0.1), (0, 0, 0.1), (60, 0, 0.1)), abs=1e-9)

    rng = np.random.default_rng(11)
    for _ in range(200):
        n, p, t = rng.normal(size=(3, 3)) * 40.0
        node, pt, tgt = Position(*n), Position(*p), Position(*t)
        assert boresight_offset(node, pt, tgt) == pytest.approx(oracle_angle(n, p, t), abs=1e-9)


def test_boresight_offset_symmetric_in_rays():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n, p, t = rng.normal(size=(3, 3)) * 10.0
        a = boresight_offset(Position(*n), Position(*p), Position(*t))
        b = boresight_offset(Position(*n), Position(*t), Position(*p))
        assert a == pytest.approx(b, abs=1e-12)


def test_boresight_offset_rigid_transform_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.normal(size=(3, 3)) * 20.0
        base = oracle_angle(*pts)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.normal(size=3) * 100.0
        moved = pts @ q.T + shift
        got = boresight_offset(Position(*moved[0]), Position(*moved[1]), Position(*moved[2]))
        assert got == pytest.approx(base, abs=1e-9)


def test_degenerate_rays_raise():
    o = Position(1, 2, 3)
    with pytest.raises(ValueError):
        boresight_offset(o, o, Position(4, 5, 6))
    with pytest.raises(ValueError):
        boresight_offset(o, Position(4, 5, 6), o)
    with pytest.raises(ValueError):
        elevation_angle(o, o)


def test_position_requires_finite_coordinates():
    with pytest.raises(ValueError):
        Position(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Position(0, math.inf, 0)


def test_elevation_angle():
    assert elevation_angle(Position(0, 0, 0), Position(10, 0, 0)) == pytest.approx(0.0)
    assert elevation_angle(Position(0, 0, 0), Position(0, 0, 5)) == pytest.approx(90.0)
    assert elevation_angle(Position(0, 0, 5), Position(10, 0, 0)) < 0.0
