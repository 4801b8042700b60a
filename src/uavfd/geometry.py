"""3D positions, distances and angle-off-boresight math.

Right-handed metric frame: the ground station sits at the origin, the x-axis
points toward the victim receiver, z points up.  All coordinates are in
meters.  Everything here is a pure function on immutable values, so it is
safe to call from concurrent sweeps without coordination.  The distance and
angle functions take Positions or (..., 3) position arrays and broadcast them.
"""

import math
from dataclasses import dataclass, fields

import numpy as np


# Levels beyond this push 10 ** (dB / 10) past float64 in the noise and attenuator math.
MAX_LEVEL_DB = 1000.0


def require_finite(config, levels: tuple[str, ...] = ()) -> None:
    """Raise ValueError for a dataclass's first non-finite float field, then its first `levels` past ±MAX_LEVEL_DB."""
    for f in fields(config):
        if f.type is float and not math.isfinite(v := getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, got {v}")
    for name in levels:
        if abs(v := getattr(config, name)) > MAX_LEVEL_DB:
            raise ValueError(f"{name} must be within ±{MAX_LEVEL_DB:g} dB, got {v}")


@dataclass(frozen=True)
class Position:
    """A point in the experiment frame (meters)."""

    x: float
    y: float
    z: float

    __post_init__ = require_finite

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


Points = Position | np.ndarray  # one Position, or positions along the last axis of an array


def _xyz(p: Points) -> np.ndarray:
    """Coordinates of a Position, or of a (..., 3) array of positions, as a float array."""
    return np.array(p.as_tuple()) if isinstance(p, Position) else np.asarray(p, dtype=float)


def float_or_array(a: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float; a larger one stays an array."""
    return float(a) if np.ndim(a) == 0 else a


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=-1))


def distance(a: Points, b: Points) -> float | np.ndarray:
    """Euclidean distance between positions in meters."""
    return float_or_array(_norm(_xyz(b) - _xyz(a)))


def boresight_offset(node_pos: Points, pointing_target: Points, target_pos: Points) -> float | np.ndarray:
    """Angle in degrees between a node's boresight and the ray to a target.

    The boresight is the ray node_pos -> pointing_target; the result is the
    angle of node_pos -> target_pos off that ray, in [0, 180].  Symmetric in
    (pointing_target, target_pos) and invariant under rigid transforms of all
    three points.

    Raises ValueError when any ray is degenerate (coincident points).
    """
    node = _xyz(node_pos)
    v1 = _xyz(pointing_target) - node
    v2 = _xyz(target_pos) - node
    n1, n2 = _norm(v1), _norm(v2)
    if np.any(n1 == 0.0):
        raise ValueError("pointing_target coincides with node_pos; boresight undefined")
    if np.any(n2 == 0.0):
        raise ValueError("target_pos coincides with node_pos; target ray undefined")
    # clip guards acos against rounding just outside [-1, 1]
    cosang = np.clip((v1 * v2).sum(axis=-1) / (n1 * n2), -1.0, 1.0)
    return float_or_array(np.degrees(np.arccos(cosang)))


def elevation_angle(origin: Points, target: Points) -> float | np.ndarray:
    """Elevation in degrees of the ray origin -> target above the horizontal plane."""
    v = _xyz(target) - _xyz(origin)
    d = _norm(v)
    if np.any(d == 0.0):
        raise ValueError("elevation undefined for coincident points")
    return float_or_array(np.degrees(np.arcsin(np.clip(v[..., 2] / d, -1.0, 1.0))))
