"""Parametric antenna gain patterns.

Two patterns cover the hardware used in the measurement scenarios:

* a high-gain horn (21 dBi, 18 deg half-power beamwidth) modeled with the
  standard Gaussian-quadratic main lobe  G0 - 12*(theta/HPBW)^2 dB, capped
  at a front-to-back attenuation (30 dB unless configured otherwise);
* a vertical dipole (2.5 dBi) that is omnidirectional in azimuth with a
  cosine rolloff in elevation, floored at 1e-3 linear.

The quadratic model reproduces the -3 dB point at HPBW/2 exactly.  Pointing
error emulates manual beam alignment; draws are deterministic given the
seed, so sweeps that need independent draws must derive per-point seeds.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import Direction, float_or_array

DIPOLE_ELEVATION_FLOOR = 1e-3  # linear floor on cos(elevation)


class AntennaKind(Enum):
    HORN = "horn"
    DIPOLE = "dipole"


@dataclass(frozen=True)
class AntennaSpec:
    """Gain pattern parameters.

    hpbw_deg and front_to_back_db only apply to the horn; the dipole is
    fully described by its boresight gain.
    """

    kind: AntennaKind
    boresight_gain_dbi: float
    hpbw_deg: float = 18.0
    front_to_back_db: float = 30.0

    def __post_init__(self):
        if not math.isfinite(self.boresight_gain_dbi):
            raise ValueError("boresight_gain_dbi must be finite")
        if self.kind is AntennaKind.HORN:
            if not (0.0 < self.hpbw_deg < 180.0):
                raise ValueError(f"hpbw_deg must be in (0, 180), got {self.hpbw_deg}")
            if self.front_to_back_db <= 0.0:
                raise ValueError("front_to_back_db must be > 0 dB")


def horn(gain_dbi: float = 21.0, hpbw_deg: float = 18.0, front_to_back_db: float = 30.0) -> AntennaSpec:
    return AntennaSpec(AntennaKind.HORN, gain_dbi, hpbw_deg, front_to_back_db)


def dipole(gain_dbi: float = 2.5) -> AntennaSpec:
    return AntennaSpec(AntennaKind.DIPOLE, gain_dbi)


@dataclass(frozen=True)
class PointingError:
    """Zero-mean angular pointing noise with RMS sigma_deg, seeded."""

    sigma_deg: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma_deg < 0.0:
            raise ValueError("sigma_deg must be >= 0")


def gain_db(
    spec: AntennaSpec, offset_deg: float | np.ndarray, elevation_deg: float | np.ndarray = 0.0
) -> float | np.ndarray:
    """Antenna gain in dBi toward a ray, or toward each ray of an array.

    offset_deg is the full 3D angle off boresight (used by the horn);
    elevation_deg is the ray's elevation above horizontal (used by the
    dipole, which ignores azimuth entirely).  Floats give a float.
    """
    if spec.kind is AntennaKind.HORN:
        rolloff = 12.0 * (np.abs(offset_deg) / spec.hpbw_deg) ** 2
        return float_or_array(spec.boresight_gain_dbi - np.minimum(rolloff, spec.front_to_back_db))
    # dipole: azimuth-omni, cosine elevation pattern
    c = np.maximum(np.abs(np.cos(np.radians(elevation_deg))), DIPOLE_ELEVATION_FLOOR)
    return float_or_array(spec.boresight_gain_dbi + 20.0 * np.log10(c))


def perturb_pointing(boresight: Direction, err: PointingError) -> Direction:
    """Rotate a boresight by a random angular deviation.

    The deviation angle is drawn from N(0, sigma) and applied about a
    uniformly random axis perpendicular to the boresight, so the RMS angle
    between input and output equals sigma_deg.  sigma 0 returns the input
    unchanged; the same (boresight, err) always returns the same output.
    """
    if err.sigma_deg == 0.0:
        return boresight
    rng = np.random.default_rng(err.seed)
    theta = math.radians(rng.normal(0.0, err.sigma_deg))
    phi = rng.uniform(0.0, 2.0 * math.pi)

    b = np.array(boresight.as_tuple())
    # build an orthonormal pair perpendicular to b
    helper = np.array([0.0, 0.0, 1.0]) if abs(b[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(b, helper)
    u /= np.linalg.norm(u)
    v = np.cross(b, u)

    out = b * math.cos(theta) + (u * math.cos(phi) + v * math.sin(phi)) * math.sin(theta)
    return Direction.from_vector(out[0], out[1], out[2])
