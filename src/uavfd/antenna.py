"""Parametric antenna gain patterns.

Two patterns cover the hardware used in the measurement scenarios:

* a high-gain horn (21 dBi, 18 deg half-power beamwidth) modeled with the
  standard Gaussian-quadratic main lobe  G0 - 12*(theta/HPBW)^2 dB, capped
  at a front-to-back attenuation (30 dB unless configured otherwise);
* a vertical dipole (2.5 dBi) that is omnidirectional in azimuth with a
  cosine rolloff in elevation, floored at 1e-3 linear.

The quadratic model reproduces the -3 dB point at HPBW/2 exactly.  Pointing
error emulates manual beam alignment: `perturb_pointing` tilts a batch of
boresights by angles the caller draws.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import float_or_array, require_finite

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
        require_finite(self, ("boresight_gain_dbi", "front_to_back_db"))
        if self.kind is AntennaKind.HORN:
            if not (0.0 < self.hpbw_deg < 180.0):
                raise ValueError(f"hpbw_deg must be in (0, 180), got {self.hpbw_deg}")
            if self.front_to_back_db <= 0.0:
                raise ValueError("front_to_back_db must be > 0 dB")


def horn(gain_dbi: float = 21.0, hpbw_deg: float = 18.0, front_to_back_db: float = 30.0) -> AntennaSpec:
    return AntennaSpec(AntennaKind.HORN, gain_dbi, hpbw_deg, front_to_back_db)


def dipole(gain_dbi: float = 2.5) -> AntennaSpec:
    return AntennaSpec(AntennaKind.DIPOLE, gain_dbi)


def gain_db(
    spec: AntennaSpec, offset_deg: float | np.ndarray, elevation_deg: float | np.ndarray = 0.0
) -> float | np.ndarray:
    """Antenna gain in dBi toward a ray, or toward each ray of an array.

    offset_deg is the full 3D angle off boresight (used by the horn);
    elevation_deg is the ray's elevation above horizontal (used by the
    dipole, which ignores azimuth entirely).  Floats give a float.
    """
    if spec.kind is AntennaKind.HORN:
        # square, not pow: libm pow can miss x * x by an ulp, and arrays square (a 1-row batch then equals a scalar)
        rolloff = 12.0 * np.square(np.abs(offset_deg) / spec.hpbw_deg)
        return float_or_array(spec.boresight_gain_dbi - np.minimum(rolloff, spec.front_to_back_db))
    # dipole: azimuth-omni, cosine elevation pattern
    c = np.maximum(np.abs(np.cos(np.radians(elevation_deg))), DIPOLE_ELEVATION_FLOOR)
    return float_or_array(spec.boresight_gain_dbi + 20.0 * np.log10(c))


def perturb_pointing(boresights: np.ndarray, theta_deg: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Tilt each unit boresight, a row of an (N, 3) array, by theta_deg toward azimuth phi.

    The tilt axis is perpendicular to the boresight, phi radians round from
    b x z (from b x x when |b_z| >= 0.9).  With theta drawn from N(0, sigma)
    and phi uniform on [0, 2*pi) the RMS angle between input and output
    rows equals sigma.  Returns the (N, 3) unit vectors.
    """
    b = np.asarray(boresights, dtype=float)
    helper = np.where(np.abs(b[:, 2:]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    u = np.cross(b, helper)
    # u's norm is a per-row dot product and out's a sum of squares: the two
    # round differently, and the pinned 2-degree sweep digest holds both
    u /= np.sqrt(u[:, None, :] @ u[:, :, None])[:, 0]
    v = np.cross(b, u)
    theta, phi = np.radians(theta_deg)[:, None], np.asarray(phi, dtype=float)[:, None]
    out = b * np.cos(theta) + (u * np.cos(phi) + v * np.sin(phi)) * np.sin(theta)
    return out / np.sqrt((out * out).sum(axis=1, keepdims=True))
