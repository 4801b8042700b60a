"""Free-space line-of-sight channel gains and receiver noise floor.

The aerial channel between elevated nodes is LOS-dominated, and the ground
measurement eliminates the ground bounce by design, so a single-path Friis
model is used throughout: no two-ray term, no atmospheric absorption.

`fspl_db` and `link_gain_db` are array-first: a node's position and
pointing target may each be a `Position` or a (..., 3) array of positions,
so one call evaluates a whole grid of links; single links give a float.
"""

import math
from dataclasses import dataclass

import numpy as np

from .antenna import AntennaSpec, gain_db
from .geometry import Points, boresight_offset, distance, elevation_angle, float_or_array

SPEED_OF_LIGHT = 299_792_458.0  # m/s
THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class NodeConfig:
    """A transmitter or receiver (or a batch of them): where it is, what it radiates with, where it aims."""

    position: Points
    antenna: AntennaSpec
    pointing_target: Points


def fspl_db(d_m: float | np.ndarray, f_hz: float) -> float | np.ndarray:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    if np.any(d_m <= 0.0):
        raise ValueError(f"distance must be > 0 m, got {np.min(d_m)}")
    if f_hz <= 0.0:
        raise ValueError(f"frequency must be > 0 Hz, got {f_hz}")
    return float_or_array(20.0 * np.log10(4.0 * np.pi * d_m * f_hz / SPEED_OF_LIGHT))


def link_gain_db(tx: NodeConfig, rx: NodeConfig, f_hz: float) -> float | np.ndarray:
    """Channel gain in dB from tx antenna port to rx antenna port.

    This is the simulated analogue of a measured channel power: transmit
    pattern gain toward rx, plus receive pattern gain toward tx, minus
    free-space path loss at f_hz.  Raises ValueError when tx and rx
    coincide anywhere in the batch.
    """
    d = distance(tx.position, rx.position)
    if np.any(d == 0.0):
        raise ValueError("tx and rx positions coincide; link undefined")
    tx_off = boresight_offset(tx.position, tx.pointing_target, rx.position)
    rx_off = boresight_offset(rx.position, rx.pointing_target, tx.position)
    tx_g = gain_db(tx.antenna, tx_off, elevation_angle(tx.position, rx.position))
    rx_g = gain_db(rx.antenna, rx_off, elevation_angle(rx.position, tx.position))
    return tx_g + rx_g - fspl_db(d, f_hz)


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise power -174 + 10*log10(B) + NF in dBm."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be > 0 Hz, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
