"""SINR, capacity and coverage statistics.

EVM and SINR are tied by the usual identity SINR_dB = -20*log10(EVM_rms)
for a unit-energy reference constellation.  Full-duplex links use the whole
band continuously; the TDD baseline pays its duty cycle and guard-interval
overhead but sees no co-channel interference.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import float_or_array

DEFAULT_SINR_CEILING_DB = 40.0  # cap applied when EVM underflows to 0
TDD_DUTY = 0.5  # share of time a TDD link holds the channel
TDD_GUARD_OVERHEAD = 0.2  # share of that time lost to switching guard intervals

Values = float | np.ndarray  # a float gives a float back, an array an array


@dataclass(frozen=True)
class CapacityConfig:
    bandwidth_hz: float = 10e6

    def __post_init__(self):
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth_hz must be > 0")


def sinr_from_evm(evm_rms: Values) -> Values:
    """SINR in dB implied by an RMS error vector magnitude.

    evm_rms = 0 (numerically perfect reception) maps to +inf; cap it with
    apply_sinr_ceiling before feeding capacity formulas.  NaN (no EVM) stays NaN.
    """
    evm = np.asarray(evm_rms, dtype=float)
    if np.any(evm < 0.0):
        raise ValueError(f"evm_rms must be >= 0, got {evm_rms}")
    with np.errstate(divide="ignore"):
        return float_or_array(-20.0 * np.log10(evm))


def apply_sinr_ceiling(sinr_db: Values, ceiling_db: float = DEFAULT_SINR_CEILING_DB) -> Values:
    """Clamp an SINR (possibly +inf) to a finite ceiling."""
    return float_or_array(np.minimum(sinr_db, ceiling_db))


def sinr_analytic(signal_dbm: Values, interference_dbm: Values, noise_dbm: float) -> Values:
    """10*log10(S / (I + N)) with all inputs in dBm.

    interference_dbm or noise_dbm may be -inf to mark an absent term; with
    both absent the SINR is +inf.
    """
    i_lin = 10.0 ** (np.asarray(interference_dbm, dtype=float) / 10.0)
    with np.errstate(divide="ignore"):
        return float_or_array(signal_dbm - 10.0 * np.log10(i_lin + 10.0 ** (noise_dbm / 10.0)))


def capacity_fd(cfg: CapacityConfig, sinr_db: Values) -> Values:
    """Full-duplex Shannon capacity in bit/s; the link owns the band continuously.

    log1p keeps the relative error near one ulp at low SINR, where
    rounding 1 + x would cost about 1e-16 / x.
    """
    snr_lin = 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0)
    return float_or_array(cfg.bandwidth_hz * np.log1p(snr_lin) / np.log(2.0))


def capacity_tdd(cfg: CapacityConfig, snr_db: float) -> float:
    """TDD baseline capacity in bit/s.

    Orthogonal time slots mean no co-channel interference, but the link only
    holds the channel for TDD_DUTY of the time and loses TDD_GUARD_OVERHEAD
    of that to switching guard intervals.
    """
    return TDD_DUTY * (1.0 - TDD_GUARD_OVERHEAD) * capacity_fd(cfg, snr_db)


def cdf(values) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as (value, cumulative fraction) steps.

    Ties collapse into a single step; the last fraction is exactly 1.0.
    """
    v = _sample(values, "cdf")
    steps, counts = np.unique(v, return_counts=True)
    return list(zip(steps.tolist(), (np.cumsum(counts) / v.size).tolist()))


def _sample(values, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError(f"{what} of an empty sample is undefined")
    return v


def _share(values, below: float, inclusive: bool, what: str) -> float:
    """Fraction of values below a level (or at it, when inclusive)."""
    v = _sample(values, what)
    return np.count_nonzero(v <= below if inclusive else v < below) / v.size


def cdf_at(values, x: float) -> float:
    """Empirical CDF evaluated at x: fraction of values <= x."""
    return _share(values, x, True, "cdf")


def coverage_fraction(values, threshold: float) -> float:
    """Fraction of values strictly below threshold, in [0, 1]."""
    return _share(values, threshold, False, "coverage")
