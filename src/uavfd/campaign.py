"""Measurement campaign: grid sweeps of interference power and capacity.

The fixed geometry puts the ground station transmitter at (0, 0, 0.1) and
the victim receiver at (60, 0, 0.1), boresights facing each other; the
interfering transmitter is moved over a 2 m grid (x 10..70, y 0..30) at a
configurable height, always aiming back at the ground station.  Only the
y >= 0 half is swept; the antenna patterns are symmetric, so results can
be mirrored onto negative y for presentation.

Measured powers sit on an instrument sensitivity floor (-95 dBm by
default): anything weaker is reported as the floor.  The capacity stage
reproduces the measured levels with attenuators, so interference that was
unmeasurable cannot be reproduced either and is treated as absent there.

The power map is one vectorised pass: the grid becomes an (N, 3) position
array and a single `link_gain_db` call gives every interference gain.
Two capacity engines are provided: `analytic` converts the power map
directly to SINR and Shannon capacity, `waveform` actually runs framed
OFDM through the combiner rig and derives SINR from measured EVM,
including the possibility of synchronization failure.  Grid points are
independent; per-point seeds are derived from (sweep seed, grid index) so
results do not depend on evaluation order.
"""

import csv
import ctypes
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .antenna import AntennaSpec, PointingError, dipole, horn, perturb_pointing
from .geometry import Direction, Position, distance
from .metrics import (
    DEFAULT_SINR_CEILING_DB,
    CapacityConfig,
    apply_sinr_ceiling,
    capacity_fd,
    capacity_tdd,
    sinr_analytic,
    sinr_from_evm,
)
from .phy import OfdmParams, RxResult, build_frame, impair, receive_frame
from .propagation import NodeConfig, fspl_db, link_gain_db, noise_floor_dbm

GS_POSITION = Position(0.0, 0.0, 0.1)
RX2_POSITION = Position(60.0, 0.0, 0.1)

# Friis is a far-field model; closer than this the link saturates at the
# boresight-coupled value (only reachable at the grid point on top of Rx#2).
NEAR_FIELD_DISTANCE_M = 1.0

FRAME_SYMBOLS = 28  # OFDM data symbols per frame of the waveform capacity sweep

SWEEP_CSV_COLUMNS = ["x_m", "y_m", "h_m", "p_int_dbm", "p_des_dbm", "evm", "sinr_db", "capacity_bps", "sync_ok"]

# Each list of sweep records holds a few hundred bytes per point; 1M points is 5.5x the 0.1 m grid.
MAX_GRID_POINTS = 1_000_000


def _axis_len(start: float, end: float, step: float) -> int:
    # saturates past the cap, where (end - start) / step may overflow to inf
    return int(round(min((end - start) / step, MAX_GRID_POINTS))) + 1


@dataclass(frozen=True)
class GridSpec:
    x_start_m: float = 10.0
    x_end_m: float = 70.0
    x_step_m: float = 2.0
    y_start_m: float = 0.0
    y_end_m: float = 30.0
    y_step_m: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.x_step_m <= 0 or self.y_step_m <= 0:
            raise ValueError("grid steps must be > 0")
        if self.x_end_m < self.x_start_m or self.y_end_m < self.y_start_m:
            raise ValueError("grid end must be >= start")
        # counted before any point is built
        nx = _axis_len(self.x_start_m, self.x_end_m, self.x_step_m)
        if nx * _axis_len(self.y_start_m, self.y_end_m, self.y_step_m) > MAX_GRID_POINTS:
            raise ValueError(f"more than {MAX_GRID_POINTS} points")

    def x_values(self) -> list[float]:
        n = _axis_len(self.x_start_m, self.x_end_m, self.x_step_m)
        return [self.x_start_m + i * self.x_step_m for i in range(n)]

    def y_values(self) -> list[float]:
        n = _axis_len(self.y_start_m, self.y_end_m, self.y_step_m)
        return [self.y_start_m + i * self.y_step_m for i in range(n)]


@dataclass(frozen=True)
class ScenarioConfig:
    """One measurement scene: antenna type, interferer height, power settings."""

    name: str
    antenna: AntennaSpec
    interferer_height_m: float
    p_g_dbm: float  # ground-station (desired) transmit power
    p_u_dbm: float  # interfering UAV transmit power
    floor_dbm: float = -95.0
    noise_figure_db: float = 7.0
    mode: str = "FD"  # FD | TDD
    engine: str = "analytic"  # analytic | waveform
    bandwidth_hz: float = 10e6
    carrier_freq_hz: float = 5.7e9
    tdd_snr_db: float = 8.11  # calibrated baseline SNR for the TDD comparison
    sinr_ceiling_db: float = DEFAULT_SINR_CEILING_DB
    pointing_sigma_deg: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for field_name in ("bandwidth_hz", "carrier_freq_hz"):
            if getattr(self, field_name) <= 0.0:
                raise ValueError(f"{field_name} must be > 0")
        if self.pointing_sigma_deg < 0.0:
            raise ValueError("pointing_sigma_deg must be >= 0")
        if self.mode not in ("FD", "TDD"):
            raise ValueError(f"mode must be FD or TDD, got {self.mode!r}")
        if self.engine not in ("analytic", "waveform"):
            raise ValueError(f"engine must be analytic or waveform, got {self.engine!r}")

    def capacity_config(self) -> CapacityConfig:
        return CapacityConfig(bandwidth_hz=self.bandwidth_hz)


@dataclass(frozen=True)
class SweepRecord:
    """Result at one grid point.

    interference_dbm is the reported (floor-clamped) received interference;
    interference_raw_dbm keeps the unclamped model value for statistics that
    need to know whether a point was actually at the sensitivity floor.
    """

    index: int
    position: Position
    interference_dbm: float
    interference_raw_dbm: float
    desired_dbm: float
    evm_rms: float | None = None
    sinr_db: float | None = None
    capacity_bps: float | None = None
    sync_ok: bool | None = None

    @property
    def at_floor(self) -> bool:
        """True when the reported interference was clamped up to the floor."""
        return self.interference_raw_dbm < self.interference_dbm


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """The four bundled scenes compared by the experiment.

    The horn's 45 dB front-to-back attenuation is a calibrated assumption:
    only the boresight gain and beamwidth of the hardware are known, and
    this value reproduces the observed below-floor area fractions of the
    directional scenes.
    """
    h = horn(21.0, 18.0, front_to_back_db=45.0)
    return {
        "directional-0.1": ScenarioConfig("directional-0.1", h, 0.1, p_g_dbm=-45.0, p_u_dbm=0.0),
        "directional-1.8": ScenarioConfig("directional-1.8", h, 1.8, p_g_dbm=-45.0, p_u_dbm=0.0),
        "dipole-0.1": ScenarioConfig("dipole-0.1", dipole(2.5), 0.1, p_g_dbm=-8.0, p_u_dbm=27.5),
        "tdd-baseline": ScenarioConfig("tdd-baseline", h, 0.1, p_g_dbm=-45.0, p_u_dbm=0.0, mode="TDD"),
    }


def grid_points(spec: GridSpec, height_m: float) -> list[Position]:
    """Row-major grid enumeration (x outer, y inner) at one height."""
    return [Position(x, y, height_m) for x in spec.x_values() for y in spec.y_values()]


def _derived_seed(base_seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([base_seed, *keys]).generate_state(1)[0])


def run_power_sweep(scenario: ScenarioConfig, grid: GridSpec, seed: int = 0) -> list[SweepRecord]:
    """Measure desired and interference channel powers over the grid.

    The ground station and victim stay fixed and mutually aligned; the
    desired power is therefore measured once.  The interferer is re-aimed
    at the ground station from every grid point, and its received power is
    clamped below at the instrument floor.  All interference gains come
    from one `link_gain_db` call over the grid's (N, 3) position array.
    """
    f = scenario.carrier_freq_hz
    rx2 = NodeConfig(RX2_POSITION, scenario.antenna, GS_POSITION)
    tx2 = NodeConfig(GS_POSITION, scenario.antenna, RX2_POSITION)
    desired = max(scenario.p_g_dbm + link_gain_db(tx2, rx2, f), scenario.floor_dbm)

    points = grid_points(grid, scenario.interferer_height_m)
    pos = np.array([p.as_tuple() for p in points])
    aims = np.broadcast_to(GS_POSITION.as_tuple(), pos.shape)
    if scenario.pointing_sigma_deg > 0.0:
        # each point's aim is off by a pointing error seeded from its index
        errs = (PointingError(scenario.pointing_sigma_deg, _derived_seed(seed, i, 0)) for i in range(len(pos)))
        bores = (Direction.between(p, GS_POSITION) for p in points)
        aims = pos + np.array([perturb_pointing(b, e).as_tuple() for b, e in zip(bores, errs)])
    d = distance(pos, RX2_POSITION)
    apart = d > 0.0
    # an interferer standing on the receiver couples boresight to boresight
    gain = np.full(len(pos), 2.0 * scenario.antenna.boresight_gain_dbi - fspl_db(NEAR_FIELD_DISTANCE_M, f))
    # far-field Friis: the angles stay physical, the path loss is taken at max(d, NEAR_FIELD_DISTANCE_M)
    friis_d = np.maximum(d[apart], NEAR_FIELD_DISTANCE_M)
    tx1 = NodeConfig(pos[apart], scenario.antenna, aims[apart])
    gain[apart] = link_gain_db(tx1, rx2, f) + (fspl_db(d[apart], f) - fspl_db(friis_d, f))
    raw = (scenario.p_u_dbm + gain).tolist()
    floor = scenario.floor_dbm
    return [SweepRecord(i, p, max(r, floor), r, desired) for i, (p, r) in enumerate(zip(points, raw))]


def _reproducible_interference_dbm(scenario: ScenarioConfig, rec: SweepRecord) -> float:
    """Interference level the capacity rig can reproduce, -inf when unmeasurable.

    Attenuators are set from the measured (clamped) power map; a point
    whose interference sat below the sensitivity floor has nothing to
    reproduce, so the rig injects no interferer there.
    """
    if rec.interference_raw_dbm >= scenario.floor_dbm:
        return rec.interference_dbm
    return -math.inf


@functools.cache
def _retain_freed_heap() -> None:
    """Keep freed buffers on the heap instead of handing them back to the OS.

    A waveform point frees a few MB; glibc's adaptive trim threshold often
    returned them, to be faulted in again on the next point (~2 ms each).
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: buffers below 32 MB come from the heap
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB of freed heap


def measure_link(
    params: OfdmParams,
    n_symbols: int,
    atten_desired_db: float,
    atten_interferer_db: float,
    noise_power_dbm: float,
    seeds,
) -> tuple[np.ndarray, RxResult]:
    """Push one frame through the combiner rig and measure its EVM.

    seeds are the (desired payload, interferer payload, impair) seeds; no
    interferer is built when atten_interferer_db is inf.  Returns the
    impaired samples and the receiver result (EVM only, no decoding).
    """
    _retain_freed_heap()
    payload_bits = params.payload_bits(n_symbols)
    frame = build_frame(params, np.random.default_rng(seeds[0]).integers(0, 2, payload_bits))
    interferer = None
    if atten_interferer_db != math.inf:
        # the interfering uplink is a free-running co-channel modem:
        # the victim sees its continuous data stream, not a preamble
        bits = np.random.default_rng(seeds[1]).integers(0, 2, payload_bits)
        interferer = build_frame(params, bits, pilot_stream=1).body_stream()
    mixed = impair(frame, interferer, atten_desired_db, atten_interferer_db, noise_power_dbm, seeds[2])
    return mixed, receive_frame(mixed, params, frame.data_symbols, decode=False)


def run_capacity_sweep(scenario: ScenarioConfig, grid: GridSpec, seed: int = 0) -> list[SweepRecord]:
    """Per-point achievable capacity from the reproduced power levels.

    TDD mode yields a position-independent map at the calibrated baseline
    SNR.  FD mode uses the configured engine: `analytic` computes
    S/(I+N) from the power map; `waveform` runs `measure_link` on one frame
    per point, so SINR comes from measured EVM and a point with failed
    time synchronization contributes zero capacity.
    """
    records = run_power_sweep(scenario, grid, seed)
    cap_cfg = scenario.capacity_config()

    if scenario.mode == "TDD":
        cap = capacity_tdd(cap_cfg, scenario.tdd_snr_db)
        return [
            replace(r, sinr_db=scenario.tdd_snr_db, capacity_bps=cap, sync_ok=True) for r in records
        ]

    noise_dbm = noise_floor_dbm(scenario.bandwidth_hz, scenario.noise_figure_db)

    if scenario.engine == "analytic":
        out = []
        for r in records:
            sinr = sinr_analytic(r.desired_dbm, _reproducible_interference_dbm(scenario, r), noise_dbm)
            sinr = apply_sinr_ceiling(sinr, scenario.sinr_ceiling_db)
            out.append(replace(r, sinr_db=sinr, capacity_bps=capacity_fd(cap_cfg, sinr), sync_ok=True))
        return out

    params = OfdmParams(
        sampling_rate_hz=15.36e6, bandwidth_hz=scenario.bandwidth_hz, carrier_freq_hz=scenario.carrier_freq_hz
    )
    # white receiver noise: PSD fixed by the configured floor, integrated
    # over the full sampled band
    noise_wave_dbm = noise_dbm + 10.0 * math.log10(params.sampling_rate_hz / scenario.bandwidth_hz)

    out = []
    for r in records:
        i_dbm = _reproducible_interference_dbm(scenario, r)
        seeds = [_derived_seed(seed, r.index, k) for k in (1, 2, 3)]
        _, rx = measure_link(params, FRAME_SYMBOLS, -r.desired_dbm, -i_dbm, noise_wave_dbm, seeds)
        if not rx.sync_success:
            out.append(replace(r, capacity_bps=0.0, sync_ok=False))
            continue
        sinr = apply_sinr_ceiling(sinr_from_evm(rx.evm_rms), scenario.sinr_ceiling_db)
        cap = capacity_fd(cap_cfg, sinr)
        out.append(replace(r, evm_rms=rx.evm_rms, sinr_db=sinr, capacity_bps=cap, sync_ok=True))
    return out


def mirror_symmetry(records: list[SweepRecord]) -> list[SweepRecord]:
    """Extend a y >= 0 sweep with its mirror image on negative y.

    Every y > 0 record is duplicated with the sign of y flipped (antenna
    patterns are symmetric); y = 0 rows are not duplicated.  Mirrored rows
    are appended after the originals with fresh indices.
    """
    out = list(records)
    next_index = len(records)
    for r in records:
        if r.position.y > 0.0:
            p = r.position
            out.append(replace(r, index=next_index, position=Position(p.x, -p.y, p.z)))
            next_index += 1
    return out


def _fmt(value, spec: str) -> str:
    return "" if value is None else format(value, spec)


def write_sweep_csv(path, records: list[SweepRecord]) -> None:
    """Write records in the canonical sweep CSV schema (stable byte output)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SWEEP_CSV_COLUMNS)
        for r in records:
            w.writerow(
                [
                    _fmt(r.position.x, ".3f"),
                    _fmt(r.position.y, ".3f"),
                    _fmt(r.position.z, ".3f"),
                    _fmt(r.interference_dbm, ".4f"),
                    _fmt(r.desired_dbm, ".4f"),
                    _fmt(r.evm_rms, ".6e"),
                    _fmt(r.sinr_db, ".4f"),
                    _fmt(r.capacity_bps, ".3f"),
                    "" if r.sync_ok is None else ("1" if r.sync_ok else "0"),
                ]
            )


def read_sweep_csv(path) -> list[SweepRecord]:
    """Read a sweep CSV back into records.

    The CSV stores reported (clamped) interference only, so the raw field
    is set equal to it on read.
    """
    path = Path(path)
    records = []
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for i, row in enumerate(reader):
            if len(row) != len(SWEEP_CSV_COLUMNS):
                raise ValueError(f"{path}: row {i + 2} has {len(row)} fields")
            x, y, h, p_int, p_des, evm, sinr, cap, sync = row
            records.append(
                SweepRecord(
                    index=i,
                    position=Position(float(x), float(y), float(h)),
                    interference_dbm=float(p_int),
                    interference_raw_dbm=float(p_int),
                    desired_dbm=float(p_des),
                    evm_rms=float(evm) if evm else None,
                    sinr_db=float(sinr) if sinr else None,
                    capacity_bps=float(cap) if cap else None,
                    sync_ok=None if sync == "" else sync == "1",
                )
            )
    if not records:
        raise ValueError(f"{path}: no records")
    return records
