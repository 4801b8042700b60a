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
including the possibility of synchronization failure.  Like the SDR rig,
it replays one frame per sweep, and it draws the receiver noise once per
sweep too (common random numbers): the received desired signal, frame
plus noise, is formed once, each point adds only its interferer, and
every interference-free point shares one receiver pass.  A point's
interferer is a row of `delayed_interferer`'s table, the one definition
that `impair` uses too, built once per sweep.  The interfered points'
heads, the 1,088 of 33,280 samples the receiver's sync gate reads, are
bounded in one `gate_bound` call; only a head whose bound reaches
GATE_BOUND_MARGIN of the threshold is taken from the table and gated,
GATE_CHUNK_ROWS heads per call, and only a point whose head passes has
its full buffer formed and received.  Every run seed comes from
`key_fold`, a SplitMix64 hash of (seed, stream, integer words): the rig
payloads and noise from the sweep seed alone, each point's delay and
pointing error from its position in mm (`point_keys`), so a point's
result depends neither on evaluation order nor on the grid it was swept in.

Sweep results are a `SweepTable` of float64 columns, row i being grid
point i: x, y, h, reported and raw interference, desired power, EVM,
SINR, capacity and sync (1.0/0.0).  NaN marks what a sweep did not
produce.  Mirroring, the CSV writer and reader and the capacity stage
all work on whole columns; rows come out as `SweepRecord`s on demand.
"""

import math
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .antenna import AntennaSpec, dipole, horn, perturb_pointing
from .geometry import Position, distance, require_finite
from .metrics import (
    DEFAULT_SINR_CEILING_DB,
    CapacityConfig,
    apply_sinr_ceiling,
    capacity_fd,
    capacity_tdd,
    sinr_analytic,
    sinr_from_evm,
)
from .phy import SYNC_THRESHOLD, FrameBuffer, OfdmParams, build_frame, gate_bound, gate_length, gate_metric
from .phy import impair, receive_frame
from .phy.modem import _U64, delayed_interferer, interferer_delay, splitmix64
from .propagation import NodeConfig, fspl_db, link_gain_db, noise_floor_dbm

GS_POSITION = Position(0.0, 0.0, 0.1)
RX2_POSITION = Position(60.0, 0.0, 0.1)

# Friis is a far-field model; closer than this the link saturates at the
# boresight-coupled value (only reachable at the grid point on top of Rx#2).
NEAR_FIELD_DISTANCE_M = 1.0

FRAME_SYMBOLS = 28  # OFDM data symbols per frame of the waveform capacity sweep
GATE_CHUNK_ROWS = 16  # interfered heads per batched sync-gate call of the waveform sweep
GATE_BOUND_MARGIN = 0.9  # a head is gated only where its gate_bound reaches this share of SYNC_THRESHOLD

_FINITE = ("finite", np.isfinite)
_NON_NEGATIVE = ("finite and >= 0", lambda c: np.isfinite(c) & (c >= 0.0))
# the sweep CSV, column by column: header, SweepTable column, format and the rule its known values meet
_SWEEP_CSV = [
    ("x_m", "x", ".3f", _FINITE), ("y_m", "y", ".3f", _FINITE), ("h_m", "h", ".3f", _FINITE),
    ("p_int_dbm", "interference_dbm", ".4f", _FINITE), ("p_des_dbm", "desired_dbm", ".4f", _FINITE),
    ("evm", "evm_rms", ".6e", _NON_NEGATIVE), ("sinr_db", "sinr_db", ".4f", _FINITE),
    ("capacity_bps", "capacity_bps", ".3f", _NON_NEGATIVE),
    ("sync_ok", "sync_ok", ".0f", ("0 or 1", lambda c: (c == 0.0) | (c == 1.0))),  # 1.0/0.0 print as 1/0
]
SWEEP_CSV_COLUMNS = [header for header, *_ in _SWEEP_CSV]

# A sweep table holds 80 bytes per point (ten float64 columns); 1M points is 5.5x the 0.1 m grid.
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
        require_finite(self)
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


# beyond these a 1e-300 Hz carrier gives a -inf SINR, and a 1e308 Hz bandwidth an inf TDD capacity
_SCENARIO_RANGES = {"bandwidth_hz": (1e3, 10e9), "carrier_freq_hz": (1e6, 300e9), "pointing_sigma_deg": (0.0, 180.0)}


@dataclass(frozen=True)
class ScenarioConfig:
    """One measurement scene: antenna type, interferer height, power settings.

    The dB levels lie within ±MAX_LEVEL_DB, and _SCENARIO_RANGES holds the rest, ends included: a
    bandwidth of 1 kHz–10 GHz, a carrier of 1 MHz–300 GHz and a pointing sigma of 0–180°.
    """

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
        require_finite(self, ("p_g_dbm", "p_u_dbm", "floor_dbm", "noise_figure_db", "tdd_snr_db", "sinr_ceiling_db"))
        for field_name, (lo, hi) in _SCENARIO_RANGES.items():
            if not lo <= (v := getattr(self, field_name)) <= hi:
                raise ValueError(f"{field_name} must be within [{lo:g}, {hi:g}], got {v}")
        if self.mode not in ("FD", "TDD"):
            raise ValueError(f"mode must be FD or TDD, got {self.mode!r}")
        if self.engine not in ("analytic", "waveform"):
            raise ValueError(f"engine must be analytic or waveform, got {self.engine!r}")

    def capacity_config(self) -> CapacityConfig:
        return CapacityConfig(bandwidth_hz=self.bandwidth_hz)


@dataclass(frozen=True)
class SweepRecord:
    """Result at one grid point: one row of a SweepTable.

    interference_dbm is the reported (floor-clamped) received interference;
    interference_raw_dbm keeps the unclamped model value for statistics that
    need to know whether a point was actually at the sensitivity floor.  It
    is None for a sweep read back from CSV, which stores the reported level only.
    """

    index: int
    position: Position
    interference_dbm: float
    interference_raw_dbm: float | None
    desired_dbm: float
    evm_rms: float | None = None
    sinr_db: float | None = None
    capacity_bps: float | None = None
    sync_ok: bool | None = None

    @property
    def at_floor(self) -> bool:
        """True when the reported interference was clamped up to the floor."""
        if self.interference_raw_dbm is None:
            raise ValueError("raw interference unknown: a sweep CSV stores the reported level only")
        return self.interference_raw_dbm < self.interference_dbm


@dataclass(eq=False)
class SweepTable:
    """Sweep results as float64 columns of one length; row i is grid point i.

    NaN marks a value the sweep did not produce (see the module docstring);
    sync_ok holds 1.0 or 0.0.  table[i] and iteration give SweepRecord rows
    with None for NaN, table[i] = record writes a row, a slice or take()
    gives a new table of the selected rows.
    """

    x: np.ndarray
    y: np.ndarray
    h: np.ndarray
    interference_dbm: np.ndarray
    interference_raw_dbm: np.ndarray
    desired_dbm: np.ndarray
    evm_rms: np.ndarray
    sinr_db: np.ndarray
    capacity_bps: np.ndarray
    sync_ok: np.ndarray

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def take(self, rows) -> "SweepTable":
        """A new table of the rows an index array or a boolean mask selects."""
        return SweepTable(*(c[rows] for c in self.columns()))

    def power_map(self) -> "SweepTable":
        """The power-sweep columns of this table; the capacity-stage columns read as unknown."""
        return replace(self, **{name: _unknown(len(self)) for name in _CAPACITY_COLUMNS})

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self):
        return (_record(i, row) for i, row in enumerate(zip(*(c.tolist() for c in self.columns()))))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]
        return _record(i, [c[i].item() for c in self.columns()])

    def __setitem__(self, i, rec: SweepRecord) -> None:
        # the columns after x, y, h share their names with the record's fields
        values = (*rec.position.as_tuple(), *(getattr(rec, f.name) for f in fields(self)[3:]))
        for col, v in zip(self.columns(), values):
            col[i] = math.nan if v is None else v


_CAPACITY_COLUMNS = ("evm_rms", "sinr_db", "capacity_bps", "sync_ok")


def _unknown(n: int) -> np.ndarray:
    return np.full(n, math.nan)


def _record(index: int, row) -> SweepRecord:
    x, y, h, *values = row
    *values, sync = (None if v != v else v for v in values)  # NaN -> None
    return SweepRecord(index, Position(x, y, h), *values, None if sync is None else sync == 1.0)


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


def grid_positions(spec: GridSpec, height_m: float) -> np.ndarray:
    """(N, 3) grid positions at one height, row-major (x outer, y inner)."""
    xs, ys = np.array(spec.x_values()), np.array(spec.y_values())
    return np.column_stack((np.repeat(xs, len(ys)), np.tile(ys, len(xs)), np.full(len(xs) * len(ys), height_m)))


_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
# key streams, one per quantity drawn: over positions, the pointing error's Box-Muller uniforms and azimuth and
# each point's delay; over no words (a sweep) or a frame index (`uavfd modem`), two payloads and impair's seed
_POINTING_STREAMS = (0, 1, 2)
_DELAY_STREAM = 3
_RIG_STREAMS = (4, 5, 6)


def key_fold(seed: int, stream: int, words) -> np.ndarray:
    """One uint64 key per row of an (N, W) block of integer words: the one rule for every run seed.

    The seed's 64-bit limbs, stream, then the row's words are folded in one
    at a time: xor into the key, add the golden gamma, mix with `splitmix64`.
    """
    limbs = [seed >> s & _U64 for s in range(0, max(seed.bit_length(), 1), 64)]
    key = np.zeros(len(words), dtype=np.uint64)
    for word in (*limbs, stream, *np.asarray(words, dtype=np.uint64).T):
        key = splitmix64((key ^ word) + _GOLDEN_GAMMA)
    return key


def point_keys(seed: int, stream: int, pos: np.ndarray) -> np.ndarray:
    """One uint64 key per (N, 3) position row, from (seed, stream, position in whole mm).

    The key fold's words are x, y and h zigzagged, so a key depends on its
    own point only, never on the grid around it.  Positions beyond 2**62 mm
    share the key of that bound.
    """
    mm = np.clip(np.rint(np.asarray(pos, dtype=float) * 1000.0), -(2.0**62), 2.0**62).astype(np.int64)
    # zigzag (0, -1, 1 -> 0, 1, 2) keeps mirrored points apart
    return key_fold(seed, stream, ((mm << 1) ^ (mm >> 63)).view(np.uint64))


def pointing_errors(seed: int, pos: np.ndarray, sigma_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Each (N, 3) position row's pointing error: a deviation in degrees and an azimuth in radians.

    The deviation is N(0, sigma_deg), a Box-Muller transform of the
    uniforms of two key streams; the azimuth is uniform on [0, 2*pi), from
    a third.
    """
    # a float on [0, 1) from each key's top 53 bits
    u1, u2, u3 = ((point_keys(seed, s, pos) >> 11) * 2.0**-53 for s in _POINTING_STREAMS)
    theta = sigma_deg * np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
    return theta, 2.0 * math.pi * u3


def run_power_sweep(scenario: ScenarioConfig, grid: GridSpec, seed: int = 0) -> SweepTable:
    """Measure desired and interference channel powers over the grid.

    The ground station and victim stay fixed and mutually aligned; the
    desired power is therefore measured once.  The interferer is re-aimed
    at the ground station from every grid point, and its received power is
    clamped below at the instrument floor.  All interference gains come
    from one `link_gain_db` call over the grid's (N, 3) position array.
    A negative seed, a grid point on the ground station (no aim) or one
    whose desired or interference link gain is not finite: ValueError.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    f = scenario.carrier_freq_hz
    rx2 = NodeConfig(RX2_POSITION, scenario.antenna, GS_POSITION)
    tx2 = NodeConfig(GS_POSITION, scenario.antenna, RX2_POSITION)
    desired_gain = link_gain_db(tx2, rx2, f)
    desired = max(scenario.p_g_dbm + desired_gain, scenario.floor_dbm)

    pos = grid_positions(grid, scenario.interferer_height_m)
    gs = np.array(GS_POSITION.as_tuple())
    on_gs = (pos == gs).all(axis=1)
    if on_gs.any():
        x, y, h = pos[on_gs.argmax()]
        raise ValueError(f"grid point ({x:g}, {y:g}, {h:g}) m is the ground station the interferer aims at")
    aims = np.broadcast_to(gs, pos.shape)
    if scenario.pointing_sigma_deg > 0.0:
        # each point's aim is off by a deviation, then an azimuth, drawn from its position's keys
        theta, phi = pointing_errors(seed, pos, scenario.pointing_sigma_deg)
        aims = pos + perturb_pointing((gs - pos) / distance(pos, gs)[:, None], theta, phi)
    d = distance(pos, RX2_POSITION)
    apart = d > 0.0
    # an interferer standing on the receiver couples boresight to boresight
    gain = np.full(len(pos), 2.0 * scenario.antenna.boresight_gain_dbi - fspl_db(NEAR_FIELD_DISTANCE_M, f))
    # far-field Friis: the angles stay physical, the path loss is taken at max(d, NEAR_FIELD_DISTANCE_M)
    friis_d = np.maximum(d[apart], NEAR_FIELD_DISTANCE_M)
    tx1 = NodeConfig(pos[apart], scenario.antenna, aims[apart])
    gain[apart] = link_gain_db(tx1, rx2, f) + (fspl_db(d[apart], f) - fspl_db(friis_d, f))
    finite = np.isfinite(gain) & math.isfinite(desired_gain)
    if not finite.all():  # the capacity stage would read a NaN level as below the floor: as no interference
        raise ValueError("grid point ({:g}, {:g}, {:g}) m has a non-finite link gain".format(*pos[finite.argmin()]))
    raw = scenario.p_u_dbm + gain
    n = len(pos)
    powers = (np.maximum(raw, scenario.floor_dbm), raw, np.full(n, desired))
    return SweepTable(*pos.T.copy(), *powers, *(_unknown(n) for _ in _CAPACITY_COLUMNS))


def rig_frame(
    params: OfdmParams, n_symbols: int, seed: int, *words: int, interferer: bool = True
) -> tuple[FrameBuffer, np.ndarray | None, int]:
    """The rig's desired frame, the interferer's stream if asked, and impair's seed.

    Each comes from its own `key_fold` rig stream over (seed, *words).  The
    interferer is a free-running co-channel modem: data, never a preamble.
    """
    desired_seed, interferer_seed, impair_seed = (int(key_fold(seed, s, [words])[0]) for s in _RIG_STREAMS)
    payload_bits = params.payload_bits(n_symbols)
    frame = build_frame(params, np.random.default_rng(desired_seed).integers(0, 2, payload_bits))
    if not interferer:
        return frame, None, impair_seed
    bits = np.random.default_rng(interferer_seed).integers(0, 2, payload_bits)
    return frame, build_frame(params, bits, pilot_stream=1).body_stream(), impair_seed


def run_capacity_sweep(scenario: ScenarioConfig, grid: GridSpec, seed: int = 0) -> SweepTable:
    """Per-point achievable capacity from the reproduced power levels.

    TDD mode yields a position-independent map at the calibrated baseline
    SNR.  FD mode uses the configured engine: `analytic` computes
    S/(I+N) from the power map; `waveform` forms the received desired
    signal (one frame at the desired level plus one receiver-noise draw)
    once per sweep with `impair`, and each interfered point adds its
    delayed interferer to it as `impair` would.  The receiver runs once for
    all interference-free points and once per other point whose head
    passes the sync gate; a head whose `gate_bound` proves it fails is never
    formed.  SINR comes from measured EVM,
    and a point with failed time synchronization contributes zero capacity.
    The power map's columns are filled in, so the result carries both stages.
    """
    table = run_power_sweep(scenario, grid, seed)
    cap_cfg = scenario.capacity_config()

    if scenario.mode == "TDD":
        table.sinr_db[:] = scenario.tdd_snr_db
        table.capacity_bps[:] = capacity_tdd(cap_cfg, scenario.tdd_snr_db)
        table.sync_ok[:] = 1.0
        return table

    noise_dbm = noise_floor_dbm(scenario.bandwidth_hz, scenario.noise_figure_db)
    # attenuators reproduce the measured (clamped) map: interference that sat
    # below the sensitivity floor has nothing to reproduce, so none is injected
    i_dbm = np.where(table.interference_raw_dbm >= scenario.floor_dbm, table.interference_dbm, -math.inf)

    if scenario.engine == "analytic":
        sinr = sinr_analytic(table.desired_dbm, i_dbm, noise_dbm)
        table.sync_ok[:] = 1.0
    else:
        params = OfdmParams()
        frame, interferer, noise_seed = rig_frame(params, FRAME_SYMBOLS, seed)
        # common random numbers: the desired level is one per sweep and the
        # receiver noise is drawn once for every point, so the received desired
        # signal is formed once; the noise is white, its PSD fixed by the
        # configured floor over the full sampled band
        noise_wave_dbm = noise_dbm + 10.0 * math.log10(params.sampling_rate_hz / scenario.bandwidth_hz)
        desired = impair(frame, None, -table.desired_dbm[0].item(), math.inf, noise_wave_dbm, noise_seed)
        # an interfered point's buffer is desired + shifted[d] * gain, as impair adds it with no noise drawn
        shifted = delayed_interferer(interferer, desired.size)
        interfered = np.flatnonzero(i_dbm > -math.inf)
        pos = np.column_stack((table.x, table.y, table.h))[interfered]
        delays = interferer_delay(point_keys(seed, _DELAY_STREAM, pos), interferer.size).astype(np.intp)
        # impair's Python-float gain; numpy's vector power can move the last bit
        gains = np.array([10.0 ** (level / 20.0) for level in i_dbm[interfered].tolist()])
        # a head whose bound reaches the margin meets the gate, GATE_CHUNK_ROWS per call; a pruned one keeps its bound
        head = gate_length(desired.size, params, FRAME_SYMBOLS)
        metrics = gate_bound(desired[:head], interferer, gains, params)
        gated = np.flatnonzero(metrics >= GATE_BOUND_MARGIN * SYNC_THRESHOLD)
        for c in range(0, len(gated), GATE_CHUNK_ROWS):
            rows = gated[c : c + GATE_CHUNK_ROWS]
            heads = shifted[delays[rows], :head]  # fancy indexing copies, so the heads are formed in place
            heads *= gains[rows, None]
            heads += desired[:head]
            metrics[rows] = gate_metric(heads, params)
        table.sync_ok[interfered] = 0.0
        # every interference-free point sees the same rig input, so one pass serves them all;
        # only an interfered point whose head passes the gate has its full buffer formed and received
        clean = np.flatnonzero(i_dbm == -math.inf)
        passes = [(clean, None)] if clean.size else []
        passes += [([i], j) for j, i in enumerate(interfered.tolist()) if metrics[j] >= SYNC_THRESHOLD]
        buf = np.empty_like(desired)  # every passing point's buffer, reused so that a pass stays in cache
        for rows, j in passes:
            if j is not None:  # the bits of shifted[d] * gain + desired
                np.add(np.multiply(shifted[delays[j]], gains[j], out=buf), desired, out=buf)
            rx = receive_frame(desired if j is None else buf, params, frame.data_symbols, decode=False)
            table.sync_ok[rows] = rx.sync_success
            if rx.sync_success:
                table.evm_rms[rows] = rx.evm_rms
        sinr = sinr_from_evm(table.evm_rms)  # NaN where sync failed
    table.sinr_db[:] = apply_sinr_ceiling(sinr, scenario.sinr_ceiling_db)
    # a point without sync carries nothing
    table.capacity_bps[:] = np.where(table.sync_ok == 1.0, capacity_fd(cap_cfg, table.sinr_db), 0.0)
    return table


def mirror_symmetry(table: SweepTable) -> SweepTable:
    """Extend a y >= 0 sweep with its mirror image on negative y.

    Every y > 0 row is duplicated with the sign of y flipped (antenna
    patterns are symmetric); y = 0 rows are not duplicated.  Mirrored rows
    are appended after the originals, so their indices follow on.
    """
    n = len(table)
    out = table.take(np.concatenate((np.arange(n), np.flatnonzero(table.y > 0.0))))
    out.y[n:] = -out.y[n:]
    return out


_CSV_BLOCK_ROWS = 1 << 16  # rows formatted and written at a time, so a large file's text never sits whole in memory


def _format_column(values: np.ndarray, spec: str) -> list[str]:
    """Each value formatted with spec, NaN as an empty field.

    Each distinct value is formatted once; distinct means distinct bits, so
    -0.0 keeps its sign.
    """
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = ["" if v != v else format(v, spec) for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inverse].tolist()


def _csv_rows(columns, start: int) -> list[str]:
    """The block of _CSV_BLOCK_ROWS rows from start of (values, format spec) columns as CSV lines."""
    rows = slice(start, start + _CSV_BLOCK_ROWS)
    return list(map(",".join, zip(*(_format_column(values[rows], spec) for values, spec in columns))))


def write_csv_columns(path, header: list[str], columns) -> None:
    """Write a CSV from (values, format spec) columns under a header; NaN writes as an empty field."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0][0]), _CSV_BLOCK_ROWS):
            fh.write("\n".join(_csv_rows(columns, start)) + "\n")


def write_sweep_csv(path, table: SweepTable) -> None:
    """Write a sweep table in the canonical sweep CSV schema (stable byte output)."""
    write_csv_columns(path, SWEEP_CSV_COLUMNS, [(getattr(table, column), spec) for _, column, spec, _ in _SWEEP_CSV])


def write_sweep_csvs(paths, table: SweepTable) -> list[int]:
    """Write to four paths, in one pass, what write_sweep_csv writes for table.power_map(), table,
    mirror_symmetry(table.power_map()) and mirror_symmetry(table); give their row counts.  Each block of
    rows is formatted once, and the mirrored files append the flipped rows to the plain files' bytes."""
    flipped = mirror_symmetry(table)[len(table) :]
    # a power row is a row's leading fields, then the capacity stage's fields (the schema's last) left empty
    lead_fields, power_end = len(_SWEEP_CSV) - len(_CAPACITY_COLUMNS), "," * len(_CAPACITY_COLUMNS) + "\n"
    with ExitStack() as stack:
        files = [stack.enter_context(Path(p).open("w", newline="")) for p in paths]
        for fh in files:
            fh.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
        for part, targets in ((table, files), (flipped, files[2:])):
            columns = [(getattr(part, column), spec) for _, column, spec, _ in _SWEEP_CSV]
            for start in range(0, len(part), _CSV_BLOCK_ROWS):
                lead = _csv_rows(columns[:lead_fields], start)
                full = map(",".join, zip(lead, _csv_rows(columns[lead_fields:], start)))
                blocks = (power_end.join(lead) + power_end, "\n".join(full) + "\n")
                for fh, block in zip(targets, blocks * 2):  # power, capacity, then their mirrored files
                    fh.write(block)
    return [len(table)] * 2 + [len(table) + len(flipped)] * 2


def _parse_column(path: Path, header: str, fields: list[str]) -> np.ndarray:
    """A CSV column as floats, an empty field as NaN; a column of one repeated field is parsed once."""
    if len(fields) > 1 and fields.count(fields[0]) == len(fields):
        return np.full(len(fields), _parse_column(path, header, fields[:1])[0])
    try:
        return np.array(fields if all(fields) else [v or "nan" for v in fields], dtype=float)
    except ValueError:  # name the first field that is not a number
        for i, v in enumerate(fields):
            try:
                float(v or "nan")
            except ValueError:
                raise ValueError(f"{path}: row {i + 2} has {header} {v!r}, which is not a number") from None
        raise


def read_sweep_csv(path) -> SweepTable:
    """Read a sweep CSV back into a table.

    The CSV stores reported (clamped) interference only, so the raw
    interference column reads as unknown (NaN).  An empty field reads as
    NaN, which only EVM, SINR, capacity and sync may hold: any other NaN
    raises ValueError naming the file, row and column, as does an infinite
    field, a negative EVM or capacity, or a sync_ok other than 0 or 1.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",") if lines else None
    if header != SWEEP_CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header!r}")
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: no records")
    width = len(_SWEEP_CSV)
    for i, row in enumerate(rows):
        if row.count(",") != width - 1:
            raise ValueError(f"{path}: row {i + 2} has {len(row.split(','))} fields")
    cells = ",".join(rows).split(",")
    cols = [_parse_column(path, header, cells[j::width]) for j, header in enumerate(SWEEP_CSV_COLUMNS)]
    by_name = {"interference_raw_dbm": _unknown(len(rows))}
    for (header, column, _, (rule, ok)), c in zip(_SWEEP_CSV, cols):
        unknown = np.isnan(c)
        if column not in _CAPACITY_COLUMNS and unknown.any():
            raise ValueError(f"{path}: row {unknown.argmax() + 2} has a NaN {header}, a field that must be given")
        bad = ~(ok(c) | unknown)
        if bad.any():
            raise ValueError(f"{path}: row {bad.argmax() + 2} has {header} {c[bad.argmax()]:g}, which must be {rule}")
        by_name[column] = c
    return SweepTable(**by_name)
