import hashlib
import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavfd import campaign
from uavfd.campaign import (
    GS_POSITION,
    MAX_GRID_POINTS,
    RX2_POSITION,
    SWEEP_CSV_COLUMNS,
    GridSpec,
    ScenarioConfig,
    SweepRecord,
    SweepTable,
    grid_positions,
    key_fold,
    mirror_symmetry,
    point_keys,
    pointing_errors,
    read_sweep_csv,
    rig_frame,
    run_capacity_sweep,
    run_power_sweep,
    write_sweep_csv,
    write_sweep_csvs,
)
from uavfd.antenna import perturb_pointing
from uavfd.geometry import MAX_LEVEL_DB, Position
from uavfd.metrics import capacity_fd, coverage_fraction, sinr_analytic
from uavfd.phy import (
    SYNC_THRESHOLD,
    OfdmParams,
    build_frame,
    gate_bound,
    gate_length,
    gate_metric,
    impair,
    receive_frame,
    receiver,
    synchronize,
)
from uavfd.phy.modem import _retain_freed_heap, delayed_interferer, splitmix64
from uavfd.propagation import noise_floor_dbm


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", Path(__file__).parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's per-point rules on a waveform sweep against the analytic SINR: one definition for both
check_sweep_points = _bench_module("workloads").check_sweep_points


def test_fixed_geometry():
    assert GS_POSITION.as_tuple() == (0.0, 0.0, 0.1)
    assert RX2_POSITION.as_tuple() == (60.0, 0.0, 0.1)


def test_grid_point_count(grid):
    pts = grid_positions(grid, 0.1)
    assert pts.shape == (31 * 16, 3) == (496, 3)
    assert pts[0].tolist() == [10.0, 0.0, 0.1]
    assert pts[1].tolist() == [10.0, 2.0, 0.1]  # row-major, y fastest
    assert pts[-1].tolist() == [70.0, 30.0, 0.1]


def test_single_point_grid():
    g = GridSpec(x_start_m=10, x_end_m=10, y_start_m=4, y_end_m=4)
    assert grid_positions(g, 1.8).tolist() == [[10.0, 4.0, 1.8]]


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(x_step_m=0.0)
    with pytest.raises(ValueError):
        GridSpec(x_start_m=10, x_end_m=5)


@pytest.mark.parametrize(
    "field,value",
    [
        ("x_step_m", math.nan),
        ("y_step_m", math.inf),
        ("x_start_m", math.nan),
        ("y_start_m", -math.inf),
        ("x_end_m", math.inf),
        ("y_end_m", math.nan),
    ],
)
def test_grid_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=field):
        GridSpec(**{field: value})


@pytest.mark.parametrize(
    "kw",
    [
        {"x_step_m": 1e-6},
        {"y_step_m": 1e-6},
        {"x_step_m": 5e-324},
        {"x_start_m": -1e308, "x_end_m": 1e308},
        {"x_step_m": 0.04, "y_step_m": 0.04},  # 1,501 x 751 points
    ],
)
def test_grid_rejects_too_many_points(kw):
    with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
        GridSpec(**kw)


def test_grid_point_cap_admits_the_fine_grids():
    fine = GridSpec(x_step_m=0.1, y_step_m=0.1)
    assert len(fine.x_values()) * len(fine.y_values()) == 601 * 301
    edge = GridSpec(x_start_m=0, x_end_m=999, x_step_m=1, y_start_m=0, y_end_m=999, y_step_m=1)
    assert len(edge.x_values()) * len(edge.y_values()) == MAX_GRID_POINTS
    with pytest.raises(ValueError):
        GridSpec(x_start_m=0, x_end_m=1000, x_step_m=1, y_start_m=0, y_end_m=999, y_step_m=1)


def test_scenario_validation(scenarios):
    with pytest.raises(ValueError):
        replace(scenarios["directional-0.1"], mode="FDD")
    with pytest.raises(ValueError):
        replace(scenarios["directional-0.1"], engine="magic")
    with pytest.raises(ValueError):
        replace(scenarios["directional-0.1"], p_g_dbm=math.nan)


@pytest.mark.parametrize(
    "field,value",
    [
        ("bandwidth_hz", 0.0),
        ("bandwidth_hz", -10e6),
        ("carrier_freq_hz", 0.0),
        ("carrier_freq_hz", -5.7e9),
        ("noise_figure_db", math.nan),
        ("noise_figure_db", math.inf),
        ("interferer_height_m", math.nan),
        ("interferer_height_m", -math.inf),
        ("tdd_snr_db", math.inf),
        ("sinr_ceiling_db", math.nan),
        ("sinr_ceiling_db", math.inf),
        ("pointing_sigma_deg", -0.5),
        ("pointing_sigma_deg", math.nan),
        ("bandwidth_hz", 999.0),
        ("bandwidth_hz", 10.001e9),
        ("carrier_freq_hz", 1e-300),
        ("carrier_freq_hz", 0.999e6),
        ("carrier_freq_hz", 300.001e9),
        ("pointing_sigma_deg", 180.001),
    ],
)
def test_scenario_rejects_bad_numbers(scenarios, field, value):
    with pytest.raises(ValueError, match=field):
        replace(scenarios["directional-0.1"], **{field: value})


@pytest.mark.parametrize(
    "field,lo,hi", [("bandwidth_hz", 1e3, 10e9), ("carrier_freq_hz", 1e6, 300e9), ("pointing_sigma_deg", 0.0, 180.0)]
)
def test_scenario_ranges_include_their_ends(scenarios, field, lo, hi):
    for value in (lo, hi):
        assert getattr(replace(scenarios["directional-0.1"], **{field: value}), field) == value


@pytest.mark.parametrize(
    "field", ["p_g_dbm", "p_u_dbm", "floor_dbm", "noise_figure_db", "tdd_snr_db", "sinr_ceiling_db"]
)
def test_scenario_bounds_its_levels(scenarios, field):
    for preset in scenarios.values():
        assert abs(getattr(preset, field)) <= MAX_LEVEL_DB
    for value in (-1000.001, 1000.001):
        with pytest.raises(ValueError, match=f"{field} must be within ±1000 dB, got {value}"):
            replace(scenarios["directional-0.1"], **{field: value})
    for value in (-MAX_LEVEL_DB, MAX_LEVEL_DB):
        assert getattr(replace(scenarios["directional-0.1"], **{field: value}), field) == value


def test_measure_link_one_frame_through_the_rig():
    # one frame through the rig, as `uavfd modem` sends it: impair, then receive_frame
    params = OfdmParams()

    def measured(frame, interferer, atten_interferer_db):
        mixed = impair(frame, interferer, 0.0, atten_interferer_db, -math.inf, 3)
        return mixed, receive_frame(mixed, params, frame.data_symbols, decode=False)

    frame, interferer, _ = rig_frame(params, 4, 1)
    mixed, rx = measured(frame, interferer, math.inf)
    assert rx.sync_success and rx.evm_rms < 1e-9
    assert mixed.size == params.frame_samples(4)
    again, _ = measured(*rig_frame(params, 4, 1)[:2], math.inf)
    assert np.array_equal(mixed, again)
    # a finite interferer attenuation adds the interferer's stream
    jammed, rx_i = measured(frame, interferer, 10.0)
    assert rx_i.sync_success and 0.2 < rx_i.evm_rms < 0.5
    assert not np.array_equal(mixed, jammed)


def test_builtin_scenarios(scenarios):
    assert set(scenarios) == {"directional-0.1", "directional-1.8", "dipole-0.1", "tdd-baseline"}
    assert scenarios["directional-0.1"].p_g_dbm == -45.0
    assert scenarios["directional-0.1"].p_u_dbm == 0.0
    assert scenarios["dipole-0.1"].p_g_dbm == -8.0
    assert scenarios["dipole-0.1"].p_u_dbm == 27.5
    assert scenarios["tdd-baseline"].mode == "TDD"


def test_power_sweep_basics(power_dir01, scenarios):
    assert len(power_dir01) == 496
    floor = scenarios["directional-0.1"].floor_dbm
    assert all(r.interference_dbm >= floor for r in power_dir01)
    assert any(r.at_floor for r in power_dir01)
    # desired channel: boresight-aligned horns at 60 m
    assert power_dir01[0].desired_dbm == pytest.approx(-86.128, abs=0.01)
    assert len({r.desired_dbm for r in power_dir01}) == 1


def test_desired_power_matched_across_antennas(power_dir01, power_dipole):
    # power settings are chosen so the desired link lands at the same level
    assert power_dipole[0].desired_dbm == pytest.approx(power_dir01[0].desired_dbm, abs=0.01)


def test_on_axis_point_is_hot(power_dir01):
    by_pos = {(r.position.x, r.position.y): r for r in power_dir01}
    hot = by_pos[(30.0, 0.0)]
    values = sorted(r.interference_dbm for r in power_dir01)
    rank = np.searchsorted(values, hot.interference_dbm) / len(values)
    assert rank > 0.85
    assert hot.interference_dbm > -90.0  # far above the quiet-region tail


def test_far_lateral_point_is_floored(power_dir01, scenarios):
    by_pos = {(r.position.x, r.position.y): r for r in power_dir01}
    quiet = by_pos[(10.0, 30.0)]
    assert quiet.interference_dbm == scenarios["directional-0.1"].floor_dbm
    assert quiet.at_floor


def test_colocated_point_saturates(power_dir01):
    by_pos = {(r.position.x, r.position.y): r for r in power_dir01}
    top = max(power_dir01, key=lambda r: r.interference_dbm)
    assert (top.position.x, top.position.y) == (60.0, 0.0)
    assert by_pos[(60.0, 0.0)].interference_dbm > -10.0


def test_height_reduces_interference_near_victim(power_dir01, power_dir18):
    for r01, r18 in zip(power_dir01, power_dir18):
        d = math.hypot(r01.position.x - 60.0, r01.position.y)
        if d < 20.0:
            assert r18.interference_dbm <= r01.interference_dbm + 1e-9


def test_coverage_anchors(power_dir01, power_dir18, power_dipole):
    cov = lambda recs: coverage_fraction([r.interference_raw_dbm for r in recs], -95.0)
    c_dip, c_01, c_18 = cov(power_dipole), cov(power_dir01), cov(power_dir18)
    assert c_dip < c_01 < c_18
    assert 0.61 <= c_01 <= 0.85
    assert 0.61 <= c_18 <= 0.85


def test_pointing_error_changes_map(scenarios, grid):
    base = run_power_sweep(scenarios["directional-0.1"], grid, seed=1)
    wobbly = run_power_sweep(replace(scenarios["directional-0.1"], pointing_sigma_deg=2.0), grid, seed=1)
    diffs = [abs(a.interference_raw_dbm - b.interference_raw_dbm) for a, b in zip(base, wobbly)]
    assert max(diffs) > 0.1
    # determinism of the perturbed sweep
    again = run_power_sweep(replace(scenarios["directional-0.1"], pointing_sigma_deg=2.0), grid, seed=1)
    assert all(a == b for a, b in zip(wobbly, again))


def test_analytic_capacity_far_point_reaches_ceiling(capacity_dir01_analytic, scenarios):
    sc = scenarios["directional-0.1"]
    noise = noise_floor_dbm(sc.bandwidth_hz, sc.noise_figure_db)
    snr = -86.12830534300608 - noise
    ceiling = capacity_fd(sc.capacity_config(), snr)
    best = max(r.capacity_bps for r in capacity_dir01_analytic)
    assert best == pytest.approx(ceiling, rel=1e-3)


def test_analytic_sinr_uses_reported_interference(capacity_dir01_analytic, scenarios):
    sc = scenarios["directional-0.1"]
    noise = noise_floor_dbm(sc.bandwidth_hz, sc.noise_figure_db)
    for r in capacity_dir01_analytic[::37]:
        i_dbm = -math.inf if r.at_floor else r.interference_dbm
        assert r.sinr_db == pytest.approx(
            min(sinr_analytic(r.desired_dbm, i_dbm, noise), sc.sinr_ceiling_db), abs=1e-9
        )


def test_tdd_map_constant(scenarios, grid):
    recs = run_capacity_sweep(scenarios["tdd-baseline"], grid)
    caps = {r.capacity_bps for r in recs}
    assert len(caps) == 1
    assert caps.pop() == pytest.approx(11.6e6, abs=0.05e6)
    assert all(r.sinr_db == scenarios["tdd-baseline"].tdd_snr_db for r in recs)


def test_waveform_engine_small_grid(scenarios):
    g = GridSpec(x_start_m=10, x_end_m=18, x_step_m=4, y_start_m=0, y_end_m=8, y_step_m=4)
    sc = replace(scenarios["directional-0.1"], engine="waveform")
    wav = run_capacity_sweep(sc, g, seed=3)
    ana = run_capacity_sweep(scenarios["directional-0.1"], g, seed=3)
    assert len(wav) == 9
    for a, w in zip(ana, wav):
        assert w.sync_ok is not None
        if w.sync_ok and a.sinr_db is not None and 0.0 <= a.sinr_db <= 25.0:
            assert w.sinr_db == pytest.approx(a.sinr_db, abs=1.0)
        if not w.sync_ok:
            assert w.capacity_bps == 0.0


def test_waveform_engine_deterministic(scenarios):
    g = GridSpec(x_start_m=30, x_end_m=34, x_step_m=4, y_start_m=0, y_end_m=4, y_step_m=4)
    sc = replace(scenarios["directional-0.1"], engine="waveform")
    a = run_capacity_sweep(sc, g, seed=9)
    b = run_capacity_sweep(sc, g, seed=9)
    assert list(a) == list(b)


@pytest.mark.parametrize(
    "sweep,sigma,engine",
    [(run_power_sweep, 0.0, "analytic"), (run_power_sweep, 2.0, "analytic"),
     (run_capacity_sweep, 0.0, "analytic"), (run_capacity_sweep, 2.0, "waveform")],
)
def test_negative_seed_is_rejected_up_front(scenarios, sweep, sigma, engine):
    sc = replace(scenarios["directional-0.1"], pointing_sigma_deg=sigma, engine=engine)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sweep(sc, GridSpec(x_start_m=10, x_end_m=12, y_end_m=2), seed=-1)


# The position-keyed seed rule: a point's draws depend on (seed, position), not on the grid it sits in.
SUB_GRID_SEED = 5


def _wobbly(scenarios):
    return replace(scenarios["directional-0.1"], pointing_sigma_deg=2.0)


@pytest.fixture(scope="module")
def full_sweeps(scenarios, grid):
    waveform = replace(scenarios["directional-0.1"], engine="waveform")
    return {
        "waveform": (run_capacity_sweep, waveform, run_capacity_sweep(waveform, grid, SUB_GRID_SEED)),
        "pointing": (run_power_sweep, _wobbly(scenarios), run_power_sweep(_wobbly(scenarios), grid, SUB_GRID_SEED)),
    }


@st.composite
def sub_grids(draw):
    """A block of the default grid, offset from its corner and strided by whole steps, and its full-grid rows."""
    full = GridSpec()
    nx, ny = len(full.x_values()), len(full.y_values())
    mx, my = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    i0, j0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
    i1 = draw(st.integers(i0, min(nx - 1, i0 + 2 * mx)).filter(lambda i: (i - i0) % mx == 0))
    j1 = draw(st.integers(j0, min(ny - 1, j0 + 2 * my)).filter(lambda j: (j - j0) % my == 0))
    x, y = full.x_values(), full.y_values()
    sub = GridSpec(
        x_start_m=x[i0], x_end_m=x[i1], x_step_m=mx * full.x_step_m,
        y_start_m=y[j0], y_end_m=y[j1], y_step_m=my * full.y_step_m,
    )
    rows = [i * ny + j for i in range(i0, i1 + 1, mx) for j in range(j0, j1 + 1, my)]
    return sub, rows


def _bits(table: SweepTable) -> np.ndarray:
    return np.array(table.columns()).view(np.int64)


@settings(max_examples=25, deadline=None)
@given(case=sub_grids(), kind=st.sampled_from(["waveform", "pointing"]))
def test_sub_grid_rows_are_the_full_sweep_rows(full_sweeps, case, kind):
    grid, rows = case
    sweep, scenario, full = full_sweeps[kind]
    assert np.array_equal(_bits(sweep(scenario, grid, SUB_GRID_SEED)), _bits(full.take(rows)))


def test_a_sub_grid_without_a_clean_point_forms_the_whole_signal_past_the_gate(monkeypatch, full_sweeps):
    # every point is interfered, so the gate is given the received head alone; the heads that pass need the
    # whole signal, formed after the gate, and every row is still that of the full grid
    sweep, scenario, full = full_sweeps["waveform"]
    formed = []

    def counted(*args, **kwargs):
        formed.append(impair(*args, **kwargs))
        return formed[-1]

    monkeypatch.setattr(campaign, "impair", counted)
    sub = sweep(scenario, GridSpec(x_end_m=22, y_end_m=6), SUB_GRID_SEED)  # the default grid's first 7 x 4 points
    assert [out.size for out in formed] == [1088, 33280]
    assert np.array_equal(formed[0].view(np.int64), formed[1][:1088].view(np.int64))
    assert (sub.interference_raw_dbm >= scenario.floor_dbm).all() and 0 < np.count_nonzero(sub.sync_ok) < len(sub)
    assert np.array_equal(_bits(sub), _bits(full.take([i * 16 + j for i in range(7) for j in range(4)])))


@settings(max_examples=10, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64), min_size=2, max_size=2, unique=True))
def test_two_seeds_differ_at_some_point(scenarios, seeds):
    grid = GridSpec(x_start_m=62, x_end_m=70, y_end_m=6)  # beyond the victim: it sits in the interferer's beam
    a, b = (run_power_sweep(_wobbly(scenarios), grid, s).interference_raw_dbm for s in seeds)
    assert not np.array_equal(a, b)
    # every point of this grid syncs, well above the noise
    waveform = replace(scenarios["directional-0.1"], engine="waveform")
    small = GridSpec(x_start_m=40, x_end_m=42, y_start_m=10, y_end_m=12)
    a, b = (run_capacity_sweep(waveform, small, s).evm_rms for s in seeds)
    assert np.isfinite(a).all() and np.isfinite(b).all()
    assert not np.array_equal(a, b)


def test_mirrored_points_are_keyed_apart(scenarios):
    grid = GridSpec(x_start_m=-4, x_end_m=20, y_start_m=-6, y_end_m=6)
    pos = grid_positions(grid, 0.1)
    assert len(set(point_keys(0, 0, pos).tolist())) == len(pos)
    # at 0 deg the map is mirror symmetric in y; the 2 deg draws at (x, y) and (x, -y) are not
    grid = GridSpec(x_start_m=62, x_end_m=70, y_start_m=-6, y_end_m=6)
    raw = run_power_sweep(_wobbly(scenarios), grid).interference_raw_dbm.reshape(len(grid.x_values()), -1)
    assert np.abs(raw - raw[:, ::-1]).max() > 0.1


@pytest.mark.parametrize(
    "grid,n",
    [(GridSpec(x_start_m=70, y_start_m=30), 1), (GridSpec(x_start_m=58, x_end_m=62, y_end_m=6), 12),
     (GridSpec(x_start_m=10, x_end_m=24, y_end_m=14), 64)],
)
def test_waveform_sweep_builds_two_frames(monkeypatch, scenarios, grid, n):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_frame(*args, **kwargs)

    monkeypatch.setattr(campaign, "build_frame", counted)
    table = run_capacity_sweep(replace(scenarios["dipole-0.1"], engine="waveform"), grid)
    assert len(table) == n and len(calls) == 2


def test_dipole_points_fail_sync_without_the_full_buffer_search(monkeypatch, scenarios, grid):
    # the rig's buffer is one frame long: every dipole point's timing metric stays under the
    # threshold on the starts where the frame fits, so the batched head gate stops every point
    # before the receiver runs
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return synchronize(*args, **kwargs)

    monkeypatch.setattr(receiver, "synchronize", counted)
    table = run_capacity_sweep(replace(scenarios["dipole-0.1"], engine="waveform"), grid)
    assert len(table) == 496 and not table.sync_ok.any()
    assert len(calls) == 0


def _splitmix64_oracle(z: int) -> int:
    """SplitMix64's finaliser in Python ints, masked to 64 bits."""
    m = (1 << 64) - 1
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & m
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & m
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64, 3 * 2**130 + 1])
def test_point_keys_match_a_python_int_oracle(seed):
    pos = np.array([[10.0, -2.0, 0.1], [0.0, 0.0, 0.0], [-0.0015, 2.5e-4, 1.8], [1e9, -1e9, 0.1]])
    limbs = [seed >> s & (2**64 - 1) for s in range(0, max(seed.bit_length(), 1), 64)]
    want = []
    for row in pos.tolist():
        mm = [round(v * 1000.0) for v in row]
        key = 0
        for word in (*limbs, 3, *(2 * v if v >= 0 else -2 * v - 1 for v in mm)):
            key = _splitmix64_oracle(((key ^ word) + 0x9E3779B97F4A7C15) & (2**64 - 1))
        want.append(key)
    assert point_keys(seed, 3, pos).tolist() == want


@pytest.mark.parametrize("n", [1, 7, 100, 1088, 5760, 33280, 2**40])
def test_delays_from_100k_keys_lie_in_range_and_are_uniform(n):
    # seeds 0..99,999 sit far below 2**32, as the modem benchmark's do: a raw multiply-shift would give delay 0
    seeds = range(100_000)
    mixed = [splitmix64(s) for s in seeds]
    assert mixed[:64] == [_splitmix64_oracle(s) for s in range(64)]
    # one finaliser serves the uint64 keys of `point_keys` and impair's int seed
    assert splitmix64(np.arange(64, dtype=np.uint64)).tolist() == mixed[:64]
    delays = np.array([m * n >> 64 for m in mixed], dtype=np.int64)
    assert delays.min() >= 0 and delays.max() < n
    if n <= 1088:  # at least 91 keys expected per delay
        counts = np.bincount(delays, minlength=n)
        expected = len(seeds) / n
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        # the statistic has n - 1 degrees of freedom: mean n - 1, standard deviation sqrt(2 (n - 1));
        # the bound is 5 standard deviations above the mean
        df = n - 1
        assert chi2 <= df + 5.0 * math.sqrt(2.0 * df)


def test_waveform_sweep_builds_one_generator_per_payload_and_one_for_the_noise(monkeypatch, scenarios, grid):
    # the interferer delays come straight from the point keys, so no grid point builds a Generator
    sc = replace(scenarios["dipole-0.1"], engine="waveform")
    run_capacity_sweep(sc, grid)  # fills the frame caches (pilots, preamble), which build their own
    built = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    table = run_capacity_sweep(sc, grid)
    assert len(table) == 496 and not table.sync_ok.any()
    # the desired and the interferer payload, then impair's noise, each from its rig stream over no words
    assert built == [int(key_fold(0, s, [()])[0]) for s in campaign._RIG_STREAMS]


def test_point_keys_of_a_million_point_grid_are_distinct():
    grid = GridSpec(x_start_m=-50, x_end_m=49.9, x_step_m=0.1, y_start_m=-50, y_end_m=49.9, y_step_m=0.1)
    pos = grid_positions(grid, 1.8)
    assert len(pos) == MAX_GRID_POINTS
    assert np.unique(point_keys(0, 0, pos)).size == MAX_GRID_POINTS


def test_pointing_errors_from_the_keys_have_rms_sigma():
    pos = grid_positions(GridSpec(x_start_m=0.5, x_end_m=50, x_step_m=0.5, y_end_m=49.5, y_step_m=0.5), 0.1)
    assert len(pos) == 10_000
    theta, phi = pointing_errors(1, pos, 2.0)
    b = np.tile([1.0, 0.0, 0.0], (len(pos), 1))
    devs = np.degrees(np.arccos(np.clip(perturb_pointing(b, theta, phi) @ [1.0, 0.0, 0.0], -1.0, 1.0)))
    # the deviation is N(0, 2 deg), so the RMS angle off boresight is sigma
    assert math.sqrt(np.mean(devs**2)) == pytest.approx(2.0, abs=0.1)
    assert abs(np.mean(theta)) < 0.1
    assert 0.0 <= phi.min() and phi.max() < 2.0 * math.pi
    assert np.mean(phi) == pytest.approx(math.pi, abs=0.1)


@pytest.fixture(scope="module")
def waveform_default_grid(scenarios, grid):
    """directional-0.1 on the default grid at seeds 0 and 11: (analytic, waveform) tables."""
    sc = scenarios["directional-0.1"]
    return {
        seed: (run_capacity_sweep(sc, grid, seed), run_capacity_sweep(replace(sc, engine="waveform"), grid, seed))
        for seed in (0, 11)
    }


@pytest.mark.parametrize("seed", [0, 11])
def test_interference_free_points_share_one_evm(waveform_default_grid, seed):
    analytic, waveform = waveform_default_grid[seed]
    clean = analytic.interference_raw_dbm < analytic.interference_dbm  # at the floor: nothing to reproduce
    assert 300 < np.count_nonzero(clean) < len(waveform)
    evm = waveform.evm_rms[clean]
    assert np.isfinite(evm).all() and (waveform.sync_ok[clean] == 1.0).all()
    assert np.unique(evm.view(np.int64)).size == 1
    assert not np.isin(waveform.evm_rms[~clean], evm).any()


@pytest.mark.parametrize("seed", [0, 11])
def test_waveform_sweep_matches_analytic_at_every_eligible_point(waveform_default_grid, seed):
    """Criterion 10's 1.0 dB bound over every synced point with an analytic SINR of 0-25 dB, not a sample."""
    analytic, waveform = waveform_default_grid[seed]
    eligible = (waveform.sync_ok == 1.0) & (analytic.sinr_db >= 0.0) & (analytic.sinr_db <= 25.0)
    assert np.count_nonzero(eligible) > 350
    assert np.abs(waveform.sinr_db - analytic.sinr_db)[eligible].max() <= 1.0
    # and a point that fails sync has no analytic SINR to lose
    assert (analytic.sinr_db[waveform.sync_ok == 0.0] < 0.0).all()


# SHA-256 of the float64 bytes of evm_rms, sinr_db and capacity_bps, in that order, of a waveform sweep on
# the default grid: the CSV's rounding hides a change in the last bit, these do not (numpy 2.4, x86-64)
WAVEFORM_FLOAT_SHA256 = {
    ("directional-0.1", 0): "51f68c794410fbde6cadf2479219ee494b391503d91ee34cc80516332814c141",
    ("directional-0.1", 11): "12b171959dfbcd3fb1d0e71f050da22a4f0363673e5fc3011bb7dbc43a7b1ff0",
    ("directional-1.8", 0): "0dd60fb889f657d23b7299cb936f6fd50b2dd0d6ad8495df81357fe3f85a5380",
    ("directional-1.8", 11): "f608dfc4b55e5ca6f25ffa9820448b9a49b96f29d2f6e1cbf3455108df662800",
}


@pytest.mark.parametrize("name,seed", sorted(WAVEFORM_FLOAT_SHA256))
def test_waveform_sweep_float_bytes_are_pinned(waveform_default_grid, scenarios, grid, name, seed):
    if name == "directional-0.1":
        table = waveform_default_grid[seed][1]
    else:
        table = run_capacity_sweep(replace(scenarios[name], engine="waveform"), grid, seed)
    digest = hashlib.sha256()
    for column in (table.evm_rms, table.sinr_db, table.capacity_bps):
        digest.update(column.astype("<f8").tobytes())
    assert digest.hexdigest() == WAVEFORM_FLOAT_SHA256[name, seed]


def test_a_desired_level_far_below_any_preset_syncs_in_both_engines(scenarios):
    # -341 dBm of desired signal over a -504 dBm noise floor: the waveform receiver's energy floor
    # is scale-free, so it locks and meets the analytic engine at the SINR ceiling
    levels = {"p_g_dbm": -300.0, "p_u_dbm": -1000.0, "floor_dbm": -450.0, "noise_figure_db": -400.0}
    sc = replace(scenarios["directional-0.1"], **levels)
    one_point = GridSpec(x_start_m=10, x_end_m=10, y_end_m=0)
    analytic = run_capacity_sweep(sc, one_point)
    waveform = run_capacity_sweep(replace(sc, engine="waveform"), one_point)
    assert analytic.sync_ok.tolist() == waveform.sync_ok.tolist() == [1.0]
    assert waveform.sinr_db.tolist() == analytic.sinr_db.tolist() == [sc.sinr_ceiling_db]
    assert waveform.capacity_bps.tolist() == analytic.capacity_bps.tolist()


_LEVELS = ("p_g_dbm", "p_u_dbm", "floor_dbm", "noise_figure_db")


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["directional-0.1", "directional-1.8", "dipole-0.1"]),
    x=st.integers(5, 33),
    y=st.integers(0, 13),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_shifting_every_level_by_the_same_db_moves_no_waveform_outcome(scenarios, name, x, y, seed, data):
    # desired, interference, noise and floor all move by the same dB: every buffer is scaled by one
    # constant, and the receiver's timing metric and EVM are ratios, so nothing it decides may change
    scenario = replace(scenarios[name], engine="waveform")
    levels = [getattr(scenario, f) for f in _LEVELS]
    shift = data.draw(st.floats(-MAX_LEVEL_DB - min(levels), MAX_LEVEL_DB - max(levels)), label="shift")
    shifted = replace(scenario, **{f: v + shift for f, v in zip(_LEVELS, levels)})
    grid = GridSpec(x_start_m=2 * x, x_end_m=2 * x + 4, y_start_m=2 * y, y_end_m=2 * y + 4)  # 3 x 3 points
    base, moved = (run_capacity_sweep(sc, grid, seed) for sc in (scenario, shifted))
    assert moved.sync_ok.tolist() == base.sync_ok.tolist()
    np.testing.assert_allclose(moved.sinr_db, base.sinr_db, rtol=0.0, atol=1e-9, equal_nan=True)


def test_receiver_noise_is_drawn_once_per_sweep(scenarios):
    """With interference far below the noise at every point, each point's own pass gives one EVM."""
    sc = replace(scenarios["directional-0.1"], engine="waveform", p_u_dbm=-200.0, floor_dbm=-400.0)
    table = run_capacity_sweep(sc, GridSpec(x_start_m=10, x_end_m=30, x_step_m=10, y_end_m=10, y_step_m=10), seed=4)
    assert (table.interference_raw_dbm >= sc.floor_dbm).all() and (table.sync_ok == 1.0).all()
    # a fresh noise draw per point would spread the EVMs by about 1%
    assert np.ptp(table.evm_rms) <= 1e-9 * table.evm_rms.mean()


def _count_gate_rows(monkeypatch):
    """Wrap the sweep's gate; the returned list gets each call's (heads shape, metrics)."""
    calls = []

    def counted(heads, params):
        calls.append((heads.shape, gate_metric(heads, params)))
        return calls[-1][1]

    monkeypatch.setattr(campaign, "gate_metric", counted)
    return calls


def test_one_receiver_pass_serves_every_interference_free_point(monkeypatch, scenarios):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return receive_frame(*args, **kwargs)

    monkeypatch.setattr(campaign, "receive_frame", counted)
    gated = _count_gate_rows(monkeypatch)
    grid = GridSpec(x_start_m=10, x_end_m=30, y_end_m=30)
    table = run_capacity_sweep(replace(scenarios["directional-0.1"], engine="waveform"), grid, seed=2)
    interfered = np.count_nonzero(table.interference_raw_dbm >= scenarios["directional-0.1"].floor_dbm)
    assert 0 < interfered < len(table) - 1
    # each interfered point's head meets the gate once, one batched call per chunk of rows;
    # only those that pass get a receiver pass
    metrics = np.concatenate([m for _, m in gated])
    passed = np.count_nonzero(metrics >= SYNC_THRESHOLD)
    assert metrics.size == interfered and 0 < passed < interfered
    assert len(gated) == -(-interfered // campaign.GATE_CHUNK_ROWS)
    assert len(calls) == passed + 1


_GATED_HEADS = {"dipole-0.1": 0, "directional-0.1": 137}  # interfered heads whose bound reaches the margin, seed 0


_FORMED = {"dipole-0.1": 1088, "directional-0.1": 33280}  # received samples impair forms, seed 0


@pytest.mark.parametrize("name,received,heads", [("dipole-0.1", 0, 496), ("directional-0.1", 80, 140)])
def test_sweep_forms_the_full_rig_buffer_only_past_the_gate(monkeypatch, scenarios, grid, name, received, heads):
    # impair forms only the received desired signal, and in full only where a receiver pass reads it: the
    # interference-free points' pass on directional-0.1, none on dipole-0.1, where the gate's head is all it
    # forms; the receiver sees the interference-free buffer and each interfered point whose head passes the
    # gate; every interfered point's head is bounded in one call, and each whose bound reaches the margin is
    # a row of a batched gate
    impaired, sizes, bounded = [], [], []

    def counted_impair(desired, *args, **kwargs):
        assert np.size(getattr(desired, "samples", desired)) == frame
        impaired.append(impair(desired, *args, **kwargs))
        return impaired[-1]

    def counted_receive(samples, *args, **kwargs):
        sizes.append(np.size(samples))
        return receive_frame(samples, *args, **kwargs)

    monkeypatch.setattr(campaign, "impair", counted_impair)
    monkeypatch.setattr(campaign, "receive_frame", counted_receive)
    monkeypatch.setattr(campaign, "gate_bound", lambda *args: bounded.append(args[2].size) or gate_bound(*args))
    gated = _count_gate_rows(monkeypatch)
    frame = OfdmParams().frame_samples(campaign.FRAME_SYMBOLS)
    run_capacity_sweep(replace(scenarios[name], engine="waveform"), grid, seed=0)
    assert gate_length(frame, OfdmParams(), campaign.FRAME_SYMBOLS) == 1088
    assert [out.size for out in impaired] == [_FORMED[name]]
    assert (sizes.count(frame), len(sizes)) == (received, received)
    chunk, rows = campaign.GATE_CHUNK_ROWS, _GATED_HEADS[name]
    assert bounded == [heads]
    assert [shape for shape, _ in gated] == [(min(chunk, rows - c), 1088) for c in range(0, rows, chunk)]


def _open_bound(head, stream, gains, params):
    """A gate_bound that prunes no head."""
    return np.full(gains.size, math.inf)


@pytest.mark.parametrize("name,seed", [("dipole-0.1", 3), ("directional-0.1", 3), ("directional-1.8", 11)])
def test_head_gate_changes_no_row(monkeypatch, scenarios, grid, name, seed):
    # with the bound and the head gate always passed, every interfered point takes the full receiver pass
    scenario = replace(scenarios[name], engine="waveform")
    gated = run_capacity_sweep(scenario, grid, seed)
    forced = []

    def always_passed(heads, params):
        forced.append(len(heads))
        return np.full(len(heads), math.inf)

    monkeypatch.setattr(campaign, "gate_bound", _open_bound)
    monkeypatch.setattr(campaign, "gate_metric", always_passed)
    full = run_capacity_sweep(scenario, grid, seed)
    assert sum(forced) == np.count_nonzero(gated.interference_raw_dbm >= scenario.floor_dbm) > 0
    for a, b in zip(gated.columns(), full.columns()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", ["dipole-0.1", "directional-0.1", "directional-1.8"])
@pytest.mark.parametrize("seed", [0, 11])
def test_batched_head_metrics_equal_the_per_point_gate(monkeypatch, scenarios, grid, name, seed):
    """Each batched head is bit for bit the received head plus the interferer delayed by explicit index;
    each head the bound prunes, formed that way, has an exact metric under its bound and fails.  The
    received head is bit for bit the head of the whole received signal."""
    formed, calls = {}, {}

    def recorded(attr, fn):
        def call(*args, **kwargs):
            calls.setdefault(attr, []).append(args)
            formed[attr] = fn(*args, **kwargs)
            return formed[attr]

        monkeypatch.setattr(campaign, attr, call)

    recorded("impair", impair)
    recorded("rig_frame", rig_frame)
    gated = []

    def bound(*args):  # the sweep overwrites the bounds it is given with the gated heads' metrics
        formed["gate_bound"] = gate_bound(*args)
        return formed["gate_bound"].copy()

    monkeypatch.setattr(campaign, "gate_bound", bound)

    def gate(heads, params):
        gated.append((heads.copy(), gate_metric(heads, params)))
        return gated[-1][1]

    monkeypatch.setattr(campaign, "gate_metric", gate)
    scenario = replace(scenarios[name], engine="waveform")
    table = run_capacity_sweep(scenario, grid, seed)
    desired, (frame, interferer, _), bounds = formed["impair"], formed["rig_frame"], formed["gate_bound"]
    gated = iter([(h, m) for heads, metrics in gated for h, m in zip(heads, metrics.tolist())])
    params = OfdmParams()
    head, n = gate_length(frame.samples.size, params, campaign.FRAME_SYMBOLS), interferer.size
    (rig,) = calls["impair"]  # the received signal is formed once on these grids, and in full if a pass reads it
    whole = impair(*rig)
    assert head == 1088 and whole.size == frame.samples.size
    assert np.array_equal(desired[:head].view(np.int64), whole[:head].view(np.int64))
    rows = np.flatnonzero(table.interference_raw_dbm >= scenario.floor_dbm)
    keys = point_keys(seed, campaign._DELAY_STREAM, np.column_stack((table.x, table.y, table.h))[rows])
    assert len(rows) == bounds.size > 100
    levels, syncs = table.interference_dbm[rows].tolist(), table.sync_ok[rows].tolist()
    for key, i_dbm, limit, sync in zip(keys.tolist(), levels, bounds.tolist(), syncs):
        d = splitmix64(key) * n >> 64
        want = desired[:head] + interferer[(np.arange(head) - d) % n] * 10.0 ** (i_dbm / 20.0)
        metric = gate_metric(want, params)
        if limit < campaign.GATE_BOUND_MARGIN * SYNC_THRESHOLD:  # pruned: never formed, and it fails
            assert metric <= limit < SYNC_THRESHOLD and sync == 0.0
            continue
        row, m = next(gated)
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
        assert isinstance(metric, float) and m.hex() == metric.hex()
    assert next(gated, None) is None


@pytest.mark.parametrize("name", ["dipole-0.1", "directional-0.1", "directional-1.8"])
@pytest.mark.parametrize("seed", [0, 11])
def test_an_open_gate_bound_changes_no_table_bit(monkeypatch, scenarios, grid, name, seed):
    # with no head pruned, every interfered head meets the exact gate, and no output may move
    scenario = replace(scenarios[name], engine="waveform")
    pruned = run_capacity_sweep(scenario, grid, seed)
    monkeypatch.setattr(campaign, "gate_bound", _open_bound)
    for a, b in zip(pruned.columns(), run_capacity_sweep(scenario, grid, seed).columns()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("seed", [0, 11])
def test_the_gate_bound_prunes_every_dipole_head(monkeypatch, scenarios, grid, seed):
    # every dipole-0.1 point sits 36-71 dB below its interferer: the bound alone fails each one
    gated = _count_gate_rows(monkeypatch)
    table = run_capacity_sweep(replace(scenarios["dipole-0.1"], engine="waveform"), grid, seed)
    assert gated == [] and not table.sync_ok.any()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["dipole-0.1", "directional-0.1", "directional-1.8"]),
    seed=st.integers(0, 2**32),
    near_margin=st.booleans(),
    data=st.data(),
)
def test_a_head_metric_never_exceeds_its_gate_bound(scenarios, name, seed, near_margin, data):
    # a head is the received desired head plus a delayed interferer times its gain, as the sweep forms it;
    # its exact gate metric is at most its bound, and a head the bound would prune fails the gate
    level, params, bandwidth = st.floats(-MAX_LEVEL_DB, MAX_LEVEL_DB), OfdmParams(), scenarios[name].bandwidth_hz
    p_g_dbm, noise_figure_db = data.draw(level, label="p_g_dbm"), data.draw(level, label="noise_figure_db")
    frame, interferer, noise_seed = rig_frame(params, campaign.FRAME_SYMBOLS, seed)
    noise_dbm = noise_floor_dbm(bandwidth, noise_figure_db) + 10.0 * math.log10(params.sampling_rate_hz / bandwidth)
    desired = impair(frame, None, -p_g_dbm, math.inf, noise_dbm, noise_seed)
    head = desired[: gate_length(desired.size, params, campaign.FRAME_SYMBOLS)]
    shifted = delayed_interferer(interferer, head.size)[data.draw(st.integers(0, interferer.size), label="delay")]
    prune_below = campaign.GATE_BOUND_MARGIN * SYNC_THRESHOLD
    if near_margin:  # a gain within a few 0.01 dB steps of where the bound crosses the margin
        gains = math.sqrt(np.mean(np.square(np.abs(head)))) * 10.0 ** (np.arange(-100, 8000) / 2000.0)
        near = np.argmin(np.abs(gate_bound(head, interferer, gains, params) - prune_below))
        gain = gains[np.clip(near + data.draw(st.integers(-3, 3), label="steps"), 0, gains.size - 1)]
    else:
        gain = 10.0 ** (data.draw(level, label="i_dbm") / 20.0)
    bound = gate_bound(head, interferer, np.array([gain]), params)[0]
    metric = gate_metric(shifted * gain + head, params)
    assert metric <= bound
    if bound < prune_below:
        assert metric < SYNC_THRESHOLD


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["directional-0.1", "directional-1.8", "dipole-0.1"]),
    p_u_dbm=st.floats(-MAX_LEVEL_DB, MAX_LEVEL_DB),
    noise_figure_db=st.floats(-MAX_LEVEL_DB, MAX_LEVEL_DB),
    height=st.floats(0.1, 30.0),
    x=st.floats(10.0, 70.0),
    y=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32),
    edge_sinr_db=st.one_of(st.none(), st.floats(-1.5, 1.5)),
    data=st.data(),
)
def test_the_engines_agree_on_a_one_point_grid_over_the_validated_ranges(
    scenarios, name, p_u_dbm, noise_figure_db, height, x, y, seed, edge_sinr_db, data
):
    # the bench's per-point rules: without sync the analytic SINR is under 0 dB and the capacity 0; a synced
    # point's capacity is the Shannon capacity of its SINR, within criterion 10's 1.0 dB of an analytic 0-25 dB.
    # Half of the draws solve p_g_dbm for an analytic SINR in -1.5..+1.5 dB, where sync is decided.
    sc = replace(scenarios[name], p_u_dbm=p_u_dbm, noise_figure_db=noise_figure_db, interferer_height_m=height)
    grid = GridSpec(x_start_m=x, x_end_m=x, y_start_m=y, y_end_m=y)
    if edge_sinr_db is None:
        p_g_dbm = data.draw(st.floats(-MAX_LEVEL_DB, MAX_LEVEL_DB), label="p_g_dbm")
    else:  # the desired level over interference plus noise, less the desired link's gain
        power = run_power_sweep(replace(sc, p_g_dbm=0.0, floor_dbm=-MAX_LEVEL_DB), grid, seed)
        i_dbm = power.interference_raw_dbm[0] if power.interference_raw_dbm[0] >= sc.floor_dbm else -math.inf
        noise_dbm = noise_floor_dbm(sc.bandwidth_hz, noise_figure_db)
        level = 10.0 * math.log10(10.0 ** (i_dbm / 10.0) + 10.0 ** (noise_dbm / 10.0))
        p_g_dbm = min(max(edge_sinr_db + level - power.desired_dbm[0], -MAX_LEVEL_DB), MAX_LEVEL_DB)
    sc = replace(sc, p_g_dbm=p_g_dbm)
    analytic = run_capacity_sweep(sc, grid, seed)
    waveform = run_capacity_sweep(replace(sc, engine="waveform"), grid, seed)
    assert check_sweep_points([r.sinr_db for r in analytic], list(waveform), sc.bandwidth_hz) == [True]


_SMALL_GRID = GridSpec(x_step_m=6.0, y_step_m=6.0)
_CHUNK_REFERENCE = {}


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(["dipole-0.1", "directional-0.1", "directional-1.8"]),
    seed=st.sampled_from([0, 5, 11]),
    chunk=st.sampled_from([1, 7, 8, 16, None]),
)
def test_gate_chunk_size_changes_no_table_bit(scenarios, name, seed, chunk):
    scenario = replace(scenarios[name], engine="waveform")
    if (name, seed) not in _CHUNK_REFERENCE:
        _CHUNK_REFERENCE[name, seed] = run_capacity_sweep(scenario, _SMALL_GRID, seed)
    ref = _CHUNK_REFERENCE[name, seed]
    interfered = np.count_nonzero(ref.interference_raw_dbm >= scenario.floor_dbm)
    assert interfered > 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaign, "GATE_CHUNK_ROWS", interfered if chunk is None else chunk)  # None: every head at once
        table = run_capacity_sweep(scenario, _SMALL_GRID, seed)
    for a, b in zip(ref.columns(), table.columns()):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_waveform_sweep_retains_the_freed_heap(scenarios, grid):
    # a dipole sweep never reaches the full receiver pass, yet its passes must not give the heap back either
    _retain_freed_heap.cache_clear()
    run_capacity_sweep(replace(scenarios["dipole-0.1"], engine="waveform"), grid)
    assert _retain_freed_heap.cache_info().misses == 1


def test_mirror_symmetry(power_dir01):
    mirrored = mirror_symmetry(power_dir01)
    assert len(mirrored) == 496 + 31 * 15 == 961
    ys = [r.position.y for r in mirrored]
    assert min(ys) == -30.0
    # y = 0 rows appear exactly once
    zero_rows = [r for r in mirrored if r.position.y == 0.0]
    assert len(zero_rows) == 31
    # mirrored copies differ only in the sign of y
    by_key = {}
    for r in mirrored:
        by_key.setdefault((r.position.x, abs(r.position.y), r.position.z), []).append(r)
    for (x, y, z), rows in by_key.items():
        if y > 0.0:
            assert len(rows) == 2
            a, b = rows
            assert a.interference_dbm == b.interference_dbm
            assert a.desired_dbm == b.desired_dbm
            assert a.position.y == -b.position.y


def test_mirror_single_y0_record():
    r = SweepRecord(0, RX2_POSITION.__class__(5.0, 0.0, 0.1), -90.0, -90.0, -80.0)
    table = SweepTable(*np.full((10, 1), np.nan))
    table[0] = r
    assert list(mirror_symmetry(table)) == [r]


def test_csv_round_trip(tmp_path, capacity_dir01_analytic):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic)
    back = read_sweep_csv(path)
    assert len(back) == len(capacity_dir01_analytic)
    for a, b in zip(capacity_dir01_analytic, back):
        assert b.position.x == a.position.x and b.position.y == a.position.y
        assert b.interference_dbm == pytest.approx(a.interference_dbm, abs=1e-4)
        assert b.sinr_db == pytest.approx(a.sinr_db, abs=1e-4)
        assert b.capacity_bps == pytest.approx(a.capacity_bps, abs=1e-3)
        assert b.sync_ok == a.sync_ok
        assert b.interference_raw_dbm is None  # the CSV keeps the reported level only
    # write(read(write(x))) is byte-stable
    path2 = tmp_path / "sweep2.csv"
    write_sweep_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_read_rejects_bad_files(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("x_m,y_m,h_m,p_int_dbm,p_des_dbm,evm,sinr_db,capacity_bps,sync_ok\n")
    with pytest.raises(ValueError, match="no records"):
        read_sweep_csv(p)
    p2 = tmp_path / "badheader.csv"
    p2.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_sweep_csv(p2)


@pytest.mark.parametrize("column", range(5))
def test_csv_read_rejects_an_empty_position_or_power(tmp_path, capacity_dir01_analytic, column):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic)
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[column] = ""
    path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    with pytest.raises(ValueError, match=f"row 2 has a NaN {SWEEP_CSV_COLUMNS[column]}"):
        read_sweep_csv(path)


@pytest.mark.parametrize("column", range(5))
@pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
def test_csv_read_rejects_a_nan_position_or_power(tmp_path, capacity_dir01_analytic, column, nan):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic)
    header, first, second, *rest = path.read_text().splitlines()
    fields = second.split(",")
    fields[column] = nan
    path.write_text("\n".join([header, first, ",".join(fields), *rest]) + "\n")
    with pytest.raises(ValueError, match=f"row 3 has a NaN {SWEEP_CSV_COLUMNS[column]}"):
        read_sweep_csv(path)


@pytest.mark.parametrize(
    "column,value",
    [(c, v) for c in range(5) for v in ("inf", "-inf")]
    + [(5, "-0.5"), (5, "inf"), (6, "inf"), (6, "-inf"), (7, "-1.000"), (7, "inf"), (8, "2"), (8, "-1"), (8, "0.5")]
    + [(8, "inf")]
    + [(c, "abc") for c in range(9)],
)
def test_csv_read_rejects_an_infinite_or_out_of_range_field(tmp_path, capacity_dir01_analytic, column, value):
    # uavfd never writes these: place reported value=inf bps and cdf wrote a -inf step from such a file;
    # before, "abc" gave numpy's bare "could not convert string to float: 'abc'"
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic)
    header, first, second, *rest = path.read_text().splitlines()
    fields = second.split(",")
    fields[column] = value
    path.write_text("\n".join([header, first, ",".join(fields), *rest]) + "\n")
    shown = "'abc', which is not a number" if value == "abc" else f"{float(value):g}, which must be"
    with pytest.raises(ValueError, match=f"^{path}: row 3 has {SWEEP_CSV_COLUMNS[column]} {shown}"):
        read_sweep_csv(path)


def test_csv_read_names_the_first_row_with_a_wrong_field_count(tmp_path, capacity_dir01_analytic):
    # one extra field, then one missing: the file's comma count is that of a good file, so only a per-row
    # check finds the bad rows
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic)
    good = path.read_text()
    header, first, second, third, *rest = good.splitlines()
    path.write_text("\n".join([header, first, second + ",0", third.rsplit(",", 1)[0], *rest]) + "\n")
    assert path.read_text().count(",") == good.count(",")
    with pytest.raises(ValueError, match=f"^{path}: row 3 has 10 fields$"):
        read_sweep_csv(path)


def test_csv_read_keeps_unknown_and_boundary_fields(tmp_path, capacity_dir01_analytic):
    # empty EVM, SINR, capacity and sync fields read as unknown; a zero EVM or capacity is in range
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic)
    header, first, second, *rest = path.read_text().splitlines()
    rows = [",".join(second.split(",")[:5] + ["", "", "", ""]), ",".join(second.split(",")[:5] + ["0", "-3", "0", "0"])]
    path.write_text("\n".join([header, first, *rows, *rest]) + "\n")
    back = read_sweep_csv(path)
    assert back[1].evm_rms is None and back[1].sync_ok is None
    assert (back[2].evm_rms, back[2].sinr_db, back[2].capacity_bps, back[2].sync_ok) == (0.0, -3.0, 0.0, False)


def test_dipole_scenario_is_interference_limited(power_dipole):
    # 27.5 dBm transmit through near-omni antennas: nothing sits at the floor
    assert all(not r.at_floor for r in power_dipole)
    assert min(r.interference_dbm for r in power_dipole) > -60.0


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(["directional-0.1", "directional-1.8", "dipole-0.1", "tdd-baseline"]),
    x_start=st.integers(1, 80),  # x = 0 would put the interferer on the ground station
    nx=st.integers(1, 12),
    ny=st.integers(0, 10),
    y_step=st.sampled_from([0.5, 1.0, 2.0, 2.5]),
)
def test_power_sweep_is_mirror_symmetric_in_y(scenarios, preset, x_start, nx, ny, y_step):
    """A grid spanning -y..+y gives the same power at (x, y) and (x, -y)."""
    grid = GridSpec(
        x_start_m=x_start, x_end_m=x_start + 2 * (nx - 1), x_step_m=2.0,
        y_start_m=-ny * y_step, y_end_m=ny * y_step, y_step_m=y_step,
    )
    records = run_power_sweep(scenarios[preset], grid)
    ys = np.array([r.position.y for r in records]).reshape(nx, 2 * ny + 1)
    assert np.array_equal(ys, -ys[:, ::-1])
    raw = np.array([r.interference_raw_dbm for r in records]).reshape(nx, 2 * ny + 1)
    np.testing.assert_allclose(raw, raw[:, ::-1], rtol=0.0, atol=1e-12)


def _table(columns) -> SweepTable:
    return SweepTable(*(np.array(c, dtype=float) for c in columns))


@st.composite
def sweep_tables(draw):
    """Tables shaped like the sweeps write them: power only, analytic/TDD, or waveform with failed syncs."""
    n = draw(st.integers(1, 40))
    col = lambda lo, hi: draw(st.lists(st.floats(lo, hi) | st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    x, y, h = col(-1e3, 1e3), col(-1e3, 1e3), col(0.0, 100.0)
    p_int, p_des = col(-300.0, 60.0), col(-300.0, 60.0)
    unknown = [math.nan] * n
    kind = draw(st.sampled_from(["power", "analytic", "waveform"]))
    if kind == "power":
        return _table([x, y, h, p_int, unknown, p_des, unknown, unknown, unknown, unknown])
    sinr, cap = col(-100.0, 100.0), col(0.0, 1e9)
    if kind == "analytic":
        return _table([x, y, h, p_int, unknown, p_des, unknown, sinr, cap, [1.0] * n])
    sync = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    evm = [e if ok else math.nan for e, ok in zip(col(0.0, 10.0), sync)]
    sinr = [v if ok else math.nan for v, ok in zip(sinr, sync)]
    cap = [c if ok else 0.0 for c, ok in zip(cap, sync)]
    return _table([x, y, h, p_int, unknown, p_des, evm, sinr, cap, sync])


@settings(max_examples=60, deadline=None)
@given(table=sweep_tables())
def test_csv_write_read_write_is_byte_stable(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_sweep_csv(path, table)
    first = path.read_bytes()
    back = read_sweep_csv(path)
    assert len(back) == len(table)
    assert np.isnan(back.interference_raw_dbm).all()
    for a, b in zip(table, back):
        assert (a.evm_rms is None, a.sinr_db is None, a.sync_ok) == (b.evm_rms is None, b.sinr_db is None, b.sync_ok)
    write_sweep_csv(path, back)
    assert path.read_bytes() == first


@settings(max_examples=60, deadline=None)
@given(table=sweep_tables())
def test_csv_writer_matches_a_per_row_oracle(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_sweep_csv(path, table)
    specs = (".3f", ".3f", ".3f", ".4f", ".4f", ".6e", ".4f", ".3f")
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for r in table:
        values = (*r.position.as_tuple(), r.interference_dbm, r.desired_dbm, r.evm_rms, r.sinr_db, r.capacity_bps)
        fields = ["" if v is None else format(v, spec) for v, spec in zip(values, specs)]
        lines.append(",".join([*fields, "" if r.sync_ok is None else str(int(r.sync_ok))]))
    assert path.read_text() == "\n".join(lines) + "\n"


def test_csv_blocks_join_seamlessly(tmp_path, monkeypatch, capacity_dir01_analytic):
    """Formatting a block of rows at a time writes the bytes of one whole-table block."""
    table = mirror_symmetry(capacity_dir01_analytic)  # repeated values fall in different blocks
    write_sweep_csv(tmp_path / "whole.csv", table)
    monkeypatch.setattr(campaign, "_CSV_BLOCK_ROWS", 7)
    write_sweep_csv(tmp_path / "blocks.csv", table)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


_EDGE_TABLE = _table(  # -0.0 fields and y <= 0 rows, which the mirrored files must not repeat
    [[1.0, -0.0, 2.0, 3.0], [0.0, -0.0, -1.0, 2.0], [-0.0] * 4, [-0.0, -95.0, 1.0, 2.0], [math.nan] * 4,
     [-0.0] * 4, [math.nan, 0.0, 1.0, math.nan], [math.nan, -0.0, 2.0, math.nan], [0.0, -0.0, 1.0, 0.0],
     [0.0, 1.0, 1.0, 0.0]]
)


@settings(max_examples=40, deadline=None)
@given(table=sweep_tables(), block=st.sampled_from([None, 7]))
@example(table=_EDGE_TABLE, block=None)
@example(table=_EDGE_TABLE, block=1)
def test_one_pass_writer_matches_write_sweep_csv_on_each_table(tmp_path_factory, table, block):
    d = tmp_path_factory.mktemp("sweep")
    tables = [table.power_map(), table, mirror_symmetry(table.power_map()), mirror_symmetry(table)]
    for i, t in enumerate(tables):
        write_sweep_csv(d / f"oracle{i}.csv", t)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(campaign, "_CSV_BLOCK_ROWS", block)
        rows = write_sweep_csvs([d / f"{i}.csv" for i in range(4)], table)
    assert rows == [len(t) for t in tables]
    for i in range(4):
        assert (d / f"{i}.csv").read_bytes() == (d / f"oracle{i}.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(
    column=st.integers(0, 8),
    field=st.sampled_from(["", "-0.000", "nan", "1"]) | st.floats(0.0, 1e3).map("{:.4f}".format),
    n=st.integers(1, 20),
)
@example(column=1, field="-0.000", n=3)
@example(column=8, field="", n=3)
@example(column=6, field="nan", n=2)
def test_csv_column_of_one_repeated_field_reads_each_cell(tmp_path_factory, column, field, n):
    if field in ("", "nan"):
        column = 5 + column % 4  # only the capacity stage's fields may be unknown
    elif field not in ("1", "-0.000"):
        column %= 8  # sync_ok holds 0 or 1 only
    fields = ["10.000", "2.000", "0.100", "-60.0000", "-50.0000", "1.000000e-02", "20.0000", "1.000", "1"]
    fields[column] = field
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text("\n".join([",".join(SWEEP_CSV_COLUMNS)] + [",".join(fields)] * n) + "\n")
    got = read_sweep_csv(path).columns()[column + (column >= 4)]  # the raw interference column is not stored
    want = np.array([float(field or "nan") for _ in range(n)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_csv_read_names_a_repeated_field_that_is_not_a_number(tmp_path, capacity_dir01_analytic):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, capacity_dir01_analytic.take(np.arange(3)))
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *(row.rsplit(",", 1)[0] + ",yes" for row in rows)]) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: row 2 has sync_ok 'yes', which is not a number$"):
        read_sweep_csv(path)


def test_waveform_csv_round_trip_keeps_empty_fields(tmp_path, scenarios):
    g = GridSpec(x_start_m=54, x_end_m=58, y_start_m=0, y_end_m=2)
    table = run_capacity_sweep(replace(scenarios["directional-0.1"], engine="waveform"), g, seed=0)
    assert 0 < np.count_nonzero(table.sync_ok == 1.0) < len(table)
    path = tmp_path / "wave.csv"
    write_sweep_csv(path, table)
    back = read_sweep_csv(path)
    for a, b in zip(table, back):
        assert b.sync_ok == a.sync_ok
        assert (b.evm_rms is None) == (b.sinr_db is None) == (not a.sync_ok)
    write_sweep_csv(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_read_back_rows_do_not_claim_a_floor(tmp_path, power_dir01):
    path = tmp_path / "power.csv"
    write_sweep_csv(path, power_dir01)
    row = read_sweep_csv(path)[0]
    assert row.interference_raw_dbm is None
    with pytest.raises(ValueError, match="raw interference unknown"):
        row.at_floor


def test_table_rows_read_and_write_back(capacity_dir01_analytic):
    table = capacity_dir01_analytic.take(np.arange(len(capacity_dir01_analytic)))
    row = table[5]
    assert row.index == 5 and table[-1].index == len(table) - 1
    assert row == list(table)[5]
    table[5] = replace(row, capacity_bps=0.0, sync_ok=False)
    assert table[5] == replace(row, capacity_bps=0.0, sync_ok=False)
    assert table.capacity_bps[5] == 0.0 and table.sync_ok[5] == 0.0
    assert [r.position for r in table[4:7]] == [table[i].position for i in (4, 5, 6)]
    with pytest.raises(IndexError):
        table[len(table)]
    # the fixture is untouched: take() copies
    assert capacity_dir01_analytic[5] == row


def test_power_map_drops_the_capacity_stage(capacity_dir01_analytic, power_dir01):
    assert list(capacity_dir01_analytic.power_map()) == list(power_dir01)


@settings(max_examples=40, deadline=None)
@given(table=sweep_tables())
def test_mirror_appends_flipped_positive_y_rows(table):
    mirrored = mirror_symmetry(table)
    positive = [r for r in table if r.position.y > 0.0]
    assert len(mirrored) == len(table) + len(positive)
    assert list(mirrored[: len(table)]) == list(table)
    for r, m in zip(positive, mirrored[len(table):]):
        assert m.position == Position(r.position.x, -r.position.y, r.position.z)
        assert replace(m, index=r.index, position=r.position) == r
