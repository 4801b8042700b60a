import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavfd.antenna import dipole, horn
from uavfd.campaign import _SCENARIO_RANGES, GridSpec, builtin_scenarios, read_sweep_csv, write_sweep_csv
from uavfd.cli import RunConfig, UsageError, build_parser, load_run_config, main
from uavfd.geometry import MAX_LEVEL_DB


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_writes_expected_files(tmp_path, capsys):
    code, out, err = run(
        ["sweep", "--scenario", "directional-0.1", "--engine", "analytic", "--out", str(tmp_path)], capsys
    )
    assert code == 0
    power = read_rows(tmp_path / "directional-0.1_power.csv")
    cap = read_rows(tmp_path / "directional-0.1_capacity.csv")
    assert len(power) == 496 and len(cap) == 496
    assert len(read_rows(tmp_path / "directional-0.1_power_mirrored.csv")) == 961
    assert len(read_rows(tmp_path / "directional-0.1_capacity_mirrored.csv")) == 961
    assert power[0]["p_des_dbm"] != ""
    assert cap[0]["capacity_bps"] != ""
    assert "wrote" in out


def test_sweep_unknown_scenario(tmp_path, capsys):
    code, out, err = run(["sweep", "--scenario", "nope", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "directional-0.1" in err and "dipole-0.1" in err


def test_sweep_requires_scenario(capsys):
    code, _, err = run(["sweep"], capsys)
    assert code == 1


def test_sweep_tdd_constant_capacity(tmp_path, capsys):
    code, _, _ = run(["sweep", "--scenario", "tdd-baseline", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "tdd-baseline_capacity.csv")
    caps = {row["capacity_bps"] for row in rows}
    assert len(caps) == 1
    assert float(caps.pop()) == pytest.approx(11.6e6, abs=0.05e6)


def test_sweep_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["sweep", "--scenario", "directional-0.1", "--seed", "7", "--out", str(a)], capsys)[0] == 0
    assert run(["sweep", "--scenario", "directional-0.1", "--seed", "7", "--out", str(b)], capsys)[0] == 0
    for name in ("directional-0.1_power.csv", "directional-0.1_capacity.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def coverage_from(out):
    m = re.search(r"coverage=([0-9.]+)", out)
    assert m, out
    return float(m.group(1))


def test_cdf_coverage_in_window(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, out, _ = run(
        ["cdf", str(tmp_path / "directional-0.1_power.csv"), "--threshold", "-95"], capsys
    )
    assert code == 0
    cov_a = coverage_from(out)
    assert 0.6 <= cov_a <= 0.85
    # higher interferer strictly improves coverage
    run(["sweep", "--scenario", "directional-1.8", "--out", str(tmp_path)], capsys)
    _, out_b, _ = run(["cdf", str(tmp_path / "directional-1.8_power.csv"), "--threshold", "-95"], capsys)
    assert coverage_from(out_b) > cov_a
    # CDF CSV format
    cdf_rows = read_rows(tmp_path / "directional-0.1_power_cdf.csv")
    assert list(cdf_rows[0]) == ["value_dbm", "cum_fraction"]
    assert float(cdf_rows[-1]["cum_fraction"]) == 1.0


def test_cdf_header_only_file(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("x_m,y_m,h_m,p_int_dbm,p_des_dbm,evm,sinr_db,capacity_bps,sync_ok\n")
    code, _, err = run(["cdf", str(p)], capsys)
    assert code == 2
    assert "no records" in err


def _with_nan_interference(path):
    """Rewrite a sweep CSV with its second record's p_int_dbm as a literal nan."""
    header, first, second, *rest = path.read_text().splitlines()
    fields = second.split(",")
    fields[3] = "nan"
    path.write_text("\n".join([header, first, ",".join(fields), *rest]) + "\n")


def test_cdf_rejects_a_nan_level(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    path = tmp_path / "directional-0.1_power.csv"
    _with_nan_interference(path)
    code, out, err = run(["cdf", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "row 3 has a NaN p_int_dbm" in err
    assert not (tmp_path / "directional-0.1_power_cdf.csv").exists()


def test_cdf_missing_file(tmp_path, capsys):
    code, _, err = run(["cdf", str(tmp_path / "missing.csv")], capsys)
    assert code == 2


def test_modem_awgn_calibration(capsys):
    code, out, _ = run(["modem", "--snr", "20", "--frames", "10", "--seed", "1"], capsys)
    assert code == 0
    m = re.search(r"sinr_evm_db=([-0-9.]+)", out)
    assert m
    assert float(m.group(1)) == pytest.approx(20.0, abs=0.5)
    assert "sync_failures=0" in out


def test_modem_interference_limited(capsys):
    code, out, _ = run(["modem", "--sir", "0", "--frames", "10", "--seed", "2"], capsys)
    assert code == 0
    m = re.search(r"sinr_evm_db=([-0-9.]+)", out)
    assert float(m.group(1)) == pytest.approx(0.0, abs=1.0)


def test_modem_sync_failure_report(capsys):
    code, out, _ = run(["modem", "--snr", "-20", "--frames", "5"], capsys)
    assert code == 0
    assert "sync=failed" in out
    assert "sinr_evm_db" not in out


@pytest.mark.parametrize("snr", ["0", "2", "5", "10", "20"])
def test_modem_evm_sinr_sits_below_the_analytic_sinr(capsys, snr):
    # the receiver's channel-estimation loss (about -0.13 dB at 20 dB, -0.24 dB at 0 dB) is a contract:
    # a gap of zero or more would mean the EVM no longer carries the channel estimate's noise
    code, out, _ = run(["modem", "--snr", snr, "--sir", "inf", "--frames", "8"], capsys)
    assert code == 0
    m = re.search(r" gap_db=([-+0-9.]+)$", out)
    assert m, out
    assert float(m.group(1)) < 0.0


@pytest.mark.parametrize(
    "args,line",
    [
        (
            "--snr 15 --sir 20 --frames 8 --seed 3",
            "modem frames=8 snr_db=15 sir_db=20 sync_failures=0 evm_rms=2.085790e-01 sinr_evm_db=13.615 "
            "sinr_analytic_db=13.807 gap_db=-0.192",
        ),
        (
            "--snr 20 --frames 5",
            "modem frames=5 snr_db=20 sir_db=inf sync_failures=0 evm_rms=1.015690e-01 sinr_evm_db=19.865 "
            "sinr_analytic_db=20.000 gap_db=-0.135",
        ),
        (
            "--sir 0 --frames 4 --seed 2",
            "modem frames=4 snr_db=inf sir_db=0 sync_failures=0 evm_rms=1.036081e+00 sinr_evm_db=-0.308 "
            "sinr_analytic_db=-0.000 gap_db=-0.308",
        ),
        ("--snr -20 --frames 3", "modem frames=3 snr_db=-20 sir_db=inf sync_failures=3 sync=failed"),
        (
            "--snr 3 --sir -1 --frames 6 --seed 5",
            "modem frames=6 snr_db=3 sir_db=-1 sync_failures=5 evm_rms=1.384151e+00 sinr_evm_db=-2.824 "
            "sinr_analytic_db=-2.455 gap_db=-0.368",
        ),
        (
            "--snr 10 --sir 5 --frames 3 --symbols 4 --seed 7",
            "modem frames=3 snr_db=10 sir_db=5 sync_failures=0 evm_rms=7.682029e-01 sinr_evm_db=2.290 "
            "sinr_analytic_db=3.807 gap_db=-1.516",
        ),
    ],
)
def test_modem_stdout_is_pinned(capsys, args, line):
    code, out, _ = run(["modem", *args.split()], capsys)
    assert code == 0
    assert out == line + "\n"


@pytest.mark.parametrize("symbols", ["0", "-1"])
def test_modem_symbols_must_be_positive(capsys, symbols):
    code, out, err = run(["modem", "--symbols", symbols, "--frames", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --symbols must be >= 1\n"


@pytest.mark.parametrize("flag", ["--snr", "--sir"])
@pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "-inf", "fast"])
def test_modem_rejects_nan_and_minus_inf_levels(capsys, flag, value):
    code, out, err = run(["modem", f"{flag}={value}", "--frames", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: argument {flag}: expected a number or 'inf', got {value!r}\n"


@pytest.mark.parametrize("flag", ["--snr", "--sir"])
@pytest.mark.parametrize("value", ["-4000", "4000", "-1000.001", "1e308"])
def test_modem_rejects_levels_beyond_1000_db(capsys, flag, value):
    code, out, err = run(["modem", f"{flag}={value}", "--frames", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: argument {flag}: expected a level within ±1000 dB or 'inf', got {value!r}\n"


@pytest.mark.parametrize("flag", ["--snr", "--sir"])
@pytest.mark.parametrize("value", ["-1000", "1000"])
def test_modem_runs_at_the_level_bounds(capsys, flag, value):
    code, out, _ = run(["modem", f"{flag}={value}", "--frames", "1"], capsys)
    assert code == 0
    assert out.startswith("modem frames=1 ")


@pytest.mark.parametrize("value", ["inf", "+inf", "Infinity"])
def test_modem_accepts_infinite_levels(capsys, value):
    code, out, _ = run(["modem", f"--sir={value}", "--frames", "1"], capsys)
    assert code == 0
    assert out.startswith(f"modem frames=1 snr_db=inf sir_db={float(value):g} ")


def test_modem_iq_dump(tmp_path, capsys):
    dump = tmp_path / "frame.iq"
    code, _, _ = run(["modem", "--snr", "30", "--frames", "1", "--dump-iq", str(dump)], capsys)
    assert code == 0
    assert dump.stat().st_size > 0
    assert dump.stat().st_size % 8 == 0


def test_modem_iq_dump_of_frame_0_does_not_depend_on_the_frame_count(tmp_path, capsys):
    # frame k's payloads and impair seed are keyed by (seed, k) alone, so later frames cannot move frame 0
    dumps = []
    for frames in ("1", "4"):
        dumps.append(tmp_path / f"frames-{frames}.iq")
        args = ["modem", "--snr", "15", "--sir", "5", "--frames", frames, "--seed", "9", "--dump-iq", str(dumps[-1])]
        assert run(args, capsys)[0] == 0
    assert dumps[0].read_bytes() == dumps[1].read_bytes()


def test_modem_iq_dump_is_pinned(tmp_path, capsys):
    # frame 0 through the rig with interference and noise, byte for byte
    dump = tmp_path / "frame.iq"
    assert run(["modem", "--snr", "15", "--sir", "5", "--frames", "2", "--dump-iq", str(dump)], capsys)[0] == 0
    want = "35ea0033786a02d2b62d95d3ff738aefe3d71de15257c12464f892b4b82c01c9"
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == want


def test_plan_reference_table(capsys):
    code, out, _ = run(["plan", "--uavs", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    # Ch1: uplink of UAV1, downlink of UAV2; Ch2: the swap
    assert re.search(r"^\s*1\s+5700\.0\s+UAV#1\s+UAV#2", lines[1])
    assert re.search(r"^\s*2\s+5710\.0\s+UAV#2\s+UAV#1", lines[2])


def test_plan_zero_uavs_is_usage_error(capsys):
    code, _, err = run(["plan", "--uavs", "0"], capsys)
    assert code == 1


@pytest.mark.parametrize("command", ["cdf", "place"])
@pytest.mark.parametrize("value", ["nan", "NaN", "-nan", "cold"])
def test_nan_threshold_is_usage_error(tmp_path, capsys, command, value):
    # every comparison with NaN is false: cdf printed coverage=0 and place found no feasible position
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, out, err = run([command, str(tmp_path / "directional-0.1_power.csv"), f"--threshold={value}"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: argument --threshold: expected a number, got {value!r}\n"
    assert not any(f.stem.endswith(("_cdf", "_region")) for f in tmp_path.iterdir())


@pytest.mark.parametrize("command,want", [("cdf", "coverage=1.000000 threshold_dbm=inf"), ("place", "(496 feasible")])
def test_infinite_threshold_covers_every_point(tmp_path, capsys, command, want):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, out, _ = run([command, str(tmp_path / "directional-0.1_power.csv"), "--threshold", "inf"], capsys)
    assert code == 0
    assert want in out


def test_place_min_interference(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, out, _ = run(
        ["place", str(tmp_path / "directional-0.1_power.csv"), "--threshold", "-90"], capsys
    )
    assert code == 0
    assert "best objective=min-interference" in out
    m = re.search(r"value=([-0-9.]+)", out)
    assert float(m.group(1)) == pytest.approx(-95.0)
    region = read_rows(tmp_path / "directional-0.1_power_region.csv")
    assert list(region[0]) == ["x_m", "y_m", "h_m"]
    # the region is exactly the strictly-below set
    assert 0 < len(region) < 496


def test_place_max_capacity(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, out, _ = run(
        [
            "place",
            str(tmp_path / "directional-0.1_capacity.csv"),
            "--objective",
            "max-capacity",
        ],
        capsys,
    )
    assert code == 0
    m = re.search(r"value=([0-9.]+)", out)
    assert float(m.group(1)) == pytest.approx(37.25e6, rel=0.01)


def test_place_max_capacity_needs_capacity_column(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, _, err = run(
        ["place", str(tmp_path / "directional-0.1_power.csv"), "--objective", "max-capacity"], capsys
    )
    assert code == 2
    assert "capacity" in err


def test_place_max_capacity_rejects_rows_without_capacity(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    path = tmp_path / "directional-0.1_capacity.csv"
    header, first, second, *rest = path.read_text().splitlines()
    second = ",".join(second.split(",")[:7] + ["", ""])
    path.write_text("\n".join([header, first, second, *rest]) + "\n")
    code, out, err = run(["place", str(path), "--objective", "max-capacity"], capsys)
    assert code == 2
    assert out == ""
    assert "record 1 has no capacity" in err


@pytest.mark.parametrize("objective", ["min-interference", "max-capacity"])
def test_place_rejects_a_nan_level(tmp_path, capsys, objective):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    path = tmp_path / "directional-0.1_capacity.csv"
    _with_nan_interference(path)
    code, out, err = run(["place", str(path), "--objective", objective], capsys)
    assert code == 2
    assert out == ""
    assert "row 3 has a NaN p_int_dbm" in err


@pytest.mark.parametrize(
    "args,column,value",
    [
        (["place", "--objective", "max-capacity"], 7, "inf"),
        (["place", "--objective", "min-interference"], 3, "-inf"),
        (["cdf"], 3, "-inf"),
        (["place", "--objective", "max-capacity"], 8, "2"),
    ],
)
def test_cdf_and_place_reject_an_infinite_or_out_of_range_field(tmp_path, capsys, args, column, value):
    # before, place printed value=inf bps or value=-inf dBm and cdf wrote a -inf step, each exiting 0
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    path = tmp_path / "directional-0.1_capacity.csv"
    header, first, second, *rest = path.read_text().splitlines()
    fields = second.split(",")
    fields[column] = value
    path.write_text("\n".join([header, first, ",".join(fields), *rest]) + "\n")
    code, out, err = run([args[0], str(path), *args[1:]], capsys)
    assert code == 2
    assert out == ""
    assert f"row 3 has {header.split(',')[column]} {value}, which must be" in err
    assert not (tmp_path / "directional-0.1_capacity_cdf.csv").exists()


@pytest.mark.parametrize("args", [["cdf"], ["place", "--objective", "min-interference"]])
def test_cdf_and_place_name_an_empty_level(tmp_path, capsys, args):
    # before, numpy's bare "could not convert string to float: ''" named no file, row or column
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    path = tmp_path / "directional-0.1_power.csv"
    header, first, second, *rest = path.read_text().splitlines()
    fields = second.split(",")
    fields[3] = ""
    path.write_text("\n".join([header, first, ",".join(fields), *rest]) + "\n")
    code, out, err = run([args[0], str(path), *args[1:]], capsys)
    assert code == 2
    assert out == ""
    assert f"{path}: row 3 has a NaN p_int_dbm" in err


def test_place_unknown_objective(tmp_path, capsys):
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    code, _, err = run(
        ["place", str(tmp_path / "directional-0.1_power.csv"), "--objective", "wat"], capsys
    )
    assert code == 1


def test_place_checks_the_objective_before_reading_the_csv(tmp_path, capsys):
    code, out, err = run(["place", str(tmp_path / "missing.csv"), "--objective", "wat"], capsys)
    assert code == 1
    assert out == ""
    # newer Pythons drop the quotes around the choices
    assert err.startswith("error: argument --objective: invalid choice: 'wat' (choose from ")
    assert "min-interference" in err and "max-capacity" in err


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    run(["sweep", "--scenario", "directional-0.1", "--out", str(tmp_path)], capsys)
    csv_path = str(tmp_path / "directional-0.1_capacity.csv")
    assert "best objective=max-capacity " in run(["place", csv_path, "--objective", "max-capacity"], capsys)[1]
    assert "best objective=min-interference " in run(["place", csv_path], capsys)[1]


def test_load_run_config_without_a_file_is_the_preset_on_the_default_grid():
    presets = builtin_scenarios()
    want = RunConfig(presets["directional-0.1"], GridSpec(), 0, Path("."))
    assert load_run_config(None, presets, "directional-0.1") == want
    with pytest.raises(UsageError, match=r"^sweep needs --scenario \(or --config with a scenario key\)$"):
        load_run_config(None, presets, None)


def test_config_without_a_scenario_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "none.cfg"
    cfg.write_text("seed = 3\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert f"{cfg}: no scenario given (set 'scenario = <name>' or pass --scenario)" in err


def _sweep_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def test_flags_a_config_file_and_flags_over_a_file_give_the_same_run(tmp_path, capsys):
    by_flags = ["sweep", "--scenario", "directional-0.1", "--engine", "analytic", "--seed", "3"]
    assert run([*by_flags, "--out", str(tmp_path / "a")], capsys)[0] == 0
    by_file = tmp_path / "b.cfg"
    by_file.write_text(f"scenario = directional-0.1\nseed = 3\nout = {tmp_path / 'b'}\nscenario.engine = analytic\n")
    assert run(["sweep", "--config", str(by_file)], capsys)[0] == 0
    # every key the flags override would move the bytes or the directory if it were kept
    overridden = tmp_path / "c.cfg"
    overridden.write_text(
        f"scenario = directional-0.1\nseed = 9\nout = {tmp_path / 'kept'}\nscenario.engine = waveform\n"
    )
    flags = ["--seed", "3", "--out", str(tmp_path / "c"), "--engine", "analytic"]
    assert run(["sweep", "--config", str(overridden), *flags], capsys)[0] == 0
    a = _sweep_bytes(tmp_path / "a")
    assert len(a) == 4
    assert _sweep_bytes(tmp_path / "b") == a == _sweep_bytes(tmp_path / "c")
    assert not (tmp_path / "kept").exists()


def test_seed_flag_overrides_the_config_files_seed(tmp_path, capsys):
    # at a pointing sigma above 0 the seed draws each point's aim, so it shows in the bytes
    for name, text, flags in [("a", "seed = 3", []), ("b", "seed = 9", ["--seed", "3"]), ("c", "seed = 9", [])]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"scenario = directional-0.1\nscenario.pointing_sigma_deg = 2\n{text}\ngrid.y_end = 4\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path / name), *flags], capsys)[0] == 0
    assert _sweep_bytes(tmp_path / "a") == _sweep_bytes(tmp_path / "b") != _sweep_bytes(tmp_path / "c")


_LEVELS = ("p_g_dbm", "p_u_dbm", "floor_dbm", "noise_figure_db", "tdd_snr_db", "sinr_ceiling_db")
_VALIDATED = {
    "preset": st.sampled_from(sorted(builtin_scenarios())),
    "levels": st.fixed_dictionaries({f: st.floats(-MAX_LEVEL_DB, MAX_LEVEL_DB) for f in _LEVELS}),
    "ranges": st.fixed_dictionaries({f: st.floats(lo, hi) for f, (lo, hi) in _SCENARIO_RANGES.items()}),
    "x_start": st.integers(1, 66),
    "y_start": st.integers(0, 26),
    "seed": st.integers(0, 2**32),
}


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["FD", "TDD"]), **_VALIDATED)
def test_a_sweep_of_validated_values_writes_csvs_that_read_back_and_rewrite_byte_identical(
    tmp_path_factory, preset, levels, ranges, mode, x_start, y_start, seed
):
    grid = {"grid.x_start": x_start, "grid.x_end": x_start + 4, "grid.y_start": y_start, "grid.y_end": y_start + 4}
    _sweep_reads_back_byte_identical(tmp_path_factory, preset, levels | ranges, {"scenario.mode": mode, **grid}, seed)


# the waveform engine runs only in FD mode, and 8 examples keep it fast; most draws of the levels lose sync
# at every point, so the explicit example, the preset's own levels at two points, writes measured EVMs
@settings(max_examples=7, deadline=None)
@given(points=st.integers(1, 2), **_VALIDATED)
@example(preset="directional-0.1", levels={}, ranges={}, points=2, x_start=10, y_start=0, seed=0)
def test_a_waveform_sweep_of_validated_values_writes_csvs_that_read_back_and_rewrite_byte_identical(
    tmp_path_factory, preset, levels, ranges, points, x_start, y_start, seed
):
    grid = {"grid.x_start": x_start, "grid.x_end": x_start + 2 * (points - 1), "grid.y_start": y_start}
    keys = {"scenario.mode": "FD", "scenario.engine": "waveform", **grid, "grid.y_end": y_start}
    _sweep_reads_back_byte_identical(tmp_path_factory, preset, levels | ranges, keys, seed)


def _sweep_reads_back_byte_identical(tmp_path_factory, preset, fields, keys, seed):
    """`uavfd sweep --config` writes four CSVs, and each reads back and re-writes to the same bytes."""
    out = tmp_path_factory.mktemp("sweep")
    keys = {"scenario": preset, "seed": seed, "out": out, **keys}
    keys |= {f"scenario.{f}": repr(v) for f, v in fields.items()}
    cfg = out / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main(["sweep", "--config", str(cfg)]) == 0
    written = sorted(out.glob("*.csv"))
    assert len(written) == 4
    for path in written:
        again = out / "again.csv"
        write_sweep_csv(again, read_sweep_csv(path))
        assert again.read_bytes() == path.read_bytes(), path.name


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny grid override\n"
        "scenario = directional-0.1\n"
        "seed = 3\n"
        f"out = {tmp_path}\n"
        "grid.x_start = 10\n"
        "grid.x_end = 14\n"
        "grid.x_step = 2\n"
        "grid.y_start = 0\n"
        "grid.y_end = 2\n"
        "grid.y_step = 2\n"
        "scenario.floor_dbm = -100\n"
    )
    code, out, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "directional-0.1_power.csv")
    assert len(rows) == 3 * 2
    assert all(float(r["p_int_dbm"]) >= -100.0 for r in rows)


def test_config_antenna_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = directional-0.1\n"
        f"out = {tmp_path}\n"
        "grid.x_end = 12\n"
        "grid.y_end = 0\n"
        "antenna.kind = dipole\n"
        "antenna.gain_dbi = 2.5\n"
    )
    code, _, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "directional-0.1_power.csv")
    # dipole at p_u 0 dBm: everything is louder than the horn sidelobe map
    assert all(float(r["p_int_dbm"]) > -85.0 for r in rows)


def _antenna_from(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return load_run_config(cfg, builtin_scenarios(), None).scenario.antenna


def test_config_antenna_fields_without_kind_edit_the_preset_antenna(tmp_path):
    # a dipole stays a dipole, and a horn keeps its 45 dB front-to-back ratio
    assert _antenna_from(tmp_path, "scenario = dipole-0.1\nantenna.gain_dbi = 3\n") == dipole(3.0)
    assert _antenna_from(tmp_path, "scenario = directional-0.1\nantenna.gain_dbi = 21\n") == horn(
        21.0, 18.0, front_to_back_db=45.0
    )
    assert _antenna_from(tmp_path, "scenario = directional-0.1\nantenna.hpbw_deg = 20\n") == horn(
        21.0, 20.0, front_to_back_db=45.0
    )


def test_config_antenna_kind_starts_from_the_stock_pattern(tmp_path):
    assert _antenna_from(tmp_path, "scenario = dipole-0.1\nantenna.kind = horn\n") == horn()
    assert _antenna_from(
        tmp_path, "scenario = dipole-0.1\nantenna.kind = horn\nantenna.gain_dbi = 15\nantenna.hpbw_deg = 30\n"
    ) == horn(15.0, 30.0)
    assert _antenna_from(tmp_path, "scenario = directional-0.1\nantenna.kind = dipole\n") == dipole()


def test_config_bad_antenna_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = directional-0.1\nantenna.hpbw_deg = 200\n")
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bad.cfg:" in err and "hpbw_deg" in err


@pytest.mark.parametrize(
    "preset,line",
    [
        ("directional-0.1", "antenna.front_to_back_db = nan"),
        ("directional-0.1", "antenna.front_to_back_db = inf"),
        ("directional-0.1", "antenna.hpbw_deg = nan"),
        ("dipole-0.1", "antenna.hpbw_deg = nan"),
        ("dipole-0.1", "antenna.front_to_back_db = -inf"),
    ],
)
def test_config_non_finite_antenna_value_is_data_error(tmp_path, capsys, preset, line):
    # before, a NaN front-to-back ratio swept with exit 0 and wrote empty p_des_dbm, sinr_db and capacity_bps fields
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = {preset}\nout = {tmp_path}\n{line}\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    field, _, value = line.removeprefix("antenna.").split()
    assert f"bad.cfg: invalid scenario override: {field} must be finite, got {value}" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "preset,line,field",
    [
        ("directional-0.1", "antenna.gain_dbi = 1e300", "boresight_gain_dbi"),
        ("dipole-0.1", "antenna.front_to_back_db = -1000.001", "front_to_back_db"),
    ],
)
def test_config_antenna_level_beyond_the_bound_is_data_error(tmp_path, capsys, preset, line, field):
    # before, a 1e300 dBi gain swept with exit 0 and wrote -inf SINR fields that uavfd place rejects
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = {preset}\nout = {tmp_path}\n{line}\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"bad.cfg: invalid scenario override: {field} must be within ±1000 dB, got {float(line.split()[-1])}" in err
    assert not list(tmp_path.glob("*.csv"))


# numpy warns of the overflow on its way to the NaN gain
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("engine", ["analytic", "waveform"])
def test_sweep_with_a_non_finite_link_gain_is_data_error(tmp_path, capsys, engine):
    # before, every point read the NaN interference as none: 37.2 Mbps, sync_ok 1 and an empty p_int_dbm
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        f"scenario = directional-0.1\nout = {tmp_path}\nscenario.interferer_height_m = 1e300\ngrid.y_end = 2\n"
    )
    code, out, err = run(["sweep", "--config", str(cfg), "--engine", engine], capsys)
    assert code == 2
    assert out == ""
    assert "cannot sweep this grid: grid point (10, 0, 1e+300) m has a non-finite link gain" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_sweep_leaves_no_output_directory(tmp_path, capsys):
    # before, the directory was made before the sweep, and this run left it behind empty
    cfg = tmp_path / "far.cfg"
    cfg.write_text("scenario = directional-0.1\nscenario.interferer_height_m = 1e300\ngrid.y_end = 2\n")
    code, _, err = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "new" / "dir")], capsys)
    assert code == 2
    assert "cannot sweep this grid" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "line",
    [
        "scenario.bandwidth_hz = 0",
        "scenario.carrier_freq_hz = -1",
        "scenario.noise_figure_db = nan",
        "scenario.interferer_height_m = inf",
        "scenario.tdd_snr_db = -inf",
        "scenario.sinr_ceiling_db = inf",
        "scenario.pointing_sigma_deg = -1",
        "scenario.noise_figure_db = 1e308",
        "scenario.p_u_dbm = -1000.001",
        "scenario.carrier_freq_hz = 1e-300",
        "scenario.carrier_freq_hz = 300.001e9",
        "scenario.bandwidth_hz = 1e308",
        "scenario.bandwidth_hz = 999",
        "scenario.pointing_sigma_deg = 180.001",
    ],
)
def test_config_bad_scenario_value_is_data_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = directional-0.1\nout = {tmp_path}\n{line}\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"bad.cfg: invalid scenario override: {line.split()[0].removeprefix('scenario.')}" in err


@pytest.mark.parametrize(
    "line,field",
    [
        ("grid.x_step = nan", "x_step_m must be finite"),
        ("grid.y_start = nan", "y_start_m must be finite"),
        ("grid.x_end = inf", "x_end_m must be finite"),
        ("grid.y_step = -inf", "y_step_m must be finite"),
        ("grid.x_step = 1e-6", "more than 1000000 points"),
    ],
)
def test_config_bad_grid_is_data_error(tmp_path, capsys, line, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scenario = directional-0.1\nout = {tmp_path}\n{line}\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"bad.cfg: invalid grid: {field}" in err


# SHA-256 of every CSV `uavfd sweep --engine analytic` writes, recorded before
# the power map became one array pass: the four presets on the default grid,
# and directional-0.1 with 2 deg of pointing error at seed 1 (under pointing/;
# recorded again when the per-point seeds became keyed to position, and again
# when the pointing error became a Box-Muller draw from SplitMix64 point keys).
SWEEP_CSV_SHA256 = {
    "dipole-0.1_capacity.csv": "b664de86efb37a3edb42f37cb5a114ce2b26263c3d763d75e691379c1263b839",
    "dipole-0.1_capacity_mirrored.csv": "651ceeafcb4837459ed888cc7d8ee582de12444c6d24581c9b8e2830aca55e20",
    "dipole-0.1_power.csv": "54e45257946e445d2049de96ce6f8ca875726f851995289dce7c670de60ebcb2",
    "dipole-0.1_power_mirrored.csv": "6e3a319bfc52151964d54babfa7965b89c9917f0d1236a14490a7ef2aa0ca32a",
    "directional-0.1_capacity.csv": "9a0f2733a123442b66c6db14b98458a075c6ccbca822b9e341c2dd51e25c02a1",
    "directional-0.1_capacity_mirrored.csv": "cb6dfb10f9f861f665cf551adf9c33ac01f86038908d0f435bcf236b3a3d513c",
    "directional-0.1_power.csv": "75884c2d81fe8175eb7c58302b7f0f4945c7149c615944a142afb61841515fb1",
    "directional-0.1_power_mirrored.csv": "fd0a277552ca37dd6663068b706911ad57f4bb8650996ff15330f46488124a90",
    "directional-1.8_capacity.csv": "a6c61cf9160d50ba32ab73fde4e3feda078d5292860dfd675241a114611bc1ef",
    "directional-1.8_capacity_mirrored.csv": "f7183a06ace9c2b8d709b5d2e517592414f0ae99b287e3cc038c3b3ae59f6fe8",
    "directional-1.8_power.csv": "a0db4251aa787e9a2b476d094629512104e3bd6c876312ab2b3b4a38373e18fc",
    "directional-1.8_power_mirrored.csv": "20bebb5468e4054b8ae8254b4fc766864335fe6ec9840d936e6723c071e2ad18",
    "pointing/directional-0.1_capacity.csv": "86565564e1cc97ef6e0e3bc37088d2fedcf7ea7274cdf282b683866cea30eef4",
    "pointing/directional-0.1_capacity_mirrored.csv": "fc7ff230e01c8ec06d69795f0de4dd76c64ceae9d0e6cb4ed43e68271a89ae90",
    "pointing/directional-0.1_power.csv": "6f616a902ae62e8daf6e869497db06148026de5e60e2ec6dd5253c373b47a815",
    "pointing/directional-0.1_power_mirrored.csv": "c036164a5e07bfae2cc1a2a597ad4016a12c0abfd0bc4f85d7525b34a8a5162e",
    "tdd-baseline_capacity.csv": "c628a59d390934b1fe5847537f64d38602562f678eef163a0612975a8507ab09",
    "tdd-baseline_capacity_mirrored.csv": "0da1c2287cb335ae9aa10be46d1a10eaa6108f4cb74831dd6afac34cd41b2570",
    "tdd-baseline_power.csv": "75884c2d81fe8175eb7c58302b7f0f4945c7149c615944a142afb61841515fb1",
    "tdd-baseline_power_mirrored.csv": "fd0a277552ca37dd6663068b706911ad57f4bb8650996ff15330f46488124a90",
}


def test_sweep_csv_bytes_are_pinned(tmp_path, capsys):
    for preset in ("directional-0.1", "directional-1.8", "dipole-0.1", "tdd-baseline"):
        assert run(["sweep", "--scenario", preset, "--engine", "analytic", "--out", str(tmp_path)], capsys)[0] == 0
    cfg = tmp_path / "pointing.cfg"
    cfg.write_text("scenario = directional-0.1\nscenario.pointing_sigma_deg = 2\nseed = 1\n")
    out = tmp_path / "pointing"
    assert run(["sweep", "--config", str(cfg), "--engine", "analytic", "--out", str(out)], capsys)[0] == 0
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*.csv")
    }
    assert digests == SWEEP_CSV_SHA256


# SHA-256 of the CSVs `uavfd sweep --engine waveform` writes at seed 0 on the
# 20-point grid x 54..62 × y 0..6 (step 2), which holds the point on top of
# the victim receiver.  Recorded before the sweep results became columns,
# and the directional-0.1 capacity files again when the rig began to replay
# one frame per sweep with position-keyed seeds, again when it began to
# add one receiver-noise draw per sweep (common random numbers), and again
# when frames began to carry one FEC code block per OFDM symbol, and again
# when every run seed came from one key rule; failed-sync rows have empty
# EVM and SINR fields.
WAVEFORM_CSV_SHA256 = {
    "dipole-0.1_capacity.csv": "0404d3474c8679a8be26309f6da154ba23c78b885d1b4267bb169d28e9272eee",
    "dipole-0.1_capacity_mirrored.csv": "25bcc120ab0db31534a56b3df7e7ab659a37bbf1f50e889f77495ec9f53e47b0",
    "dipole-0.1_power.csv": "e37f8ac2d54b552b9b4c335275ddc9ad03e19376ffbb0d289694e1f9652a4129",
    "dipole-0.1_power_mirrored.csv": "a93376ad4fd9b06132bef78733d8daa099987440d448a1239a100a18c14046b3",
    "directional-0.1_capacity.csv": "79837e9752eb7aa11658050d5c85b877da889e9dcfc4b9361f80eeb5a38a0cda",
    "directional-0.1_capacity_mirrored.csv": "f5ecc573b38bc50d8b3b3a2f5f5de38bf5e9eeeba7f9f443c81cc4338c676aca",
    "directional-0.1_power.csv": "0f62b9869a8aa0fcdc6b95c0de6644e231284d74c6cf4913dc185034a090b0ab",
    "directional-0.1_power_mirrored.csv": "d4e2bab84c28e9c398ea67d3d91421ad1e98287cbc9fd0ab21f30d0273ff8657",
}


# SHA-256 of the capacity CSVs `uavfd sweep --engine waveform` writes for the
# directional presets on the default 496-point grid, by seed.  Recorded before
# the sweep began to form its received desired signal (frame plus receiver
# noise) once per sweep instead of at every point, and again when frames began
# to carry one FEC code block per OFDM symbol, and when every run seed came
# from one key rule.
DEFAULT_GRID_CAPACITY_CSV_SHA256 = {
    0: {
        "directional-0.1_capacity.csv": "455e8b0c14044f9f24e8b6bf8d44986d524fad972d0feae853a9b8c9aca47212",
        "directional-1.8_capacity.csv": "7499980bf826d1de378f72226fcebea061298b595c363c09c0d0c017c6cdd596",
    },
    11: {
        "directional-0.1_capacity.csv": "14b719e1b19092395601b560af3801a872700baffaea007b75f68fbd7cdbe095",
        "directional-1.8_capacity.csv": "d0403a9f6b3d5b56b6bcee5b84adfff025f8af5f35e075a78abf09f5e86cd2b6",
    },
}


def test_waveform_sweep_csv_bytes_are_pinned(tmp_path, capsys):
    small_grid = "grid.x_start = 54\ngrid.x_end = 62\ngrid.y_end = 6\n"
    cases = [
        (("directional-0.1", "dipole-0.1"), small_grid, "*.csv", {0: WAVEFORM_CSV_SHA256}),
        (("directional-0.1", "directional-1.8"), "", "*_capacity.csv", DEFAULT_GRID_CAPACITY_CSV_SHA256),
    ]
    for k, (presets, grid, pattern, pinned) in enumerate(cases):
        for seed, want in pinned.items():
            out = tmp_path / f"case{k}-seed{seed}"
            for preset in presets:
                cfg = tmp_path / "run.cfg"
                cfg.write_text(f"scenario = {preset}\n{grid}seed = {seed}\n")
                assert run(["sweep", "--config", str(cfg), "--engine", "waveform", "--out", str(out)], capsys)[0] == 0
            assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob(pattern)} == want


def test_sweep_waveform_engine_small_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = directional-0.1\n"
        f"out = {tmp_path}\n"
        "grid.x_start = 24\n"
        "grid.x_end = 32\n"
        "grid.x_step = 4\n"
        "grid.y_start = 0\n"
        "grid.y_end = 4\n"
        "grid.y_step = 4\n"
    )
    code, _, _ = run(["sweep", "--config", str(cfg), "--engine", "waveform"], capsys)
    assert code == 0
    rows = read_rows(tmp_path / "directional-0.1_capacity.csv")
    assert len(rows) == 6
    assert all(r["sync_ok"] in ("0", "1") for r in rows)
    synced = [r for r in rows if r["sync_ok"] == "1"]
    assert all(r["evm"] != "" and float(r["capacity_bps"]) > 0 for r in synced)


@pytest.mark.parametrize("extra", ["", "scenario.pointing_sigma_deg = 2\n"])
def test_sweep_grid_on_the_ground_station_is_data_error(tmp_path, capsys, extra):
    cfg = tmp_path / "gs.cfg"
    cfg.write_text(f"scenario = directional-0.1\nout = {tmp_path}\ngrid.x_start = 0\ngrid.x_end = 4\n{extra}")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "grid point (0, 0, 0.1) m is the ground station" in err
    assert not list(tmp_path.glob("*.csv"))


def test_config_unknown_key_has_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = directional-0.1\nwhatsthis = 3\n")
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bad.cfg:2" in err and "whatsthis" in err


def test_config_bad_number_has_line_number(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = directional-0.1\n\ngrid.x_step = fast\n")
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bad.cfg:3" in err


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario directional-0.1\n")
    code, _, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bad.cfg:1" in err


def test_usage_error_on_bad_flag(capsys):
    code, _, err = run(["sweep", "--nonsense"], capsys)
    assert code == 1


def test_negative_seed_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        ["sweep", "--scenario", "directional-0.1", "--seed", "-1", "--out", str(tmp_path)], capsys
    )
    assert code == 1
    assert "seed" in err


def test_negative_seed_in_config_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(f"scenario = directional-0.1\nout = {tmp_path}\nseed = -1\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert "neg.cfg:3: seed must be >= 0" in err


_SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_and_analytic_sweep_leave_numpy_random_unloaded(tmp_path):
    # loading numpy.random costs the analytic sweep several percent of its peak RSS
    code = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "import uavfd.cli\n"
        "after_import = 'numpy.random' in sys.modules\n"
        f"argv = ['sweep', '--scenario', 'directional-0.1', '--engine', 'analytic', '--out', {str(tmp_path)!r}]\n"
        "assert uavfd.cli.main(argv) == 0\n"
        "print(eager, after_import, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    eager, after_import, after_sweep = proc.stdout.split()[-3:]
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert (after_import, after_sweep) == ("False", "False")
