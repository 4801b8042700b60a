"""Command-line surface: scenario sweeps, CDF/coverage, modem calibration,
channel planning and placement queries.

Exit codes: 0 success, 1 usage error (bad flags, unknown scenario), 2 data
error (malformed config file, unreadable or empty CSV).  All commands are
deterministic given their arguments and --seed; repeated runs write
byte-identical files.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .antenna import AntennaSpec, dipole, horn
from .campaign import (
    GridSpec,
    ScenarioConfig,
    builtin_scenarios,
    read_sweep_csv,
    rig_frame,
    run_capacity_sweep,
    write_csv_columns,
    write_sweep_csvs,
)
from .duplexing import build_channel_plan, format_plan_table, validate_plan
from .geometry import MAX_LEVEL_DB
from .metrics import cdf, cdf_at, sinr_analytic, sinr_from_evm
from .phy import OfdmParams, impair, noise_power_for_subcarrier_snr, receive_frame, write_iq
from .placement import ObjectiveKind, PlacementObjective, best_record, feasible_region


class UsageError(Exception):
    """Bad invocation: unknown names, out-of-range flags; exit code 1."""


class DataError(Exception):
    """Bad input data: malformed config or CSV; exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    grid: GridSpec
    seed: int
    out_dir: Path


# ---------------------------------------------------------------- config file


def _key_table(prefix: str, cls, skip=(), drop: str = "") -> dict:
    """`prefix.field` config key -> (field, type) for the fields of cls but skip; keys lose `drop`."""
    return {f"{prefix}.{f.name.replace(drop, '')}": (f.name, f.type) for f in fields(cls) if f.name not in skip}


_SCENARIO_KEYS = _key_table("scenario", ScenarioConfig, skip=("name", "antenna"))
_GRID_KEYS = _key_table("grid", GridSpec, drop="_m")
_ANTENNA_KEYS = _key_table("antenna", AntennaSpec, skip=("kind",), drop="boresight_")
_ANTENNA_BASES = {"horn": horn, "dipole": dipole}
_OTHER_KEYS = {"scenario", "seed", "out", "antenna.kind"}


def _parse_config_lines(path: Path) -> dict[str, tuple[str, int]]:
    """Flat `key = value` format; '#' starts a comment.  Values keep their line
    number so later validation can point at the offending line."""
    try:
        text = path.read_text()
    except OSError as e:
        raise DataError(f"{path}: cannot read config: {e}") from e
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise DataError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


def _coerce(path: Path, key: str, value: str, lineno: int, kind):
    try:
        return kind(value)
    except ValueError:
        raise DataError(f"{path}:{lineno}: {key} expects a {kind.__name__}, got {value!r}") from None


def _overrides(path: Path, entries: dict[str, tuple[str, int]], keys: dict) -> dict:
    """Coerced `field: value` pairs for the keys of one table that the file sets."""
    return {field: _coerce(path, key, *entries[key], kind) for key, (field, kind) in keys.items() if key in entries}


def load_run_config(path, presets: dict[str, ScenarioConfig], scenario_flag: str | None) -> RunConfig:
    """Build a RunConfig from a config file, or from none (a path of None), plus the --scenario flag.

    The flag wins over the file's `scenario` key; everything else in the
    file overrides the chosen preset.  `antenna.*` values replace fields of
    the preset's antenna, or of a stock horn()/dipole() when `antenna.kind`
    is given.  With no file the run is the preset on GridSpec(), seed 0, out `.`.
    """
    path = Path(path) if path else None
    entries = _parse_config_lines(path) if path else {}

    known = _OTHER_KEYS | _SCENARIO_KEYS.keys() | _GRID_KEYS.keys() | _ANTENNA_KEYS.keys()
    for key, (_, lineno) in entries.items():
        if key not in known:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")

    name = scenario_flag or (entries["scenario"][0] if "scenario" in entries else None)
    if name is None and not path:
        raise UsageError("sweep needs --scenario (or --config with a scenario key)")
    if name is None:
        raise DataError(f"{path}: no scenario given (set 'scenario = <name>' or pass --scenario)")
    if name not in presets:
        raise UsageError(f"unknown scenario {name!r}; available: {', '.join(sorted(presets))}")
    scenario = presets[name]

    scen_kw = _overrides(path, entries, _SCENARIO_KEYS)
    ant_kw = _overrides(path, entries, _ANTENNA_KEYS)
    try:
        if "antenna.kind" in entries:
            kind, lineno = entries["antenna.kind"]
            if kind not in _ANTENNA_BASES:
                raise DataError(f"{path}:{lineno}: antenna.kind must be horn or dipole, got {kind!r}")
            scen_kw["antenna"] = replace(_ANTENNA_BASES[kind](), **ant_kw)
        elif ant_kw:
            scen_kw["antenna"] = replace(scenario.antenna, **ant_kw)
        scenario = replace(scenario, **scen_kw)
    except ValueError as e:
        raise DataError(f"{path}: invalid scenario override: {e}") from e

    try:
        grid = GridSpec(**_overrides(path, entries, _GRID_KEYS))
    except ValueError as e:
        raise DataError(f"{path}: invalid grid: {e}") from e

    seed = 0
    if "seed" in entries:
        value, lineno = entries["seed"]
        seed = _coerce(path, "seed", value, lineno, int)
        if seed < 0:
            raise DataError(f"{path}:{lineno}: seed must be >= 0")
    out_dir = Path(entries["out"][0]) if "out" in entries else Path(".")
    return RunConfig(scenario=scenario, grid=grid, seed=seed, out_dir=out_dir)


# ---------------------------------------------------------------- subcommands


def _cmd_sweep(args) -> int:
    run = load_run_config(args.config, builtin_scenarios(), args.scenario)
    run = replace(
        run,
        scenario=replace(run.scenario, engine=args.engine or run.scenario.engine),
        seed=run.seed if args.seed is None else args.seed,
        out_dir=Path(args.out or run.out_dir),
    )
    if run.seed < 0:  # a file's negative seed is a data error in load_run_config
        raise UsageError("--seed must be >= 0")
    try:
        capacity = run_capacity_sweep(run.scenario, run.grid, run.seed)
    except ValueError as e:
        raise DataError(f"cannot sweep this grid: {e}") from e

    try:  # only once the sweep has succeeded, so a failed one leaves no empty directory
        run.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {run.out_dir}: {e}") from e
    name = run.scenario.name
    dests = [run.out_dir / f"{name}_{tag}{m}.csv" for m in ("", "_mirrored") for tag in ("power", "capacity")]
    for dest, rows in zip(dests, write_sweep_csvs(dests, capacity)):
        print(f"wrote {dest} ({rows} rows)")
    return 0


def _cmd_cdf(args) -> int:
    try:
        values = read_sweep_csv(args.sweep_csv).interference_dbm
    except (OSError, ValueError) as e:
        raise DataError(str(e)) from e
    table = cdf(values)
    out = Path(args.out or Path(args.sweep_csv).with_name(Path(args.sweep_csv).stem + "_cdf.csv"))
    steps, fracs = np.array(table).T
    write_csv_columns(out, ["value_dbm", "cum_fraction"], [(steps, ".4f"), (fracs, ".6f")])
    coverage = cdf_at(values, args.threshold)
    print(f"wrote {out} ({len(table)} steps)")
    print(f"coverage={coverage:.6f} threshold_dbm={args.threshold:.2f} n={len(values)}")
    return 0


def _cmd_modem(args) -> int:
    if args.frames < 1:
        raise UsageError("--frames must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.symbols < 1:
        raise UsageError("--symbols must be >= 1")
    params = OfdmParams()
    noise_dbm = noise_power_for_subcarrier_snr(params, args.snr, args.symbols)

    evm_sq_sum = 0.0
    n_ok = 0
    for k in range(args.frames):
        frame, interferer, impair_seed = rig_frame(params, args.symbols, args.seed, k, interferer=args.sir != math.inf)
        mixed = impair(frame, interferer, 0.0, args.sir, noise_dbm, impair_seed)
        rx = receive_frame(mixed, params, frame.data_symbols, decode=False)
        if args.dump_iq and k == 0:
            write_iq(args.dump_iq, mixed)
        if rx.sync_success:
            n_ok += 1
            evm_sq_sum += rx.evm_rms**2

    head = f"modem frames={args.frames} snr_db={args.snr:g} sir_db={args.sir:g}"
    head += f" sync_failures={args.frames - n_ok}"
    if n_ok == 0:
        print(head + " sync=failed")
        return 0
    evm = math.sqrt(evm_sq_sum / n_ok)
    sinr_evm = sinr_from_evm(evm)
    # levels in dBm are minus the rig's attenuations: the desired frame's 0 dB gives -0.0 dBm,
    # so an SIR of 0 dB without noise prints sinr_analytic_db=-0.000
    sinr_ref = sinr_analytic(-0.0, -args.sir, -args.snr)
    gap = sinr_evm - sinr_ref
    print(head + f" evm_rms={evm:.6e} sinr_evm_db={sinr_evm:.3f} sinr_analytic_db={sinr_ref:.3f} gap_db={gap:+.3f}")
    return 0


def _cmd_plan(args) -> int:
    if args.uavs < 1:
        raise UsageError("--uavs must be >= 1")
    try:
        plan = build_channel_plan(args.uavs, min_separation=args.separation)
    except ValueError as e:
        raise UsageError(str(e)) from e
    violations = validate_plan(plan)
    print(format_plan_table(plan))
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    return 0


def _cmd_place(args) -> int:
    try:
        table = read_sweep_csv(args.sweep_csv)
    except (OSError, ValueError) as e:
        raise DataError(str(e)) from e
    kind = ObjectiveKind(args.objective)
    try:
        best = best_record(table, PlacementObjective(kind))
    except ValueError as e:  # max-capacity over a row without capacity, e.g. a power sweep CSV
        raise DataError(f"{args.sweep_csv}: {e}") from e
    region = feasible_region(table, args.threshold)
    out = Path(args.out or Path(args.sweep_csv).with_name(Path(args.sweep_csv).stem + "_region.csv"))
    write_csv_columns(out, ["x_m", "y_m", "h_m"], [(region.x, ".3f"), (region.y, ".3f"), (region.h, ".3f")])
    print(f"wrote {out} ({len(region)} feasible positions, threshold {args.threshold:.2f} dBm)")
    unit = "dBm" if kind is ObjectiveKind.MIN_INTERFERENCE else "bps"
    print(
        f"best objective={args.objective} x_m={best.position.x:.3f} y_m={best.position.y:.3f} "
        f"h_m={best.position.z:.3f} value={best.value:.3f} {unit} index={best.index}"
    )
    return 0


# ---------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _float_or_inf(text: str) -> float:
    try:
        value = _threshold(text)
    except argparse.ArgumentTypeError:  # a NaN, rejected below with this flag's message
        value = -math.inf
    if value == -math.inf:  # NaN or -inf would push NaN samples through the receiver
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {text!r}")
    if value != math.inf and abs(value) > MAX_LEVEL_DB:
        raise argparse.ArgumentTypeError(f"expected a level within ±{MAX_LEVEL_DB:g} dB or 'inf', got {text!r}")
    return value


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # nothing compares with NaN: no point would ever be covered or feasible
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return value


@functools.cache  # parse_args keeps no state, so repeated in-process calls to main share one parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uavfd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run power and capacity sweeps for a scenario, write CSVs")
    p.add_argument("--scenario", help="scenario preset id (see --help of errors for the list)")
    p.add_argument("--engine", choices=["analytic", "waveform"], help="override the scenario engine")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--config", help="flat key=value config file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cdf", help="empirical CDF of interference power from a sweep CSV")
    p.add_argument("sweep_csv")
    p.add_argument("--threshold", type=_threshold, default=-95.0, help="coverage threshold in dBm")
    p.add_argument("--out", help="CDF CSV path")
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("modem", help="modem EVM/SINR calibration at a given SNR and SIR")
    p.add_argument("--snr", type=_float_or_inf, default=math.inf, help="per-subcarrier SNR in dB, or inf")
    p.add_argument("--sir", type=_float_or_inf, default=math.inf, help="signal-to-interference in dB, or inf")
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbols", type=int, default=28, help="OFDM data symbols per frame")
    p.add_argument("--dump-iq", help="dump the first impaired frame as float32 IQ")
    p.set_defaults(func=_cmd_modem)

    p = sub.add_parser("plan", help="print the channel-reuse plan table")
    p.add_argument("--uavs", type=int, required=True)
    p.add_argument(
        "--separation",
        type=int,
        default=1,
        help="min channel-index separation per UAV (the canonical two-UAV assignment uses adjacent indices)",
    )
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("place", help="feasible region and best interferer position from a sweep CSV")
    p.add_argument("sweep_csv")
    p.add_argument("--objective", choices=[k.value for k in ObjectiveKind], default="min-interference")
    p.add_argument("--threshold", type=_threshold, default=-95.0)
    p.add_argument("--out", help="region CSV path")
    p.set_defaults(func=_cmd_place)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
