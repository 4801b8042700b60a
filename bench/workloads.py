"""The four benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed when it is constructed
(untimed), then `run(begin_call)` drives the public API once as a closed
loop and `check(outputs)` returns one bool per checked output (a grid
point, a frame, a file or a whole-pass criterion).  `items` is the number
of grid points or frames one pass completes.

Workloads look the program's functions up on their modules at call time,
so the tracer's wrappers see every call the benchmark issues.
"""

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from uavfd import campaign, cli, phy

# Analytic SINR of the modem-decode workload: SNR 15 dB and SIR 20 dB combined.
MODEM_SNR_DB = 15.0
MODEM_SIR_DB = 20.0
MODEM_SINR_DB = -10.0 * math.log10(10.0 ** (-MODEM_SNR_DB / 10.0) + 10.0 ** (-MODEM_SIR_DB / 10.0))

GOLDEN_SHA256 = Path(__file__).with_name("golden_sha256.json")
CAMPAIGN_PRESETS = ("directional-0.1", "directional-1.8", "dipole-0.1", "tdd-baseline")
TDD_CAPACITY_BPS = 11.6e6


def shannon_bps(bandwidth_hz: float, sinr_db: float) -> float:
    return bandwidth_hz * math.log2(1.0 + 10.0 ** (sinr_db / 10.0))


def check_sweep_points(analytic_sinr_db, records, bandwidth_hz: float) -> list[bool]:
    """One verdict per grid point of a waveform capacity sweep.

    A point fails when sync failed although the analytic SINR is >= 0 dB,
    when sync failed but the capacity is not 0, when it synced but its
    capacity is not the Shannon capacity of its SINR, or when it synced and
    its SINR is more than 1.0 dB (criterion 10) off the analytic SINR
    where that lies in [0, 25] dB.
    """
    if len(records) != len(analytic_sinr_db):
        return [False] * max(len(records), len(analytic_sinr_db))
    verdicts = []
    for analytic, r in zip(analytic_sinr_db, records):
        if not r.sync_ok:
            ok = analytic < 0.0 and r.capacity_bps == 0.0
        else:
            ok = (
                r.sinr_db is not None
                and r.capacity_bps is not None
                and r.capacity_bps > 0.0
                and math.isclose(r.capacity_bps, shannon_bps(bandwidth_hz, r.sinr_db), rel_tol=1e-9)
                and not (0.0 <= analytic <= 25.0 and abs(r.sinr_db - analytic) > 1.0)
            )
        verdicts.append(ok)
    return verdicts


def check_campaign_files(out_dir: Path, golden: dict[str, str]) -> list[bool]:
    """One verdict per golden file: present with the recorded SHA-256."""
    verdicts = []
    for name, digest in sorted(golden.items()):
        path = out_dir / name
        verdicts.append(path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() == digest)
    return verdicts


class WaveformSweep:
    """`run_capacity_sweep` with the waveform engine over the default 496-point grid."""

    def __init__(self, preset: str, seed: int, min_sync_failure_share: float | None = None):
        self.scenario = replace(campaign.builtin_scenarios()[preset], engine="waveform")
        self.grid = campaign.GridSpec()
        self.seed = seed
        self.min_sync_failure_share = min_sync_failure_share
        analytic = campaign.run_capacity_sweep(replace(self.scenario, engine="analytic"), self.grid, seed)
        self.analytic_sinr_db = [r.sinr_db for r in analytic]
        self.items = len(analytic)

    def run(self, begin_call):
        begin_call()
        return campaign.run_capacity_sweep(self.scenario, self.grid, self.seed)

    def check(self, records) -> list[bool]:
        verdicts = check_sweep_points(self.analytic_sinr_db, records, self.scenario.bandwidth_hz)
        if self.min_sync_failure_share is not None:
            failures = sum(1 for r in records if not r.sync_ok)
            # criterion 07: the dipole scene loses sync almost everywhere
            verdicts.append(failures >= self.min_sync_failure_share * max(1, len(records)))
        return verdicts


class ModemDecode:
    """16 frames of 28 symbols: build, interferer stream, impair, receive with Viterbi decode."""

    FRAMES = 16
    SYMBOLS = 28

    def __init__(self, seed: int):
        self.params = phy.OfdmParams()
        n_bits = self.params.payload_bits(self.SYMBOLS)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30DE]))
        self.payloads = rng.integers(0, 2, (self.FRAMES, n_bits), dtype=np.uint8)
        self.interferer_payloads = rng.integers(0, 2, (self.FRAMES, n_bits), dtype=np.uint8)
        self.impair_seeds = [int(s) for s in rng.integers(0, 2**32, self.FRAMES)]
        self.noise_dbm = phy.noise_power_for_subcarrier_snr(self.params, MODEM_SNR_DB, self.SYMBOLS)
        self.items = self.FRAMES

    def run(self, begin_call):
        results = []
        for k in range(self.FRAMES):
            begin_call()
            frame = phy.build_frame(self.params, self.payloads[k])
            interferer = phy.build_frame(self.params, self.interferer_payloads[k], pilot_stream=1).body_stream()
            mixed = phy.impair(
                frame,
                interferer,
                atten_desired_db=0.0,
                atten_interferer_db=MODEM_SIR_DB,
                noise_power_dbm=self.noise_dbm,
                seed=self.impair_seeds[k],
            )
            results.append(phy.receive_frame(mixed, self.params, frame.data_symbols, decode=True))
        return results

    def check(self, results) -> list[bool]:
        """Per frame: synced and every payload bit right; per pass: EVM SINR within 0.5 dB (criterion 04)."""
        verdicts = [
            rx.sync_success and rx.payload is not None and np.array_equal(rx.payload, sent)
            for rx, sent in zip(results, self.payloads)
        ]
        evms = [rx.evm_rms for rx in results if rx.sync_success]
        sinr_db = -10.0 * math.log10(np.mean(np.square(evms))) if evms else -math.inf
        verdicts.append(len(results) == self.FRAMES and abs(sinr_db - MODEM_SINR_DB) <= 0.5)
        return verdicts


class CampaignFine:
    """`uavfd sweep --engine analytic`, `cdf` and `place --objective max-capacity`
    on all four presets, over a 0.5 m grid set through a config file."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.out_dir = work_dir / "campaign"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for preset in CAMPAIGN_PRESETS:
            cfg = work_dir / f"{preset}.cfg"
            cfg.write_text(f"scenario = {preset}\ngrid.x_step = 0.5\ngrid.y_step = 0.5\n")
            self.configs[preset] = cfg
        grid = campaign.GridSpec(x_step_m=0.5, y_step_m=0.5)
        self.items = len(CAMPAIGN_PRESETS) * len(grid.x_values()) * len(grid.y_values())
        self.golden = json.loads(GOLDEN_SHA256.read_text())

    def run(self, begin_call):
        out = str(self.out_dir)
        codes = []
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            for preset in CAMPAIGN_PRESETS:
                begin_call()
                codes.append(
                    cli.main(
                        ["sweep", "--config", str(self.configs[preset]), "--engine", "analytic",
                         "--seed", str(self.seed), "--out", out]
                    )
                )
                begin_call()
                codes.append(cli.main(["cdf", f"{out}/{preset}_power.csv"]))
                begin_call()
                codes.append(cli.main(["place", f"{out}/{preset}_capacity.csv", "--objective", "max-capacity"]))
        return codes, stdout.getvalue()

    def check(self, outputs) -> list[bool]:
        """Per file: SHA-256 as recorded; per pass: every command exits 0, best FD >= 3x TDD
        (criterion 08) and TDD constant at 11.6 Mbps."""
        codes, text = outputs
        verdicts = check_campaign_files(self.out_dir, self.golden)
        best = [float(line.split("value=")[1].split()[0]) for line in text.splitlines() if line.startswith("best ")]
        tdd = self._column(self.out_dir / "tdd-baseline_capacity.csv", "capacity_bps")
        tdd_ok = bool(tdd) and all(v == tdd[0] for v in tdd) and abs(tdd[0] - TDD_CAPACITY_BPS) < 0.05e6
        verdicts.append(all(c == 0 for c in codes))
        verdicts.append(len(best) == len(CAMPAIGN_PRESETS) and best[0] >= 3.0 * TDD_CAPACITY_BPS)
        verdicts.append(tdd_ok)
        for path in self.out_dir.iterdir():
            path.unlink()
        return verdicts

    @staticmethod
    def _column(path: Path, name: str) -> list[float]:
        if not path.is_file():
            return []
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index(name)
        return [float(line.split(",")[col]) for line in lines[1:]]
