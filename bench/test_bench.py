"""Self-tests of the benchmark's checks and tracer: `python3 -m pytest bench`."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from tracing import Tracer, self_times_ns, summarize  # noqa: E402
from uavfd import campaign  # noqa: E402
from workloads import CampaignFine, check_sweep_points  # noqa: E402


def _fail_frac(verdicts) -> float:
    return verdicts.count(False) / len(verdicts)


def test_corrupted_sweep_record_raises_fail_frac():
    scenario = replace(campaign.builtin_scenarios()["directional-0.1"], engine="waveform")
    grid = campaign.GridSpec(x_start_m=40.0, x_end_m=60.0, x_step_m=10.0, y_start_m=0.0, y_end_m=4.0, y_step_m=2.0)
    analytic = [r.sinr_db for r in campaign.run_capacity_sweep(replace(scenario, engine="analytic"), grid, 3)]
    records = campaign.run_capacity_sweep(scenario, grid, 3)
    assert _fail_frac(check_sweep_points(analytic, records, scenario.bandwidth_hz)) == 0.0

    synced = next(i for i, r in enumerate(records) if r.sync_ok)
    records[synced] = replace(records[synced], capacity_bps=0.0)
    verdicts = check_sweep_points(analytic, records, scenario.bandwidth_hz)
    assert verdicts.count(False) == 1 and not verdicts[synced]


def test_wrong_golden_digest_raises_fail_frac(tmp_path):
    workload = CampaignFine(0, tmp_path)
    assert _fail_frac(workload.check(workload.run(lambda: None))) == 0.0

    name = sorted(workload.golden)[0]
    workload.golden = {**workload.golden, name: "0" * 64}
    verdicts = workload.check(workload.run(lambda: None))
    assert verdicts.count(False) == 1


def test_parent_self_time_never_negative():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    inner = tracer.wrap("inner", inner)

    def outer(n):
        return inner(n) + inner(2 * n)

    outer = tracer.wrap("outer", outer)
    for n in range(200):
        tracer.begin_call()
        outer(n)
    s = summarize(tracer, 0, len(tracer))
    assert s["calls"] == {"inner": 400, "outer": 200}
    assert min(s["self_s"].values()) >= 0.0

    a = tracer.arrays()
    self_ns = self_times_ns(a["parent"], a["t0_ns"], a["t1_ns"])
    assert np.all(self_ns >= 0)
    # self times along the chain add up to the top-level wall time
    top = a["parent"] < 0
    assert self_ns.sum() == (a["t1_ns"][top] - a["t0_ns"][top]).sum()
    # all spans of one outer call share its call id
    assert np.array_equal(a["call_id"][a["parent"] >= 0], a["call_id"][a["parent"][a["parent"] >= 0]])

    # children covering the whole parent leave it exactly zero self time
    parent = np.array([-1, 0, 0])
    t0 = np.array([100, 100, 150])
    t1 = np.array([200, 150, 200])
    assert self_times_ns(parent, t0, t1).tolist() == [0, 50, 50]


def test_uninstall_restores_the_program():
    from uavfd import phy
    from uavfd.phy import modem

    originals = (campaign.build_frame, phy.build_frame, modem.FrameBuffer.body_stream, np.fft.fft)
    tracer = Tracer()
    tracer.install()
    assert campaign.build_frame is not originals[0] and np.fft.fft is not originals[3]
    tracer.uninstall()
    assert (campaign.build_frame, phy.build_frame, modem.FrameBuffer.body_stream, np.fft.fft) == originals

