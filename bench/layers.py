"""Per-layer metrics of the traced run, and which end-to-end metric each should move.

Names are `<module>.<function>.<kind>`.  `calls` counts spans, `self_s` is
span time minus child-span time, both per pass.  The benchmark runs one
thread as a closed loop, so nothing waits on a queue, lock or peer: there
is no wait metric, and self times along the call chain add up to wall time.
`duplexing` is not measured: its calls take microseconds and no planned
optimisation touches it.

The names and units are those of `per_layer` in BENCHMARK.json.  Each
metric is listed here with the workloads on which it should move the
end-to-end `points_per_s` (grid points, or decoded frames on modem-decode,
per second); a later change that claims a gain names its entry here.  On
the other workloads the prediction is no change.
"""

import json
import statistics
from pathlib import Path

import numpy as np

from tracing import summarize

WAVEFORM = ("waveform-directional", "waveform-dipole")
CAMPAIGN = ("campaign-fine",)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# name -> workloads whose points_per_s it should move
MOVES = {
    "phy.fec.fec_decode.calls": ("modem-decode",),  # 0 on the sweeps
    "phy.fec.fec_decode.self_s": ("modem-decode",),
    "phy.fec.decode_bits_per_s": ("modem-decode",),
    "phy.fec.fec_encode.self_s": WAVEFORM,
    "phy.modem.build_frame.calls": WAVEFORM,
    "phy.modem.build_frame.self_s": WAVEFORM,
    "phy.modem.map_16qam.self_s": WAVEFORM,
    "phy.modem.body_stream.calls": WAVEFORM,
    "phy.modem.impair.calls": WAVEFORM,
    "phy.modem.impair.self_s": WAVEFORM,
    "phy.modem.demap_16qam.self_s": ("modem-decode",),
    "phy.receiver.synchronize.calls": WAVEFORM,
    "phy.receiver.synchronize.self_s": WAVEFORM,
    # an outcome, not a cost: it must not move (about 435/496 directional, 0 dipole)
    "phy.receiver.sync_ok_ratio": WAVEFORM,
    # demod, equalisation and EVM: moves directional, leaves dipole (no sync) unchanged
    "phy.receiver.receive_frame.self_s": ("waveform-directional",),
    "phy.fft.calls": WAVEFORM,
    "phy.fft.self_s": WAVEFORM,
    "phy.fft.bytes_computed": WAVEFORM,
    "campaign.run_power_sweep.self_s": WAVEFORM + CAMPAIGN,
    "campaign.run_capacity_sweep.self_s": WAVEFORM + CAMPAIGN,
    "campaign.write_sweep_csv.self_s": CAMPAIGN,
    "campaign.write_sweep_csv.rows": CAMPAIGN,
    "campaign.read_sweep_csv.self_s": CAMPAIGN,
    "campaign.mirror_symmetry.self_s": CAMPAIGN,
    # calls per point are what an array path collapses; no change predicted on the waveform runs
    "propagation.link_gain_db.calls": CAMPAIGN,
    "propagation.link_gain_db.self_s": CAMPAIGN,
    "propagation.fspl_db.calls": CAMPAIGN,
    "antenna.gain_db.calls": CAMPAIGN,
    "antenna.gain_db.self_s": CAMPAIGN,
    "geometry.distance.calls": CAMPAIGN,
    "geometry.boresight_offset.calls": CAMPAIGN,
    "metrics.cdf.self_s": CAMPAIGN,
    "metrics.cdf_at.self_s": CAMPAIGN,
    "metrics.sinr_analytic.calls": CAMPAIGN,
    "metrics.capacity_fd.calls": CAMPAIGN,
    "placement.best_record.self_s": CAMPAIGN,
    "placement.feasible_region.self_s": CAMPAIGN,
    # config parsing, argparse and the CDF and region CSV writes
    "cli.main.calls": CAMPAIGN,
    "cli.main.self_s": CAMPAIGN,
    # traced pass wall time minus untraced pass wall time
    "trace.overhead_s": (),
    # pass wall time that no top-level span covers
    "trace.unattributed_s": (),
}


def _per_pass(tracer, traced_pass) -> dict[str, float]:
    lo, hi = traced_pass["spans"]
    s = summarize(tracer, lo, hi)
    counters = traced_pass["counters"]
    values = {}
    for span, n in s["calls"].items():
        values[f"{span}.calls"] = n
        values[f"{span}.self_s"] = s["self_s"][span]
    decode_s = values.get("phy.fec.fec_decode.self_s", 0.0)
    values["phy.fec.decode_bits_per_s"] = counters.get("phy.fec.decoded_bits", 0) / decode_s if decode_s else 0.0
    sync_calls = values.get("phy.receiver.synchronize.calls", 0)
    values["phy.receiver.sync_ok_ratio"] = counters.get("phy.receiver.sync_ok", 0) / sync_calls if sync_calls else 0.0
    for key in ("phy.fft.bytes_computed", "campaign.write_sweep_csv.rows"):
        values[key] = counters.get(key, 0)
    values["trace.unattributed_s"] = traced_pass["wall_s"] - s["top_level_s"]
    return values


def layer_metrics(tracer, passes) -> dict[str, dict]:
    """Median over traced passes of each per-layer metric, as {name: {value, unit}}."""
    per_pass = [_per_pass(tracer, p) for p in passes if p["traced"]]
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    plain_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    out = {}
    for spec in json.loads(BENCHMARK_JSON.read_text())["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_s":
            value = traced_wall - plain_wall
        else:
            value = float(np.median([v.get(name, 0) for v in per_pass]))
        out[name] = {"value": value, "unit": unit}
    return out
