"""uavfd benchmark: end-to-end throughput with tracing off, per-layer spans with tracing on.

Usage, from the root of a checkout:

    python3 bench/run.py --workload waveform-directional --seed 0 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 11      # every workload, one after another

Seed 11 is held out: tune a change on other seeds, then confirm it on 11.

One process, one thread, closed loop: the single caller issues the next
call only after the previous one returned.  A run sets up (inputs from
`--seed`, untimed), then repeats whole passes of the workload until the
next pass would end after `--seconds`.  Every pass's outputs are checked.

--trace 0 reports the end-to-end metrics: `setup_s` (median of fresh
processes that import uavfd and build and receive one warm-up frame),
`points_per_s` (points of all passes over their summed time; a point is a
grid point, or one decoded frame on modem-decode) and `peak_rss_mb`.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics listed in BENCHMARK.json (see `layers.MOVES`), each per pass (median over traced
passes), plus the tracing overhead.  The spans are written to
`.bench_build/uavfd-bench/` when the run ends.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  `failed / attempted` is the share of checked outputs that failed
their checks.  The run exits 2 without a result when the checkout holds no
`src/uavfd`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "uavfd-bench"
WORKLOADS = ("waveform-directional", "waveform-dipole", "modem-decode", "campaign-fine")
SETUP_PROBES = 11

# One thread: the closed loop has a single caller, and BLAS threads would add a second.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Runs in a fresh interpreter: what a CLI user pays before the first point.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import uavfd.cli
from uavfd import phy
p = phy.OfdmParams()
f = phy.build_frame(p, np.zeros(p.payload_bits(28), dtype=np.uint8))
phy.receive_frame(f.samples, p, f.data_symbols, decode=False)
print(time.perf_counter() - t0)
"""


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "uavfd").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    """HEAD's hash, with "+dirty" when `src/` differs from it; "unknown" outside a git checkout of ROOT."""
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=30,
        ).stdout.split()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    if Path(top).resolve() != ROOT:
        return "unknown"
    return head + ("+dirty" if dirty else "")


def run_context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "load": "closed loop, 1 client, 1 process, 1 thread",
    }


def measure_setup() -> list[float]:
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60, env=os.environ.copy(),
        )
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return values


def make_workload(name: str, seed: int):
    from workloads import CampaignFine, ModemDecode, WaveformSweep

    if name == "waveform-directional":
        return WaveformSweep("directional-0.1", seed)
    if name == "waveform-dipole":
        return WaveformSweep("dipole-0.1", seed, min_sync_failure_share=0.95)
    if name == "modem-decode":
        return ModemDecode(seed)
    return CampaignFine(seed, WORK_DIR / name)


def run_passes(workload, seconds: float, tracer=None):
    """Repeat passes until the next would end after `seconds`.

    With a tracer, passes alternate untraced and traced, starting untraced.
    Returns the passes as dicts and the per-output verdicts of all passes.
    """
    passes, verdicts = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        lo = len(tracer) if traced else 0
        if traced:
            tracer.counters.clear()
            tracer.install()
        t0 = time.perf_counter()
        outputs = workload.run(tracer.begin_call if traced else _no_call)
        wall = time.perf_counter() - t0
        record = {"wall_s": wall, "traced": traced}
        if traced:
            tracer.uninstall()
            record.update(spans=(lo, len(tracer)), counters=dict(tracer.counters))
        passes.append(record)
        verdicts.extend(workload.check(outputs))
        typical = statistics.median(p["wall_s"] for p in passes)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + typical > seconds:
            return passes, verdicts


def _no_call() -> None:
    pass


def run_one(args) -> int:
    if not (SRC / "uavfd" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'uavfd'} is missing")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import uavfd

    if Path(uavfd.__file__).resolve().parent != (SRC / "uavfd").resolve():
        _fail(f"imported uavfd from {uavfd.__file__}, not from {SRC}")

    from layers import layer_metrics
    from tracing import Tracer

    context = run_context(args.workload, args.seed, args.seconds, args.trace)
    print("context " + json.dumps(context, sort_keys=True))
    setup = measure_setup() if args.trace == 0 else []
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    passes, verdicts = run_passes(workload, args.seconds, tracer)
    failed = verdicts.count(False)
    plain = [p["wall_s"] for p in passes if not p["traced"]]

    if args.trace == 0:
        rates = [workload.items / w for w in plain]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "points_per_s": {"value": workload.items * len(plain) / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        print(f"samples setup_s n={len(setup)} {sorted(setup)}")
        print(f"samples points_per_s n={len(rates)} items_per_pass={workload.items} {sorted(rates)}")
    else:
        metrics = layer_metrics(tracer, passes)
        trace_path = WORK_DIR / f"trace-{args.workload}.npz"
        tracer.save(trace_path, pass_spans=[p["spans"] for p in passes if p["traced"]],
                    context=json.dumps(context))
        print(f"spans {len(tracer)} written to {trace_path.relative_to(ROOT)}")

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} check_fail_frac {failed / len(verdicts):.6g} ({failed}/{len(verdicts)} outputs)")
    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed, "metrics": metrics}
    (WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "passes": passes, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if line.startswith(name)))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
