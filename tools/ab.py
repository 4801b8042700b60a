"""Paired A/B runner: one bench workload's throughput in two source trees, with an A/A noise floor.

Usage, from anywhere:

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload waveform-dipole --seed 0 --rounds 12 --passes 30

Each tree is a checkout holding `src/uavfd` and `bench/` (for example a `git archive` of each
commit).  The workload is built by that tree's `bench/run.py` `make_workload`, so its `run()` comes
from `bench/workloads.py` unedited.  Every process is fresh and runs alone, with one BLAS thread: it
builds the workload, runs one untimed warm pass, then `--passes` timed passes, each checked after its
timer stops, and reports the median pass (Kalibera & Jones, ISMM 2013: repeat at both levels,
processes and in-process iterations).

A round runs three processes: parent, change and parent again, as [P, C, P'] in even rounds and
[P', C, P] in odd ones, so each side of both pairings goes first in half the rounds.  (P, C) is the
A/B pair and (P, P') the A/A pair, whose spread is the floor under which no A/B ratio means
anything.  The last stdout line is one JSON object with every process's points/s and the summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHILD = """
import json, statistics, sys, time
tree, name, seed, passes = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [tree + "/src", tree + "/bench"]
import run
workload = run.make_workload(name, seed)
noop = lambda: None
workload.check(workload.run(noop))  # warm: caches filled, lazy set-up done
walls, failed = [], 0
for _ in range(passes):
    t0 = time.perf_counter()
    outputs = workload.run(noop)
    walls.append(time.perf_counter() - t0)
    failed += sum(not ok for ok in workload.check(outputs))
print(json.dumps({"points_per_s": workload.items / statistics.median(walls), "failed": failed}))
"""


def run_child(tree: Path, args) -> dict:
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree), args.workload, str(args.seed), str(args.passes)],
        capture_output=True, text=True, check=True, timeout=600, env=env, cwd=tree,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], other: list[float]) -> dict:
    """Per-pair ratios other/base of points/s: their median and quartiles, and the pairs other won."""
    ratios = [o / b for b, o in zip(base, other)]
    q1, median, q3 = quartiles(ratios)
    won = sum(o > b for b, o in zip(base, other))
    return {"median_ratio": median, "ratio_q1": q1, "ratio_q3": q3, "won": f"{won}/{len(ratios)}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=lambda s: Path(s).resolve())
    ap.add_argument("change", type=lambda s: Path(s).resolve())
    ap.add_argument("--workload", default="waveform-dipole")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--passes", type=int, default=30)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "uavfd").is_dir() or not (tree / "bench" / "run.py").is_file():
            ap.error(f"{tree} holds no src/uavfd and bench/run.py")
    if args.rounds < 2 or args.passes < 1:
        ap.error("--rounds must be at least 2 and --passes at least 1")

    sides = {"parent": [], "change": [], "parent_again": []}
    failed, t0 = 0, time.perf_counter()
    for k in range(args.rounds):
        order = ("parent", "change", "parent_again") if k % 2 == 0 else ("parent_again", "change", "parent")
        for side in order:
            result = run_child(args.change if side == "change" else args.parent, args)
            sides[side].append(result["points_per_s"])
            failed += result["failed"]
        print(f"round {k}: " + "  ".join(f"{s} {sides[s][-1]:,.0f}" for s in sides), file=sys.stderr)

    ab, aa = summarize(sides["parent"], sides["change"]), summarize(sides["parent"], sides["parent_again"])
    q1, median, q3 = quartiles(sides["parent"])
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds of {args.passes} passes, "
          f"{time.perf_counter() - t0:.0f} s, failed {failed}")
    print(f"  parent points/s median {median:,.1f} (IQR {q3 - q1:,.1f})")
    for label, s in (("A/B change/parent", ab), ("A/A parent/parent", aa)):
        print(f"  {label}: median ratio {s['median_ratio']:.4f} "
              f"[{s['ratio_q1']:.4f}, {s['ratio_q3']:.4f}], won {s['won']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
                      "passes": args.passes, "failed": failed, "points_per_s": sides, "ab": ab, "aa": aa}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
