"""Interleaved parent/change pairs of the valgrad benchmark, written as one
BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent ../valgrad-parent --change . \
        --pairs 10 --seed 91 --out BENCH_9.json

Both trees are git checkouts; the change tree's commit subject becomes the
file's ``what`` line, so commit the change before measuring it.  Each tree
runs its own ``perfbench/run.py`` (so each measures its own sources) with
``--trace 0``.  The workloads, the run length and the metrics with their
directions come from the change tree's BENCHMARK.json.  Within a pair every
workload runs once per side; the parent goes first in even pairs and the
change first in odd ones.  Per workload and metric the file holds each
side's median and quartiles (inclusive method), the pairs the change won and
tied, the ratio of the medians, a no-regression verdict against the
metric's bound (``verdict``) and whether the pairs show a gain (``gain``,
``met`` or ``not met``); every verdict other than ``ok`` is also printed to
stderr.  TRACED_RUNS traced seed-0 runs per workload and side add the
per-layer metrics, the side that goes first alternating from run to run;
``traced_seed0`` holds each layer metric's median and quartiles per side,
keyed by workload.
A run that fails or reports wrong output stops the tool with exit status 1
and writes nothing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# traced seed-0 runs per workload and side: one traced run moves by 20-30%
# on unchanged code, so a layer's before and after are read off medians
TRACED_RUNS = 5


def run_bench(tree, workload, seed, seconds, trace):
    """The result line and the env line of one perfbench run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}")
    result, env = json.loads(lines[-1]), json.loads(lines[-2][4:])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} in {tree} reported wrong output")
    return result, env


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(par, chg, sign, bound):
    """``worse`` if the change's median is worse than the parent's by more
    than ``bound`` times the parent's median; ``unresolved`` if the parent's
    quartile distance exceeds that margin and not every change run beats
    every parent run; ``ok`` otherwise.  ``sign`` is 1 where lower is
    better and -1 where higher is."""
    parent = spread(par)
    margin = bound * abs(parent["median"])
    if sign * (statistics.median(chg) - parent["median"]) > margin:
        return "worse"
    every_run_better = max(sign * c for c in chg) < min(sign * p for p in par)
    if parent["q3"] - parent["q1"] > margin and not every_run_better:
        return "unresolved"
    return "ok"


def gain(par, chg, sign):
    """``met`` if the change wins at least nine tenths of the pairs (a tie
    is no win) and its median beats the parent's by more than the parent's
    quartile distance; ``not met`` otherwise.  ``par`` and ``chg`` are the
    two sides' values in pair order, and ``sign`` is as for ``verdict``."""
    wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
    parent = spread(par)
    lead = sign * (parent["median"] - statistics.median(chg))
    met = 10 * wins >= 9 * len(par) and lead > parent["q3"] - parent["q1"]
    return "met" if met else "not met"


def summarize(runs, metrics):
    """Per workload and metric: both sides' spread, the pair counts, the
    no-regression verdict and whether a gain is shown (``gain``).
    ``metrics`` maps each metric's name to its BENCHMARK.json entry, which
    gives its direction (``better``) and its ``bound``."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        side = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
                for s in ("parent", "change")}
        rows = out.setdefault(workload, {})
        for name, spec in metrics.items():
            par = [r[name] for r in side["parent"]]
            chg = [r[name] for r in side["change"]]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            rows[name] = {
                "parent": spread(par),
                "change": spread(chg),
                "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(par, chg)),
                "tied_pairs": sum(c == p for p, c in zip(par, chg)),
                "change_over_parent": statistics.median(chg) / statistics.median(par),
                "verdict": verdict(par, chg, sign, spec["bound"]),
                "gain": gain(par, chg, sign),
            }
    return out


def summarize_traced(traced_runs):
    """Per workload and layer metric, each side's spread over its traced
    runs; ``traced_runs`` holds {"workload", "side", "metrics"} dicts, with
    ``metrics`` mapping a metric's name to its value.  A metric that only
    one side's benchmark emits gets only that side's spread."""
    out = {}
    for workload in sorted({r["workload"] for r in traced_runs}):
        side = {s: [r["metrics"] for r in traced_runs
                    if r["workload"] == workload and r["side"] == s]
                for s in ("parent", "change")}
        names = dict.fromkeys(name for runs in side.values() for name in runs[0])
        out[workload] = {name: {s: spread([m[name] for m in runs])
                                for s, runs in side.items() if name in runs[0]}
                         for name in names}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source tree")
    ap.add_argument("--change", type=Path, required=True, help="changed source tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs, envs = [], {}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result, envs[side] = run_bench(trees[side], workload, args.seed,
                                                   seconds, 0)
                    runs.append({"pair": pair, "workload": workload, "side": side,
                                 "correct": result["correct"],
                                 **{m: result["metrics"][m]["value"] for m in metrics}})
                    print(f"pair {pair} {workload} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
        traced_runs = []
        for run in range(TRACED_RUNS):
            order = ("parent", "change") if run % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result, _ = run_bench(trees[side], workload, 0, seconds, 1)
                    traced_runs.append({"workload": workload, "side": side, "metrics": {
                        k: v["value"] for k, v in result["metrics"].items()}})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workloads_summary = summarize(runs, metrics)
    for workload, rows in workloads_summary.items():
        for name, row in rows.items():
            if row["verdict"] != "ok":
                print(f"{workload} {name}: {row['verdict']}", file=sys.stderr)
    env = envs["change"]
    what = subprocess.run(["git", "log", "-1", "--format=%s"], cwd=trees["change"],
                          capture_output=True, text=True).stdout.strip()
    bench = {
        "what": what,
        "parent_commit": envs["parent"]["commit"],
        "change_commit": env["commit"],
        "src_sha256": {side: envs[side]["src_sha256"] for side in ("parent", "change")},
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                    "blas_threads": int(env["blas_threads"]), "python": env["python"],
                    "numpy": env["numpy"]},
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "seed": args.seed,
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs; "
                 f"{' then '.join(workloads)} in each pair",
        "workloads": workloads_summary,
        "runs": runs,
        "traced_seed0": {
            "command": "python3 perfbench/run.py --workload W --seed 0 "
                       f"--seconds {seconds:g} --trace 1",
            "runs_per_side": TRACED_RUNS,
            "order": "parent first in even runs, change first in odd runs",
            **summarize_traced(traced_runs),
        },
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
