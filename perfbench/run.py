"""valgrad benchmark: one workload, end-to-end or traced, with checked outputs.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/`` with no install step.  Each measuring run is a fresh child process
(``workloads.py``) with the BLAS threads pinned to one.  With ``--trace 0``
it prints the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones from a traced pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it records the environment.  Full results, and the spans of a
traced run, go under ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread: on a shared 2-core machine a second thread made the
# default grid slower and its wall time less steady.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 9  # set-up samples per run, the measuring child's included
CHILD_TIMEOUT_S = 170


def source_identity():
    """sha256 over src/valgrad, and the git commit when there is one."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "valgrad").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"src_sha256": digest.hexdigest(), "commit": commit}


def run_child(args, result_path, *extra):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path), *extra]
    if args.tiny:
        cmd.append("--tiny")
    result_path.unlink(missing_ok=True)
    # the child's own output would break the one-JSON-last-line contract
    proc = subprocess.run(cmd, env={**os.environ, **BLAS_ENV}, cwd=ROOT,
                          stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("grid", "sensitivity"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "valgrad" / "__init__.py").is_file():
        print(f"error: no valgrad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setup = run_child(args, OUT / f"{stem}-setup{i}.json", "--setup-only")
                setup_samples.append(setup["setup_s"])
        result = run_child(args, OUT / f"{stem}.json")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(result["setup_s"])

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for note in p["notes"]:
            print(note, file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "ops_ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    env = {**result["env"], **source_identity(), "passes": len(passes), **result["info"]}
    print("env " + json.dumps(env, sort_keys=True))
    correct = all(p["correct"] for p in passes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
