"""One valgrad benchmark workload, run in a fresh process.

``run.py`` starts this file with the BLAS thread count pinned in the
environment; see NOTES.md for the workloads and metrics.  The process
imports the package, builds the first pass's inputs (that is its set-up
time), then runs timed passes on those inputs until ``--seconds`` have
passed, and checks every pass's outputs.

    python3 perfbench/workloads.py --workload grid --seed 0 --seconds 30 \
        --trace 0 --result perfbench/out/grid.json

``--setup-only`` stops after set-up; ``--tiny`` shrinks every size for the
smoke test.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from before the imports

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import valgrad.cli
import valgrad.estimators as E
import valgrad.linalg as L
import valgrad.problems as P
import valgrad.rates as R
import valgrad.solvers as S
from tracer import Tracer

REFERENCE_DIR = HERE / "reference"
GRID_REFERENCE = REFERENCE_DIR / "grid_seed0.npz"
SENSITIVITY_REFERENCE = REFERENCE_DIR / "sensitivity_seed0.npz"

# valgrad's own settings, restated so the checks do not trust the program
LAM = 2.0
CROSS_CHECK_TOL = 1e-4  # ExperimentConfig.cross_check_tol, the oracle's accuracy
SENSITIVITY_REF_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-8
INERTIAL_OF = {"gd": "heavy_ball", "ista": "ipiasco"}
PROBLEMS = (1, 2, 3, 4)

FULL = {
    "grid": {"n": 50, "p_list": (10, 30, 50, 70, 90), "iterations": 250},
    "sensitivity": {"n": 400, "p": 300, "iterations": 250},
}
TINY = {
    "grid": {"n": 8, "p_list": (3, 5), "iterations": 10},
    "sensitivity": {"n": 12, "p": 8, "iterations": 10},
}


def cell_seed(seed, which, p):
    """The data seed run_grid gives cell (which, p)."""
    return seed * 7919 + 101 * which + p


def primal_methods(which):
    base = "gd" if which in (1, 2) else "ista"
    return base, INERTIAL_OF[base]


def dual_method(which, primal):
    """Squared-norm losses give a smooth dual; Huber losses a ball prox."""
    base = "gd" if which in (1, 3) else "ista"
    return INERTIAL_OF[base] if primal in INERTIAL_OF.values() else base


class Outcome:
    """Operations attempted and failed in one pass, with the reasons.

    An operation the program itself reports as failed, such as a grid cell
    aborted on its ground-truth cross-check, counts as failed while the
    outputs stay correct; any other failed check means wrong output.
    """

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed_ops = set()
        self.correct = True
        self.notes = []

    def fail(self, op, why, wrong=True):
        self.correct = self.correct and not wrong
        if op not in self.failed_ops:
            self.failed_ops.add(op)
            self.notes.append(f"{op}: {why}")


# ---------------------------------------------------------------------------
# grid: `valgrad run` at its defaults; one operation is one (problem, P) cell


def grid_keys(size):
    keys = set()
    last = size["iterations"]
    for which in PROBLEMS:
        for p in size["p_list"]:
            for solver in primal_methods(which):
                cell = (f"f{which}", p)
                keys |= {(*cell, solver, est, i)
                         for est in ("primal", "ang", "aug") for i in range(last + 1)}
                keys.add((*cell, solver, "ig", last))
                dual = dual_method(which, solver)
                keys |= {(*cell, dual, "dg", i) for i in range(last + 1)}
    return keys


def grid_build(seed, size, workdir):
    argv = ["run", "--seed", str(seed)]
    if size is not FULL["grid"]:
        argv += ["--n", str(size["n"]), "--p", ",".join(map(str, size["p_list"])),
                 "--iters", str(size["iterations"])]
    return {"argv": argv, "workdir": workdir, "seed": seed}


def grid_pass(inputs):
    """Exit status and printed report of `valgrad run`, and the directory it
    wrote; the status is None if it raised."""
    out = Path(tempfile.mkdtemp(prefix="grid-", dir=inputs["workdir"]))
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            rc = valgrad.cli.main(inputs["argv"] + ["--out", str(out)])
    except Exception:  # an operation that raises has failed
        traceback.print_exc()
        rc = None
    return rc, report.getvalue(), out


def read_grid_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["problem", "P", "solver", "estimator", "iteration", "error", "wall_ns"]:
            raise ValueError(f"unexpected header {header}")
        rows = {}
        for problem, p, solver, est, it, err, wall_ns in reader:
            int(wall_ns)  # raises on a malformed timing column
            rows[(problem, int(p), solver, est, int(it))] = float(err)
    return rows


def grid_digest(out):
    """sha256 of results.csv without its wall_ns column, and of the SVGs."""
    text = (out / "results.csv").read_text(encoding="utf-8")
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    svgs = hashlib.sha256()
    for path in sorted((out / "plots").glob("*.svg")):
        svgs.update(path.name.encode() + b"\0" + path.read_bytes())
    return hashlib.sha256(stripped.encode()).hexdigest(), svgs.hexdigest()


def grid_check(inputs, output, size, info):
    rc, report, out = output
    cells = [(f"f{w}", p) for w in PROBLEMS for p in size["p_list"]]
    outcome = Outcome(len(cells))
    try:
        if rc is None:
            for cell in cells:
                outcome.fail(cell, "valgrad run raised")
            return outcome
        aborted = {(m[1], int(m[2])): m[3] for m in re.finditer(
            r"^aborted (f\d) P=(\d+): (.*)$", report, re.MULTILINE)}
        if rc != (1 if aborted else 0):
            outcome.fail("exit status", f"valgrad run exited {rc}")
        expected = {k for k in grid_keys(size) if k[:2] not in aborted}
        for cell, why in aborted.items():
            outcome.fail(cell, f"aborted: {why}", wrong=False)
        try:
            rows = read_grid_csv(out / "results.csv")
        except (OSError, ValueError) as exc:
            for cell in cells:
                outcome.fail(cell, f"results.csv unreadable: {exc}")
            return outcome
        for key in rows.keys() - expected:
            outcome.fail(key[:2], f"unexpected record {key}")
        for key in expected - rows.keys():
            outcome.fail(key[:2], "missing records")
        for key, err in rows.items():
            if not (math.isfinite(err) and err >= 0):
                outcome.fail(key[:2], f"bad error {err} at {key}")
        svgs = {p.name for p in (out / "plots").glob("*.svg") if p.stat().st_size > 0}
        wanted = {f"{problem}_P{p}.svg" for problem, p in cells if (problem, p) not in aborted}
        if svgs != wanted:
            outcome.fail("plots", f"{len(svgs)} SVGs for {len(wanted)} cells")
        if inputs["seed"] == 0 and size is FULL["grid"] and not outcome.failed_ops:
            ref = np.load(GRID_REFERENCE)
            keys = sorted(expected)
            errors = np.array([rows[k] for k in keys])
            bad = np.abs(errors - ref["errors"]) > CROSS_CHECK_TOL
            for i in np.flatnonzero(bad):
                outcome.fail(keys[i][:2], f"error off the seed reference at {keys[i]}")
            csv_sha, svg_sha = grid_digest(out)
            info["csv_identical_to_seed"] = csv_sha == str(ref["csv_sha256"])
            info["svg_identical_to_seed"] = svg_sha == str(ref["svg_sha256"])
        return outcome
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------------------
# sensitivity: the estimator phase without the oracle; one operation is one
# (problem, method) pipeline


def sensitivity_build(seed, size, workdir):
    n, p = size["n"], size["p"]
    cases = []
    for which in PROBLEMS:
        a, u = L.seeded_problem_data(n, p, cell_seed(seed, which, p))
        cases.append((which, P.make_experiment_problem(which, a, LAM), u))
    return {"cases": cases, "seed": seed, "iterations": size["iterations"]}


def sensitivity_pass(inputs):
    """Final estimates per (problem, method), or the exception it raised."""
    iterations = inputs["iterations"]
    finals = {}
    for which, pr, u in inputs["cases"]:
        for method in primal_methods(which):
            try:
                run = E.run_primal(pr, u, method, iterations=iterations)
                bare = E.run_primal(pr, u, method, iterations=iterations,
                                    with_sensitivity=False)
                cfg = S.SolverConfig(method=dual_method(which, method), iterations=iterations)
                finals[(which, method)] = {
                    "x": run.final,
                    "x_bare": bare.final,
                    "ang": E.analytic_estimator(pr, run.points, u).final,
                    "aug": E.automatic_estimator(pr, run, u).final,
                    "ig": E.implicit_estimator(pr, run.final, u).final,
                    "dg": E.dual_estimator(pr, u, cfg).final,
                }
                del run, bare  # one Jacobian store alive at a time
            except Exception as exc:  # an operation that raises has failed
                traceback.print_exc()
                finals[(which, method)] = exc
        try:
            R.rate_report(pr)
        except Exception as exc:
            traceback.print_exc()
            finals[(which, primal_methods(which)[1])] = exc
    return finals


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def sensitivity_check(inputs, finals, size, info):
    outcome = Outcome(len(finals))
    ref = None
    if inputs["seed"] == 0 and size is FULL["sensitivity"]:
        ref = np.load(SENSITIVITY_REFERENCE)
    cases = {which: (pr, u) for which, pr, u in inputs["cases"]}
    for (which, method), got in finals.items():
        op = (f"f{which}", method)
        if isinstance(got, Exception):
            outcome.fail(op, f"raised {got!r}")  # no documented failure mode
            continue
        if not all(np.all(np.isfinite(v)) for v in got.values()):
            outcome.fail(op, "non-finite estimate")
            continue
        if not np.allclose(got["x_bare"], got["x"], rtol=1e-9, atol=1e-12):
            outcome.fail(op, "bare run_primal iterates differ from the sensitivity run")
        if which == 1:
            pr, u = cases[1]
            _, grad = P.closed_form_f1(pr.a, LAM, u)
            rel = _rel(got["ig"], grad)
            info["f1_ig_closed_form_rel"] = max(rel, info.get("f1_ig_closed_form_rel", 0.0))
            if rel > CLOSED_FORM_RTOL:
                outcome.fail(op, f"ig off the closed form by {rel:.2e}")
        if ref is not None:
            for est in ("ang", "aug", "ig", "dg"):
                rel = _rel(got[est], ref[f"f{which}_{method}_{est}"])
                if rel > SENSITIVITY_REF_RTOL:
                    outcome.fail(op, f"{est} off the seed reference by {rel:.2e}")
    return outcome


WORKLOADS = {
    "grid": (grid_build, grid_pass, grid_check),
    "sensitivity": (sensitivity_build, sensitivity_pass, sensitivity_check),
}


# ---------------------------------------------------------------------------


def timed(fn, *args):
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return result, wall, cpu


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    build, run_pass, check = WORKLOADS[args.workload]
    size = (TINY if args.tiny else FULL)[args.workload]
    workdir = args.result.parent
    inputs = build(args.seed, size, workdir)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "env": environment()}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    passes = []
    info = {}

    def record(inputs, output, wall, cpu):
        outcome = check(inputs, output, size, info)
        passes.append({"wall_s": wall, "cpu_s": cpu, "correct": outcome.correct,
                       "attempted": outcome.attempted,
                       "failed": min(len(outcome.failed_ops), outcome.attempted),
                       "notes": outcome.notes})

    if args.trace:
        record(inputs, *timed(run_pass, inputs))
        tracer = Tracer()
        tracer.install()
        try:  # the checks stay outside the trace
            traced_inputs = build(args.seed, size, workdir)
            traced = timed(run_pass, traced_inputs)
        finally:
            tracer.uninstall()
        record(traced_inputs, *traced)
        overhead = passes[1]["wall_s"] - passes[0]["wall_s"]
        result["layers"] = tracer.layer_metrics(overhead)
        trace_path = workdir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()))
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            record(inputs, *timed(run_pass, inputs))

    result["passes"] = passes
    result["info"] = info
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
