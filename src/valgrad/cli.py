"""Command-line interface.

Subcommands: ``run`` (experiment grid with CSV and SVG output), ``verify``
(dual estimator against the finite-difference oracle), ``rates``
(convergence-factor table) and ``toy`` (the three scalar counterexamples:
each estimate's final value, the truth and the u each example ran at).
A flat ``key = value`` config file can override any defaults.

Exit codes: 0 success; 1 a failed verification or an aborted grid cell;
2 bad input: an invalid argument or config file (``ConfigError``) or a file
that cannot be read or written; 3 a numerical failure, a linear-algebra
routine that raised ``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .estimators import dual_estimator, fd_oracle, run_toy
from .harness import PROBLEMS, ConfigError, ExperimentConfig, emit_csv, emit_plots, run_grid
from .linalg import seeded_problem_data
from .problems import ToyProblem, make_experiment_problem
from .rates import RateUnavailable, rate_report
from .solvers import SolverConfig

_CONFIG_TYPES = {
    "n": int, "p": str, "problems": str, "seed": int, "iters": int,
    "lam": float, "gamma": float, "delta": float, "cond": float,
    "out": str, "inertia": str, "tol": float, "u": float, "problem": str,
    "identity": lambda s: s.lower() in ("1", "true", "yes"),
}

# argument -> (test, requirement): the values no command can run with
_ARG_CHECKS = {
    "n": (lambda v: v >= 1, "at least 1"),
    "cond": (lambda v: v >= 1.0, "at least 1"),
    "lam": (lambda v: v > 0, "positive"),
    "gamma": (lambda v: v >= 0, "nonnegative"),
    "delta": (lambda v: v > 0, "positive"),
    "iters": (lambda v: v >= 0, "nonnegative"),
    "u": (lambda v: v > 0, "positive"),
    "problem": (lambda v: v in PROBLEMS, f"one of {', '.join(PROBLEMS)}"),
}


def parse_config(path: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _build_parser(defaults=None):
    """The full parser; ``defaults`` (config-file values) replace the
    subcommands' defaults, so explicit flags still win."""
    parser = argparse.ArgumentParser(
        prog="valgrad",
        description="Gradient estimation for value functions of parametric convex problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file overriding defaults")
        p.add_argument("--n", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cond", type=float, default=100.0)
        p.add_argument("--lam", "--lambda", dest="lam", type=float, default=2.0)
        p.add_argument("--gamma", type=float, default=0.1)
        p.add_argument("--delta", type=float, default=0.1)

    run_p = sub.add_parser("run", help="run the experiment grid")
    common(run_p)
    run_p.add_argument("--p", default="10,30,50,70,90", help="comma-separated P values")
    run_p.add_argument("--problems", default="f1,f2,f3,f4")
    run_p.add_argument("--iters", type=int, default=250)
    run_p.add_argument("--inertia", choices=("both", "on", "off"), default="both")
    run_p.add_argument("--out", default="out")

    ver_p = sub.add_parser("verify", help="check the dual estimator against finite differences")
    common(ver_p)
    ver_p.add_argument("--problem", default="f2")
    ver_p.add_argument("--p", type=int, default=10)
    ver_p.add_argument("--iters", type=int, default=2000)
    ver_p.add_argument("--tol", type=float, default=1e-4)

    rates_p = sub.add_parser("rates", help="print the convergence-factor table")
    common(rates_p)
    rates_p.add_argument("--problem", default="f1")
    rates_p.add_argument("--p", type=int, default=30)
    rates_p.add_argument("--identity", action="store_true", help="use A = I (square)")

    toy_p = sub.add_parser("toy", help="run the scalar counterexamples")
    toy_p.add_argument("--config", help="key = value file overriding defaults")
    toy_p.add_argument("--u", type=float, default=0.5)
    toy_p.add_argument("--iters", type=int, default=200)
    for p in (run_p, ver_p, rates_p, toy_p):
        p.set_defaults(**(defaults or {}))
    return parser


def _p_values(text) -> tuple:
    """The comma-separated P values of ``--p``; raises ``ConfigError``."""
    try:
        values = tuple(int(s) for s in str(text).split(","))
    except ValueError:
        raise ConfigError(f"--p must be comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise ConfigError(f"--p values must be at least 1, got {text!r}")
    return values


def _check_args(args) -> None:
    """Raise ``ConfigError`` for an argument value no command can run with."""
    for name, (ok, need) in _ARG_CHECKS.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ConfigError(f"--{name} must be {need}, got {value!r}")
    if hasattr(args, "p"):
        _p_values(args.p)


def _make_problem(args):
    which = int(args.problem[1])
    if getattr(args, "identity", False):
        a = np.eye(args.n)
        u = seeded_problem_data(args.n, args.n, args.seed, 1.0)[1]
    else:
        a, u = seeded_problem_data(args.n, args.p, args.seed, args.cond)
    return make_experiment_problem(which, a, args.lam, args.gamma, args.delta), u


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        p_list=_p_values(args.p),
        problems=tuple(args.problems.split(",")),
        lam=args.lam, gamma=args.gamma, delta=args.delta,
        iterations=args.iters, seed=args.seed, inertia=args.inertia,
        cond_ratio=args.cond,
    )
    series, summary = run_grid(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = emit_csv(series, out / "results.csv")
    plots = emit_plots(series, out / "plots")
    print(f"cells completed: {len(summary['cells'])}")
    for name, p in summary["oracle_flagged"]:
        print(f"warning: {name} P={p}: the ground truth is not certified (its xstar solve "
              "or a finite-difference solve reached its iteration cap, or the duality-gap "
              "bound at the truth exceeds the cross-check tolerance)")
    for name, p, solver, estimator, reason in summary["inapplicable"]:
        print(f"inapplicable {name} P={p} {solver} {estimator}: {reason}; no series written")
    for name, p, solver, estimator, k in summary["diverged"]:
        print(f"warning: {name} P={p} {solver} {estimator}: the error is not finite from "
              f"iteration {k} on; the series stops before it")
    for name, p, diag in summary["aborted"]:
        print(f"aborted {name} P={p}: {diag}")
    if summary["cross_check_gap"]:
        name, p, gap = max(summary["cross_check_gap"], key=lambda cell: cell[2])
        print(f"largest ground-truth vs finite-difference gap: {gap:.3e} ({name} P={p})")
    wins = [flag for *_, flag in summary["dg_beats_ang"]]
    if wins:
        print(f"dual beats analytic (P < N): {sum(wins)}/{len(wins)} cells")
    print(f"wrote {csv_path} and {len(plots)} plots under {out / 'plots'}")
    return 1 if summary["aborted"] else 0


def _cmd_verify(args) -> int:
    pr, u = _make_problem(args)
    dg = dual_estimator(pr, u, SolverConfig(method="fista", iterations=args.iters))
    fd = fd_oracle(pr, u)
    disc = float(np.max(np.abs(dg.final - fd.final)))
    print(f"max-abs discrepancy dual vs finite differences: {disc:.6e}")
    if fd.flagged:
        print("warning: an inner oracle solve did not converge")
    return 0 if disc <= args.tol else 1


def _fmt_rate(r) -> str:
    if isinstance(r, RateUnavailable):
        return f"unavailable ({r.reason})"
    return f"{r:.10f}"


def _cmd_rates(args) -> int:
    pr, _ = _make_problem(args)
    rr = rate_report(pr)
    print(f"problem {args.problem}, N={pr.n}, P={pr.p}")
    print(f"omega_p     = {_fmt_rate(rr.omega_p)}")
    print(f"omega_d     = {_fmt_rate(rr.omega_d)}")
    print(f"omega_cg    = {_fmt_rate(rr.omega_cg)}")
    print(f"omega_ista  = {_fmt_rate(rr.omega_ista)}")
    print(f"omega_fista = {_fmt_rate(rr.omega_fista)}")
    pd = rr.omega_pdhg
    if pd.omega is None:
        print(f"omega_pdhg  = regime: {pd.regime}")
    else:
        print(f"omega_pdhg  = {pd.omega:.10f} (regime: {pd.regime})")
    return 0


def _cmd_toy(args) -> int:
    print(f"{'example':<22}{'analytic':>12}{'automatic':>12}{'implicit':>12}"
          f"{'dual':>12}{'truth':>12}{'u':>12}")
    for kind in ToyProblem.KINDS:
        u = args.u if kind != "interval_quadratic" else min(args.u, 0.9)
        run = run_toy(ToyProblem(kind), u, iterations=args.iters)
        values = (run.analytic[-1], run.automatic[-1], run.implicit[-1], run.dual[-1],
                  run.truth[2], u)
        print(f"{kind:<22}" + "".join(f"{v:>12.6f}" for v in values))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # find --config (in any spelling argparse accepts) before the full parse
    pre = argparse.ArgumentParser(prog="valgrad", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    try:
        defaults = None if path is None else parse_config(path)
    except (OSError, ConfigError) as exc:
        pre.error(str(exc))
    args = _build_parser(defaults).parse_args(argv)
    handler = {
        "run": _cmd_run, "verify": _cmd_verify, "rates": _cmd_rates, "toy": _cmd_toy,
    }[args.command]
    try:
        _check_args(args)
        return handler(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
