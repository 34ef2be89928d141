"""Command-line interface.

Subcommands: ``run`` (experiment grid with CSV and SVG output), ``verify``
(dual estimator against the finite-difference oracle), ``rates``
(convergence-factor table) and ``toy`` (the three scalar counterexamples:
each estimate's final value, the truth and the u each example ran at).
``run``, ``verify`` and ``rates`` share their flags and build one
``ExperimentConfig``, which checks the values; ``verify`` and ``rates``
examine the one cell of it, ``harness.grid_cell``, that ``run`` builds for
their problem, P and seed.  A flat ``key = value`` config file can
override any defaults.

Exit codes: 0 success; 1 a failed verification or an aborted grid cell,
one whose cross-check failed or that raised ``numpy.linalg.LinAlgError``;
2 bad input: an invalid argument or config file (``ConfigError``) or a file
that cannot be read or written; 3 a numerical failure, a linear-algebra
routine that raised ``numpy.linalg.LinAlgError`` in ``verify`` or ``rates``
or outside any ``run`` cell.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .estimators import dual_estimator, fd_oracle, run_toy
from .harness import (CROSS_CHECK_TOL, ConfigError, ExperimentConfig, emit_csv, emit_plots,
                      grid_cell, run_grid)
from .problems import ToyProblem, make_experiment_problem
from .rates import RateUnavailable, rate_report
from .solvers import SolverConfig

_CONFIG_TYPES = {
    "n": int, "p": str, "problems": str, "seed": int, "iters": int,
    "lam": float, "gamma": float, "delta": float, "cond": float,
    "out": str, "inertia": str, "tol": float, "u": float, "problem": str,
    "identity": lambda s: s.lower() in ("1", "true", "yes"),
}

# (command, argument) -> (test, requirement) for the values no config holds:
# verify's tolerance and toy's u and iteration count; ExperimentConfig checks
# the rest, run's and verify's --iters included.  The exp example starts at
# x0 = u + 1 (``ToyProblem.primal``), whose e^x0 must be finite.
_ARG_CHECKS = {
    ("verify", "tol"): (lambda v: 0 < v < np.inf, "finite and positive"),
    ("toy", "u"): (lambda v: 0 < v and v + 1.0 < np.log(np.finfo(float).max),
                   f"positive with e^(u + 1) below {np.finfo(float).max:.4g}"),
    ("toy", "iters"): (lambda v: v >= 0, "nonnegative"),
}
_DEFAULT = ExperimentConfig()


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


def _build_parser(defaults: dict):
    """The full parser; each subcommand takes the ``defaults`` (config-file
    values) it declares in place of its own, so explicit flags still win."""
    parser = argparse.ArgumentParser(
        prog="valgrad",
        description="Gradient estimation for value functions of parametric convex problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file overriding defaults")
        p.add_argument("--n", type=int, default=_DEFAULT.n)
        p.add_argument("--seed", type=int, default=_DEFAULT.seed)
        p.add_argument("--cond", type=float, default=_DEFAULT.cond_ratio)
        p.add_argument("--lam", "--lambda", dest="lam", type=float, default=_DEFAULT.lam)
        p.add_argument("--gamma", type=float, default=_DEFAULT.gamma)
        p.add_argument("--delta", type=float, default=_DEFAULT.delta)

    run_p = sub.add_parser("run", help="run the experiment grid")
    common(run_p)
    run_p.add_argument("--p", default=",".join(map(str, _DEFAULT.p_list)),
                       help="comma-separated P values")
    run_p.add_argument("--problems", default=",".join(_DEFAULT.problems))
    run_p.add_argument("--iters", type=int, default=_DEFAULT.iterations)
    run_p.add_argument("--inertia", choices=("both", "on", "off"), default=_DEFAULT.inertia)
    run_p.add_argument("--out", default="out")

    ver_p = sub.add_parser("verify", help="check the dual estimator against finite differences")
    common(ver_p)
    ver_p.add_argument("--problem", default="f2")
    ver_p.add_argument("--p", type=int, default=10)
    ver_p.add_argument("--iters", type=int, default=20_000)
    ver_p.add_argument("--tol", type=float, default=CROSS_CHECK_TOL)

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
        p.set_defaults(**{k: defaults[k] for k in defaults.keys() & {a.dest for a in p._actions}})
    return parser


def _p_values(text) -> tuple:
    """The comma-separated P values of ``--p``; raises ``ConfigError``."""
    try:
        return tuple(int(s) for s in str(text).split(","))
    except ValueError:
        raise ConfigError(f"--p must be comma-separated integers, got {text!r}") from None


def _check_args(args) -> None:
    """Raise ``ConfigError`` for a value of ``_ARG_CHECKS`` the command cannot run with."""
    for (command, name), (ok, need) in _ARG_CHECKS.items():
        value = getattr(args, name, None)
        if command == args.command and not ok(value):
            raise ConfigError(f"--{name} must be {need}, got {value!r}")


def _config(args) -> ExperimentConfig:
    """The grid of ``run``'s flags, or for ``verify`` and ``rates`` the
    one-cell grid of their problem and P; a flag the command lacks keeps
    the config's default.  Raises ``ConfigError``."""
    if args.command == "run":
        grid = {"p_list": _p_values(args.p), "problems": tuple(args.problems.split(",")),
                "inertia": args.inertia}
    else:
        grid = {"p_list": (args.p,), "problems": (args.problem,)}
    return ExperimentConfig(
        n=args.n, lam=args.lam, gamma=args.gamma, delta=args.delta, seed=args.seed,
        cond_ratio=args.cond, iterations=getattr(args, "iters", _DEFAULT.iterations), **grid)


def _cmd_run(args) -> int:
    series, summary = run_grid(_config(args))
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
        print(f"dual beats analytic (P < N): {sum(wins)}/{len(wins)} cell-and-solver pairs")
    print(f"wrote {csv_path} and {len(plots)} plots under {out / 'plots'}")
    return 1 if summary["aborted"] else 0


def _cmd_verify(args) -> int:
    cfg = _config(args)
    pr, u = grid_cell(cfg, args.problem, args.p)
    dg = dual_estimator(pr, u, SolverConfig(method="fista", iterations=cfg.iterations))
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
    cfg = _config(args)
    if args.identity:  # A = I (N x N), whatever P
        pr = make_experiment_problem(int(args.problem[1]), np.eye(cfg.n), cfg.lam, cfg.gamma,
                                     cfg.delta)
    else:
        pr = grid_cell(cfg, args.problem, args.p)[0]
    rr = rate_report(pr)
    print(f"problem {args.problem}, N={pr.n}, P={pr.p}")
    print(f"omega_p     = {_fmt_rate(rr.omega_p)}")
    print(f"omega_d     = {_fmt_rate(rr.omega_d)}")
    print(f"omega_cg    = {_fmt_rate(rr.omega_cg)}")
    print(f"omega_fista = {_fmt_rate(rr.omega_fista)}")
    print("  (omega_fista is asymptotic: from rest fista's error can exceed e_0 omega^k)")
    return 0


def _cmd_toy(args) -> int:
    print(f"{'example':<22}{'analytic':>12}{'automatic':>12}{'implicit':>12}"
          f"{'dual':>12}{'truth':>12}{'u':>12}")
    for kind in ToyProblem.KINDS:
        u = args.u if kind != "interval_quadratic" else min(args.u, 0.9)
        run = run_toy(ToyProblem(kind), u, iterations=args.iters)
        values = (run.analytic[-1], run.automatic[-1], run.implicit[-1], run.dual[-1],
                  run.truth[2], u)
        # .6g after a space keeps the fields apart, e^u near 1e308 included
        print(f"{kind:<22}" + "".join(f" {v:>11.6g}" for v in values))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # find --config (in any spelling argparse accepts) before the full parse
    pre = argparse.ArgumentParser(prog="valgrad", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    try:
        defaults = {} if path is None else parse_config(path)
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
