"""Experiment grid runner with CSV and SVG emission.

Runs the four benchmark problems over a list of parameter dimensions and
measures, against a verified ground truth, the per-iteration errors of the
primal iterates and of the four gradient estimators.  Each error curve is
one ``Series``, a float array over consecutive iterations; the series flow
whole into the sorted CSV (one row per iteration) and into one SVG error
plot per grid cell, and ``read_csv`` groups the rows back into series.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from .estimators import (
    EstimatorInapplicable,
    analytic_estimator,
    automatic_estimator,
    certified_truth,
    dual_estimator,
    error_trace,
    fd_oracle,
    implicit_estimator,
    run_primal,
)
from .linalg import seeded_problem_data
from .problems import make_experiment_problem
from .solvers import SolverConfig

CSV_HEADER = ["problem", "P", "solver", "estimator", "iteration", "error", "wall_ns"]

INERTIAL_OF = {"gd": "heavy_ball", "ista": "ipiasco"}
INERTIAL_SOLVERS = frozenset(INERTIAL_OF.values())
PROBLEMS = ("f1", "f2", "f3", "f4")


class ConfigError(ValueError):
    """Bad input: an invalid configuration, config file or argument."""


# the most the certified ground truth's cross-check gap and its duality-gap
# bound may reach
CROSS_CHECK_TOL = 1e-4


@dataclass(frozen=True)
class ExperimentConfig:
    """The grid ``valgrad run`` measures; each field is one of its flags."""

    n: int = 50
    p_list: tuple = (10, 30, 50, 70, 90)
    problems: tuple = PROBLEMS
    lam: float = 2.0
    gamma: float = 0.1
    delta: float = 0.1
    iterations: int = 250
    seed: int = 0
    inertia: str = "both"  # both | on | off
    cond_ratio: float = 100.0

    def __post_init__(self):
        if self.inertia not in ("both", "on", "off"):
            raise ConfigError("inertia must be both, on or off")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.iterations < 0:
            raise ConfigError("iterations must be nonnegative")
        if not self.p_list or not self.problems:
            raise ConfigError("no P values or no problems")
        # written as "not ok" so that NaN fails each test, and bounded so
        # that infinity does: run_grid would otherwise raise a bare
        # ValueError, fail an eigenvalue solve or pass a NaN cross-check
        if not (0 < self.lam < np.inf and 0 < self.delta < np.inf):
            raise ConfigError("lam and delta must be positive and finite")
        if not 0 <= self.gamma < np.inf:
            raise ConfigError("gamma must be nonnegative and finite")
        if not 1 <= self.cond_ratio < np.inf:
            raise ConfigError("cond_ratio must be at least 1 and finite")
        if not all(q >= 1 for q in self.p_list):
            raise ConfigError("P values must be at least 1")
        if self.seed < 0:  # numpy's generator would raise a bare ValueError
            raise ConfigError("seed must be nonnegative")
        bad = [q for q in self.problems if q not in PROBLEMS]
        if bad:
            raise ConfigError(f"unknown problems {bad}")
        for what, values in (("problems", self.problems), ("P values", self.p_list)):
            if len(set(values)) < len(values):
                raise ConfigError(f"repeated {what} in {list(values)}")


@dataclass(frozen=True, eq=False)
class Series:
    """One error curve: ``errors[i]`` is the error at iteration start + i,
    and ``wall_ns`` the time of the phase that produced the series."""

    problem: str
    p: int
    solver: str
    estimator: str
    start: int
    errors: np.ndarray
    wall_ns: int

    def __post_init__(self):
        errors = np.asarray(self.errors, dtype=float)
        if not np.all(np.isfinite(errors) & (errors >= 0)):
            raise ValueError("error must be finite and nonnegative")
        object.__setattr__(self, "errors", errors)


_by_key = attrgetter("problem", "p", "solver", "estimator")


def grid_cell(cfg: ExperimentConfig, name: str, p: int):
    """The problem and u of the grid's cell (name, P), drawn from the cell
    seed seed * 7919 + 101 * which + P, ``which`` the problem's number;
    raises ``ConfigError`` when ``cond_ratio`` makes A^T A overflow."""
    which = int(name[1])
    a, u = seeded_problem_data(cfg.n, p, cfg.seed * 7919 + 101 * which + p, cfg.cond_ratio)
    pr = make_experiment_problem(which, a, cfg.lam, cfg.gamma, cfg.delta)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(pr.gram).all():
            raise ConfigError(f"cond_ratio (--cond) {cfg.cond_ratio:g} overflows A^T A")
    return pr, u


def _ground_truth(pr, u):
    """``certified_truth``'s gradient and minimizer for one cell, which the
    central-difference oracle, warm-started from xstar, cross-checks.
    Returns (gradient, xstar, oracle_flagged, gap): gap is the max-abs
    cross-check gap, which ``run_grid`` holds against ``CROSS_CHECK_TOL``,
    and oracle_flagged is set when the truth is not certified, the
    finite-difference oracle did not converge or the duality-gap bound at
    the truth (``_gap_bound``) exceeds ``CROSS_CHECK_TOL``.
    """
    truth, xstar, certified = certified_truth(pr, u)
    fd = fd_oracle(pr, u, warm=xstar)
    flagged = (fd.flagged or not certified
               or _gap_bound(pr, xstar, truth, u) > CROSS_CHECK_TOL)
    return truth, xstar, flagged, float(np.max(np.abs(truth - fd.final)))


def _gap_bound(pr, x, y, u) -> float:
    """The duality-gap bound |y - y*| <= sqrt(2 (P + D) / m_d) on a dual
    point y, for any primal point x: P = ``primal_value(x, u)``, D the
    dual objective's value at y (P + D is ``duality_gap``) and m_d its
    strong convexity (Duenner, Forte, Takac & Jaggi, "Primal-Dual Rates and
    Certificates", ICML 2016).  The gap takes an allowance of
    4 eps (|P| + |D|) for the round-off in the two values, so a gap that
    rounds below zero still gives a true bound."""
    dob = pr.dual_objective(u)
    primal, dual = pr.primal_value(x, u), dob.value(y)
    slack = 4.0 * np.finfo(float).eps * (abs(primal) + abs(dual))
    return float(np.sqrt(max(primal + dual + slack, 0.0) * 2.0 / dob.curvature()[1]))


def _method_for(prox_part, inertial: bool) -> str:
    """The solver name for an objective: its prox part decides between gd
    and ista (``solvers.prox_of``), the inertia adds the momentum."""
    base = "gd" if prox_part is None else "ista"
    return INERTIAL_OF[base] if inertial else base


def _primal_methods(pr, inertia: str):
    modes = {"off": (False,), "on": (True,), "both": (False, True)}[inertia]
    return [_method_for(pr.k.prox_part, inertial) for inertial in modes]


def _dual_method(pr, primal_method: str) -> str:
    """The dual solver name: the loss conjugate's prox part decides."""
    return _method_for(pr.h.conjugate_split()[1], primal_method in INERTIAL_SOLVERS)


def _series(problem, p, solver, estimator, errors, wall_ns, start=0):
    """One error series, cut at its last finite error, and the iteration of
    its first non-finite error (None if every error is finite)."""
    errors = np.asarray(errors, dtype=float)
    bad = np.flatnonzero(~np.isfinite(errors))
    if bad.size:
        errors = errors[: bad[0]]
    series = Series(problem, p, solver, estimator, start, errors, wall_ns)
    return series, start + int(bad[0]) if bad.size else None


def run_grid(cfg: ExperimentConfig, clock=None):
    """Run the full grid; returns (series, summary).

    ``series`` is a list of ``Series`` sorted by (problem, P, solver,
    estimator), one per error curve the grid measured.  ``clock`` is an ns
    counter, injectable so tests can produce byte-identical CSV output; the
    default is the monotonic wall clock.  A cell whose ground truth or
    series raise ``numpy.linalg.LinAlgError`` is aborted with none of its
    series or other ``summary`` entries kept, and the grid goes on.
    """
    clock = time.perf_counter_ns if clock is None else clock
    series: list[Series] = []
    summary = {"cells": [], "aborted": [], "oracle_flagged": [], "inapplicable": [],
               "cross_check_gap": [], "dg_beats_ang": [], "diverged": []}
    for name in cfg.problems:
        for p in cfg.p_list:
            pr, u = grid_cell(cfg, name, p)
            marks = {key: len(entries) for key, entries in summary.items()}
            try:
                truth, xstar, oracle_flagged, gap = _ground_truth(pr, u)
                cell = (None if gap > CROSS_CHECK_TOL
                        else _run_cell(pr, u, truth, xstar, name, p, cfg, clock, summary))
            except np.linalg.LinAlgError as exc:
                for key, mark in marks.items():
                    del summary[key][mark:]
                summary["aborted"].append((name, p, f"numerical failure: {exc}"))
                continue
            if oracle_flagged:
                summary["oracle_flagged"].append((name, p))
            summary["cross_check_gap"].append((name, p, gap))
            if cell is None:
                summary["aborted"].append((name, p, f"ground-truth cross-check failed: {gap:.3e}"))
                continue
            series += cell
            summary["cells"].append((name, p))
    series.sort(key=_by_key)
    return series, summary


# a diverging sensitivity recursion overflows; it is reported through
# ``diverged`` instead of numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def _run_cell(pr, u, truth, xstar, name, p, cfg, clock, summary):
    """The error series of one cell.  Writes into ``summary`` the
    estimates found inapplicable (``inapplicable``), as (problem, P,
    solver, estimator, reason), which write no series; the diverged series
    (``diverged``), as (problem, P, solver, estimator, k), k the iteration
    of the first non-finite error, such a series cut before k and left out
    if that leaves it empty; and at P < N, per primal solver whose ang and
    dg series are not cut, whether dg's final error is below ang's
    (``dg_beats_ang``), as (problem, P, solver, flag)."""
    out = []

    def add(solver, estimator, errors, wall_ns, start=0):
        """Keep one series; returns its final error, None for a cut series."""
        series, k = _series(name, p, solver, estimator, errors, wall_ns, start)
        if series.errors.size:
            out.append(series)
        if k is not None:
            summary["diverged"].append((name, p, solver, estimator, k))
            return None
        return float(series.errors[-1])

    for method in _primal_methods(pr, cfg.inertia):
        t0 = clock()
        run = run_primal(pr, u, method, iterations=cfg.iterations)
        ns_run = int(clock() - t0)
        add(method, "primal", np.linalg.norm(run.points - xstar, axis=1), ns_run)

        t0 = clock()
        ang = analytic_estimator(pr, run.points, u)
        ang_final = add(method, "ang", error_trace(ang, truth), int(clock() - t0))

        t0 = clock()
        aug = automatic_estimator(pr, run, u)
        add(method, "aug", error_trace(aug, truth), int(clock() - t0))

        t0 = clock()
        try:
            ig = implicit_estimator(pr, run.final, u)
        except EstimatorInapplicable as exc:
            summary["inapplicable"].append((name, p, method, "ig", str(exc)))
        else:
            add(method, "ig", error_trace(ig, truth), int(clock() - t0), start=cfg.iterations)

        dg_method = _dual_method(pr, method)
        t0 = clock()
        dg = dual_estimator(pr, u, SolverConfig(method=dg_method, iterations=cfg.iterations))
        dg_final = add(dg_method, "dg", error_trace(dg, truth), int(clock() - t0))
        if p < cfg.n and ang_final is not None and dg_final is not None:
            summary["dg_beats_ang"].append((name, p, method, dg_final < ang_final))
    return out


# ---------------------------------------------------------------------------
# CSV


def emit_csv(series, path) -> Path:
    """Write ``series`` as the sorted CSV: one row per iteration, with the
    shortest round-trip decimal of each error."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for s in sorted(series, key=_by_key):
                head = f"{s.problem},{s.p},{s.solver},{s.estimator},"
                tail = f",{s.wall_ns}\n"
                fh.write("".join([
                    f"{head}{i},{e!r}{tail}" for i, e in enumerate(s.errors.tolist(), s.start)
                ]))
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    return path


def read_csv(path) -> list[Series]:
    """The series of a CSV that ``emit_csv`` wrote, in file order: each run
    of rows with one (problem, P, solver, estimator) is one series.  Raises
    ``ValueError`` for a bad header, a row without exactly the header's
    fields, or a series whose iterations are not consecutive, whose
    ``wall_ns`` varies or whose rows are split."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected header in {path}: {header}")
            rows = list(reader)
    except OSError as exc:
        raise OSError(f"failed reading {path}: {exc}") from exc
    for line, row in enumerate(rows, 2):
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"{path}:{line}: {len(row)} fields, expected {len(CSV_HEADER)}")
    out = []
    for (problem, p, solver, estimator), group in groupby(rows, key=lambda row: row[:4]):
        its, errors, walls = zip(*(row[4:] for row in group))
        start = int(its[0])
        if [int(i) for i in its] != list(range(start, start + len(its))):
            raise ValueError(f"{path}: {problem} P={p} {solver} {estimator}: "
                             "iterations are not consecutive")
        if len({int(w) for w in walls}) > 1:
            raise ValueError(f"{path}: {problem} P={p} {solver} {estimator}: wall_ns varies")
        out.append(Series(problem, int(p), solver, estimator, start,
                          [float(e) for e in errors], int(walls[0])))
    if len(set(map(_by_key, out))) < len(out):
        raise ValueError(f"{path}: the rows of a series are not in one run")
    return out


# ---------------------------------------------------------------------------
# SVG plots (hand-rolled for byte determinism)

PLOT_COLORS = {
    "primal": "#000000",
    "ang": "#e69f00",
    "aug": "#009e73",
    "ig": "#d55e00",
    "dg": "#0072b2",
}
LOG_FLOOR = 1e-16
_W, _H = 480, 320
_ML, _MR, _MT, _MB = 52, 120, 16, 34


def _svg_cell(cell, title):
    """The SVG of one cell's series, given sorted by (solver, estimator)."""
    # per series: its iterations and its log10 errors, one log10 per series
    curves = [(s, np.arange(s.start, s.start + s.errors.size),
               np.log10(np.maximum(s.errors, LOG_FLOOR))) for s in cell]
    span_x = max(1, *(int(its[-1]) for _, its, _ in curves))
    lo = float(np.floor(min(0.0, *(float(v.min()) for *_, v in curves))))
    hi = max(float(np.ceil(max(-16.0, *(float(v.max()) for *_, v in curves)))), lo + 1.0)

    def sx(it):
        return _ML + (_W - _ML - _MR) * it / span_x

    def sy(v):
        return _MT + (_H - _MT - _MB) * (hi - v) / (hi - lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_ML}" y="12" font-family="monospace" font-size="11">{title}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="#000000" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="#000000" stroke-width="1"/>',
        f'<text x="{_ML}" y="{_H - 18}" font-family="monospace" font-size="10">0</text>',
        f'<text x="{_W - _MR - 20}" y="{_H - 18}" font-family="monospace" '
        f'font-size="10">{span_x}</text>',
        f'<text x="4" y="{_H - _MB}" font-family="monospace" font-size="10">{lo:g}</text>',
        f'<text x="4" y="{_MT + 10}" font-family="monospace" font-size="10">{hi:g}</text>',
        f'<text x="4" y="{_H - 4}" font-family="monospace" font-size="10">'
        f'log10 error vs iteration</text>',
    ]
    legend_y = _MT + 10
    xs_text = {}  # the formatted x-coordinates of each distinct iteration range
    for s, its, logs in curves:
        key = (s.start, its.size)
        if key not in xs_text:
            xs_text[key] = [f"{x:.2f}" for x in sx(its).tolist()]
        xs, ys = xs_text[key], sy(logs).tolist()
        color = PLOT_COLORS.get(s.estimator, "#888888")
        dash = ' stroke-dasharray="6,3"' if s.solver in INERTIAL_SOLVERS else ""
        if len(xs) == 1:
            out.append(f'<circle cx="{xs[0]}" cy="{ys[0]:.2f}" r="3" fill="{color}"/>')
        else:
            coords = " ".join([f"{x},{y:.2f}" for x, y in zip(xs, ys)])
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"{dash}/>')
        lx = _W - _MR + 8
        out += [
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 18}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>',
            f'<text x="{lx + 22}" y="{legend_y}" font-family="monospace" '
            f'font-size="10">{s.estimator} {s.solver}</text>',
        ]
        legend_y += 14
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plots(series, out_dir) -> list[Path]:
    """One SVG per (problem, P) cell; returns paths written, sorted."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    cells = groupby(sorted(series, key=_by_key), key=attrgetter("problem", "p"))
    for (problem, p), cell in cells:
        path = out_dir / f"{problem}_P{p}.svg"
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_svg_cell(cell, f"{problem} P={p}"))
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc
        paths.append(path)
    return paths
