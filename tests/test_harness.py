import dataclasses
import inspect
import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import valgrad.cli
import valgrad.estimators
import valgrad.harness
from valgrad.cli import main, parse_config
from valgrad.estimators import (
    ORACLE_ITERATIONS,
    certified_truth,
    error_trace,
    fd_oracle,
    oracle_dual_solve,
    oracle_primal_solve,
)
from valgrad.harness import (
    CROSS_CHECK_TOL,
    ConfigError,
    ExperimentConfig,
    Series,
    _gap_bound,
    _ground_truth,
    _run_cell,
    emit_csv,
    emit_plots,
    grid_cell,
    read_csv,
    run_grid,
)
from valgrad.linalg import seeded_problem_data
from valgrad.problems import closed_form_f1, make_experiment_problem

SMALL = ExperimentConfig(
    n=12, p_list=(6, 9), problems=("f1", "f3"), iterations=40, cond_ratio=3.0,
)


def constant_clock():
    return 12345


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(inertia="maybe")
    with pytest.raises(ValueError):
        ExperimentConfig(problems=("f9",))
    with pytest.raises(ValueError):
        ExperimentConfig(n=0)


def test_config_names_the_field_it_rejects(capsys):
    with pytest.raises(ConfigError, match="iterations must be nonnegative"):
        ExperimentConfig(iterations=-1)
    with pytest.raises(ConfigError, match="n must be at least 1"):
        ExperimentConfig(n=0)
    # run's and verify's --iters are checked by the config alone
    for command in ("run", "verify"):
        assert main([command, "--iters", "-1"]) == 2
        assert capsys.readouterr().err == "error: iterations must be nonnegative\n"


def test_oracle_defaults_share_the_harness_cap():
    # run and verify call the certified truth and the finite-difference
    # oracle at their defaults, and every oracle defaults to the one cap
    assert ORACLE_ITERATIONS == 10_000
    for oracle in (certified_truth, oracle_dual_solve, oracle_primal_solve, fd_oracle):
        cap = inspect.signature(oracle).parameters["max_iterations"].default
        assert cap == ORACLE_ITERATIONS, oracle.__name__


def _key(s):
    return s.problem, s.p, s.solver, s.estimator


def assert_same_series(got, want):
    """Equal keys, starts and wall times, and bit-equal errors, in order."""
    assert [(_key(s), s.start, s.wall_ns) for s in got] == \
        [(_key(s), s.start, s.wall_ns) for s in want]
    for g, w in zip(got, want):
        assert g.errors.dtype == np.float64 and g.errors.tobytes() == w.errors.tobytes()


def test_series_validation():
    with pytest.raises(ValueError):
        Series("f1", 5, "gd", "ang", 0, [-1.0], 0)
    with pytest.raises(ValueError):
        Series("f1", 5, "gd", "ang", 0, [float("nan")], 0)


@pytest.mark.parametrize("error", [float("inf"), -float("inf")])
def test_series_rejects_infinite_errors(error):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Series("f1", 5, "gd", "ang", 0, [0.5, error], 0)


def test_run_grid_produces_expected_series():
    series, summary = run_grid(SMALL, clock=constant_clock)
    assert not summary["aborted"]
    assert set(summary["cells"]) == {("f1", 6), ("f1", 9), ("f3", 6), ("f3", 9)}
    by_key = {_key(s): s for s in series}
    # f1 runs gd + heavy_ball, f3 ista + ipiasco; dual solvers mirror that
    assert ("f1", 6, "gd", "ang") in by_key
    assert ("f1", 6, "heavy_ball", "aug") in by_key
    assert ("f1", 6, "gd", "dg") in by_key
    assert ("f3", 9, "ista", "primal") in by_key
    assert ("f3", 9, "ipiasco", "ig") in by_key
    # one series per (problem, P, solver, estimator), sorted by that key
    assert list(by_key) == sorted(by_key) and len(by_key) == len(series)
    # per-iteration series span 0..K; ig is a single final-iterate error
    ang = by_key[("f1", 6, "gd", "ang")]
    assert (ang.start, ang.errors.size) == (0, 41)
    ig = by_key[("f1", 6, "gd", "ig")]
    assert (ig.start, ig.errors.size) == (40, 1)


def test_run_grid_keys_unique_on_every_problem():
    # both inertias on all four problems: the two dual series of a cell never
    # share a solver name, so every series key is unique without a dedup pass
    cfg = ExperimentConfig(n=8, p_list=(3, 5), iterations=10, cond_ratio=3.0)
    series, summary = run_grid(cfg, clock=constant_clock)
    assert not summary["aborted"]
    assert len({_key(s) for s in series}) == len(series) == 8 * 2 * 5
    # per primal method: primal, ang, aug and dg over 0..K, plus one ig error
    per_cell = 2 * (4 * (cfg.iterations + 1) + 1)
    assert sum(s.errors.size for s in series) == 8 * per_cell


def test_repeated_grid_entries_are_bad_input(tmp_path, capsys):
    # one distinct cell listed twice over would write every CSV key four
    # times and draw the copies into one plot
    with pytest.raises(ConfigError, match="repeated problems"):
        ExperimentConfig(problems=("f1", "f2", "f1"))
    with pytest.raises(ConfigError, match="repeated P values"):
        ExperimentConfig(p_list=(10, 30, 10))
    code = main(["run", "--problems", "f1,f1", "--p", "10,10", "--n", "8", "--iters", "5",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: repeated")
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("field, value, message", [
    ("p_list", (), "no P values"),
    ("problems", (), "no problems"),
    ("lam", 0.0, "lam and delta"),
    ("lam", float("nan"), "lam and delta"),
    ("lam", float("inf"), "lam and delta"),
    ("delta", -1.0, "lam and delta"),
    ("delta", float("nan"), "lam and delta"),
    ("delta", float("inf"), "lam and delta"),
    ("gamma", -0.1, "gamma"),
    ("gamma", float("nan"), "gamma"),
    ("gamma", float("inf"), "gamma"),
    ("cond_ratio", 0.5, "cond_ratio"),
    ("cond_ratio", float("nan"), "cond_ratio"),
    ("cond_ratio", float("inf"), "cond_ratio"),
    ("p_list", (0,), "P values must be at least 1"),
    ("p_list", (10, -3), "P values must be at least 1"),
    ("seed", -1, "seed"),
], ids=["empty-p-list", "empty-problems", "zero-lam", "nan-lam", "inf-lam", "negative-delta",
        "nan-delta", "inf-delta", "negative-gamma", "nan-gamma", "inf-gamma", "cond-below-1",
        "nan-cond", "inf-cond", "zero-p", "negative-p", "negative-seed"])
def test_config_rejects_what_would_skip_the_check_or_the_grid(field, value, message):
    # an empty list gives an empty grid; a problem, data value or seed no
    # cell can be built with is bad input too, not a ValueError from inside
    # run_grid (or, at lam = NaN, a grid of flagged and diverged cells, and
    # at gamma = inf a NaN cross-check gap that passes the check)
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{field: value})


def test_a_cut_series_has_no_final_error(monkeypatch):
    # an ang error that is not finite at K alone cuts the series at K - 1;
    # the cell then has no final ang error to compare dg with
    _, summary = run_grid(SMALL, clock=constant_clock)
    assert len(summary["dg_beats_ang"]) == 8

    def last_ang_nan(est, truth):
        errors = error_trace(est, truth)
        if est.method == "analytic":
            errors[-1] = float("nan")
        return errors

    monkeypatch.setattr(valgrad.harness, "error_trace", last_ang_nan)
    series, summary = run_grid(SMALL, clock=constant_clock)
    assert len(summary["diverged"]) == 8
    assert all(d[3:] == ("ang", SMALL.iterations) for d in summary["diverged"])
    angs = [s for s in series if s.estimator == "ang"]
    assert len(angs) == 8 and all(s.errors.size == SMALL.iterations for s in angs)
    assert summary["dg_beats_ang"] == []


def test_run_grid_deterministic_csv_bytes(tmp_path):
    r1, _ = run_grid(SMALL, clock=constant_clock)
    r2, _ = run_grid(SMALL, clock=constant_clock)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(r1, p1)
    emit_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_grid_inertia_off_and_on():
    off, _ = run_grid(
        ExperimentConfig(n=10, p_list=(5,), problems=("f1",), iterations=10,
                         cond_ratio=2.0, inertia="off"),
        clock=constant_clock,
    )
    assert {s.solver for s in off} == {"gd"}
    on, _ = run_grid(
        ExperimentConfig(n=10, p_list=(5,), problems=("f1",), iterations=10,
                         cond_ratio=2.0, inertia="on"),
        clock=constant_clock,
    )
    assert {s.solver for s in on} == {"heavy_ball"}


def test_run_grid_runs_gd_on_an_elastic_net_without_l1():
    # gamma = 0 leaves f3/f4 no prox part, so they run gd and heavy_ball
    cfg = ExperimentConfig(n=8, p_list=(3, 5), problems=("f3", "f4"), gamma=0.0,
                           iterations=10, cond_ratio=3.0)
    series, summary = run_grid(cfg, clock=constant_clock)
    assert not summary["aborted"] and len(summary["cells"]) == 4
    assert {s.solver for s in series if s.estimator != "dg"} == {"gd", "heavy_ball"}
    # the dual keeps its own prox part: the Huber ball of f4
    dual = {(s.problem, s.solver) for s in series if s.estimator == "dg"}
    assert dual == {("f3", "gd"), ("f3", "heavy_ball"), ("f4", "ista"), ("f4", "ipiasco")}


# ---------------------------------------------------------------------------
# CSV format fixtures


def test_emit_csv_empty(tmp_path):
    path = emit_csv([], tmp_path / "e.csv")
    assert path.read_text() == "problem,P,solver,estimator,iteration,error,wall_ns\n"


def test_emit_csv_roundtrip_single(tmp_path):
    one = Series("f2", 30, "gd", "ang", 7, [0.1234567890123456789], 42)
    path = emit_csv([one], tmp_path / "one.csv")
    assert_same_series(read_csv(path), [one])
    # shortest round-trip decimal, LF endings
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert b"0.12345678901234568" in raw


def test_emit_csv_sorted(tmp_path):
    series = [
        Series("f2", 10, "gd", "dg", 1, [1.0], 0),
        Series("f1", 30, "gd", "ang", 0, [1.0], 0),
        Series("f1", 10, "ista", "ang", 0, [1.0], 0),
        Series("f1", 10, "gd", "aug", 2, [1.0], 0),
        Series("f1", 10, "gd", "ang", 0, [1.0, 2.0, 3.0], 0),
    ]
    path = emit_csv(series, tmp_path / "s.csv")
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 7
    assert lines == sorted(lines, key=lambda s: (
        s.split(",")[0], int(s.split(",")[1]), s.split(",")[2], s.split(",")[3],
        int(s.split(",")[4]),
    ))
    assert lines[0].startswith("f1,10,gd,ang,0")


def test_read_csv_gives_back_the_series_emit_csv_wrote(tmp_path):
    # a distinct wall time per series (odd ones from the clock), the ig
    # series starting at K, and a series cut short at its first non-finite
    # error
    series, _ = run_grid(SMALL, clock=map(lambda t: t * t, itertools.count()).__next__)
    cut, k = valgrad.harness._series("f4", 10, "ipiasco", "aug", [0.25, 1e300, np.inf, 2.0],
                                     2, start=0)
    assert (k, cut.errors.size) == (2, 2)
    series = sorted([*series, cut], key=_key)
    assert any(s.estimator == "ig" and s.start == SMALL.iterations for s in series)
    assert len({s.wall_ns for s in series}) == len(series)
    assert_same_series(read_csv(emit_csv(series, tmp_path / "r.csv")), series)


@pytest.mark.parametrize("rows, why", [
    (["ang,0,0.5,7", "ang,2,0.25,7"], "iterations are not consecutive"),
    (["ang,3,0.5,7", "ang,2,0.25,7"], "iterations are not consecutive"),
    (["ang,0,0.5,7", "ang,1,0.25,8"], "wall_ns varies"),
    (["ang,0,0.5,7", "dg,0,0.5,9", "ang,1,0.25,7"], "not in one run"),
    (["ang,0,0.5,7", "ang,1,0.25,7,3"], "broken.csv:3: 8 fields, expected 7"),
    (["ang,0,0.5", "ang,1,0.25,7"], "broken.csv:2: 6 fields, expected 7"),
], ids=["gap", "backwards", "wall_ns", "split", "too-long", "too-short"])
def test_read_csv_rejects_a_broken_series(rows, why, tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("problem,P,solver,estimator,iteration,error,wall_ns\n"
                    + "".join(f"f1,5,gd,{row}\n" for row in rows))
    with pytest.raises(ValueError, match=why):
        read_csv(path)


def test_read_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(bad)


def test_read_csv_names_a_path_it_cannot_read(tmp_path):
    missing = tmp_path / "absent.csv"
    with pytest.raises(OSError, match=re.escape(f"failed reading {missing}: ")):
        read_csv(missing)


# ---------------------------------------------------------------------------
# Plots


def fixture_series():
    return [
        Series("f1", 6, "gd", "ang", 0, [10.0 ** (-it) for it in range(5)], 1),
        Series("f1", 6, "heavy_ball", "dg", 0, [0.5 ** it for it in range(5)], 1),
        Series("f1", 6, "gd", "ig", 4, [1e-3], 1),
        Series("f2", 9, "gd", "ang", 0, [0.0], 1),  # log-of-zero case
    ]


def test_emit_plots_deterministic(tmp_path):
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    paths1 = emit_plots(fixture_series(), d1)
    paths2 = emit_plots(fixture_series(), d2)
    assert [p.name for p in paths1] == ["f1_P6.svg", "f2_P9.svg"]
    for a, b in zip(paths1, paths2):
        assert a.read_bytes() == b.read_bytes()
    svg = paths1[0].read_text()
    assert svg.startswith("<svg")
    assert 'stroke-dasharray="6,3"' in svg  # inertial series dashed
    assert "#e69f00" in svg and "#0072b2" in svg


def test_emit_plots_clamps_zero_errors(tmp_path):
    paths = emit_plots(fixture_series(), tmp_path)
    svg = (tmp_path / "f2_P9.svg").read_text()
    assert "-16" in svg  # the display floor appears on the axis


def test_plots_regenerate_identically_from_csv(tmp_path):
    series, _ = run_grid(SMALL, clock=constant_clock)
    direct = tmp_path / "direct"
    emit_plots(series, direct)
    csv_path = emit_csv(series, tmp_path / "r.csv")
    rebuilt = tmp_path / "rebuilt"
    emit_plots(read_csv(csv_path), rebuilt)
    for p in direct.iterdir():
        assert p.read_bytes() == (rebuilt / p.name).read_bytes()


def _per_record_coordinates(series):
    """Per cell, the polyline or circle coordinates of each series in legend
    order, computed error by error with np.log10(max(e, LOG_FLOOR))."""
    h = valgrad.harness
    cells = {}
    for s in series:
        cells.setdefault((s.problem, s.p), {})[(s.solver, s.estimator)] = [
            (it, np.log10(max(e, h.LOG_FLOOR)))
            for it, e in enumerate(s.errors.tolist(), s.start)
        ]
    out = {}
    for (problem, p), logs in cells.items():
        values = [v for pts in logs.values() for _, v in pts]
        lo, hi = float(np.floor(min(0.0, *values))), float(np.ceil(max(-16.0, *values)))
        if hi <= lo:
            hi = lo + 1.0
        span = max(max(it for pts in logs.values() for it, _ in pts), 1)
        out[f"{problem}_P{p}.svg"] = [
            " ".join(
                f"{h._ML + (h._W - h._ML - h._MR) * it / span:.2f},"
                f"{h._MT + (h._H - h._MT - h._MB) * (hi - v) / (hi - lo):.2f}"
                for it, v in logs[key]
            )
            for key in sorted(logs)
        ]
    return out


def _spread_series():
    """Errors over 24 decades, with zeros and exact powers of ten."""
    gen = np.random.Generator(np.random.PCG64(11))
    errors = 10.0 ** gen.uniform(-20.0, 4.0, 300)
    errors[::37] = 0.0
    errors[5::41] = 10.0 ** np.arange(-16, -16 + errors[5::41].size)
    keys = [("gd", "ang"), ("heavy_ball", "aug"), ("gd", "dg")]
    return [Series("f2", 30, solver, est, 0, errors[100 * j: 100 * (j + 1)], 0)
            for j, (solver, est) in enumerate(keys)]


@pytest.mark.parametrize("series", [fixture_series, _spread_series], ids=["fixture", "spread"])
def test_svg_coordinates_equal_the_per_record_path(series, tmp_path):
    # the plots take one log10 per series array; the coordinates must be
    # the ones the per-error scalar log10 gives, to the byte
    want = _per_record_coordinates(series())
    for path in emit_plots(series(), tmp_path):
        svg = path.read_text()
        got = [m[0] or f"{m[1]},{m[2]}" for m in re.findall(
            r'<polyline points="([^"]*)"|<circle cx="([^"]*)" cy="([^"]*)"', svg)]
        assert got == want[path.name]


def test_empty_records_emit_no_plots(tmp_path):
    assert emit_plots([], tmp_path) == []


# ---------------------------------------------------------------------------
# CLI


def test_cli_rates_identity(capsys):
    assert main(["rates", "--problem", "f1", "--identity", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "omega_p     = 0.0000000000" in out


def test_cli_verify_pass_and_fail(capsys):
    code = main(["verify", "--problem", "f1", "--n", "10", "--p", "6",
                 "--cond", "2", "--iters", "2000"])
    assert code == 0
    # absurdly tight tolerance forces a verification failure
    code = main(["verify", "--problem", "f2", "--n", "10", "--p", "6",
                 "--cond", "2", "--iters", "5", "--tol", "1e-15"])
    assert code == 1


def test_cli_verify_defaults_pass_a_cell_with_p_at_least_n(capsys):
    # at 2,000 fista steps the dual estimate of f1 P=50 (N=50) was 6.5e-2
    # from the finite differences; the default budget certifies it
    assert main(["verify", "--problem", "f1", "--p", "50"]) == 0
    disc = float(capsys.readouterr().out.split(":")[1])
    assert disc <= CROSS_CHECK_TOL


def test_verify_certifies_its_centre_as_run_does(monkeypatch):
    # verify's finite-difference centre comes from certified_truth, as
    # run's truth does: at P < N one dual solve and no N x N primal solve
    calls = spy_on_the_centre_solves(monkeypatch)
    assert main(["verify", "--problem", "f3", "--p", "10"]) == 0
    assert calls == [("oracle_dual_solve", 10, ORACLE_ITERATIONS)]


def test_cli_verify_warns_when_an_oracle_solve_does_not_converge(capsys, monkeypatch):
    # with no iterations allowed the finite-difference columns stop
    # uncertified: verify says so, and its discrepancy (4.9e-2) fails
    fd = valgrad.cli.fd_oracle
    monkeypatch.setattr(valgrad.cli, "fd_oracle",
                        lambda pr, u, **kwargs: fd(pr, u, **{**kwargs, "max_iterations": 0}))
    assert main(["verify", "--problem", "f2", "--p", "5", "--n", "8", "--iters", "50"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["warning: an inner oracle solve did not converge"]


def test_a_cond_that_overflows_the_gram_matrix_is_bad_input(tmp_path, capsys):
    # A^T A overflows long before the data does; that is a bad --cond, not
    # a numerical failure of a solve
    with pytest.raises(ConfigError, match="--cond"):
        grid_cell(ExperimentConfig(cond_ratio=1e200), "f1", 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy overflow warnings
        assert main(["run", "--cond", "1e200", "--problems", "f1", "--p", "10",
                     "--iters", "5", "--out", str(tmp_path)]) == 2
        assert main(["rates", "--problem", "f2", "--cond", "1e300"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(ln.startswith("error: ") and "--cond" in ln for ln in err)


def test_verify_and_rates_examine_the_cell_run_builds(tmp_path, monkeypatch):
    # each command builds its (A, u) through grid_cell from the cell seed,
    # so all three see the f3 P=90 data that run --seed 7 measures
    cells = []
    ground_truth, dual, report = (valgrad.harness._ground_truth, valgrad.cli.dual_estimator,
                                  valgrad.cli.rate_report)
    monkeypatch.setattr(valgrad.harness, "_ground_truth",
                        lambda pr, u, *rest: cells.append((pr, u)) or ground_truth(pr, u, *rest))
    monkeypatch.setattr(valgrad.cli, "dual_estimator",
                        lambda pr, u, solver: cells.append((pr, u)) or dual(pr, u, solver))
    monkeypatch.setattr(valgrad.cli, "rate_report",
                        lambda pr: cells.append((pr, None)) or report(pr))
    cell = ["--p", "90", "--seed", "7", "--n", "20", "--cond", "5", "--gamma", "0.3"]
    assert main(["run", "--problems", "f3", *cell, "--iters", "2", "--out", str(tmp_path)]) == 0
    main(["verify", "--problem", "f3", *cell, "--iters", "5"])
    assert main(["rates", "--problem", "f3", *cell]) == 0
    (run_pr, run_u), (verify_pr, verify_u), (rates_pr, _) = cells
    assert run_pr.a.shape == (90, 20) and np.array_equal(verify_u, run_u)
    for pr in (verify_pr, rates_pr):
        assert np.array_equal(pr.a, run_pr.a) and (pr.h, pr.k) == (run_pr.h, run_pr.k)


def test_cli_toy_output(capsys):
    assert main(["toy", "--u", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "exp_lower_bound" in out
    # analytic estimator prints exactly zero while truth is exp(u)
    line = [ln for ln in out.splitlines() if ln.startswith("exp_lower_bound")][0]
    cols = line.split()
    assert float(cols[1]) == 0.0
    assert float(cols[5]) == pytest.approx(np.exp(0.5), abs=1e-4)
    # every example prints a finite dual estimate near its truth, and the u
    # it ran at: example 2 needs u < |b/a| = 1, so it runs at most at 0.9
    for u, used in ((0.5, [0.5, 0.5, 0.5]), (2.0, [2.0, 0.9, 2.0])):
        assert main(["toy", "--u", str(u)]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["exp_lower_bound", "interval_quadratic",
                                        "no_minimizer"]
        for r in rows:
            assert np.isfinite(float(r[4]))
            assert float(r[4]) == pytest.approx(float(r[5]), abs=1e-4)
        assert [float(r[6]) for r in rows] == used


@pytest.mark.parametrize("u", ["1e-12", "708.7"])
def test_cli_toy_rows_keep_seven_fields(u, capsys):
    # e^708.7 has 308 digits in fixed point, which ran the exp row's fields
    # together; every row is its name and six numbers at any u toy accepts
    assert main(["toy", "--u", u]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    assert [len(r) for r in rows] == [7] * 4
    exp_row = rows[1]
    assert exp_row[0] == "exp_lower_bound"
    assert float(exp_row[5]) == pytest.approx(np.exp(float(u)), rel=1e-5)
    assert float(exp_row[6]) == float(u)


def test_cli_run_small_grid(tmp_path, capsys):
    out_dir = tmp_path / "res"
    code = main([
        "run", "--n", "10", "--p", "5", "--problems", "f1", "--iters", "15",
        "--cond", "2", "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "plots" / "f1_P5.svg").exists()


def test_every_config_field_is_set_by_a_run_flag(tmp_path, monkeypatch):
    class Stop(Exception):
        """Stops the command before the grid runs."""

    configs = []

    def capture(cfg):
        configs.append(cfg)
        raise Stop

    monkeypatch.setattr(valgrad.cli, "run_grid", capture)
    with pytest.raises(Stop):
        main(["run", "--n", "7", "--p", "3,4", "--problems", "f2", "--lam", "1.5",
              "--gamma", "0.3", "--delta", "0.2", "--iters", "9", "--seed", "4",
              "--inertia", "off", "--cond", "5", "--out", str(tmp_path)])
    assert configs == [ExperimentConfig(n=7, p_list=(3, 4), problems=("f2",), lam=1.5,
                                        gamma=0.3, delta=0.2, iterations=9, seed=4,
                                        inertia="off", cond_ratio=5.0)]
    default = ExperimentConfig()
    for field in dataclasses.fields(ExperimentConfig):
        assert getattr(configs[0], field.name) != getattr(default, field.name), field.name


def test_flagged_oracle_is_reported(tmp_path, capsys, monkeypatch):
    cfg = ExperimentConfig(n=12, p_list=(6,), problems=("f1", "f3"), iterations=10,
                           cond_ratio=3.0)
    assert run_grid(cfg, clock=constant_clock)[1]["oracle_flagged"] == []

    def capped(pr, u, **kwargs):
        return fd_oracle(pr, u, **{**kwargs, "max_iterations": 0})

    monkeypatch.setattr(valgrad.harness, "fd_oracle", capped)
    _, summary = run_grid(cfg, clock=constant_clock)
    # every problem, f1 included, takes the finite-difference cross-check
    assert summary["oracle_flagged"] == [("f1", 6), ("f3", 6)]
    code = main(["run", "--n", "12", "--p", "6", "--problems", "f1,f3", "--iters", "10",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == (1 if summary["aborted"] else 0)
    out = capsys.readouterr().out
    for name in ("f1", "f3"):
        assert f"warning: {name} P=6: the ground truth is not certified" in out


def test_oracle_iterations_caps_the_fd_oracle(monkeypatch):
    # run_grid passes no cap, so the centre solve and the finite-difference
    # block each run under ORACLE_ITERATIONS, their default
    calls = []

    def spy(oracle):
        def spied(pr, u, *args, **kwargs):
            calls.append((oracle.__name__, args, sorted(kwargs)))
            return oracle(pr, u, *args, **kwargs)
        return spied

    for oracle in (certified_truth, fd_oracle):
        monkeypatch.setattr(valgrad.harness, oracle.__name__, spy(oracle))
    cfg = ExperimentConfig(n=12, p_list=(6,), problems=("f3",), iterations=10,
                           cond_ratio=3.0)
    run_grid(cfg, clock=constant_clock)
    assert calls == [("certified_truth", (), []), ("fd_oracle", (), ["warm"])]


def skip_the_dual_solve(monkeypatch):
    """Cap the ground truth's dual solve at 0 steps, so that every cell
    takes the primal path."""
    def capped(pr, u, **kwargs):
        return oracle_dual_solve(pr, u, **{**kwargs, "max_iterations": 0})

    monkeypatch.setattr(valgrad.estimators, "oracle_dual_solve", capped)


def spy_on_the_centre_solves(monkeypatch):
    """Record (solve, P, cap) for each dual and primal centre solve that
    ``certified_truth`` makes."""
    calls = []

    def spy(solve):
        def spied(pr, u, **kwargs):
            calls.append((solve.__name__, pr.p, kwargs["max_iterations"]))
            return solve(pr, u, **kwargs)
        return spied

    for solve in (oracle_dual_solve, oracle_primal_solve):
        monkeypatch.setattr(valgrad.estimators, solve.__name__, spy(solve))
    return calls


def test_unconverged_xstar_solve_is_reported(tmp_path, capsys, monkeypatch):
    def capped(pr, u, **kwargs):
        return oracle_primal_solve(pr, u, **{**kwargs, "max_iterations": 1})

    skip_the_dual_solve(monkeypatch)
    monkeypatch.setattr(valgrad.estimators, "oracle_primal_solve", capped)
    cfg = ExperimentConfig(n=12, p_list=(6,), problems=("f1", "f3"), iterations=10,
                           cond_ratio=3.0)
    _, summary = run_grid(cfg, clock=constant_clock)
    # f1's one Newton step certifies its centre solve; f3's needs more, and
    # the finite-difference columns still converge
    assert summary["oracle_flagged"] == [("f3", 6)]
    code = main(["run", "--n", "12", "--p", "6", "--problems", "f1,f3", "--iters", "10",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == (1 if summary["aborted"] else 0)
    out = capsys.readouterr().out
    assert "warning: f3 P=6: the ground truth is not certified" in out


def test_diverged_series_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    # on f4 P=10 the ipiasco forward sensitivities grow until the aug error
    # overflows; that is a result of the run, not bad arguments
    summaries = []

    def keep_summary(cfg, **kwargs):
        series, summary = run_grid(cfg, **kwargs)
        summaries.append(summary)
        return series, summary

    monkeypatch.setattr(valgrad.cli, "run_grid", keep_summary)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy overflow warnings
        code = main(["run", "--problems", "f4", "--p", "10", "--iters", "3000",
                     "--out", str(tmp_path)])
    assert code == 0
    [(name, p, solver, estimator, k)] = summaries[0]["diverged"]
    assert (name, p, solver, estimator) == ("f4", 10, "ipiasco", "aug") and 0 < k < 3000
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "not finite" in ln]
    assert lines == [f"warning: f4 P=10 ipiasco aug: the error is not finite from "
                     f"iteration {k} on; the series stops before it"]
    [aug] = [s for s in read_csv(tmp_path / "results.csv")
             if (s.solver, s.estimator) == ("ipiasco", "aug")]
    assert (aug.start, aug.errors.size) == (0, k)


def test_a_reverse_sweep_that_overflows_is_reported_not_raised(monkeypatch):
    # f3 at N = 12 with two coordinates that no row of A touches: they stay
    # zeroed, so all 350 steps are dense and dense P = 70,000 > 61,425 sends
    # the run to the reverse sweep.  At a step of 4/L the iterates grow by
    # about 3 a step; the aug error overflows long before the ang error, and
    # the distance to the cell's minimizer overflows too
    a, u = seeded_problem_data(12, 200, 3, 3.0)
    a[:, :2] = 0.0
    pr = make_experiment_problem(3, a)
    xstar = oracle_primal_solve(pr, u, max_iterations=ORACLE_ITERATIONS)[0]
    primal = pr.curvature()
    policy = valgrad.estimators.step_policy
    monkeypatch.setattr(valgrad.estimators, "step_policy",
                        lambda method, lips, m: (4.0 / lips, 0.0) if (lips, m) == primal
                        else policy(method, lips, m))
    swept = []
    sweep = valgrad.estimators._reverse_estimates
    monkeypatch.setattr(valgrad.estimators, "_reverse_estimates",
                        lambda *args: swept.append(1) or sweep(*args))
    cfg = ExperimentConfig(n=12, p_list=(200,), problems=("f3",), iterations=350,
                           inertia="off")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # numpy overflow warnings
        summary = {"inapplicable": [], "diverged": [], "dg_beats_ang": []}
        series = _run_cell(pr, u, pr.grad_u(xstar, u), xstar, "f3", 200, cfg, constant_clock,
                           summary)
    assert swept == [1]
    (*primal, k_x), (*ang, k_ang), (*aug, k) = summary["diverged"]
    assert primal == ["f3", 200, "ista", "primal"]
    assert ang == ["f3", 200, "ista", "ang"] and aug == ["f3", 200, "ista", "aug"]
    assert 0 < k < k_ang < 350 and k_x < 350
    [aug] = [s for s in series if s.estimator == "aug"]
    assert (aug.start, aug.errors.size) == (0, k)


def test_the_ground_truth_takes_the_dual_below_n_and_the_primal_from_n_on(monkeypatch):
    # P < N: the dual solve certifies and no primal solve runs; P >= N:
    # the primal solve alone, with the whole cap
    calls = spy_on_the_centre_solves(monkeypatch)
    cfg = ExperimentConfig(n=12, p_list=(6, 15), problems=("f1", "f3"), iterations=5,
                           cond_ratio=3.0)
    _, summary = run_grid(cfg, clock=constant_clock)
    assert summary["oracle_flagged"] == [] and summary["aborted"] == []
    assert calls == [("oracle_dual_solve", 6, ORACLE_ITERATIONS),
                     ("oracle_primal_solve", 15, ORACLE_ITERATIONS)] * 2


def test_a_binding_ball_hands_the_dual_solve_over_to_the_primal(monkeypatch):
    # f4 at P < N with delta below |y| at the minimizer of the dual's smooth
    # part: the dual solve reaches that minimizer but cannot certify it, and
    # the cell takes the primal solve with the iterations left; its truth
    # lies on the ball and is certified
    cfg = ExperimentConfig(n=20, p_list=(8,), problems=("f4",), delta=0.03, cond_ratio=30.0)
    pr, u = grid_cell(cfg, "f4", 8)
    y, _, steps, certified = oracle_dual_solve(pr, u)
    assert not certified and steps > 0 and np.linalg.norm(y) > 0.03
    calls = spy_on_the_centre_solves(monkeypatch)
    truth, _, flagged, gap = _ground_truth(pr, u)
    assert calls == [("oracle_dual_solve", 8, ORACLE_ITERATIONS),
                     ("oracle_primal_solve", 8, ORACLE_ITERATIONS - steps)]
    assert not flagged and gap <= 1e-6
    assert np.linalg.norm(truth) == pytest.approx(0.03, rel=1e-9)


def test_a_truth_the_duality_gap_cannot_certify_is_flagged(monkeypatch):
    # at lam = 1e-13 f2's primal centre solve stops "certified" at
    # |x| ~ 3e14, where x - tau grad f(x) rounds to x; its duality-gap bound
    # at the truth is about 0.5, far above CROSS_CHECK_TOL, and the cell is
    # flagged as well as aborted.  (The dual solve certifies this cell, whose
    # dual is 5.5e16-strongly convex, so it is skipped here.)
    skip_the_dual_solve(monkeypatch)
    cfg = ExperimentConfig(p_list=(10,), problems=("f2",), lam=1e-13)
    _, summary = run_grid(cfg, clock=constant_clock)
    assert summary["oracle_flagged"] == [("f2", 10)]
    assert [cell[:2] for cell in summary["aborted"]] == [("f2", 10)]
    pr, u = grid_cell(cfg, "f2", 10)
    xstar = oracle_primal_solve(pr, u, max_iterations=ORACLE_ITERATIONS)[0]
    assert _gap_bound(pr, xstar, pr.grad_u(xstar, u), u) > 0.1


def test_the_gap_bound_holds_on_default_grid_truths():
    # at seed 0 the bound at a cell's truth stays below 1e-6, far under
    # CROSS_CHECK_TOL, and above the truth's distance to the dual point of a
    # tighter solve
    cfg = ExperimentConfig()
    for name in ("f1", "f2", "f3", "f4"):
        for p in (10, 90):
            pr, u = grid_cell(cfg, name, p)
            xstar = oracle_primal_solve(pr, u)[0]
            tight = oracle_primal_solve(pr, u, tol=1e-11)[0]
            truth, best = pr.grad_u(xstar, u), pr.grad_u(tight, u)
            bound = _gap_bound(pr, xstar, truth, u)
            assert np.linalg.norm(truth - best) <= bound + 1e-11 and bound < 1e-6, (name, p)


def test_the_gap_bound_holds_where_the_computed_gap_is_negative():
    # a point 1e-11 off f1's minimizer: the two values cancel to a gap that
    # rounds below zero, where a bound clamped at zero would read 0, below
    # the dual point's true distance
    a, u = seeded_problem_data(12, 5, 0, 10.0)
    pr = make_experiment_problem(1, a)
    xstar, grad = closed_form_f1(a, 2.0, u)
    x = xstar.copy()
    x[0] += 1e-11
    y = pr.grad_u(x, u)
    assert pr.duality_gap(x, y, u) < 0.0
    bound = _gap_bound(pr, x, y, u)
    assert np.isfinite(bound) and bound >= np.linalg.norm(y - grad)


def test_python_dash_m_runs_the_cli():
    src = Path(valgrad.harness.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "valgrad", "rates"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("problem f1, N=50, P=30")


def test_inapplicable_implicit_estimate_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    # at lam = 1e-13 and P = 10 < N = 50 the surrogate Hessian A^T A + lam I
    # is singular up to round-off, so it has no Cholesky factor; that is a
    # result of the run, not an aborted cell
    summaries = []

    def keep_summary(cfg, **kwargs):
        series, summary = run_grid(cfg, **kwargs)
        summaries.append(summary)
        return series, summary

    monkeypatch.setattr(valgrad.cli, "run_grid", keep_summary)
    code = main(["run", "--lam", "1e-13", "--p", "10", "--problems", "f1",
                 "--out", str(tmp_path)])
    assert code == 0
    reason = "surrogate Hessian is not positive definite"
    assert summaries[0]["inapplicable"] == [
        ("f1", 10, "gd", "ig", reason), ("f1", 10, "heavy_ball", "ig", reason),
    ]
    assert summaries[0]["cells"] == [("f1", 10)] and not summaries[0]["aborted"]
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("inapplicable")]
    assert lines == [f"inapplicable f1 P=10 {solver} ig: {reason}; no series written"
                     for solver in ("gd", "heavy_ball")]
    series = {(s.solver, s.estimator) for s in read_csv(tmp_path / "results.csv")}
    assert series == {(solver, est) for solver in ("gd", "heavy_ball")
                      for est in ("primal", "ang", "aug", "dg")}


def test_cross_check_gap_is_reported(tmp_path, capsys):
    _, summary = run_grid(SMALL, clock=constant_clock)
    # every cell, f1's included, has a cross-check
    assert [cell[:2] for cell in summary["cross_check_gap"]] == summary["cells"] == [
        ("f1", 6), ("f1", 9), ("f3", 6), ("f3", 9)]
    assert all(0.0 <= gap <= CROSS_CHECK_TOL for *_, gap in summary["cross_check_gap"])
    name, p, worst = max(summary["cross_check_gap"], key=lambda cell: cell[2])
    code = main(["run", "--n", "12", "--p", "6,9", "--problems", "f1,f3", "--iters", "40",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("largest")]
    assert lines == [
        f"largest ground-truth vs finite-difference gap: {worst:.3e} ({name} P={p})"
    ]


def test_dual_beats_analytic_counts_cell_and_solver_pairs(tmp_path, capsys):
    # one entry per cell and primal solver: 4 cells with P < N, 2 solvers each
    _, summary = run_grid(SMALL, clock=constant_clock)
    wins = [flag for *_, flag in summary["dg_beats_ang"]]
    assert len(wins) == 8
    code = main(["run", "--n", "12", "--p", "6,9", "--problems", "f1,f3", "--iters", "40",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("dual")]
    assert lines == [f"dual beats analytic (P < N): {sum(wins)}/8 cell-and-solver pairs"]


def test_seed7_f3_p90_passes_its_cross_check():
    # the dual FISTA reference this cell once used was 1.2e-4 off the
    # finite differences, which aborted it; the certified primal solve agrees
    cfg = ExperimentConfig(seed=7, problems=("f3",), p_list=(90,), iterations=2)
    _, summary = run_grid(cfg, clock=constant_clock)
    assert summary["aborted"] == [] and summary["oracle_flagged"] == []
    assert summary["cells"] == [("f3", 90)]
    [(_, _, gap)] = summary["cross_check_gap"]
    assert gap <= 1e-6


def test_cli_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--unknown-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "--p", "0"], ["run", "--p", "10,x"], ["run", "--problems", "f1,f7"],
    ["run", "--lam", "-1"], ["run", "--cond", "0.5"], ["verify", "--problem", "f9"],
    ["verify", "--delta", "0"], ["rates", "--n", "0"], ["rates", "--gamma", "-0.1"],
    ["toy", "--u", "0"], ["toy", "--iters", "-1"], ["run", "--seed", "-1"],
    ["verify", "--seed", "-1"], ["rates", "--seed", "-1"], ["verify", "--tol", "nan"],
    ["verify", "--tol", "0"], ["verify", "--tol", "-1"], ["run", "--lam", "inf"],
    ["verify", "--gamma", "inf"], ["rates", "--delta", "inf"], ["run", "--cond", "inf"],
    ["toy", "--u", "inf"], ["toy", "--u", "1e300"], ["toy", "--u", "708.8"],
])
def test_cli_bad_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_toy_runs_up_to_the_largest_finite_exponential(capsys):
    # the exp example starts at x0 = u + 1, and e^709.7 is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["toy", "--u", "708.7"]) == 0
    assert capsys.readouterr().err == ""


SINGULAR_NEWTON_RUN = ["run", "--n", "5", "--seed", "973877", "--lam", "501", "--gamma", "0",
                       "--delta", "0.0171", "--cond", "1.59e13", "--p", "1,2,3", "--iters", "4",
                       "--problems", "f1,f3"]


def test_a_singular_newton_system_does_not_end_the_grid(tmp_path, capsys, monkeypatch):
    # on the primal path, f1 P=1's centre Newton step meets a singular
    # Jacobian; the solve goes on in the certified fallback, and the grid's
    # other cells are written
    skip_the_dual_solve(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(SINGULAR_NEWTON_RUN + ["--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    aborted = re.findall(r"^aborted (f\d) P=(\d+):", out, flags=re.M)
    assert aborted == [("f1", "1"), ("f3", "2")]
    plots = sorted(p.name for p in (tmp_path / "plots").iterdir())
    assert plots == ["f1_P2.svg", "f1_P3.svg", "f3_P1.svg", "f3_P3.svg"]


def test_the_dual_truth_completes_the_cells_the_primal_path_aborts(tmp_path, capsys):
    # the same grid with the dual solve at P < N: every cell passes its
    # cross-check, and the two the primal path aborts agree with the
    # finite differences
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(SINGULAR_NEWTON_RUN + ["--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cells completed: 6" in out and "aborted" not in out
    [gap] = re.findall(r"^largest ground-truth vs finite-difference gap: (\S+) ", out, flags=re.M)
    assert float(gap) <= 1e-9
    assert len(list((tmp_path / "plots").iterdir())) == 6


def test_cli_numerical_failure_exits_3(capsys, monkeypatch):
    # a LinAlgError is a ValueError, but a failed solve is not bad input;
    # here a patched Newton step raises one where a real one gives up
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(valgrad.estimators, "_newton_step", singular)
    code = main(["verify", "--n", "10", "--p", "5", "--problem", "f1", "--iters", "5"])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"


def test_cli_run_aborts_only_the_cell_with_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # P=5's dual estimator raises a LinAlgError on the cell's second solver,
    # after its first solver wrote a dual-beats-analytic entry: the cell is
    # aborted with every entry it wrote, and P=3 is still written
    dual = valgrad.harness.dual_estimator
    calls = []

    def failing(pr, u, cfg):
        if pr.p == 5:
            calls.append(cfg)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
        return dual(pr, u, cfg)

    monkeypatch.setattr(valgrad.harness, "dual_estimator", failing)
    code = main(["run", "--n", "10", "--p", "3,5", "--problems", "f1", "--iters", "5",
                 "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out
    assert re.findall(r"^aborted .*$", out, flags=re.M) == [
        "aborted f1 P=5: numerical failure: Singular matrix"]
    assert "cells completed: 1\n" in out
    assert re.search(r"^largest ground-truth vs finite-difference gap: \S+ \(f1 P=3\)$", out,
                     flags=re.M)
    assert re.search(r"^dual beats analytic \(P < N\): \d/2 ", out, flags=re.M)
    assert {s.p for s in read_csv(tmp_path / "results.csv")} == {3}
    assert [p.name for p in (tmp_path / "plots").iterdir()] == ["f1_P3.svg"]


@pytest.mark.parametrize("blocked", ["results.csv", "plots/f1_P3.svg"])
def test_cli_a_file_that_cannot_be_written_exits_2(blocked, tmp_path, capsys):
    # a directory where run writes its CSV or a plot: exit 2 with one error
    # line naming the file, not a traceback
    (tmp_path / blocked).mkdir(parents=True)
    code = main(["run", "--n", "6", "--p", "3", "--problems", "f1", "--iters", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: failed writing {tmp_path / blocked}: ")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\nn = 7\nlam = 3.5\nproblems = f1,f2  # trailing\n\n")
    vals = parse_config(str(cfg))
    assert vals == {"n": 7, "lam": 3.5, "problems": "f1,f2"}
    bad = tmp_path / "bad.txt"
    bad.write_text("nope = 3\n")
    with pytest.raises(ValueError):
        parse_config(str(bad))
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("just words\n")
    with pytest.raises(ValueError):
        parse_config(str(bad2))


def test_cli_config_overrides_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("n = 4\nproblem = f1\nidentity = true\n")
    assert main(["rates", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "N=4" in out
    # explicit flag beats the config value
    assert main(["rates", "--config", str(cfg), "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "N=5" in out


def test_cli_config_keys_reach_only_the_commands_that_declare_them(tmp_path, capsys):
    # one file for every command: a key a command lacks leaves it alone,
    # and the command that declares it still checks it
    cfg = tmp_path / "c.txt"
    cfg.write_text("tol = 0\nu = -1\nn = 4\nidentity = true\niters = 5\n")
    assert main(["run", "--config", str(cfg), "--p", "3", "--problems", "f1",
                 "--out", str(tmp_path)]) == 0
    assert main(["rates", "--config", str(cfg)]) == 0
    assert main(["verify", "--config", str(cfg)]) == 2
    assert main(["toy", "--config", str(cfg)]) == 2
    assert main(["toy", "--config", str(cfg), "--u", "0.5"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --tol must be finite and positive, got 0.0",
                   "error: --u must be positive with e^(u + 1) below 1.798e+308, got -1.0"]
    # a key no command declares stays an error
    cfg.write_text("tol = 1e-6\nnope = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--config", str(cfg)])
    assert exc.value.code == 2


def test_cli_config_equals_form_reads_the_file(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text("problem = f3\np = 12\nn = 20\n")
    assert main(["rates", f"--config={cfg}"]) == 0
    out = capsys.readouterr().out
    assert "problem f3, N=20, P=12" in out
    assert main(["rates", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == out


def test_cli_config_missing_file_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--config", str(tmp_path / "absent.txt")])
    assert exc.value.code == 2


def test_cli_config_bad_value_exit_2(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("n = seven\n")
    with pytest.raises(ConfigError, match="c.txt:1"):
        parse_config(str(cfg))
    with pytest.raises(SystemExit) as exc:
        main(["rates", "--config", str(cfg)])
    assert exc.value.code == 2
