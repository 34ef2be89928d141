import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import valgrad.cli
import valgrad.harness
from valgrad.cli import main, parse_config
from valgrad.estimators import fd_oracle, oracle_primal_solve
from valgrad.harness import (
    ConfigError,
    ErrorRecord,
    ExperimentConfig,
    emit_csv,
    emit_plots,
    read_csv,
    run_grid,
)

SMALL = ExperimentConfig(
    n=12, p_list=(6, 9), problems=("f1", "f3"), iterations=40,
    cond_ratio=3.0, oracle_iterations=5000,
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


def test_error_record_validation():
    with pytest.raises(ValueError):
        ErrorRecord("f1", 5, "gd", "ang", 0, -1.0, 0)
    with pytest.raises(ValueError):
        ErrorRecord("f1", 5, "gd", "ang", 0, float("nan"), 0)


@pytest.mark.parametrize("error", [float("inf"), -float("inf")])
def test_error_record_rejects_infinite_errors(error):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ErrorRecord("f1", 5, "gd", "ang", 0, error, 0)


def test_run_grid_produces_expected_series():
    records, summary = run_grid(SMALL, clock=constant_clock)
    assert not summary["aborted"]
    assert set(summary["cells"]) == {("f1", 6), ("f1", 9), ("f3", 6), ("f3", 9)}
    keys = {(r.problem, r.p, r.solver, r.estimator) for r in records}
    # f1 runs gd + heavy_ball, f3 ista + ipiasco; dual solvers mirror that
    assert ("f1", 6, "gd", "ang") in keys
    assert ("f1", 6, "heavy_ball", "aug") in keys
    assert ("f1", 6, "gd", "dg") in keys
    assert ("f3", 9, "ista", "primal") in keys
    assert ("f3", 9, "ipiasco", "ig") in keys
    # uniqueness of (problem, P, solver, estimator, iteration)
    full = [(r.problem, r.p, r.solver, r.estimator, r.iteration) for r in records]
    assert len(full) == len(set(full))
    # per-iteration series span 0..K; ig is a single final-iterate record
    angs = [r for r in records if (r.problem, r.p, r.solver, r.estimator) == ("f1", 6, "gd", "ang")]
    assert [r.iteration for r in angs] == list(range(41))
    igs = [r for r in records if (r.problem, r.p, r.solver, r.estimator) == ("f1", 6, "gd", "ig")]
    assert [r.iteration for r in igs] == [40]


def test_run_grid_keys_unique_on_every_problem():
    # both inertias on all four problems: the two dual series of a cell never
    # share a solver name, so every record key is unique without a dedup pass
    cfg = ExperimentConfig(n=8, p_list=(3, 5), iterations=10, cond_ratio=3.0,
                           oracle_iterations=5000)
    records, summary = run_grid(cfg, clock=constant_clock)
    assert not summary["aborted"]
    keys = {(r.problem, r.p, r.solver, r.estimator, r.iteration) for r in records}
    # per primal method: primal, ang, aug and dg over 0..K, plus one ig record
    per_cell = 2 * (4 * (cfg.iterations + 1) + 1)
    assert len(keys) == len(records) == 8 * per_cell


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
    assert {r.solver for r in off} == {"gd"}
    on, _ = run_grid(
        ExperimentConfig(n=10, p_list=(5,), problems=("f1",), iterations=10,
                         cond_ratio=2.0, inertia="on"),
        clock=constant_clock,
    )
    assert {r.solver for r in on} == {"heavy_ball"}


def test_run_grid_runs_gd_on_an_elastic_net_without_l1():
    # gamma = 0 leaves f3/f4 no prox part, so they run gd and heavy_ball
    cfg = ExperimentConfig(n=8, p_list=(3, 5), problems=("f3", "f4"), gamma=0.0,
                           iterations=10, cond_ratio=3.0, oracle_iterations=5000)
    records, summary = run_grid(cfg, clock=constant_clock)
    assert not summary["aborted"] and len(summary["cells"]) == 4
    assert {r.solver for r in records if r.estimator != "dg"} == {"gd", "heavy_ball"}
    # the dual keeps its own prox part: the Huber ball of f4
    dual = {(r.problem, r.solver) for r in records if r.estimator == "dg"}
    assert dual == {("f3", "gd"), ("f3", "heavy_ball"), ("f4", "ista"), ("f4", "ipiasco")}


# ---------------------------------------------------------------------------
# CSV format fixtures


def test_emit_csv_empty(tmp_path):
    path = emit_csv([], tmp_path / "e.csv")
    assert path.read_text() == "problem,P,solver,estimator,iteration,error,wall_ns\n"


def test_emit_csv_roundtrip_single(tmp_path):
    rec = ErrorRecord("f2", 30, "gd", "ang", 7, 0.1234567890123456789, 42)
    path = emit_csv([rec], tmp_path / "one.csv")
    back = read_csv(path)
    assert back == [rec]
    # shortest round-trip decimal, LF endings
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert b"0.12345678901234568" in raw


def test_emit_csv_sorted(tmp_path):
    recs = [
        ErrorRecord("f2", 10, "gd", "dg", 1, 1.0, 0),
        ErrorRecord("f1", 30, "gd", "ang", 0, 1.0, 0),
        ErrorRecord("f1", 10, "ista", "ang", 0, 1.0, 0),
        ErrorRecord("f1", 10, "gd", "ang", 2, 1.0, 0),
        ErrorRecord("f1", 10, "gd", "ang", 0, 1.0, 0),
    ]
    path = emit_csv(recs, tmp_path / "s.csv")
    lines = path.read_text().splitlines()[1:]
    assert lines == sorted(lines, key=lambda s: (
        s.split(",")[0], int(s.split(",")[1]), s.split(",")[2], s.split(",")[3],
        int(s.split(",")[4]),
    ))
    assert lines[0].startswith("f1,10,gd,ang,0")


def test_read_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(bad)


# ---------------------------------------------------------------------------
# Plots


def fixture_records():
    recs = []
    for it in range(5):
        recs.append(ErrorRecord("f1", 6, "gd", "ang", it, 10.0 ** (-it), 1))
        recs.append(ErrorRecord("f1", 6, "heavy_ball", "dg", it, 0.5 ** it, 1))
    recs.append(ErrorRecord("f1", 6, "gd", "ig", 4, 1e-3, 1))
    recs.append(ErrorRecord("f2", 9, "gd", "ang", 0, 0.0, 1))  # log-of-zero case
    return recs


def test_emit_plots_deterministic(tmp_path):
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    paths1 = emit_plots(fixture_records(), d1)
    paths2 = emit_plots(fixture_records(), d2)
    assert [p.name for p in paths1] == ["f1_P6.svg", "f2_P9.svg"]
    for a, b in zip(paths1, paths2):
        assert a.read_bytes() == b.read_bytes()
    svg = paths1[0].read_text()
    assert svg.startswith("<svg")
    assert 'stroke-dasharray="6,3"' in svg  # inertial series dashed
    assert "#e69f00" in svg and "#0072b2" in svg


def test_emit_plots_clamps_zero_errors(tmp_path):
    paths = emit_plots(fixture_records(), tmp_path)
    svg = (tmp_path / "f2_P9.svg").read_text()
    assert "-16" in svg  # the display floor appears on the axis


def test_plots_regenerate_identically_from_csv(tmp_path):
    records, _ = run_grid(SMALL, clock=constant_clock)
    direct = tmp_path / "direct"
    emit_plots(records, direct)
    csv_path = emit_csv(records, tmp_path / "r.csv")
    rebuilt = tmp_path / "rebuilt"
    emit_plots(read_csv(csv_path), rebuilt)
    for p in direct.iterdir():
        assert p.read_bytes() == (rebuilt / p.name).read_bytes()


def _per_record_coordinates(records):
    """Per cell, the polyline or circle coordinates of each series in legend
    order, computed record by record with np.log10(max(e, LOG_FLOOR))."""
    h = valgrad.harness
    cells = {}
    for r in records:
        cells.setdefault((r.problem, r.p), {}).setdefault((r.solver, r.estimator), []).append(r)
    out = {}
    for (problem, p), series in cells.items():
        logs = {
            key: [(r.iteration, np.log10(max(r.error, h.LOG_FLOOR)))
                  for r in sorted(pts, key=lambda r: r.iteration)]
            for key, pts in series.items()
        }
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


def _spread_records():
    """Errors over 24 decades, with zeros and exact powers of ten."""
    gen = np.random.Generator(np.random.PCG64(11))
    errors = 10.0 ** gen.uniform(-20.0, 4.0, 300)
    errors[::37] = 0.0
    errors[5::41] = 10.0 ** np.arange(-16, -16 + errors[5::41].size)
    series = [("gd", "ang"), ("heavy_ball", "aug"), ("gd", "dg")]
    return [ErrorRecord("f2", 30, solver, est, k, float(errors[100 * j + k]), 0)
            for j, (solver, est) in enumerate(series) for k in range(100)]


@pytest.mark.parametrize("records", [fixture_records, _spread_records], ids=["fixture", "spread"])
def test_svg_coordinates_equal_the_per_record_path(records, tmp_path):
    # the plots take one log10 per series array; the coordinates must be
    # the ones the per-record scalar log10 gives, to the byte
    want = _per_record_coordinates(records())
    for path in emit_plots(records(), tmp_path):
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


def test_cli_toy_output(capsys):
    assert main(["toy", "--u", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "exp_lower_bound" in out
    # analytic estimator prints exactly zero while truth is exp(u)
    line = [ln for ln in out.splitlines() if ln.startswith("exp_lower_bound")][0]
    cols = line.split()
    assert float(cols[1]) == 0.0
    assert float(cols[5]) == pytest.approx(np.exp(0.5), abs=1e-4)


def test_cli_run_small_grid(tmp_path, capsys):
    out_dir = tmp_path / "res"
    code = main([
        "run", "--n", "10", "--p", "5", "--problems", "f1", "--iters", "15",
        "--cond", "2", "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "plots" / "f1_P5.svg").exists()


def test_flagged_oracle_is_reported(tmp_path, capsys, monkeypatch):
    cfg = ExperimentConfig(n=12, p_list=(6,), problems=("f1", "f3"), iterations=10,
                           cond_ratio=3.0, oracle_iterations=5000)
    assert run_grid(cfg, clock=constant_clock)[1]["oracle_flagged"] == []

    def capped(pr, u, **kwargs):
        return fd_oracle(pr, u, max_iterations=5, **kwargs)

    monkeypatch.setattr(valgrad.harness, "fd_oracle", capped)
    _, summary = run_grid(cfg, clock=constant_clock)
    assert summary["oracle_flagged"] == [("f3", 6)]
    code = main(["run", "--n", "12", "--p", "6", "--problems", "f1,f3", "--iters", "10",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == (1 if summary["aborted"] else 0)
    out = capsys.readouterr().out
    assert "warning: f3 P=6: the finite-difference oracle did not converge" in out
    assert "f1 P=6" not in out


def test_unconverged_xstar_solve_is_reported(tmp_path, capsys, monkeypatch):
    def capped(pr, u, **kwargs):
        return oracle_primal_solve(pr, u, **{**kwargs, "max_iterations": 1})

    monkeypatch.setattr(valgrad.harness, "oracle_primal_solve", capped)
    cfg = ExperimentConfig(n=12, p_list=(6,), problems=("f1", "f3"), iterations=10,
                           cond_ratio=3.0, oracle_iterations=5000)
    _, summary = run_grid(cfg, clock=constant_clock)
    # f1 takes its closed form; the finite-difference columns still converge
    assert summary["oracle_flagged"] == [("f3", 6)]
    code = main(["run", "--n", "12", "--p", "6", "--problems", "f1,f3", "--iters", "10",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == (1 if summary["aborted"] else 0)
    out = capsys.readouterr().out
    assert "warning: f3 P=6: the finite-difference oracle did not converge" in out


def test_diverged_series_is_reported_not_raised(tmp_path, capsys, monkeypatch):
    # on f4 P=10 the ipiasco forward sensitivities grow until the aug error
    # overflows; that is a result of the run, not bad arguments
    summaries = []

    def keep_summary(cfg, **kwargs):
        records, summary = run_grid(cfg, **kwargs)
        summaries.append(summary)
        return records, summary

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
    aug = [r.iteration for r in read_csv(tmp_path / "results.csv")
           if (r.solver, r.estimator) == ("ipiasco", "aug")]
    assert aug == list(range(k))


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
        records, summary = run_grid(cfg, **kwargs)
        summaries.append(summary)
        return records, summary

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
    series = {(r.solver, r.estimator) for r in read_csv(tmp_path / "results.csv")}
    assert series == {(solver, est) for solver in ("gd", "heavy_ball")
                      for est in ("primal", "ang", "aug", "dg")}


def test_cross_check_gap_is_reported(tmp_path, capsys):
    _, summary = run_grid(SMALL, clock=constant_clock)
    # f1 takes its closed form, so only the f3 cells have a cross-check
    assert [cell[:2] for cell in summary["cross_check_gap"]] == [("f3", 6), ("f3", 9)]
    assert all(0.0 <= gap <= SMALL.cross_check_tol for *_, gap in summary["cross_check_gap"])
    name, p, worst = max(summary["cross_check_gap"], key=lambda cell: cell[2])
    code = main(["run", "--n", "12", "--p", "6,9", "--problems", "f1,f3", "--iters", "40",
                 "--cond", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("largest")]
    assert lines == [
        f"largest ground-truth vs finite-difference gap: {worst:.3e} ({name} P={p})"
    ]


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
    ["toy", "--u", "0"], ["toy", "--iters", "-1"],
])
def test_cli_bad_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a LinAlgError is a ValueError, but a failed solve is not bad input
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(valgrad.harness, "closed_form_f1", singular)
    code = main(["run", "--n", "10", "--p", "5", "--problems", "f1", "--iters", "5",
                 "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"


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
