import re

import numpy as np
import pytest

from valgrad.cli import main
from valgrad.estimators import dual_estimator, oracle_primal_solve, run_primal
from valgrad.funcs import EuclideanNorm, SquaredNorm
from valgrad.linalg import seeded_problem_data
from valgrad.problems import StructuredProblem, closed_form_f1, make_experiment_problem
from valgrad.rates import (
    RateUnavailable,
    EnvelopeConstants,
    cg_rate,
    f1_envelope_constants,
    rate_report,
    error_envelopes,
)
from valgrad.solvers import SolverConfig, prox_gradient, step_policy


def test_primal_rate_matches_hessian_eigenvalues():
    a, _ = seeded_problem_data(50, 30, seed=0, cond_ratio=10.0)
    pr = make_experiment_problem(1, a)
    ev = np.linalg.eigvalsh(a.T @ a + 2.0 * np.eye(50))
    want = (ev[-1] - ev[0]) / (ev[-1] + ev[0])
    assert rate_report(pr).omega_p == pytest.approx(want, abs=1e-10)


def test_dual_rate_matches_assembled_dual_hessian():
    a, _ = seeded_problem_data(20, 20, seed=1, cond_ratio=5.0)
    pr = make_experiment_problem(1, a)
    q = a @ a.T / 2.0 + np.eye(20)
    ev = np.linalg.eigvalsh(q)
    want = (ev[-1] - ev[0]) / (ev[-1] + ev[0])
    assert rate_report(pr).omega_d == pytest.approx(want, abs=1e-10)


def test_factors_on_every_side_gd_and_ista_run():
    # gd runs on a side without a prox part, ista on one with it: the
    # elastic net's l1 term on f3/f4's primal, Huber's ball on f2/f4's dual
    a, _ = seeded_problem_data(10, 6, seed=2)
    for which in (1, 2, 3, 4):
        rr = rate_report(make_experiment_problem(which, a))
        for omega in (rr.omega_p, rr.omega_d):
            assert isinstance(omega, float) and 0.0 <= omega < 1.0, which


@pytest.mark.parametrize("side, which", [("primal", 3), ("primal", 4), ("dual", 2), ("dual", 4)])
@pytest.mark.parametrize("n, p, seed, cond", [(50, 30, 0, 10), (20, 15, 3, 5), (30, 10, 2, 100)])
def test_ista_contracts_by_the_forward_backward_factor(side, which, n, p, seed, cond):
    # the ista step is omega-Lipschitz and fixes the solution, so every step
    # contracts the error by omega, from the first one on (the dual runs at
    # (20, 15, 3, 5) fall below 1e-6 before step 200); on f3 there it is tight
    # (0.994021), above gd's (L - m)/(L + m) = 0.993985 of the whole curvature
    a, u = seeded_problem_data(n, p, seed, cond)
    pr = make_experiment_problem(which, a)
    xstar, _, converged = oracle_primal_solve(pr, u, tol=1e-12)
    assert converged
    rr = rate_report(pr)
    if side == "primal":
        points = run_primal(pr, u, "ista", iterations=1000, with_sensitivity=False).points
        truth, omega = xstar, rr.omega_p
    else:
        points = dual_estimator(pr, u, SolverConfig("ista", iterations=1000)).per_iteration
        truth, omega = pr.grad_u(xstar, u), rr.omega_d
    errs = np.linalg.norm(points - truth, axis=1)
    counted = errs[:-1] > 1e-6
    assert counted.any()
    ratios = errs[1:][counted] / errs[:-1][counted]
    assert ratios.max() <= omega + 1e-9


def test_dual_factor_bounds_gd_on_elastic_net_dual():
    a, u = seeded_problem_data(20, 15, seed=3, cond_ratio=5.0)
    pr = make_experiment_problem(3, a)
    omega_d = rate_report(pr).omega_d
    xstar, _, converged = oracle_primal_solve(pr, u, tol=1e-12)
    assert converged
    ystar = pr.grad_u(xstar, u)
    dob = pr.dual_objective(u)
    tau, _ = step_policy("gd", *dob.curvature())
    ys = prox_gradient(dob.smooth_grad, None, np.zeros(pr.p), tau, 0.0, 1000)
    errs = np.linalg.norm(ys - ystar, axis=1)
    assert errs[1000] > 1e-9
    ratios = errs[201:1001] / errs[200:1000]
    assert ratios.max() <= omega_d + 1e-6


def test_norm_loss_has_no_primal_gd_factor():
    a, _ = seeded_problem_data(8, 5, seed=0)
    pr = StructuredProblem(a, EuclideanNorm(0.1), SquaredNorm(2.0))
    assert isinstance(rate_report(pr).omega_p, RateUnavailable)


@pytest.mark.parametrize("problem", ["f1", "f2", "f3", "f4"])
def test_rates_table_prints_only_true_factors(problem, capsys):
    assert main(["rates", "--problem", problem]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("omega_")]
    names = [line.split("=", 1)[0].strip() for line in lines]
    assert names == ["omega_p", "omega_d", "omega_cg", "omega_fista"]
    for name, line in zip(names, lines):
        value = line.split("=", 1)[1].strip()
        if name not in ("omega_p", "omega_d") and re.fullmatch(r"unavailable \(.+\)", value):
            continue
        factor = float(value)
        assert 0.0 <= factor < 1.0, line


def test_cg_rate():
    assert cg_rate(4.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert isinstance(cg_rate(4.0, 0.0), RateUnavailable)


def test_theorem1_constants_validation():
    with pytest.raises(ValueError):
        EnvelopeConstants(1.0, 0.0, 0.0, 1.0, 1.0, tau=0.1, omega=1.0)
    with pytest.raises(ValueError):
        EnvelopeConstants(1.0, 0.0, 0.0, 1.0, 1.0, tau=0.0, omega=0.5)


def test_envelopes_trivial_cases():
    tc = EnvelopeConstants(lips_x=2.0, lips_xu=1.0, lips_xx=1.0, l1=1.0, l2=1.0,
                           tau=0.1, omega=0.0)
    env = error_envelopes(tc, x0_err=1.0, big_k=3)
    assert env.analytic[0] == pytest.approx(2.0)
    assert all(v == 0.0 for v in env.analytic[1:])
    # the paper term's 0 * inf at omega = 0, k = 0 stays vacuous in the sum
    assert env.automatic_paper[0] == np.inf and env.automatic[0] == np.inf
    assert env.automatic_init[0] == pytest.approx(2.0)
    # doubling the initial error doubles every bound
    env2 = error_envelopes(tc, x0_err=2.0, big_k=3)
    np.testing.assert_allclose(np.array(env2.implicit), 2 * np.array(env.implicit))
    with pytest.raises(ValueError, match="nonnegative"):
        error_envelopes(tc, x0_err=1.0, big_k=-1)


def test_envelopes_formula_spot_check():
    tc = EnvelopeConstants(lips_x=3.0, lips_xu=0.5, lips_xx=0.25, l1=2.0, l2=1.5,
                           tau=0.2, omega=0.5)
    env = error_envelopes(tc, x0_err=2.0, big_k=2)
    assert env.analytic[2] == pytest.approx(3.0 * 2.0 * 0.25)
    c2 = 0.2 * (3.0 * 2 + 0.25) * (0.5 + 2.0 * 0.25)
    assert env.automatic_paper[2] == pytest.approx(c2 * 2.0 * 0.5**3)
    assert env.automatic_init[2] == pytest.approx(3.0 * 2.0 * 2.0 * 0.5**4)
    assert env.automatic[2] == pytest.approx(c2 * 2.0 * 0.5**3 + 3.0 * 2.0 * 2.0 * 0.5**4)
    c = (0.5 + 2.0 * 0.25) / 2.0 + 1.5 * 3.0
    assert env.implicit[2] == pytest.approx(c * 2.0 * 0.5**4)


def test_f1_constants_exact_operator_norms():
    a, _ = seeded_problem_data(12, 8, seed=4, cond_ratio=3.0)
    tc = f1_envelope_constants(make_experiment_problem(1, a))
    ev = np.linalg.eigvalsh(a.T @ a)
    assert tc.lips_x == pytest.approx(ev[-1] + 2.0)
    jstar = np.linalg.solve(a.T @ a + 2.0 * np.eye(12), a.T)
    assert tc.l1 == pytest.approx(np.linalg.norm(jstar, 2), abs=1e-10)
    assert tc.lips_xu == 0.0 and tc.lips_xx == 0.0
    lips, m = ev[-1] + 2.0, 2.0  # wide matrix: lmin(A^T A) = 0
    assert tc.omega == pytest.approx((lips - m) / (lips + m))


def test_f1_constants_take_the_runs_curvature():
    # the envelope is the one at the run's own step, from the problem's
    # spectrum; it exists only for f1's quadratic form
    a, u = seeded_problem_data(50, 30, seed=7, cond_ratio=100.0)
    pr = make_experiment_problem(1, a)
    tc = f1_envelope_constants(pr)
    run = run_primal(pr, u, "gd", iterations=3)
    assert tc.tau == run.tau
    assert tc.lips_x == pr.curvature()[0]
    for which in (2, 3, 4):
        with pytest.raises(ValueError, match="quadratic"):
            f1_envelope_constants(make_experiment_problem(which, a))
    with pytest.raises(ValueError, match="quadratic"):
        f1_envelope_constants(StructuredProblem(a, SquaredNorm(2.0), SquaredNorm(2.0)))
    # at lam = 1e-16 gd's factor rounds to 1: no linear rate, so no envelope
    with pytest.raises(ValueError, match="no envelope: no strong convexity"):
        f1_envelope_constants(make_experiment_problem(1, a, lam=1e-16))


def test_rate_report_identity_problem():
    pr = make_experiment_problem(1, np.eye(4))
    rr = rate_report(pr)
    assert rr.omega_p == pytest.approx(0.0)
    assert rr.omega_d == pytest.approx(0.0)
    assert rr.omega_cg == pytest.approx(0.0)
    assert rr.omega_fista == pytest.approx(0.0)


def test_rate_report_nonsmooth_problem_has_unavailable_entries():
    a, _ = seeded_problem_data(6, 4, seed=5)
    # CG runs only on a quadratic dual objective: f1, and f3 at gamma = 0
    for which in (2, 3, 4):
        rr = rate_report(make_experiment_problem(which, a))
        assert isinstance(rr.omega_cg, RateUnavailable), which
    assert rate_report(make_experiment_problem(3, a, gamma=0.0)).omega_cg < 1.0
    # a norm loss's dual h* is a ball alone, so at P > N, where A A^T is
    # singular, the dual has no strong convexity: ista's factor is 1, and
    # fista has none either
    tall, _ = seeded_problem_data(4, 6, seed=5)
    rr = rate_report(StructuredProblem(tall, EuclideanNorm(0.1), SquaredNorm(2.0)))
    for omega in (rr.omega_d, rr.omega_fista):
        assert isinstance(omega, RateUnavailable) and "strong convexity" in omega.reason


def test_fista_error_stays_within_k_plus_1_times_the_asymptotic_factor():
    # omega_fista is asymptotic: on f1's quadratic dual from rest the
    # slowest mode is critically damped, (1 + sqrt(q) k)(1 - sqrt(q))^k, so
    # the error exceeds e_0 omega^k (8.2 times at k = 100) but stays within
    # (1 + k) omega^k e_0
    a, u = seeded_problem_data(20, 15, 3, 5.0)
    pr = make_experiment_problem(1, a)
    _, truth = closed_form_f1(pr.a, 2.0, u)
    omega = rate_report(pr).omega_fista
    points = dual_estimator(pr, u, SolverConfig("fista", iterations=400)).per_iteration
    errs = np.linalg.norm(points - truth, axis=1)
    k = np.arange(401)
    assert np.all(errs <= (1 + k) * omega ** k * errs[0])
    assert errs[100] > omega ** 100 * errs[0]
