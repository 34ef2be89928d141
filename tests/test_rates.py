import re

import numpy as np
import pytest

from valgrad.cli import main
from valgrad.estimators import oracle_primal_solve
from valgrad.funcs import EuclideanNorm, SmoothnessProfile, SquaredNorm
from valgrad.linalg import seeded_problem_data, spectral_bounds
from valgrad.problems import StructuredProblem, make_experiment_problem
from valgrad.rates import (
    RateUnavailable,
    EnvelopeConstants,
    cg_rate,
    f1_envelope_constants,
    transfer_profile,
    pdhg_rate,
    proximal_rates,
    rate_report,
    error_envelopes,
)
from valgrad.solvers import prox_gradient, step_policy


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


def test_gd_factors_only_where_gd_runs():
    # gd runs on a side without a prox part: f1's primal and dual, f2's
    # primal (Huber's dual has a ball) and f3's dual (k* is smooth)
    a, _ = seeded_problem_data(10, 6, seed=2)
    gd_runs = {1: (True, True), 2: (True, False), 3: (False, True), 4: (False, False)}
    for which, sides in gd_runs.items():
        rr = rate_report(make_experiment_problem(which, a))
        for omega, runs in zip((rr.omega_p, rr.omega_d), sides):
            if runs:
                assert isinstance(omega, float) and 0.0 <= omega < 1.0, which
            else:
                assert isinstance(omega, RateUnavailable), which


def test_dual_factor_bounds_gd_on_elastic_net_dual():
    a, u = seeded_problem_data(20, 15, seed=3, cond_ratio=5.0)
    pr = make_experiment_problem(3, a)
    omega_d = rate_report(pr).omega_d
    xstar, _, converged = oracle_primal_solve(pr, u, tol=1e-12)
    assert converged
    ystar = pr.grad_u(xstar, u)
    dob = pr.dual_objective(u)
    tau, _ = step_policy("gd", *dob.curvature())
    run = prox_gradient(dob.smooth_grad, None, np.zeros(pr.p), tau, 0.0, 1000)
    errs = np.linalg.norm(run.points - ystar, axis=1)
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
    assert len(lines) == 6
    for line in lines:
        value = line.split("=", 1)[1].strip()
        if re.fullmatch(r"unavailable \(.+\)|regime: [a-z-]+", value):
            continue
        factor = float(value.split()[0])
        assert 0.0 <= factor < 1.0, line


def test_proximal_rates_substitutions():
    om1, om2 = proximal_rates(sc_smooth=0.5, sc_prox=0.0, tau=1.0)
    assert om1 == pytest.approx(0.5)  # 1 - tau*sc_smooth
    om1, om2 = proximal_rates(sc_smooth=1.0, sc_prox=0.0, tau=1.0)
    assert om1 == pytest.approx(0.0)
    assert om2 == pytest.approx(0.0)
    una1, una2 = proximal_rates(sc_smooth=0.0, sc_prox=0.0, tau=0.5)
    assert isinstance(una1, RateUnavailable)
    assert isinstance(una2, RateUnavailable)
    with pytest.raises(ValueError):
        proximal_rates(1.0, 1.0, tau=0.0)


def test_pdhg_rate_regimes_and_values():
    r = pdhg_rate(1.0, 1.0, lips=1.0, theta=1.0)  # mu = 2
    assert r.regime == "linear"
    assert r.omega == pytest.approx(0.5)
    r = pdhg_rate(1.0, 1.0, lips=2.0, theta=0.0)  # mu = 1
    assert r.omega == pytest.approx(1.0 / 3.0)
    assert pdhg_rate(0.0, 1.0, lips=1.0, theta=1.0).regime == "accelerated-sublinear"
    assert pdhg_rate(0.0, 0.0, lips=1.0, theta=1.0).regime == "sublinear"
    with pytest.raises(ValueError):
        pdhg_rate(1.0, 1.0, lips=0.0, theta=1.0)


def test_cg_rate():
    assert cg_rate(4.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert isinstance(cg_rate(4.0, 0.0), RateUnavailable)


def test_transfer_profile_precompose_identity_and_rank_deficient():
    prof = SmoothnessProfile(2.0, 5.0, True)
    same = transfer_profile(prof, spectral_bounds(np.eye(3)), "precompose")
    assert same == prof
    low = transfer_profile(
        prof, spectral_bounds(np.array([[1.0, 1.0], [1.0, 1.0]])), "precompose"
    )
    assert low.m == pytest.approx(0.0, abs=1e-12)


def test_transfer_profile_precompose_numeric_hessian_check():
    gen = np.random.Generator(np.random.PCG64(3))
    b = gen.standard_normal((5, 4))
    # g(z) = z^T D z / 2 with spectrum in [m, L]
    d = np.array([1.0, 2.0, 3.0, 4.0, 4.0])
    prof = SmoothnessProfile(1.0, 4.0, True)
    comp = transfer_profile(prof, spectral_bounds(b), "precompose")
    hess = b.T @ np.diag(d) @ b
    ev = np.linalg.eigvalsh(hess)
    assert ev[0] >= comp.m - 1e-10
    assert ev[-1] <= comp.lips + 1e-10


def test_transfer_profile_sum_and_conjugate():
    p1 = SmoothnessProfile(1.0, 2.0, True)
    p2 = SmoothnessProfile(0.5, np.inf, False)
    s = transfer_profile(p1, mode="sum", other=p2)
    assert s.m == 1.5 and s.lips == np.inf and not s.smooth
    c = transfer_profile(p1, mode="conjugate")
    assert c.m == pytest.approx(0.5)
    assert c.lips == pytest.approx(1.0)
    c2 = transfer_profile(p2, mode="conjugate")
    assert c2.m == 0.0 and c2.lips == pytest.approx(2.0)
    with pytest.raises(ValueError):
        transfer_profile(p1, mode="unknown")


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
    tc = f1_envelope_constants(a, 2.0)
    ev = np.linalg.eigvalsh(a.T @ a)
    assert tc.lips_x == pytest.approx(ev[-1] + 2.0)
    jstar = np.linalg.solve(a.T @ a + 2.0 * np.eye(12), a.T)
    assert tc.l1 == pytest.approx(np.linalg.norm(jstar, 2), abs=1e-10)
    assert tc.lips_xu == 0.0 and tc.lips_xx == 0.0
    lips, m = ev[-1] + 2.0, 2.0  # wide matrix: lmin(A^T A) = 0
    assert tc.omega == pytest.approx((lips - m) / (lips + m))


def test_rate_report_identity_problem():
    pr = make_experiment_problem(1, np.eye(4))
    rr = rate_report(pr)
    assert rr.omega_p == pytest.approx(0.0)
    assert rr.omega_d == pytest.approx(0.0)
    assert rr.omega_cg == pytest.approx(0.0)
    assert rr.omega_pdhg.regime == "linear"


def test_rate_report_nonsmooth_problem_has_unavailable_entries():
    a, _ = seeded_problem_data(6, 4, seed=5)
    rr = rate_report(make_experiment_problem(4, a))
    assert isinstance(rr.omega_p, RateUnavailable)
    assert isinstance(rr.omega_d, RateUnavailable)
    # CG runs only on a quadratic dual objective: f1, and f3 at gamma = 0
    for which in (2, 3, 4):
        rr = rate_report(make_experiment_problem(which, a))
        assert isinstance(rr.omega_cg, RateUnavailable), which
    assert rate_report(make_experiment_problem(3, a, gamma=0.0)).omega_cg < 1.0
