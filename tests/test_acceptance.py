"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line with its measured worst case.

Criterion 3 is split per estimator.  Its automatic-estimator clause checks
the full automatic envelope: the published Hessian-variation term, which is
zero on a fully quadratic problem, plus the initial-sensitivity term from
starting the sensitivity recursion at J_0 = 0 (see `error_envelopes`).
"""

import numpy as np

from valgrad.estimators import (
    analytic_estimator,
    automatic_estimator,
    dual_estimator,
    error_trace,
    fd_oracle,
    implicit_estimator,
    run_primal,
    run_toy,
    sensitivities,
)
from valgrad.funcs import (
    BallIndicator,
    ElasticNet,
    ElasticNetConjugate,
    EuclideanNorm,
    Huber,
    NonsmoothError,
    SquaredNorm,
    SquaredNormBall,
)
from valgrad.linalg import seeded_problem_data
from valgrad.problems import ToyProblem, closed_form_f1, make_experiment_problem
from valgrad.rates import (
    f1_envelope_constants,
    rate_report,
    error_envelopes,
)
from valgrad.solvers import SolverConfig


def report(criterion, ok, detail):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def normalized_instance(which, n, p, seed, cond=1.0):
    a, u = seeded_problem_data(n, p, seed, cond)
    a = a / np.sqrt(n)
    return make_experiment_problem(which, a), u


def test_ac1_closed_form_agreement_cg():
    worst = 0.0
    for p in (10, 30, 50, 70, 90):
        for seed in range(5):
            pr, u = normalized_instance(1, 50, p, seed)
            _, grad = closed_form_f1(pr.a, 2.0, u)
            est = dual_estimator(pr, u, SolverConfig(method="cg", iterations=p))
            assert len(est.per_iteration) - 1 <= p
            worst = max(worst, float(np.max(np.abs(est.final - grad))))
    ok = worst <= 1e-8
    assert report("AC1 closed-form agreement (DG via CG, <= P iters)", ok,
                  f"worst abs dev {worst:.2e} <= 1e-8"), worst


def test_ac2_quadratic_ig_exactness():
    worst = 0.0
    gen = np.random.Generator(np.random.PCG64(0))
    for seed in range(3):
        pr, u = normalized_instance(1, 50, 30, seed, cond=10.0)
        _, grad = closed_form_f1(pr.a, 2.0, u)
        for x in [np.zeros(50), gen.standard_normal(50), 100 * gen.standard_normal(50)]:
            est = implicit_estimator(pr, x, u)
            worst = max(worst, float(np.linalg.norm(est.final - grad)))
    ok = worst <= 1e-9
    assert report("AC2 quadratic implicit-estimator exactness", ok,
                  f"worst error {worst:.2e} <= 1e-9"), worst


def _envelope_setup():
    a, u = seeded_problem_data(50, 30, seed=7, cond_ratio=100.0)
    pr = make_experiment_problem(1, a)
    xstar, grad = closed_form_f1(a, 2.0, u)
    tc = f1_envelope_constants(pr)
    run = run_primal(pr, u, "gd", iterations=250)
    x0_err = float(np.linalg.norm(run.points[0] - xstar))
    env = error_envelopes(tc, x0_err, 250)
    return pr, u, grad, run, env


def test_ac3_envelope_analytic():
    pr, u, grad, run, env = _envelope_setup()
    errs = error_trace(analytic_estimator(pr, run.points, u), grad)
    viol = sum(e > b for e, b in zip(errs, env.analytic))
    assert report("AC3a analytic estimator error stays under its envelope",
                  viol == 0, f"{viol} violations over 251 iterations"), viol


def test_ac3_envelope_automatic():
    # On a fully quadratic problem the published term is zero; the
    # initial-sensitivity term lips_x*l1*err0*omega^(2k) carries the bound.
    pr, u, grad, run, env = _envelope_setup()
    errs = error_trace(automatic_estimator(pr, run, u), grad)
    viol = sum(e > b for e, b in zip(errs, env.automatic))
    assert report("AC3b automatic estimator error stays under its envelope",
                  viol == 0, f"{viol} violations over 251 iterations"), viol


def test_ac3_envelope_implicit():
    pr, u, grad, run, env = _envelope_setup()
    viol = 0
    for k in range(0, 251, 10):
        err = float(np.linalg.norm(implicit_estimator(pr, run.points[k], u).final - grad))
        viol += err > env.implicit[k]
    assert report("AC3c implicit estimator error stays under its envelope",
                  viol == 0, f"{viol} violations over sampled iterations"), viol


def test_ac4_oracle_agreement_nonsmooth():
    worst = 0.0
    for which in (2, 3, 4):
        for p in (10, 30):
            a, u = seeded_problem_data(20, p, seed=3 + which, cond_ratio=10.0)
            pr = make_experiment_problem(which, a)
            # fista as the inertial solver: heavy ball can cycle on the
            # piecewise-linear dual gradient of the elastic-net conjugate
            dg = dual_estimator(pr, u, SolverConfig(method="fista", iterations=2000))
            fd = fd_oracle(pr, u)
            assert not fd.flagged
            worst = max(worst, float(np.max(np.abs(dg.final - fd.final))))
    ok = worst <= 1e-4
    assert report("AC4 dual estimator vs finite-difference oracle (f2-f4)", ok,
                  f"worst abs dev {worst:.2e} <= 1e-4"), worst


def test_ac5_counterexamples():
    t1 = run_toy(ToyProblem("exp_lower_bound"), 0.4, iterations=500)
    ok1 = (
        all(v == 0.0 for v in t1.analytic)
        and all(v == 0.0 for v in t1.implicit)
        and abs(t1.truth[2] - np.exp(0.4)) < 1e-12
        and np.exp(0.4) > 0.99 * np.exp(0.4)
    )
    t2 = run_toy(ToyProblem("interval_quadratic", qa=1.5, qb=1.0), 0.3,
                 iterations=500)
    truth2 = 1.5 * np.sign(1.0 / 1.5) * (1.5 * 0.3 - 1.0)
    ok2 = (
        all(v == 0.0 for v in t2.analytic)
        and all(v == 0.0 for v in t2.implicit)
        and abs(t2.truth[2] - truth2) < 1e-12
        and truth2 != 0.0
    )
    t3 = run_toy(ToyProblem("no_minimizer"), 2.0, iterations=1000)
    decreasing = all(b < a for a, b in zip(t3.x_trace, t3.x_trace[1:]))
    ok3 = decreasing and abs(t3.dual[-1] - 2.0) <= 1e-8
    ok = ok1 and ok2 and ok3
    assert report("AC5 counterexample reproduction (Examples 1-3)", ok,
                  f"ex1 {ok1}, ex2 {ok2}, ex3 {ok3}")


def test_ac6_duality_gaps():
    min_gap, max_final = np.inf, 0.0
    for which in (1, 2, 3, 4):
        a, u = seeded_problem_data(30, 20, seed=11, cond_ratio=10.0)
        a = a / np.sqrt(30)
        pr = make_experiment_problem(which, a)
        pm = "heavy_ball" if which in (1, 2) else "ipiasco"
        dm = "heavy_ball" if pr.dual_objective(u).prox_part is None else "ipiasco"
        run = run_primal(pr, u, pm, iterations=2000, with_sensitivity=False)
        dg = dual_estimator(pr, u, SolverConfig(method=dm, iterations=2000))
        gaps = [pr.duality_gap(x, y, u) for x, y in zip(run.points, dg.per_iteration)]
        min_gap = min(min_gap, min(gaps))
        max_final = max(max_final, gaps[-1])
    ok = min_gap >= -1e-10 and max_final <= 1e-6
    assert report("AC6 weak duality and final gap", ok,
                  f"min gap {min_gap:.2e} >= -1e-10, "
                  f"worst final gap {max_final:.2e} <= 1e-6")


def test_ac7_convex_calculus_suite():
    funcs = [
        SquaredNorm(1.0), SquaredNorm(2.0), Huber(0.1), Huber(1.5),
        SquaredNormBall(0.7), ElasticNet(2.0, 0.1), ElasticNet(2.0, 0.0),
        ElasticNetConjugate(2.0, 0.1), BallIndicator(1.2), EuclideanNorm(0.8),
    ]
    gen = np.random.Generator(np.random.PCG64(21))
    pts = 3.0 * gen.standard_normal((100, 4))
    worst_moreau = worst_firm = worst_fy = worst_bi = worst_fd = 0.0
    for f in funcs:
        conj = f.conjugate()
        bi = conj.conjugate()
        for i, z in enumerate(pts):
            tau = 0.25 + (i % 5) * 0.5
            lhs = f.prox(tau, z) + tau * conj.prox(1.0 / tau, z / tau)
            worst_moreau = max(worst_moreau, float(np.max(np.abs(lhs - z))))
            z2 = pts[(i + 1) % 100]
            d = f.prox(tau, z) - f.prox(tau, z2)
            worst_firm = max(
                worst_firm, float(np.dot(d, d)) - float(np.dot(d, z - z2))
            )
            for shrink in (1.0, 0.05):
                x, y = shrink * z, shrink * z2
                vx, vy = f.value(x), conj.value(y)
                if np.isfinite(vx) and np.isfinite(vy):
                    worst_fy = max(worst_fy, float(np.dot(x, y)) - vx - vy)
                    break
            v, w = f.value(z), bi.value(z)
            if np.isfinite(v) and np.isfinite(w):
                worst_bi = max(worst_bi, abs(v - w))
            try:
                g = f.grad(z)
            except NonsmoothError:
                continue
            if isinstance(f, Huber) and abs(np.linalg.norm(z) - f.delta) < 1e-3:
                continue
            if isinstance(f, ElasticNetConjugate) and np.any(
                np.abs(np.abs(z) - f.gamma) < 1e-3
            ):
                continue
            eps = 1e-6
            fd = np.array([
                (f.value(z + eps * e) - f.value(z - eps * e)) / (2 * eps)
                for e in np.eye(4)
            ])
            worst_fd = max(worst_fd, float(np.max(np.abs(g - fd))))
    ok = (worst_moreau <= 1e-10 and worst_firm <= 1e-12 and worst_fy <= 1e-10
          and worst_bi <= 1e-8 and worst_fd <= 1e-5)
    assert report(
        "AC7 convex-calculus property suite", ok,
        f"moreau {worst_moreau:.1e}, firm {worst_firm:.1e}, "
        f"fenchel-young {worst_fy:.1e}, biconjugate {worst_bi:.1e}, "
        f"grad-fd {worst_fd:.1e}",
    )


def test_ac8_rate_cross_checks():
    a, u = seeded_problem_data(50, 30, seed=0, cond_ratio=10.0)
    pr = make_experiment_problem(1, a)
    rr = rate_report(pr)
    ev_p = np.linalg.eigvalsh(a.T @ a + 2.0 * np.eye(50))
    want_p = (ev_p[-1] - ev_p[0]) / (ev_p[-1] + ev_p[0])
    dev_p = abs(rr.omega_p - want_p)
    ev_d = np.linalg.eigvalsh(a @ a.T / 2.0 + np.eye(30))
    want_d = (ev_d[-1] - ev_d[0]) / (ev_d[-1] + ev_d[0])
    dev_d = abs(rr.omega_d - want_d)
    xstar, _ = closed_form_f1(a, 2.0, u)
    run = run_primal(pr, u, "gd", iterations=300, with_sensitivity=False)
    errs = [float(np.linalg.norm(x - xstar)) for x in run.points]
    tail = [errs[k + 1] / errs[k] for k in range(200, 299)]
    worst_ratio = max(tail)
    ok = dev_p <= 1e-10 and dev_d <= 1e-10 and worst_ratio <= want_p + 1e-6
    assert report(
        "AC8 rate-formula cross-checks and empirical contraction", ok,
        f"primal dev {dev_p:.1e}, dual dev {dev_d:.1e}, "
        f"contraction {worst_ratio:.8f} <= {want_p:.8f} + 1e-6",
    )


def test_ac9_sensitivity_vs_fd_jacobian():
    worst = 0.0
    for which in (1, 2):
        for method in ("gd", "heavy_ball"):
            a, u = seeded_problem_data(15, 10, seed=5, cond_ratio=5.0)
            a = a / np.sqrt(15)
            pr = make_experiment_problem(which, a)
            run = run_primal(pr, u, method, iterations=20)
            for jac in sensitivities(pr, run, u):
                pass  # keep the last one
            eps = 1e-6
            for i in range(pr.p):
                e = np.zeros(pr.p)
                e[i] = eps
                xp = run_primal(pr, u + e, method, iterations=20,
                                with_sensitivity=False).final
                xm = run_primal(pr, u - e, method, iterations=20,
                                with_sensitivity=False).final
                col = (xp - xm) / (2 * eps)
                worst = max(worst, float(np.max(np.abs(jac[:, i] - col))))
    ok = worst <= 1e-5
    assert report("AC9 forward sensitivity vs FD Jacobian (K=20)", ok,
                  f"worst abs dev {worst:.2e} <= 1e-5"), worst


def test_ac10_dual_beats_analytic():
    failures = []
    for which in (2, 4):
        for p in (10, 30):
            for seed in (0, 1, 2):
                a, u = seeded_problem_data(50, p, seed, cond_ratio=10.0)
                pr = make_experiment_problem(which, a)
                ref = dual_estimator(pr, u, SolverConfig(
                    method="fista", iterations=20000)).final
                fd = fd_oracle(pr, u)
                assert float(np.max(np.abs(ref - fd.final))) <= 1e-4
                pm = "gd" if which == 2 else "ista"
                run = run_primal(pr, u, pm, iterations=250, with_sensitivity=False)
                ang = error_trace(analytic_estimator(pr, run.points, u), ref)[-1]
                dm = "ipiasco"
                dg = error_trace(
                    dual_estimator(pr, u, SolverConfig(method=dm, iterations=250)),
                    ref,
                )[-1]
                if not dg < ang:
                    failures.append((which, p, seed, dg, ang))
    assert report("AC10 dual final error beats analytic (f2/f4, P < N)",
                  not failures, f"{12 - len(failures)}/12 seeds"), failures
