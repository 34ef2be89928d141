import tracemalloc

import numpy as np
import pytest

import valgrad.estimators
from valgrad.estimators import (
    EstimatorInapplicable,
    GradientEstimate,
    _compact_sensitivities,
    _gram_basis,
    _prox_derivatives,
    _reverse_pays,
    _Sensitivity,
    analytic_estimator,
    automatic_estimator,
    dual_estimator,
    error_trace,
    fd_oracle,
    implicit_estimator,
    oracle_primal_solve,
    run_primal,
    run_toy,
    sensitivities,
    sensitivity_step,
    value_function,
)
from valgrad.funcs import ElasticNet, EuclideanNorm, NonsmoothError, SquaredNorm
from valgrad.harness import ExperimentConfig, _cell_seed, _primal_methods
from valgrad.linalg import seeded_problem_data
from valgrad.problems import (
    StructuredProblem,
    ToyProblem,
    closed_form_f1,
    make_experiment_problem,
)
from valgrad.solvers import (
    SolverConfig,
    optimal_gd_step,
    prox_gradient,
    prox_gradient_steps,
    prox_of,
    step_policy,
)


def instance(which=1, n=10, p=6, seed=0, cond=3.0):
    a, u = seeded_problem_data(n, p, seed, cond)
    return make_experiment_problem(which, a), u


def test_error_trace_basics():
    truth = np.array([1.0, 2.0])
    est = GradientEstimate("analytic", np.array([truth, truth + np.array([3.0, 4.0])]))
    assert np.array_equal(error_trace(est, truth), [0.0, 5.0])
    single = GradientEstimate("implicit", truth[None, :].copy())
    assert np.array_equal(error_trace(single, truth), [0.0])
    assert np.array_equal(single.final, truth)


def test_analytic_estimator_exact_at_minimizer():
    pr, u = instance(1)
    xstar, grad = closed_form_f1(pr.a, 2.0, u)
    est = analytic_estimator(pr, [xstar], u)
    np.testing.assert_allclose(est.final, grad, atol=1e-12)


def test_analytic_estimator_rejects_nonsmooth_loss():
    from valgrad.funcs import BallIndicator, SquaredNorm
    from valgrad.problems import StructuredProblem

    pr = StructuredProblem(a=np.eye(2), h=BallIndicator(1.0), k=SquaredNorm(1.0))
    with pytest.raises(NonsmoothError):
        analytic_estimator(pr, [np.zeros(2)], np.zeros(2))


def _final_jacobian(pr, run, u):
    """The last Jacobian ``sensitivities`` yields for ``run``."""
    for jac in sensitivities(pr, run, u):
        pass
    return jac


def _prox_derivative(pr, tau, z):
    """The prox derivative ``sensitivity_step`` takes: None without a prox part."""
    prox = pr.k.prox_part
    return None if prox is None else prox.prox_derivative(tau, z)


def test_gram_basis_diagonalizes_the_gram_matrix():
    pr, _ = instance(2)
    eigvals, vecs, params = _gram_basis(pr)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(pr.n), atol=1e-13)
    np.testing.assert_allclose(vecs @ np.diag(eigvals) @ vecs.T, pr.gram, atol=1e-12)
    np.testing.assert_allclose(params, (pr.a @ vecs).T, atol=1e-13)


def test_sensitivity_step_zero_tau_is_identity():
    pr, u = instance(1)
    basis = _gram_basis(pr)
    jac = np.ones((pr.n, pr.p))
    hess = pr.h.hessian_factors(pr.residual(np.zeros(pr.n), u))
    jac_new = sensitivity_step(pr, basis, hess, jac, jac, None, tau=1e-30)
    np.testing.assert_allclose(jac_new, jac, atol=1e-12)


def test_sensitivity_fixed_point_is_solution_jacobian():
    pr, u = instance(1)
    run = run_primal(pr, u, "gd", iterations=4000)
    jstar = np.linalg.solve(pr.a.T @ pr.a + 2.0 * np.eye(pr.n), pr.a.T)
    np.testing.assert_allclose(_final_jacobian(pr, run, u), jstar, atol=1e-10)


def test_sensitivity_contracts_geometrically():
    pr, u = instance(1)
    lips, m = pr.curvature()
    omega = (lips - m) / (lips + m)
    run = run_primal(pr, u, "gd", iterations=60)
    jstar = np.linalg.solve(pr.a.T @ pr.a + 2.0 * np.eye(pr.n), pr.a.T)
    errs = [np.linalg.norm(j - jstar, 2) for j in sensitivities(pr, run, u)]
    for k in range(len(errs) - 1):
        assert errs[k + 1] <= omega * errs[k] + 1e-6


@pytest.mark.parametrize("method", ["gd", "heavy_ball"])
def test_sensitivity_starts_from_zero(method):
    # the automatic envelope's initial-sensitivity term rests on J_0 = 0,
    # so that ||J_0 - J*|| = ||J*|| <= l1 whatever the starting point
    pr, u = instance(1)
    x0 = np.linspace(-1.0, 1.0, pr.n)
    for start in (None, x0):
        run = run_primal(pr, u, method, iterations=2, x0=start)
        jac0 = next(sensitivities(pr, run, u))
        assert jac0.shape == (pr.n, pr.p)
        assert not np.any(jac0)


def _dense_sensitivity_step(pr, method, x, u, jac, jac_prev, tau, beta, x_prev):
    """The Jacobian recursion from dense Hessian blocks built from h.hessian."""
    hh = pr.h.hessian(pr.residual(x, u))
    hxx_loss, hxu = pr.a.T @ hh @ pr.a, -pr.a.T @ hh
    if method in ("gd", "heavy_ball"):
        hxx = hxx_loss + pr.k.modulus * np.eye(pr.n)
        return jac - tau * (hxx @ jac + hxu) + beta * (jac - jac_prev)
    inner = jac - tau * (hxx_loss @ jac + hxu) + beta * (jac - jac_prev)
    z = x - tau * pr.primal_smooth_grad(x, u) + beta * (x - x_prev)
    d = (np.abs(z) > tau * pr.k.gamma).astype(float) / (1.0 + tau * pr.k.lam)
    return d[:, None] * inner


@pytest.mark.parametrize(
    "which, method", [(1, "gd"), (2, "gd"), (1, "heavy_ball"), (2, "heavy_ball"),
                      (3, "ista"), (4, "ista"), (3, "ipiasco"), (4, "ipiasco")],
)
def test_sensitivity_step_matches_dense_hessians(which, method):
    pr, u = instance(which)
    gen = np.random.Generator(np.random.PCG64(which))
    x, x_prev = gen.standard_normal(pr.n), gen.standard_normal(pr.n)
    jac, jac_prev = gen.standard_normal((2, pr.n, pr.p))
    if which in (2, 4):  # the rank-1 term is live outside the Huber ball
        assert np.linalg.norm(pr.residual(x, u)) > pr.h.delta
    tau, beta = 0.01, (0.3 if method in ("heavy_ball", "ipiasco") else 0.0)
    z = x - tau * pr.primal_smooth_grad(x, u) + beta * (x - x_prev)
    basis = _gram_basis(pr)
    jhat, jhat_prev = basis.vecs.T @ jac, basis.vecs.T @ jac_prev
    hess = pr.h.hessian_factors(pr.residual(x, u))
    d = _prox_derivative(pr, tau, z)
    jac_new = basis.vecs @ sensitivity_step(pr, basis, hess, jhat, jhat_prev, d, tau, beta)
    want = _dense_sensitivity_step(pr, method, x, u, jac, jac_prev, tau, beta, x_prev)
    assert np.linalg.norm(jac_new - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("zeroed", [0, 2, 5, 8, 10])
def test_sensitivity_step_prox_derivative_matches_dense_in_every_regime(zeroed):
    # of N = 10 coordinates, |Z| = zeroed sit at or below tau gamma: |Z| <= N/2
    # takes the zeroed rows of V, |Z| > N/2 the support rows, and |Z| = N
    # (f4 with a large gamma) is D = 0
    a, u = seeded_problem_data(10, 6, 2, 3.0)
    pr = make_experiment_problem(4, a, gamma=1e3 if zeroed == 10 else 0.1)
    gen = np.random.Generator(np.random.PCG64(zeroed))
    x = gen.standard_normal(pr.n)
    jac, jac_prev = gen.standard_normal((2, pr.n, pr.p))
    tau, beta = 0.01, 0.3
    z = np.sign(gen.standard_normal(pr.n)) * (1.0 + gen.random(pr.n))
    z[gen.permutation(pr.n)[:zeroed]] *= 1e-4
    d = (np.abs(z) > tau * pr.k.gamma) / (1.0 + tau * pr.k.lam)
    assert np.count_nonzero(d == 0) == zeroed
    hh = pr.h.hessian(pr.residual(x, u))
    inner = jac - tau * (pr.a.T @ hh @ (pr.a @ jac) - pr.a.T @ hh) + beta * (jac - jac_prev)
    want = d[:, None] * inner
    basis = _gram_basis(pr)
    got = basis.vecs @ sensitivity_step(pr, basis, pr.h.hessian_factors(pr.residual(x, u)),
                                        basis.vecs.T @ jac, basis.vecs.T @ jac_prev,
                                        pr.k.prox_derivative(tau, z), tau, beta)
    if zeroed == pr.n:
        assert not np.any(got)
    else:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _fd_jacobian(pr, u, method, iterations, eps=1e-6):
    jac = np.zeros((pr.n, pr.p))
    for i in range(pr.p):
        e = np.zeros(pr.p)
        e[i] = eps
        xp = run_primal(pr, u + e, method, iterations=iterations,
                        with_sensitivity=False).final
        xm = run_primal(pr, u - e, method, iterations=iterations,
                        with_sensitivity=False).final
        jac[:, i] = (xp - xm) / (2 * eps)
    return jac


@pytest.mark.parametrize("method", ["ista", "ipiasco"])
def test_sensitivity_step_reuses_the_solver_gradient(method, monkeypatch):
    pr, u = instance(3, n=8, p=5, seed=3)
    x, x_prev = np.linspace(-1.0, 1.0, pr.n), np.linspace(0.5, -0.5, pr.n)
    jac = np.arange(pr.n * pr.p, dtype=float).reshape(pr.n, pr.p) / 40.0
    jac_prev = 0.5 * jac
    z = x - 0.01 * pr.primal_smooth_grad(x, u) + 0.3 * (x - x_prev)
    # sensitivity_step reads the prox derivative at the kernel's z and the
    # given Hessian factors and takes no gradient of its own: one gradient
    # call per iteration
    bare = run_primal(pr, u, method, iterations=12, with_sensitivity=False)
    basis, hess = _gram_basis(pr), pr.h.hessian_factors(pr.residual(x, u))
    calls = []
    grad = StructuredProblem.primal_smooth_grad
    monkeypatch.setattr(StructuredProblem, "primal_smooth_grad",
                        lambda self, *a: calls.append(1) or grad(self, *a))
    sensitivity_step(pr, basis, hess, jac, jac_prev, pr.k.prox_derivative(0.01, z), 0.01, 0.3)
    run = run_primal(pr, u, method, iterations=12)
    assert len(calls) == 12
    assert all(np.array_equal(p, q) for p, q in zip(run.points, bare.points))


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("method", ["gd", "heavy_ball"])
def test_sensitivity_matches_fd_jacobian_smooth(which, method):
    pr, u = instance(which, n=8, p=5, seed=3)
    run = run_primal(pr, u, method, iterations=20)
    fd = _fd_jacobian(pr, u, method, 20)
    np.testing.assert_allclose(_final_jacobian(pr, run, u), fd, atol=1e-5)


@pytest.mark.parametrize("method", ["ista", "ipiasco"])
def test_sensitivity_matches_fd_jacobian_proximal(method):
    # valid when no iterate sits within eps of a soft-threshold kink
    pr, u = instance(3, n=8, p=5, seed=4)
    run = run_primal(pr, u, method, iterations=25)
    fd = _fd_jacobian(pr, u, method, 25)
    np.testing.assert_allclose(_final_jacobian(pr, run, u), fd, atol=1e-5)


def _reference_iterates(grad, prox, x0, tau, beta, iterations):
    """x+ = prox(tau, x - tau grad(x) + beta (x - x_prev)), x_prev = x0 at the start."""
    xs = [x0]
    x = x_prev = x0
    for _ in range(iterations):
        pre = x - tau * grad(x) + beta * (x - x_prev)
        x_prev, x = x, (pre if prox is None else prox(tau, pre))
        xs.append(x)
    return xs


@pytest.mark.parametrize("method", ["gd", "heavy_ball", "ista", "ipiasco"])
def test_primal_run_dual_trace_and_reference_share_one_recursion(method):
    # the f3 instance for the proximal methods, the same data under f1 for
    # the smooth ones; one kernel must give bit-identical iterates
    which = 3 if method in ("ista", "ipiasco") else 1
    pr, u = instance(which, n=8, p=5, seed=2)
    prox = pr.k.prox if which == 3 else None
    tau, beta = step_policy(method, *pr.curvature())
    grad = lambda x: pr.primal_smooth_grad(x, u)
    want = _reference_iterates(grad, prox, np.zeros(pr.n), tau, beta, 30)
    traced = prox_gradient(grad, prox, np.zeros(pr.n), tau, beta, 30).points
    run = run_primal(pr, u, method, iterations=30)
    bare = run_primal(pr, u, method, iterations=30, with_sensitivity=False)
    assert (run.tau, run.beta) == (tau, beta)
    for got in (traced, run.points, bare.points):
        assert len(got) == 31
        assert all(np.array_equal(p, q) for p, q in zip(got, want))


@pytest.mark.parametrize("with_sensitivity", [True, False])
@pytest.mark.parametrize("method", ["fista", "pdhg", "nonsense"])
def test_run_primal_rejects_an_unknown_method(method, with_sensitivity):
    pr, u = instance(1)
    with pytest.raises(ValueError, match="unknown primal method"):
        run_primal(pr, u, method, iterations=3, with_sensitivity=with_sensitivity)


@pytest.mark.parametrize("which, method", [
    (3, "gd"), (4, "gd"), (3, "heavy_ball"), (4, "heavy_ball"), (1, "ista"), (2, "ipiasco"),
])
def test_run_primal_takes_its_prox_from_the_objective(which, method):
    # gd on the elastic net would minimize the loss alone, since the prox
    # carries all of k, while its Jacobian adds the ridge term
    pr, u = instance(which, n=8, p=5, seed=3)
    with pytest.raises(ValueError, match="prox part|smooth objective"):
        run_primal(pr, u, method, iterations=3)


@pytest.mark.parametrize("which, method, shared", [
    (1, "gd", True), (1, "heavy_ball", True), (3, "ista", False), (3, "ipiasco", False),
])
def test_run_primal_shares_its_points_as_pre_prox_without_a_prox(which, method, shared):
    # with the identity prox every pre-prox point z_k is the iterate x_{k+1}
    pr, u = instance(which, n=8, p=5)
    run = run_primal(pr, u, method, iterations=10)
    assert np.shares_memory(run.pre_prox, run.points) == shared
    assert run.pre_prox.shape == (10, pr.n)
    if shared:
        np.testing.assert_array_equal(run.pre_prox, run.points[1:])


@pytest.mark.parametrize("method", ["gd", "heavy_ball"])
def test_sensitivity_matches_fd_jacobian_on_a_smooth_elastic_net(method):
    # gamma = 0 leaves the elastic net no prox part: its ridge joins the
    # smooth part in the iterates and in the Jacobian alike
    a, u = seeded_problem_data(8, 5, 3, 3.0)
    pr = make_experiment_problem(3, a, gamma=0.0)
    run = run_primal(pr, u, method, iterations=20)
    assert pr.k.prox_part is None
    np.testing.assert_allclose(_final_jacobian(pr, run, u), _fd_jacobian(pr, u, method, 20),
                               atol=1e-5)


@pytest.mark.parametrize("method", ["ista", "ipiasco"])
def test_dual_estimator_rejects_a_proximal_method_on_a_smooth_dual(method):
    pr, u = instance(1)
    with pytest.raises(ValueError, match="smooth objective"):
        dual_estimator(pr, u, SolverConfig(method=method, iterations=10))


def test_automatic_estimator_exact_at_optimum():
    pr, u = instance(1)
    xstar, grad = closed_form_f1(pr.a, 2.0, u)
    # J_0 = 0, and at x* the x-gradient it multiplies vanishes
    run = run_primal(pr, u, "gd", iterations=0, x0=xstar)
    est = automatic_estimator(pr, run, u)
    np.testing.assert_allclose(est.final, grad, atol=1e-12)


def _per_iterate_estimates(pr, run, u):
    """g1(k) and g2(k) evaluated one iterate at a time.  With a prox part
    the regularizer subgradient is the minimum-norm one at x(0) and the
    prox optimality selection (z(k-1) - x(k)) / tau after it."""
    ang, aug = [], []
    for i, (x, jac) in enumerate(zip(run.points, sensitivities(pr, run, u))):
        gu = pr.grad_u(x, u)
        gx = pr.c - pr.a.T @ gu
        if pr.k.prox_part is None:
            gx = gx + pr.k.modulus * x
        elif i == 0:
            gx = gx + pr.k.subgradient_min_norm(x)
        else:
            gx = gx + (run.pre_prox[i - 1] - x) / run.tau
        ang.append(gu)
        aug.append(jac.T @ gx + gu)
    return ang, aug


# (which, method, N, P, gamma, reverse): every pipeline at N = 8, P = 5,
# where f3 takes diagonal steps only, f3 at N = 12, P = 8, where dense
# steps open runs of diagonal ones, and runs whose 40 steps are all dense
# at P > 41 / 2, which take the reverse sweep: f4 at N = 12, P = 60 and f3
# at N = 8, P = 40 with gamma = 1
PIPELINES = [
    pytest.param(which, method, 8, 5, 0.1, False, id=f"{which}-{method}")
    for which, method in [(1, "gd"), (1, "heavy_ball"), (2, "gd"), (2, "heavy_ball"),
                          (3, "ista"), (3, "ipiasco"), (4, "ista"), (4, "ipiasco")]
] + [pytest.param(3, method, 12, 8, 0.1, False, id=f"3-{method}-dense-and-diagonal")
     for method in ("ista", "ipiasco")
] + [pytest.param(4, method, 12, 60, 0.1, True, id=f"4-{method}-reverse")
     for method in ("ista", "ipiasco")
] + [pytest.param(3, "ista", 8, 40, 1.0, True, id="3-ista-reverse")]


def _pipeline(which, method, n, p, gamma):
    a, u = seeded_problem_data(n, p, 3, 3.0)
    pr = make_experiment_problem(which, a, gamma=gamma)
    return pr, u, run_primal(pr, u, method, iterations=40)


def _spy(monkeypatch, name):
    """The calls of the estimators' function ``name``, one list entry each."""
    calls = []
    fn = getattr(valgrad.estimators, name)
    monkeypatch.setattr(valgrad.estimators, name,
                        lambda *args: calls.append(1) or fn(*args))
    return calls


@pytest.mark.parametrize("which, method, n, p, gamma, reverse", PIPELINES)
def test_series_estimators_match_a_per_iterate_loop(which, method, n, p, gamma, reverse,
                                                    monkeypatch):
    # the estimators evaluate the whole series at once, as one block with a
    # row per iterate, forward or by the reverse sweep
    pr, u, run = _pipeline(which, method, n, p, gamma)
    want_ang, want_aug = _per_iterate_estimates(pr, run, u)
    swept = _spy(monkeypatch, "_reverse_estimates")
    for est, want in ((analytic_estimator(pr, run.points, u), want_ang),
                      (automatic_estimator(pr, run, u), want_aug)):
        got = est.per_iteration
        assert got.shape == (41, pr.p) and got.flags.c_contiguous
        assert len(want) == 41
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
    assert len(swept) == reverse


def test_final_owns_its_data():
    # a held .final must not keep its run's or estimate's block alive
    pr, u = instance(2, n=8, p=5, seed=3)
    run = run_primal(pr, u, "heavy_ball", iterations=20)
    cfg = SolverConfig(method="fista", iterations=20)
    held = {
        "run": run,
        "trace": prox_gradient(lambda x: pr.primal_smooth_grad(x, u), None, np.zeros(pr.n),
                               run.tau, run.beta, 20),
        "analytic": analytic_estimator(pr, run.points, u),
        "automatic": automatic_estimator(pr, run, u),
        "implicit": implicit_estimator(pr, run.final, u),
        "dual": dual_estimator(pr, u, cfg),
    }
    for name, obj in held.items():
        final = obj.final
        assert final.base is None, name
        assert final.flags.c_contiguous, name
        block = obj.points if name in ("run", "trace") else obj.per_iteration
        assert np.array_equal(final, block[-1]), name


def _in_run_sensitivities(pr, u, method, iterations, basis):
    """The compact sensitivities along the kernel's own steps: the (x, z)
    pairs ``prox_gradient_steps`` yields, each step's residual taken from
    the block of those iterates.  A step whose prox derivative takes one
    value s updates the rows p, q, r, u_1, ..., u_m of
    J-hat = diag(p) a + diag(q) b + diag(r) params + sum_i u_i t_i^T; with
    a loss Hessian c (I - v v^T) it also appends (s tau c w,
    J-hat^T w - v), w = params v, and once the columns number
    NP // (N + P) they fold into a new pair (a, b).  Any other step runs
    ``sensitivity_step`` on J-hat and J-hat_prev, built from the compact
    form unless the step before was dense or a fold, with the prox
    derivative it was classified by.  This is the reference the replay
    along a stored run must match."""
    prox = prox_of(method, pr.k.prox_part)
    tau, beta = step_policy(method, *pr.curvature())
    steps = list(prox_gradient_steps(
        lambda x: pr.primal_smooth_grad(x, u), prox, np.zeros(pr.n), tau, beta, iterations
    ))
    residuals = pr.residual(np.array([x for x, _, _ in steps]).T, u[:, None])
    eigvals, _, params = basis
    cap = pr.n * pr.p // (pr.n + pr.p)
    no_ts = np.zeros((0, pr.p))
    a = b = None
    ts = no_ts
    coef = coef_prev = np.zeros((3, pr.n))

    def build(coef):
        p, q, r, us = coef[0], coef[1], coef[2], coef[3:]
        jac = r[:, None] * params
        if a is not None:
            jac += p[:, None] * a
            jac += q[:, None] * b
        if len(us):
            jac += us.T @ ts[:len(us)]
        return jac

    def transpose_dot(coef, w):
        out = np.dot(coef[2] * w, params)
        if a is not None:
            out += np.dot(coef[0] * w, a)
            if np.count_nonzero(coef[1] * w):
                out += np.dot(coef[1] * w, b)
        if len(coef) > 3:
            out += np.dot(np.dot(coef[3:], w), ts)
        return out

    out = [(a, b, coef, ts)]
    dense_last = False
    for r, (_, z, _) in zip(residuals.T, steps):
        c, v = pr.h.hessian_factors(r)
        d = np.ones(pr.n) if prox is None else pr.k.prox_derivative(tau, z)
        if np.all(d == d[0]):
            if v is not None:
                w = np.dot(params, v)
                ts = np.vstack([ts, transpose_dot(coef, w) - v])
            diag = 1.0 + beta - (tau * c) * eigvals
            if prox is None:
                diag -= tau * pr.k.modulus
            rows = []
            for i, x in enumerate(coef):
                y = diag * x
                if i == 2:
                    y += tau * c
                if beta and i < len(coef_prev):
                    y -= beta * coef_prev[i]
                y *= d[0]
                rows.append(y)
            if v is not None:
                rows.append((d[0] * tau * c) * w)
            coef, coef_prev = np.array(rows), coef
            dense_last = False
            if v is not None and len(coef) - 3 >= cap:
                a, b = build(coef), build(coef_prev)
                dense_last = True
        else:
            jac, jac_prev = (a, b) if dense_last else (build(coef), build(coef_prev))
            a, b = sensitivity_step(pr, basis, (c, v), jac, jac_prev, d, tau, beta), jac
            dense_last = True
        if dense_last:
            coef, coef_prev = np.zeros((3, pr.n)), np.zeros((3, pr.n))
            coef[0] = coef_prev[1] = 1.0
            ts = no_ts
        out.append((a, b, coef, ts))
    return out


def _same_array(x, y):
    return x is y is None or (x is not None and y is not None and np.array_equal(x, y))


@pytest.mark.parametrize("which, method, n, p, gamma, reverse", PIPELINES)
def test_sensitivities_replay_the_in_run_recursion_bit_for_bit(which, method, n, p, gamma,
                                                                reverse):
    # the replay along the stored iterates and pre-prox points must round
    # exactly as the recursion along the kernel's own steps
    pr, u, run = _pipeline(which, method, n, p, gamma)
    basis = _gram_basis(pr)
    want = _in_run_sensitivities(pr, u, method, 40, basis)
    residuals = pr.residual(run.points.T, u[:, None])
    got = list(_compact_sensitivities(pr, run, basis, residuals, _prox_derivatives(pr, run)))
    assert len(got) == len(want) == 41
    assert all(_same_array(g, w) for sens, ref in zip(got, want) for g, w in zip(sens, ref))


def _compact_pair(gen, n, p, dense):
    """J-hat and J-hat_prev in compact form and their buffer of t_i.  With
    ``dense`` "folded" they are the pair a fold leaves: J-hat = a and
    J-hat_prev = b, random, with no columns.  Otherwise they share one
    random pair (a, b), or none when ``dense`` is False, and take random
    rows p, q, r and three and two columns, the buffer having room for one
    more."""
    a, b = gen.standard_normal((2, n, p)) if dense else (None, None)
    if dense == "folded":
        ts = np.empty((1, p))
        opened = np.zeros((3, n))
        opened[0] = 1.0
        return (_Sensitivity(a, b, opened, ts[:0]),
                _Sensitivity(a, b, opened[[1, 0, 2]], ts[:0]), ts)
    ts = np.empty((4, p))
    ts[:3] = gen.standard_normal((3, p))
    cur, prev = (_Sensitivity(a, b, gen.standard_normal((3 + m, n)), ts[:m]) for m in (3, 2))
    return cur, prev, ts


RANK_ONE = ("f2 outside the ball", "f4 Z empty")


@pytest.mark.parametrize("case", ["f1", "f3 Z empty", "f3 D = 0", "f2 inside the ball",
                                  *RANK_ONE])
@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("dense", [False, True, "folded"])
def test_diagonal_step_matches_the_dense_step(case, beta, dense):
    # the compact step with one prox-derivative value s, against
    # sensitivity_step on the built Jacobians: diagonal for a loss Hessian
    # c I, rank-1 (one appended column) for c (I - v v^T)
    which = int(case[1])
    a, u = seeded_problem_data(10, 6, 2, 3.0)
    pr = make_experiment_problem(which, a, gamma=1e3 if case == "f3 D = 0" else 0.1)
    gen = np.random.Generator(np.random.PCG64(which))
    x = gen.standard_normal(pr.n)
    if case == "f2 inside the ball":  # P < N: A x = u has an exact solution
        x = np.linalg.lstsq(pr.a, u, rcond=None)[0]
        assert np.linalg.norm(pr.residual(x, u)) <= pr.h.delta
    r = pr.residual(x, u)
    tau = 0.01
    z = np.sign(gen.standard_normal(pr.n)) * (1.0 + gen.random(pr.n))  # |z| > tau gamma
    c, v = pr.h.hessian_factors(r)
    d = _prox_derivative(pr, tau, z)
    s = 1.0 if d is None else d[0]
    want_s = {"f3 Z empty": 1.0 / (1.0 + tau * pr.k.modulus), "f3 D = 0": 0.0,
              "f4 Z empty": 1.0 / (1.0 + tau * pr.k.modulus)}.get(case, 1.0)
    assert (v is not None) == (case in RANK_ONE) and s == want_s
    assert d is None or np.all(d == s)
    basis = _gram_basis(pr)
    cur, prev, ts = _compact_pair(gen, pr.n, pr.p, dense)
    want = sensitivity_step(pr, basis, (c, v), cur.jacobian(basis.params),
                            prev.jacobian(basis.params), d, tau, beta)
    diag = valgrad.estimators._step_multiplier(pr, basis.eigvals, c, tau, beta)
    got = valgrad.estimators._compact_step(diag, cur, prev, (c, v), s, tau, beta,
                                           basis.params, None if v is None else ts)
    if v is None:
        assert got.ts is cur.ts and len(got.us) == len(cur.us)
    else:
        assert got.ts.base is ts and len(got.ts) == len(got.us) == len(cur.us) + 1
    assert got.a is cur.a and got.b is cur.b
    got = got.jacobian(basis.params)
    if case == "f3 D = 0":
        assert not np.any(got) and not np.any(want)
    else:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("which, method, gamma", [
    (2, "gd", 0.1), (2, "heavy_ball", 0.1), (4, "ipiasco", 0.01),
])
def test_factored_sensitivities_match_a_dense_replay_across_folds(which, method, gamma):
    # at N = 30, P = 20 the columns fold into the dense pair once they number
    # NP // (N + P) = 12; f2 takes a rank-1 step at each of the 120 steps,
    # f4 at this gamma mixes rank-1 steps (Z empty) and dense ones
    a, u = seeded_problem_data(30, 20, 5, 10.0)
    pr = make_experiment_problem(which, a, gamma=gamma)
    run = run_primal(pr, u, method, iterations=120)
    basis = _gram_basis(pr)
    residuals = pr.residual(run.points.T, u[:, None])
    jac = jac_prev = np.zeros((pr.n, pr.p))
    columns, folds = [], 0
    derivs = _prox_derivatives(pr, run)
    for k, sens in enumerate(_compact_sensitivities(pr, run, basis, residuals, derivs)):
        if k:
            hess = pr.h.hessian_factors(residuals[:, k - 1])
            d = _prox_derivative(pr, run.tau, run.pre_prox[k - 1])
            jac, jac_prev = sensitivity_step(pr, basis, hess, jac, jac_prev, d,
                                             run.tau, run.beta), jac
        got = sens.jacobian(basis.params)
        assert np.linalg.norm(got - jac) <= 1e-12 * np.linalg.norm(jac)
        folds += bool(columns) and columns[-1] == 11 and not len(sens.us)
        columns.append(len(sens.us))
    assert max(columns) == 11
    assert folds >= (9 if which == 2 else 1)
    if which == 4:
        assert any(len(set(pr.k.prox_derivative(run.tau, z))) > 1 for z in run.pre_prox)


@pytest.mark.parametrize("which, method", [
    (1, "gd"), (1, "heavy_ball"), (2, "gd"), (2, "heavy_ball"), (3, "ista"), (3, "ipiasco"),
])
def test_only_steps_that_are_not_diagonal_run_the_dense_step(which, method, monkeypatch):
    # f1 has c I and no prox, f2 here keeps its residuals outside the Huber
    # ball (c (I - v v^T) and no prox), and f3 has c I and a prox derivative with two values exactly
    # where some but not all coordinates are zeroed
    pr, u = instance(which, n=30, p=20, seed=5, cond=10.0)
    run = run_primal(pr, u, method, iterations=120)
    residuals = pr.residual(run.points.T, u[:, None])
    calls = []
    step = valgrad.estimators.sensitivity_step
    monkeypatch.setattr(valgrad.estimators, "sensitivity_step",
                        lambda *args: calls.append(1) or step(*args))
    for _ in sensitivities(pr, run, u):
        pass
    if which == 1:
        assert not calls
    elif which == 2:  # every step is rank-1, and none runs the dense step
        assert np.linalg.norm(residuals[:, :-1], axis=0).min() > pr.h.delta
        assert not calls
    else:
        zeroed = [np.count_nonzero(pr.k.prox_derivative(run.tau, z) == 0)
                  for z in run.pre_prox]
        mixed = sum(0 < count < pr.n for count in zeroed)
        assert 0 < mixed < 120
        assert len(calls) == mixed


def test_automatic_estimator_takes_one_prox_derivative_per_call(monkeypatch):
    # one evaluation on the K x N block of pre-prox points classifies every
    # step, and a dense step (two values) takes its row: here 38 of the 60
    # steps are dense and 22 compact, and each row is the step's own d
    a, u = seeded_problem_data(30, 20, 5, 10.0)
    pr = make_experiment_problem(4, a, gamma=0.01)
    run = run_primal(pr, u, "ista", iterations=60)
    per_step = [pr.k.prox_derivative(run.tau, z) for z in run.pre_prox]
    dense = sum(len(set(d)) > 1 for d in per_step)
    assert 0 < dense < 60
    blocks = []
    derivative = ElasticNet.prox_derivative

    def spy(self, tau, z):
        blocks.append(derivative(self, tau, z))
        return blocks[-1]

    monkeypatch.setattr(ElasticNet, "prox_derivative", spy)
    automatic_estimator(pr, run, u)
    [block] = blocks
    assert block.shape == (60, pr.n)
    assert all(np.array_equal(row, d) for row, d in zip(block, per_step))


@pytest.mark.parametrize("which, method, gamma", [
    (3, "ista", 20.0), (3, "ipiasco", 60.0), (4, "ista", 10.0), (4, "ipiasco", 10.0),
])
def test_the_reverse_sweep_matches_the_forward_one_on_every_kind_of_step(which, method,
                                                                          gamma, monkeypatch):
    # from a spread start at N = 30, P = 20 the runs mix dense steps with
    # single-valued ones, and the inertial ones with all-zero ones; each
    # sweep is forced on the same run, over the squared and the Huber loss
    a, u = seeded_problem_data(30, 20, 5, 10.0)
    pr = make_experiment_problem(which, a, gamma=gamma)
    run = run_primal(pr, u, method, iterations=60, x0=np.linspace(-3.0, 3.0, pr.n))
    derivs = _prox_derivatives(pr, run)
    dense = derivs.min(axis=1) != derivs.max(axis=1)
    zero = derivs.max(axis=1) == 0
    assert dense.any() and (~dense & ~zero).any() and zero.any() == (method == "ipiasco")
    got = {}
    for reverse in (False, True):
        monkeypatch.setattr(valgrad.estimators, "_reverse_pays", lambda *_: reverse)
        got[reverse] = automatic_estimator(pr, run, u).per_iteration
    assert got[True].shape == (61, pr.p) and got[True].flags.c_contiguous
    for g, w in zip(got[True], got[False]):
        assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)


def test_the_sweep_turns_reverse_where_dense_p_passes_k_k_plus_1_over_2(monkeypatch):
    # f4 at N = 12 over K = 41 steps, all dense: dense P = 41 P against
    # K (K + 1) / 2 = 861, equal at P = 21, so P = 20 and 21 go forward
    # and P = 22 reverse
    forward = _spy(monkeypatch, "_compact_sensitivities")
    swept = []
    for p, reverse in ((20, False), (21, False), (22, True)):
        a, u = seeded_problem_data(12, p, 3, 3.0)
        pr = make_experiment_problem(4, a)
        run = run_primal(pr, u, "ista", iterations=41)
        assert all(len(set(pr.k.prox_derivative(run.tau, z))) > 1 for z in run.pre_prox)
        before = len(forward)
        automatic_estimator(pr, run, u)
        swept.append(len(forward) == before)
    assert swept == [False, False, True]


def test_every_default_grid_run_takes_the_forward_sweep():
    # at K = 250 a run goes reverse only with dense P > 31,375; the default
    # grid has at most 250 90 = 22,500
    cfg = ExperimentConfig()
    runs = 0
    for name in cfg.problems:
        which = int(name[1])
        for p in cfg.p_list:
            a, u = seeded_problem_data(cfg.n, p, _cell_seed(cfg.seed, which, p), cfg.cond_ratio)
            pr = make_experiment_problem(which, a, cfg.lam, cfg.gamma, cfg.delta)
            for method in _primal_methods(pr, cfg.inertia):
                run = run_primal(pr, u, method, iterations=cfg.iterations)
                assert not _reverse_pays(_prox_derivatives(pr, run), pr.p), (name, p, method)
                runs += 1
    assert runs == 40


@pytest.mark.parametrize("which, method", [(2, "heavy_ball"), (4, "ista"), (4, "ipiasco")])
def test_automatic_estimator_keeps_two_jacobians_alive(which, method):
    # at N = P = 60 and K = 100 one Jacobian outweighs the O(K (N + P))
    # series; holding all K + 1 Jacobians would peak above 100 of them.  f4
    # takes the reverse sweep here, whose (K+1) x N blocks must fit too
    pr, u = instance(which, n=60, p=60, seed=1)
    automatic_estimator(pr, run_primal(pr, u, method, iterations=2), u)  # warm caches
    jac_bytes = pr.n * pr.p * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        run = run_primal(pr, u, method, iterations=100)
        est = automatic_estimator(pr, run, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(est.per_iteration) == 101
    assert peak < 25 * jac_bytes, peak / jac_bytes


def test_automatic_requires_sensitivities():
    pr, u = instance(1)
    run = run_primal(pr, u, "gd", iterations=3, with_sensitivity=False)
    with pytest.raises(ValueError):
        automatic_estimator(pr, run, u)


def test_sensitivities_require_sensitivities():
    pr, u = instance(1)
    run = run_primal(pr, u, "gd", iterations=3, with_sensitivity=False)
    with pytest.raises(ValueError):
        next(sensitivities(pr, run, u))


def test_implicit_estimator_exact_on_quadratic_anywhere():
    pr, u = instance(1, cond=10.0)
    _, grad = closed_form_f1(pr.a, 2.0, u)
    gen = np.random.Generator(np.random.PCG64(7))
    for x in gen.standard_normal((5, pr.n)):
        est = implicit_estimator(pr, x, u)
        np.testing.assert_allclose(est.final, grad, atol=1e-9)


def test_implicit_estimator_woodbury_oracle():
    # independent route: g3 at x via explicit dense solves
    pr, u = instance(2, n=7, p=4, seed=9)
    x = 0.2 * np.arange(pr.n)
    hxx = pr.hess_xx(x, u)
    gx = pr.primal_smooth_grad(x, u)
    w = np.linalg.solve(hxx, gx)
    want = -pr.hess_xu(x, u).T @ w + pr.grad_u(x, u)
    est = implicit_estimator(pr, x, u)
    np.testing.assert_allclose(est.final, want, atol=1e-10)


def test_dual_estimator_cg_matches_closed_form():
    pr, u = instance(1, n=12, p=8, seed=1, cond=2.0)
    _, grad = closed_form_f1(pr.a, 2.0, u)
    est = dual_estimator(pr, u, SolverConfig(method="cg", iterations=pr.p))
    np.testing.assert_allclose(est.final, grad, atol=1e-8)


def test_dual_estimator_zero_parameter_gives_zero():
    pr, _ = instance(1)
    est = dual_estimator(pr, np.zeros(pr.p), SolverConfig(method="cg", iterations=pr.p))
    np.testing.assert_allclose(est.final, np.zeros(pr.p), atol=1e-12)


@pytest.mark.parametrize("method", ["gd", "heavy_ball", "fista", "pdhg"])
def test_dual_estimator_smooth_dual_all_solvers(method):
    pr, u = instance(1, cond=2.0)
    _, grad = closed_form_f1(pr.a, 2.0, u)
    est = dual_estimator(pr, u, SolverConfig(method=method, iterations=3000))
    np.testing.assert_allclose(est.final, grad, atol=1e-6)


@pytest.mark.parametrize("method", ["ista", "fista", "ipiasco", "pdhg"])
def test_dual_estimator_huber_dual_solvers_agree(method):
    pr, u = instance(2, cond=2.0)
    ref = dual_estimator(pr, u, SolverConfig(method="fista", iterations=20000))
    est = dual_estimator(pr, u, SolverConfig(method=method, iterations=5000))
    np.testing.assert_allclose(est.final, ref.final, atol=1e-6)


@pytest.mark.parametrize("which,plain,inertial", [
    (1, "gd", "heavy_ball"), (2, "ista", "ipiasco"),
])
def test_dual_estimator_explicit_zero_momentum(which, plain, inertial):
    # beta=0.0 means no momentum, not "use the optimal momentum"
    pr, u = instance(which, cond=2.0)
    tau = optimal_gd_step(*pr.dual_objective(u).curvature())
    ref = dual_estimator(pr, u, SolverConfig(method=plain, tau=tau, iterations=60))
    est = dual_estimator(pr, u, SolverConfig(method=inertial, tau=tau, beta=0.0,
                                             iterations=60))
    np.testing.assert_array_equal(est.per_iteration, ref.per_iteration)


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_dual_estimator_fista_matches_the_constant_momentum_loop(which):
    # the accelerated loop as fista wrote it out before it shared
    # accelerated_steps with the certified solve; iterates must be bit-equal
    pr, u = instance(which, cond=5.0)
    dob = pr.dual_objective(u)
    lips, m = dob.curvature()
    tau = 1.0 / lips
    q = tau * m
    beta = (1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q))
    x = np.zeros(pr.p)
    z = x.copy()
    want = [x.copy()]
    for _ in range(200):
        x_next = dob.prox(tau, z - tau * dob.smooth_grad(z))
        z = x_next + beta * (x_next - x)
        x = x_next
        want.append(x.copy())
    got = dual_estimator(pr, u, SolverConfig(method="fista", iterations=200))
    assert got.per_iteration.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("method", ["gd", "heavy_ball", "fista", "pdhg", "cg"])
def test_dual_estimator_with_a_linear_term_and_an_offset(method):
    # c != 0 enters the dual as shift = -c, b != 0 through linear = b + u;
    # the exact gradient is b - A x* + u with (A^T A + 2 I) x* = A^T (b + u) - c
    a, u = seeded_problem_data(8, 5, 6, 3.0)
    gen = np.random.Generator(np.random.PCG64(6))
    c, b = gen.standard_normal(8), gen.standard_normal(5)
    pr = StructuredProblem(a=a, h=SquaredNorm(1.0), k=SquaredNorm(2.0), c=c, b=b)
    xstar = np.linalg.solve(a.T @ a + 2.0 * np.eye(8), a.T @ (b + u) - c)
    iterations = pr.p if method == "cg" else 3000
    est = dual_estimator(pr, u, SolverConfig(method, iterations=iterations))
    np.testing.assert_allclose(est.final, b - a @ xstar + u, atol=1e-10)


def test_a_smooth_elastic_net_takes_the_closed_forms_of_the_ridge():
    # at gamma = 0 neither k nor h* has a prox part, so f3 is quadratic and
    # its oracles are f1's, bit for bit
    a, u = seeded_problem_data(8, 5, 4, 3.0)
    f1, f3 = (make_experiment_problem(which, a, gamma=0.0) for which in (1, 3))
    assert f3.is_quadratic()
    np.testing.assert_array_equal(fd_oracle(f3, u).per_iteration,
                                  fd_oracle(f1, u).per_iteration)
    val3, x3, ok3 = value_function(f3, u)
    val1, x1, ok1 = value_function(f1, u)
    assert ok3 and ok1 and val3 == val1
    np.testing.assert_array_equal(x3, x1)
    _, grad = closed_form_f1(a, 2.0, u)
    est = dual_estimator(f3, u, SolverConfig("cg", iterations=f3.p))
    np.testing.assert_allclose(est.final, grad, atol=1e-10)


def test_dual_estimator_rejects_plain_gd_on_constrained_dual():
    pr, u = instance(2)
    with pytest.raises(ValueError):
        dual_estimator(pr, u, SolverConfig(method="gd", iterations=10))


def test_estimator_consensus_smooth_problems():
    for which in (1, 2):
        pr, u = instance(which, n=8, p=5, seed=2, cond=2.0)
        run = run_primal(pr, u, "heavy_ball", iterations=2000)
        ang = analytic_estimator(pr, run.points, u).final
        aug = automatic_estimator(pr, run, u).final
        ig = implicit_estimator(pr, run.final, u).final
        dm = "heavy_ball" if which == 1 else "fista"
        dg = dual_estimator(pr, u, SolverConfig(method=dm, iterations=2000)).final
        for other in (aug, ig, dg):
            np.testing.assert_allclose(ang, other, atol=1e-5)


def test_value_function_closed_form_vs_oracle():
    pr, u = instance(1, cond=2.0)
    val_cf, x_cf, ok = value_function(pr, u)
    assert ok
    # compare against the generic iterative path on the same problem
    x_it, val_it, ok_it = oracle_primal_solve(pr, u, max_iterations=20000)
    assert ok_it
    assert val_it == pytest.approx(val_cf, abs=1e-10)


def test_fd_oracle_matches_closed_form_f1():
    pr, u = instance(1, cond=2.0)
    _, grad = closed_form_f1(pr.a, 2.0, u)
    est = fd_oracle(pr, u)
    assert not est.flagged
    np.testing.assert_allclose(est.final, grad, atol=1e-6)


def test_fd_oracle_exact_on_quadratic_value_function():
    # p(u) is exactly quadratic in u here, so central differences carry no
    # truncation error at all; only solver round-off remains
    pr, u = instance(1, n=6, p=4, seed=5, cond=4.0)
    _, grad = closed_form_f1(pr.a, 2.0, u)
    for eps in (1e-3, 1e-5):
        np.testing.assert_allclose(fd_oracle(pr, u, eps=eps).final, grad, atol=1e-8)


def test_fd_oracle_truncation_order():
    # Huber loss gives a genuinely non-quadratic value function; with large
    # steps the O(eps^2) truncation term dominates the solver noise
    pr, u = instance(2, n=6, p=4, seed=5, cond=4.0)
    ref = dual_estimator(pr, u, SolverConfig(method="fista", iterations=30000)).final
    e1 = np.max(np.abs(fd_oracle(pr, u, eps=4e-2).final - ref))
    e2 = np.max(np.abs(fd_oracle(pr, u, eps=2e-2).final - ref))
    # central differences: halving eps divides the error by about 4
    assert e1 / e2 == pytest.approx(4.0, rel=0.5)


def test_fd_oracle_nonsmooth_problem_vs_dual():
    pr, u = instance(4, n=8, p=5, seed=6, cond=3.0)
    fd = fd_oracle(pr, u)
    dg = dual_estimator(pr, u, SolverConfig(method="fista", iterations=20000))
    np.testing.assert_allclose(fd.final, dg.final, atol=1e-4)


def test_fd_oracle_freeze_threshold_scales_with_m(monkeypatch):
    # column i freezes once |z - x+| <= sqrt(tol m s_i) / L, which keeps its
    # value error 2|G|^2/m within tol s_i; here m = 2 tells tol m from tol / m
    pr, u = instance(3, n=12, p=8, seed=4, cond=5.0)
    lips, m = pr.curvature()
    assert m == 2.0
    limits = []
    polish = valgrad.estimators._newton_polish

    def spy(pr, params, y, points, live, limit, *args):
        limits.append(limit)
        return polish(pr, params, y, points, live, limit, *args)

    monkeypatch.setattr(valgrad.estimators, "_newton_polish", spy)
    tol, eps = 1e-6, 1e-5
    fd_oracle(pr, u, eps=eps, tol=tol, warm=np.zeros(pr.n))
    steps = np.tile(eps * (1.0 + np.abs(u)), 2)
    limit = limits[0]  # the chord steps' limit, handed over first
    np.testing.assert_allclose((lips * limit) ** 2 / steps, tol * m, rtol=1e-12)


@pytest.mark.parametrize("which", [2, 3, 4])
def test_fd_oracle_within_tol_whatever_the_warm_start(which):
    # tol bounds the solver part of the difference-quotient error, so a
    # tightly solved oracle is the reference; the start point must not matter
    pr, u = instance(which, n=12, p=8, seed=4, cond=5.0)
    ref = fd_oracle(pr, u, tol=1e-11)
    xstar, _, _ = oracle_primal_solve(pr, u)
    rough, _, _ = oracle_primal_solve(pr, u, max_iterations=30)
    cold = fd_oracle(pr, u)
    assert not ref.flagged and not cold.flagged
    np.testing.assert_allclose(cold.final, ref.final, atol=1e-6)
    for start in (xstar, rough, np.zeros(pr.n)):
        est = fd_oracle(pr, u, warm=start)
        assert not est.flagged
        np.testing.assert_allclose(est.final, cold.final, atol=1e-6)


def test_implicit_estimator_rejects_a_loss_without_hessian_factors():
    # a norm loss has no Hessian, which is a nonsmooth case, not a missing method
    a, u = seeded_problem_data(50, 10, 0, 100.0)
    pr = StructuredProblem(a=a, h=EuclideanNorm(0.1), k=SquaredNorm(2.0))
    with pytest.raises(NonsmoothError, match="EuclideanNorm has no Hessian"):
        implicit_estimator(pr, np.zeros(pr.n), u)


def test_implicit_estimator_rejects_an_indefinite_surrogate_hessian(monkeypatch):
    # a Hessian with a negative eigenvalue has no Cholesky factor: the
    # implicit-function-theorem solve does not apply there
    pr, u = instance(2)
    indefinite = np.diag(np.r_[1.0, -1.0, np.ones(pr.n - 2)])
    monkeypatch.setattr(StructuredProblem, "hess_xx", lambda self, x, u: indefinite)
    with pytest.raises(EstimatorInapplicable, match="not positive definite"):
        implicit_estimator(pr, np.zeros(pr.n), u)


def oracle_instance(which):
    a, u = seeded_problem_data(20, 15, 4, 30.0)
    return make_experiment_problem(which, a), u


@pytest.mark.parametrize("which", [2, 3, 4])
@pytest.mark.parametrize("tol", [1e-4, 1e-7])
def test_oracle_primal_solve_certifies_tol(which, tol):
    # tol bounds |grad h(b - A x + u) - grad p(u)|; a cold solve must land
    # within it of a tightly certified reference
    pr, u = oracle_instance(which)
    ref, _, ok = oracle_primal_solve(pr, u, tol=1e-11)
    assert ok
    x, val, ok = oracle_primal_solve(pr, u, tol=tol)
    assert ok and val == pr.primal_value(x, u)
    assert np.linalg.norm(pr.grad_u(x, u) - pr.grad_u(ref, u)) <= tol


@pytest.mark.parametrize("which", [2, 3, 4])
def test_certified_solve_survives_a_garbage_newton_step(which, monkeypatch):
    pr, u = oracle_instance(which)
    ref, _, _ = oracle_primal_solve(pr, u, tol=1e-11)
    fd_ref = fd_oracle(pr, u, warm=ref)
    calls, kinds = [], []

    def garbage(pr, x, par, tau, jac=None):
        calls.append((x.shape[1], jac is not None))
        kind = kinds[-1] if kinds else len(calls) % 2
        return np.full_like(x, np.nan) if kind else x + 1e3

    monkeypatch.setattr(valgrad.estimators, "_newton_step", garbage)
    x, _, ok = oracle_primal_solve(pr, u)
    assert calls and ok  # Newton was tried, and the prox-gradient fallback certified
    assert np.linalg.norm(pr.grad_u(x, u) - pr.grad_u(ref, u)) <= 1e-7
    for kind in (1, 0):  # every chord and Newton step NaN, then every one +1e3
        kinds.append(kind)
        calls.clear()
        fd = fd_oracle(pr, u, warm=x)
        assert (2 * pr.p, True) in calls  # the chord step was tried on the block
        assert not fd.flagged
        np.testing.assert_allclose(fd.final, fd_ref.final, atol=1e-6)


def test_certified_solve_without_iterations_returns_its_start_uncertified():
    pr, u = oracle_instance(3)
    params = u[:, None] + np.array([[0.0, 1e-3]])
    x0 = np.arange(2.0 * pr.n).reshape(pr.n, 2)
    points, certified = valgrad.estimators._certified_solve(
        pr, params, x0, np.full(2, 1e-3), 0
    )
    np.testing.assert_array_equal(points, x0)
    assert points is not x0
    np.testing.assert_array_equal(certified, [False, False])


@pytest.mark.parametrize("which,p", [(3, 30), (4, 10)])
def test_newton_phase_certifies_the_sparse_centre_solves(which, p, monkeypatch):
    # the default grid's slowest cells at seed 0 (N=50, cell seed 101 which + p)
    a, u = seeded_problem_data(50, p, 101 * which + p, 100.0)
    pr = make_experiment_problem(which, a)
    ref, _, ok = oracle_primal_solve(pr, u, tol=1e-11)
    assert ok
    calls = []
    certified_solve = valgrad.estimators._certified_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return certified_solve(*args, **kwargs)

    monkeypatch.setattr(valgrad.estimators, "_certified_solve", counted)
    x, _, ok = oracle_primal_solve(pr, u)
    assert ok and not calls
    assert np.linalg.norm(pr.grad_u(x, u) - pr.grad_u(ref, u)) <= 1e-7


def test_oracle_primal_solve_counts_newton_steps_against_the_cap():
    pr, u = oracle_instance(2)
    assert not oracle_primal_solve(pr, u, max_iterations=1)[2]


def test_fd_oracle_flags_iteration_cap():
    pr, u = instance(2, n=12, p=8, seed=4, cond=5.0)
    assert fd_oracle(pr, u, max_iterations=0).flagged
    assert not fd_oracle(pr, u).flagged


def test_fd_oracle_counts_each_chord_step_against_the_cap(monkeypatch):
    # from a perturbed start one chord step leaves columns open; a cap of one
    # iteration allows that one step and leaves the fallback none
    pr, u = instance(3, n=12, p=8, seed=4, cond=5.0)
    xstar, _, _ = oracle_primal_solve(pr, u)
    chords, caps = [], []
    newton_step = valgrad.estimators._newton_step
    certified_solve = valgrad.estimators._certified_solve

    def counted(pr, x, par, tau, jac=None):
        chords.append(jac is not None)
        return newton_step(pr, x, par, tau, jac)

    def capped(pr, params, x0, limit, max_iterations):
        caps.append(max_iterations)
        return certified_solve(pr, params, x0, limit, max_iterations)

    monkeypatch.setattr(valgrad.estimators, "_newton_step", counted)
    monkeypatch.setattr(valgrad.estimators, "_certified_solve", capped)
    fd_oracle(pr, u, max_iterations=1, warm=xstar + 1e-3)
    assert chords == [True] and caps == [0]


@pytest.mark.parametrize("which", [2, 3, 4])
@pytest.mark.parametrize("p", [10, 50])
def test_chord_steps_certify_a_warm_block(which, p, monkeypatch):
    # from the certified centre minimizer, the chord steps certify all 2P
    # columns, and no accelerated iteration runs (default-grid cells, seed 0)
    a, u = seeded_problem_data(50, p, 101 * which + p, 100.0)
    pr = make_experiment_problem(which, a)
    xstar, _, ok = oracle_primal_solve(pr, u)
    assert ok
    ref = fd_oracle(pr, u, warm=xstar, tol=1e-11)
    runs = []
    monkeypatch.setattr(valgrad.estimators, "accelerated_steps",
                        lambda *args: runs.append(args) or iter(()))
    est = fd_oracle(pr, u, warm=xstar)
    assert not est.flagged and not runs
    np.testing.assert_allclose(est.final, ref.final, atol=1e-6)


# ---------------------------------------------------------------------------
# Scalar counterexamples


def test_toy_exp_lower_bound():
    run = run_toy(ToyProblem("exp_lower_bound"), 0.4, iterations=400)
    truth = np.exp(0.4)
    assert all(v == 0.0 for v in run.analytic)
    assert all(v == 0.0 for v in run.implicit)
    assert run.automatic[-1] == pytest.approx(truth, abs=1e-6)
    assert run.x_trace[-1] == pytest.approx(0.4, abs=1e-8)


def test_toy_interval_quadratic():
    run = run_toy(ToyProblem("interval_quadratic", qa=1.0, qb=1.0), 0.5,
                  iterations=400)
    truth = run.truth[2]
    assert all(v == 0.0 for v in run.analytic)
    assert all(v == 0.0 for v in run.implicit)
    assert run.automatic[-1] == pytest.approx(truth, abs=1e-8)


def test_toy_no_minimizer():
    run = run_toy(ToyProblem("no_minimizer"), 2.0, iterations=1000)
    xs = run.x_trace
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert run.dual[-1] == pytest.approx(2.0, abs=1e-8)


def test_toy_no_minimizer_estimates_are_u():
    # f = exp(x) + u^2/2: df/du = u at every x and x_k does not depend on u
    run = run_toy(ToyProblem("no_minimizer"), 0.5)
    for est in (run.analytic, run.automatic, run.implicit):
        np.testing.assert_array_equal(est, np.full(201, 0.5))


@pytest.mark.parametrize("toy, u", [
    (ToyProblem("exp_lower_bound"), 0.4),
    (ToyProblem("exp_lower_bound"), 1.5),
    (ToyProblem("interval_quadratic", qa=1.0, qb=1.0), 0.5),
    (ToyProblem("interval_quadratic", qa=1.5, qb=1.0), 0.3),
    (ToyProblem("interval_quadratic", qa=1.5, qb=-1.0), 0.3),
    (ToyProblem("interval_quadratic", qa=-2.0, qb=1.0), 0.3),
    (ToyProblem("no_minimizer"), 2.0),
])
def test_toy_dual_reaches_the_truth(toy, u):
    run = run_toy(toy, u, iterations=400)
    assert abs(run.dual[-1] - run.truth[2]) <= 1e-8


@pytest.mark.parametrize("u", [-2.0, -1.5])
def test_toy_exp_dual_converges_where_e_u_is_below_1(u):
    # a fixed step 1/2 lands on y = 0 at u = -2 and stalls at u = -1.5; the
    # step min(1, e^u) keeps the iterates between 1 and e^u
    run = run_toy(ToyProblem("exp_lower_bound"), u)
    assert np.all(np.isfinite(run.dual))
    assert abs(run.dual[-1] - np.exp(u)) <= 1e-8


def test_toy_exp_dual_at_u_3_beats_the_half_step():
    # the fixed step 1/2 ended 0.0704 short of e^3 after the default 200 steps
    run = run_toy(ToyProblem("exp_lower_bound"), 3.0)
    assert len(run.dual) == 201
    assert abs(run.dual[-1] - np.exp(3.0)) < 0.0704


def test_toy_sensitivity_takes_the_clamped_side_at_a_tie():
    # from x0 = -2 with tau = 1/2 the first pre-prox point is exactly -u:
    # the tie counts as clamped, so J_1 = d(-u)/du = -1 (the left derivative)
    run = run_toy(ToyProblem("interval_quadratic"), 0.5, tau=0.5, iterations=1, x0=-2.0)
    assert run.x_trace[1] == -0.5
    assert run.automatic[1] == -1.0 * (-0.5 - 1.0)


@pytest.mark.parametrize("toy, u, x0, grad", [
    # the default start u + 1 moves with u, so its sensitivity starts at 1
    (ToyProblem("exp_lower_bound"), 0.4, None, np.exp),
    # from -5 the iterates clamp at -u first, then move inside the box
    (ToyProblem("interval_quadratic", qa=1.0, qb=1.0), 0.5, -5.0, lambda x: x - 1.0),
])
def test_toy_sensitivity_matches_central_difference_of_iterates(toy, u, x0, grad):
    h = 1e-6
    run = run_toy(toy, u, x0=x0)
    jac = run.automatic / grad(run.x_trace)  # automatic is f_s'(x_k) J_k here
    fd = (run_toy(toy, u + h, x0=x0).x_trace - run_toy(toy, u - h, x0=x0).x_trace) / (2.0 * h)
    assert np.any(jac != jac[-1])  # a transient, not only the clamped tail
    np.testing.assert_allclose(jac, fd, atol=1e-6)
