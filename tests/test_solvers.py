import numpy as np
import pytest

from valgrad.estimators import dual_estimator
from valgrad.funcs import ElasticNet
from valgrad.linalg import seeded_problem_data
from valgrad.problems import make_experiment_problem
from valgrad.solvers import (
    NotSPDError,
    SolverConfig,
    conjugate_gradient,
    fista,
    optimal_gd_step,
    optimal_inertial_params,
    prox_gradient,
    prox_of,
    step_policy,
)


def quad(seed=0, n=6, cond=10.0):
    gen = np.random.Generator(np.random.PCG64(seed))
    d = np.logspace(0, np.log10(cond), n)
    v, _ = np.linalg.qr(gen.standard_normal((n, n)))
    q = v @ np.diag(d) @ v.T
    b = gen.standard_normal(n)
    xstar = np.linalg.solve(q, b)
    return q, b, xstar, d[-1], d[0]


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(iterations=-1)
    # no iterations is a valid run: the estimate is the start point alone
    a, u = seeded_problem_data(8, 5, 0, 3.0)
    pr = make_experiment_problem(1, a)
    for method in ("gd", "heavy_ball", "fista", "cg"):
        est = dual_estimator(pr, u, SolverConfig(method, iterations=0))
        np.testing.assert_array_equal(est.per_iteration, np.zeros((1, pr.p)))


def test_gradient_descent_linear_convergence():
    q, b, xstar, lips, m = quad()
    tau = optimal_gd_step(lips, m)
    xs = prox_gradient(lambda x: q @ x - b, None, np.zeros(6), tau, 0.0, 200)
    errs = [np.linalg.norm(x - xstar) for x in xs]
    omega = (lips - m) / (lips + m)
    assert errs[-1] < 1e-8
    for k in range(len(errs) - 1):
        assert errs[k + 1] <= omega * errs[k] + 1e-14


def test_gradient_descent_objective_monotone():
    q, b, xstar, lips, m = quad(seed=1)
    obj = lambda x: 0.5 * x @ q @ x - b @ x
    xs = prox_gradient(lambda x: q @ x - b, None, np.ones(6), 1.0 / lips, 0.0, 50)
    values = [obj(x) for x in xs]
    assert all(v2 <= v1 + 1e-14 for v1, v2 in zip(values, values[1:]))


def test_heavy_ball_beats_gd_on_ill_conditioned():
    q, b, xstar, lips, m = quad(seed=2, cond=500.0)
    grad = lambda x: q @ x - b
    gd_xs = prox_gradient(grad, None, np.zeros(6), optimal_gd_step(lips, m), 0.0, 150)
    tau, beta = optimal_inertial_params(lips, m)
    hb_xs = prox_gradient(grad, None, np.zeros(6), tau, beta, 150)
    assert np.linalg.norm(hb_xs[-1] - xstar) < np.linalg.norm(gd_xs[-1] - xstar)


def test_ista_solves_lasso_fixed_point():
    # minimize ||Ax - b||^2/2 + gamma*||x||_1; check the prox fixed point
    gen = np.random.Generator(np.random.PCG64(4))
    a = gen.standard_normal((8, 5))
    b = gen.standard_normal(8)
    gamma = 0.5
    lips = float(np.linalg.eigvalsh(a.T @ a)[-1])
    smooth_grad = lambda x: a.T @ (a @ x - b)
    from valgrad.funcs import soft_threshold

    prox = lambda tau, z: soft_threshold(z, tau * gamma)
    x = prox_gradient(smooth_grad, prox, np.zeros(5), 1.0 / lips, 0.0, 3000)[-1]
    z = x - smooth_grad(x) / lips
    np.testing.assert_allclose(x, prox(1.0 / lips, z), atol=1e-10)


def test_fista_strongly_convex_momentum_converges_linearly():
    q, b, xstar, lips, m = quad(seed=5, cond=100.0)
    grad = lambda x: q @ x - b
    tau, beta = step_policy("fista", lips, m)
    xs = fista(grad, None, np.zeros(6), tau, beta, 300)
    assert np.linalg.norm(xs[-1] - xstar) < 1e-9


def test_ipiasco_matches_heavy_ball_with_identity_prox():
    q, b, xstar, lips, m = quad(seed=6)
    grad = lambda x: q @ x - b
    tau, beta = optimal_inertial_params(lips, m)
    hb = prox_gradient(grad, None, np.zeros(6), tau, beta, 40)
    ip = prox_gradient(grad, lambda t, z: z, np.zeros(6), tau, beta, 40)
    np.testing.assert_allclose(hb[-1], ip[-1], atol=1e-12)


def test_cg_finite_termination_and_accuracy():
    q, b, xstar, lips, m = quad(seed=10, n=5)
    ys = conjugate_gradient(q, b, np.zeros(5), 5)
    np.testing.assert_allclose(ys[-1], xstar, atol=1e-9)


def test_cg_stops_on_an_exactly_zero_residual():
    # on Q = I one step leaves an exactly zero residual, where the next step
    # would divide 0 by 0
    b = np.array([1.0, -2.0, 3.0])
    ys = conjugate_gradient(np.eye(3), b, np.zeros(3), 5)
    assert len(ys) == 2
    np.testing.assert_array_equal(ys[-1], b)
    # with no step allowed, the iterates are the start alone
    np.testing.assert_array_equal(conjugate_gradient(np.eye(3), b, np.zeros(3), 0),
                                  np.zeros((1, 3)))


def test_cg_raises_on_indefinite():
    q = np.diag([1.0, -1.0])
    with pytest.raises(NotSPDError):
        conjugate_gradient(q, np.array([1.0, 1.0]), np.zeros(2), 10)


def test_optimal_parameters():
    assert optimal_gd_step(3.0, 1.0) == pytest.approx(0.5)
    tau, beta = optimal_inertial_params(4.0, 1.0)
    assert tau == pytest.approx(4.0 / 9.0)
    assert beta == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize("method", ["gd", "ista"])
def test_step_policy_plain_methods_take_no_momentum(method):
    assert step_policy(method, 3.0, 1.0) == (0.5, 0.0)


@pytest.mark.parametrize("method", ["heavy_ball", "ipiasco"])
def test_step_policy_inertial_methods_take_the_optimal_pair(method):
    assert step_policy(method, 4.0, 1.0) == optimal_inertial_params(4.0, 1.0)
    tau, beta = step_policy(method, 4.0, 1.0)
    assert tau == pytest.approx(4.0 / 9.0)
    assert beta == pytest.approx(1.0 / 9.0)


def test_step_policy_fista_and_unknown_methods():
    # tau = 1/L and the momentum (1 - sqrt(q)) / (1 + sqrt(q)), q = tau m
    assert step_policy("fista", 4.0, 1.0) == (0.25, 1.0 / 3.0)
    for method in ("pdhg", "cg", "nonsense"):
        with pytest.raises(ValueError):
            step_policy(method, 4.0, 1.0)


def test_prox_of_checks_the_method_against_the_prox_part():
    k = ElasticNet(2.0, 0.1)
    assert prox_of("ista", k) == k.prox and prox_of("ipiasco", k) == k.prox
    assert prox_of("gd", None) is None and prox_of("heavy_ball", None) is None
    for method, part in [("gd", k), ("heavy_ball", k), ("ista", None), ("ipiasco", None),
                         ("fista", k), ("nonsense", None)]:
        with pytest.raises(ValueError):
            prox_of(method, part)
