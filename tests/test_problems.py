import numpy as np
import pytest

import valgrad.problems
from valgrad.estimators import _gram_basis, sensitivity_step
from valgrad.funcs import BallIndicator, ElasticNet, EuclideanNorm, Huber, SquaredNorm
from valgrad.linalg import seeded_problem_data, spectral_bounds
from valgrad.problems import (
    DualObjective,
    StructuredProblem,
    ToyProblem,
    closed_form_f1,
    make_experiment_problem,
)


def small_problem(which=1, n=8, p=5, seed=0, cond=3.0):
    a, u = seeded_problem_data(n, p, seed, cond)
    return make_experiment_problem(which, a), u


def test_dimensions_and_defaults():
    a = np.ones((3, 4))
    pr = StructuredProblem(a=a, h=SquaredNorm(1.0), k=SquaredNorm(2.0))
    assert pr.n == 4 and pr.p == 3
    np.testing.assert_array_equal(pr.c, np.zeros(4))
    np.testing.assert_array_equal(pr.b, np.zeros(3))
    with pytest.raises(ValueError):
        StructuredProblem(a=a, h=SquaredNorm(1.0), k=SquaredNorm(1.0), c=np.ones(3))


def test_primal_value_composition():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    pr = StructuredProblem(a=a, h=SquaredNorm(1.0), k=SquaredNorm(2.0))
    x = np.array([1.0, 1.0])
    u = np.array([0.5, 0.5])
    # residual = u - A x = (-0.5, -1.5); h = (0.25+2.25)/2; k = 2*2/2
    assert pr.primal_value(x, u) == pytest.approx(1.25 + 2.0)


def test_primal_smooth_grad_matches_fd():
    eps = 1e-6
    for which in (1, 2):
        pr, u = small_problem(which)
        x = np.linspace(-0.5, 0.5, pr.n)
        g = pr.primal_smooth_grad(x, u)
        for i in range(pr.n):
            e = np.zeros(pr.n)
            e[i] = eps
            fd = (pr.primal_value(x + e, u) - pr.primal_value(x - e, u)) / (2 * eps)
            assert g[i] == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("h", [SquaredNorm(1.0), Huber(0.5)], ids=repr)
@pytest.mark.parametrize("k", [SquaredNorm(2.0), ElasticNet(2.0, 0.1)], ids=repr)
@pytest.mark.parametrize("cols", [4, 5])  # K = P and K = N
def test_block_evaluation_matches_columns(h, k, cols):
    gen = np.random.Generator(np.random.PCG64(5))
    a = gen.standard_normal((4, 5))
    pr = StructuredProblem(a=a, h=h, k=k, c=gen.standard_normal(5),
                           b=gen.standard_normal(4))
    x = gen.standard_normal((5, cols))
    u = gen.standard_normal((4, cols))
    pairs = list(zip(x.T, u.T))
    np.testing.assert_allclose(pr.residual(x, u),
                               np.array([pr.residual(xi, ui) for xi, ui in pairs]).T)
    np.testing.assert_allclose(pr.primal_value(x, u),
                               [pr.primal_value(xi, ui) for xi, ui in pairs], rtol=1e-13)
    np.testing.assert_allclose(
        pr.primal_smooth_grad(x, u),
        np.array([pr.primal_smooth_grad(xi, ui) for xi, ui in pairs]).T, rtol=1e-13,
    )


def test_smooth_grad_excludes_prox_part_for_elastic_net():
    pr, u = small_problem(3)
    x = np.ones(pr.n)
    # smooth part is the loss alone; the elastic net lives in the prox
    expected = pr.c - pr.a.T @ pr.h.grad(pr.residual(x, u))
    np.testing.assert_allclose(pr.primal_smooth_grad(x, u), expected)
    assert pr.k.prox_part is pr.k


def test_hessian_blocks_fd():
    eps = 1e-6
    pr, u = small_problem(2)
    x = 0.1 * np.arange(pr.n)
    hxx = pr.hess_xx(x, u)
    hxu = pr.hess_xu(x, u)
    for i in range(pr.n):
        e = np.zeros(pr.n)
        e[i] = eps
        col = (pr.primal_smooth_grad(x + e, u) - pr.primal_smooth_grad(x - e, u)) / (
            2 * eps
        )
        np.testing.assert_allclose(hxx[:, i], col, atol=1e-5)
    for j in range(pr.p):
        e = np.zeros(pr.p)
        e[j] = eps
        col = (pr.primal_smooth_grad(x, u + e) - pr.primal_smooth_grad(x, u - e)) / (
            2 * eps
        )
        np.testing.assert_allclose(hxu[:, j], col, atol=1e-5)


def test_curvature_bounds_hessian_spectrum():
    pr, u = small_problem(1)
    lips, m = pr.curvature()
    ev = np.linalg.eigvalsh(pr.hess_xx(np.zeros(pr.n), u))
    assert ev[0] >= m - 1e-9
    assert ev[-1] <= lips + 1e-9


def dense_loss_blocks(pr, x, u):
    """A^T H_h A and -A^T H_h from the dense P x P loss Hessian."""
    hh = pr.h.hessian(pr.residual(x, u))
    return pr.a.T @ hh @ pr.a, -pr.a.T @ hh


def assert_rel_close(got, want, rtol):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


# Residual norms as multiples of delta = 0.1 on the Huber problems f2 and f4:
# inside the ball, outside it, and exactly on ||r|| = delta.  x = 0 and b = 0
# make the residual u itself, so the tie is exact in floating point.
@pytest.mark.parametrize("which", [1, 2, 3, 4])
@pytest.mark.parametrize("radius", [0.5, 3.0, 1.0], ids=["inside", "outside", "on-knee"])
def test_structured_hessians_match_dense(which, radius):
    pr, _ = small_problem(which, n=9, p=6)
    x = np.zeros(pr.n)
    u = np.zeros(pr.p)
    u[0] = radius * 0.1
    if radius != 1.0:
        gen = np.random.Generator(np.random.PCG64(which))
        x = gen.standard_normal(pr.n)
        r = gen.standard_normal(pr.p)
        u = radius * 0.1 * r / np.linalg.norm(r) + pr.a @ x
    if which in (2, 4):
        assert (np.linalg.norm(pr.residual(x, u)) <= 0.1) == (radius <= 1.0)
    hxx_loss, hxu = dense_loss_blocks(pr, x, u)
    jac = np.random.Generator(np.random.PCG64(9)).standard_normal((pr.n, pr.p))
    assert_rel_close(pr.hess_xx_loss(x, u), hxx_loss, 1e-12)
    assert_rel_close(pr.hess_xx(x, u), hxx_loss + pr.k.modulus * np.eye(pr.n), 1e-12)
    assert_rel_close(pr.hess_xu(x, u), hxu, 1e-12)
    # the eigenbasis sensitivity step at tau = 1 and beta = 0 with every
    # coordinate in the prox support carries the same Hessian blocks
    basis = _gram_basis(pr)
    d = None if pr.k.prox_part is None else pr.k.prox_derivative(1.0, np.full(pr.n, 1e3))
    hess = pr.h.hessian_factors(pr.residual(x, u))
    step = basis.vecs @ sensitivity_step(pr, basis, hess, basis.vecs.T @ jac, None, d, 1.0)
    want = jac - (hxx_loss @ jac + hxu)
    if pr.k.prox_part is None:
        want -= pr.k.modulus * jac
    else:
        want /= 1.0 + pr.k.lam
    assert_rel_close(step, want, 1e-12)


def test_gram_and_bounds_computed_once(monkeypatch):
    calls = []

    def counted(a, ata=None):
        calls.append(ata)
        return spectral_bounds(a, ata)

    monkeypatch.setattr(valgrad.problems, "spectral_bounds", counted)
    pr, u = small_problem(2)
    gram = pr.gram
    np.testing.assert_array_equal(gram, pr.a.T @ pr.a)
    assert not gram.flags.writeable
    first = pr.bounds()
    pr.curvature()
    pr.dual_objective(u).curvature()
    pr.hess_xx(np.zeros(pr.n), u)
    assert pr.gram is gram and pr.bounds() is first
    assert len(calls) == 1 and calls[0] is gram
    # taking A^T A from the cache leaves the bounds bit-identical
    assert first == spectral_bounds(pr.a)


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_hess_xx_adds_the_modulus_bit_for_bit(which):
    # lam goes onto the diagonal in place: the same bits as adding lam I
    pr, u = small_problem(which)
    x = np.random.Generator(np.random.PCG64(which)).standard_normal(pr.n)
    want = pr.hess_xx_loss(x, u) + pr.k.modulus * np.eye(pr.n)
    assert np.array_equal(pr.hess_xx(x, u), want)


def test_make_experiment_problem_variants():
    a = np.eye(3)
    assert isinstance(make_experiment_problem(1, a).h, SquaredNorm)
    assert isinstance(make_experiment_problem(2, a).h, Huber)
    assert isinstance(make_experiment_problem(3, a).k, ElasticNet)
    f4 = make_experiment_problem(4, a)
    assert isinstance(f4.h, Huber) and isinstance(f4.k, ElasticNet)
    with pytest.raises(ValueError):
        make_experiment_problem(5, a)


def test_closed_form_f1_is_stationary():
    a, u = seeded_problem_data(6, 4, 2, 2.0)
    pr = make_experiment_problem(1, a)
    xstar, grad = closed_form_f1(a, 2.0, u)
    np.testing.assert_allclose(
        pr.primal_smooth_grad(xstar, u), np.zeros(6), atol=1e-10
    )
    # gradient of the value function equals the loss gradient at the optimum
    np.testing.assert_allclose(grad, pr.grad_u(xstar, u), atol=1e-12)
    with pytest.raises(ValueError):
        closed_form_f1(a, 0.0, u)


def test_closed_form_f1_identity_matrix():
    # A = I, lam = 2: grad p = (I + A A^T / lam)^{-1} u = (2/3) u
    u = np.array([1.5, -3.0])
    _, grad = closed_form_f1(np.eye(2), 2.0, u)
    np.testing.assert_allclose(grad, u * 2.0 / 3.0, atol=1e-12)


def test_dual_objective_gradient_fd():
    eps = 1e-7
    for which in (1, 3):  # smooth duals
        pr, u = small_problem(which)
        dob = pr.dual_objective(u)
        y = 0.3 * np.ones(pr.p)
        g = dob.smooth_grad(y)
        for j in range(pr.p):
            e = np.zeros(pr.p)
            e[j] = eps
            fd = (dob.smooth_value(y + e) - dob.smooth_value(y - e)) / (2 * eps)
            assert g[j] == pytest.approx(fd, abs=1e-5)


def test_dual_objective_split_for_huber_loss():
    pr, u = small_problem(2)
    dob = pr.dual_objective(u)
    assert isinstance(dob.prox_part, BallIndicator)
    assert dob.prox_part.radius == pytest.approx(0.1)
    # the full dual value adds the indicator
    y_out = np.ones(pr.p)
    assert np.isinf(dob.value(y_out))


def test_dual_objective_split_is_declared_by_the_loss():
    # the Euclidean-norm loss reaches the dual through its conjugate_split:
    # h* is the radius-delta ball indicator with no quadratic part
    a, u = seeded_problem_data(8, 5, 0, 3.0)
    dob = StructuredProblem(a=a, h=EuclideanNorm(0.1), k=SquaredNorm(2.0)).dual_objective(u)
    assert dob.hstar_scale == 0.0
    assert dob.prox_part == BallIndicator(0.1)
    with pytest.raises(ValueError, match="Huber"):
        StructuredProblem(a=a, h=SquaredNorm(1.0), k=Huber(0.1)).curvature()
    with pytest.raises(ValueError, match="ElasticNet"):
        StructuredProblem(a=a, h=ElasticNet(1.0, 0.1), k=SquaredNorm(2.0)).dual_objective(u)


def test_dual_quadratic_form_consistency():
    pr, u = small_problem(1)
    dob = pr.dual_objective(u)
    q, r = dob.quadratic_form()
    gen = np.random.Generator(np.random.PCG64(3))
    for y in gen.standard_normal((5, pr.p)):
        want = dob.smooth_value(y)
        got = 0.5 * float(y @ q @ y) - float(r @ y)
        assert got == pytest.approx(want, abs=1e-10)
    with pytest.raises(ValueError):
        small_problem(2)[0].dual_objective(u).quadratic_form()


def test_dual_objective_minimizer_is_value_gradient():
    pr, u = small_problem(1)
    _, grad = closed_form_f1(pr.a, 2.0, u)
    dob = pr.dual_objective(u)
    np.testing.assert_allclose(dob.smooth_grad(grad), np.zeros(pr.p), atol=1e-9)


def test_duality_gap_nonnegative_and_tight():
    pr, u = small_problem(1)
    xstar, grad = closed_form_f1(pr.a, 2.0, u)
    assert pr.duality_gap(xstar, grad, u) == pytest.approx(0.0, abs=1e-10)
    # any other pair gives a positive gap
    assert pr.duality_gap(xstar + 0.1, grad * 0.9, u) > 0


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_duality_gap_is_primal_minus_conjugate_dual(which):
    a, u = seeded_problem_data(8, 5, seed=which, cond_ratio=3.0)
    base = make_experiment_problem(which, a)
    gen = np.random.Generator(np.random.PCG64(which))
    c, b = gen.standard_normal(8), gen.standard_normal(5)
    pr = StructuredProblem(a, base.h, base.k, c=c, b=b)
    x = gen.standard_normal(8)
    # a dual point in the domain of h*: a gradient of h
    y = pr.grad_u(gen.standard_normal(8), u)
    fstar = (-float(b @ y) + pr.k.conjugate().value(a.T @ y - c)
             + pr.h.conjugate().value(y))
    want = pr.primal_value(x, u) - (float(u @ y) - fstar)
    assert pr.duality_gap(x, y, u) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_dual_objective_validates_shapes():
    pr, u = small_problem(1)
    with pytest.raises(ValueError):
        DualObjective(pr, np.zeros(pr.p + 1))


def test_toy_ground_truths():
    t1 = ToyProblem("exp_lower_bound")
    xs, p, dp = t1.ground_truth(0.3)
    assert xs == pytest.approx(0.3)
    assert p == dp == pytest.approx(np.exp(0.3))

    t2 = ToyProblem("interval_quadratic", qa=2.0, qb=1.0)
    xs, p, dp = t2.ground_truth(0.25)
    assert xs == pytest.approx(0.25)
    assert p == pytest.approx(0.125)
    assert dp == pytest.approx(2.0 * (2.0 * 0.25 - 1.0))
    with pytest.raises(ValueError):
        t2.ground_truth(0.75)  # outside (0, b/a)

    t3 = ToyProblem("no_minimizer")
    xs, p, dp = t3.ground_truth(2.0)
    assert xs is None
    assert p == pytest.approx(2.0)
    assert dp == pytest.approx(2.0)

    with pytest.raises(ValueError):
        ToyProblem("unknown")
    with pytest.raises(ValueError):
        ToyProblem("interval_quadratic", qa=0.0)
