import warnings

import numpy as np
import pytest

from valgrad.funcs import (
    BallIndicator,
    ElasticNet,
    ElasticNetConjugate,
    EuclideanNorm,
    Huber,
    NonsmoothError,
    SquaredNorm,
    SquaredNormBall,
    soft_threshold,
    vector_norm,
)
from valgrad.linalg import seeded_problem_data
from valgrad.problems import closed_form_f1

ALL_FUNCS = [
    SquaredNorm(1.0),
    SquaredNorm(2.0),
    Huber(0.1),
    Huber(1.5),
    SquaredNormBall(0.7),
    ElasticNet(2.0, 0.1),
    ElasticNet(2.0, 0.0),
    ElasticNetConjugate(2.0, 0.1),
    BallIndicator(1.2),
    EuclideanNorm(0.8),
]

SMOOTH_FUNCS = [
    SquaredNorm(1.0),
    SquaredNorm(2.0),
    Huber(0.1),
    Huber(1.5),
    ElasticNetConjugate(2.0, 0.1),
    ElasticNet(2.0, 0.0),
]


def random_points(seed, count=100, dim=4, scale=3.0):
    gen = np.random.Generator(np.random.PCG64(seed))
    return scale * gen.standard_normal((count, dim))


# ---------------------------------------------------------------------------
# Point checks against hand-computed values


def test_soft_threshold_values():
    z = np.array([-2.0, -0.3, 0.0, 0.3, 2.0])
    np.testing.assert_allclose(
        soft_threshold(z, 0.5), [-1.5, 0.0, 0.0, 0.0, 1.5]
    )


def test_squared_norm_values():
    f = SquaredNorm(2.0)
    z = np.array([1.0, 2.0])
    assert f.value(z) == pytest.approx(5.0)
    np.testing.assert_allclose(f.grad(z), [2.0, 4.0])
    np.testing.assert_allclose(f.prox(0.5, z), z / 2.0)


def test_huber_quadratic_and_linear_regions():
    f = Huber(1.0)
    inside = np.array([0.3, 0.4])  # norm 0.5
    assert f.value(inside) == pytest.approx(0.125)
    np.testing.assert_allclose(f.grad(inside), inside)
    outside = np.array([3.0, 4.0])  # norm 5
    assert f.value(outside) == pytest.approx(4.5)
    np.testing.assert_allclose(f.grad(outside), outside / 5.0)


def test_squared_norm_ball_inside_the_ball():
    # inside the ball it is ||z||^2/2: its gradient is a copy of z
    f = SquaredNormBall(1.0)
    z = np.array([0.3, 0.4])  # norm 0.5
    assert f.value(z) == pytest.approx(0.125)
    g = f.grad(z)
    np.testing.assert_array_equal(g, z)
    assert not np.shares_memory(g, z)


def test_huber_value_is_moreau_envelope_of_norm():
    # h_delta = inf_w ||.-w||^2/2 + delta*||w|| evaluated numerically
    f = Huber(0.7)
    gen = np.random.Generator(np.random.PCG64(5))
    for z in 2.0 * gen.standard_normal((20, 3)):
        w = EuclideanNorm(0.7).prox(1.0, z)
        env = 0.5 * float(np.dot(z - w, z - w)) + 0.7 * float(np.linalg.norm(w))
        assert f.value(z) == pytest.approx(env, abs=1e-12)


def test_huber_value_evaluates_only_the_branch_it_takes():
    # at delta = 1e300 the linear branch, delta (r - delta / 2), overflows
    # where it is not taken
    z = np.array([0.3, 0.4])  # norm 0.5
    block = np.array([[0.3, 3.0], [0.4, 4.0]])  # columns of norm 0.5 and 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Huber(1e300).value(z) == 0.125
        np.testing.assert_array_equal(Huber(1e300).value(block), [0.125, 12.5])
        np.testing.assert_array_equal(Huber(1.0).value(block), [0.125, 4.5])


def test_elastic_net_prox_solves_its_subproblem():
    # prox output must satisfy the stationarity condition of the prox problem
    f = ElasticNet(2.0, 0.1)
    gen = np.random.Generator(np.random.PCG64(6))
    for z in 2.0 * gen.standard_normal((20, 4)):
        for tau in (0.3, 1.0, 2.5):
            w = f.prox(tau, z)
            q = (z - w) / tau  # must be a subgradient of f at w
            for i in range(len(w)):
                if w[i] != 0.0:
                    assert q[i] == pytest.approx(
                        2.0 * w[i] + 0.1 * np.sign(w[i]), abs=1e-10
                    )
                else:
                    assert abs(q[i]) <= 0.1 + 1e-12


def test_elastic_net_conjugate_closed_form():
    kc = ElasticNetConjugate(2.0, 0.5)
    v = np.array([1.5, -0.2, 0.5])
    # sum of max(0, |v|-gamma)^2 / (2 lam)
    assert kc.value(v) == pytest.approx(1.0 / 4.0)
    np.testing.assert_allclose(kc.grad(v), [0.5, 0.0, 0.0])


def test_indicator_and_norm_pair():
    ind = BallIndicator(2.0)
    assert ind.value(np.array([1.0, 1.0])) == 0.0
    assert ind.value(np.array([2.0, 2.0])) == np.inf
    np.testing.assert_allclose(
        ind.prox(1.0, np.array([3.0, 4.0])), [1.2, 1.6]
    )
    nrm = EuclideanNorm(2.0)
    assert nrm.value(np.array([3.0, 4.0])) == pytest.approx(10.0)
    np.testing.assert_allclose(nrm.prox(1.0, np.array([0.5, 0.5])), [0.0, 0.0])


@pytest.mark.parametrize("ratio", [0.91, 0.95, 0.999, 1.0, 1.001, 1.05])
def test_euclidean_norm_prox_near_its_zero_region(ratio):
    # ||z|| = ratio * tau s: the prox is 0 up to tau s and (1 - tau s/||z||) z
    # above it, and y = (z - x) / tau meets Fenchel-Young with equality,
    # s ||x|| = <x, y> with ||y|| <= s
    f, tau = EuclideanNorm(0.8), 1.5
    z = ratio * tau * f.scale * np.array([0.6, -0.8, 0.0])
    r = float(np.linalg.norm(z))
    x = f.prox(tau, z)
    np.testing.assert_allclose(x, max(0.0, 1.0 - tau * f.scale / r) * z, rtol=0, atol=1e-15)
    if ratio < 1.0:
        assert not np.any(x)
    y = (z - x) / tau
    assert np.linalg.norm(y) <= f.scale * (1.0 + 1e-12)
    assert f.value(x) == pytest.approx(float(np.dot(x, y)), abs=1e-15)


def test_nonsmooth_gradients_raise():
    with pytest.raises(NonsmoothError):
        ElasticNet(2.0, 0.1).grad(np.array([1.0, 0.0]))
    with pytest.raises(NonsmoothError):
        SquaredNormBall(1.0).grad(np.array([1.0, 0.0]))
    with pytest.raises(NonsmoothError):
        BallIndicator(1.0).grad(np.array([0.1, 0.0]))


def test_parameter_validation():
    for bad in (SquaredNorm, Huber, SquaredNormBall):
        with pytest.raises(ValueError):
            bad(-1.0)
    with pytest.raises(ValueError):
        ElasticNet(0.0, 0.1)
    with pytest.raises(ValueError):
        ElasticNet(1.0, -0.1)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: SquaredNorm(NAN), lambda: Huber(NAN), lambda: ElasticNet(NAN, 0.1),
    lambda: ElasticNet(1.0, NAN), lambda: ElasticNetConjugate(NAN, 0.1),
    lambda: SquaredNormBall(NAN), lambda: BallIndicator(NAN), lambda: EuclideanNorm(NAN),
    lambda: seeded_problem_data(4, 3, 0, cond_ratio=NAN),
    lambda: closed_form_f1(np.eye(2), NAN, np.zeros(2)),
], ids=["squared-norm", "huber", "elastic-net-lam", "elastic-net-gamma",
        "elastic-net-conjugate", "squared-norm-ball", "ball-indicator", "euclidean-norm",
        "cond-ratio", "closed-form-lam"])
def test_parameter_validation_rejects_nan(build):
    # each check reads "not ok", so that NaN fails it as well
    with pytest.raises(ValueError):
        build()


# ---------------------------------------------------------------------------
# Numeric oracle: 1-D grid sup for conjugates.  The proxes need no grid
# argmin: given these conjugate values, the Fenchel-Young equality at prox
# points (tests/test_properties.py) characterizes each prox exactly.


@pytest.mark.parametrize(
    "f",
    [SquaredNorm(2.0), Huber(0.5), ElasticNet(2.0, 0.1), EuclideanNorm(0.8)],
    ids=lambda f: type(f).__name__,
)
def test_conjugate_matches_numeric_sup(f):
    conj = f.conjugate()
    xs = np.linspace(-60.0, 60.0, 240_001)
    fvals = np.array([f.value(np.array([x])) for x in xs])
    for y in (-1.3, -0.2, 0.0, 0.4, 0.77):
        want = float(np.max(xs * y - fvals))
        got = conj.value(np.array([y]))
        if np.isinf(got):
            # grid sup is finite but should be near the boundary blowup;
            # verify it exceeds any finite closed-form value pattern instead
            continue
        assert got == pytest.approx(want, abs=1e-3)


def test_huber_conjugate_infinite_outside_ball():
    conj = Huber(0.5).conjugate()
    assert conj.value(np.array([0.6])) == np.inf
    assert conj.value(np.array([0.4])) == pytest.approx(0.08)


# ---------------------------------------------------------------------------
# Convex-calculus property suite (100 random points per variant)


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: type(f).__name__)
def test_moreau_identity(f):
    conj = f.conjugate()
    for i, z in enumerate(random_points(seed=11)):
        tau = 0.25 + (i % 7) * 0.5
        lhs = f.prox(tau, z) + tau * conj.prox(1.0 / tau, z / tau)
        np.testing.assert_allclose(lhs, z, atol=1e-10)


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: type(f).__name__)
def test_prox_firmly_nonexpansive(f):
    pts = random_points(seed=12, count=200)
    for z1, z2 in zip(pts[::2], pts[1::2]):
        for tau in (0.5, 1.0, 3.0):
            d = f.prox(tau, z1) - f.prox(tau, z2)
            assert float(np.dot(d, d)) <= float(np.dot(d, z1 - z2)) + 1e-12


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: type(f).__name__)
def test_fenchel_young_inequality(f):
    conj = f.conjugate()
    pts = random_points(seed=13, count=200)
    checked = 0
    for x, y_raw in zip(pts[::2], pts[1::2]):
        # shrink y toward 0 until it lands in the conjugate's domain
        # (indicator-type conjugates have small effective domains)
        for shrink in (1.0, 0.1, 0.01):
            x_try = shrink * x
            y = shrink * y_raw
            vx, vy = f.value(x_try), conj.value(y)
            if np.isinf(vx) or np.isinf(vy):
                continue
            assert vx + vy >= float(np.dot(x_try, y)) - 1e-10
            checked += 1
            break
    assert checked >= 30


@pytest.mark.parametrize("f", SMOOTH_FUNCS, ids=lambda f: type(f).__name__)
def test_fenchel_young_equality_at_gradient(f):
    conj = f.conjugate()
    for z in random_points(seed=14):
        try:
            y = f.grad(z)
        except NonsmoothError:
            continue
        vy = conj.value(y)
        if np.isinf(vy):
            continue
        assert f.value(z) + vy == pytest.approx(float(np.dot(z, y)), abs=1e-8)


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: type(f).__name__)
def test_biconjugate_recovers_function(f):
    bi = f.conjugate().conjugate()
    assert type(bi) is type(f)
    for z in random_points(seed=15):
        v = f.value(z)
        w = bi.value(z)
        if np.isinf(v):
            assert np.isinf(w)
        else:
            assert w == pytest.approx(v, abs=1e-8)


@pytest.mark.parametrize("f", SMOOTH_FUNCS, ids=lambda f: type(f).__name__)
def test_gradient_matches_finite_differences(f):
    eps = 1e-6
    checked = 0
    for z in random_points(seed=16):
        try:
            g = f.grad(z)
        except NonsmoothError:
            continue
        fd = np.zeros_like(z)
        kink = False
        for i in range(len(z)):
            e = np.zeros_like(z)
            e[i] = eps
            try:
                fd[i] = (f.value(z + e) - f.value(z - e)) / (2 * eps)
            except NonsmoothError:
                kink = True
        if kink:
            continue
        # skip points within eps of a curvature break (Huber ball boundary,
        # soft-threshold kink) where central differences straddle regimes
        if isinstance(f, Huber) and abs(np.linalg.norm(z) - f.delta) < 1e-3:
            continue
        if isinstance(f, ElasticNetConjugate) and np.any(
            np.abs(np.abs(z) - f.gamma) < 1e-3
        ):
            continue
        np.testing.assert_allclose(g, fd, atol=1e-5)
        checked += 1
    assert checked >= 80


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: type(f).__name__)
def test_prox_at_zero_step_limit(f):
    # small tau: prox stays near the input wherever the function is finite
    for z in random_points(seed=17, count=20):
        if np.isinf(f.value(z)):
            continue
        w = f.prox(1e-8, z)
        np.testing.assert_allclose(w, z, atol=1e-5)


@pytest.mark.parametrize(
    "f", [SquaredNorm(2.0), Huber(0.1), Huber(1.5), ElasticNet(2.0, 0.1)],
    ids=lambda f: repr(f),
)
def test_block_evaluation_matches_columns(f):
    # column norms from 0.02 to 20 put Huber columns on both sides of its knee
    gen = np.random.Generator(np.random.PCG64(11))
    z = gen.standard_normal((5, 8)) * np.logspace(-2, 1, 8)
    cols = z.T
    np.testing.assert_allclose(f.value(z), [f.value(c) for c in cols], rtol=1e-13)
    np.testing.assert_allclose(f.grad(z), np.array([f.grad(c) for c in cols]).T,
                               rtol=1e-13)
    np.testing.assert_allclose(f.prox(0.7, z),
                               np.array([f.prox(0.7, c) for c in cols]).T, rtol=1e-13)


def test_hessians_match_gradient_fd():
    eps = 1e-6
    for f in (SquaredNorm(2.0), Huber(0.8), ElasticNetConjugate(2.0, 0.3)):
        for z in random_points(seed=18, count=20):
            if isinstance(f, Huber) and abs(np.linalg.norm(z) - f.delta) < 1e-2:
                continue
            if isinstance(f, ElasticNetConjugate) and np.any(
                np.abs(np.abs(z) - f.gamma) < 1e-2
            ):
                continue
            hess = f.hessian(z)
            if not isinstance(f, Huber):
                np.testing.assert_array_equal(f.hessian_diagonal(z), np.diag(hess))
            for i in range(len(z)):
                e = np.zeros_like(z)
                e[i] = eps
                col = (f.grad(z + e) - f.grad(z - e)) / (2 * eps)
                np.testing.assert_allclose(hess[:, i], col, atol=1e-5)


@pytest.mark.parametrize(
    "f, z",
    [
        (SquaredNorm(2.0), np.array([0.3, -1.2, 4.0])),
        (Huber(0.1), np.array([0.02, -0.03, 0.05])),  # inside the delta-ball
        (Huber(0.1), np.array([0.1, 0.0, 0.0])),  # exactly on ||z|| = delta
        (Huber(0.1), np.array([0.3, -1.2, 4.0])),  # outside
    ],
    ids=["squared", "huber-inside", "huber-on-knee", "huber-outside"],
)
def test_hessian_factors_rebuild_hessian(f, z):
    c, v = f.hessian_factors(z)
    rank1 = 0.0 if v is None else np.outer(v, v)
    np.testing.assert_allclose(c * (np.eye(len(z)) - rank1), f.hessian(z),
                               rtol=1e-15, atol=1e-15)


_BLOCK = np.random.default_rng(7).standard_normal((9, 4)) * np.logspace(-3, 3, 4)


@pytest.mark.parametrize("z", [
    np.random.default_rng(3).standard_normal(37) * 1e3,
    _BLOCK[:, 2],  # a strided column of a C-ordered block
    np.zeros(0),
    np.full(5, 1e200),  # the squares overflow
], ids=["contiguous", "strided-column", "empty", "overflow"])
def test_vector_norm_is_numpy_norm_bit_for_bit(z):
    with np.errstate(over="ignore"):  # both warn alike where the squares overflow
        expected = float(np.linalg.norm(z))
        got = vector_norm(z)
    assert type(got) is float and got == expected
