"""Property tests of the convex calculus in :mod:`valgrad.funcs`.

Each conjugate pair is drawn with random parameters, and each property is
checked on both members of the pair: the Moreau decomposition, the
Fenchel-Young equality at prox points and the conjugate involution.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from valgrad.funcs import ElasticNet, EuclideanNorm, Huber, SquaredNorm  # noqa: E402

# reproducible draws, and no example database left in the working tree
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

positive = st.floats(0.1, 5.0)
steps = st.floats(0.05, 5.0)

# one member of each conjugate pair; the other is its conjugate()
PAIRS = st.one_of(
    st.builds(SquaredNorm, positive),
    st.builds(Huber, positive),  # conjugate SquaredNormBall
    st.builds(ElasticNet, positive, st.floats(0.0, 2.0)),  # ElasticNetConjugate
    st.builds(EuclideanNorm, positive),  # conjugate BallIndicator
)


@st.composite
def functions(draw):
    f = draw(PAIRS)
    return f.conjugate() if draw(st.booleans()) else f


@st.composite
def points(draw):
    # a direction times a norm drawn on its own, so that the norms sweep
    # the kinks of the radial functions at the drawn parameters
    dim = draw(st.integers(1, 5))
    coords = st.floats(-1.0, 1.0, allow_subnormal=False)
    z = np.array(draw(st.lists(coords, min_size=dim, max_size=dim)))
    norm = float(np.linalg.norm(z))
    return z * (draw(st.floats(0.0, 15.0)) / norm) if norm > 1e-3 else z


@PROPERTY
@given(functions(), points(), steps)
def test_moreau_decomposition(f, z, tau):
    # z = prox_{tau f}(z) + tau prox_{f*/tau}(z / tau)
    parts = f.prox(tau, z) + tau * f.conjugate().prox(1.0 / tau, z / tau)
    np.testing.assert_allclose(parts, z, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(functions(), points(), steps)
def test_fenchel_young_equality_at_prox_points(f, z, tau):
    # y = (z - x) / tau is a subgradient of f at x = prox_{tau f}(z), and the
    # Fenchel-Young inequality is tight exactly there
    x = f.prox(tau, z)
    y = (z - x) / tau
    fx, fy, xy = f.value(x), f.conjugate().value(y), float(np.dot(x, y))
    assert np.isfinite(fx) and np.isfinite(fy)
    scale = 1.0 + abs(fx) + abs(fy) + float(np.linalg.norm(x) * np.linalg.norm(y))
    assert abs(fx + fy - xy) <= 1e-12 * scale


@PROPERTY
@given(functions(), points())
def test_conjugate_involution(f, z):
    bi = f.conjugate().conjugate()
    assert type(bi) is type(f)
    assert bi.value(z) == pytest.approx(f.value(z), rel=1e-12, abs=1e-12)
