"""Closed convex building blocks.

Each class provides values, gradients where defined, proximal maps and
closed-form convex conjugates.  Indicator-type functions encode
infeasibility as ``+inf``; gradients at points of nondifferentiability
raise :class:`NonsmoothError` instead of silently returning a
subgradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonsmoothError(ValueError):
    """Gradient requested at a point where the function is not differentiable."""


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


# SquaredNorm, Huber and ElasticNet also evaluate an N x K block column by
# column: value returns one entry per column, grad and prox act per column.


def vector_norm(z) -> float:
    """Euclidean norm of an array's entries, the arithmetic of
    ``np.linalg.norm(z)`` for a real array (the square root of the dot
    product of the raveled array with itself) without its dispatch, so the
    two agree bit for bit."""
    z = np.asarray(z, dtype=float).ravel(order="K")
    return math.sqrt(z.dot(z))


def _norm(z):
    """Euclidean norm of a vector, or of each column of a block."""
    if z.ndim == 1:
        return vector_norm(z)
    return np.linalg.norm(z, axis=0)


def _sqnorm(z):
    """Squared Euclidean norm of a vector, or of each column of a block."""
    if z.ndim == 1:
        return float(np.dot(z, z))
    return np.einsum("ij,ij->j", z, z)


@dataclass(frozen=True)
class SmoothnessProfile:
    """Strong-convexity modulus m and gradient Lipschitz constant L (m <= L),
    L infinite for a nonsmooth function."""

    m: float
    lips: float


class ConvexFunction:
    """Base interface; subclasses implement the pieces they support.

    As a regularizer k a function declares its quadratic ``modulus`` and its
    ``prox_part`` (None if k is quadratic); as a loss h, ``conjugate_split()``
    = (s, g) with h*(y) = s ||y||^2 / 2 + g(y), g the dual's prox part or None.
    """

    prox_part = None

    @property
    def modulus(self) -> float:
        raise ValueError(f"{type(self).__name__} is not a supported regularizer")

    def conjugate_split(self):
        raise ValueError(f"{type(self).__name__} is not a supported loss for the dual")

    def value(self, z: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, z: np.ndarray) -> np.ndarray:
        raise NonsmoothError(f"{type(self).__name__} has no gradient")

    def hessian_factors(self, z: np.ndarray):
        raise NonsmoothError(f"{type(self).__name__} has no Hessian factors")

    def prox(self, tau: float, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self) -> "ConvexFunction":
        raise ValueError(f"no closed-form conjugate for {type(self).__name__}")

    def profile(self) -> SmoothnessProfile:
        raise NotImplementedError


@dataclass(frozen=True)
class SquaredNorm(ConvexFunction):
    """scale * ||z||^2 / 2."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def value(self, z):
        return 0.5 * self.scale * _sqnorm(np.asarray(z, dtype=float))

    def grad(self, z):
        return self.scale * np.asarray(z, dtype=float)

    def hessian(self, z):
        return self.scale * np.eye(len(z))

    def hessian_diagonal(self, z):
        """The diagonal of ``hessian(z)``, which is diagonal."""
        return np.full(len(z), self.scale)

    def hessian_factors(self, z):
        """(c, v) with hessian(z) = c (I - v v^T); v is None, the Hessian is scale I."""
        return self.scale, None

    subgradient_min_norm = grad

    def prox(self, tau, z):
        return np.asarray(z, dtype=float) / (1.0 + tau * self.scale)

    def conjugate(self):
        return SquaredNorm(1.0 / self.scale)

    @property
    def modulus(self):
        return self.scale

    def conjugate_split(self):
        return 1.0 / self.scale, None

    def profile(self):
        return SmoothnessProfile(self.scale, self.scale)


@dataclass(frozen=True)
class Huber(ConvexFunction):
    """Radial Huber: ||z||^2/2 inside the delta-ball, delta*(||z|| - delta/2) outside."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        r = _norm(z)
        # each branch only where it is taken: the linear one overflows at a huge delta
        if z.ndim == 1:
            return 0.5 * r * r if r <= self.delta else self.delta * (r - 0.5 * self.delta)
        v = 0.5 * r * r
        outside = r > self.delta
        v[outside] = self.delta * (r[outside] - 0.5 * self.delta)
        return v

    def grad(self, z):
        z = np.asarray(z, dtype=float)
        # exactly 1 inside the delta-ball, delta / r outside
        return z * (self.delta / np.maximum(_norm(z), self.delta))

    def hessian(self, z):
        z = np.asarray(z, dtype=float)
        r = vector_norm(z)
        if r <= self.delta:
            return np.eye(len(z))
        return (self.delta / r) * (np.eye(len(z)) - np.outer(z, z) / (r * r))

    def hessian_factors(self, z):
        """(c, v) with hessian(z) = c (I - v v^T): (1, None) inside the
        delta-ball, with the same tie rule as ``hessian``, and
        (delta / r, z / r) outside, where r = ||z||."""
        z = np.asarray(z, dtype=float)
        r = vector_norm(z)
        if r <= self.delta:
            return 1.0, None
        return self.delta / r, z / r

    def prox(self, tau, z):
        z = np.asarray(z, dtype=float)
        r = _norm(z)
        knee = self.delta * (1.0 + tau)
        return np.where(
            r <= knee, z / (1.0 + tau), (1.0 - tau * self.delta / np.maximum(r, knee)) * z
        )

    def conjugate(self):
        return SquaredNormBall(self.delta)

    def conjugate_split(self):
        return 1.0, BallIndicator(self.delta)

    def profile(self):
        return SmoothnessProfile(0.0, 1.0)


@dataclass(frozen=True)
class SquaredNormBall(ConvexFunction):
    """||y||^2/2 restricted to the closed radius-ball; conjugate of the radial Huber.

    The prox scales by 1/(1+tau) and then projects onto the ball; the two
    operations commute for radial functions.
    """

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def value(self, z):
        r = vector_norm(z)
        if r > self.radius * (1.0 + 1e-12):
            return np.inf
        return 0.5 * r * r

    def grad(self, z):
        z = np.asarray(z, dtype=float)
        r = vector_norm(z)
        if r >= self.radius:
            raise NonsmoothError("not differentiable on the ball boundary")
        return z.copy()

    def prox(self, tau, z):
        z = np.asarray(z, dtype=float) / (1.0 + tau)
        r = vector_norm(z)
        if r > self.radius:
            z = (self.radius / r) * z
        return z

    def conjugate(self):
        return Huber(self.radius)


@dataclass(frozen=True)
class ElasticNet(ConvexFunction):
    """lam * ||z||^2 / 2 + gamma * ||z||_1; reduces to SquaredNorm(lam) at gamma = 0."""

    lam: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and self.gamma >= 0):
            raise ValueError("need lam > 0 and gamma >= 0")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        v = 0.5 * self.lam * _sqnorm(z) + self.gamma * np.sum(np.abs(z), axis=0)
        return v if z.ndim > 1 else float(v)

    def grad(self, z):
        z = np.asarray(z, dtype=float)
        if self.gamma == 0.0:
            return self.lam * z
        if np.any(z == 0.0):
            raise NonsmoothError("elastic net is nonsmooth at zero coordinates")
        return self.lam * z + self.gamma * np.sign(z)

    def subgradient_min_norm(self, z):
        """Minimal-norm subgradient; equals the gradient away from kinks."""
        z = np.asarray(z, dtype=float)
        return self.lam * z + self.gamma * np.sign(z)

    def prox(self, tau, z):
        return soft_threshold(np.asarray(z, dtype=float), tau * self.gamma) / (
            1.0 + tau * self.lam
        )

    def prox_derivative(self, tau, z):
        """Diagonal of the prox Jacobian at z: 0 where |z_i| <= tau*gamma
        (ties resolved to 0), 1/(1 + tau*lam) elsewhere.  Elementwise, so a
        K x N block of points gives the K diagonals as its rows, each equal
        to the one of its row alone."""
        return (np.abs(z) > tau * self.gamma).astype(float) / (1.0 + tau * self.lam)

    def conjugate(self):
        return ElasticNetConjugate(self.lam, self.gamma)

    @property
    def modulus(self):
        return self.lam

    @property
    def prox_part(self):
        """The elastic net itself when gamma > 0; at gamma = 0 it is quadratic."""
        return self if self.gamma > 0 else None


@dataclass(frozen=True)
class ElasticNetConjugate(ConvexFunction):
    """Coordinatewise v -> max(0, |v| - gamma)^2 / (2 lam); smooth with 1/lam-Lipschitz gradient."""

    lam: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.lam > 0 and self.gamma >= 0):
            raise ValueError("need lam > 0 and gamma >= 0")

    def value(self, z):
        s = soft_threshold(np.asarray(z, dtype=float), self.gamma)
        return 0.5 * float(np.dot(s, s)) / self.lam

    def grad(self, z):
        return soft_threshold(np.asarray(z, dtype=float), self.gamma) / self.lam

    def hessian(self, z):
        return np.diag(self.hessian_diagonal(z))

    def hessian_diagonal(self, z):
        """The diagonal of ``hessian(z)``: 1/lam where |z_i| > gamma, 0 at
        and inside the kink (a generalized Hessian there)."""
        return (np.abs(np.asarray(z, dtype=float)) > self.gamma).astype(float) / self.lam

    def prox(self, tau, z):
        # Moreau identity against the elastic-net prox.
        z = np.asarray(z, dtype=float)
        return z - tau * soft_threshold(z, self.gamma) / (tau + self.lam)

    def conjugate(self):
        return ElasticNet(self.lam, self.gamma)

    def profile(self):
        if self.gamma == 0.0:
            return SmoothnessProfile(1.0 / self.lam, 1.0 / self.lam)
        return SmoothnessProfile(0.0, 1.0 / self.lam)


@dataclass(frozen=True)
class BallIndicator(ConvexFunction):
    """Indicator of the closed Euclidean ball of given radius."""

    radius: float

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError("radius must be nonnegative")

    def value(self, z):
        r = vector_norm(z)
        return 0.0 if r <= self.radius * (1.0 + 1e-12) + 1e-300 else np.inf

    def prox(self, tau, z):
        z = np.asarray(z, dtype=float)
        r = vector_norm(z)
        if r > self.radius:
            return (self.radius / r) * z
        return z.copy()

    def conjugate(self):
        return EuclideanNorm(self.radius)

    def profile(self):
        return SmoothnessProfile(0.0, np.inf)


@dataclass(frozen=True)
class EuclideanNorm(ConvexFunction):
    """scale * ||z||_2; conjugate of the ball indicator of the same radius."""

    scale: float

    def __post_init__(self):
        if not self.scale >= 0:
            raise ValueError("scale must be nonnegative")

    def value(self, z):
        return self.scale * vector_norm(z)

    def prox(self, tau, z):
        z = np.asarray(z, dtype=float)
        r = vector_norm(z)
        if r <= tau * self.scale:
            return np.zeros_like(z)
        return (1.0 - tau * self.scale / r) * z

    def conjugate(self):
        return BallIndicator(self.scale)

    def conjugate_split(self):
        return 0.0, BallIndicator(self.scale)

    def profile(self):
        return SmoothnessProfile(0.0, np.inf)
