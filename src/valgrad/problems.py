"""Structured parametric problems and their duals.

A structured problem is f(x, u) = <c, x> + h(b - A x + u) + k(x) with h, k
drawn from the convex building blocks in :mod:`valgrad.funcs`.  The dual
objective for recovering the value-function gradient is

    y  ->  k*(A^T y - c) + h*(y) - <b + u, y>,

assembled here together with its smooth/prox splitting, which it reads from
the functions' own declarations (:class:`valgrad.funcs.ConvexFunction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .funcs import ConvexFunction, ElasticNet, Huber, SquaredNorm
from .linalg import SpectralBounds, spectral_bounds


@dataclass(frozen=True)
class StructuredProblem:
    a: np.ndarray  # P x N
    h: ConvexFunction
    k: ConvexFunction
    c: np.ndarray = None
    b: np.ndarray = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        p, n = a.shape
        c = np.zeros(n) if self.c is None else np.asarray(self.c, dtype=float)
        b = np.zeros(p) if self.b is None else np.asarray(self.b, dtype=float)
        if c.shape != (n,) or b.shape != (p,):
            raise ValueError("c must have length N and b length P")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def p(self) -> int:
        return self.a.shape[0]

    # residual, primal_value and primal_smooth_grad also take an N x K block
    # of points x with a P x K block of parameters u, one problem per column.

    def residual(self, x, u):
        b = self.b if np.ndim(x) == 1 else self.b[:, None]
        return b - self.a @ x + u

    def primal_value(self, x, u):
        val = (
            np.dot(self.c, x)
            + self.h.value(self.residual(x, u))
            + self.k.value(x)
        )
        return val if np.ndim(x) > 1 else float(val)

    def duality_gap(self, x, y, u) -> float:
        """Primal value plus the dual objective's value at y, which is
        minus the dual value; nonnegative by weak duality."""
        return self.primal_value(x, u) + self.dual_objective(u).value(y)

    def dual_objective(self, u) -> "DualObjective":
        return DualObjective(self, np.asarray(u, dtype=float))

    def is_quadratic(self) -> bool:
        """Neither k nor h* has a prox part: f(., u) and its dual are quadratic."""
        return self.k.prox_part is None and self.h.conjugate_split()[1] is None

    # Smooth-part primal calculus used by solvers and estimators.  When the
    # regularizer has a prox part it is handled entirely by its prox, so the
    # smooth part is <c, x> + h(b - A x + u) alone.

    def primal_smooth_grad(self, x, u):
        c = self.c if np.ndim(x) == 1 else self.c[:, None]
        g = c - self.a.T @ self.h.grad(self.residual(x, u))
        if self.k.prox_part is None:
            g = g + self.k.modulus * np.asarray(x, dtype=float)
        return g

    def grad_u(self, x, u):
        return self.h.grad(self.residual(x, u))

    # The loss Hessian has the form H_h = c (I - v v^T) (funcs.hessian_factors),
    # so its pullbacks need only the cached Gram matrix A^T A and w = A^T v.

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A (N x N), computed once per problem and read-only."""
        gram = self.a.T @ self.a
        gram.flags.writeable = False
        return gram

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(gram)``: (eigvals, V) with A^T A = V diag(eigvals)
        V^T, both read-only, computed on first use (never when the problem
        is built) and once per problem."""
        eigvals, vecs = np.linalg.eigh(self.gram)
        eigvals.flags.writeable = False
        vecs.flags.writeable = False
        return eigvals, vecs

    def _loss_hessian(self, x, u):
        """(c, v, w) with H_h = c (I - v v^T) at the residual and w = A^T v;
        v and w are None where H_h = c I."""
        c, v = self.h.hessian_factors(self.residual(x, u))
        return c, v, None if v is None else self.a.T @ v

    def hess_xx_loss(self, x, u):
        """Pullback A^T H_h A = c (A^T A - w w^T) of the loss Hessian."""
        c, _, w = self._loss_hessian(x, u)
        hxx = c * self.gram
        if w is not None:
            hxx -= c * np.outer(w, w)
        return hxx

    def hess_xx(self, x, u):
        """Smooth-surrogate Hessian A^T H_h A + lam I, lam added to the
        diagonal of the fresh loss block in place."""
        hxx = self.hess_xx_loss(x, u)
        hxx.flat[:: self.n + 1] += self.k.modulus
        return hxx

    def hess_xu(self, x, u):
        """-A^T H_h = -c (A^T - w v^T)."""
        c, v, w = self._loss_hessian(x, u)
        hxu = -c * self.a.T
        if v is not None:
            hxu += c * np.outer(w, v)
        return hxu

    @cached_property
    def _bounds(self) -> SpectralBounds:
        return spectral_bounds(self.a, self.gram)

    def bounds(self) -> SpectralBounds:
        """Spectral extremes of A, computed once per problem."""
        return self._bounds

    def curvature(self) -> tuple[float, float]:
        """(L, m) of f(., u): L_h L_A + L_k and m_h m_p + m_k, with L_k = m_k
        the regularizer's ``modulus``; an elastic net's l1 part adds none."""
        sb = self.bounds()
        hp = self.h.profile()
        mk = self.k.modulus
        return hp.lips * sb.lmax_ata + mk, hp.m * sb.lmin_ata + mk


class DualObjective:
    """The assembled dual problem min_y k*(A^T y - c) + h*(y) - <b + u, y>.

    Exposes the smooth/prox split used by first-order solvers, with
    h* = hstar_scale ||y||^2 / 2 + prox_part from ``h.conjugate_split()``:
    for Huber or Euclidean-norm h the prox part is a ball indicator.
    """

    def __init__(self, problem: StructuredProblem, u):
        self.problem = problem
        self.u = np.asarray(u, dtype=float)
        if self.u.shape != (problem.p,):
            raise ValueError("dimension mismatch")
        self.kconj = problem.k.conjugate()
        self.hstar_scale, self.prox_part = problem.h.conjugate_split()
        # 0 - c, not -c, which would give the zero entries of c a sign
        self.shift = 0.0 - problem.c
        self.linear = problem.b + self.u

    def value(self, y) -> float:
        val = self.smooth_value(y)
        if self.prox_part is not None:
            val += self.prox_part.value(y)
        return val

    def smooth_value(self, y) -> float:
        q = self.problem.a.T @ y + self.shift
        return (
            self.kconj.value(q)
            + 0.5 * self.hstar_scale * float(np.dot(y, y))
            - float(np.dot(self.linear, y))
        )

    def smooth_grad(self, y):
        q = self.problem.a.T @ y + self.shift
        return (
            self.problem.a @ self.kconj.grad(q)
            + self.hstar_scale * np.asarray(y, dtype=float)
            - self.linear
        )

    def curvature(self) -> tuple[float, float]:
        """(L, m) of the smooth part."""
        sb = self.problem.bounds()
        kp = self.kconj.profile()
        lips = kp.lips * sb.lmax_ata + self.hstar_scale
        m = kp.m * sb.lmin_aat + self.hstar_scale
        return lips, m

    def quadratic_form(self):
        """(Q, r) with the objective equal to y^T Q y / 2 - r^T y + const.

        Only available for a quadratic problem (``is_quadratic``): then
        k* is ||.||^2 / (2 lam) with lam the regularizer's ``modulus``.
        """
        pr = self.problem
        if not pr.is_quadratic():
            raise ValueError("dual objective is not quadratic")
        s = 1.0 / pr.k.modulus
        q = s * (pr.a @ pr.a.T) + self.hstar_scale * np.eye(pr.p)
        r = self.linear - s * (pr.a @ self.shift)
        return q, r


def make_experiment_problem(
    which: int,
    a: np.ndarray,
    lam: float = 2.0,
    gamma: float = 0.1,
    delta: float = 0.1,
) -> StructuredProblem:
    """The four benchmark problems: ridge/Huber loss crossed with ridge/elastic-net
    regularizer, with c = 0 and b = 0."""
    if which not in (1, 2, 3, 4):
        raise ValueError("problem index must be in 1..4")
    h = SquaredNorm(1.0) if which in (1, 3) else Huber(delta)
    k = SquaredNorm(lam) if which in (1, 2) else ElasticNet(lam, gamma)
    return StructuredProblem(a=np.asarray(a, dtype=float), h=h, k=k)


def closed_form_f1(a: np.ndarray, lam: float, u: np.ndarray):
    """Exact minimizer and value-function gradient of the fully quadratic
    problem: x* = (A^T A + lam I)^{-1} A^T u and grad p(u) = u - A x*."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    n = a.shape[1]
    xstar = np.linalg.solve(a.T @ a + lam * np.eye(n), a.T @ u)
    return xstar, u - a @ xstar


@dataclass(frozen=True)
class ToyProblem:
    """Scalar counterexamples with closed-form ground truth.

    kind "exp_lower_bound":   f(x, u) = exp(x) + indicator(x >= u)
    kind "interval_quadratic": f(x, u) = (a x - b)^2 / 2 + indicator(|x| <= u)
    kind "no_minimizer":       f(x, u) = exp(x) + u^2 / 2

    Each f is a smooth part f_s plus the indicator of a box, the whole line
    for "no_minimizer".  Each dual min_y g(y, u), whose minimizer is p'(u),
    is over a box too: g = y log y - y - u y over y >= 0, y^2 / (2 a^2) +
    (|b/a| - u) y over -|ab| <= y <= 0, and y^2 / 2 - u y over the line.
    """

    kind: str
    qa: float = 1.0
    qb: float = 1.0

    KINDS = ("exp_lower_bound", "interval_quadratic", "no_minimizer")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown toy problem {self.kind!r}")
        if self.kind == "interval_quadratic" and (self.qa == 0 or self.qb == 0):
            raise ValueError("quadratic toy needs nonzero coefficients")

    def ground_truth(self, u: float):
        """(xstar or None, p(u), p'(u))."""
        if self.kind == "exp_lower_bound":
            return u, float(np.exp(u)), float(np.exp(u))
        if self.kind == "interval_quadratic":
            ratio = abs(self.qb / self.qa)
            if not 0.0 < u < ratio:
                raise ValueError(f"u must lie in (0, {ratio})")
            xstar = np.sign(self.qb / self.qa) * u
            resid = self.qa * xstar - self.qb
            return xstar, 0.5 * resid * resid, self.qa * np.sign(self.qb / self.qa) * resid
        return None, 0.5 * u * u, u

    def smooth(self, x, u):
        """(f_s'(x), f_s''(x), df_s/du) at (x, u).  Only "no_minimizer" has
        u in f_s, as u^2 / 2, so d^2 f_s / dx du = 0 for every kind."""
        if self.kind == "interval_quadratic":
            return self.qa * (self.qa * x - self.qb), self.qa * self.qa, 0.0
        return np.exp(x), np.exp(x), (u if self.kind == "no_minimizer" else 0.0)

    def primal(self, u):
        """At u: the constraint box (lo, hi), its derivative (dlo/du, dhi/du)
        and the default start (x0, dx0/du)."""
        if self.kind == "exp_lower_bound":
            return (u, np.inf), (1.0, 0.0), (u + 1.0, 1.0)
        if self.kind == "interval_quadratic":
            return (-u, u), (-1.0, 1.0), (0.0, 0.0)
        return (-np.inf, np.inf), (0.0, 0.0), (0.0, 0.0)

    def dual(self, u):
        """(grad g, box, y0, tau): projected gradient on the dual at u, from
        y0 with step tau, converges to p'(u) for every u.  For
        "exp_lower_bound" tau = min(1, e^u) = 1/L, with L the largest
        curvature 1/y of y log y between y0 = 1 and the minimizer e^u; the
        iterates stay between the two."""
        if self.kind == "exp_lower_bound":
            return (lambda y: np.log(y) - u), (0.0, np.inf), 1.0, min(1.0, float(np.exp(u)))
        if self.kind == "interval_quadratic":
            a2, ratio = self.qa * self.qa, abs(self.qb / self.qa)
            return (lambda y: y / a2 + ratio - u), (-abs(self.qa * self.qb), 0.0), 0.0, a2
        return (lambda y: y - u), (-np.inf, np.inf), 0.0, 0.5
