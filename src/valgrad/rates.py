"""Convergence factors and error envelopes.

Linear convergence factors for the primal and dual solves, read from the
curvature pairs the solvers step with: one forward-backward factor for the
gd and ista series at the step they take, fista's asymptotic factor on the
dual and CG's on a quadratic dual, and the three per-iteration error
envelopes for the analytic, automatic and implicit estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcs import SquaredNorm
from .problems import StructuredProblem
from .solvers import step_policy


@dataclass(frozen=True)
class RateUnavailable:
    """Sentinel for regimes where a linear factor does not exist."""

    reason: str


def cg_rate(lips: float, m: float):
    """(sqrt(kappa) - 1)/(sqrt(kappa) + 1) for condition number kappa = L/m."""
    if m <= 0 or not np.isfinite(lips):
        return RateUnavailable("conjugate gradient needs 0 < m <= L < inf")
    sk = np.sqrt(lips / m)
    return (sk - 1.0) / (sk + 1.0)


@dataclass(frozen=True)
class EnvelopeConstants:
    """Constants entering the three estimator error envelopes.

    lips_x bounds the x-gradient Lipschitz constant, lips_xu / lips_xx the
    Lipschitz constants OF the mixed and pure second derivatives, l1 / l2
    the norms of the iterate sensitivity and of the implicit-function map.
    """

    lips_x: float
    lips_xu: float
    lips_xx: float
    l1: float
    l2: float
    tau: float
    omega: float

    def __post_init__(self):
        if not 0.0 <= self.omega < 1.0:
            raise ValueError("contraction factor must lie in [0, 1)")
        if self.tau <= 0:
            raise ValueError("step size must be positive")


@dataclass(frozen=True)
class EnvelopeCurves:
    """Per-iteration envelopes; automatic = automatic_paper + automatic_init."""

    analytic: tuple
    automatic: tuple
    implicit: tuple
    automatic_paper: tuple
    automatic_init: tuple


def error_envelopes(tc: EnvelopeConstants, x0_err: float, big_k: int) -> EnvelopeCurves:
    """Per-iteration upper bounds for the three primal-side estimators.

    analytic(k)  = lips_x * err0 * omega^k
    automatic(k) = automatic_paper(k) + automatic_init(k)
    implicit(k)  = [(lips_xu + l1*lips_xx)/2 + l2*lips_x] * err0 * omega^(2k)

    with the two parts of the automatic envelope

    automatic_paper(k) = tau*(lips_x*k + omega/2)*(lips_xu + l1*lips_xx) * err0 * omega^(2k-1)
    automatic_init(k)  = lips_x * l1 * err0 * omega^(2k)

    The published term bounds only the error caused by non-constant
    Hessians, so it vanishes on a quadratic.  The initial-sensitivity term
    covers the rest.  With J* = dx*/du and grad_x f(x*) = 0 the error of
    g2(k) = J_k^T grad_x f(x_k) + grad_u f(x_k) splits as

        g2(k) - grad p = (J_k - J*)^T grad_x f(x_k)
                         + [J*^T grad_x f(x_k) + grad_u f(x_k) - grad_u f(x*)].

    For gradient descent J_{k+1} - J* = (I - tau H_xx)(J_k - J*) plus
    Hessian-variation terms, and ||I - tau H_xx|| <= omega, so the
    initial error contributes omega^k ||J_0 - J*|| to ||J_k - J*||.
    sensitivities starts from J_0 = 0, hence ||J_0 - J*|| = ||J*|| <= l1; with
    ||grad_x f(x_k)|| <= lips_x ||x_k - x*|| <= lips_x omega^k err0 this
    gives automatic_init.  The Hessian-variation remainder of J_k - J* and
    the bracket vanish when both Hessian blocks are constant; the published
    term is the bound for them.
    """
    if big_k < 0:
        raise ValueError("iteration count must be nonnegative")
    ks = np.arange(big_k + 1, dtype=float)
    w = tc.omega
    ang = tc.lips_x * x0_err * w**ks
    curve_c = tc.tau * (tc.lips_x * ks + w / 2.0) * (tc.lips_xu + tc.l1 * tc.lips_xx)
    with np.errstate(divide="ignore", invalid="ignore"):
        aug_paper = curve_c * x0_err * w ** (2.0 * ks - 1.0)
    # the k = 0 term is 0 * inf when omega = 0; treat it as vacuous
    aug_paper = np.where(np.isnan(aug_paper), np.inf, aug_paper)
    aug_init = tc.lips_x * tc.l1 * x0_err * w ** (2.0 * ks)
    c_ig = (tc.lips_xu + tc.l1 * tc.lips_xx) / 2.0 + tc.l2 * tc.lips_x
    ig = c_ig * x0_err * w ** (2.0 * ks)
    return EnvelopeCurves(
        analytic=tuple(ang),
        automatic=tuple(aug_paper + aug_init),
        implicit=tuple(ig),
        automatic_paper=tuple(aug_paper),
        automatic_init=tuple(aug_init),
    )


def f1_envelope_constants(pr: StructuredProblem) -> EnvelopeConstants:
    """Exact envelope constants for f1, loss ||.||^2 / 2 and regularizer
    lam ||.||^2 / 2, at its run's curvature ``pr.curvature()``, the step gd
    takes there (``step_policy``) and its factor ``_forward_backward_rate``.

    Both Hessian blocks are constant, so their Lipschitz moduli vanish; the
    sensitivity and implicit-map norms are the exact operator norm of
    (A^T A + lam I)^{-1} A^T, max s / (s^2 + lam) over the singular values
    s of A, from ``pr.gram_eigh`` clamped at 0.  Raises ``ValueError`` for
    any other problem.
    """
    if pr.h != SquaredNorm(1.0) or not isinstance(pr.k, SquaredNorm):
        raise ValueError("envelope constants need f1's quadratic loss and regularizer")
    lips, m = pr.curvature()
    tau, _ = step_policy("gd", lips, m)
    omega = _forward_backward_rate((lips, m))
    if isinstance(omega, RateUnavailable):
        raise ValueError(f"no envelope: {omega.reason}")
    sq = np.maximum(pr.gram_eigh[0], 0.0)
    phi_norm = float(np.max(np.sqrt(sq) / (sq + pr.k.modulus)))
    return EnvelopeConstants(
        lips_x=lips, lips_xu=0.0, lips_xx=0.0,
        l1=phi_norm, l2=phi_norm, tau=tau, omega=omega,
    )


@dataclass(frozen=True)
class RateReport:
    """Every factor for one problem, each a float or a `RateUnavailable`.

    omega_p and omega_d are the forward-backward factors of the gd or ista
    series on the primal and on the dual at u = 0, at the step
    ``step_policy`` gives them; omega_cg is CG's on a quadratic dual, and
    omega_fista fista's asymptotic factor on the dual at its step 1/L
    (``_fista_rate``), which does not bound the error by e_0 omega^k.
    """

    omega_p: object
    omega_d: object
    omega_cg: object
    omega_fista: object


def _forward_backward_rate(curvature, m_prox: float = 0.0):
    """max(|1 - tau m_s|, |1 - tau L_s|) / (1 + tau m_prox), the factor of
    x+ = prox(tau, x - tau grad(x)) for an objective of curvature (L, m)
    whose prox part is m_prox-strongly convex, so that its smooth part has
    (L_s, m_s) = (L - m_prox, m - m_prox).  The gradient step contracts by
    the numerator, and the prox of an m_prox-strongly convex function is
    1/(1 + tau m_prox)-Lipschitz (Bauschke & Combettes 2017).  tau is the
    step 2/(L + m) that ``step_policy`` gives both gd (no prox part) and
    ista (a prox part); at m_prox = 0 the factor is gd's (L - m)/(L + m)
    (Nesterov 2004, Thm 2.1.15)."""
    lips, m = curvature
    if not np.isfinite(lips):
        return RateUnavailable("smooth part not Lipschitz")
    tau, _ = step_policy("gd", lips, m)
    lips_s, m_s = lips - m_prox, m - m_prox
    omega = max(abs(1.0 - tau * m_s), abs(1.0 - tau * lips_s)) / (1.0 + tau * m_prox)
    if not omega < 1.0:
        return RateUnavailable("no strong convexity: only sublinear rates apply")
    return omega


def _fista_rate(lips: float, m: float):
    """1 - sqrt(q), q = tau m, at fista's step tau = 1/L from
    ``step_policy``: the asymptotic factor, not a per-step one.  On a
    quadratic dual from rest the slowest mode of fista's constant momentum
    is critically damped, (1 + sqrt(q) k)(1 - sqrt(q))^k, so the error
    can exceed e_0 omega^k by a factor that grows with k."""
    if not np.isfinite(lips):
        return RateUnavailable("dual smooth part not Lipschitz")
    if m <= 0:
        return RateUnavailable("no strong convexity: only sublinear rates apply")
    tau, _ = step_policy("fista", lips, m)
    return 1.0 - np.sqrt(tau * m)


def rate_report(pr: StructuredProblem) -> RateReport:
    """Assemble every applicable factor for one problem instance from the
    curvature pairs the solvers step with: ``pr.curvature()`` for the
    primal and ``DualObjective.curvature()`` for the dual.  The primal's
    prox part, where it has one, is all of the regularizer, so it carries
    the regularizer's ``modulus``; the dual's (a ball indicator) carries
    none.  The CG factor exists only for a quadratic problem, the one CG
    runs on."""
    dob = pr.dual_objective(np.zeros(pr.p))
    lips_d, m_d = dob.curvature()
    return RateReport(
        omega_p=_forward_backward_rate(pr.curvature(),
                                       0.0 if pr.k.prox_part is None else pr.k.modulus),
        omega_d=_forward_backward_rate((lips_d, m_d)),
        omega_cg=(cg_rate(lips_d, m_d) if pr.is_quadratic()
                  else RateUnavailable("conjugate gradient needs a quadratic dual objective")),
        omega_fista=_fista_rate(lips_d, m_d),
    )
