"""Convergence factors and error envelopes.

Linear convergence factors for the primal and dual solves, read from the
curvature pairs the solvers step with, proximal and primal-dual variants,
smoothness-profile transfer rules under affine precomposition, sums and
conjugation, and the three per-iteration error envelopes for the analytic,
automatic and implicit estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funcs import SmoothnessProfile
from .linalg import SpectralBounds
from .problems import StructuredProblem


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


def proximal_rates(sc_smooth: float, sc_prox: float, tau: float):
    """(omega_ista, omega_fista) for proximal gradient with strong convexity
    split between the smooth part and the prox part.

    omega_ista = (1 - tau*sc_smooth)/(1 + tau*sc_prox) and
    omega_fista = 1 - sqrt(tau*mu/(1 + tau*sc_prox)) with mu the total
    strong convexity.
    """
    if tau <= 0:
        raise ValueError("step size must be positive")
    mu = sc_smooth + sc_prox
    if mu <= 0:
        una = RateUnavailable("no strong convexity: only sublinear rates apply")
        return una, una
    omega1 = (1.0 - tau * sc_smooth) / (1.0 + tau * sc_prox)
    omega2 = 1.0 - np.sqrt(tau * mu / (1.0 + tau * sc_prox))
    return omega1, omega2


@dataclass(frozen=True)
class PdhgRate:
    regime: str  # linear | accelerated-sublinear | sublinear
    omega: float | None
    mu: float | None


def pdhg_rate(sc_prox_g: float, sc_prox_m: float, lips: float, theta: float) -> PdhgRate:
    """Primal-dual factor omega = (1 + theta)/(2 + mu), mu = 2 sqrt of the
    product of the two strong-convexity moduli over the operator norm.

    With only one modulus positive the accelerated O(1/K^2) regime applies,
    with neither the plain O(1/K) regime.
    """
    if lips <= 0:
        raise ValueError("operator norm must be positive")
    if sc_prox_g < 0 or sc_prox_m < 0:
        raise ValueError("strong convexity moduli must be nonnegative")
    if sc_prox_g > 0 and sc_prox_m > 0:
        mu = 2.0 * np.sqrt(sc_prox_g * sc_prox_m) / lips
        return PdhgRate("linear", (1.0 + theta) / (2.0 + mu), mu)
    if sc_prox_g > 0 or sc_prox_m > 0:
        return PdhgRate("accelerated-sublinear", None, None)
    return PdhgRate("sublinear", None, None)


def transfer_profile(
    g_profile: SmoothnessProfile,
    b_bounds: SpectralBounds | None = None,
    mode: str = "precompose",
    other: SmoothnessProfile | None = None,
) -> SmoothnessProfile:
    """Transfer rules for smoothness profiles.

    "precompose": g(B .) scales m by lmin(B^T B) and L by lmax(B^T B).
    "sum": moduli add.  "conjugate": the pair (m, L) maps to (1/L, 1/m),
    with 0 and inf exchanged.
    """
    if mode == "precompose":
        if b_bounds is None:
            raise ValueError("precompose needs spectral bounds")
        m = g_profile.m * b_bounds.lmin_ata
        lips = g_profile.lips * b_bounds.lmax_ata
        return SmoothnessProfile(m, lips, g_profile.smooth)
    if mode == "sum":
        if other is None:
            raise ValueError("sum needs a second profile")
        return SmoothnessProfile(
            g_profile.m + other.m,
            g_profile.lips + other.lips,
            g_profile.smooth and other.smooth,
        )
    if mode == "conjugate":
        m = 0.0 if not np.isfinite(g_profile.lips) else 1.0 / g_profile.lips
        lips = np.inf if g_profile.m == 0.0 else 1.0 / g_profile.m
        return SmoothnessProfile(m, lips, np.isfinite(lips))
    raise ValueError(f"unknown mode {mode!r}")


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


def f1_envelope_constants(a: np.ndarray, lam: float, tau: float | None = None) -> EnvelopeConstants:
    """Exact envelope constants for the fully quadratic problem.

    Both Hessian blocks are constant, so their Lipschitz moduli vanish; the
    sensitivity and implicit-map norms are the exact operator norm of
    (A^T A + lam I)^{-1} A^T.
    """
    a = np.asarray(a, dtype=float)
    sing = np.linalg.svd(a, compute_uv=False)
    smax, smin = float(sing[0]), float(sing[-1]) if a.shape[0] >= a.shape[1] else 0.0
    lips = smax**2 + lam
    m = (smin**2 if a.shape[0] >= a.shape[1] else 0.0) + lam
    if tau is None:
        tau = 2.0 / (lips + m)
    omega = max(abs(1.0 - tau * m), abs(1.0 - tau * lips))
    phi_norm = float(np.max(sing / (sing**2 + lam)))
    return EnvelopeConstants(
        lips_x=lips, lips_xu=0.0, lips_xx=0.0,
        l1=phi_norm, l2=phi_norm, tau=tau, omega=omega,
    )


@dataclass(frozen=True)
class RateReport:
    """Every factor for one problem, each a float or a `RateUnavailable`.

    omega_p and omega_d are gd's factors on the primal and on the dual at
    u = 0, omega_cg is CG's on a quadratic dual, omega_ista and
    omega_fista the proximal factors on the dual at step 1/L, and
    omega_pdhg PDHG's on the saddle-point form.
    """

    omega_p: object
    omega_d: object
    omega_cg: object
    omega_ista: object
    omega_fista: object
    omega_pdhg: PdhgRate


def _gd_rate(curvature, prox_part):
    """(L - m)/(L + m), gd's factor at ``step_policy``'s step 2/(L + m)
    (Nesterov 2004, Thm 2.1.15), for an objective with curvature (L, m);
    unavailable where gd does not run: a prox part or an infinite L."""
    if prox_part is not None:
        return RateUnavailable("prox part: the solvers run ista, not gd")
    lips, m = curvature
    if not np.isfinite(lips):
        return RateUnavailable("smooth part not Lipschitz")
    return (lips - m) / (lips + m)


def rate_report(pr: StructuredProblem) -> RateReport:
    """Assemble every applicable factor for one problem instance from the
    curvature pairs the solvers step with: ``pr.curvature()`` for the
    primal and ``DualObjective.curvature()`` for the dual.  gd's factors
    only where gd runs, the CG factor only for a quadratic problem, the
    one CG runs on."""
    dob = pr.dual_objective(np.zeros(pr.p))
    lips_d, m_d = dob.curvature()
    sc_prox = 0.0  # the dual prox part (ball indicator) carries no curvature
    if np.isfinite(lips_d):
        om1, om2 = proximal_rates(m_d, sc_prox, 1.0 / lips_d)
    else:
        una = RateUnavailable("dual smooth part not Lipschitz")
        om1, om2 = una, una
    sb = pr.bounds()
    op_norm = float(np.sqrt(sb.lmax_ata)) if sb.lmax_ata > 0 else 1.0
    return RateReport(
        omega_p=_gd_rate(pr.curvature(), pr.k.prox_part),
        omega_d=_gd_rate((lips_d, m_d), dob.prox_part),
        omega_cg=(cg_rate(lips_d, m_d) if pr.is_quadratic()
                  else RateUnavailable("conjugate gradient needs a quadratic dual objective")),
        omega_ista=om1,
        omega_fista=om2,
        omega_pdhg=pdhg_rate(pr.k.modulus, dob.hstar_scale, op_norm, 1.0),
    )
