"""First-order methods with full iterate traces.

All solvers run a fixed number of iterations (no early exit) so runs are
directly comparable; tolerance-based stopping is reserved for the
oracle-grade solves in :mod:`valgrad.estimators`.  Oracles passed in must
be pure functions, which makes every solver deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NotSPDError(RuntimeError):
    """Conjugate-gradient breakdown: the operator is not positive definite."""


@dataclass
class SolverConfig:
    method: str = "gd"  # gd | heavy_ball | ista | fista | ipiasco | pdhg | cg
    tau: float | None = None
    beta: float | None = None
    iterations: int = 100
    pdhg_sigma: float | None = None
    pdhg_theta: float = 1.0
    record_trace: bool = True
    lipschitz: float | None = None

    def __post_init__(self):
        if self.tau is not None and self.tau <= 0:
            raise ValueError("step size must be positive")
        if self.beta is not None and not 0.0 <= self.beta < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.iterations < 0:
            raise ValueError("iteration count must be nonnegative")
        if self.pdhg_theta < 0 or self.pdhg_theta > 1:
            raise ValueError("pdhg extrapolation must lie in [0, 1]")
        if (
            self.tau is not None
            and self.lipschitz is not None
            and self.tau > 2.0 / self.lipschitz * (1 + 1e-12)
        ):
            raise ValueError("step size exceeds the stable range 2/L")


@dataclass
class IterateTrace:
    points: list = field(default_factory=list)
    values: list = field(default_factory=list)
    # set by solvers with a stopping test: did it pass within the budget
    converged: bool | None = None

    def append(self, x, objective=None):
        self.points.append(np.array(x, dtype=float))
        if objective is not None:
            self.values.append(float(objective(x)))

    @property
    def final(self):
        return self.points[-1]

    def __len__(self):
        return len(self.points)


def _trace(x0, objective):
    tr = IterateTrace()
    tr.append(x0, objective)
    return tr


def _push(tr, x, objective, record):
    if record:
        tr.append(x, objective)
    else:
        tr.points[-1] = np.array(x, dtype=float)
        if objective is not None:
            tr.values[-1] = float(objective(x))


def gradient_descent(grad, x0, tau, iterations, objective=None, record_trace=True):
    """x+ = x - tau * grad(x)."""
    x = np.array(x0, dtype=float)
    tr = _trace(x, objective)
    for _ in range(iterations):
        x = x - tau * grad(x)
        _push(tr, x, objective, record_trace)
    return tr


def heavy_ball(grad, x0, tau, beta, iterations, objective=None, record_trace=True):
    """x+ = x - tau * grad(x) + beta * (x - x_prev), with x_prev initialized to x0."""
    x = np.array(x0, dtype=float)
    x_prev = x.copy()
    tr = _trace(x, objective)
    for _ in range(iterations):
        x_next = x - tau * grad(x) + beta * (x - x_prev)
        x_prev, x = x, x_next
        _push(tr, x, objective, record_trace)
    return tr


def ista(smooth_grad, prox_step, x0, tau, iterations, objective=None, record_trace=True):
    """Proximal gradient: x+ = prox(tau, x - tau * smooth_grad(x))."""
    x = np.array(x0, dtype=float)
    tr = _trace(x, objective)
    for _ in range(iterations):
        x = prox_step(tau, x - tau * smooth_grad(x))
        _push(tr, x, objective, record_trace)
    return tr


def fista(
    smooth_grad,
    prox_step,
    x0,
    tau,
    iterations,
    sc_smooth=0.0,
    sc_prox=0.0,
    objective=None,
    record_trace=True,
):
    """Accelerated proximal gradient.

    With total strong convexity mu = sc_smooth + sc_prox > 0 the constant
    momentum (1 - sqrt(q)) / (1 + sqrt(q)), q = tau * mu / (1 + tau * sc_prox),
    is used; otherwise the classical t-sequence.  No restarts.
    """
    x = np.array(x0, dtype=float)
    z = x.copy()
    tr = _trace(x, objective)
    mu = sc_smooth + sc_prox
    if mu > 0:
        q = tau * mu / (1.0 + tau * sc_prox)
        beta = (1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q))
    t = 1.0
    for _ in range(iterations):
        x_next = prox_step(tau, z - tau * smooth_grad(z))
        if mu > 0:
            z = x_next + beta * (x_next - x)
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_next + (t - 1.0) / t_next * (x_next - x)
            t = t_next
        x = x_next
        _push(tr, x, objective, record_trace)
    return tr


def ipiasco(
    smooth_grad, prox_step, x0, tau, beta, iterations, objective=None, record_trace=True
):
    """Inertial proximal gradient: x+ = prox(tau, x - tau*smooth_grad(x) + beta*(x - x_prev))."""
    x = np.array(x0, dtype=float)
    x_prev = x.copy()
    tr = _trace(x, objective)
    for _ in range(iterations):
        x_next = prox_step(tau, x - tau * smooth_grad(x) + beta * (x - x_prev))
        x_prev, x = x, x_next
        _push(tr, x, objective, record_trace)
    return tr


def pdhg(
    k_op,
    k_op_adj,
    prox_conj,
    prox_primal,
    y0,
    sigma,
    tau,
    iterations,
    theta=1.0,
    op_norm=None,
    accel_sc=0.0,
    objective=None,
    record_trace=True,
):
    """Primal-dual hybrid gradient for min_y f(K y) + g(y).

    ``prox_conj(sigma, z)`` is the prox of f*, ``prox_primal(tau, z)`` that
    of g.  With ``accel_sc > 0`` (strong convexity of g) the accelerated
    parameter schedule theta_n = 1/sqrt(1 + 2*accel_sc*tau_n) is used.
    """
    if op_norm is not None and sigma * tau * op_norm**2 > 1.0 + 1e-12:
        raise ValueError("sigma * tau * ||K||^2 must be at most 1")
    y = np.array(y0, dtype=float)
    y_bar = y.copy()
    z = np.zeros_like(k_op(y))
    tr = _trace(y, objective)
    for _ in range(iterations):
        z = prox_conj(sigma, z + sigma * k_op(y_bar))
        y_next = prox_primal(tau, y - tau * k_op_adj(z))
        if accel_sc > 0:
            theta = 1.0 / np.sqrt(1.0 + 2.0 * accel_sc * tau)
            tau = theta * tau
            sigma = sigma / theta
        y_bar = y_next + theta * (y_next - y)
        y = y_next
        _push(tr, y, objective, record_trace)
    return tr


def conjugate_gradient(
    matvec, rhs, y0, iterations, tol=0.0, objective=None, record_trace=True
):
    """Minimize y^T Q y / 2 - rhs^T y for SPD Q given as a matvec.

    Terminates early once the residual norm drops below ``tol``; raises
    :class:`NotSPDError` on a nonpositive curvature direction.  The trace's
    ``converged`` tells whether that test passed before the iteration cap;
    the residual it tests is the recursively updated one.
    """
    y = np.array(y0, dtype=float)
    if callable(matvec):
        apply_q = matvec
    else:
        q = np.asarray(matvec, dtype=float)
        apply_q = lambda w: q @ w
    r = np.asarray(rhs, dtype=float) - apply_q(y)
    p = r.copy()
    rr = float(np.dot(r, r))
    tr = _trace(y, objective)
    for _ in range(iterations):
        if np.sqrt(rr) <= tol:
            break
        qp = apply_q(p)
        curv = float(np.dot(p, qp))
        if curv <= 0.0:
            raise NotSPDError("nonpositive curvature encountered")
        alpha = rr / curv
        y = y + alpha * p
        r = r - alpha * qp
        rr_new = float(np.dot(r, r))
        p = r + (rr_new / rr) * p
        rr = rr_new
        _push(tr, y, objective, record_trace)
    tr.converged = bool(np.sqrt(rr) <= tol)
    return tr


def optimal_gd_step(lips, m):
    """2 / (L + m)."""
    return 2.0 / (lips + m)


def optimal_inertial_params(lips, m):
    """Step 4/(sqrt(L)+sqrt(m))^2 and momentum ((sqrt(L)-sqrt(m))/(sqrt(L)+sqrt(m)))^2."""
    sl, sm = np.sqrt(lips), np.sqrt(m)
    return 4.0 / (sl + sm) ** 2, ((sl - sm) / (sl + sm)) ** 2
