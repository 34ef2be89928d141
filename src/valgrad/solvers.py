"""First-order methods that return their iterates.

gd, heavy ball, ista and ipiasco are one recursion, the inertial proximal
gradient step of ``prox_gradient_steps``.  Whether a step applies a prox
is decided by the objective: ``prox_of`` returns its prox part's prox, or
None (the identity) when it has none, and checks the method name against
it; the name itself chooses only the momentum (none for gd and ista).
``prox_gradient`` stacks its iterates, and ``step_policy`` gives every
method its step size and momentum from the curvature alone.  The
accelerated recursion, with the gradient at the extrapolated point, is
``accelerated_steps``: ``fista`` stacks its iterates, and the certified
oracle solve of :mod:`valgrad.estimators` runs it on a block of columns.
``conjugate_gradient`` is separate.  Every solver returns its iterates
x0, x1, ..., xk as one (k+1) x d array, a row per iterate.

The first-order solvers run a fixed number of iterations (no early exit) so
runs are directly comparable; CG stops early only on a zero residual, and
the oracle-grade solves in :mod:`valgrad.estimators` stop on a certificate.
Oracles passed in must be pure functions, which makes every solver
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotSPDError(RuntimeError):
    """Conjugate-gradient breakdown: the operator is not positive definite."""


@dataclass
class SolverConfig:
    """A dual solve's method and iteration count; ``step_policy`` gives its step."""

    method: str = "gd"  # gd | heavy_ball | ista | ipiasco | fista | cg
    iterations: int = 100

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iteration count must be nonnegative")


def prox_gradient_steps(smooth_grad, prox_step, x0, tau, beta, iterations):
    """The inertial proximal gradient recursion, one step per yield.

    x+ = prox(tau, z) with z = x - tau * smooth_grad(x) + beta * (x - x_prev)
    and x_prev initialized to x0 (Ochs, Brox & Pock, iPiasco, 2015).
    ``prox_step=None`` is the identity prox, and the momentum term is added
    only if ``beta`` is nonzero.  Each step yields (x, z, x+), z being the
    pre-prox point; no yielded array is modified afterwards.
    """
    x = np.array(x0, dtype=float)
    x_prev = x
    for _ in range(iterations):
        z = x - tau * smooth_grad(x)
        if beta:
            z = z + beta * (x - x_prev)
        x_next = z if prox_step is None else prox_step(tau, z)
        yield x, z, x_next
        x_prev, x = x, x_next


def prox_of(method, prox_part):
    """The prox step ``method`` takes on an objective whose nonsmooth part is
    ``prox_part`` (a function with a ``prox``, or None): its prox for ista
    and ipiasco, None (the identity) for gd and heavy_ball.

    Raises ``ValueError`` for any other method, and unless ista or ipiasco
    meet a prox part and gd or heavy_ball meet none.
    """
    if method not in ("gd", "heavy_ball", "ista", "ipiasco"):
        raise ValueError(f"unknown primal method {method!r}")
    proximal = method in ("ista", "ipiasco")
    if proximal and prox_part is None:
        raise ValueError(f"{method} on a smooth objective; use gd or heavy_ball")
    if not proximal and prox_part is not None:
        raise ValueError(f"{method} on an objective with a prox part; use ista or ipiasco")
    return prox_part.prox if proximal else None


def prox_gradient(smooth_grad, prox_step, x0, tau, beta, iterations):
    """The iterates of ``prox_gradient_steps``, x0 first, as one array: gd
    (beta = 0, no prox), heavy ball (no prox), ista (beta = 0) and ipiasco."""
    steps = prox_gradient_steps(smooth_grad, prox_step, x0, tau, beta, iterations)
    return np.array([x0, *(x_next for *_, x_next in steps)], dtype=float)


def accelerated_steps(smooth_grad, prox_step, x0, tau, beta, iterations):
    """The accelerated proximal gradient recursion, one step per yield.

    x+ = prox(tau, z - tau * smooth_grad(z)) at the extrapolated point z,
    then z+ = x+ + beta * (x+ - x), with z and x initialized to x0 (Beck &
    Teboulle, FISTA, 2009, with the constant strongly convex momentum of
    ``step_policy``).  ``prox_step=None`` is the identity prox.  Each step
    yields (z, x+); no yielded array is modified afterwards.
    """
    x = z = np.array(x0, dtype=float)
    for _ in range(iterations):
        x_next = z - tau * smooth_grad(z)
        if prox_step is not None:
            x_next = prox_step(tau, x_next)
        yield z, x_next
        z = x_next + beta * (x_next - x)
        x = x_next


def fista(smooth_grad, prox_step, x0, tau, beta, iterations):
    """The iterates of ``accelerated_steps``, x0 first, as one array."""
    steps = accelerated_steps(smooth_grad, prox_step, x0, tau, beta, iterations)
    return np.array([x0, *(x_next for _, x_next in steps)], dtype=float)


def conjugate_gradient(q, rhs, y0, iterations):
    """Minimize y^T Q y / 2 - rhs^T y for an SPD matrix Q; returns the
    iterates, y0 first, as one array.

    Stops early only once the recursively updated residual is exactly zero,
    where the next step would divide 0 by 0; raises :class:`NotSPDError` on
    a nonpositive curvature direction.
    """
    y = np.array(y0, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(rhs, dtype=float) - q @ y
    p = r.copy()
    rr = float(np.dot(r, r))
    ys = [y]
    for _ in range(iterations):
        if rr == 0.0:
            break
        qp = q @ p
        curv = float(np.dot(p, qp))
        if curv <= 0.0:
            raise NotSPDError("nonpositive curvature encountered")
        alpha = rr / curv
        y = y + alpha * p
        r = r - alpha * qp
        rr_new = float(np.dot(r, r))
        p = r + (rr_new / rr) * p
        rr = rr_new
        ys.append(y)
    return np.array(ys)


def step_policy(method, lips, m):
    """(tau, beta) for a method on an objective with curvature in [m, lips];
    no other place decides a step size or momentum.

    gd and ista take 2/(L+m) and no momentum, heavy_ball and ipiasco the
    optimal strongly convex pair, fista 1/L and the constant strongly
    convex momentum (1 - sqrt(q)) / (1 + sqrt(q)), q = tau m."""
    if method in ("gd", "ista"):
        return 2.0 / (lips + m), 0.0
    if method in ("heavy_ball", "ipiasco"):
        sl, sm = np.sqrt(lips), np.sqrt(m)
        return 4.0 / (sl + sm) ** 2, ((sl - sm) / (sl + sm)) ** 2
    if method == "fista":
        tau = 1.0 / lips
        q = tau * m
        return tau, (1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q))
    raise ValueError(f"unknown method {method!r}")
