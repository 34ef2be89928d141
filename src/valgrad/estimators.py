"""Value-function gradient estimators.

Four estimators of the gradient of p(u) = inf_x f(x, u):

* analytic:  the parameter-gradient of f at an approximate minimizer,
* automatic: the solver's iterates differentiated in the eigenbasis of
             A^T A, by a forward sweep of the sensitivities in compact
             form or a batched reverse (adjoint) sweep, whichever carries
             fewer columns, each returning the block of estimates;
             ``sensitivities`` is the dense replay of the J_k, their
             reference,
* implicit:  the implicit-function-theorem linear solve at one iterate,
             by a Cholesky factorization,
* dual:      iterates of the assembled dual problem,

plus a central-difference oracle backed by high-accuracy inner solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .funcs import NonsmoothError, soft_threshold, vector_norm
from .problems import StructuredProblem, ToyProblem
from .solvers import (
    SolverConfig,
    accelerated_steps,
    conjugate_gradient,
    fista,
    prox_gradient,
    prox_gradient_steps,
    prox_of,
    step_policy,
)


class EstimatorInapplicable(RuntimeError):
    """The estimator's assumptions fail structurally at the given point."""


@dataclass
class GradientEstimate:
    """Estimates of a gradient in P dimensions: ``per_iteration`` is one
    C-contiguous (K+1) x P array, one row per iterate (one row for the
    estimators of a single point), and ``final`` is a copy of the last row,
    so holding it does not keep the block alive."""

    method: str
    per_iteration: np.ndarray
    flagged: bool = False

    @property
    def final(self):
        return self.per_iteration[-1].copy()


def error_trace(est: GradientEstimate, truth) -> np.ndarray:
    """Euclidean distance to the reference gradient, per iteration: one row
    norm over ``est.per_iteration``."""
    return np.linalg.norm(est.per_iteration - np.asarray(truth, dtype=float), axis=1)


class _GramBasis(NamedTuple):
    """The eigenbasis A^T A = V diag(eigvals) V^T of a problem's Gram
    matrix, and the parameter block params = (A V)^T = V^T A^T (N x P)."""

    eigvals: np.ndarray
    vecs: np.ndarray
    params: np.ndarray


def _gram_basis(pr: StructuredProblem) -> _GramBasis:
    """The problem's eigendecomposition of its Gram matrix, ``pr.gram_eigh``,
    taken once per problem on first use, and the rotated parameter block,
    formed anew on every call: caching it too would hold another N x P
    block per problem."""
    eigvals, vecs = pr.gram_eigh
    return _GramBasis(eigvals, vecs, vecs.T @ pr.a.T)


def _step_multiplier(pr: StructuredProblem, eigvals, c: float, tau: float, beta: float):
    """The diagonal 1 + beta - tau c Lambda that multiplies J-hat in a
    sensitivity step, less tau lam for a smooth k, which belongs to f_s."""
    diag = 1.0 + beta - (tau * c) * eigvals
    if pr.k.prox_part is None:
        diag -= tau * pr.k.modulus
    return diag


def sensitivity_step(
    pr: StructuredProblem, basis: _GramBasis, hess, jac, jac_prev, d, tau: float,
    beta: float = 0.0,
):
    """The derivative in u of one kernel step x+ = prox(tau, z), with the
    pre-prox point z = x - tau grad f_s(x) + beta (x - x_prev), in the
    eigenbasis V of A^T A.  With J-hat = V^T J it is

        J-hat+ = V^T D V (J-hat - tau G + beta (J-hat - J-hat_prev)),

    where G = V^T (H_xx J + H_xu) is the Hessian term of the smooth part
    f_s and D = diag(d), d the prox derivative ``prox_derivative(tau, z)``
    of the objective's prox part at the z the kernel yielded, or the
    identity for d None (no prox part).  The loss Hessian is c (I - v v^T),
    ``hess`` = (c, v) being ``h.hessian_factors`` at the residual
    b - A x + u, so G = c (Lambda J-hat - params - w (w^T J-hat - v^T))
    with w = params v, plus lam J-hat for a smooth k: a diagonal and a
    rank-1 term, O(NP).  V^T D V is ``_rotated_rows`` on the rows of
    (J-hat+)^T, the one projection of both sweeps.  Returns J-hat+, a fresh
    array.  This is the dense step of the automatic estimator's recursion.
    """
    eigvals, vecs, params = basis
    c, v = hess
    out = _step_multiplier(pr, eigvals, c, tau, beta)[:, None] * jac
    out += (tau * c) * params
    if v is not None:
        w = params @ v
        out += np.outer((tau * c) * w, w @ jac - v)
    if beta:
        out -= beta * jac_prev
    if d is not None:
        _rotated_rows(vecs, d, out.T, np.empty_like(out).T)
    return out


@dataclass
class PrimalRun:
    """The iterates of a primal run and the pre-prox points of its steps.

    ``points`` is the (K+1) x N array of the iterates x_0, ..., x_K, and
    ``final`` a copy of its last row.  ``pre_prox`` is the K x N array of
    the kernel's pre-prox points z_k, from which ``sensitivities`` replays
    the Jacobian recursion and ``automatic_estimator`` derives the
    regularizer's subgradient selections.  With the identity prox of gd and
    heavy_ball every z_k is x_{k+1}, so it is the view ``points[1:]``; it is
    None for a run made without sensitivities.
    """

    tau: float
    beta: float
    points: np.ndarray
    pre_prox: np.ndarray | None = None

    @property
    def final(self):
        return self.points[-1].copy()


def run_primal(
    pr: StructuredProblem,
    u,
    method: str = "gd",
    iterations: int = 250,
    x0=None,
    with_sensitivity: bool = True,
) -> PrimalRun:
    """Run a primal solver from ``x0`` (0 by default), recording what the
    forward sensitivities need.

    All four methods run through ``prox_gradient_steps``.  The objective's
    prox part decides the prox (``prox_of``): problems without one take gd
    or heavy_ball, problems with one ista or ipiasco.  ``step_policy``
    gives the step size and momentum from the whole-objective curvature;
    with ``with_sensitivity`` the run keeps the pre-prox points, from which
    ``sensitivities`` replays the Jacobians, and forms none itself.
    """
    prox = prox_of(method, pr.k.prox_part)
    u = np.asarray(u, dtype=float)
    tau, beta = step_policy(method, *pr.curvature())

    x0 = np.zeros(pr.n) if x0 is None else np.array(x0, dtype=float)
    xs, zs = [x0], []
    steps = prox_gradient_steps(
        lambda x: pr.primal_smooth_grad(x, u), prox, x0, tau, beta, iterations
    )
    for _, z, x_next in steps:
        if with_sensitivity and prox is not None:
            zs.append(z)
        xs.append(x_next)
    points = np.array(xs)
    pre_prox = None
    if with_sensitivity:
        pre_prox = points[1:] if prox is None else np.array(zs).reshape(iterations, pr.n)
    return PrimalRun(tau, beta, points, pre_prox)


def _require_sensitivities(run: PrimalRun):
    """Raise ``ValueError`` for a run made without sensitivities."""
    if run.pre_prox is None:
        raise ValueError("run was produced without sensitivities")


def sensitivities(pr: StructuredProblem, run: PrimalRun, u):
    """The iterate sensitivities J_k = d x_k / d u of ``run`` at the
    parameter ``u``, one fresh N x P array per yield, J_0 = 0 first.

    Forward-mode differentiation of the solver (Griewank & Walther,
    Evaluating Derivatives, 2008) as a dense replay along the run's
    iterates and pre-prox points: ``sensitivity_step`` at every step, in
    the eigenbasis V of A^T A, the problem's ``gram_eigh``, and each
    J-hat_k = V^T J_k rotated back.  It shares none of the compact form of
    ``automatic_estimator``'s forward sweep, and is the reference for both
    of its sweeps.  Raises ``ValueError`` for a run made without
    sensitivities.
    """
    _require_sensitivities(run)
    basis = _gram_basis(pr)
    hess = _hessian_series(pr, _residual_series(pr, run.points, u))
    derivs = _prox_derivatives(pr, run)
    jac = jac_prev = np.zeros((pr.n, pr.p))
    yield jac.copy()
    for k, factors in enumerate(hess):
        d = None if derivs is None else derivs[k]
        jac, jac_prev = sensitivity_step(pr, basis, factors, jac, jac_prev, d,
                                         run.tau, run.beta), jac
        yield basis.vecs @ jac


def _hessian_series(pr: StructuredProblem, res):
    """The loss Hessian factors (c, v) = ``h.hessian_factors`` at columns
    0, ..., K-1 of the P x (K+1) residual block ``res``, one pair per step
    of the run, each column evaluated once."""
    return [pr.h.hessian_factors(res[:, k]) for k in range(res.shape[1] - 1)]


def _prox_derivatives(pr: StructuredProblem, run: PrimalRun):
    """The K x N block of the prox derivatives ``prox_derivative(tau, z_k)``
    at the run's pre-prox points, one evaluation on the whole block; None
    without a prox part."""
    prox = pr.k.prox_part
    return None if prox is None else prox.prox_derivative(run.tau, run.pre_prox)


def _residual_series(pr: StructuredProblem, points, u):
    """The P x (K+1) residual block b - A x(k) + u of the iterates, the
    rows of ``points``."""
    xs = np.asarray(points, dtype=float).T
    return pr.residual(xs, np.asarray(u, dtype=float)[:, None])


def analytic_estimator(pr: StructuredProblem, points, u) -> GradientEstimate:
    """g1(k) = grad_u f(x(k), u) = grad h(b - A x(k) + u) at the rows x(k)
    of ``points``; needs smooth h."""
    if not np.isfinite(pr.h.profile().lips):
        raise NonsmoothError("analytic estimator requires a smooth loss")
    gu = pr.h.grad(_residual_series(pr, points, u))
    return GradientEstimate("analytic", np.ascontiguousarray(gu.T))


def automatic_estimator(pr: StructuredProblem, run: PrimalRun, u) -> GradientEstimate:
    """g2(k) = J(k)^T grad_x f(x(k), u) + grad_u f(x(k), u).

    In the eigenbasis of A^T A, g2(k) = J-hat(k)^T (V^T grad_x f) +
    grad_u f, K+1 vector-Jacobian products, taken by one of two sweeps
    chosen from the run before either runs (``_reverse_pays``): the
    reverse sweep when dense P > K (K + 1) / 2, dense being the number of
    steps whose loss Hessian is rank-1 or whose prox derivative has two
    values, the forward sweep otherwise.  A dense forward step carries P
    columns, while the reverse sweep carries the K - j estimates still
    open at step j.  No run of the default grid goes reverse.

    Both sweeps take the same arguments, V^T grad_x f and the (K+1) x P
    block of the grad_u f rows, and return that block with J-hat(k)^T
    (V^T grad_x f) added in place: ``_forward_estimates`` steps the
    sensitivities from J-hat(0) = 0 in compact form, and
    ``_reverse_estimates`` runs the transposed steps from K - 1 down to 0
    on a (K+1) x N adjoint block.  Both give the same rows up to round-off.
    The eigenbasis is the problem's ``gram_eigh``, taken on the first call
    and shared by every later one; ``_gram_basis`` forms the rotated
    parameter block per call.  The residual block of the whole series is
    formed once: it gives grad_u f and every step's loss Hessian factors,
    taken once per column (``_hessian_series``); the prox derivatives are
    evaluated once, on the block of pre-prox points
    (``_prox_derivatives``), and both the choice and the sweep read the
    factors and the derivatives.  For elastic-net problems the regularizer
    subgradient is the prox optimality selection, the minimum-norm
    subgradient at x(0) and (z(k-1) - x(k)) / tau from the run's pre-prox
    points after it.  Raises ``ValueError`` for a run made without
    sensitivities.
    """
    _require_sensitivities(run)
    basis = _gram_basis(pr)
    res = _residual_series(pr, run.points, u)
    gu = pr.h.grad(res)
    gx = pr.c[:, None] - pr.a.T @ gu
    if pr.k.prox_part is not None:
        gx[:, 0] += pr.k.subgradient_min_norm(run.points[0])
        gx[:, 1:] += ((run.pre_prox - run.points[1:]) / run.tau).T
    else:
        gx += pr.k.modulus * run.points.T
    hess = _hessian_series(pr, res)
    derivs = _prox_derivatives(pr, run)
    # the blocks are rebound, so that the originals are freed
    if _reverse_pays(pr, hess, derivs):
        sweep, gx = _reverse_estimates, gx.T @ basis.vecs
    else:
        sweep, gx = _forward_estimates, basis.vecs.T @ gx
    gu = gu.T.copy()
    return GradientEstimate("automatic", sweep(pr, run, basis, hess, derivs, gx, gu))


def _reverse_pays(pr: StructuredProblem, hess, derivs) -> bool:
    """Whether the reverse sweep carries fewer columns than the forward one:
    dense P > K (K + 1) / 2.  A dense step, one whose loss Hessian factors
    (c, v) in ``hess`` have a rank-1 term (v not None) or whose prox
    derivative (a row of ``derivs``, None without a prox part) has two
    values, carries P columns forward, and the reverse sweep carries the
    K - j estimates still open at step j, K (K + 1) / 2 over its K steps.
    As dense <= K it never pays at 2 P <= K + 1, where the steps are not
    classified."""
    steps = len(hess)
    if 2 * pr.p <= steps + 1:
        return False
    dense = np.array([v is not None for _, v in hess], dtype=bool)
    if derivs is not None:
        dense |= derivs.min(axis=1) != derivs.max(axis=1)
    return 2 * np.count_nonzero(dense) * pr.p > steps * (steps + 1)


def _forward_estimates(pr: StructuredProblem, run: PrimalRun, basis: _GramBasis, hess,
                       derivs, gx, est):
    """g2 at every iterate of ``run`` by one forward sweep of its
    sensitivities (Griewank & Walther, Evaluating Derivatives, 2008) in the
    eigenbasis of A^T A: J-hat_k = V^T J_k, where J_k = d x_k / d u and V
    is ``basis.vecs``.

    J-hat_0 = 0, then one step per pre-prox point z_k of the run, with its
    loss Hessian c (I - v v^T), (c, v) = ``hess[k]`` (``_hessian_series``
    at the residual b - A x_k + u), and its prox derivative
    d = ``prox_derivative(tau, z_k)``, row k of ``derivs``
    (``_prox_derivatives``; d None without a prox part).  A step is
    diagonal when v is None and d is s I: the step map is then the
    diagonal s (1 + beta - tau c Lambda [- tau lam]) plus the shift
    s tau c params, so J-hat keeps its compact form diag(p) a + diag(q) b
    + diag(r) params on the last dense pair (a, b) (``_compact_jacobian``)
    and ``_compact_step`` steps the rows p, q, r in O(N), reusing the
    previous step's multiplier while c is unchanged, as on every step of a
    squared-norm loss.  Any other step is dense: ``sensitivity_step`` on
    J-hat_k and J-hat_{k-1}, rebuilt from their compact forms unless the
    step before was dense too, opens the pair (J-hat_{k+1}, J-hat_k) with
    (p, q, r) = (1, 0, 0).

    ``gx`` is the N x (K+1) block of V^T grad_x f and ``est`` the (K+1) x P
    block of the grad_u f rows, to which J-hat_k^T (V^T grad_x f(x_k)) is
    added and which is returned: one product at each dense step's own
    iterate, and one per pair for the iterates stepped on it
    (``_pair_estimates``), whose rows are freed when the pair is.  Only the
    pair and the rows since it are kept.
    """
    eigvals, params = basis.eigvals, basis.params
    tau, beta = run.tau, run.beta
    opened = np.zeros((3, pr.n))  # (p, q, r) = (1, 0, 0) after a dense step
    opened[0] = 1.0
    opened_prev = opened[[1, 0, 2]]  # (0, 1, 0) for the step before it
    a = b = None  # the last dense pair
    coef = coef_prev = np.zeros((3, pr.n))
    rows, start = [coef], 0  # the compact forms of iterates start, start + 1, ...
    step_c = diag = None  # the last diagonal step's c and multiplier
    for k, (c, v) in enumerate(hess):
        d = None if derivs is None else derivs[k]
        if v is not None or (d is not None and d.min() != d.max()):
            if rows:  # the step before was diagonal
                _pair_estimates(est, params, a, b, rows, gx, start)
                a, b = (_compact_jacobian(params, a, b, coef),
                        _compact_jacobian(params, a, b, coef_prev))
            a, b = sensitivity_step(pr, basis, (c, v), a, b, d, tau, beta), a
            est[k + 1] += a.T @ gx[:, k + 1]
            coef, coef_prev, rows, start = opened, opened_prev, [], k + 2
        else:
            if c != step_c:
                step_c, diag = c, _step_multiplier(pr, eigvals, c, tau, beta)
            s = 1.0 if d is None else d[0]
            coef, coef_prev = _compact_step(diag, coef, coef_prev, c, s, tau, beta), coef
            rows.append(coef)
    _pair_estimates(est, params, a, b, rows, gx, start)
    return est


def _compact_jacobian(params, a, b, coef):
    """J-hat = diag(p) a + diag(q) b + diag(r) params, a fresh N x P array,
    from its compact form: the rows p, q and r of the 3 x N ``coef`` on
    the dense pair (a, b), both None before the first dense step, and
    params = V^T A^T from ``_gram_basis``."""
    jac = coef[2][:, None] * params
    if a is not None:
        jac += coef[0][:, None] * a
        jac += coef[1][:, None] * b
    return jac


def _compact_step(diag, coef, coef_prev, c: float, s: float, tau: float, beta: float):
    """The diagonal step J-hat+ = s (diag J-hat + tau c params - beta
    J-hat_prev) of ``_forward_estimates``, for a loss Hessian c I and a
    prox derivative s I, on the compact forms ``coef`` and ``coef_prev``
    of J-hat and J-hat_prev on one dense pair (``_compact_jacobian``):
    every row steps alike, and r also takes the shift s tau c.  O(N);
    returns the rows of J-hat+, a fresh 3 x N array.  ``diag`` is the
    ``_step_multiplier`` of c, tau and beta, which it does not modify."""
    out = diag * coef
    out[2] += tau * c
    if beta:
        out -= beta * coef_prev
    if s != 1.0:
        out *= s
    return out


def _pair_estimates(est, params, a, b, rows, gx, start: int):
    """Add J-hat_k^T g_k to the rows k = start, start + 1, ... of ``est``
    for the iterates whose compact forms, the 3 x N arrays ``rows``, share
    the dense pair (a, b), both None before the first dense step:
    a^T (P o G) + b^T (Q o G) + params^T (R o G), with P, Q and R their
    rows p, q and r side by side and G their columns g_k of ``gx``, three
    products for all of them."""
    if not rows:
        return
    cols = slice(start, start + len(rows))
    g = gx[:, cols]
    out = params.T @ (np.array([coef[2] for coef in rows]).T * g)
    if a is not None:
        out += a.T @ (np.array([coef[0] for coef in rows]).T * g)
        out += b.T @ (np.array([coef[1] for coef in rows]).T * g)
    est[cols] += out.T


def _reverse_estimates(pr: StructuredProblem, run: PrimalRun, basis: _GramBasis, hess,
                       derivs, adj, est):
    """g2 at every iterate of ``run`` by one batched reverse (adjoint)
    sweep (Griewank & Walther, Evaluating Derivatives, 2008), the transpose
    of ``_forward_estimates``'s recursion.

    In the eigenbasis a step is J-hat_{j+1} = R_j (M_j J-hat_j + tau c_j
    (params - w_j v_j^T) - beta J-hat_{j-1}), with R_j = V^T diag(d_j) V
    for the prox derivative d_j, row j of ``derivs`` (the identity for
    ``derivs`` None, without a prox part), M_j the diagonal
    ``_step_multiplier`` plus the rank-1 tau c_j w_j w_j^T, and (c_j, v_j)
    = ``hess[j]`` the loss Hessian factors (``_hessian_series``),
    w_j = params v_j.  So
    g2(k) = sum_{j<k} tau c_j (params^T - v_j w_j^T) mu_{k,j} + grad_u f,
    where the adjoints mu_{k,j} = R_j lam_{k,j+1} run back from lam_{k,k}
    = V^T grad_x f(x(k)) by lam_{k,j} = M_j mu_{k,j} - beta mu_{k,j+1}.
    Row k of the (K+1) x N block ``adj``, V^T grad_x f(x(k)) on entry,
    goes live at step j = k - 1 and holds lam_{k,j+1} from then on, so
    step j works on rows j+1, ..., K.  R_j is ``_rotated_rows``, the one
    projection the forward sweep's dense step, ``sensitivity_step``, takes
    too.
    The sum of tau c_j mu_{k,j} gives the params^T terms in one product at
    the end.  The v_j terms are gathered 32 rank-1 steps at a time, their
    coefficients -tau c_j w_j^T mu_{k,j} side by side, and go into
    ``est``, the (K+1) x P block of the grad_u f rows, which is returned,
    in one product per chunk: a (K+1) x K block of them would outweigh the
    adjoint block.  ``adj`` and ``est`` are overwritten.  Each live row of
    ``adj`` turns lam_{k,j+1} into mu_{k,j} in place, where mu is lam
    without a prox part, and then into lam_{k,j}; a scratch block takes
    the products and the rotation's work, and one more block the momentum
    terms.  With momentum the scratch rows take -beta mu before the
    diagonal overwrites mu, and then trade places with the momentum block,
    whose terms lam has taken.
    """
    eigvals, vecs, params = basis
    tau, beta = run.tau, run.beta
    steps = len(hess)
    chunk = 32
    total = np.zeros_like(adj)  # rows: sum_j tau c_j mu_{k,j}
    scratch = np.zeros_like(adj)  # zero in rows not yet live, as it may become momentum
    momentum = np.zeros_like(adj) if beta else None  # rows: -beta mu_{k,j+1}
    step_c = diag = None  # the last step's c and multiplier
    terms = []  # (j, -tau c_j w_j^T mu_{.,j}, v_j) of rank-1 steps not yet in est
    for j in reversed(range(steps)):
        live = slice(j + 1, steps + 1)
        mu, spare = adj[live], scratch[live]  # lam_{k,j+1} until R_j is applied
        c, v = hess[j]
        if derivs is not None:
            _rotated_rows(vecs, derivs[j], mu, spare)
        total[live] += np.multiply(mu, tau * c, out=spare)
        if v is not None:
            w = np.dot(params, v)
            mw = np.dot(mu, w)
            terms.append((j, mw * -(tau * c), v))
        if terms and (len(terms) == chunk or not j):
            low = terms[-1][0]
            coef = np.zeros((steps - low, len(terms)))
            for i, (step, col, _) in enumerate(terms):
                coef[step - low:, i] = col
            est[low + 1:] += coef @ np.array([v_j for *_, v_j in terms])
            terms = []
        if not j:  # lam_{k,0} multiplies J-hat_0 = 0
            break
        if c != step_c:
            step_c, diag = c, _step_multiplier(pr, eigvals, c, tau, beta)
        if beta:
            np.multiply(mu, -beta, out=spare)
            mu *= diag
            mu += momentum[live]
            spare = momentum[live]  # spent, so it is the scratch now
            scratch, momentum = momentum, scratch
        else:
            mu *= diag
        if v is not None:
            mu += np.outer(mw, (tau * c) * w, out=spare)
    est += total @ params
    return est


def _rotated_rows(vecs, d, rows, work):
    """rows <- rows V^T diag(d) V in place, for the elastic-net prox
    derivative d, 0 on the zeroed coordinates Z and s on the support S:
    s (rows - (rows V_Z^T) V_Z) with V_Z the rows Z of V, or
    s (rows V_S^T) V_S, whichever set is smaller, and s rows where Z is
    empty; an empty S (D = 0) gives zeros.  ``work``, a block of the shape
    and layout of ``rows``, takes the product in the zeroed-coordinates
    case.  It is the one prox-derivative projection of both sweeps: the
    reverse sweep's adjoint rows (``_reverse_estimates``) and, as the
    transpose of an N x P block, the forward dense step
    (``sensitivity_step``), whose ``rows`` and ``work`` are F-ordered."""
    zero = d == 0
    count = np.count_nonzero(zero)
    if 2 * count > d.size:
        sel = vecs[~zero]
        np.matmul(rows @ sel.T, sel, out=rows)
    elif count:
        sel = vecs[zero]
        rows -= np.matmul(rows @ sel.T, sel, out=work)
    rows *= d.max()


def implicit_estimator(pr: StructuredProblem, x, u) -> GradientEstimate:
    """g3 = -H_xu^T w + grad_u f with H_xx w = grad_x f, solved by one
    Cholesky factorization of H_xx and two triangular substitutions.

    Nonsmooth regularizers are handled through the smooth surrogate Hessian
    and a minimal-norm subgradient; erratic output there is expected, not an
    error.  Raises ``EstimatorInapplicable`` when the surrogate Hessian is
    not positive definite, so that the factorization fails.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    hxx = pr.hess_xx(x, u)
    gu = pr.grad_u(x, u)
    gx = pr.c - pr.a.T @ gu + pr.k.subgradient_min_norm(x)
    try:
        low = np.linalg.cholesky(hxx)
    except np.linalg.LinAlgError as exc:
        raise EstimatorInapplicable("surrogate Hessian is not positive definite") from exc
    g3 = -pr.hess_xu(x, u).T @ _cholesky_solve(low, gx) + gu
    return GradientEstimate("implicit", g3[None, :])


def _cholesky_solve(low, rhs):
    """(L L^T)^{-1} rhs for a lower-triangular L: forward substitution on
    the rows of L, then backward substitution on its columns, with no
    transposed N x N copy.  Each column is copied contiguous before its
    dot product: a strided dot takes another BLAS kernel, which sums in
    another order.  numpy has no triangular solver, and
    ``np.linalg.solve`` on L would take an O(N^3) LU factorization."""
    n = rhs.size
    y = np.empty(n)
    for i in range(n):
        y[i] = (rhs[i] - low[i, :i] @ y[:i]) / low[i, i]
    w = np.empty(n)
    for i in reversed(range(n)):
        w[i] = (y[i] - np.ascontiguousarray(low[i + 1:, i]) @ w[i + 1:]) / low[i, i]
    return w


def dual_estimator(pr: StructuredProblem, u, cfg: SolverConfig) -> GradientEstimate:
    """g4(k) = y(k), the iterates of the dual problem under the chosen solver."""
    dob = pr.dual_objective(u)
    y = np.zeros(pr.p)
    method = cfg.method
    if method == "cg":
        return GradientEstimate("dual", conjugate_gradient(*dob.quadratic_form(), y,
                                                           cfg.iterations))
    tau, beta = step_policy(method, *dob.curvature())
    if method == "fista":
        prox = None if dob.prox_part is None else dob.prox_part.prox
        return GradientEstimate("dual", fista(dob.smooth_grad, prox, y, tau, beta,
                                              cfg.iterations))
    return GradientEstimate("dual", prox_gradient(
        dob.smooth_grad, prox_of(method, dob.prox_part), y, tau, beta, cfg.iterations))


# Before its first accelerated iteration, and every NEWTON_EVERY after that,
# the certified solve takes up to NEWTON_STEPS chord Newton steps on its live
# columns.  ORACLE_ITERATIONS caps certified_truth and fd_oracle, each
# Newton step counting as one iteration, as each accelerated one does.
NEWTON_EVERY = 25
NEWTON_STEPS = 3
ORACLE_ITERATIONS = 10_000


def _forward_backward(pr: StructuredProblem, x, par, tau: float):
    """(g, T(x)): the smooth gradient g = grad f_s(x) and the prox-gradient
    step T(x) = prox_{tau k}(x - tau g), whose fixed points are the
    minimizers."""
    g = pr.primal_smooth_grad(x, par)
    pre = x - tau * g
    prox = pr.k.prox_part
    return g, (pre if prox is None else prox.prox(tau, pre))


def _fb_jacobian(pr: StructuredProblem, x, par, tau: float, g):
    """The generalized Jacobian of F(x) = x - T(x) at one point x (an
    N-vector) with parameter ``par`` and smooth gradient g there, where
    T(x) = prox_{tau k}(pre) and pre = x - tau g.

    It is I - D (I - tau hess_xx_loss), with D the elastic-net prox
    derivative at pre (the one the forward sensitivities use); with a
    smooth k, F = tau grad f and the Jacobian is tau hess_xx (Stella,
    Themelis & Patrinos, 2017).
    """
    prox = pr.k.prox_part
    if prox is None:
        return tau * pr.hess_xx(x, par)
    eye = np.eye(pr.n)
    d = prox.prox_derivative(tau, x - tau * g)
    return eye - d[:, None] * (eye - tau * pr.hess_xx_loss(x, par))


def _newton_step(jac, x, tx):
    """The Newton step x - J^{-1} (x - T(x)) on F(x) = x - T(x), for a
    point x, or an N x K block of them, and tx = T(x).  J = ``jac`` is one
    N x N Jacobian (``_fb_jacobian``) for all columns, so the step is a
    single solve; for a column whose own Jacobian differs it is the chord
    step (Kelley, Iterative Methods for Linear and Nonlinear Equations,
    1995).  A singular system gives up: the step then returns NaN, a point
    no certificate passes.
    """
    try:
        return x - np.linalg.solve(jac, x - tx)
    except np.linalg.LinAlgError:
        return np.full_like(x, np.nan)


def _certified_solve(pr: StructuredProblem, params, x0, limit, max_iterations: int):
    """Solve min_x f(x, u_j) for every column u_j of ``params`` (P x K),
    every column from ``x0`` (N x K); returns (points, certified).

    A column is certified at x+ = T(z), the prox-gradient step from a point
    z, once |z - x+| <= limit[j]; it then leaves the ``live`` mask and its
    point is kept, while the block goes on.  The points z are the
    extrapolated points of ``accelerated_steps`` (fista's step 1/L and
    momentum from ``step_policy``, on the whole block) and Newton points:
    before the first accelerated iteration, and every NEWTON_EVERY
    iterations after it, up to NEWTON_STEPS chained chord steps
    (``_newton_step``) run from the live columns of the current iterate,
    all with one Jacobian, ``_fb_jacobian`` at the first live column.  A
    column they do not certify goes on with the accelerated iteration
    untouched.  The momentum is not restarted from a Newton point: one from
    a wrong active set can still undercut an early accelerated iterate's
    objective, and restarting there stalls ill-conditioned problems.
    Correctness rests on the certificate alone.  Every Newton step and
    every accelerated iteration counts against ``max_iterations``;
    certified is False for the columns it leaves open (all of them, at
    ``x0``, when it is 0).

    It is the fallback of ``oracle_primal_solve`` and the whole of
    ``fd_oracle``, whose chord steps from the centre minimizer certify
    every column on the default grid.
    """
    tau, beta = step_policy("fista", *pr.curvature())
    prox = pr.k.prox_part
    points = np.array(x0, dtype=float)
    live = np.ones(points.shape[1], dtype=bool)  # columns not yet certified
    steps = accelerated_steps(
        lambda z: pr.primal_smooth_grad(z, params), None if prox is None else prox.prox,
        x0, tau, beta, max_iterations,
    )
    x, left, it = points, max_iterations, 0
    while left and live.any():
        if it % NEWTON_EVERY == 0:
            cols = np.flatnonzero(live)
            y = x[:, cols]
            for k in range(min(NEWTON_STEPS, left)):
                left -= 1
                g, ty = _forward_backward(pr, y, params[:, cols], tau)
                if not k:
                    jac = _fb_jacobian(pr, y[:, 0], params[:, cols[0]], tau, g[:, 0])
                y = _newton_step(jac, y, ty)
                y_plus = _forward_backward(pr, y, params[:, cols], tau)[1]
                done = np.linalg.norm(y - y_plus, axis=0) <= limit[cols]
                points[:, cols[done]] = y_plus[:, done]
                live[cols[done]] = False
                cols, y = cols[~done], y[:, ~done]
                if not cols.size:
                    return points, ~live
            if not left:
                break
        z, x = next(steps)
        it, left = it + 1, left - 1
        done = live & (np.linalg.norm(z - x, axis=0) <= limit)
        points[:, done] = x[:, done]
        live &= ~done
    points[:, live] = x[:, live]
    return points, ~live


# Armijo sufficient-decrease constant of the Newton line search, and the step
# length below which the Newton phase hands its point to _certified_solve.
ARMIJO = 1e-4
MIN_STEP = 1e-12


def _newton_solve(pr: StructuredProblem, u, x, limit: float, max_iterations: int):
    """Line-searched Newton phase of ``oracle_primal_solve``; returns
    (point, Newton steps taken, certified).

    Each step evaluates the smooth gradient g twice: at x, where it gives
    the Jacobian, T(x) and pg, the whole objective's minimum-norm
    subgradient (g with a smooth k; for the elastic net g + lam x, plus
    gamma sign(x) where x != 0 and soft-thresholded by gamma where x = 0),
    and at the semismooth Newton point y of ``_newton_step``.  It stops
    certified at T(y) once |y - T(y)| <= limit, the certificate of
    ``_certified_solve``.  Otherwise it searches along d = y - x: with a
    smooth k the trial point is x + t d (damped Newton; Stella, Themelis &
    Patrinos, 2017), for the elastic net x + t d projected onto the orthant
    sign(x), or -sign(pg) at zero coordinates (orthant-wise Newton; Byrd,
    Chin, Nocedal & Oztoprak, Math. Program. 2016).  t halves from 1 until
    the Armijo test F(x_t) < F(x) + ARMIJO pg.(x_t - x) on the whole
    objective passes.  The phase gives up uncertified at x on a non-finite
    direction, a direction that does not descend (d.pg >= 0), a step below
    MIN_STEP, or after ``max_iterations`` steps.
    """
    tau, _ = step_policy("fista", *pr.curvature())
    prox = pr.k.prox_part
    value = pr.primal_value(x, u)
    for steps in range(1, max_iterations + 1):
        g, tx = _forward_backward(pr, x, u, tau)
        y = _newton_step(_fb_jacobian(pr, x, u, tau, g), x, tx)
        y_plus = _forward_backward(pr, y, u, tau)[1]
        if np.linalg.norm(y - y_plus) <= limit:
            return y_plus, steps, True
        d = y - x
        pg = g
        if prox is not None:
            pg = g + prox.lam * x
            pg = np.where(x != 0, pg + prox.gamma * np.sign(x), soft_threshold(pg, prox.gamma))
        if not (np.all(np.isfinite(d)) and d @ pg < 0):
            return x, steps, False
        orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
        t = 1.0
        while True:
            trial = x + t * d
            if prox is not None:
                trial = np.where(np.sign(trial) == orthant, trial, 0.0)
            trial_value = pr.primal_value(trial, u)
            # strict, so that a trial round-off leaves at x is no step
            if trial_value < value + ARMIJO * (pg @ (trial - x)):
                break
            t *= 0.5
            if t < MIN_STEP:
                return x, steps, False
        x, value = trial, trial_value
    return x, max_iterations, False


def oracle_primal_solve(
    pr: StructuredProblem,
    u,
    max_iterations: int = ORACLE_ITERATIONS,
    tol: float = 1e-7,
):
    """Certified primal solve for oracle use; returns (x, value, converged).

    A line-searched Newton phase (``_newton_solve``) runs from x = 0; if
    it stops uncertified, the one-column ``_certified_solve`` goes on from
    its point with the iterations left, each Newton step having counted as
    one.  ``certified_truth`` decides which cells take it.

    ``tol`` is in gradient units: with G = (z - x+)/tau,
    g = G - grad f_s(z) + grad f_s(x+) is a subgradient at x+ of norm at
    most (1 + tau L)|G| = 2|G|.  Write y = grad h(b - A x+ + u) and y* =
    grad p(u) = grad h(b - A x* + u).  Monotonicity of d k, with k's
    modulus m_k = ``pr.k.modulus``, and co-coercivity of grad h (Nesterov,
    Introductory Lectures on Convex Optimization, 2004, Thm 2.1.5) give

        |y - y*|^2 / L_h + m_k |x+ - x*|^2 <= |g| |x+ - x*|,

    whose right side less m_k |x+ - x*|^2 is at most |g|^2 / (4 m_k), so
    |y - y*| <= sqrt(L_h / m_k) |G|.  The bound needs no |A|, so it stays
    above round-off at large (N, P).  Both phases stop once it is at most
    ``tol``; ``converged`` is False if the solve reached ``max_iterations``
    first.
    """
    u = np.asarray(u, dtype=float)
    lips = pr.curvature()[0]
    ratio = np.sqrt(pr.h.profile().lips / pr.k.modulus)  # sqrt(L_h / m_k)
    limit = np.array([tol / (ratio * lips)])  # tau times the |G| bound
    x, steps, certified = _newton_solve(pr, u, np.zeros(pr.n), limit[0], max_iterations)
    if not certified:
        points, done = _certified_solve(
            pr, u[:, None], x[:, None], limit, max_iterations - steps
        )
        x, certified = points[:, 0], bool(done[0])
    return x, pr.primal_value(x, u), certified


def oracle_dual_solve(
    pr: StructuredProblem,
    u,
    max_iterations: int = ORACLE_ITERATIONS,
    tol: float = 1e-7,
):
    """Certified dual solve for oracle use; returns (y, x, steps, certified).

    Damped Newton on the smooth part of the dual D(y) = k*(A^T y - c) +
    h*(y) - <b + u, y> from y = 0, whose minimizer is y* = grad p(u) when
    h*'s prox part (Huber's ball) is inactive there.  Each step solves one
    P x P system with the generalized Hessian A diag(d) A^T + s I, d the
    diagonal of k*'s Hessian at A^T y - c (``hessian_diagonal``; nonzero
    only on the support S, where the elastic net's kink is not hit, all of
    it for a ridge k) and s the scale of h*'s quadratic part, and halves
    its step from 1 until the Armijo test on D passes (the Lasso-dual
    structure of Li, Sun & Toh, SIAM J. Optim. 2018).

    D's smooth part is m_d-strongly convex (``DualObjective.curvature``),
    so |y - y*| <= |grad D(y)| / m_d, and grad k* is 1/m_k-Lipschitz, so
    the primal point x = grad k*(A^T y - c) is within |A| |y - y*| / m_k of
    x*.  The solve stops once both radii are at most ``tol``, certified if
    h* has no prox part or if |y| + |grad D(y)| / m_d <= delta, which puts
    the ball at y* out of reach.  It gives up uncertified where that ball
    test fails, on a singular system, a non-finite or non-descending step,
    a step below MIN_STEP, or after ``max_iterations`` steps; ``steps``
    is the number of Newton steps taken.
    """
    dob = pr.dual_objective(u)
    m_d = dob.curvature()[1]
    # the |grad D| that puts both radii within tol
    limit = tol * m_d * min(1.0, pr.k.modulus / np.sqrt(pr.bounds().lmax_ata))
    y = np.zeros(pr.p)
    value, steps, certified = dob.smooth_value(y), 0, False
    while steps < max_iterations:
        g = dob.smooth_grad(y)
        r = vector_norm(g)
        if r <= limit:
            ball = dob.prox_part
            certified = ball is None or vector_norm(y) + r / m_d <= ball.radius
            break
        moved = _dual_newton_step(pr, dob, y, g, value)
        if moved is None:
            break
        (y, value), steps = moved, steps + 1
    return y, dob.kconj.grad(pr.a.T @ y + dob.shift), steps, certified


def _dual_newton_step(pr: StructuredProblem, dob, y, g, value):
    """One damped Newton step of ``oracle_dual_solve`` from y, where the
    smooth dual's gradient is g and its value ``value``; returns (y+, its
    value), or None where the step gives up."""
    d = dob.kconj.hessian_diagonal(pr.a.T @ y + dob.shift)
    on = d != 0
    a_s = pr.a[:, on]
    hess = (a_s * d[on]) @ a_s.T
    hess.flat[:: pr.p + 1] += dob.hstar_scale
    try:
        step = np.linalg.solve(hess, g)
    except np.linalg.LinAlgError:
        return None
    slope = -float(g @ step)
    if not (np.all(np.isfinite(step)) and slope < 0):
        return None
    t = 1.0
    while t >= MIN_STEP:
        trial = y - t * step
        trial_value = dob.smooth_value(trial)
        # strict, so that a trial round-off leaves at y is no step
        if trial_value < value + ARMIJO * t * slope:
            return trial, trial_value
        t *= 0.5
    return None


def certified_truth(pr: StructuredProblem, u, max_iterations: int = ORACLE_ITERATIONS):
    """The certified reference gradient grad p(u) = y*, within 1e-7, and
    the minimizer x* of one cell; returns (truth, xstar, certified).

    The truth comes from whichever Newton system is smaller.  At P < N
    ``oracle_dual_solve`` gives y* and x* = grad k*(A^T y* - c) directly;
    where it does not certify (Huber's ball binds, it stalls or it reaches
    the cap), ``oracle_primal_solve`` runs with the iterations left, from
    x = 0: from the dual's x it can stop on a false certificate where the
    Newton system is near singular.  At P >= N the primal solve runs
    alone, and the truth is grad h(b - A x* + u).  Each Newton step counts as one iteration of
    ``max_iterations``; certified is False when neither solve certified.
    On the default grid over seeds 0-20 the dual takes 7-25 steps on the
    f3 and f4 cells with P < N, each a P x P system, where the primal
    Newton phase takes 28-323, each an N x N system; 1 of the 168 dual
    solves hands over (seed 15, f4 P=30, where the ball binds).
    """
    left = max_iterations
    if pr.p < pr.n:
        truth, xstar, steps, certified = oracle_dual_solve(pr, u, max_iterations=left)
        if certified:
            return truth, xstar, True
        left -= steps
    xstar, _, certified = oracle_primal_solve(pr, u, max_iterations=left)
    return pr.grad_u(xstar, u), xstar, certified


def fd_oracle(
    pr: StructuredProblem,
    u,
    eps: float = 1e-5,
    max_iterations: int = ORACLE_ITERATIONS,
    tol: float = 1e-6,
    warm=None,
) -> GradientEstimate:
    """Central-difference gradient of the value function.

    Coordinate i uses the step s_i = eps * (1 + |u_i|).  The 2P
    perturbed problems at u +- s_i e_i are solved together by one
    ``_certified_solve`` on the N x 2P block, every column starting from
    ``warm``, the minimizer at u (``certified_truth``'s when not given),
    under the cap ``max_iterations``.

    Certificate: at a point z with x+ = T(z) = prox(z - tau grad(z)), the
    gradient mapping G = (z - x+)/tau makes G - grad(z) + grad(x+) a
    subgradient of the objective at x+ of norm at most (1 + tau L)|G| =
    2|G|, so m-strong convexity bounds the value error by 2|G|^2/m
    (Nesterov, Math. Prog. 2013).  Both values of coordinate i err upwards,
    so its difference quotient is off by at most the larger error over
    2 s_i.  A column is frozen once |G| <= sqrt(tol * m * s_i), which keeps
    that error within ``tol`` (gradient units); the O(eps^2) truncation
    error and the round-off in evaluating p come on top.  The estimate is
    flagged if some column reaches ``max_iterations``.

    On the default grid over seeds 0-20 the chord steps before the solve's
    first accelerated iteration certify all 42,000 columns, f1's included.
    """
    u = np.asarray(u, dtype=float)
    steps = eps * (1.0 + np.abs(u))
    # column i is u + s_i e_i, column P + i is u - s_i e_i
    params = u[:, None] + np.hstack([np.diag(steps), np.diag(-steps)])
    lips, m = pr.curvature()
    if warm is None:
        warm = certified_truth(pr, u, max_iterations)[1]
    start = np.repeat(np.asarray(warm, dtype=float)[:, None], 2 * pr.p, axis=1)
    # |z - x+| bound per column, i.e. tau times the |G| bound
    limit = np.sqrt(tol * m * np.concatenate([steps, steps])) / lips
    points, certified = _certified_solve(pr, params, start, limit, max_iterations)
    vals = pr.primal_value(points, params)
    g = (vals[: pr.p] - vals[pr.p :]) / (2.0 * steps)
    return GradientEstimate("fd", g[None, :], flagged=not certified.all())


# ---------------------------------------------------------------------------
# Scalar counterexample runs


@dataclass
class ToyRun:
    """A scalar counterexample run: the primal iterates, each estimator at
    them and the dual iterates, one array entry per iterate; ``truth`` is
    the problem's ``ground_truth``."""

    x_trace: np.ndarray
    analytic: np.ndarray
    automatic: np.ndarray
    implicit: np.ndarray
    dual: np.ndarray
    truth: tuple


def run_toy(
    toy: ToyProblem, u: float, tau: float = 0.05, iterations: int = 200, x0=None
) -> ToyRun:
    """Run a scalar counterexample on the shared kernel, with per-iterate estimates.

    The primal is ``prox_gradient_steps`` with the clamp onto the box of
    ``toy.primal(u)`` as its prox, from its start or from a fixed ``x0``.
    The sensitivity J = dx/du starts at dx0/du and steps J+ = D (1 - tau
    f_s''(x)) J + (1 - D) dbound/du; D, the clamp's derivative at the
    pre-prox point z, is 0 at a bound (ties too, as for the elastic-net
    prox) and 1 inside.  Analytic is df_s/du, automatic f_s'(x) J + df_s/du,
    and implicit equals analytic as d^2 f_s/dx du = 0: both take the
    indicator's zero u-subgradient, the failure the examples exhibit.  The
    dual estimates are ``prox_gradient``'s iterates on ``toy.dual(u)``.
    """
    truth = toy.ground_truth(u)
    (lo, hi), (dlo, dhi), start = toy.primal(u)
    x0, jac = start if x0 is None else (float(x0), 0.0)
    rows = [(x0, jac)]
    steps = prox_gradient_steps(
        lambda x: toy.smooth(x, u)[0], lambda _, z: np.clip(z, lo, hi), x0, tau, 0.0, iterations
    )
    for x, z, x_next in steps:
        inside = lo < z < hi  # D = 1
        jac = (1.0 - tau * toy.smooth(x, u)[1]) * jac if inside else (dlo if z <= lo else dhi)
        rows.append((x_next, jac))
    points, jacs = np.array(rows, dtype=float).T
    grad, _, du = toy.smooth(points, u)
    analytic = np.full_like(points, du)
    grad_d, (lo_d, hi_d), y0, tau_d = toy.dual(u)
    dual = prox_gradient(grad_d, lambda _, y: np.clip(y, lo_d, hi_d), y0, tau_d, 0.0, iterations)
    return ToyRun(points, analytic, jacs * grad + du, analytic.copy(), dual, truth)
