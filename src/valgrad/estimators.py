"""Value-function gradient estimators.

Four estimators of the gradient of p(u) = inf_x f(x, u):

* analytic:  the parameter-gradient of f at an approximate minimizer,
* automatic: the solver's iterates differentiated in the eigenbasis of
             A^T A, by a forward sweep of sensitivities or a batched
             reverse (adjoint) sweep, whichever carries fewer columns,
* implicit:  the implicit-function-theorem linear solve at one iterate,
             by a Cholesky factorization,
* dual:      iterates of the assembled dual problem,

plus a central-difference oracle backed by high-accuracy inner solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .funcs import NonsmoothError, soft_threshold
from .problems import DualObjective, StructuredProblem, ToyProblem
from .solvers import (
    SolverConfig,
    accelerated_steps,
    conjugate_gradient,
    fista,
    pdhg,
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
    """One symmetric eigendecomposition of ``pr.gram`` and the rotated
    parameter block; nothing is cached on the problem."""
    eigvals, vecs = np.linalg.eigh(pr.gram)
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
    rank-1 term, O(NP).  Returns J-hat+, a fresh array.  This is the dense
    step of the automatic estimator's recursion.
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
        out = _rotated_prox_derivative(vecs, d, out)
    return out


def _rotated_prox_derivative(vecs, d, jac):
    """V^T diag(d) V J-hat for the elastic-net prox derivative d, which is
    0 on the zeroed coordinates Z and s on the support S; updates ``jac``
    in place where it can.

    It is s (J-hat - V_Z^T (V_Z J-hat)) with V_Z the rows Z of V, or
    s V_S^T (V_S J-hat), whichever set is smaller: at most N^2 P
    multiply-adds, those of one N x N by N x P product, and none when Z is
    empty.  An empty S (D = 0) gives zeros.
    """
    zero = d == 0
    count = np.count_nonzero(zero)
    if 2 * count > d.size:
        rows = vecs[~zero]
        jac = rows.T @ (rows @ jac)
    elif count:
        rows = vecs[zero]
        jac -= rows.T @ (rows @ jac)
    jac *= d.max()
    return jac


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
    tau: float | None = None,
    beta: float | None = None,
    iterations: int = 250,
    x0=None,
    with_sensitivity: bool = True,
) -> PrimalRun:
    """Run a primal solver, recording what the forward sensitivities need.

    All four methods run through ``prox_gradient_steps``.  The objective's
    prox part decides the prox (``prox_of``): problems without one take gd
    or heavy_ball, problems with one ista or ipiasco.  ``step_policy`` gives
    the default step size and momentum, using the whole-objective curvature.
    With ``with_sensitivity`` the run keeps the pre-prox points, from which
    ``sensitivities`` replays the Jacobians; the run itself forms none.
    """
    prox = prox_of(method, pr.k.prox_part)
    u = np.asarray(u, dtype=float)
    tau, beta = step_policy(method, *pr.curvature(), tau, beta)

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


class _Sensitivity(NamedTuple):
    """One iterate sensitivity in compact form:

        J-hat_k = diag(p) a + diag(q) b + diag(r) params + U T^T,

    with (a, b) = (J-hat_{j+1}, J-hat_j) for the last dense step or fold j
    (both None before the first one), params = V^T A^T from ``_gram_basis``,
    and U T^T = sum_i u_i t_i^T.  ``coef`` stacks the N-vectors p, q, r and
    u_1, ..., u_m as the rows of one (3 + m) x N array, and ``ts`` the
    P-vectors t_1, ..., t_m as those of an m x P one.  A dense step or a
    fold yields (p, q, r) = (1, 0, 0) and no columns; the steps after it
    update every row of ``coef``, and a rank-1 step also appends one pair
    (u_i, t_i).  ``coef`` is fresh at every step, while ``ts`` is a view of
    one buffer that the steps sharing (a, b) fill row by row, each row
    written once.
    """

    a: np.ndarray | None
    b: np.ndarray | None
    coef: np.ndarray
    ts: np.ndarray

    @property
    def p(self):
        return self.coef[0]

    @property
    def q(self):
        return self.coef[1]

    @property
    def r(self):
        return self.coef[2]

    @property
    def us(self):
        """The m x N array of the u_i."""
        return self.coef[3:]

    def jacobian(self, params):
        """J-hat_k as a fresh N x P array."""
        jac = self.r[:, None] * params
        if self.a is not None:
            jac += self.p[:, None] * self.a
            jac += self.q[:, None] * self.b
        if len(self.ts):
            jac += self.us.T @ self.ts
        return jac

    def transpose_dot(self, params, w):
        """J-hat_k^T w for an N-vector w without forming J-hat_k: one GEMV
        per N x P block (none on b while q is zero, as it stays without
        momentum), and two on the columns."""
        pw, qw, rw = self.coef[:3] * w
        out = np.dot(rw, params)
        if self.a is not None:
            out += np.dot(pw, self.a)
            if np.count_nonzero(qw):
                out += np.dot(qw, self.b)
        if len(self.ts):
            out += np.dot(np.dot(self.us, w), self.ts)
        return out


def _compact_step(diag, cur: _Sensitivity, prev: _Sensitivity, hess, s: float,
                  tau: float, beta: float, params, ts) -> _Sensitivity:
    """The step J-hat+ = s (diag J-hat + tau c params - beta J-hat_prev
    - tau c w (w^T J-hat - v^T)) of ``_compact_sensitivities`` for a loss
    Hessian c (I - v v^T), ``hess`` = (c, v), and a prox derivative s I, on
    the compact forms of J-hat and J-hat_prev: every row of ``coef`` steps
    alike, r also takes the shift s tau c, and the t_i stay.  O(N (m + 3))
    for m columns, into a fresh ``coef``; J-hat_prev has at most the
    columns of J-hat.  For v not None (a rank-1 step) the new pair
    (s tau c w, J-hat^T w - v), w = params v, is appended, with J-hat^T w
    from the compact form (``_Sensitivity.transpose_dot``) written to row m
    of the buffer ``ts``; for v None no column is appended and ``ts`` is
    not read.  ``diag`` is the ``_step_multiplier`` of c, tau and beta,
    which it does not modify."""
    c, v = hess
    if v is None:
        coef = stepped = diag * cur.coef
        ts = cur.ts
    else:
        m = len(cur.ts)
        w = np.dot(params, v)
        np.subtract(cur.transpose_dot(params, w), v, out=ts[m])
        ts = ts[:m + 1]
        coef = np.empty((len(cur.coef) + 1, diag.size))
        stepped = np.multiply(diag, cur.coef, out=coef[:-1])
    stepped[2] += tau * c
    if beta:
        coef[:len(prev.coef)] -= beta * prev.coef
    if s != 1.0:
        stepped *= s
    if v is not None:
        coef[-1] = (s * tau * c) * w
    return _Sensitivity(cur.a, cur.b, coef, ts)


def _require_sensitivities(run: PrimalRun):
    """Raise ``ValueError`` for a run made without sensitivities."""
    if run.pre_prox is None:
        raise ValueError("run was produced without sensitivities")


def sensitivities(pr: StructuredProblem, run: PrimalRun, u):
    """The iterate sensitivities J_k = d x_k / d u of ``run`` at the
    parameter ``u``, one fresh N x P array per yield, J_0 = 0 first.

    Forward-mode differentiation of the solver (Griewank & Walther,
    Evaluating Derivatives, 2008), replayed along the run's iterates and
    pre-prox points by the forward sweep of ``automatic_estimator``
    (``_compact_sensitivities``), whatever sweep that estimator takes on
    the run: only the forward one forms J_k.  Each compact J-hat_k = V^T
    J_k is rotated back with the eigenbasis V of A^T A, taken once per
    call.  Raises ``ValueError`` for a run made without sensitivities.
    """
    _require_sensitivities(run)
    basis = _gram_basis(pr)
    residuals = _residual_series(pr, run.points, u)
    derivs = _prox_derivatives(pr, run)
    for sens in _compact_sensitivities(pr, run, basis, residuals, derivs):
        yield basis.vecs @ sens.jacobian(basis.params)


def _prox_derivatives(pr: StructuredProblem, run: PrimalRun):
    """The K x N block of the prox derivatives ``prox_derivative(tau, z_k)``
    at the run's pre-prox points, one evaluation on the whole block; None
    without a prox part."""
    prox = pr.k.prox_part
    return None if prox is None else prox.prox_derivative(run.tau, run.pre_prox)


def _compact_sensitivities(pr: StructuredProblem, run: PrimalRun, basis: _GramBasis,
                           residuals, derivs):
    """The iterate sensitivities of ``run`` in the eigenbasis of A^T A, one
    ``_Sensitivity`` per yield: J-hat_k = V^T J_k, where J_k = d x_k / d u
    and V is ``basis.vecs``, so J_k = V J-hat_k.

    J-hat_0 = 0, then one step per pre-prox point z_k of the run, with its
    loss Hessian c (I - v v^T) taken at column k of ``residuals``, the
    P x (K+1) block b - A x_k + u of the run's iterates, and its prox
    derivative d = ``prox_derivative(tau, z_k)``, row k of ``derivs``
    (``_prox_derivatives``; d None without a prox part).  Where d is s I
    the step map is the diagonal
    s (1 + beta - tau c Lambda [- tau lam]) plus the shift s tau c params,
    and for v not None the rank-1 term s tau c w (w^T J-hat - v^T), with
    w = params v: ``_compact_step`` updates the compact form in O(N m) for
    m columns, reusing the previous step's multiplier while c is
    unchanged, as on every step of a squared-norm loss, and a rank-1 step
    appends the pair (s tau c w, J-hat_k^T w - v): O(NP) in GEMV reads and
    no N x P write.  A rank-1 step that brings the columns to
    m = max(NP // (N + P), 1), where one more would make them hold more
    numbers than one Jacobian, folds them: its J-hat and the one before
    are built, as before a dense step, and become the dense pair.  Any
    other step (d with two values) is dense: ``sensitivity_step`` with that
    d on J-hat_k and J-hat_{k-1}, built from the compact form unless the
    last step was dense or a fold.  Only J-hat_k and J-hat_{k-1} are kept;
    every yielded array is fresh or shared with earlier yields, and never
    modified.
    """
    eigvals, params = basis.eigvals, basis.params
    tau, beta = run.tau, run.beta
    no_ts = np.zeros((0, pr.p))
    opened = np.zeros((3, pr.n))  # (p, q, r) = (1, 0, 0) after a dense step or a fold
    opened[0] = 1.0
    opened_prev = opened[[1, 0, 2]]  # (0, 1, 0) for the step before it
    cap = max(pr.n * pr.p // (pr.n + pr.p), 1)

    def dense_pair(cur, prev):
        """(J-hat_k, J-hat_{k-1}) as arrays."""
        if cur.coef is opened:  # the last step was dense or a fold
            return cur.a, cur.b
        return cur.jacobian(params), prev.jacobian(params)

    def compact_pair(jac, jac_prev):
        return (_Sensitivity(jac, jac_prev, opened, no_ts),
                _Sensitivity(jac, jac_prev, opened_prev, no_ts))

    cur = prev = _Sensitivity(None, None, np.zeros((3, pr.n)), no_ts)
    step_c = diag = None  # the last compact step's c and multiplier
    ts = None  # the buffer of t_i of the current pair (a, b)
    yield cur
    for k in range(len(run.pre_prox)):
        c, v = pr.h.hessian_factors(residuals[:, k])
        d = None if derivs is None else derivs[k]
        if d is not None and d.min() != d.max():
            jac, jac_prev = dense_pair(cur, prev)
            new = sensitivity_step(pr, basis, (c, v), jac, jac_prev, d, tau, beta)
            cur, prev = compact_pair(new, jac)
            ts = None
        else:
            if c != step_c:
                step_c, diag = c, _step_multiplier(pr, eigvals, c, tau, beta)
            if v is not None and ts is None:
                ts = np.empty((cap, pr.p))
            s = 1.0 if d is None else d[0]
            cur, prev = _compact_step(diag, cur, prev, (c, v), s, tau, beta, params, ts), cur
            if len(cur.ts) >= cap:  # fold the columns into the dense pair
                cur, prev = compact_pair(*dense_pair(cur, prev))
                ts = None
        yield cur


def _residual_series(pr: StructuredProblem, points, u):
    """The P x (K+1) residual block b - A x(k) + u of the iterates, the
    rows of ``points``."""
    xs = np.asarray(points, dtype=float).T
    return pr.residual(xs, np.asarray(u, dtype=float)[:, None])


def analytic_estimator(pr: StructuredProblem, points, u) -> GradientEstimate:
    """g1(k) = grad_u f(x(k), u) = grad h(b - A x(k) + u) at the rows x(k)
    of ``points``; needs smooth h."""
    if not pr.h.profile().smooth:
        raise NonsmoothError("analytic estimator requires a smooth loss")
    gu = pr.h.grad(_residual_series(pr, points, u))
    return GradientEstimate("analytic", np.ascontiguousarray(gu.T))


def automatic_estimator(pr: StructuredProblem, run: PrimalRun, u) -> GradientEstimate:
    """g2(k) = J(k)^T grad_x f(x(k), u) + grad_u f(x(k), u).

    In the eigenbasis of A^T A, g2(k) = J-hat(k)^T (V^T grad_x f) +
    grad_u f, K+1 vector-Jacobian products, taken by one of two sweeps
    chosen from the run before either runs (``_reverse_pays``): the
    reverse sweep when dense P > K (K + 1) / 2, dense being the number of
    steps whose prox derivative has two values, the forward sweep
    otherwise.  A dense forward step carries P columns, while the reverse
    sweep carries the K - j estimates still open at step j.  Without a
    prox part no step is dense, and no run of the default grid goes
    reverse.

    Forward, the sensitivities stream from ``_compact_sensitivities``.  The
    yields sharing one dense pair (a, b) form a run: its opening dense
    step or fold takes one product as before, and the other steps take three
    for the whole run, plus one for its columns (``_run_estimates``).  Each
    step's U^T g is taken as it streams, so a run holds its coefficient
    vectors and the t_i, not every step's U; its blocks are freed when it
    ends.  Reverse, ``_reverse_estimates`` runs the transposed steps from
    K - 1 down to 0 on a (K+1) x N adjoint block.  Both give the same rows
    up to round-off.  The basis (``_gram_basis``) is taken once per call
    and freed with it.  The residual block of the whole series is formed
    once: it gives grad_u f and every step's loss Hessian; the prox
    derivatives are evaluated once, on the block of pre-prox points
    (``_prox_derivatives``), and both the choice and the sweep read them.
    For elastic-net problems the regularizer subgradient is the prox
    optimality selection, the minimum-norm subgradient at x(0) and
    (z(k-1) - x(k)) / tau from the run's pre-prox points after it.  The
    estimates fill one (K+1) x P block.  Raises ``ValueError`` for a run
    made without sensitivities.
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
    derivs = _prox_derivatives(pr, run)
    if _reverse_pays(derivs, pr.p):
        gx, gu = gx.T @ basis.vecs, gu.T.copy()
        return GradientEstimate("automatic",
                                _reverse_estimates(pr, run, basis, res, derivs, gx, gu))
    gx = basis.vecs.T @ gx
    est = np.empty((len(run.points), pr.p))
    start, block, coefs = 0, [], []
    for k, sens in enumerate(_compact_sensitivities(pr, run, basis, res, derivs)):
        if block and sens.a is not block[0].a:
            _run_estimates(est, basis.params, block, coefs, gx, gu, start)
            start, block, coefs = start + len(block), [], []
        if len(sens.ts):  # keep U^T g and (p, q, r), not U
            coefs.append(np.dot(sens.us, gx[:, k]))
            sens = _Sensitivity(sens.a, sens.b, sens.coef[:3].copy(), sens.ts)
        block.append(sens)
    _run_estimates(est, basis.params, block, coefs, gx, gu, start)
    return GradientEstimate("automatic", est)


def _reverse_pays(derivs, p: int) -> bool:
    """Whether the reverse sweep carries fewer columns than the forward one:
    dense P > K (K + 1) / 2.  A dense step, one whose prox derivative (a row
    of ``derivs``) has two values, carries P columns forward, and the
    reverse sweep carries the K - j estimates still open at step j, K (K +
    1) / 2 over its K steps.  False without a prox part (``derivs`` None),
    where no step is dense."""
    if derivs is None:
        return False
    k = len(derivs)
    dense = np.count_nonzero(derivs.min(axis=1) != derivs.max(axis=1))
    return 2 * dense * p > k * (k + 1)


def _reverse_estimates(pr: StructuredProblem, run: PrimalRun, basis: _GramBasis, res,
                       derivs, adj, est):
    """g2 at every iterate of ``run`` by one batched reverse (adjoint)
    sweep (Griewank & Walther, Evaluating Derivatives, 2008), the transpose
    of ``_compact_sensitivities``'s recursion.

    In the eigenbasis a step is J-hat_{j+1} = R_j (M_j J-hat_j + tau c_j
    (params - w_j v_j^T) - beta J-hat_{j-1}), with R_j = V^T diag(d_j) V
    for the prox derivative d_j, row j of ``derivs``, M_j the diagonal
    ``_step_multiplier`` plus the rank-1 tau c_j w_j w_j^T, and (c_j, v_j)
    the loss Hessian factors at column j of ``res``, w_j = params v_j.  So
    g2(k) = sum_{j<k} tau c_j (params^T - v_j w_j^T) mu_{k,j} + grad_u f,
    where the adjoints mu_{k,j} = R_j lam_{k,j+1} run back from lam_{k,k}
    = V^T grad_x f(x(k)) by lam_{k,j} = M_j mu_{k,j} - beta mu_{k,j+1}.
    Row k of the (K+1) x N block ``adj``, V^T grad_x f(x(k)) on entry,
    goes live at step j = k - 1 and holds lam_{k,j+1} from then on, so
    step j works on rows j+1, ..., K.  R_j takes the rows of V at the
    zeroed coordinates or at the support, as ``_rotated_prox_derivative``
    does (``_rotated_rows``), or is the scalar s of a d with one value.
    The sum of tau c_j mu_{k,j} gives the params^T terms in one product at
    the end; the v_j terms go straight into ``est``, the (K+1) x P block
    of the grad_u f rows, which is returned.  ``adj`` and ``est`` are
    overwritten; a scratch block holds mu and the rank-1 products, and one
    more block the momentum terms.
    """
    eigvals, vecs, params = basis
    tau, beta = run.tau, run.beta
    steps = len(derivs)
    total = np.zeros_like(adj)  # rows: sum_j tau c_j mu_{k,j}
    mu = np.empty_like(adj)
    momentum = np.zeros_like(adj) if beta else None  # rows: -beta mu_{k,j+1}
    step_c = diag = None  # the last step's c and multiplier
    for j in reversed(range(steps)):
        live = slice(j + 1, steps + 1)
        lam, mu_j = adj[live], mu[live]
        c, v = pr.h.hessian_factors(res[:, j])
        d = derivs[j]
        if d.min() != d.max():
            _rotated_rows(vecs, d, lam, mu_j)
        else:
            np.multiply(lam, d[0], out=mu_j)
        total[live] += np.multiply(mu_j, tau * c, out=lam)  # lam is spent
        if v is not None:
            w = np.dot(params, v)
            mw = np.dot(mu_j, w)
            est[live] -= np.outer((tau * c) * mw, v)
        if not j:  # lam_{k,0} multiplies J-hat_0 = 0
            break
        if c != step_c:
            step_c, diag = c, _step_multiplier(pr, eigvals, c, tau, beta)
        np.multiply(mu_j, diag, out=lam)
        if beta:
            lam += momentum[live]
            np.multiply(mu_j, -beta, out=momentum[live])
        if v is not None:
            lam += np.outer(mw, (tau * c) * w, out=mu_j)
    est += total @ params
    return est


def _rotated_rows(vecs, d, rows, out):
    """rows V^T diag(d) V into ``out``, the row form of
    ``_rotated_prox_derivative`` for a d with two values, 0 on Z and s on
    the support S: s (rows - (rows V_Z^T) V_Z) or s (rows V_S^T) V_S,
    whichever set is smaller."""
    zero = d == 0
    on_support = 2 * np.count_nonzero(zero) > d.size
    sel = vecs[~zero] if on_support else vecs[zero]
    np.matmul(rows @ sel.T, sel, out=out)
    if not on_support:
        np.subtract(rows, out, out=out)
    out *= d.max()


def _run_estimates(out, params, block, coefs, gx, gu, start: int):
    """Write g2 at the iterates start, start + 1, ... of the run ``block``
    of sensitivities sharing one pair (a, b) into those rows of ``out``.  A
    run with a pair opens with a dense step's or a fold's J-hat = a, whose
    estimate is a^T g + grad_u f; the steps after it take
    a^T (P o G) + b^T (Q o G) + params^T (R o G) + T C + grad_u f, with P,
    Q, R their coefficient vectors side by side, G their columns of
    V^T grad_x f, T^T the run's last ``ts`` and C the vectors U^T g of
    ``coefs``, zero-padded.  The steps with columns are the last
    len(coefs) of the run, as a run's column count never falls."""
    a, b = block[0].a, block[0].b
    if a is not None:
        out[start] = a.T @ gx[:, start] + gu[:, start]
        block, start = block[1:], start + 1
    if not block:
        return
    cols = slice(start, start + len(block))
    g = gx[:, cols]
    est = params.T @ (np.array([sens.r for sens in block]).T * g)
    if a is not None:
        est += a.T @ (np.array([sens.p for sens in block]).T * g)
        est += b.T @ (np.array([sens.q for sens in block]).T * g)
    if coefs:
        ts = block[-1].ts
        coef = np.zeros((len(ts), len(coefs)))
        for j, c in enumerate(coefs):
            coef[:len(c), j] = c
        est[:, len(block) - len(coefs):] += ts.T @ coef
    est += gu[:, cols]
    out[cols] = est.T


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
        q, r = dob.quadratic_form()
        tr = conjugate_gradient(q, r, y, cfg.iterations, tol=0.0)
    elif method == "pdhg":
        tr = _dual_pdhg(pr, dob, y, cfg)
    else:
        tau, beta = step_policy(method, *dob.curvature(), cfg.tau, cfg.beta)
        if method == "fista":
            tr = fista(dob.smooth_grad, dob.prox, y, tau, beta, cfg.iterations)
        else:
            tr = prox_gradient(
                dob.smooth_grad, prox_of(method, dob.prox_part), y, tau, beta, cfg.iterations
            )
    return GradientEstimate("dual", tr.points)


def _dual_pdhg(pr: StructuredProblem, dob: DualObjective, y0, cfg: SolverConfig):
    """PDHG on min_y k*(A^T y + shift) + [h*(y) - <linear, y>] with K = A^T,
    sigma = 1/|A|, tau = 1/|A| unless given, and theta = 1."""
    op_norm = float(np.sqrt(pr.bounds().lmax_ata))
    hstar = pr.h.conjugate()
    shift, linear = dob.shift, dob.linear

    def prox_conj(s, z):
        # prox of (k*(. + shift))* = k(.) - <shift, .>
        return pr.k.prox(s, z + s * shift)

    def prox_primal(t, z):
        return hstar.prox(t, z + t * linear)

    return pdhg(
        k_op=lambda y: pr.a.T @ y,
        k_op_adj=lambda z: pr.a @ z,
        prox_conj=prox_conj,
        prox_primal=prox_primal,
        y0=y0,
        sigma=1.0 / op_norm,
        tau=cfg.tau or 1.0 / op_norm,
        iterations=cfg.iterations,
        op_norm=op_norm,
    )


# Every NEWTON_EVERY iterations the certified solve tries NEWTON_STEPS chained
# semismooth Newton steps per live column; fd_oracle takes up to NEWTON_STEPS
# chord steps before it.
NEWTON_EVERY = 25
NEWTON_STEPS = 3


def _forward_backward(pr: StructuredProblem, x, par, tau: float):
    """T(x) = prox_{tau k}(x - tau grad f_s(x)), the prox-gradient step
    whose fixed points are the minimizers."""
    pre = x - tau * pr.primal_smooth_grad(x, par)
    prox = pr.k.prox_part
    return pre if prox is None else prox.prox(tau, pre)


def _fb_jacobian(pr: StructuredProblem, x, par, pre, tau: float):
    """The generalized Jacobian of F(x) = x - T(x) at one point x (an
    N-vector) with parameter ``par``, where T(x) = prox_{tau k}(pre) and
    ``pre`` = x - tau grad f_s(x).

    It is I - D (I - tau hess_xx_loss), with D the elastic-net prox
    derivative at ``pre`` (the one the forward sensitivities use); with a
    smooth k, F = tau grad f and the Jacobian is tau hess_xx (Stella,
    Themelis & Patrinos, 2017).
    """
    prox = pr.k.prox_part
    if prox is None:
        return tau * pr.hess_xx(x, par)
    eye = np.eye(pr.n)
    d = prox.prox_derivative(tau, pre)
    return eye - d[:, None] * (eye - tau * pr.hess_xx_loss(x, par))


def _newton_step(pr: StructuredProblem, x, par, tau: float, jac=None):
    """One semismooth Newton step per column on F(x) = x - T(x), where
    T(x) = prox_{tau k}(x - tau grad f_s(x)) and x, par are N x K and P x K.

    Each column solves with its own Jacobian (``_fb_jacobian``), or, for a
    given ``jac``, every column takes the chord step with that one matrix
    in a single solve with the N x K right-hand side (Kelley, Iterative
    Methods for Linear and Nonlinear Equations, 1995).
    """
    prox = pr.k.prox_part
    pre = x - tau * pr.primal_smooth_grad(x, par)
    # F(x), column by column replaced by the Newton step J^{-1} F(x)
    delta = x - (pre if prox is None else prox.prox(tau, pre))
    if jac is not None:
        return x - np.linalg.solve(jac, delta)
    for j in range(x.shape[1]):
        delta[:, j] = np.linalg.solve(_fb_jacobian(pr, x[:, j], par[:, j], pre[:, j], tau),
                                      delta[:, j])
    return x - delta


def _newton_polish(pr: StructuredProblem, params, y, points, live, limit, tau: float,
                   steps: int, jac=None) -> int:
    """Up to ``steps`` chained Newton steps (``_newton_step``, chord steps
    for a given ``jac``) from y, the N x K block of the ``live`` columns of
    ``points``.  A Newton point y is used only if it passes the
    certificate |y - T(y)| <= limit[j]: the column is then certified at
    T(y), written to ``points`` and cleared from ``live``, and leaves the
    block.  Returns the number of steps taken."""
    cols = np.flatnonzero(live)
    taken = 0
    while taken < steps and cols.size:
        taken += 1
        y = _newton_step(pr, y, params[:, cols], tau, jac)
        y_plus = _forward_backward(pr, y, params[:, cols], tau)
        done = np.linalg.norm(y - y_plus, axis=0) <= limit[cols]
        points[:, cols[done]] = y_plus[:, done]
        live[cols[done]] = False
        cols, y = cols[~done], y[:, ~done]
    return taken


def _certified_solve(pr: StructuredProblem, params, x0, limit, max_iterations: int):
    """Solve min_x f(x, u_j) for every column u_j of ``params`` (P x K).

    ``accelerated_steps`` runs on the whole N x K block, every column from
    ``x0`` (N x K), with fista's step 1/L and momentum from ``step_policy``.
    With x+ = T(z) the prox-gradient step from the extrapolated point z, a
    column is certified at x+ once |z - x+| <= limit[j]; it then leaves the
    ``live`` mask and its point is kept, while the block keeps iterating.
    Every NEWTON_EVERY iterations ``_newton_polish`` tries up to
    NEWTON_STEPS chained Newton steps on the live columns, under the same
    certificate; a column it does not certify goes on with the accelerated
    iteration untouched.  The momentum is not restarted from a Newton
    point: one from a wrong active set can still undercut an early
    accelerated iterate's objective, and restarting there stalls
    ill-conditioned problems.  Correctness rests on the certificate alone.
    Returns (points, certified), certified False for the columns that
    reached ``max_iterations`` (all of them, at ``x0``, when it is 0).

    It is the fallback of ``oracle_primal_solve``, whose line-searched
    Newton phase does the cold centre solves, and of ``fd_oracle``'s chord
    steps.  The polish stays for the centre solves: the four that fall back
    on the default grid over seeds 0-20 (the P=10 cells of f3 at seeds 1,
    16 and 17 and of f4 at seed 5) certify either way, but the whole
    ``oracle_primal_solve`` takes 139-213 ms each without it and 10-92 ms
    with it (2-core x86-64, one BLAS thread).
    """
    tau, beta = step_policy("fista", *pr.curvature())
    prox = pr.k.prox_part
    points = np.array(x0, dtype=float)
    live = np.ones(points.shape[1], dtype=bool)  # columns not yet certified
    x = points
    steps = accelerated_steps(
        lambda z: pr.primal_smooth_grad(z, params), None if prox is None else prox.prox,
        x0, tau, beta, max_iterations,
    )
    for it, (z, x) in enumerate(steps, 1):
        done = live & (np.linalg.norm(z - x, axis=0) <= limit)
        points[:, done] = x[:, done]
        live &= ~done
        if it % NEWTON_EVERY == 0 and live.any():
            _newton_polish(pr, params, x[:, live], points, live, limit, tau, NEWTON_STEPS)
        if not live.any():
            break
    points[:, live] = x[:, live]
    return points, ~live


# Armijo sufficient-decrease constant of the Newton line search, and the step
# length below which the Newton phase hands its point to _certified_solve.
ARMIJO = 1e-4
MIN_STEP = 1e-12


def _min_norm_subgradient(pr: StructuredProblem, x, u):
    """The minimum-norm subgradient of the whole objective f(., u) at x.

    For the elastic net it is the smooth gradient plus lam x, with
    gamma sign(x) added where x != 0 and soft-thresholded by gamma where
    x = 0; with a smooth k it is the gradient.
    """
    g = pr.primal_smooth_grad(x, u)
    prox = pr.k.prox_part
    if prox is None:
        return g
    g = g + prox.lam * x
    return np.where(x != 0, g + prox.gamma * np.sign(x), soft_threshold(g, prox.gamma))


def _newton_solve(pr: StructuredProblem, u, x, limit: float, max_iterations: int):
    """Line-searched Newton phase of ``oracle_primal_solve``; returns
    (point, Newton steps taken, certified).

    Each step takes the semismooth Newton point y of ``_newton_step`` and
    stops certified at T(y) once |y - T(y)| <= limit, the certificate of
    ``_certified_solve``.  Otherwise it searches along d = y - x: with a
    smooth k the trial point is x + t d (damped Newton; Stella, Themelis &
    Patrinos, 2017), for the elastic net x + t d projected onto the orthant
    sign(x), or -sign(pg) at zero coordinates, with pg the minimum-norm
    subgradient (orthant-wise Newton; Byrd, Chin, Nocedal & Oztoprak,
    Math. Program. 2016).  t halves from 1 until the Armijo test
    F(x_t) < F(x) + ARMIJO pg.(x_t - x) on the whole objective passes.  The
    phase gives up uncertified at x on a non-finite direction, a direction
    that does not descend (d.pg >= 0), a step below MIN_STEP, or after
    ``max_iterations`` steps.
    """
    tau = 1.0 / pr.curvature()[0]
    prox = pr.k.prox_part
    value = pr.primal_value(x, u)
    for steps in range(1, max_iterations + 1):
        y = _newton_step(pr, x[:, None], u[:, None], tau)[:, 0]
        y_plus = _forward_backward(pr, y, u, tau)
        if np.linalg.norm(y - y_plus) <= limit:
            return y_plus, steps, True
        d = y - x
        pg = _min_norm_subgradient(pr, x, u)
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
    x0=None,
    max_iterations: int = 40_000,
    tol: float = 1e-7,
):
    """Certified primal solve for oracle use; returns (x, value, converged).

    A line-searched Newton phase (``_newton_solve``) runs from ``x0``; if
    it stops uncertified, the one-column ``_certified_solve`` goes on from
    its point with the iterations left, each Newton step having counted as
    one.  On the default grid at seed 0 the Newton phase certifies all 15
    centre solves in 366 steps, 0.14-0.15 s where the accelerated loop
    alone took 1.3-1.5 s (2-core x86-64, one BLAS thread); over seeds
    0-20, 4 of 315 solves need the fallback.

    ``tol`` is in gradient units: with G = (z - x+)/tau,
    G - grad f_s(z) + grad f_s(x+) is a subgradient at x+ of norm at most
    (1 + tau L)|G| = 2|G|, so m-strong convexity gives |x+ - x*| <= 2|G|/m
    and the dual point grad h(b - A x+ + u) lies within L_h |A| 2|G|/m of
    grad p(u).  Both phases stop once that bound is at most ``tol``;
    ``converged`` is False if the solve reached ``max_iterations`` first.
    """
    u = np.asarray(u, dtype=float)
    lips, m = pr.curvature()
    lips_dual = pr.h.profile().lips * np.sqrt(pr.bounds().lmax_ata)  # L_h |A|
    limit = np.array([tol * m / (2.0 * lips_dual * lips)])  # tau times the |G| bound
    x0 = np.zeros(pr.n) if x0 is None else np.asarray(x0, dtype=float)
    x, steps, certified = _newton_solve(pr, u, x0, limit[0], max_iterations)
    if not certified:
        points, done = _certified_solve(
            pr, u[:, None], x[:, None], limit, max_iterations - steps
        )
        x, certified = points[:, 0], bool(done[0])
    return x, pr.primal_value(x, u), certified


def value_function(pr: StructuredProblem, u, warm=None, **kwargs):
    """p(u), exactly for a quadratic problem (``is_quadratic``), otherwise by
    an oracle-grade solve; returns (value, minimizer, converged)."""
    u = np.asarray(u, dtype=float)
    if pr.is_quadratic():
        # Closed form up to the h scale: solve grad = 0 directly.
        s, lam = pr.h.modulus, pr.k.modulus
        rhs = s * pr.a.T @ (pr.b + u) - pr.c
        x = np.linalg.solve(s * pr.gram + lam * np.eye(pr.n), rhs)
        return pr.primal_value(x, u), x, True
    x, val, ok = oracle_primal_solve(pr, u, x0=warm, **kwargs)
    return val, x, ok


def fd_oracle(
    pr: StructuredProblem,
    u,
    eps: float = 1e-5,
    max_iterations: int = 40_000,
    tol: float = 1e-6,
    warm=None,
) -> GradientEstimate:
    """Central-difference gradient of the value function.

    Coordinate i uses the step s_i = eps * (1 + |u_i|).  A quadratic
    problem (``is_quadratic``) takes its closed form; otherwise the 2P
    perturbed problems at u +- s_i e_i are solved together as the columns
    of one N x 2P block, every column starting from ``warm``, the minimizer
    at u (solved here when not given).  ``_newton_polish`` first takes up
    to NEWTON_STEPS chord Newton steps on the block, all with the one
    Jacobian ``_fb_jacobian`` of F(x) = x - T(x) at (warm, u), each step a
    single solve.  The columns they leave uncertified go to
    ``_certified_solve`` from ``warm``, with the iterations left, each
    chord step having counted as one.

    Certificate: at a point z with x+ = T(z) = prox(z - tau grad(z)), the
    gradient mapping G = (z - x+)/tau makes G - grad(z) + grad(x+) a
    subgradient of the objective at x+ of norm at most (1 + tau L)|G| =
    2|G|, so m-strong convexity bounds the value error by 2|G|^2/m
    (Nesterov, Math. Prog. 2013).  Both values of coordinate i err upwards,
    so its difference quotient is off by at most the larger error over
    2 s_i.  A column is frozen once |G| <= sqrt(tol * m * s_i), which keeps
    that error within ``tol`` (gradient units); the O(eps^2) truncation
    error and the round-off in evaluating p come on top.  Correctness
    rests on the certificate alone, whichever phase passes it.  The
    estimate is flagged if some column reaches ``max_iterations``.

    On the default grid over seeds 0-20 the chord steps certify all 31,500
    columns.  At seed 0 the 15 blocks take 12-18 ms in all, where the
    accelerated loop with its Newton polish took 152-202 ms (2-core x86-64,
    one BLAS thread).
    """
    u = np.asarray(u, dtype=float)
    steps = eps * (1.0 + np.abs(u))
    # column i is u + s_i e_i, column P + i is u - s_i e_i
    params = u[:, None] + np.hstack([np.diag(steps), np.diag(-steps)])
    if pr.is_quadratic():
        vals = np.array([value_function(pr, col)[0] for col in params.T])
        flagged = False
    else:
        lips, m = pr.curvature()
        if warm is None:
            warm = oracle_primal_solve(pr, u, max_iterations=max_iterations)[0]
        warm = np.asarray(warm, dtype=float)
        # |z - x+| bound per column, i.e. tau times the |G| bound
        limit = np.sqrt(tol * m * np.concatenate([steps, steps])) / lips
        start = np.repeat(warm[:, None], 2 * pr.p, axis=1)
        tau = 1.0 / lips
        jac = _fb_jacobian(pr, warm, u, warm - tau * pr.primal_smooth_grad(warm, u), tau)
        points, live = start.copy(), np.ones(2 * pr.p, dtype=bool)
        taken = _newton_polish(pr, params, start, points, live, limit, tau,
                               min(NEWTON_STEPS, max_iterations), jac)
        if live.any():
            rest, certified = _certified_solve(pr, params[:, live], start[:, live],
                                               limit[live], max_iterations - taken)
            points[:, live] = rest
            live[live] = ~certified
        flagged = bool(live.any())
        vals = pr.primal_value(points, params)
    g = (vals[: pr.p] - vals[pr.p :]) / (2.0 * steps)
    return GradientEstimate("fd", g[None, :], flagged=flagged)


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
    return ToyRun(points, analytic, jacs * grad + du, analytic.copy(), dual.points, truth)
