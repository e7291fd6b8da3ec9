"""Discrete 2-Wasserstein machinery for the global-coherence loss.

Two solvers over empirical distributions with squared-Euclidean ground
cost: an exact linear program for small supports and a log-domain
entropic scaling iteration for everything else.  Both return the
transport cost in sqrt units, sqrt(sum_ij pi_ij * c_ij), together with a
plan whose marginals are feasible within tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalError

EXACT_SUPPORT_LIMIT = 64
WEIGHT_ATOL = 1e-9
PLAN_MARGINAL_ATOL = 1e-6
SINKHORN_TARGET = 1e-9


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Weighted point cloud: support rows share a dimension, weights are a
    probability vector."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=float)
        if sup.ndim == 1:
            sup = sup[:, None]
        if sup.ndim != 2 or sup.shape[0] < 1:
            raise ContractViolation("support must be a nonempty 2-D array")
        if not np.all(np.isfinite(sup)):
            raise ContractViolation("support contains non-finite entries")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (sup.shape[0],):
            raise ContractViolation(
                f"weights shape {w.shape} does not match support size {sup.shape[0]}"
            )
        if not np.all(np.isfinite(w)) or w.min() < 0.0:
            raise ContractViolation("weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_ATOL:
            raise ContractViolation(f"weights sum to {w.sum():.12f}, expected 1")
        sup = sup.copy()
        w = w.copy()
        sup.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @staticmethod
    def uniform(support) -> "EmpiricalDistribution":
        sup = np.asarray(support, dtype=float)
        n = sup.shape[0]
        return EmpiricalDistribution(sup, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class DistributionStack:
    """Empirical distributions of any support sizes; ``size`` is the widest."""

    rows: tuple[EmpiricalDistribution, ...]

    def __post_init__(self):
        if not self.rows:
            raise ContractViolation("a stack needs one or more distributions")

    @property
    def size(self) -> int:
        return max(d.size for d in self.rows)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix with prescribed marginals."""

    coupling: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coupling, dtype=float)
        if arr.ndim != 2:
            raise ContractViolation("coupling must be a matrix")
        if not np.all(np.isfinite(arr)) or arr.min() < -1e-12:
            raise ContractViolation("coupling entries must be finite and nonnegative")
        arr = np.maximum(arr, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "coupling", arr)

    def row_marginals(self) -> np.ndarray:
        return self.coupling.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.coupling.sum(axis=0)

    def check_marginals(self, p: EmpiricalDistribution, q: EmpiricalDistribution) -> None:
        row_err = float(np.max(np.abs(self.row_marginals() - p.weights)))
        col_err = float(np.max(np.abs(self.col_marginals() - q.weights)))
        if max(row_err, col_err) > PLAN_MARGINAL_ATOL:
            raise NumericalError(
                f"transport plan marginal violation {max(row_err, col_err):.3e} "
                f"exceeds {PLAN_MARGINAL_ATOL}"
            )


def squared_cost_matrix(p: EmpiricalDistribution, q: EmpiricalDistribution) -> np.ndarray:
    """c(u, v) = |u - v|^2 between every pair of support points."""
    if p.dim != q.dim:
        raise ContractViolation(
            f"support dimensions differ: {p.dim} vs {q.dim}"
        )
    diff = p.support[:, None, :] - q.support[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _sqrt_cost(coupling: np.ndarray, cost: np.ndarray) -> float:
    return math.sqrt(max(float(np.sum(coupling * cost)), 0.0))


def wasserstein2_exact(
    p: EmpiricalDistribution, q: EmpiricalDistribution
) -> tuple[float, TransportPlan]:
    """Exact W2 via the transport linear program (HiGHS).

    Combined support size must stay within the exact-solver budget;
    larger instances belong to wasserstein2_sinkhorn.
    """
    if p.size + q.size > EXACT_SUPPORT_LIMIT:
        raise ContractViolation(
            f"combined support {p.size + q.size} exceeds the exact budget "
            f"{EXACT_SUPPORT_LIMIT}; use wasserstein2_sinkhorn"
        )
    from scipy.optimize import linprog

    cost = squared_cost_matrix(p, q)
    m, k = cost.shape
    # Equality constraints over the row-major plan: row sums = p, column
    # sums = q (drop the last column constraint, redundant since both
    # marginals sum to 1).
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(k)), np.tile(np.eye(k), m)[:-1]])
    b_eq = np.concatenate([p.weights, q.weights[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if not res.success:
        raise NumericalError(f"exact transport LP failed: {res.message}")
    coupling = res.x.reshape(m, k)
    plan = TransportPlan(_round_to_marginals(coupling, p.weights, q.weights))
    plan.check_marginals(p, q)
    return _sqrt_cost(plan.coupling, cost), plan


def _round_to_marginals(coupling: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Project an almost-feasible nonnegative coupling onto exact marginals:
    scale rows down, then columns, by ratios capped at 1 (a ratio over a
    subnormal sum overflows to inf), then add a rank-one correction."""
    pi = np.maximum(coupling, 0.0)
    with np.errstate(over="ignore"):
        row = pi.sum(axis=1)
        scale_r = np.where(row > 0, np.minimum(1.0, p / np.where(row > 0, row, 1.0)), 0.0)
        pi = pi * scale_r[:, None]
        col = pi.sum(axis=0)
        scale_c = np.where(col > 0, np.minimum(1.0, q / np.where(col > 0, col, 1.0)), 0.0)
    pi = pi * scale_c[None, :]
    err_r = p - pi.sum(axis=1)
    err_c = q - pi.sum(axis=0)
    total = err_r.sum()
    if total > 0:
        pi = pi + np.outer(err_r, err_c) / total
    return pi


def _logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over ``axis``, with the arithmetic of
    ``scipy.special.logsumexp`` (scipy 1.17) on real arrays, so results
    agree bit for bit, minus its array-API dispatch (Sinkhorn makes three
    calls per iteration on small matrices).

    Shift by the maximum, add the maximal terms as a count m:
    log1p(sum(exp(a - max) over the rest) / m) + log(m) + max; where that
    is not finite, fall back to the unshifted log(sum(exp(a))).
    """
    n = a.size if axis is None else a.shape[axis]
    if n == 1:
        # One term: scipy computes log1p(0) + log(1) + a.
        return (0.0 + np.squeeze(a, axis=axis))[()]
    if axis is None:
        axis = tuple(range(a.ndim))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
        i_max = a == a_max
        m = np.add.reduce(i_max, axis=axis, keepdims=True, dtype=float)
        s = np.add.reduce(
            np.exp(np.where(i_max, -np.inf, a) - a_max), axis=axis, keepdims=True
        )
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out_inf = np.log(np.add.reduce(np.exp(a), axis=axis, keepdims=True))
            out = np.where(finite, out, out_inf)
    return np.squeeze(out, axis=axis)[()]


def _log_weights(w: np.ndarray) -> np.ndarray:
    """log w, with -inf for zero weights."""
    return np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)


def _log_plan(f, g, cost, eps, log_p, log_q) -> np.ndarray:
    """log pi_ij = (f_i + g_j - c_ij) / eps + log p_i + log q_j (over any
    leading stack axes)."""
    scaled = (f[..., :, None] + g[..., None, :] - cost) / eps
    return scaled + log_p[..., :, None] + log_q[..., None, :]


def _sinkhorn_rows(cost, p_weights, q_weights, epsilon: float, max_iter: int, widths=None):
    """Log-domain scaling iterations for stacked problems in lock step:
    costs (B, V, K), weights (B, V) and (B, K).  Returns potentials f, g,
    and each row's convergence flag and final marginal violation.  Each row
    keeps its own epsilon-scaling ladder, stage and stopping test, and
    leaves the active set once it stops, so its outputs are those of
    solving it alone.  A row of ``widths[b]`` < K atoms ends in zero-cost,
    zero-weight atoms, whose log-weight -inf adds exact zeros to its sums.
    An epsilon so small that the scaled costs overflow makes a violation
    non-finite, which raises NumericalError at once."""
    if epsilon <= 0:
        raise ContractViolation(f"epsilon must be positive, got {epsilon}")
    if max_iter < 1:
        raise ContractViolation(f"max_iter must be >= 1, got {max_iter}")
    n = len(cost)
    f_out, g_out, violation = np.empty(p_weights.shape), np.empty(q_weights.shape), np.empty(n)
    # Annealing with warm starts: stage s runs at ladder[s] = epsilon * 2**s,
    # from the first s that reaches a tenth of the row's cost scale down to 0.
    ladder, stage = [epsilon], np.zeros(n, dtype=int)
    for b, c in enumerate(cost):
        scale = max(float(c.max(initial=0.0)), epsilon)
        while ladder[stage[b]] < scale / 10.0:
            stage[b] += 1
            if stage[b] == len(ladder):
                ladder.append(ladder[-1] * 2.0)
    ladder = np.array(ladder)
    rows, pw, g = np.arange(n), p_weights, np.zeros(q_weights.shape)
    log_p, log_q = _log_weights(pw), _log_weights(q_weights)
    # numpy sums a lone column pairwise but a column of a wider block in
    # order, so a padded one-atom row sums its own column apart.
    padded = widths is not None and cost.shape[2] > 1
    one = np.asarray(widths) == 1 if padded else np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        for it in range(max_iter):
            eps = ladder[stage][:, None, None]
            f = -eps[:, 0] * _logsumexp((g[:, None, :] - cost) / eps + log_q[:, None, :], axis=2)
            a = (f[:, :, None] - cost) / eps + log_p[:, :, None]
            g = -eps[:, 0] * _logsumexp(a, axis=1)
            if one.any():
                g[one, :1] = -eps[one, 0] * _logsumexp(a[one, :, :1], axis=1)
            marginals = np.exp(_logsumexp(_log_plan(f, g, cost, eps, log_p, log_q), axis=2))
            viol = np.max(np.abs(marginals - pw), axis=1)
            if not np.isfinite(viol).all():
                raise NumericalError(
                    f"entropic solve at epsilon {epsilon} has a non-finite marginal "
                    "violation; epsilon is too small for the cost scale"
                )
            # A stage ends at the target or, before the last stage, once the
            # plan is good enough to seed the next (smaller) epsilon.
            advance = (viol < SINKHORN_TARGET) | ((stage > 0) & (viol < 1e-3))
            done = (advance & (stage == 0)) | (it + 1 == max_iter)
            stage = stage - advance
            if done.any():
                idx, keep = rows[done], ~done
                f_out[idx], g_out[idx], violation[idx] = f[done], g[done], viol[done]
                rows, stage, g, cost, pw = rows[keep], stage[keep], g[keep], cost[keep], pw[keep]
                log_p, log_q, one = log_p[keep], log_q[keep], one[keep]
                if not rows.size:
                    break
    return f_out, g_out, violation < SINKHORN_TARGET, violation


def sinkhorn_potentials(
    p: EmpiricalDistribution,
    q: EmpiricalDistribution,
    epsilon: float,
    max_iter: int = 10000,
) -> tuple[np.ndarray, np.ndarray, bool, float]:
    """Log-domain scaling iterations for entropic OT (``_sinkhorn_rows``
    with one row).  Returns dual potentials (f, g), the convergence flag,
    and the final marginal violation."""
    f, g, converged, violation = _sinkhorn_rows(
        squared_cost_matrix(p, q)[None], p.weights[None], q.weights[None], epsilon, max_iter
    )
    return f[0], g[0], bool(converged[0]), float(violation[0])


def _rounded_plan(p, q, epsilon: float, f, g, cost: np.ndarray) -> np.ndarray:
    """The entropic plan of potentials (f, g), rounded onto the marginals."""
    with np.errstate(all="ignore"):
        log_pi = _log_plan(f, g, cost, epsilon, _log_weights(p.weights), _log_weights(q.weights))
        # Normalize total mass to 1.  A no-op at convergence; with unconverged
        # potentials it keeps the matrix finite so rounding can proceed.
        plan = _round_to_marginals(np.exp(log_pi - _logsumexp(log_pi)), p.weights, q.weights)
    if not np.isfinite(plan).all():  # a solve can stop before its ladder reaches epsilon
        raise NumericalError(f"entropic plan at epsilon {epsilon} is non-finite")
    return plan


def wasserstein2_sinkhorn(
    p: EmpiricalDistribution,
    q: EmpiricalDistribution,
    epsilon: float,
    max_iter: int = 10000,
) -> tuple[float, TransportPlan, bool]:
    """Entropic-regularized W2: value in sqrt-cost units, a marginal-exact
    plan (scaled plan rounded onto the transport polytope), and the
    convergence flag."""
    f, g, converged, _ = sinkhorn_potentials(p, q, epsilon, max_iter)
    cost = squared_cost_matrix(p, q)
    plan = TransportPlan(_rounded_plan(p, q, epsilon, f, g, cost))
    plan.check_marginals(p, q)
    return _sqrt_cost(plan.coupling, cost), plan, converged


def entropic_terms(
    p_weights: np.ndarray,
    q: DistributionStack,
    support: np.ndarray,
    epsilon: float,
    max_iter: int = 10000,
) -> list[tuple[float, np.ndarray, float]]:
    """Entropic solves of each row of ``p_weights`` (B, V) over ``support``
    against the matching row of ``q``, padded to ``q.size`` atoms, in one
    lock-step solve, each read three ways on its own atoms: the regularized
    objective OT_eps(p, q) = <pi, C> + eps * KL(pi | p x q), its gradient in
    the first marginal's weights (envelope property: the converged potential
    f, centered on the simplex), and the plan's transport cost in sqrt-cost
    units for reporting.  ``p_weights`` and ``q`` must have as many rows."""
    if len(p_weights) != len(q.rows):
        raise ContractViolation(
            f"{len(p_weights)} p_weights rows against {len(q.rows)} gold distributions"
        )
    ps = [EmpiricalDistribution(support, w) for w in p_weights]
    widths = [qb.size for qb in q.rows]
    cost, qw = np.zeros((len(ps), len(support), q.size)), np.zeros((len(ps), q.size))
    for b, (p, qb) in enumerate(zip(ps, q.rows, strict=True)):
        cost[b, :, : qb.size], qw[b, : qb.size] = squared_cost_matrix(p, qb), qb.weights
    pw = np.stack([p.weights for p in ps])
    f, g, _, _ = _sinkhorn_rows(cost, pw, qw, epsilon, max_iter, widths)
    # Dual value at feasibility: <f, p> + <g, q>; only the gradient's
    # simplex-tangential part is meaningful.
    return [
        (float(fb @ p.weights + gb[:k] @ qb.weights), fb - float(np.mean(fb)),
         _sqrt_cost(_rounded_plan(p, qb, epsilon, fb, gb[:k], cb[:, :k]), cb[:, :k]))
        for p, qb, fb, gb, cb, k in zip(ps, q.rows, f, g, cost, widths)
    ]
