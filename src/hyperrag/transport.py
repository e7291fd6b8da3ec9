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
_WHOLE_AXIS = np.zeros(1, dtype=np.intp)  # reduceat's start index for a whole axis


def _checked_weights(weights, n: int) -> np.ndarray:
    """A read-only float copy of a probability vector over n support points."""
    w = np.array(weights, dtype=float)
    if w.shape != (n,):
        raise ContractViolation(f"weights shape {w.shape} does not match support size {n}")
    if not np.all(np.isfinite(w)) or w.min() < 0.0:
        raise ContractViolation("weights must be finite and nonnegative")
    if abs(float(w.sum()) - 1.0) > WEIGHT_ATOL:
        raise ContractViolation(f"weights sum to {w.sum():.12f}, expected 1")
    w.setflags(write=False)
    return w


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
        object.__setattr__(self, "weights", _checked_weights(self.weights, sup.shape[0]))
        sup = sup.copy()
        sup.setflags(write=False)
        object.__setattr__(self, "support", sup)

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


def _reduce(ufunc, a: np.ndarray, axis, dtype=None) -> np.ndarray:
    """``ufunc.reduce`` over ``axis`` with kept dims, bit for bit on terms but -0.0:
    a last axis of 2 to 7 columns as a column chain (numpy's order below 8 terms),
    a maximum or count of booleans (order-free) over another axis by ``reduceat``."""
    if axis in (-1, a.ndim - 1) and 1 < a.shape[-1] < 8:
        out = a[..., :1]
        for j in range(1, a.shape[-1]):
            out = ufunc(out, a[..., j : j + 1], dtype=dtype)
        return out
    if isinstance(axis, int) and (ufunc is np.maximum or a.dtype == bool):
        return ufunc.reduceat(a, _WHOLE_AXIS, axis=axis, dtype=dtype)
    return ufunc.reduce(a, axis=axis, keepdims=True, dtype=dtype)


def _logsumexp(a: np.ndarray, axis=None, keepdims=False):
    """log(sum(exp(a))) over ``axis``, with the arithmetic of
    ``scipy.special.logsumexp`` (scipy 1.17) on real arrays, so results
    agree bit for bit, minus its array-API dispatch (Sinkhorn makes three
    calls per iteration on small matrices).

    Shift by the maximum, add the maximal terms as a count m:
    log1p(sum(exp(a - max) over the rest) / m) + log(m) + max; where that
    is not finite, fall back to the unshifted log(sum(exp(a))).  No sum adds -0.0, and
    the sign of a zero maximum does not reach the result.
    """
    n, axis = (a.size, tuple(range(a.ndim))) if axis is None else (a.shape[axis], axis)
    if n == 1:  # scipy computes log1p(0) + log(1) + a
        out = 0.0 + a
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_max = _reduce(np.maximum, a, axis)
            i_max = a == a_max
            m = _reduce(np.add, i_max, axis, dtype=float)
            s = _reduce(np.add, np.exp(np.where(i_max, -np.inf, a) - a_max), axis)
            s = s / m  # scipy's where(s == 0, s, s / m): m >= 1 unless a_max is NaN
            out = np.log1p(s) + np.log(m) + a_max
            finite = np.isfinite(out)
            if not finite.all():
                out = np.where(finite, out, np.log(_reduce(np.add, np.exp(a), axis)))
    return out if keepdims else np.squeeze(out, axis=axis)[()]


def _log_weights(w: np.ndarray) -> np.ndarray:
    """log w, with -inf for zero weights."""
    return np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)


def _log_plan(f, g, cost, eps, log_p, log_q) -> np.ndarray:
    """log pi_ij = (f_i + g_j - c_ij) / eps + log p_i + log q_j, from f and
    log p as columns (..., V, 1) and g and log q as rows (..., 1, K)."""
    return (f + g - cost) / eps + log_p + log_q


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
    rows, pw, g = np.arange(n), p_weights, np.zeros(q_weights.shape)[:, None, :]
    log_p, log_q = _log_weights(pw)[:, :, None], _log_weights(q_weights)[:, None, :]
    # numpy sums a lone column of 8 or more terms pairwise but a column of a
    # wider block in order, so a padded one-atom row then sums its own apart.
    padded = widths is not None and cost.shape[2] > 1 and cost.shape[1] >= 8
    one = np.asarray(widths) == 1 if padded else np.zeros(n, dtype=bool)
    changed = True
    with np.errstate(all="ignore"):
        for it in range(max_iter):
            if changed:  # a stage or the active set changed
                eps, last, any_one = ladder[stage][:, None, None], stage == 0, one.any()
                neg_eps, threshold = -eps, np.where(last, SINKHORN_TARGET, 1e-3)
            f = neg_eps * _logsumexp((g - cost) / eps + log_q, axis=2, keepdims=True)
            a = (f - cost) / eps + log_p
            g = neg_eps * _logsumexp(a, axis=1, keepdims=True)
            if any_one:
                g[one, :, :1] = neg_eps[one] * _logsumexp(a[one, :, :1], axis=1, keepdims=True)
            marginals = np.exp(_logsumexp(_log_plan(f, g, cost, eps, log_p, log_q), axis=2))
            viol = np.maximum.reduce(np.abs(marginals - pw), axis=1)
            if not np.isfinite(viol).all():
                raise NumericalError(f"entropic solve at epsilon {epsilon} has a non-finite "
                                     "marginal violation; epsilon is too small for the cost scale")
            # A stage ends at the target; one before the last (0) ends at 1e-3.
            advance = viol < threshold
            changed = np.count_nonzero(advance) > 0
            if not changed and it + 1 < max_iter:
                continue
            done = (advance & last) | (it + 1 == max_iter)
            stage = stage - advance
            if done.any():
                idx, keep = rows[done], ~done
                f_out[idx], g_out[idx], violation[idx] = f[done, :, 0], g[done, 0], viol[done]
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


def _rounded_plan(p_weights, q_weights, epsilon: float, f, g, cost: np.ndarray) -> np.ndarray:
    """The entropic plan of potentials (f, g), rounded onto the marginals."""
    with np.errstate(all="ignore"):
        log_pi = _log_plan(f[:, None], g[None, :], cost, epsilon,
                           _log_weights(p_weights)[:, None], _log_weights(q_weights)[None, :])
        # Normalize total mass to 1.  A no-op at convergence; with unconverged
        # potentials it keeps the matrix finite so rounding can proceed.
        plan = _round_to_marginals(np.exp(log_pi - _logsumexp(log_pi)), p_weights, q_weights)
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
    plan = TransportPlan(_rounded_plan(p.weights, q.weights, epsilon, f, g, cost))
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
    p = EmpiricalDistribution(support, p_weights[0])
    pw = np.stack([p.weights] + [_checked_weights(w, p.size) for w in p_weights[1:]])
    widths = [qb.size for qb in q.rows]
    cost, qw = np.zeros((len(pw), p.size, q.size)), np.zeros((len(pw), q.size))
    for b, qb in enumerate(q.rows):
        cost[b, :, : qb.size], qw[b, : qb.size] = squared_cost_matrix(p, qb), qb.weights
    f, g, _, _ = _sinkhorn_rows(cost, pw, qw, epsilon, max_iter, widths)
    # Dual value at feasibility: <f, p> + <g, q>; only the gradient's
    # simplex-tangential part is meaningful.
    return [
        (float(fb @ wb + gb[:k] @ qb.weights), fb - float(np.mean(fb)),
         _sqrt_cost(_rounded_plan(wb, qb.weights, epsilon, fb, gb[:k], cb[:, :k]), cb[:, :k]))
        for wb, qb, fb, gb, cb, k in zip(pw, q.rows, f, g, cost, widths)
    ]
