"""Retrieval gating and document relevance filtering.

The gate computes a confidence sigma as the maximum softmax probability
over a finite candidate-answer set, compares it against a learned
threshold theta (strictly greater skips retrieval; ties retrieve), and
scores per-document relevance with a small two-layer head trained by a
contrastive log-likelihood loss.  Every head parameter, ``b2`` included,
is a float64 array listed by ``named_params``.  Vertex relevance over the
knowledge graph is scored by ``spectral.relevance_vector``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .alignment import KnowledgeItem, Query, affine_grads, augmented_affine_grads
from .errors import ConfigurationError, ContractViolation, DivergenceError

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

LOG_CLAMP = 1e-12
THETA_GRID = [round(i / 100.0, 2) for i in range(101)]


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """``conformance.sigmoid`` of every entry of a 1-D array, bit for bit:
    ``math.exp`` per entry (numpy's ``exp`` differs from it in the last
    bit), at -|x|, which is the argument either branch of the scalar form takes."""
    e = np.array(list(map(math.exp, (-np.abs(x)).tolist())))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def max_softmax(raw) -> float:
    """Maximum softmax probability of a raw score vector."""
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        raise ContractViolation("max_softmax requires at least one score")
    if not np.all(np.isfinite(raw)):
        raise ContractViolation("candidate scores must be finite")
    shifted = raw - raw.max()
    probs = np.exp(shifted)
    return float(probs.max() / probs.sum())


def decide(sigma: float, theta: float) -> int:
    """0 = answer directly, 1 = retrieve.  Strict inequality: sigma equal
    to theta retrieves."""
    if not (0.0 <= sigma <= 1.0 and 0.0 <= theta <= 1.0):
        raise ContractViolation(f"sigma={sigma} and theta={theta} must lie in [0,1]")
    return 0 if sigma > theta else 1


class RelevanceHead:
    """Two-layer scoring head: w2 . tanh(W1 z + b1) + b2 over the
    concatenated (query features, item features) vector z; b2 has shape
    (1,)."""

    def __init__(self, query_dim: int, item_dim: int, hidden: int = 512, seed: int = 0):
        if hidden < 1:
            raise ConfigurationError(f"hidden width must be >= 1, got {hidden}")
        self.query_dim = query_dim
        self.item_dim = item_dim
        self.hidden = hidden
        d = query_dim + item_dim
        rng = np.random.default_rng(seed)
        self.w1 = rng.uniform(-1.0, 1.0, size=(hidden, d)) / math.sqrt(d)
        self.b1 = np.zeros(hidden)
        self.w2 = rng.uniform(-1.0, 1.0, size=hidden) / math.sqrt(hidden)
        self.b2 = np.zeros(1)

    def input_rows(self, query: Query, docs: list[KnowledgeItem]) -> np.ndarray:
        """Each doc's (query features, doc features) row (the first of a wrong
        width raises), in one C-contiguous (len(docs), d) block, as ``forward`` needs."""
        q, d = query.combined_features, self.query_dim + self.item_dim
        for doc in docs:
            if q.size + doc.features.size != d:
                raise ConfigurationError(
                    f"feature sizes ({q.size} + {doc.features.size}) "
                    f"do not match head configuration ({self.query_dim} + {self.item_dim})"
                )
        z = np.empty((len(docs), d))
        if docs:
            z[:, : q.size] = q
            z[:, q.size :] = [doc.features for doc in docs]
        return z

    def forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations (n, hidden) and raw scores (n,) of stacked
        inputs z (n, d).  ``matmul`` over a stack of column vectors makes
        the one GEMV per row that ``w1 @ z`` makes for one vector, so each
        row keeps the bits of a one-row pass; ``z @ w1.T`` would not."""
        h = np.tanh(np.matmul(self.w1, z[:, :, None])[:, :, 0] + self.b1)
        return h, np.matmul(h[:, None, :], self.w2)[:, 0] + self.b2

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, arr in self.named_params():
            arr -= lr * grads[name]


def filter_relevant(
    head: RelevanceHead, query: Query, docs: list[KnowledgeItem]
) -> list[KnowledgeItem]:
    """Order-preserving subset of docs with relevance strictly above 0.5."""
    _, raw = head.forward(head.input_rows(query, docs))
    return [doc for doc, keep in zip(docs, (sigmoid_array(raw) > 0.5).tolist()) if keep]


CrmBatch = list[tuple[Query, list[KnowledgeItem], list[KnowledgeItem]]]


def _crm_rows(head: RelevanceHead, batch: CrmBatch) -> tuple[np.ndarray, np.ndarray, list]:
    """The batch's stacked input rows [z | 1] (each query's positives first;
    1 for the bias gradients), labels (True for a positive) and row positions."""
    rows, labels, spans = [], [], []
    for query, positives, negatives in batch:
        if not positives and not negatives:
            raise ContractViolation(
                f"query {query.id!r} carries neither positive nor negative documents"
            )
        start = len(labels)
        rows.append(head.input_rows(query, positives + negatives))
        labels += [True] * len(positives) + [False] * len(negatives)
        spans.append(np.arange(start, len(labels)))
    return np.column_stack([np.concatenate(rows), np.ones(len(labels))]), np.array(labels), spans


def _crm_stacked(head: RelevanceHead, z1: np.ndarray, is_pos: np.ndarray, want_grads: bool):
    """Loss, grads (None without ``want_grads``) and the number of clamped
    or NaN pairs of stacked input rows z1 = [z | 1] with labels is_pos.
    Each pair's log loss is ``math.log``, subtracted from 0.0 in row order,
    and every gradient is an ordered sum over rows: the bits of adding the
    pairs one at a time."""
    h, raw = head.forward(z1[:, :-1])
    r = sigmoid_array(raw)
    p = np.where(is_pos, r, 1.0 - r)
    # np.maximum keeps a NaN, as max(p, LOG_CLAMP) does.
    total = functools.reduce(operator.sub, map(math.log, np.maximum(p, LOG_CLAMP).tolist()), 0.0)
    kept = p > LOG_CLAMP
    clamped = len(raw) - int(np.count_nonzero(kept))
    if not want_grads:
        return total, None, clamped
    # d(-log r)/d raw = r - 1 for positives; r for negatives.
    up = np.where(is_pos, r - 1.0, r)[:, None]
    up, h, z1 = (up[kept], h[kept], z1[kept]) if clamped else (up, h, z1)
    w1, b1 = augmented_affine_grads(up * head.w2 * (1.0 - h * h), z1)
    w2, b2 = affine_grads(up, h)
    return total, {"w1": w1, "b1": b1, "w2": w2[0], "b2": b2}, clamped


def crm_loss_and_grads(head: RelevanceHead, batch: CrmBatch, want_grads=True):
    """Contrastive loss summed over queries:
    -(sum log r_i over positives + sum log(1 - r_j) over negatives),
    log arguments clamped below at 1e-12 (a clamped pair adds no gradient).
    One stacked pass over the batch's (query, document) pairs, bit for bit
    equal to adding the pairs one at a time, in batch order."""
    if not batch:
        raise ContractViolation("crm_loss_and_grads batch is empty")
    z1, is_pos, _ = _crm_rows(head, batch)
    return _crm_stacked(head, z1, is_pos, want_grads)[:2]


def fit_theta(pairs: list[tuple[float, bool]]) -> tuple[float, float]:
    """Grid-search theta over {0.00, 0.01, ..., 1.00} maximizing gating
    accuracy on (sigma, needs_retrieval) pairs; ties resolve to the lowest
    theta.  Returns (theta, accuracy).  A sigma outside [0, 1] raises as
    ``decide`` does."""
    if not pairs:
        raise ContractViolation("fit_theta requires at least one (sigma, label) pair")
    sigma = np.array([s for s, _ in pairs], dtype=float)
    outside = ~((sigma >= 0.0) & (sigma <= 1.0))
    if outside.any():
        decide(pairs[int(np.argmax(outside))][0], THETA_GRID[0])
    needs = np.array([bool(n) for _, n in pairs])
    # decide retrieves unless sigma > theta; one row of hits per theta.
    retrieves = ~(sigma > np.array(THETA_GRID)[:, None])
    hits = np.count_nonzero(retrieves == needs, axis=1).tolist()
    accuracy = {theta: n_hit / len(pairs) for theta, n_hit in zip(THETA_GRID, hits)}
    # max() keeps the first of equal keys: the lowest theta.
    best = max(THETA_GRID, key=accuracy.__getitem__)
    return best, accuracy[best]


@dataclass
class CrmTrace:
    """Each epoch's loss is the sum of its steps' losses."""

    epoch_losses: list[float] = field(default_factory=list)
    theta_accuracy: float = 0.0


def _checked_pass(head: RelevanceHead, z1, is_pos, step: int, want_grads: bool = True):
    loss, grads, clamped = _crm_stacked(head, z1, is_pos, want_grads)
    if clamped:  # a NaN score is not kept either: a non-finite loss has clamped pairs
        message = f"relevance head saturated: {clamped} pairs at the log clamp or NaN"
        raise DivergenceError(message, step=step)
    return loss, grads


def train_crm(
    labeled: CrmBatch,
    gating_pairs: list[tuple[float, bool]],
    config: PipelineConfig,
    query_dim: int,
    item_dim: int,
) -> tuple[RelevanceHead, float, CrmTrace]:
    """Gradient descent on the contrastive loss (``crm_hidden``,
    ``crm_lr``, ``crm_epochs``, ``crm_batch_size``), then theta from
    ``fit_theta``'s grid search on the same gating pairs (no held-out
    split; theta never depends on the head); deterministic given
    config.seed.  The labeled rows are stacked once, and each mini-batch
    gathers its queries' rows by index; when one batch holds every
    query, each epoch takes them in order.  A step's pass, or one
    full-set pass over the returned head, with a pair at the log clamp
    or a non-finite loss raises DivergenceError, without a RuntimeWarning."""
    config.validate()
    if not labeled:
        raise ContractViolation("train_crm requires a labeled corpus")
    n_pos = sum(len(p) for _, p, _ in labeled)
    n_neg = sum(len(n) for _, _, n in labeled)
    if n_pos == 0 or n_neg == 0:
        raise ContractViolation(
            f"labeled corpus needs both positives and negatives (got {n_pos} pos, {n_neg} neg)"
        )
    head = RelevanceHead(query_dim, item_dim, hidden=config.crm_hidden, seed=config.seed)
    z1, is_pos, spans = _crm_rows(head, labeled)
    rng = np.random.default_rng(config.seed)
    trace = CrmTrace()
    step = 0
    n, size = len(labeled), config.crm_batch_size
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(config.crm_epochs):
            # Shuffling a single batch would only reorder its sums.
            order = rng.permutation(n) if size < n else range(n)
            epoch_loss = 0.0
            for s in range(0, n, size):
                rows = np.concatenate([spans[i] for i in order[s : s + size]])
                loss, grads = _checked_pass(head, z1[rows], is_pos[rows], step)
                head.apply_grads(grads, config.crm_lr)
                epoch_loss += loss
                step += 1
            trace.epoch_losses.append(epoch_loss)
        _checked_pass(head, z1, is_pos, step, want_grads=False)
    theta, acc = fit_theta(gating_pairs)
    trace.theta_accuracy = acc
    return head, theta, trace
