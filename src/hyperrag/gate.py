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

import math
from dataclasses import dataclass, field

import numpy as np

from .alignment import KnowledgeItem, Query
from .errors import ConfigurationError, ContractViolation, DivergenceError, check_config_fields

LOG_CLAMP = 1e-12
THETA_GRID = [round(i / 100.0, 2) for i in range(101)]


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


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

    def input_vector(self, query: Query, doc: KnowledgeItem) -> np.ndarray:
        z = np.concatenate([query.combined_features, doc.features])
        if z.size != self.query_dim + self.item_dim:
            raise ConfigurationError(
                f"feature sizes ({query.combined_features.size} + {doc.features.size}) "
                f"do not match head configuration ({self.query_dim} + {self.item_dim})"
            )
        return z

    def input_rows(self, query: Query, docs: list[KnowledgeItem]) -> np.ndarray:
        """``input_vector`` of each doc, stacked: shape (len(docs), d)."""
        rows = [self.input_vector(query, doc) for doc in docs]
        return np.stack(rows) if rows else np.empty((0, self.query_dim + self.item_dim))

    def forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations (n, hidden) and raw scores (n,) of stacked
        inputs z (n, d).  ``matmul`` over a stack of column vectors makes
        the one GEMV per row that ``w1 @ z`` makes for one vector, so each
        row keeps the bits of a one-row pass; ``z @ w1.T`` would not."""
        h = np.tanh(np.matmul(self.w1, z[:, :, None])[:, :, 0] + self.b1)
        return h, np.matmul(h[:, None, :], self.w2)[:, 0] + self.b2

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.named_params()}

    def apply_grads(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, arr in self.named_params():
            arr -= lr * grads[name]

    # Flat views for finite-difference gradient checks.
    def get_flat(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.named_params()])

    def set_flat(self, flat: np.ndarray) -> None:
        start = 0
        for name, arr in self.named_params():
            setattr(self, name, flat[start : start + arr.size].reshape(arr.shape).copy())
            start += arr.size

    def flat_grads(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([grads[name].ravel() for name, _ in self.named_params()])


def relevance(head: RelevanceHead, query: Query, doc: KnowledgeItem) -> float:
    """sigmoid of the head's raw score; strictly inside (0, 1)."""
    return sigmoid(float(head.forward(head.input_rows(query, [doc]))[1][0]))


def filter_relevant(
    head: RelevanceHead, query: Query, docs: list[KnowledgeItem]
) -> list[KnowledgeItem]:
    """Order-preserving subset of docs with relevance strictly above 0.5."""
    _, raw = head.forward(head.input_rows(query, docs))
    return [doc for doc, x in zip(docs, raw.tolist()) if sigmoid(x) > 0.5]


CrmBatch = list[tuple[Query, list[KnowledgeItem], list[KnowledgeItem]]]


def crm_loss(head: RelevanceHead, batch: CrmBatch) -> float:
    return crm_loss_and_grads(head, batch, want_grads=False)[0]


def _crm_rows(head: RelevanceHead, batch: CrmBatch) -> list[tuple[np.ndarray, list[bool]]]:
    """Each query's stacked input rows, positives first, and their labels."""
    rows = []
    for query, positives, negatives in batch:
        if not positives and not negatives:
            raise ContractViolation(
                f"query {query.id!r} carries neither positive nor negative documents"
            )
        is_pos = [True] * len(positives) + [False] * len(negatives)
        rows.append((head.input_rows(query, positives + negatives), is_pos))
    return rows


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """a[0] + a[1] + ... in row order, as a ``+=`` loop adds them: reduce
    over the leading axis adds whole slices in order, but sums one-element
    slices pairwise, so those take the running sum (``accumulate``)."""
    return np.add.accumulate(a, axis=0)[-1] if a[0].size == 1 else np.add.reduce(a, axis=0)


def _crm_stacked(head: RelevanceHead, rows, want_grads: bool):
    z = np.concatenate([r for r, _ in rows])
    h, raw = head.forward(z)
    total = 0.0
    kept, upstream = [], []
    for i, (x, pos) in enumerate(zip(raw.tolist(), (p for _, ps in rows for p in ps))):
        r = sigmoid(x)
        p = r if pos else 1.0 - r
        total += -math.log(max(p, LOG_CLAMP))
        if p > LOG_CLAMP:
            kept.append(i)
            # d(-log r)/d raw = r - 1 for positives; r for negatives.
            upstream.append((r - 1.0) if pos else r)
    clamped = len(raw) - len(kept)
    if not want_grads:
        return total, None, clamped
    grads = head.zero_grads()
    if kept:
        h, z, up = h[kept], z[kept], np.array(upstream)[:, None]
        dh = up * head.w2 * (1.0 - h * h)
        # Column k of dh^T [z | 1] adds dh[i] * z[i, k] over rows i in
        # order, as a per-pair loop does; the ones column gives b1 and
        # keeps einsum off its contiguous-dot path, which sums in another
        # order when hidden and width are both 1.
        g1 = np.einsum("ij,ik->jk", dh, np.concatenate([z, np.ones((len(z), 1))], axis=1))
        grads["w1"] += g1[:, :-1]
        grads["b1"] += g1[:, -1]
        grads["w2"] += _sum_rows(up * h)
        grads["b2"] += _sum_rows(up)
    return total, grads, clamped


def crm_loss_and_grads(head: RelevanceHead, batch: CrmBatch, want_grads: bool = True):
    """Contrastive loss summed over queries:
    -(sum log r_i over positives + sum log(1 - r_j) over negatives),
    log arguments clamped below at 1e-12 (a clamped pair adds no gradient).
    One stacked pass over the batch's (query, document) pairs, bit for bit
    equal to adding the pairs one at a time, in batch order."""
    return _crm_stacked(head, _crm_rows(head, batch), want_grads)[:2]


def fit_theta(pairs: list[tuple[float, bool]]) -> tuple[float, float]:
    """Grid-search theta over {0.00, 0.01, ..., 1.00} maximizing gating
    accuracy on (sigma, needs_retrieval) pairs; ties resolve to the lowest
    theta.  Returns (theta, accuracy)."""
    if not pairs:
        raise ContractViolation("fit_theta requires at least one (sigma, label) pair")
    accuracy = {
        theta: sum((decide(sigma, theta) == 1) == bool(needs) for sigma, needs in pairs)
        / len(pairs)
        for theta in THETA_GRID
    }
    # max() keeps the first of equal keys: the lowest theta.
    best = max(THETA_GRID, key=accuracy.__getitem__)
    return best, accuracy[best]


@dataclass(frozen=True)
class CrmConfig:
    hidden: int = 512
    lr: float = 0.1
    epochs: int = 200
    seed: int = 0
    batch_size: int = 0  # 0 = full batch

    def validate(self):
        check_config_fields(self)
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1 or self.hidden < 1 or self.batch_size < 0:
            raise ConfigurationError("epochs and hidden must be >= 1, batch_size >= 0")


@dataclass
class CrmTrace:
    """Each epoch's loss is the sum of its steps' losses."""

    epoch_losses: list[float] = field(default_factory=list)
    theta_accuracy: float = 0.0


def _checked_pass(head: RelevanceHead, rows, step: int, want_grads: bool = True):
    loss, grads, clamped = _crm_stacked(head, rows, want_grads)
    if clamped:  # a NaN score is not kept either: a non-finite loss has clamped pairs
        message = f"relevance head saturated: {clamped} pairs at the log clamp or NaN"
        raise DivergenceError(message, step=step)
    return loss, grads


def train_crm(
    labeled: CrmBatch,
    gating_pairs: list[tuple[float, bool]],
    config: CrmConfig,
    query_dim: int,
    item_dim: int,
) -> tuple[RelevanceHead, float, CrmTrace]:
    """Gradient descent on the contrastive loss, then theta from
    ``fit_theta``'s grid search on the same gating pairs (no held-out
    split; theta never depends on the head); deterministic given
    config.seed.  Each query's input rows are stacked once, for every step.
    A step's pass, or one full-set pass over the returned head, with a pair
    at the log clamp or a non-finite loss raises DivergenceError, without
    a RuntimeWarning."""
    config.validate()
    if not labeled:
        raise ContractViolation("train_crm requires a labeled corpus")
    n_pos = sum(len(p) for _, p, _ in labeled)
    n_neg = sum(len(n) for _, _, n in labeled)
    if n_pos == 0 or n_neg == 0:
        raise ContractViolation(
            f"labeled corpus needs both positives and negatives (got {n_pos} pos, {n_neg} neg)"
        )
    head = RelevanceHead(query_dim, item_dim, hidden=config.hidden, seed=config.seed)
    rows = _crm_rows(head, labeled)
    rng = np.random.default_rng(config.seed)
    trace = CrmTrace()
    step = 0
    size = config.batch_size or len(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(config.epochs):
            order = rng.permutation(len(rows)) if config.batch_size else range(len(rows))
            epoch_loss = 0.0
            for s in range(0, len(rows), size):
                loss, grads = _checked_pass(head, [rows[i] for i in order[s : s + size]], step)
                head.apply_grads(grads, config.lr)
                epoch_loss += loss
                step += 1
            trace.epoch_losses.append(epoch_loss)
        _checked_pass(head, rows, step, want_grads=False)
    theta, acc = fit_theta(gating_pairs)
    trace.theta_accuracy = acc
    return head, theta, trace
