"""Answer-generation objectives: token cross-entropy, 2-Wasserstein
global coherence, their blend, the query-dropout schedule, and a toy
conditional generator to exercise the whole path.

The generator is deliberately small: one linear map from the pooled
condition embedding (query tangent at the origin, concatenated with the
mean evidence tangent) to vocabulary logits.  There are no positional
parameters, so greedy decoding emits a constant token per input; the
synthetic answer sets are built to be memorizable exactly by that
capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .alignment import EmbeddingTable, Query, embed_query_rows
from .errors import ConfigurationError, ContractViolation, DivergenceError
from .gate import LOG_CLAMP
from .geometry import log_map  # noqa: F401 (perfbench's tracer test rebinds it here)
from .geometry import origin_log_rows
from .transport import DistributionStack, EmpiricalDistribution, entropic_terms

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

DISTRIBUTION_ROW_ATOL = 1e-9
# train_generation's full-batch step, epochs and dropout decay; phase 2 has its own.
GEN_LR = 0.5
GEN_EPOCHS = 40
GEN_T_DECAY = 5.0


@dataclass(frozen=True)
class TokenSequence:
    """Answer token indices drawn from a fixed vocabulary."""

    tokens: tuple[int, ...]
    vocab_size: int

    def __post_init__(self):
        toks = tuple(int(t) for t in self.tokens)
        if len(toks) < 1:
            raise ContractViolation("token sequence must be nonempty")
        if self.vocab_size < 1:
            raise ContractViolation(f"vocab_size must be >= 1, got {self.vocab_size}")
        for t in toks:
            if t < 0 or t >= self.vocab_size:
                raise ContractViolation(
                    f"token {t} outside vocabulary of size {self.vocab_size}"
                )
        object.__setattr__(self, "tokens", toks)

    @property
    def length(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TokenDistributionSequence:
    """Per-position probability rows over the vocabulary."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ContractViolation("distribution rows must form a nonempty matrix")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0:
            raise ContractViolation("distribution entries must be finite and nonnegative")
        sums = arr.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > DISTRIBUTION_ROW_ATOL:
            raise ContractViolation("each distribution row must sum to 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def length(self) -> int:
        return self.rows.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.rows.shape[1]


def local_loss(pred: TokenDistributionSequence, target: TokenSequence) -> float:
    """Token-level cross-entropy, probabilities clamped below at 1e-12."""
    if pred.length != target.length:
        raise ContractViolation(
            f"prediction length {pred.length} != target length {target.length}"
        )
    if pred.vocab_size < target.vocab_size:
        raise ContractViolation(
            f"prediction vocab {pred.vocab_size} smaller than target vocab "
            f"{target.vocab_size}"
        )
    total = 0.0
    for row, tok in zip(pred.rows, target.tokens):
        total -= math.log(max(float(row[tok]), LOG_CLAMP))
    return total


def gen_loss(local: float, global_w2: float, alpha: float) -> float:
    """alpha-blend of the local and global terms; alpha is strictly
    interior so neither term can be silently disabled."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha * local + (1.0 - alpha) * global_w2


def query_dropout_prob(t: int, t_decay: float) -> float:
    """p(t) = 0.5 * exp(-t / T_decay)."""
    if t < 0:
        raise ContractViolation(f"step t must be nonnegative, got {t}")
    if t_decay <= 0:
        raise ConfigurationError(f"T_decay must be positive, got {t_decay}")
    return 0.5 * math.exp(-t / t_decay)


def apply_query_dropout(query: Query, p: float, seed) -> Query:
    """Zero-mask the visual and textual feature blocks independently with
    probability p; deterministic per seed."""
    if not 0.0 <= p <= 1.0:
        raise ContractViolation(f"dropout probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    visual = np.zeros_like(query.visual_features) if rng.random() < p else query.visual_features
    textual = np.zeros_like(query.text_features) if rng.random() < p else query.text_features
    return Query(query.id, visual, textual)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    expd = np.exp(shifted)
    return expd / expd.sum()


class ToyGenerator:
    """Linear conditional next-token model: logits = W z + b over the
    vocabulary, with z the pooled condition vector.  Zero-initialized, so
    the untrained model emits uniform distributions."""

    def __init__(self, vocab_size: int, context_dim: int):
        if vocab_size < 1 or context_dim < 1:
            raise ContractViolation(
                f"vocab_size and context_dim must be >= 1, got {vocab_size}, {context_dim}"
            )
        self.vocab_size = vocab_size
        self.context_dim = context_dim
        self.weight = np.zeros((vocab_size, context_dim))
        self.bias = np.zeros(vocab_size)

    def logits(self, z: np.ndarray) -> np.ndarray:
        if z.shape != (self.context_dim,):
            raise ContractViolation(
                f"condition vector shape {z.shape} != ({self.context_dim},)"
            )
        out = self.weight @ z + self.bias
        if not np.all(np.isfinite(out)):
            raise DivergenceError("generator logits are non-finite")
        return out

    def named_params(self):
        return [("gen.weight", self.weight), ("gen.bias", self.bias)]

    def copy(self) -> "ToyGenerator":
        dup = ToyGenerator(self.vocab_size, self.context_dim)
        dup.weight = self.weight.copy()
        dup.bias = self.bias.copy()
        return dup


def condition_vector(query_tangent: np.ndarray, evidence_rows: np.ndarray) -> np.ndarray:
    """Concatenate the query's tangent row at the origin with the mean of
    the evidence's (zeros when there is no evidence).  A tangent row is
    ``origin_log_rows(rows)[:, 1:]`` of a hyperboloid row; the query's
    comes from ``embed_query_rows``.  Mean pooling is linear in the tangent
    space at the origin, so it reads the rows as they are."""
    ev = np.mean(evidence_rows, axis=0) if len(evidence_rows) else np.zeros(len(query_tangent))
    return np.concatenate([query_tangent, ev])


def generate(
    gen: ToyGenerator, query_tangent: np.ndarray, evidence_rows: np.ndarray, max_len: int
) -> TokenSequence:
    """Greedy decoding conditioned on the query's origin tangent row and the
    evidence rows (retrieved items, then subgraph triplets); argmax ties
    resolve to the lowest token index.  The model has no positional
    parameters, so the answer repeats one token ``max_len`` times."""
    if max_len < 1:
        raise ContractViolation(f"max_len must be >= 1, got {max_len}")
    z = condition_vector(query_tangent, evidence_rows)
    token = int(np.argmax(softmax(gen.logits(z))))
    return TokenSequence((token,) * max_len, gen.vocab_size)


@dataclass(frozen=True)
class GenExample:
    """The query the generator reads (dropped out, in training), its evidence
    as origin tangent rows (k, dim), and its gold answer.
    ``condition_vector`` reads only the rows' mean, and the mean of one row
    is that row, so phase 2 stores each gated example's mean row (1, dim)."""

    query: Query
    evidence: np.ndarray
    gold: TokenSequence


@dataclass(frozen=True)
class GenDataset:
    examples: tuple[GenExample, ...]
    table: EmbeddingTable
    token_embeddings: np.ndarray

    def __post_init__(self):
        if not self.examples:
            raise ContractViolation("generation dataset must be nonempty")
        emb = np.asarray(self.token_embeddings, dtype=float)
        if emb.ndim != 2:
            raise ContractViolation("token embeddings must be a 2-D array")
        vocab = self.examples[0].gold.vocab_size
        if emb.shape[0] != vocab:
            raise ContractViolation(
                f"token embedding rows {emb.shape[0]} != vocabulary size {vocab}"
            )
        for ex in self.examples:
            if ex.gold.vocab_size != vocab:
                raise ContractViolation("examples disagree on vocabulary size")
        object.__setattr__(self, "examples", tuple(self.examples))
        object.__setattr__(self, "token_embeddings", emb)

    @property
    def vocab_size(self) -> int:
        return self.examples[0].gold.vocab_size


@dataclass
class GenTrace:
    local: list[float] = field(default_factory=list)
    global_w2: list[float] = field(default_factory=list)
    blended: list[float] = field(default_factory=list)
    dropout_probs: list[float] = field(default_factory=list)


def gold_distribution(gold: TokenSequence, token_embeddings: np.ndarray) -> EmpiricalDistribution:
    """Empirical distribution of the reference answer: unique tokens
    weighted by their counts."""
    uniq, counts = np.unique(np.array(gold.tokens), return_counts=True)
    weights = counts.astype(float) / counts.sum()
    return EmpiricalDistribution(token_embeddings[uniq], weights)


def example_losses_and_grad(
    gen: ToyGenerator,
    table: EmbeddingTable,
    examples: list[GenExample],
    token_embeddings: np.ndarray,
    alpha: float,
    epsilon: float,
    ot_max_iter: int = 2000,
) -> list[tuple[float, float, np.ndarray, np.ndarray]]:
    """Per example, conditioned on its own query: local CE, global
    sqrt-cost W2, the blended logits gradient alpha * dCE + (1 - alpha) *
    dOT_eps, and the condition vector.  The global gradient descends the
    entropic objective (envelope potentials through the softmax Jacobian),
    solved in one ``entropic_terms`` call once every example is prepared
    (and every query lifted, in one row pass, before that)."""
    prepared = []
    tangents = origin_log_rows(embed_query_rows(table, [ex.query for ex in examples]))[:, 1:]
    for example, q_tan in zip(examples, tangents):
        z = condition_vector(q_tan, example.evidence)
        probs = softmax(gen.logits(z))
        gold = example.gold
        counts = np.bincount(np.array(gold.tokens), minlength=gen.vocab_size).astype(float)
        local = float(-np.sum(counts * np.log(np.maximum(probs, LOG_CLAMP))))
        q = gold_distribution(gold, token_embeddings)
        prepared.append((z, probs, local, gold.length * probs - counts, q))
    probs = np.array([prep[1] for prep in prepared])
    stack = DistributionStack(tuple(prep[4] for prep in prepared))
    terms = entropic_terms(probs, stack, token_embeddings, epsilon, ot_max_iter)
    out = []
    for (z, probs, local, grad_local, _), (_, grad_f, sqrt_cost) in zip(prepared, terms):
        grad_global = probs * (grad_f - float(grad_f @ probs))
        out.append((local, sqrt_cost, alpha * grad_local + (1.0 - alpha) * grad_global, z))
    return out


def train_generation(
    gen: ToyGenerator, dataset: GenDataset, config: PipelineConfig
) -> tuple[ToyGenerator, GenTrace]:
    """``GEN_EPOCHS`` full-batch steps of the blended objective with the
    query-dropout schedule active; reads ``alpha``, ``seed``, ``epsilon``
    and ``ot_max_iter`` of ``config``, and is deterministic per seed."""
    config.validate()
    gen = gen.copy()
    trace = GenTrace()
    n = len(dataset.examples)
    for epoch in range(GEN_EPOCHS):
        p_t = query_dropout_prob(epoch, GEN_T_DECAY)
        grad_w = np.zeros_like(gen.weight)
        grad_b = np.zeros_like(gen.bias)
        dropped = [
            GenExample(apply_query_dropout(ex.query, p_t, seed=(config.seed, epoch, idx)),
                       ex.evidence, ex.gold)
            for idx, ex in enumerate(dataset.examples)
        ]
        try:
            terms = example_losses_and_grad(
                gen, dataset.table, dropped, dataset.token_embeddings,
                config.alpha, config.epsilon, config.ot_max_iter,
            )
        except DivergenceError as exc:
            raise DivergenceError(str(exc), step=epoch) from exc
        sum_local = sum_global = 0.0
        for local, sqrt_cost, grad_logits, z in terms:
            sum_local += local
            sum_global += sqrt_cost
            grad_w += np.outer(grad_logits, z)
            grad_b += grad_logits
        mean_local = sum_local / n
        mean_global = sum_global / n
        if not (math.isfinite(mean_local) and math.isfinite(mean_global)):
            raise DivergenceError("generation loss became non-finite", step=epoch)
        trace.local.append(mean_local)
        trace.global_w2.append(mean_global)
        trace.blended.append(gen_loss(mean_local, mean_global, config.alpha))
        trace.dropout_probs.append(p_t)
        gen.weight -= GEN_LR * grad_w / n
        gen.bias -= GEN_LR * grad_b / n
    return gen, trace


def exact_match_rate(gen: ToyGenerator, dataset: GenDataset) -> float:
    """Fraction of examples whose greedy decode equals the gold answer
    (dropout disabled)."""
    hits = 0
    rows = embed_query_rows(dataset.table, [ex.query for ex in dataset.examples])
    tangents = origin_log_rows(rows)[:, 1:]
    for ex, q_tan in zip(dataset.examples, tangents):
        seq = generate(gen, q_tan, ex.evidence, ex.gold.length)
        hits += int(seq.tokens == ex.gold.tokens)
    return hits / len(dataset.examples)
