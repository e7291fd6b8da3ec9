"""End-to-end orchestration: two-phase training, gated inference, and
evaluation over synthetic corpora.

Phase 1 fits the relevance head and the gating threshold on labeled
pairs.  Phase 2 iterates query mini-batches; queries gated to retrieval
accrue the relevance, alignment, and generation terms of the weighted
total loss, while directly-answerable queries accrue the generation
term only.  Non-manifold parameters (embedding maps, relevance head,
generator) share one decoupled-weight-decay adaptive optimizer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .alignment import (
    EmbeddingTable,
    KnowledgeItem,
    Query,
    embed_corpus_rows,
    embed_query_rows,
    geo_loss_and_grads,
    id_ranks,
    nearest_rows,
    positive_pairs,
)
from .errors import (
    ConfigurationError,
    ContractViolation,
    DivergenceError,
    HyperRagError,
    InvalidPointError,
    check_config_fields,
)
from .gate import (
    RelevanceHead,
    crm_loss_and_grads,
    decide,
    filter_relevant,
    max_softmax,
    train_crm,
)
from .generation import (
    GenExample,
    TokenSequence,
    ToyGenerator,
    apply_query_dropout,
    example_losses_and_grad,
    gen_loss,
    generate,
    query_dropout_prob,
)
from .geometry import origin_log_rows
from .io import canonical_json_bytes
from .spectral import (
    KnowledgeGraph,
    Subgraph,
    SweepKeys,
    embed_triplets,
    extract_triplets,  # noqa: F401 (perfbench's tracer test rebinds it here)
    refine_subgraph,
    relevance_vector,
)
from .synth import CorpusBundle

LOSS_IDENTITY_ATOL = 1e-9


@dataclass(frozen=True)
class PipelineConfig:
    dim: int = 128
    k: int = 10
    alpha: float = 0.7
    beta: float = 0.3
    gamma: float = 0.3
    lr: float = 1e-4
    weight_decay: float = 1e-2
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    eta_frac: float = 0.5
    rho: float = 1.0
    epsilon: float = 0.01
    t_decay: float = 100.0
    top_k: int = 10
    crm_hidden: int = 128
    crm_lr: float = 0.02
    crm_epochs: int = 80
    crm_batch_size: int = 8
    ot_max_iter: int = 2000

    def validate(self) -> None:
        """Each rule once, its message naming the key it rejects."""
        check_config_fields(self)
        for name in ("alpha", "beta", "gamma"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.beta + self.gamma >= 1.0:
            raise ConfigurationError(f"beta + gamma must be < 1, got {self.beta + self.gamma}")
        if not 0.0 < self.eta_frac <= 1.0:
            raise ConfigurationError(f"eta_frac must lie in (0, 1], got {self.eta_frac}")
        for name in ("lr", "t_decay", "crm_lr", "epsilon"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("weight_decay", "rho"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("k", "top_k", "epochs", "batch_size", "crm_hidden", "crm_epochs",
                     "crm_batch_size", "ot_max_iter"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dim < 2:
            raise ConfigurationError(f"dim must be >= 2, got {self.dim}")


def total_loss(l_crm: float, l_geo: float, l_gen: float, beta: float, gamma: float) -> float:
    """Weighted sum of the three training components."""
    if not (0.0 < beta < 1.0 and 0.0 < gamma < 1.0) or beta + gamma >= 1.0:
        raise ConfigurationError(
            f"loss weights beta={beta}, gamma={gamma} must be interior with beta + gamma < 1"
        )
    return beta * l_crm + gamma * l_geo + (1.0 - beta - gamma) * l_gen


@dataclass(frozen=True)
class LossReport:
    """Per-epoch component means; the weighted identity is re-checked on
    the logged values themselves."""

    step: int
    l_crm: float
    l_geo: float
    l_local: float
    l_global: float
    l_gen: float
    l_total: float
    delta_rate: float
    beta: float
    gamma: float

    def __post_init__(self):
        expected = total_loss(self.l_crm, self.l_geo, self.l_gen, self.beta, self.gamma)
        if not abs(expected - self.l_total) <= LOSS_IDENTITY_ATOL:  # NaN fails too
            raise ContractViolation(
                f"loss identity violated at step {self.step}: "
                f"{self.l_total} != {expected}"
            )
        if not 0.0 <= self.delta_rate <= 1.0:
            raise ContractViolation(f"delta rate {self.delta_rate} outside [0, 1]")

    def to_record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in ("beta", "gamma")}


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    coherence: float
    retrieval_precision: float
    mean_latency_s: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ContractViolation(f"accuracy {self.accuracy} outside [0, 1]")
        if not -1.0 <= self.coherence <= 1.0 + 1e-12:
            raise ContractViolation(f"coherence {self.coherence} outside [-1, 1]")
        if not 0.0 <= self.retrieval_precision <= 1.0:
            raise ContractViolation(
                f"retrieval precision {self.retrieval_precision} outside [0, 1]"
            )

    def canonical_bytes(self) -> bytes:
        """Reproducibility digest; wall-clock latency is excluded."""
        return canonical_json_bytes({k: v for k, v in asdict(self).items() if k != "mean_latency_s"})

    def to_record(self) -> dict:
        return asdict(self)


class AdamW:
    """First/second-moment adaptive steps with decoupled weight decay,
    updating the registered arrays in place."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be nonnegative, got {weight_decay}")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in self.params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads.get(name)
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * self.weight_decay * p
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@dataclass(frozen=True)
class ReadIndex:
    """The embeddings that training and answering read from one table:
    per corpus item its ``embed_corpus_rows`` row and that row's tangent at
    the origin (``origin_log_rows(rows)[:, 1:]``), with the items'
    ``id_ranks``, and one ``embed_triplets`` row per entry of
    ``graph.triplets``."""

    corpus_rows: np.ndarray
    corpus_id_key: np.ndarray
    corpus_tangents: np.ndarray
    triplet_rows: np.ndarray
    graph: KnowledgeGraph

    @classmethod
    def build(
        cls, table: EmbeddingTable, graph: KnowledgeGraph, items: list[KnowledgeItem]
    ) -> "ReadIndex":
        corpus_rows = embed_corpus_rows(table, items)
        return cls(
            corpus_rows=corpus_rows,
            corpus_id_key=id_ranks(items),
            corpus_tangents=origin_log_rows(corpus_rows)[:, 1:],
            triplet_rows=embed_triplets(graph, table, graph.triplets),
            graph=graph,
        )

    def evidence(self, positions: list[int], subgraph: Subgraph) -> np.ndarray:
        """Evidence for the generator: the corpus tangent rows at
        ``positions`` (the used docs), then the rows of the triplets within
        the subgraph (``KnowledgeGraph.triplets_within``), in graph order."""
        triplets = self.triplet_rows[self.graph.triplets_within(subgraph.indicator)]
        return np.concatenate([self.corpus_tangents[positions], triplets])


@dataclass(frozen=True)
class QueryRows:
    """A query, its ``embed_query_rows`` row and that row's origin tangent,
    and its kept ``Subgraph`` if training gated it (else None)."""

    query: Query
    row: np.ndarray
    tangent: np.ndarray
    subgraph: Subgraph | None


def _query_rows(table: EmbeddingTable, queries: list[Query], subgraphs) -> dict[str, QueryRows]:
    """Each query's ``QueryRows`` by id, from one row pass (see ``embed_query_rows``)."""
    rows = embed_query_rows(table, queries)
    pairs = zip(queries, rows, origin_log_rows(rows)[:, 1:])
    return {q.id: QueryRows(q, row, tan, subgraphs.get(q.id)) for q, row, tan in pairs}


@dataclass(frozen=True)
class ServeState:
    """What answering reads that training fixed: the read index, the sweep
    keys, and each bundle query's ``QueryRows`` under the trained table."""

    index: ReadIndex
    sweep_keys: SweepKeys
    queries: dict[str, QueryRows]


@dataclass(frozen=True)
class PipelineComponents:
    """Everything needed to answer queries after training.  ``sigmas`` has
    each bundle query's gate sigma; other ids get 0, so they are retrieved
    for.  Answers read one ``ServeState``: the one ``run_training`` hands
    over, which ``with_crm`` keeps (the gate changes none of it), or, in a
    ``dataclasses.replace`` copy, one built from the copy's own fields."""

    config: PipelineConfig
    table: EmbeddingTable
    head: RelevanceHead
    theta: float
    generator: ToyGenerator
    graph: KnowledgeGraph
    items: list[KnowledgeItem]
    token_embeddings: np.ndarray
    sigmas: dict[str, float]
    answer_len: int
    crm_enabled: bool = True
    _state: ServeState | None = field(default=None, init=False, repr=False, compare=False)

    def _set_state(self, state: ServeState | None) -> "PipelineComponents":
        object.__setattr__(self, "_state", state)
        return self

    def read_index(self) -> ReadIndex:
        """The state's index; a copy with no state builds its state here."""
        if self._state is None:
            index = ReadIndex.build(self.table, self.graph, self.items)
            keys = SweepKeys.of(self.graph, self.config.k, self.config.seed)
            self._set_state(ServeState(index, keys, {}))
        return self._state.index

    def rows_for(self, query: Query) -> QueryRows:
        """The state's ``QueryRows`` of a trained query (the object training
        saw, or one with the same id and features: a ``Query``'s feature
        arrays are read-only, so the object itself proves them equal); any
        other query, or any on a copy with no state yet, is lifted here,
        with no subgraph."""
        kept = self._state and self._state.queries.get(query.id)
        if kept and (kept.query is query or all(
            np.array_equal(getattr(query, f), getattr(kept.query, f))
            for f in ("visual_features", "text_features")
        )):
            return kept
        return _query_rows(self.table, [query], {})[query.id]

    def with_crm(self, enabled: bool) -> "PipelineComponents":
        return replace(self, crm_enabled=enabled)._set_state(self._state)


@dataclass(frozen=True)
class AnswerResult:
    tokens: TokenSequence
    sigma: float
    delta: int
    retrieved_ids: tuple[str, ...]
    used_ids: tuple[str, ...]
    subgraph: Subgraph | None
    timings: dict[str, float]


def _tag_stage(exc: HyperRagError, stage: str) -> None:
    """Append ``[stage: …]`` to the error's message, in place."""
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} [stage: {stage}]",) + exc.args[1:]
    else:
        exc.args = (f"[stage: {stage}]",) + exc.args


@contextmanager
def _phase2_stage(optimizer: AdamW, epoch: int, stage: str):
    """Tag a HyperRagError raised in a phase-2 step with ``phase2 epoch
    <epoch> <stage>``, preserving its type.  A point that leaves the
    hyperboloid once the optimizer has stepped is reported as divergence."""
    try:
        yield
    except HyperRagError as exc:
        _tag_stage(exc, f"phase2 epoch {epoch} {stage}")
        if not isinstance(exc, InvalidPointError) or optimizer.t == 0:
            raise
        message = f"phase 2 diverged in epoch {epoch}: {exc}"
        raise DivergenceError(message, step=optimizer.t) from exc


def _sigma_of_scores(scores) -> float:
    """Max-softmax confidence; absent candidate scores force retrieval."""
    if scores is None or len(scores) == 0:
        return 0.0
    return max_softmax(scores)


def phase1_inputs(bundle: CorpusBundle):
    """Phase-1 training data: ``(query, positives, negatives)`` per labeled
    query, in order of first label, and ``(confidence, needs_retrieval)``
    per gating row."""
    by_id = bundle.item_by_id()
    per_query: dict[str, tuple[list, list]] = {}
    for qid, iid, flag in bundle.labels:
        pos, neg = per_query.setdefault(qid, ([], []))
        (pos if flag else neg).append(iid)
    query_of = {q.id: q for q in bundle.queries}
    labeled = []
    for qid, (pos, neg) in per_query.items():
        if qid not in query_of:
            raise ContractViolation(f"labels reference unknown query {qid!r}")
        missing = [i for i in pos + neg if i not in by_id]
        if missing:
            raise ContractViolation(f"labels for query {qid!r} reference unknown items {missing}")
        labeled.append((query_of[qid], [by_id[i] for i in pos], [by_id[i] for i in neg]))
    gating_pairs = [
        (_sigma_of_scores(bundle.confidence.get(qid)), needs)
        for qid, needs in bundle.gating
    ]
    return labeled, gating_pairs


def train_phase1(config: PipelineConfig, bundle: CorpusBundle):
    """Phase 1: fit the relevance head and the gating threshold on
    ``phase1_inputs(bundle)``.  Returns ``(labeled, head, theta, trace)``."""
    for name, rows in (("queries", bundle.queries), ("items", bundle.items)):
        if not rows:
            raise ContractViolation(f"phase 1 needs {name}; the bundle's {name} list is empty")
    labeled, gating_pairs = phase1_inputs(bundle)
    head, theta, trace = train_crm(
        labeled,
        gating_pairs,
        config,
        query_dim=bundle.queries[0].combined_features.size,
        item_dim=bundle.items[0].features.size,
    )
    return labeled, head, theta, trace


def query_subgraph(
    config: PipelineConfig, graph: KnowledgeGraph, query: Query, sweep_keys: SweepKeys | None = None
) -> Subgraph:
    """The query's refined subgraph: feature-dot relevance of every
    vertex, then ``refine_subgraph`` with eta = eta_frac * total relevance.
    Without ``sweep_keys`` the eigenvectors are computed here."""
    r = relevance_vector(query, graph)
    eta = config.eta_frac * r.total
    return refine_subgraph(
        graph, r, eta=eta, k=config.k, rho=config.rho, sweep_keys=sweep_keys, seed=config.seed
    )


def _top_items(config: PipelineConfig, point: np.ndarray, index: ReadIndex) -> list[int]:
    """Positions of the ``config.top_k`` items nearest the query's
    hyperboloid row (every item when there are fewer), ranked over the
    index's corpus rows and ``id_ranks``."""
    return nearest_rows(point, index.corpus_rows, config.top_k, index.corpus_id_key)[0].tolist()


def _relevant(head: RelevanceHead, query: Query, items, positions: list[int]) -> list[int]:
    """The positions whose items ``filter_relevant`` keeps, in order."""
    docs = [items[i] for i in positions]
    kept = {id(doc) for doc in filter_relevant(head, query, docs)}
    return [i for i, doc in zip(positions, docs) if id(doc) in kept]


def _check_gold(bundle: CorpusBundle) -> None:
    """Every query has a gold answer in qa, and every gold answer is a
    TokenSequence over the bundle's vocabulary (one that is empty or has a
    token outside [0, vocab) raises TokenSequence's ContractViolation) of
    the spec's ``answer_len`` tokens.  A valid answer is checked without
    building one, so the check allocates nothing."""
    for q in bundle.queries:
        if q.id not in bundle.qa:
            raise ContractViolation(f"query {q.id!r} has no gold answer in qa")
    vocab, answer_len = bundle.token_embeddings.shape[0], bundle.spec.answer_len
    for qid, toks in bundle.qa.items():
        if not toks or min(toks) < 0 or max(toks) >= vocab:
            TokenSequence(tuple(toks), vocab)
        if len(toks) != answer_len:
            raise ContractViolation(
                f"gold answer of query {qid!r} has {len(toks)} tokens, not answer_len {answer_len}"
            )


@dataclass(frozen=True)
class Phase2Fixtures:
    """What phase 2 reads but does not train, computed once before its
    epochs: the sweep keys, each query's gate sigma, the refined subgraph
    and resolved positives of each query gated to retrieval, and phase 1's
    labeled items and the gold answer of each query, by query id."""

    sweep_keys: SweepKeys
    sigmas: dict[str, float]
    subgraphs: dict[str, Subgraph]
    positives: dict[str, list[KnowledgeItem]]
    labeled: dict[str, tuple[list[KnowledgeItem], list[KnowledgeItem]]]
    gold: dict[str, TokenSequence]
    delta_rate: float

    @classmethod
    def of(cls, config: PipelineConfig, bundle: CorpusBundle, labeled, theta) -> Phase2Fixtures:
        keys = SweepKeys.of(bundle.graph, config.k, config.seed)
        sigmas = {qid: _sigma_of_scores(scores) for qid, scores in bundle.confidence.items()}
        gated = [q for q in bundle.queries if decide(sigmas.get(q.id, 0.0), theta) == 1]
        vocab = bundle.token_embeddings.shape[0]
        return cls(
            sweep_keys=keys,
            sigmas=sigmas,
            subgraphs={q.id: query_subgraph(config, bundle.graph, q, keys) for q in gated},
            positives={q.id: p for q, p in positive_pairs(gated, bundle.items, bundle.positives)},
            labeled={q.id: (pos, neg) for q, pos, neg in labeled},
            gold={qid: TokenSequence(tuple(toks), vocab) for qid, toks in bundle.qa.items()},
            delta_rate=len(gated) / len(bundle.queries),
        )


def _phase2_step(
    parts: PipelineComponents, fixtures: Phase2Fixtures, optimizer: AdamW, epoch: int,
    batch: list[Query], positions: np.ndarray, sums: dict[str, float], counts: dict[str, int],
) -> None:
    """One phase-2 mini-batch: the alignment, relevance and generation terms,
    their weighted gradients, one ``optimizer.step``, and each term's losses
    added into ``sums`` (its example count into ``counts``) in example order."""
    config, table, head, items = parts.config, parts.table, parts.head, parts.items
    n_batch = len(batch)
    # Only parameter groups that accrue a gradient this batch are
    # stepped (and decayed); an all-answerable corpus therefore
    # leaves the head and embedding maps untouched.
    grads: dict[str, np.ndarray] = {
        "gen.weight": np.zeros_like(parts.generator.weight),
        "gen.bias": np.zeros_like(parts.generator.bias),
    }
    gated = [q for q in batch if q.id in fixtures.subgraphs]

    geo_pairs = [(q, fixtures.positives[q.id]) for q in gated if q.id in fixtures.positives]
    if geo_pairs:
        with _phase2_stage(optimizer, epoch, "alignment"):
            geo_mean, geo_grads = geo_loss_and_grads(table, geo_pairs)
        scale = config.gamma * len(geo_pairs) / n_batch
        for name, g in geo_grads.items():
            grads[name] = grads.get(name, 0.0) + scale * g
        sums["geo"] += geo_mean * len(geo_pairs)
        counts["geo"] += len(geo_pairs)

    crm_batch = [(q, *fixtures.labeled[q.id]) for q in gated if q.id in fixtures.labeled]
    if crm_batch:
        with _phase2_stage(optimizer, epoch, "relevance"):
            crm_sum, crm_grads = crm_loss_and_grads(head, crm_batch)
        scale = config.beta / n_batch
        for name, g in crm_grads.items():
            grads[f"crm.{name}"] = grads.get(f"crm.{name}", 0.0) + scale * g
        sums["crm"] += crm_sum
        counts["crm"] += len(crm_batch)

    with _phase2_stage(optimizer, epoch, "index"):
        index = ReadIndex.build(table, parts.graph, items) if gated else None

    p_t = query_dropout_prob(epoch - 1, config.t_decay)
    gen_scale = (1.0 - config.beta - config.gamma) / n_batch
    examples = []
    with _phase2_stage(optimizer, epoch, "evidence"):
        points = iter(embed_query_rows(table, gated))
        for q, i in zip(batch, positions):
            evidence = np.empty((0, config.dim))
            if q.id in fixtures.subgraphs:  # the generator reads only the rows' mean
                top = _top_items(config, next(points), index)
                rows = index.evidence(_relevant(head, q, items, top), fixtures.subgraphs[q.id])
                evidence = np.mean(rows, axis=0, keepdims=True) if len(rows) else rows
            dropped = apply_query_dropout(q, p_t, seed=(config.seed, epoch, int(i)))
            examples.append(GenExample(dropped, evidence, fixtures.gold[q.id]))
    with _phase2_stage(optimizer, epoch, "generation"):
        terms = example_losses_and_grad(
            parts.generator, table, examples, parts.token_embeddings,
            config.alpha, config.epsilon, config.ot_max_iter,
        )
    for local, sqrt_cost, grad_logits, z in terms:
        sums["local"] += local
        sums["global"] += sqrt_cost
        grads["gen.weight"] += gen_scale * np.outer(grad_logits, z)
        grads["gen.bias"] += gen_scale * grad_logits

    optimizer.step(grads)


def _epoch_report(
    config: PipelineConfig, epoch: int, sums: dict, counts: dict, n: int, delta_rate: float
) -> LossReport:
    """The epoch's ``LossReport``: each term's mean over the examples that
    accrued it (0 when none did), the generation terms over all n queries."""
    l_crm = sums["crm"] / counts["crm"] if counts["crm"] else 0.0
    l_geo = sums["geo"] / counts["geo"] if counts["geo"] else 0.0
    l_local = sums["local"] / n
    l_global = sums["global"] / n
    l_gen = gen_loss(l_local, l_global, config.alpha)
    return LossReport(
        step=epoch,
        l_crm=l_crm,
        l_geo=l_geo,
        l_local=l_local,
        l_global=l_global,
        l_gen=l_gen,
        l_total=total_loss(l_crm, l_geo, l_gen, config.beta, config.gamma),
        delta_rate=delta_rate,
        beta=config.beta,
        gamma=config.gamma,
    )


def run_training(
    config: PipelineConfig, bundle: CorpusBundle
) -> tuple[PipelineComponents, list[LossReport]]:
    """Two-phase training, deterministic per config.seed; phase 2 trains the
    table, head and generator in place, one ``_phase2_step`` per mini-batch."""
    config.validate()
    _check_gold(bundle)
    queries = bundle.queries
    n = len(queries)
    table = EmbeddingTable.for_corpus(queries, bundle.items, config.dim, config.seed, bundle.graph)

    labeled, head, theta, _ = train_phase1(config, bundle)
    fixtures = Phase2Fixtures.of(config, bundle, labeled, theta)

    generator = ToyGenerator(bundle.token_embeddings.shape[0], 2 * config.dim)
    params = dict(table.named_params() + [(f"crm.{k}", arr) for k, arr in head.named_params()])
    params.update(generator.named_params())
    optimizer = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)
    components = PipelineComponents(
        config=config,
        table=table,
        head=head,
        theta=theta,
        generator=generator,
        graph=bundle.graph,
        items=bundle.items,
        token_embeddings=bundle.token_embeddings,
        sigmas=fixtures.sigmas,
        answer_len=bundle.spec.answer_len,
    )

    rng = np.random.default_rng(config.seed)
    reports: list[LossReport] = []
    for epoch in range(1, config.epochs + 1):
        sums = {"crm": 0.0, "geo": 0.0, "local": 0.0, "global": 0.0}
        counts = {"crm": 0, "geo": 0}
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            positions = order[start : start + config.batch_size]
            batch = [queries[i] for i in positions]
            _phase2_step(components, fixtures, optimizer, epoch, batch, positions, sums, counts)
        reports.append(_epoch_report(config, epoch, sums, counts, n, fixtures.delta_rate))

    with _phase2_stage(optimizer, config.epochs, "index"):  # the trained table's final check
        index = ReadIndex.build(table, bundle.graph, bundle.items)
        query_rows = _query_rows(table, queries, fixtures.subgraphs)
    return components._set_state(ServeState(index, fixtures.sweep_keys, query_rows)), reports


def answer_query(components: PipelineComponents, query: Query) -> AnswerResult:
    """Gate, optionally retrieve/filter/refine, then decode; per-stage
    wall-clock timings are recorded.  The gate reads ``components.sigmas``;
    the retrieve path reads the components' ``ServeState`` (built in the
    ``retrieve`` timing when they have none): the read index's corpus and
    triplet rows, and the query's ``rows_for`` (a query the state does not
    hold is lifted in the first stage that reads its rows).  An answer then
    filters, gathers evidence rows and decodes ``answer_len`` tokens.  A
    ``HyperRagError`` past the gate is tagged with its stage (``index``,
    ``retrieve``, ``filter``, ``refine`` or ``generate``); the gate's is not."""
    cfg = components.config
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    sigma = components.sigmas.get(query.id, 0.0) if components.crm_enabled else 0.0
    delta = decide(sigma, components.theta) if components.crm_enabled else 1
    timings["gate"] = time.perf_counter() - t0

    retrieved: tuple[str, ...] = ()
    used: tuple[str, ...] = ()
    subgraph = None
    evidence = np.empty((0, cfg.dim))
    stage = "index"  # the stage a HyperRagError below is tagged with
    try:
        if delta == 1:
            t0 = time.perf_counter()
            index = components.read_index()
            stage = "retrieve"
            lifted = components.rows_for(query)
            positions = _top_items(cfg, lifted.row, index)
            retrieved = tuple(components.items[i].id for i in positions)
            timings["retrieve"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            stage = "filter"
            if components.crm_enabled:
                positions = _relevant(components.head, query, components.items, positions)
            used = tuple(components.items[i].id for i in positions)
            timings["filter"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            stage = "refine"
            keys = components._state.sweep_keys
            subgraph = lifted.subgraph or query_subgraph(cfg, components.graph, query, keys)
            timings["refine"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        stage = "generate"
        if delta == 1:
            evidence = index.evidence(positions, subgraph)
        else:
            lifted = components.rows_for(query)
        tokens = generate(components.generator, lifted.tangent, evidence, components.answer_len)
        timings["generate"] = time.perf_counter() - t0
    except HyperRagError as exc:
        _tag_stage(exc, stage)
        raise

    return AnswerResult(
        tokens=tokens,
        sigma=sigma,
        delta=delta,
        retrieved_ids=retrieved,
        used_ids=used,
        subgraph=subgraph,
        timings=timings,
    )


def _mean_token_embedding(tokens, token_embeddings: np.ndarray) -> np.ndarray:
    return token_embeddings[np.array(tokens, dtype=int)].mean(axis=0)


def evaluate(components: PipelineComponents, bundle: CorpusBundle) -> EvalReport:
    """Exact-match accuracy, cosine coherence in the bundle's token
    embedding space, micro-averaged retrieval precision over gated
    queries, and mean per-query latency, over every bundle query."""
    queries = bundle.queries
    if not queries:
        raise ContractViolation("evaluation query set is empty")
    _check_gold(bundle)

    hits = 0
    coherence_sum = 0.0
    used_total = 0
    used_relevant = 0
    latency_sum = 0.0
    for q in queries:
        t0 = time.perf_counter()
        result = answer_query(components, q)
        latency_sum += time.perf_counter() - t0

        gold = bundle.qa[q.id]
        hits += int(result.tokens.tokens == tuple(gold))
        a = _mean_token_embedding(result.tokens.tokens, bundle.token_embeddings)
        b = _mean_token_embedding(gold, bundle.token_embeddings)
        denom = np.linalg.norm(a) * np.linalg.norm(b)
        coherence_sum += float(a @ b / denom) if denom > 0 else 0.0

        if result.delta == 1:
            relevant = bundle.relevance.get(q.id, frozenset())
            used_total += len(result.used_ids)
            used_relevant += sum(1 for iid in result.used_ids if iid in relevant)

    n = len(queries)
    precision = used_relevant / used_total if used_total else 0.0
    return EvalReport(
        accuracy=hits / n,
        coherence=min(coherence_sum / n, 1.0),
        retrieval_precision=precision,
        mean_latency_s=latency_sum / n,
    )
