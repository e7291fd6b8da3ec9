"""Modality encoders into H^n, geodesic alignment loss, and top-k retrieval.

Queries and knowledge items are embedded through per-modality affine maps
(weight matrix + bias) into spatial coordinates, then lifted onto the
hyperboloid.  Alignment training pulls each query toward its positive items
by minimizing the mean geodesic distance; retrieval ranks a corpus by
ascending distance with item-id tie-breaking.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, ContractViolation, DivergenceError, InvalidPointError
from .geometry import distances_to_rows, origin_log_rows, pair_distance_rows, project_rows

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

MODALITIES = ("visual", "textual", "graph_triplet")
QUERY_KEY = "query"
# Modalities whose items may appear as alignment positives.
POSITIVE_MODALITIES = ("visual", "textual")


def _clean_features(features, name: str) -> np.ndarray:
    arr = np.array(features, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractViolation(f"{name} must be a nonempty 1-D vector, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ContractViolation(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class KnowledgeItem:
    """One knowledge-base entry: raw features plus its modality."""

    id: str
    modality: str
    features: np.ndarray

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ContractViolation(
                f"unknown modality {self.modality!r}; expected one of {MODALITIES}"
            )
        object.__setattr__(self, "features", _clean_features(self.features, "features"))


@dataclass(frozen=True)
class Query:
    """An input query carrying a visual and a textual feature block."""

    id: str
    visual_features: np.ndarray
    text_features: np.ndarray

    def __post_init__(self):
        for name in ("visual_features", "text_features"):
            object.__setattr__(self, name, _clean_features(getattr(self, name), name))

    @property
    def combined_features(self) -> np.ndarray:
        """Concatenated (visual, textual) block fed to the query encoder."""
        return np.concatenate([self.visual_features, self.text_features])


class EmbeddingTable:
    """One affine map per modality plus one for queries, each followed by
    the hyperboloid lift.

    Weights are initialized uniformly in +/- 1/sqrt(input_dim) with zero
    bias, which keeps initial embeddings near the origin where the metric
    is well-conditioned.
    """

    def __init__(self, dim: int, input_dims: dict[str, int], seed: int = 0):
        if dim < 2:
            raise ConfigurationError(f"embedding dimension must be >= 2, got {dim}")
        expected = set(MODALITIES) | {QUERY_KEY}
        if set(input_dims) != expected:
            raise ConfigurationError(
                f"input_dims keys {sorted(input_dims)} != required {sorted(expected)}"
            )
        self.dim = dim
        self.input_dims = dict(input_dims)
        rng = np.random.default_rng(seed)
        self.weight: dict[str, np.ndarray] = {}
        self.bias: dict[str, np.ndarray] = {}
        for key in MODALITIES + (QUERY_KEY,):
            d_in = input_dims[key]
            if d_in < 1:
                raise ConfigurationError(f"input dimension for {key!r} must be >= 1")
            bound = 1.0 / np.sqrt(d_in)
            self.weight[key] = rng.uniform(-bound, bound, size=(dim, d_in))
            self.bias[key] = np.zeros(dim)

    @classmethod
    def for_corpus(
        cls,
        queries: list[Query],
        items: list[KnowledgeItem],
        dim: int,
        seed: int = 0,
        graph=None,
    ) -> "EmbeddingTable":
        """Infer per-modality input dimensions from a corpus sample; a
        non-empty ``graph`` gives the triplet map its vertex features' width."""
        if not queries:
            raise ContractViolation("cannot infer query dimensions from an empty query list")
        dims: dict[str, int] = {QUERY_KEY: queries[0].combined_features.size}
        for item in items:
            dims.setdefault(item.modality, item.features.size)
        if graph is not None and graph.size:
            dims["graph_triplet"] = graph.vertices[0].features.size
        # Modalities absent from the corpus default to the query block size
        # so the table always carries all four maps.
        for key in MODALITIES:
            dims.setdefault(key, dims[QUERY_KEY])
        return cls(dim, dims, seed=seed)

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, array) listing for generic optimizers."""
        out = []
        for key in MODALITIES + (QUERY_KEY,):
            out.append((f"weight.{key}", self.weight[key]))
            out.append((f"bias.{key}", self.bias[key]))
        return out

    def spatial(self, features: np.ndarray, key: str) -> np.ndarray:
        """W f + b for one feature vector, or for each row of an (m, d)
        stack.  ``matmul`` over stacked column vectors makes the one GEMV
        per row that a single vector gets, so each row keeps the bits of a
        one-row call.  Overflow is left to the lift's finiteness check."""
        if key not in self.weight:
            raise ConfigurationError(f"unknown modality {key!r}; known: {sorted(self.weight)}")
        f = np.asarray(features, dtype=float)
        if f.ndim not in (1, 2) or f.shape[-1:] != (self.input_dims[key],):
            raise ContractViolation(
                f"feature length {f.shape[-1:]} does not match {key!r} input dim "
                f"({self.input_dims[key]})"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            return np.matmul(self.weight[key], f[..., None])[..., 0] + self.bias[key]


def _modality_features(table: EmbeddingTable, items: list[KnowledgeItem]):
    """(modality, item positions, stacked features) per modality, in order
    of first appearance; an item whose width does not fit its map raises."""
    by_mod: dict[str, list[int]] = {}
    for idx, item in enumerate(items):
        if item.features.size != table.input_dims[item.modality]:
            raise ContractViolation(
                f"feature length {item.features.size} does not match "
                f"{item.modality!r} input dim"
            )
        by_mod.setdefault(item.modality, []).append(idx)
    return [
        (mod, idxs, np.stack([items[i].features for i in idxs])) for mod, idxs in by_mod.items()
    ]


def embed_corpus_rows(table: EmbeddingTable, items: list[KnowledgeItem]) -> np.ndarray:
    """Every item's ``table.spatial(item.features, item.modality)``, lifted,
    as (len(items), dim+1) rows, each bit for bit that of one item: one
    stacked GEMV per modality, then the row-wise lift, which raises for the
    first bad item."""
    spatial = np.empty((len(items), table.dim))
    for mod, idxs, feats in _modality_features(table, items):
        spatial[idxs] = table.spatial(feats, mod)
    return project_rows(spatial)


def embed_query_rows(table: EmbeddingTable, queries: list[Query]) -> np.ndarray:
    """Every query's ``table.spatial(q.combined_features, QUERY_KEY)``,
    lifted as ``embed_corpus_rows`` lifts items; a query of another width
    raises as it does alone.  ``origin_log_rows(rows)[:, 1:]`` are their tangents."""
    width, feats = table.input_dims[QUERY_KEY], [q.combined_features for q in queries]
    for f in feats:
        if f.shape != (width,):
            table.spatial(f, QUERY_KEY)
    return project_rows(table.spatial(np.reshape(feats, (len(feats), width)), QUERY_KEY))


def item_tangent_rows(table: EmbeddingTable, items: list[KnowledgeItem]) -> np.ndarray:
    """``log_map(origin, p).components[1:]`` of each item's lift p (its
    ``embed_corpus_rows`` row), stacked: shape (len(items), dim), each row
    bit for bit that of one item."""
    return origin_log_rows(embed_corpus_rows(table, items))[:, 1:]


Batch = list[tuple[Query, list[KnowledgeItem]]]


def _check_batch(batch: Batch) -> None:
    if not batch:
        raise ContractViolation("geo_loss_and_grads batch is empty")
    for query, positives in batch:
        if not positives:
            raise ContractViolation(f"query {query.id!r} has no positive items")
        for item in positives:
            if item.modality not in POSITIVE_MODALITIES:
                raise ContractViolation(
                    f"positive {item.id!r} has modality {item.modality!r}; "
                    f"positives must be one of {POSITIVE_MODALITIES}"
                )


def affine_grads(up: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of an affine map W x + b from upstream rows ``up`` (n, out)
    at input rows x (n, in): the sums over rows i of outer(up[i], x[i]) and
    of up[i], each added in row order from zero, as a ``+=`` loop adds
    them.  One einsum over [x | 1]; the ones column gives b and keeps
    einsum off its contiguous-dot path, which sums in another order when
    out and in are both 1."""
    return augmented_affine_grads(up, np.concatenate([x, np.ones((len(x), 1))], axis=1))


def augmented_affine_grads(up: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``affine_grads`` at input rows x1 = [x | 1] that end in the ones column."""
    g = np.einsum("ik,ij->kj", x1, up)
    return g[:-1].T, g[-1]


def geo_loss_and_grads(table: EmbeddingTable, batch: Batch, want_grads: bool = True):
    """Mean over queries of the per-modality mean geodesic distance to the
    query's positive items (a missing modality adds 0), plus per-parameter
    gradient arrays (None when ``want_grads`` is false).  Each (query,
    positive) pair is one row, in batch order, with a query's visual
    positives before its textual ones; the loss and every gradient keep
    the bits of adding the pairs one at a time in that order."""
    _check_batch(batch)
    inv_b = 1.0 / len(batch)
    owner, items, coeff = [], [], []
    for qi, (_, positives) in enumerate(batch):
        for mod in POSITIVE_MODALITIES:
            group = [it for it in positives if it.modality == mod]
            owner += [qi] * len(group)
            items += group
            coeff += [inv_b / len(group) for _ in group]
    q_feats = np.stack([query.combined_features for query, _ in batch])
    q_rows = project_rows(table.spatial(q_feats, QUERY_KEY))[owner]
    dist, gq, gi = pair_distance_rows(q_rows, embed_corpus_rows(table, items), want_grads)
    coeff = np.array(coeff)
    total = functools.reduce(operator.add, (coeff * dist).tolist(), 0.0)
    if not want_grads:
        return total, None
    grads = {name: np.zeros_like(arr) for name, arr in table.named_params()}
    grads[f"weight.{QUERY_KEY}"], grads[f"bias.{QUERY_KEY}"] = affine_grads(
        coeff[:, None] * gq, q_feats[owner]
    )
    gi = coeff[:, None] * gi
    for mod, idxs, feats in _modality_features(table, items):
        grads[f"weight.{mod}"], grads[f"bias.{mod}"] = affine_grads(gi[idxs], feats)
    return total, grads


def positive_pairs(
    queries: list[Query], items: list[KnowledgeItem], positives: dict[str, list[str]]
) -> Batch:
    """Each query that has a positive, with the items its id maps to in
    ``positives``, in query order; an id that names no item raises."""
    by_id = {item.id: item for item in items}
    out: Batch = []
    for query in queries:
        ids = positives.get(query.id, [])
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ContractViolation(
                f"positives for query {query.id!r} reference unknown items {missing}"
            )
        if ids:
            out.append((query, [by_id[i] for i in ids]))
    return out


def _checked_geo_loss(table: EmbeddingTable, batch: Batch, step: int, want_grads: bool = True):
    try:
        loss, grads = geo_loss_and_grads(table, batch, want_grads)
    except InvalidPointError as exc:
        raise DivergenceError(f"alignment diverged: {exc}", step=step) from exc
    if not np.isfinite(loss):
        raise DivergenceError("alignment loss is non-finite", step=step)
    return loss, grads


def train_alignment(
    queries: list[Query], items: list[KnowledgeItem], positives: dict[str, list[str]],
    config: PipelineConfig,
) -> tuple[EmbeddingTable, list[float]]:
    """Fit the embedding maps by mini-batch gradient descent on the geodesic
    loss over ``positive_pairs`` (``dim``, ``lr``, ``epochs``, ``batch_size``),
    one shuffled pass per epoch; deterministic given config.seed.  Returns
    the table and each epoch's loss: its steps' means, weighted by batch
    size.  One full-corpus pass checks the returned table."""
    config.validate()
    if not queries or not items:
        raise ContractViolation("training corpus must contain queries and items")
    table = EmbeddingTable.for_corpus(queries, items, config.dim, seed=config.seed)
    pairs = positive_pairs(queries, items, positives)
    if not pairs:
        raise ContractViolation("no query has a positive item to align")
    rng = np.random.default_rng(config.seed)
    epoch_losses = []
    step = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(len(pairs))
        weighted = 0.0
        for start in range(0, len(pairs), config.batch_size):
            batch = [pairs[i] for i in order[start : start + config.batch_size]]
            loss, grads = _checked_geo_loss(table, batch, step)
            for name, arr in table.named_params():
                arr -= config.lr * grads[name]
            weighted += loss * len(batch)
            step += 1
        epoch_losses.append(weighted / len(pairs))
    _checked_geo_loss(table, pairs, step, want_grads=False)
    return table, epoch_losses


def id_ranks(corpus: list[KnowledgeItem]) -> np.ndarray:
    """Each item's position in ascending id order (equal ids keep corpus
    order): the tie-break key of ``nearest_rows``."""
    ranks = np.empty(len(corpus), dtype=np.intp)
    ranks[sorted(range(len(corpus)), key=lambda i: corpus[i].id)] = np.arange(len(corpus))
    return ranks


def nearest_rows(
    point: np.ndarray, rows: np.ndarray, k: int, id_key: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the k hyperboloid rows nearest the hyperboloid row
    ``point``, by ascending geodesic distance, then ascending ``id_key`` (an
    item's ``id_ranks``), and every row's distance.  A NaN distance (a
    broken row) ranks first, for later checks to report.  Without NaN, only
    the rows at or below the k-th distance are sorted: every other row
    sorts after them, so the first k are the full sort's."""
    dists = distances_to_rows(point, rows)
    if 0 < k < len(dists) and not np.isnan(dists).any():
        near = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        return near[np.lexsort((id_key[near], dists[near]))[:k]], dists
    return np.lexsort((id_key, dists, ~np.isnan(dists)))[:k], dists
