"""Synthetic corpus generator with planted structure and ground truth.

Each bundle plants the same cluster structure across every artifact:
queries and items share per-cluster feature centers, the knowledge graph
carries one connected community per cluster (joined by weak bridges),
gold answers are a cluster-specific token repeated, and candidate-score
rows are peaked exactly for the queries marked answerable.  Everything
is drawn from one seeded generator, so a (spec, seed) pair maps to
byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io as hio
from .alignment import POSITIVE_MODALITIES, KnowledgeItem, Query
from .errors import ConfigurationError, DataFormatError, check_config_fields, config_values
from .spectral import GraphVertex, KnowledgeGraph

# Distractor items carry this cluster index in clusters.tsv.
DISTRACTOR_CLUSTER = -1
TOKEN_DIM = 4
MAX_TRAIN_POSITIVES = 8


@dataclass(frozen=True)
class SynthSpec:
    num_queries: int = 200
    num_items: int = 500
    num_clusters: int = 5
    graph_size: int = 300
    noise_frac: float = 0.0
    seed: int = 0
    answer_len: int = 3

    def validate(self) -> None:
        check_config_fields(self)
        if min(self.num_queries, self.num_items, self.graph_size) < 1:
            raise ConfigurationError("bundle sizes must all be >= 1")
        if self.num_clusters < 1:
            raise ConfigurationError("num_clusters must be >= 1")
        if not (0.0 <= self.noise_frac < 1.0):
            raise ConfigurationError(
                f"noise_frac must lie in [0, 1), got {self.noise_frac}"
            )
        if self.answer_len < 1:
            raise ConfigurationError("answer_len must be >= 1")
        if self.graph_size < self.num_clusters:
            raise ConfigurationError("graph_size must be >= num_clusters")
        n_regular = self.num_items - self.num_distractors
        if n_regular < self.num_clusters:
            raise ConfigurationError(
                f"{n_regular} non-distractor items cannot cover {self.num_clusters} clusters"
            )

    @property
    def num_distractors(self) -> int:
        return int(round(self.noise_frac * self.num_items))

    @property
    def feature_dim(self) -> int:
        return max(6, self.num_clusters)

    @property
    def vocab_size(self) -> int:
        return self.num_clusters + 2


@dataclass
class CorpusBundle:
    """A synthetic corpus plus its planted ground truth."""

    spec: SynthSpec
    queries: list[Query]
    items: list[KnowledgeItem]
    # Training positives (capped per query) and the full relevance sets.
    positives: dict[str, list[str]]
    relevance: dict[str, frozenset[str]]
    labels: list[tuple[str, str, bool]]
    gating: list[tuple[str, bool]]
    confidence: dict[str, np.ndarray]
    graph: KnowledgeGraph
    qa: dict[str, tuple[int, ...]]
    token_embeddings: np.ndarray
    clusters: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def distractor_ids(self) -> frozenset[str]:
        return frozenset(
            ident
            for (kind, ident), c in self.clusters.items()
            if kind == "item" and c == DISTRACTOR_CLUSTER
        )

    def item_by_id(self) -> dict[str, KnowledgeItem]:
        return {item.id: item for item in self.items}

    def meta(self) -> dict:
        """The spec's fields plus its derived sizes."""
        s = self.spec
        return {**asdict(s), "feature_dim": s.feature_dim, "vocab_size": s.vocab_size,
                "token_dim": TOKEN_DIM}


def _cluster_centers(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """Well-separated centers: scaled axis directions plus a small jitter."""
    centers = 5.0 * np.eye(k, dim)
    return centers + 0.5 * rng.normal(size=(k, dim))


def _community_blocks(graph_size: int, k: int) -> list[range]:
    """k consecutive index ranges; the first graph_size % k are one longer."""
    base, extra = divmod(graph_size, k)
    return [range(c * base + min(c, extra), (c + 1) * base + min(c + 1, extra)) for c in range(k)]


def _build_graph(spec: SynthSpec, rng: np.random.Generator,
                 centers_t: np.ndarray) -> tuple[KnowledgeGraph, dict[str, int]]:
    d = spec.feature_dim
    blocks = _community_blocks(spec.graph_size, spec.num_clusters)
    # Row idx: the rng.normal(size=d) draw of vertex idx, in block order.
    noise = rng.normal(size=(spec.graph_size, d))
    vertices, community = [], {}
    for c, block in enumerate(blocks):
        for idx in block:
            vid = f"n{idx:04d}"
            feats = centers_t[c] + 0.4 * noise[idx]
            vertices.append(GraphVertex(vid, f"concept_{c}_{idx}", feats))
            community[vid] = c

    vid_of = [v.id for v in vertices]
    seen: set[tuple[str, str]] = set()
    edges: list[tuple[str, str, float]] = []

    def add_edge(i: int, j: int, w: float) -> None:
        a, b = sorted((vid_of[i], vid_of[j]))
        if a != b and (a, b) not in seen:
            seen.add((a, b))
            edges.append((a, b, w))

    for block in blocks:
        ids = list(block)
        # A ring keeps every community internally connected: one uniform
        # draw per ring edge, none for a one-vertex community.
        ring = (1.0 + 0.1 * rng.uniform(size=len(ids))).tolist() if len(ids) > 1 else []
        for pos, w in enumerate(ring):
            add_edge(ids[pos], ids[(pos + 1) % len(ids)], w)
        # Sprinkle extra in-community chords.
        for i in ids:
            if len(ids) > 2 and rng.uniform() < 0.15:
                j = ids[int(rng.choice(len(ids)))]
                add_edge(i, j, 0.8 + 0.2 * rng.uniform())
    # One weak bridge between consecutive communities keeps the whole
    # graph connected while leaving the community structure visible.
    for c in range(spec.num_clusters - 1):
        i = blocks[c][int(rng.choice(len(blocks[c])))]
        j = blocks[c + 1][int(rng.choice(len(blocks[c + 1])))]
        add_edge(i, j, 0.15)

    triplets = []
    for c, block in enumerate(blocks):
        ids = list(block)
        for pos in range(len(ids) - 1):
            triplets.append((vid_of[ids[pos]], f"rel_{c}", vid_of[ids[pos + 1]]))
    graph = KnowledgeGraph(tuple(vertices), tuple(edges), tuple(triplets))
    return graph, community


def synth_bundle(spec: SynthSpec) -> CorpusBundle:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    d = spec.feature_dim
    k = spec.num_clusters

    centers_v = _cluster_centers(rng, k, d)
    centers_t = _cluster_centers(rng, k, d)

    n_distract = spec.num_distractors
    n_regular = spec.num_items - n_distract

    items: list[KnowledgeItem] = []
    clusters: dict[tuple[str, str], int] = {}
    cluster_items: list[list[str]] = [[] for _ in range(k)]
    # One rng.normal(size=d) draw per item, regular items first.
    noise = rng.normal(size=(spec.num_items, d))
    for i in range(n_regular):
        c = i % k
        modality = "visual" if i % 2 == 0 else "textual"
        center = centers_v[c] if modality == "visual" else centers_t[c]
        item = KnowledgeItem(f"i{i:04d}", modality, center + 0.3 * noise[i])
        items.append(item)
        clusters[("item", item.id)] = c
        cluster_items[c].append(item.id)
    for j in range(n_distract):
        modality = "visual" if j % 2 == 0 else "textual"
        item = KnowledgeItem(f"d{j:04d}", modality, 1.5 * noise[n_regular + j])
        items.append(item)
        clusters[("item", item.id)] = DISTRACTOR_CLUSTER

    queries: list[Query] = []
    positives: dict[str, list[str]] = {}
    relevance: dict[str, frozenset[str]] = {}
    labels: list[tuple[str, str, bool]] = []
    gating: list[tuple[str, bool]] = []
    confidence: dict[str, np.ndarray] = {}
    qa: dict[str, tuple[int, ...]] = {}
    distractor_ids = [it.id for it in items if clusters[("item", it.id)] < 0]
    # One relevance set per cluster, shared by the cluster's queries.
    cluster_relevance = [frozenset(own) for own in cluster_items]

    for q in range(spec.num_queries):
        c = q % k
        qid = f"q{q:04d}"
        query = Query(
            qid,
            centers_v[c] + 0.3 * rng.normal(size=d),
            centers_t[c] + 0.3 * rng.normal(size=d),
        )
        queries.append(query)
        clusters[("query", qid)] = c

        own = cluster_items[c]
        picked = [own[int(t)] for t in rng.choice(len(own), size=min(MAX_TRAIN_POSITIVES, len(own)), replace=False)]
        positives[qid] = sorted(picked)
        relevance[qid] = cluster_relevance[c]

        for iid in positives[qid][:3]:
            labels.append((qid, iid, True))
        negatives: list[str] = []
        if distractor_ids:
            negatives.extend(
                distractor_ids[int(t)]
                for t in rng.choice(len(distractor_ids), size=min(2, len(distractor_ids)), replace=False)
            )
        if k > 1:
            other = cluster_items[(c + 1) % k]
            negatives.append(other[int(rng.integers(len(other)))])
        for iid in negatives:
            labels.append((qid, iid, False))

        # Every third query is directly answerable: its candidate scores
        # are peaked, so the max-softmax confidence lands near 1.
        answerable = q % 3 == 2
        gating.append((qid, not answerable))
        if answerable:
            scores = np.array([4.2 + 0.3 * rng.uniform(), 0.0, 0.0])
        else:
            scores = 0.15 * rng.normal(size=3)
        confidence[qid] = scores

        qa[qid] = (c + 1,) * spec.answer_len

    if k == 1 and not distractor_ids:
        # Degenerate single-cluster bundle still needs negative labels.
        far = KnowledgeItem("d_far", "textual", -centers_t[0])
        items.append(far)
        clusters[("item", far.id)] = DISTRACTOR_CLUSTER
        labels.append((queries[0].id, far.id, False))

    graph, community = _build_graph(spec, rng, centers_t)
    for vid, c in community.items():
        clusters[("vertex", vid)] = c

    token_embeddings = rng.normal(0.0, 2.0, size=(spec.vocab_size, TOKEN_DIM))

    return CorpusBundle(
        spec=spec,
        queries=queries,
        items=items,
        positives=positives,
        relevance=relevance,
        labels=labels,
        gating=gating,
        confidence=confidence,
        graph=graph,
        qa=qa,
        token_embeddings=token_embeddings,
        clusters=clusters,
    )


def write_bundle(bundle: CorpusBundle, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hio.save_items(out / "items.tsv", bundle.items)
    hio.save_queries(out / "queries.tsv", bundle.queries)
    pairs = [(qid, iid) for qid in sorted(bundle.positives) for iid in bundle.positives[qid]]
    hio.save_positives(out / "positives.tsv", pairs)
    hio.save_labels(out / "labels.tsv", bundle.labels)
    hio.save_gating(out / "gating.tsv", bundle.gating)
    hio.save_confidence(out / "confidence.tsv", bundle.confidence)
    hio.save_qa(out / "qa.tsv", bundle.qa)
    hio.save_vocab(out / "vocab.tsv", bundle.token_embeddings)
    hio.save_clusters(out / "clusters.tsv", bundle.clusters)
    hio.save_graph(out / "graph", bundle.graph)
    hio.write_json(out / "meta.json", bundle.meta())


def _spec_from_meta(path: Path) -> SynthSpec:
    """The SynthSpec fields of meta.json, all required; other keys are ignored."""
    values = config_values(SynthSpec, hio.read_json(path), path, DataFormatError)
    missing = next((f.name for f in fields(SynthSpec) if f.name not in values), None)
    if missing:
        raise DataFormatError(f"{path}: missing key {missing!r}")
    spec = SynthSpec(**values)
    try:
        spec.validate()
    except ConfigurationError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return spec


def _check_ids(path: Path, ids, known: set[str], what: str, column: int = 0) -> None:
    """Raise DataFormatError ``what.format(id)`` at the first line of ``path``
    whose id (field ``column``) is not in ``known``.  ``ids`` is that field
    as loaded, in file order (a dict's keys keep the order of first
    appearance), so the file is read again only to name the line."""
    bad = next((ident for ident in ids if ident not in known), None)
    if bad is None:
        return
    for lineno, fields in enumerate(hio.read_fields(path), start=1):
        if fields[column] == bad:
            raise DataFormatError(f"{path}:{lineno}: {what.format(bad)}")


def _check_every_query(path: Path, queries: list[Query], row_ids) -> None:
    """Raise DataFormatError naming ``path`` and the first query whose id
    is not among ``row_ids``, the ids that have a row in that file."""
    missing = next((q.id for q in queries if q.id not in row_ids), None)
    if missing is not None:
        raise DataFormatError(f"{path}: no row for query id {missing!r}")


def load_bundle(out_dir) -> CorpusBundle:
    """Read a bundle written by ``write_bundle``.  Every row of positives,
    labels, gating, confidence and qa must name a loaded query (and item),
    every query needs a qa row and a clusters row, and positives are visual
    or textual; otherwise DataFormatError names the file, line and id."""
    out = Path(out_dir)
    spec = _spec_from_meta(out / "meta.json")
    items = hio.load_items(out / "items.tsv")
    queries = hio.load_queries(out / "queries.tsv")
    clusters = hio.load_clusters(out / "clusters.tsv")
    _check_every_query(
        out / "clusters.tsv", queries, {ident for kind, ident in clusters if kind == "query"}
    )
    token_embeddings = hio.load_vocab(out / "vocab.tsv")
    query_ids = {q.id for q in queries}
    item_ids = {item.id for item in items}

    path = out / "positives.tsv"
    pairs = hio.load_positives(path)
    _check_ids(path, (qid for qid, _ in pairs), query_ids, "unknown query id {!r}")
    _check_ids(path, (iid for _, iid in pairs), item_ids, "unknown item id {!r}", column=1)
    positive_ids = {item.id for item in items if item.modality in POSITIVE_MODALITIES}
    not_positive = "positive {!r} is neither a visual nor a textual item"
    _check_ids(path, (iid for _, iid in pairs), positive_ids, not_positive, column=1)
    positives: dict[str, list[str]] = {}
    for qid, iid in pairs:
        positives.setdefault(qid, []).append(iid)

    path = out / "labels.tsv"
    labels = hio.load_labels(path)
    _check_ids(path, (qid for qid, _, _ in labels), query_ids, "unknown query id {!r}")
    _check_ids(path, (iid for _, iid, _ in labels), item_ids, "unknown item id {!r}", column=1)

    path = out / "gating.tsv"
    gating = hio.load_gating(path)
    _check_ids(path, (qid for qid, _ in gating), query_ids, "unknown query id {!r}")

    path = out / "confidence.tsv"
    confidence = hio.load_confidence(path)
    _check_ids(path, confidence, query_ids, "unknown query id {!r}")

    path = out / "qa.tsv"
    qa = hio.load_qa(path, len(token_embeddings))
    _check_ids(path, qa, query_ids, "unknown query id {!r}")
    _check_every_query(path, queries, qa)

    by_cluster: dict[int, list[str]] = {}
    for (kind, ident), c in clusters.items():
        if kind == "item" and c >= 0:
            by_cluster.setdefault(c, []).append(ident)
    shared = {c: frozenset(ids) for c, ids in by_cluster.items()}
    relevance = {q.id: shared.get(clusters[("query", q.id)], frozenset()) for q in queries}

    return CorpusBundle(
        spec=spec,
        queries=queries,
        items=items,
        positives=positives,
        relevance=relevance,
        labels=labels,
        gating=gating,
        confidence=confidence,
        graph=hio.load_graph(out / "graph"),
        qa=qa,
        token_embeddings=token_embeddings,
        clusters=clusters,
    )
