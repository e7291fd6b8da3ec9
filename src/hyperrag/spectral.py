"""Graph Laplacian spectral machinery and query-relevant subgraph extraction.

The knowledge graph is refined per query by rounding a relaxed Rayleigh
quotient: sort vertices along smallest-eigenvalue Laplacian eigenvectors,
sweep prefix/suffix cuts, keep the candidates whose relevance mass clears
the floor eta, and pick the one minimizing

    sum_{(i,j) in E, i,j in S} w_ij (r_i - r_j)^2  +  rho * cut(S).

A Cheeger-style self-check verifies that the best sweep conductance of the
second normalized-Laplacian eigenvector never exceeds sqrt(2 * lambda_2).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .alignment import EmbeddingTable, Query
from .errors import (
    ConfigurationError,
    ContractViolation,
    InfeasibleConstraintError,
    NumericalError,
)
from .gate import sigmoid_array
from .geometry import log_map  # noqa: F401 (perfbench's tracer test rebinds it here)
from .geometry import origin_exp_rows, origin_log_rows, project_rows

# Up to this many vertices the Laplacians are dense ndarrays and eigenpairs
# come from a dense solve, with no scipy import; larger graphs use
# scipy.sparse and its eigsh.
DENSE_EIG_CUTOFF = 512
# Shift-invert target for eigsh: every caller passes a positive
# semidefinite Laplacian, so L - shift*I is positive definite and the
# eigenvalues nearest the shift are the smallest ones.
_EIG_SHIFT = -1e-6
# Quantization used in sweep sort keys so that relabeling-level rounding
# noise cannot reorder vertices.
_SORT_QUANTUM = 1e-9
_FEASIBLE_ATOL = 1e-12
# Prefix-by-edge entries per chunk of cheeger_check's direct cut sums.
_CUT_CHUNK = 1 << 20


@dataclass(frozen=True)
class GraphVertex:
    id: str
    label: str
    features: np.ndarray

    def __post_init__(self):
        arr = np.array(self.features, dtype=float)
        if arr.ndim != 1 or np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise ContractViolation(f"vertex {self.id!r} has invalid features")
        arr.setflags(write=False)
        object.__setattr__(self, "features", arr)


class GraphRecordError(ContractViolation):
    """One vertex, edge or triplet breaks the KnowledgeGraph contract:
    ``records`` names the field and ``position`` the entry's index in it."""

    def __init__(self, message: str, records: str, position: int):
        super().__init__(message)
        self.records, self.position = records, position


@dataclass(frozen=True)
class KnowledgeGraph:
    """Undirected weighted graph with an overlaid triplet relation list.

    Every vertex has as many features as the first.  Edges are (u_id,
    v_id, weight) with a finite weight >= 0 and a finite total degree, no
    self-loops and at most one edge per unordered pair.  A record that
    breaks this raises GraphRecordError.
    """

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[str, str, float], ...]
    triplets: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "triplets", tuple(self.triplets))
        index: dict[str, int] = {}
        for i, vert in enumerate(self.vertices):
            if vert.id in index:
                raise GraphRecordError(f"duplicate vertex id {vert.id!r}", "vertices", i)
            width0 = self.vertices[0].features.size
            if vert.features.size != width0:
                raise GraphRecordError(
                    f"vertex {vert.id!r} has {vert.features.size} features, but the first "
                    f"vertex has {width0}", "vertices", i
                )
            index[vert.id] = i
        seen: set[tuple[str, str]] = set()
        u_idx, v_idx, weights = [], [], []
        for pos, (u, v, w) in enumerate(self.edges):
            if u not in index or v not in index:
                raise GraphRecordError(
                    f"edge ({u!r}, {v!r}) references unknown vertices", "edges", pos
                )
            if u == v:
                raise GraphRecordError(f"self-loop on vertex {u!r}", "edges", pos)
            if not 0.0 <= w < math.inf:
                raise GraphRecordError(
                    f"edge weight {w} on ({u!r}, {v!r}) is not finite and >= 0", "edges", pos
                )
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                raise GraphRecordError(f"duplicate edge for pair {key}", "edges", pos)
            seen.add(key)
            u_idx.append(index[u])
            v_idx.append(index[v])
            weights.append(float(w))
        ends = []
        for pos, (h, _rel, t) in enumerate(self.triplets):
            if h not in index or t not in index:
                raise GraphRecordError(
                    f"triplet ({h!r}, ..., {t!r}) references unknown vertices", "triplets", pos
                )
            ends.append((index[h], index[t]))
        object.__setattr__(self, "_ends", np.array(ends, dtype=np.intp).reshape(-1, 2).T)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_u", np.array(u_idx, dtype=np.intp))
        object.__setattr__(self, "_v", np.array(v_idx, dtype=np.intp))
        object.__setattr__(self, "_w", np.array(weights, dtype=float))
        if not math.isfinite(2.0 * sum(weights)):
            pos = int(np.argmax(weights))
            raise GraphRecordError(
                f"edge {self.edges[pos][:2]} overflows the total vertex degree", "edges", pos
            )
        deg = np.zeros(len(self.vertices))
        np.add.at(deg, self._u, self._w)
        np.add.at(deg, self._v, self._w)
        object.__setattr__(self, "_degrees", deg)

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @functools.cached_property
    def feature_matrix(self) -> np.ndarray:
        """Vertex features stacked in graph order: shape (size, width);
        built on first use."""
        if not self.vertices:
            return np.empty((0, 0))
        return np.stack([vert.features for vert in self.vertices])

    def vertex_index(self, vid: str) -> int:
        if vid not in self._index:
            raise ContractViolation(f"unknown vertex id {vid!r}")
        return self._index[vid]

    def triplets_within(self, indicator) -> np.ndarray:
        """Mask over ``triplets``: head and tail both have a positive
        ``indicator`` entry (one per vertex, in graph order)."""
        inside = np.asarray(indicator) > 0
        return inside[self._ends[0]] & inside[self._ends[1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._u, self._v, self._w

    def adjacency(self):
        """The weighted adjacency matrix as scipy.sparse CSR."""
        import scipy.sparse as sp

        n = self.size
        rows = np.concatenate([self._u, self._v])
        cols = np.concatenate([self._v, self._u])
        vals = np.concatenate([self._w, self._w])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def connected_components(graph: KnowledgeGraph) -> int:
    """Number of connected components; every edge connects its ends,
    whatever its weight (zero included)."""
    import scipy.sparse as sp
    from scipy.sparse import csgraph

    u, v, _ = graph.edge_arrays()
    unit = sp.coo_matrix((np.ones(u.size), (u, v)), shape=(graph.size, graph.size))
    count, _ = csgraph.connected_components(unit, directed=False)
    return count


def laplacian(graph: KnowledgeGraph):
    """L = D - A.  Dense ndarray up to 512 vertices, sparse CSR beyond.

    The dense matrix repeats scipy's CSR arithmetic: L_ii = deg_i and
    L_uv = L_vu = 0.0 - w (never -w, whose sign bit a zero weight flips)."""
    if graph.size > DENSE_EIG_CUTOFF:
        import scipy.sparse as sp

        return (sp.diags(graph.degrees) - graph.adjacency()).tocsr()
    u, v, w = graph.edge_arrays()
    lap = np.diag(graph.degrees)
    lap[u, v] = lap[v, u] = 0.0 - w
    return lap


def normalized_laplacian(graph: KnowledgeGraph):
    """I - D^{-1/2} A D^{-1/2}; zero-degree vertices get isolated zero rows.
    Dense ndarray up to 512 vertices, sparse CSR beyond; an edge's dense
    entry at (i, j) is 0.0 - (d_i * w) * d_j, d = D^{-1/2}, as scipy's
    diags(d) @ A @ diags(d) computes it."""
    deg = graph.degrees
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    if graph.size > DENSE_EIG_CUTOFF:
        import scipy.sparse as sp

        norm_adj = sp.diags(inv_sqrt) @ graph.adjacency() @ sp.diags(inv_sqrt)
        return (sp.diags((deg > 0).astype(float)) - norm_adj).tocsr()
    u, v, w = graph.edge_arrays()
    lap = np.diag((deg > 0).astype(float))
    lap[u, v] = 0.0 - (inv_sqrt[u] * w) * inv_sqrt[v]
    lap[v, u] = 0.0 - (inv_sqrt[v] * w) * inv_sqrt[u]
    return lap


def smallest_eigenpairs(
    mat,
    k: int,
    dense_cutoff: int = DENSE_EIG_CUTOFF,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """k smallest (eigenvalue, eigenvector) pairs of a symmetric positive
    semidefinite matrix, eigenvalues ascending, eigenvectors orthonormal
    columns.

    Dense symmetric solve up to dense_cutoff (and whenever k == n);
    beyond it, ARPACK Lanczos (``scipy.sparse.linalg.eigsh``) in
    shift-invert mode just below 0, started from a seeded vector so that
    repeated calls return the same basis of a degenerate eigenspace.
    Non-convergence raises NumericalError.
    """
    n = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise ContractViolation(f"matrix must be square, got {mat.shape}")
    if k < 1 or k > n:
        raise ContractViolation(f"k={k} outside [1, {n}]")
    if n <= dense_cutoff or k == n:
        # Of the inputs, only a scipy sparse matrix has todense; asking
        # that, not scipy.sparse.issparse, keeps scipy unloaded here.
        if hasattr(mat, "todense"):
            mat = mat.todense()
        vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=float))
        return vals[:k].copy(), vecs[:, :k].copy()
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(mat, k=k, sigma=_EIG_SHIFT, which="LM", v0=v0)
    except ArpackNoConvergence as exc:
        raise NumericalError(f"eigsh did not converge: {exc}") from exc
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


@dataclass(frozen=True)
class RelevanceVector:
    """Per-vertex relevance scores in [0, 1], aligned with graph order."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ContractViolation("relevance values must form a 1-D vector")
        # NaN fails both comparisons, so this also rejects non-finite entries.
        if np.count_nonzero((arr >= 0.0) & (arr <= 1.0)) < arr.size:
            raise ContractViolation("relevance entries must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def _feature_dots(query: Query, feats: np.ndarray) -> np.ndarray:
    """0.5 * (visual . f + textual . f) for each row f of feats (n, w), each
    block truncated to the common length.  ``matmul`` over stacked row
    vectors makes the one ``ddot`` per row that ``block[:m] @ f[:m]`` makes,
    so each score keeps the bits of a one-row call."""
    total = 0.0
    for block in (query.visual_features, query.text_features):
        m = min(block.size, feats.shape[1])
        total = total + np.matmul(feats[:, None, :m], block[:m, None])[:, 0, 0]
    return 0.5 * total


def relevance_vector(query: Query, graph: KnowledgeGraph) -> RelevanceVector:
    """r_i = sigmoid(s_i) for every vertex, s the ``_feature_dots`` of the
    graph's feature matrix against the query."""
    return RelevanceVector(sigmoid_array(_feature_dots(query, graph.feature_matrix)))


@dataclass(frozen=True)
class Subgraph:
    """A selected vertex set, its read-only 0/1 indicator and its build parameters."""

    selected: tuple[str, ...]
    indicator: np.ndarray
    eta: float
    relevance_mass: float
    objective: float
    fallback_used: bool = False

    def __post_init__(self):
        arr = np.array(self.indicator, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "indicator", arr)


def _coerce_relevance(graph: KnowledgeGraph, r) -> np.ndarray:
    arr = (r if isinstance(r, RelevanceVector) else RelevanceVector(r)).values
    if arr.size != graph.size:
        raise ContractViolation(
            f"relevance length {arr.size} does not match vertex count {graph.size}"
        )
    return arr


def subgraph_objective(graph: KnowledgeGraph, members: np.ndarray, r, rho: float) -> float:
    """sum_{edges inside S} w (r_i - r_j)^2 + rho * cut(S) for a boolean
    membership vector."""
    r_arr = _coerce_relevance(graph, r)
    u, v, w = graph.edge_arrays()
    inside = members[u] & members[v]
    crossing = members[u] != members[v]
    smooth = float(np.sum(w[inside] * (r_arr[u[inside]] - r_arr[v[inside]]) ** 2))
    return smooth + rho * float(np.sum(w[crossing]))


def _prefix_profiles(graph: KnowledgeGraph, orders: np.ndarray, r: np.ndarray, rho: float):
    """Stacked sweep: objective(s) and relevance mass for every prefix
    size s = 0..n of every vertex order (row) of ``orders``."""
    m, n = orders.shape
    u, v, w = graph.edge_arrays()
    pos = np.empty_like(orders)
    pos[np.arange(m)[:, None], orders] = np.arange(n)
    pu, pv = pos[:, u], pos[:, v]
    # Prefix s of row i is bin i*(n+1) + s.  An edge is internal to the
    # prefix once both endpoints are in (s >= hi+1) and crosses it while
    # exactly one is (lo < s <= hi).  bincount adds each bin's terms in
    # input order, so each row sums in edge order, every +w of the cut
    # before every -w, as per-sweep np.add.at calls did.
    bins = np.arange(1, m * (n + 1), n + 1)[:, None]
    lo = (bins + np.minimum(pu, pv)).ravel()
    hi = (bins + np.maximum(pu, pv)).ravel()
    smooth_vals = w * (r[u] - r[v]) ** 2
    internal = np.bincount(hi, np.tile(smooth_vals, m), m * (n + 1)).reshape(m, n + 1)
    w_rows = np.tile(w, m)
    cut = np.bincount(np.concatenate([lo, hi]), np.concatenate([w_rows, -w_rows]), m * (n + 1))
    mass = np.zeros((m, n + 1))
    np.cumsum(r[orders], axis=1, out=mass[:, 1:])
    return np.cumsum(internal, axis=1) + rho * np.cumsum(cut.reshape(m, n + 1), axis=1), mass


@dataclass(frozen=True)
class SweepKeys:
    """Eigenvectors and each sweep row's dense rank of its quantized key, built
    once per eigenvector set.  Rows 2c and 2c+1 sweep column c, sign-canonical,
    and its negation; a column whose keys all tie is one order, and one row."""

    eigvecs: np.ndarray
    ranks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = self.eigvecs.shape
        pivots = self.eigvecs[np.argmax(np.abs(self.eigvecs), axis=0), np.arange(k)]
        vecs = np.where(pivots < 0, -self.eigvecs, self.eigvecs).T
        keys = np.round(np.stack([vecs, -vecs], axis=1) / _SORT_QUANTUM) * _SORT_QUANTUM
        ranks = [np.unique(row, return_inverse=True)[1] for row in keys.reshape(2 * k, n)]
        kept = [rank for i, rank in enumerate(ranks) if i % 2 == 0 or rank.any()]
        object.__setattr__(self, "ranks", np.array(kept))

    @classmethod
    def of(cls, graph: KnowledgeGraph, k: int, seed: int = 0) -> "SweepKeys":
        """The keys of the graph Laplacian's min(k, n) smallest eigenvectors."""
        return cls(smallest_eigenpairs(laplacian(graph), min(k, graph.size), seed=seed)[1])

    def orders(self, r: np.ndarray) -> np.ndarray:
        """Each row's vertex order: by key rank, then quantized r, then index."""
        base_rank = np.empty(r.size, dtype=np.intp)
        base_rank[np.lexsort((np.arange(r.size), np.round(r / _SORT_QUANTUM)))] = np.arange(r.size)
        return np.argsort(self.ranks * r.size + base_rank, axis=1)


def refine_subgraph(
    graph: KnowledgeGraph,
    r,
    eta: float,
    k: int = 10,
    rho: float = 1.0,
    sweep_keys: SweepKeys | None = None,
    seed: int = 0,
) -> Subgraph:
    """Sweep-cut rounding over the k smallest-eigenvalue eigenvectors with
    the relevance-mass feasibility filter sum_{i in S} r_i >= eta.
    ``sweep_keys`` carries precomputed eigenvectors; k then goes unused.

    Candidate pool: all prefix/suffix sweeps of each eigenvector, plus the
    empty set and the full set.  Ties resolve by objective, then set size,
    then lexicographic vertex ids.  If no proper sweep candidate is
    feasible the full set is returned with fallback_used set.
    """
    if eta < 0:
        raise ContractViolation(f"eta must be nonnegative, got {eta}")
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    if not 0 <= rho < math.inf:
        raise ContractViolation(f"rho must be finite and nonnegative, got {rho}")
    # Every sweep objective is at most max(1, rho) * total edge weight.
    if not math.isfinite(float(rho) * float(np.sum(graph.edge_arrays()[2]))):
        raise ConfigurationError(f"rho={rho} times the total edge weight overflows")
    r_arr = _coerce_relevance(graph, r)
    n = graph.size
    total_mass = float(r_arr.sum())
    if eta > total_mass + _FEASIBLE_ATOL:
        raise InfeasibleConstraintError(
            f"eta={eta} exceeds total relevance mass {total_mass:.6g}"
        )
    if sweep_keys is None:
        sweep_keys = SweepKeys.of(graph, k, seed)
    # Each candidate is (objective, size, member index array).
    candidates: list[tuple[float, int, np.ndarray]] = []
    all_idx = np.arange(n)
    candidates.append((subgraph_objective(graph, np.ones(n, dtype=bool), r_arr, rho), n, all_idx))
    if 0.0 >= eta - _FEASIBLE_ATOL:
        candidates.append((0.0, 0, all_idx[:0]))
    orders = sweep_keys.orders(r_arr)
    objective, mass = _prefix_profiles(graph, orders, r_arr, rho)
    # Proper prefixes only; infeasible ones are masked out.  The per-row
    # argmin matches the global (objective, size) order because argmin
    # returns the smallest prefix among ties.
    objs = np.where(mass[:, 1:n] >= eta - _FEASIBLE_ATOL, objective[:, 1:n], np.inf)
    rows = np.flatnonzero(np.isfinite(objs.min(axis=1, initial=np.inf)))
    if rows.size:
        sizes = np.argmin(objs[rows], axis=1) + 1
        candidates += [
            (float(objective[i, s]), s, orders[i, :s])
            for i, s in zip(rows.tolist(), sizes.tolist())
        ]
    best_obj, best_size = min((obj, size) for obj, size, _ in candidates)
    tied = [
        idxs
        for obj, size, idxs in candidates
        if obj == best_obj and size == best_size
    ]
    ids = [vert.id for vert in graph.vertices]
    ids_of = lambda idxs: tuple(sorted([ids[i] for i in idxs.tolist()]))
    best_ids, best_idxs = min(((ids_of(idxs), idxs) for idxs in tied), key=lambda c: c[0])
    fallback = rows.size == 0 and best_size == n
    members = np.zeros(n, dtype=bool)
    members[best_idxs] = True
    mass = float(r_arr[members].sum())
    if mass < eta - _FEASIBLE_ATOL:
        raise NumericalError("selected subgraph violates its relevance constraint")
    return Subgraph(
        selected=best_ids,
        indicator=members,
        eta=eta,
        relevance_mass=mass,
        objective=best_obj,
        fallback_used=fallback,
    )


@dataclass(frozen=True)
class CheegerReport:
    lambda2_normalized: float
    lambda2_unnormalized: float
    sweep_conductance: float
    bound: float
    bound_holds: bool
    degenerate: bool


def cheeger_check(graph: KnowledgeGraph, seed: int = 0) -> CheegerReport:
    """Best sweep conductance of the second normalized-Laplacian
    eigenvector versus the sqrt(2 * lambda_2) bound.

    Disconnected graphs report lambda_2 = 0 and are flagged degenerate.
    """
    n = graph.size
    if n < 2:
        raise ContractViolation("cheeger_check needs at least 2 vertices")
    degenerate = connected_components(graph) != 1
    vals_n, vecs_n = smallest_eigenpairs(normalized_laplacian(graph), 2, seed=seed)
    vals_u, _ = smallest_eigenpairs(laplacian(graph), 2, seed=seed)
    lam2 = max(float(vals_n[1]), 0.0)
    # Sweep in D^{-1/2} v order, which carries the Cheeger guarantee.
    deg = graph.degrees
    scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 1.0)
    y = vecs_n[:, 1] * scale
    order = SweepKeys(y[:, None]).orders(np.zeros(n))[0]
    # Cuts and volumes are sums of nonnegative terms, with no subtraction,
    # so that a heavy edge cannot cancel the light ones.
    u, v, w = graph.edge_arrays()
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    lo, hi = np.minimum(pos[u], pos[v]), np.maximum(pos[u], pos[v])
    step = max(1, _CUT_CHUNK // max(w.size, 1))
    sizes = np.split(np.arange(1, n)[:, None], range(step, n - 1, step))
    cuts = np.concatenate([((lo < s) & (s <= hi)) @ w for s in sizes])
    vol = deg[order]
    denom = np.minimum(np.cumsum(vol)[:-1], np.cumsum(vol[::-1])[::-1][1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(denom > 0.0, cuts / denom, np.where(cuts == 0.0, 0.0, math.inf))
    best = float(phi.min())
    bound = math.sqrt(2.0 * lam2)
    return CheegerReport(
        lambda2_normalized=lam2,
        lambda2_unnormalized=float(vals_u[1]),
        sweep_conductance=best,
        bound=bound,
        bound_holds=bool(best <= bound + 1e-12),
        degenerate=degenerate,
    )


def hash_features(label: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-features for relation labels: SHA-256 bytes
    mapped into [-1, 1]."""
    if dim < 1:
        raise ContractViolation(f"feature dimension must be >= 1, got {dim}")
    digests = (hashlib.sha256(f"{label}#{c}".encode()).digest() for c in range(-(-dim // 32)))
    return np.frombuffer(b"".join(digests)[:dim], dtype=np.uint8) / 127.5 - 1.0


@dataclass(frozen=True)
class TripletRecord:
    head: str
    relation: str
    tail: str


def extract_triplets(subgraph: Subgraph, graph: KnowledgeGraph) -> list[TripletRecord]:
    """All triplets of the parent graph whose head and tail lie in the
    subgraph (``graph.triplets_within``), in graph order."""
    inside = graph.triplets_within(subgraph.indicator)
    return [TripletRecord(*trip) for trip, keep in zip(graph.triplets, inside) if keep]


def embed_triplets(graph: KnowledgeGraph, table: EmbeddingTable, triplets) -> np.ndarray:
    """Origin tangent rows, shape (len(triplets), dim), one per (head,
    relation, tail) triplet in the given order.

    Head/relation/tail features go through the graph-modality map, their
    origin log-map tangents are averaged and exp-mapped back, and the row
    is that point's spatial tangent at the origin.  A tangent depends only
    on the table and the features, so each distinct vertex and relation
    label is embedded once per call, in order of first use.  Every step is
    a row-wise pass, and each row equals the per-triplet scalar path's
    (``np.mean`` of three rows adds them in order and divides by 3).
    """
    if not triplets:
        return np.empty((0, table.dim))
    keys = list(dict.fromkeys(
        key for head, rel, tail in triplets for key in ((False, head), (True, rel), (False, tail))
    ))
    slot = {key: i for i, key in enumerate(keys)}
    is_rel = np.array([rel for rel, _ in keys])
    graph_dim = table.input_dims["graph_triplet"]
    vertex_feats = graph.feature_matrix[[graph.vertex_index(k) for rel, k in keys if not rel]]
    label_feats = np.stack([hash_features(k, graph_dim) for rel, k in keys if rel])
    spatial = np.empty((len(keys), table.dim))
    spatial[~is_rel] = table.spatial(vertex_feats, "graph_triplet")
    spatial[is_rel] = table.spatial(label_feats, "graph_triplet")
    tangents = origin_log_rows(project_rows(spatial))
    h, r, t = np.array(
        [(slot[False, head], slot[True, rel], slot[False, tail]) for head, rel, tail in triplets]
    ).T
    mean = (tangents[h] + tangents[r] + tangents[t]) / 3.0
    return origin_log_rows(origin_exp_rows(mean))[:, 1:]
