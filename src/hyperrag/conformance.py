"""Independent brute-force oracles for the numerical kernels, and the
scalar reference forms they check against.

Every oracle here recomputes its answer from first principles
(enumeration, dense solves, finite differences) without touching the
code path it checks.  Production modules never import this module; only
the tests and the CLI's `conformance run` subcommand do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .alignment import QUERY_KEY, EmbeddingTable, KnowledgeItem, Query
from .errors import ContractViolation, InfeasibleConstraintError
from .gate import RelevanceHead, crm_loss_and_grads
from .generation import (
    GenExample,
    TokenSequence,
    ToyGenerator,
    condition_vector,
    example_losses_and_grad,
    gold_distribution,
    softmax,
)
from .geometry import (
    TangentVector,
    exp_map,
    log_map,
    origin,
    origin_exp_rows,
    origin_log_rows,
    project_rows,
    project_to_hyperboloid,
)
from .spectral import (
    GraphVertex,
    KnowledgeGraph,
    laplacian,
    refine_subgraph,
    smallest_eigenpairs,
)
from .transport import (
    DistributionStack,
    EmpiricalDistribution,
    entropic_terms,
    wasserstein2_exact,
    wasserstein2_sinkhorn,
)

OT_BRUTEFORCE_LIMIT = 8
SUBSET_BRUTEFORCE_LIMIT = 12
DENSE_EIGS_LIMIT = 64
FEASIBLE_ATOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """One oracle-vs-implementation comparison.

    Vector-valued checks store the maximum absolute deviation in
    `implementation` with `oracle` 0; set-valued checks store 0/1
    disagreement with tolerance 0.
    """

    case: str
    oracle: float
    implementation: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        consistent = (abs(self.oracle - self.implementation) <= self.tolerance) == self.passed
        if not consistent:
            raise ContractViolation(
                f"oracle result {self.case!r} has an inconsistent pass flag"
            )

    @classmethod
    def from_values(
        cls, case: str, oracle: float, implementation: float, tolerance: float
    ) -> "OracleResult":
        oracle, implementation = float(oracle), float(implementation)
        passed = abs(oracle - implementation) <= tolerance
        return cls(case, oracle, implementation, float(tolerance), passed)

    @classmethod
    def from_sets(cls, case: str, oracle_set, implementation_set) -> "OracleResult":
        same = frozenset(oracle_set) == frozenset(implementation_set)
        return cls.from_values(case, 0.0, 0.0 if same else 1.0, 0.0)

    def to_record(self) -> dict:
        return asdict(self)


def ot_bruteforce(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Exact W2 for uniform equal-size distributions by enumerating all
    assignments; the optimum of such instances is a permutation."""
    n = p.size
    if n != q.size:
        raise ContractViolation(
            f"enumeration oracle needs equal support sizes, got {n} and {q.size}"
        )
    if n > OT_BRUTEFORCE_LIMIT:
        raise ContractViolation(
            f"support size {n} exceeds the enumeration limit {OT_BRUTEFORCE_LIMIT}"
        )
    uniform = np.full(n, 1.0 / n)
    if not (
        np.allclose(p.weights, uniform, atol=1e-12)
        and np.allclose(q.weights, uniform, atol=1e-12)
    ):
        raise ContractViolation("enumeration oracle handles uniform weights only")
    cost = np.array([[float(np.sum((x - y) ** 2)) for y in q.support] for x in p.support])
    best = min(
        sum(cost[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(n))
    )
    return float(np.sqrt(best / n))


def subset_bruteforce(
    graph: KnowledgeGraph, r, eta: float, rho: float
) -> tuple[float, tuple[str, ...]]:
    """Global optimum of the rounding objective over all vertex subsets.

    The objective (relevance smoothness inside S plus rho times the cut
    weight) is recomputed from the edge list here, independently of the
    production formula.  Ties resolve by objective, then size, then
    lexicographic ids, matching the rounding routine.
    """
    n = graph.size
    if n > SUBSET_BRUTEFORCE_LIMIT:
        raise ContractViolation(
            f"{n} vertices exceed the enumeration limit {SUBSET_BRUTEFORCE_LIMIT}"
        )
    r = np.asarray(r, dtype=float)
    if r.size != n:
        raise ContractViolation("relevance length does not match the vertex count")
    total = float(r.sum())
    if eta > total + FEASIBLE_ATOL:
        raise InfeasibleConstraintError(
            f"eta={eta} exceeds total relevance mass {total:.6g}"
        )
    index = {v.id: i for i, v in enumerate(graph.vertices)}
    edges = [(index[u], index[v], w) for u, v, w in graph.edges]
    best = None
    for mask in range(1 << n):
        inside = [bool((mask >> i) & 1) for i in range(n)]
        if sum(r[i] for i in range(n) if inside[i]) < eta - FEASIBLE_ATOL:
            continue
        obj = 0.0
        for u, v, w in edges:
            if inside[u] and inside[v]:
                obj += w * (r[u] - r[v]) ** 2
            elif inside[u] != inside[v]:
                obj += rho * w
        ids = tuple(sorted(graph.vertices[i].id for i in range(n) if inside[i]))
        key = (obj, len(ids), ids)
        if best is None or key < best:
            best = key
    obj, _, ids = best
    return obj, ids


def dense_eigs(mat) -> np.ndarray:
    """Full ascending spectrum via the dense symmetric solver."""
    arr = mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ContractViolation(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] > DENSE_EIGS_LIMIT:
        raise ContractViolation(
            f"{arr.shape[0]} rows exceed the dense-oracle limit {DENSE_EIGS_LIMIT}"
        )
    return np.linalg.eigvalsh(arr)


def cut_size(graph: KnowledgeGraph, selected) -> float:
    """Total weight of edges with exactly one endpoint in the set."""
    members = _member_mask(graph, selected)
    u, v, w = graph.edge_arrays()
    crossing = members[u] != members[v]
    return float(np.sum(w[crossing]))


def conductance(graph: KnowledgeGraph, selected) -> float:
    """cut(S) / min(vol(S), vol(V \\ S)) of a proper nonempty set: what
    ``spectral.cheeger_check`` minimizes over its sweep's prefixes."""
    members = _member_mask(graph, selected)
    size = int(members.sum())
    if size == 0 or size == graph.size:
        raise ContractViolation("conductance requires a proper nonempty vertex subset")
    cut = cut_size(graph, members)
    vol_s = float(graph.degrees[members].sum())
    vol_rest = float(graph.degrees[~members].sum())
    denom = min(vol_s, vol_rest)
    if denom == 0.0:
        return 0.0
    return cut / denom


def _member_mask(graph: KnowledgeGraph, selected) -> np.ndarray:
    if isinstance(selected, np.ndarray) and selected.dtype == bool:
        if selected.size != graph.size:
            raise ContractViolation("membership mask length mismatch")
        return selected
    members = np.zeros(graph.size, dtype=bool)
    for vid in selected:
        members[graph.vertex_index(vid)] = True
    return members


def sigmoid(x: float) -> float:
    """The scalar form that ``gate.sigmoid_array`` matches bit for bit."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_lift(table: EmbeddingTable, features, key: str):
    """The ``LorentzPoint`` of one feature vector through ``key``'s map: its
    coordinates are a row of ``embed_corpus_rows`` or ``embed_query_rows``."""
    return project_to_hyperboloid(table.spatial(features, key))


def origin_tangents(points, dim: int) -> np.ndarray:
    """The spatial part of each point's tangent at the origin,
    ``log_map(origin, p).components[1:]``, stacked: shape (len(points), dim).
    Evidence is passed around as these rows."""
    base = origin(dim)
    return np.array([log_map(base, p).components[1:] for p in points]).reshape(len(points), dim)


def flat_params(model, grads: dict | None = None) -> np.ndarray:
    """``model.named_params()``, or the same-named ``grads``, as one vector."""
    arrays = dict(model.named_params()) if grads is None else grads
    return np.concatenate([arrays[name].ravel() for name, _ in model.named_params()])


def load_flat_params(model, flat: np.ndarray) -> None:
    """Write ``flat`` into the arrays ``flat_params`` reads, in place."""
    start = 0
    for _, arr in model.named_params():
        arr[...] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size


def finite_difference_grad(f, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences per coordinate; coordinates where either
    evaluation is non-finite are reported as NaN."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = f(bumped)
        bumped[i] = params[i] - h
        down = f(bumped)
        if not (np.isfinite(up) and np.isfinite(down)):
            grad[i] = np.nan
        else:
            grad[i] = (up - down) / (2.0 * h)
    return grad


def _relative_error(est: np.ndarray, ref: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(ref)), 1e-12)
    return float(np.linalg.norm(est - ref)) / denom


def random_connected_graph(rng: np.random.Generator, n: int) -> KnowledgeGraph:
    """Random tree plus extra chords; always connected, weights in
    [0.2, 2.0)."""
    edges: list[tuple[str, str, float]] = []
    for i in range(1, n):
        j = int(rng.integers(i))
        edges.append((f"v{j:02d}", f"v{i:02d}", float(rng.uniform(0.2, 2.0))))
    present = {(u, v) for u, v, _ in edges}
    for _ in range(n):
        i, j = rng.integers(n, size=2)
        if i == j:
            continue
        a, b = sorted((f"v{int(i):02d}", f"v{int(j):02d}"))
        if (a, b) not in present:
            present.add((a, b))
            edges.append((a, b, float(rng.uniform(0.2, 2.0))))
    vertices = tuple(
        GraphVertex(f"v{i:02d}", f"v{i:02d}", rng.normal(size=3)) for i in range(n)
    )
    return KnowledgeGraph(vertices, tuple(edges), ())


def two_clique_graph() -> tuple[KnowledgeGraph, np.ndarray]:
    """Two 4-cliques joined by one bridge edge; relevance concentrated on
    the first clique."""
    vertices = []
    edges = []
    for prefix in ("a", "b"):
        ids = [f"{prefix}{i}" for i in range(4)]
        vertices += [GraphVertex(v, v, np.zeros(2)) for v in ids]
        edges += [(ids[i], ids[j], 1.0) for i in range(4) for j in range(i + 1, 4)]
    edges.append(("a0", "b0", 1.0))
    r = np.array([0.95] * 4 + [0.05] * 4)
    return KnowledgeGraph(tuple(vertices), tuple(edges), ()), r


def _transport_cases(rng: np.random.Generator) -> list[OracleResult]:
    worst = None
    for _ in range(200):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        p = EmpiricalDistribution.uniform(rng.normal(size=(n, d)))
        q = EmpiricalDistribution.uniform(rng.normal(size=(n, d)))
        oracle = ot_bruteforce(p, q)
        value, _ = wasserstein2_exact(p, q)
        if worst is None or abs(oracle - value) > worst[0]:
            worst = (abs(oracle - value), oracle, value)
    results = [
        OracleResult.from_values(
            "transport/exact-vs-enumeration-200", worst[1], worst[2], 1e-9
        )
    ]
    p = EmpiricalDistribution.uniform(np.array([0.0, 1.0]))
    q = EmpiricalDistribution.uniform(np.array([0.0, 2.0]))
    oracle = ot_bruteforce(p, q)
    sink, _, _ = wasserstein2_sinkhorn(p, q, epsilon=0.01)
    results.append(
        OracleResult.from_values("transport/sinkhorn-1d-benchmark", oracle, sink, 1e-3)
    )
    return results


def _path_graph(n: int) -> KnowledgeGraph:
    return KnowledgeGraph(
        tuple(GraphVertex(f"v{i}", f"v{i}", np.zeros(1)) for i in range(n)),
        tuple((f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)),
        (),
    )


def _complete_graph(n: int) -> KnowledgeGraph:
    return KnowledgeGraph(
        tuple(GraphVertex(f"v{i}", f"v{i}", np.zeros(1)) for i in range(n)),
        tuple((f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(i + 1, n)),
        (),
    )


def _spectral_cases(rng: np.random.Generator) -> list[OracleResult]:
    results = []
    dev = float(
        np.max(np.abs(dense_eigs(laplacian(_path_graph(3))) - np.array([0.0, 1.0, 3.0])))
    )
    results.append(OracleResult.from_values("spectral/path3-spectrum", 0.0, dev, 1e-7))

    dev = float(
        np.max(
            np.abs(dense_eigs(laplacian(_complete_graph(4))) - np.array([0.0, 4.0, 4.0, 4.0]))
        )
    )
    results.append(OracleResult.from_values("spectral/complete4-spectrum", 0.0, dev, 1e-7))

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 24))
        graph = random_connected_graph(rng, n)
        mat = laplacian(graph)
        full = dense_eigs(mat)
        k = min(4, n)
        vals, _ = smallest_eigenpairs(mat, k, dense_cutoff=0, seed=int(rng.integers(2**31)))
        worst = max(worst, float(np.max(np.abs(vals - full[:k]))))
    results.append(
        OracleResult.from_values("spectral/sparse-vs-dense-100", 0.0, worst, 1e-7)
    )

    graph, r = two_clique_graph()
    _, oracle_ids = subset_bruteforce(graph, r, eta=3.5, rho=0.5)
    sub = refine_subgraph(graph, r, eta=3.5, k=4, rho=0.5)
    results.append(
        OracleResult.from_sets("spectral/two-clique-planted", oracle_ids, sub.selected)
    )

    worst_ratio = 0.0
    for _ in range(40):
        instance = random_rounding_instance(rng)
        worst_ratio = max(worst_ratio, rounding_ratio(*instance))
    results.append(
        OracleResult.from_values("spectral/refine-2x-ratio-40", 0.0, worst_ratio, 2.0)
    )
    return results


def random_rounding_instance(
    rng: np.random.Generator,
) -> tuple[KnowledgeGraph, np.ndarray, float]:
    """Random unit-weight connected graph with i.i.d. uniform relevance and
    a feasible mass threshold.  Unit weights keep the rounding objective in
    the conductance-style regime where the 2x factor applies; small random
    coupling weights admit rare non-contiguous optima that no 1-D sweep can
    reach."""
    n = int(rng.integers(4, 13))
    g = random_connected_graph(rng, n)
    graph = KnowledgeGraph(g.vertices, tuple((u, v, 1.0) for u, v, _ in g.edges), ())
    r = rng.uniform(size=n)
    eta = float(rng.uniform(0.0, 0.8) * r.sum())
    return graph, r, eta


def rounding_ratio(graph: KnowledgeGraph, r: np.ndarray, eta: float) -> float:
    """Sweep-cut objective over the brute-force optimum (1.0 when both are
    numerically zero)."""
    opt, _ = subset_bruteforce(graph, r, eta, 1.0)
    sub = refine_subgraph(graph, r, eta=eta, k=min(4, graph.size), rho=1.0)
    if opt <= 1e-12:
        return 1.0 if sub.objective <= 1e-9 else float("inf")
    return sub.objective / opt


def _gradient_cases(rng: np.random.Generator) -> list[OracleResult]:
    results = []
    coeffs = rng.normal(size=5)
    target = rng.normal(size=5)

    def quad(p: np.ndarray) -> float:
        return float(0.5 * np.sum(coeffs * (p - target) ** 2))

    point = rng.normal(size=5)
    fd = finite_difference_grad(quad, point)
    analytic = coeffs * (point - target)
    results.append(
        OracleResult.from_values(
            "conformance/fd-on-quadratic",
            0.0,
            float(np.max(np.abs(fd - analytic))),
            1e-9,
        )
    )
    results.append(crm_gradient_case(seed=int(rng.integers(2**31))))
    results.append(generator_gradient_case(seed=int(rng.integers(2**31))))
    return results


def crm_gradient_case(seed: int = 7) -> OracleResult:
    """Analytic relevance-head gradient vs central differences on a small
    contrastive batch; reports the relative error."""
    rng = np.random.default_rng(seed)
    head = RelevanceHead(query_dim=4, item_dim=3, hidden=6, seed=3)
    query = Query("q", rng.normal(size=2), rng.normal(size=2))
    batch = [
        (
            query,
            [KnowledgeItem("p0", "visual", rng.normal(size=3))],
            [KnowledgeItem("n0", "textual", rng.normal(size=3))],
        )
    ]
    _, grads = crm_loss_and_grads(head, batch)
    analytic = flat_params(head, grads)

    def head_loss(flat: np.ndarray) -> float:
        probe = RelevanceHead(4, 3, hidden=6, seed=3)
        load_flat_params(probe, flat)
        loss, _ = crm_loss_and_grads(probe, batch, want_grads=False)
        return loss

    fd = finite_difference_grad(head_loss, flat_params(head))
    return OracleResult.from_values(
        "gate/head-gradient-fd", 0.0, _relative_error(analytic, fd), 1e-4
    )


def generator_gradient_case(
    seed: int = 9, alpha: float = 0.7, epsilon: float = 0.05
) -> OracleResult:
    """Blended generation gradient (cross-entropy plus entropic transport
    through the softmax) vs central differences on the generator weight;
    reports the relative error."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        4, {"visual": 3, "textual": 3, "graph_triplet": 3, "query": 6}, seed=5
    )
    query = Query("q", rng.normal(size=3), rng.normal(size=3))
    vocab = 4
    gen = ToyGenerator(vocab_size=vocab, context_dim=2 * table.dim)
    gen.weight = 0.3 * rng.normal(size=gen.weight.shape)
    gen.bias = 0.3 * rng.normal(size=gen.bias.shape)
    token_embeddings = rng.normal(size=(vocab, 3))
    gold = TokenSequence((1, 2, 2), vocab)
    evidence = origin_tangents([project_to_hyperboloid(rng.normal(size=4))], table.dim)
    example = GenExample(query, evidence, gold)
    [(_, _, grad_logits, z)] = example_losses_and_grad(
        gen, table, [example], token_embeddings, alpha, epsilon
    )
    analytic = np.outer(grad_logits, z).ravel()
    q_stack = DistributionStack((gold_distribution(gold, token_embeddings),))
    counts = np.bincount(np.array(gold.tokens), minlength=vocab).astype(float)
    point = scalar_lift(table, query.combined_features, QUERY_KEY)
    q_tan = log_map(origin(table.dim), point).components[1:]

    def blended_loss(flat: np.ndarray) -> float:
        probe = gen.copy()
        probe.weight = flat.reshape(gen.weight.shape)
        zz = condition_vector(q_tan, example.evidence)
        probs = softmax(probe.logits(zz))
        local = float(-np.sum(counts * np.log(np.maximum(probs, 1e-12))))
        [(obj, _, _)] = entropic_terms(probs[None], q_stack, token_embeddings, epsilon)
        return alpha * local + (1.0 - alpha) * obj

    fd = finite_difference_grad(blended_loss, gen.weight.ravel().copy())
    return OracleResult.from_values(
        "generation/entropic-grad-fd", 0.0, _relative_error(analytic, fd), 1e-3
    )


def origin_geometry_case(seed: int = 11) -> OracleResult:
    """The row-wise origin maps against ``project_to_hyperboloid``,
    ``log_map(origin, .)`` and ``exp_map(origin, .)`` called one row at a
    time: spatial norms from 0 and 1e-14 (zero tangents), through 1e-3
    (the small-excess branch of the log map), up to 1e150, then their
    tangents and triplet-style means of three tangents.  Reports how many
    rows differ from the scalar result in any bit."""
    rng = np.random.default_rng(seed)
    norms = np.array([0.0, 1e-14, 1e-9, 1e-5, 1e-3, 1e-2, 0.02, 0.5, 3.0, 1e3, 1e100, 1e150])
    directions = rng.normal(size=(norms.size, 6))
    spatial = directions / np.linalg.norm(directions, axis=1, keepdims=True) * norms[:, None]
    base = origin(6)
    points = [project_to_hyperboloid(v) for v in spatial]
    coords = project_rows(spatial)
    logs = origin_log_rows(coords)
    h, r, t = rng.integers(norms.size, size=(3, 2 * norms.size))
    tangents = np.concatenate([logs, (logs[h] + logs[r] + logs[t]) / 3.0])
    pairs = (
        [(row, p.coords) for row, p in zip(coords, points)]
        + [(row, log_map(base, p).components) for row, p in zip(logs, points)]
        + [
            (row, exp_map(base, TangentVector(base, u)).coords)
            for row, u in zip(origin_exp_rows(tangents), tangents)
        ]
    )
    differ = sum(not np.array_equal(row, want) for row, want in pairs)
    return OracleResult.from_values("geometry/origin-rows-bitwise", 0.0, differ, 0.0)


def run_all(seed: int = 0, case_filter: str | None = None) -> list[OracleResult]:
    """Execute every oracle comparison; deterministic per seed."""
    rng = np.random.default_rng(seed)
    results = _transport_cases(rng) + _spectral_cases(rng) + _gradient_cases(rng)
    results.append(origin_geometry_case(seed=int(rng.integers(2**31))))
    if case_filter:
        results = [res for res in results if case_filter in res.case]
    return results
