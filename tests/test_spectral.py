"""Laplacian spectra, sweep-cut refinement, Cheeger check, triplets."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg

import hyperrag.spectral as spectral
from hyperrag.alignment import EmbeddingTable, Query
from hyperrag.errors import (
    ConfigurationError,
    ContractViolation,
    InfeasibleConstraintError,
    InvalidPointError,
    NumericalError,
)
from hyperrag.conformance import conductance, cut_size, sigmoid
from hyperrag.geometry import TangentVector, exp_map, lorentz_inner, origin
from hyperrag.spectral import (
    CheegerReport,
    GraphRecordError,
    GraphVertex,
    KnowledgeGraph,
    RelevanceVector,
    SweepKeys,
    cheeger_check,
    connected_components,
    embed_triplets,
    extract_triplets,
    hash_features,
    laplacian,
    normalized_laplacian,
    refine_subgraph,
    relevance_vector,
    smallest_eigenpairs,
    subgraph_objective,
)
from hyperrag.synth import SynthSpec, synth_bundle

from conftest import assert_same_subgraph, scalar_triplet_rows

SIGMOID_4 = 0.9820137900379085


def make_graph(n, edges, triplets=(), feat_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    verts = [
        GraphVertex(f"v{i}", f"node{i}", rng.standard_normal(feat_dim)) for i in range(n)
    ]
    return KnowledgeGraph(tuple(verts), tuple(edges), tuple(triplets))


def random_connected_graph(rng, n, p=0.45):
    while True:
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((f"v{i}", f"v{j}", float(rng.uniform(0.5, 2.0))))
        g = make_graph(n, edges, seed=int(rng.integers(1 << 31)))
        if connected_components(g) == 1:
            return g


def path_graph(n):
    return make_graph(n, [(f"v{i}", f"v{i+1}", 1.0) for i in range(n - 1)])


def complete_graph(n):
    edges = [(f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(i + 1, n)]
    return make_graph(n, edges)


def two_cliques(size=4, bridge_weight=None):
    edges = []
    for prefix in "ab":
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((f"{prefix}{i}", f"{prefix}{j}", 1.0))
    if bridge_weight is not None:
        edges.append(("a0", "b0", bridge_weight))
    rng = np.random.default_rng(7)
    verts = [GraphVertex(f"{p}{i}", "n", rng.standard_normal(3)) for p in "ab" for i in range(size)]
    return KnowledgeGraph(tuple(verts), tuple(edges))


def brute_force_best(graph, r, eta, rho):
    """Exhaustive subset search with the same tie-break as refine_subgraph."""
    n = graph.size
    best = None
    for mask in range(1 << n):
        members = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        if float(r[members].sum()) < eta - 1e-12:
            continue
        obj = subgraph_objective(graph, members, r, rho)
        ids = tuple(sorted(graph.vertices[i].id for i in np.nonzero(members)[0]))
        key = (obj, int(members.sum()), ids)
        if best is None or key < best:
            best = key
    return best


class TestGraphConstruction:
    def test_duplicate_vertex_rejected(self):
        v = GraphVertex("x", "n", np.zeros(2))
        with pytest.raises(ContractViolation):
            KnowledgeGraph((v, v), ())

    def test_self_loop_rejected(self):
        with pytest.raises(ContractViolation):
            make_graph(2, [("v0", "v0", 1.0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ContractViolation):
            make_graph(2, [("v0", "v1", 1.0), ("v1", "v0", 2.0)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractViolation):
            make_graph(2, [("v0", "v1", -1.0)])

    def test_overflowing_volume_rejected(self):
        # Each weight is finite, but the degrees sum past the float range.
        with pytest.raises(GraphRecordError, match="overflows") as info:
            make_graph(3, [("v0", "v1", 1.0), ("v1", "v2", 1e308)])
        assert (info.value.records, info.value.position) == ("edges", 1)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ContractViolation):
            make_graph(2, [("v0", "zz", 1.0)])

    def test_triplet_unknown_vertex_rejected(self):
        with pytest.raises(ContractViolation):
            make_graph(2, [("v0", "v1", 1.0)], triplets=[("v0", "rel", "nope")])

    def test_mixed_feature_widths_rejected(self):
        verts = [GraphVertex(f"v{i}", "n", np.zeros(3)) for i in range(3)]
        verts[2] = GraphVertex("v2", "n", np.zeros(2))
        with pytest.raises(GraphRecordError, match="v2") as info:
            KnowledgeGraph(tuple(verts), ())
        assert (info.value.records, info.value.position) == ("vertices", 2)

    def test_feature_matrix_stacks_vertices(self):
        g = make_graph(4, [], feat_dim=5)
        assert g.feature_matrix.shape == (4, 5)
        assert np.array_equal(g.feature_matrix[2], g.vertices[2].features)
        assert g.feature_matrix is g.feature_matrix

    def test_degrees(self):
        g = make_graph(3, [("v0", "v1", 2.0), ("v1", "v2", 3.0)])
        assert np.allclose(g.degrees, [2.0, 5.0, 3.0])


class TestLaplacian:
    def test_row_sums_zero(self, rng):
        g = random_connected_graph(rng, 8)
        lap = laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(lap, lap.T)

    def test_quadratic_form_identity(self, rng):
        g = random_connected_graph(rng, 9)
        lap = laplacian(g)
        u, v, w = g.edge_arrays()
        for _ in range(5):
            x = rng.standard_normal(g.size)
            direct = float(np.sum(w * (x[u] - x[v]) ** 2))
            assert x @ lap @ x == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_positive_semidefinite(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            vals = np.linalg.eigvalsh(laplacian(g))
            assert vals.min() >= -1e-10

    def test_path3_spectrum(self):
        # Unit path on 3 vertices has Laplacian eigenvalues {0, 1, 3}.
        vals = np.linalg.eigvalsh(laplacian(path_graph(3)))
        assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)

    def test_complete4_spectrum(self):
        # K4 = 4I - J gives {0, 4, 4, 4}.
        vals = np.linalg.eigvalsh(laplacian(complete_graph(4)))
        assert np.allclose(vals, [0.0, 4.0, 4.0, 4.0], atol=1e-12)

    def test_zero_multiplicity_counts_components(self):
        g = make_graph(
            6,
            [("v0", "v1", 1.0), ("v1", "v2", 1.0), ("v0", "v2", 1.0), ("v3", "v4", 1.0)],
        )
        assert connected_components(g) == 3
        vals = np.linalg.eigvalsh(laplacian(g))
        assert int(np.sum(vals < 1e-9)) == 3

    def test_empty_graph_has_no_components(self):
        assert connected_components(make_graph(0, [])) == 0

    def test_zero_weight_edge_connects(self):
        g = make_graph(3, [("v0", "v1", 0.0), ("v1", "v2", 1.0)])
        assert connected_components(g) == 1

    def test_normalized_spectrum_bounded(self, rng):
        g = random_connected_graph(rng, 8)
        vals = np.linalg.eigvalsh(normalized_laplacian(g))
        assert vals.min() >= -1e-10
        assert vals.max() <= 2.0 + 1e-10


def scipy_laplacian(graph):
    """``laplacian`` as scipy builds it, densified: the oracle that the
    dense form matches bit for bit."""
    return np.asarray((sp.diags(graph.degrees) - graph.adjacency()).todense())


def scipy_normalized_laplacian(graph):
    """``normalized_laplacian`` as scipy builds it, densified."""
    deg = graph.degrees
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    norm_adj = sp.diags(inv_sqrt) @ graph.adjacency() @ sp.diags(inv_sqrt)
    return np.asarray((sp.diags((deg > 0).astype(float)) - norm_adj).todense())


def assert_same_bits(got, want):
    """Same shape, dtype and values, and the same sign bits, so that 0.0
    and -0.0 differ."""
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDenseLaplaciansMatchScipy:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: synth_bundle(SynthSpec(seed=42)).graph,
            lambda: synth_bundle(SynthSpec(seed=100042)).graph,
            lambda: synth_bundle(SynthSpec(seed=200042)).graph,
            lambda: make_graph(4, [("v0", "v1", 0.0), ("v1", "v2", 1.0), ("v2", "v3", 2.5)]),
            lambda: make_graph(3, [("v0", "v1", 0.0)]),
            lambda: make_graph(5, [("v0", "v1", 1.5), ("v1", "v2", 0.7), ("v0", "v2", 2.0)]),
            lambda: make_graph(4, [("v0", "v1", 1e-300), ("v1", "v2", 3.0), ("v2", "v3", 1e-300)]),
        ],
        ids=[
            "bundle-42", "bundle-100042", "bundle-200042", "zero-weight-edge",
            "only-a-zero-weight-edge", "isolated-vertices", "weight-1e-300",
        ],
    )
    def test_matrices_eigenpairs_and_sweep_ranks(self, build):
        graph = build()
        k = min(10, graph.size)
        for new, old in (
            (laplacian(graph), scipy_laplacian(graph)),
            (normalized_laplacian(graph), scipy_normalized_laplacian(graph)),
        ):
            assert_same_bits(new, old)
            pairs = zip(smallest_eigenpairs(new, k, seed=3), smallest_eigenpairs(old, k, seed=3))
            for got, want in pairs:
                assert_same_bits(got, want)
        want = SweepKeys(smallest_eigenpairs(scipy_laplacian(graph), k, seed=3)[1])
        assert_same_bits(SweepKeys.of(graph, 10, seed=3).ranks, want.ranks)


class TestEigenpairs:
    def test_dense_matches_numpy(self, rng):
        g = random_connected_graph(rng, 10)
        lap = laplacian(g)
        vals, vecs = smallest_eigenpairs(lap, 4)
        ref = np.linalg.eigvalsh(lap)[:4]
        assert np.allclose(vals, ref, atol=1e-10)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_sparse_path_matches_dense(self, rng):
        for trial in range(5):
            g = random_connected_graph(rng, 24)
            lap = laplacian(g)
            vals, vecs = smallest_eigenpairs(lap, 5, dense_cutoff=0, seed=trial)
            ref = np.linalg.eigvalsh(lap)[:5]
            scale = max(np.abs(lap).sum(axis=1).max(), 1.0)
            assert np.allclose(vals, ref, atol=1e-7 * scale)
            assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-7)
            for i in range(5):
                resid = np.linalg.norm(lap @ vecs[:, i] - vals[i] * vecs[:, i])
                assert resid <= 1e-6 * scale

    def test_full_spectrum_finds_repeated_eigenvalues(self):
        # k == n always takes the dense branch, whatever the cutoff.
        lap = laplacian(complete_graph(4))
        vals, vecs = smallest_eigenpairs(lap, 4, dense_cutoff=0)
        assert np.allclose(vals, [0.0, 4.0, 4.0, 4.0], atol=1e-6)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-7)

    def test_sparse_path_finds_repeated_eigenvalues(self):
        # K6 = 6I - J gives {0, 6, 6, 6, 6, 6}.
        lap = laplacian(complete_graph(6))
        vals, vecs = smallest_eigenpairs(lap, 4, dense_cutoff=0)
        assert np.allclose(vals, [0.0, 6.0, 6.0, 6.0], atol=1e-6)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-7)

    def test_sparse_path_disconnected_zero_multiplicity(self):
        g = make_graph(
            6,
            [
                ("v0", "v1", 1.0),
                ("v1", "v2", 1.0),
                ("v0", "v2", 1.0),
                ("v3", "v4", 1.0),
                ("v4", "v5", 1.0),
                ("v3", "v5", 1.0),
            ],
        )
        vals, _ = smallest_eigenpairs(laplacian(g), 3, dense_cutoff=0)
        assert np.allclose(vals[:2], [0.0, 0.0], atol=1e-7)
        assert vals[2] == pytest.approx(3.0, abs=1e-6)

    def test_sparse_path_on_synth_graph_is_accurate_and_repeatable(self):
        # 600 vertices is above the default cutoff; community graphs have
        # near-degenerate low eigenspaces, so the seeded start vector must
        # pin the basis that refinement sweeps.
        graph = synth_bundle(SynthSpec(graph_size=600, seed=0)).graph
        lap = laplacian(graph)
        assert lap.shape[0] > spectral.DENSE_EIG_CUTOFF
        vals, _ = smallest_eigenpairs(lap, 10)
        assert np.allclose(vals, np.linalg.eigvalsh(lap.toarray())[:10], rtol=0, atol=1e-7)
        r = np.random.default_rng(1).uniform(size=graph.size)
        first = refine_subgraph(graph, r, eta=0.2 * r.sum(), k=10, seed=4)
        again = refine_subgraph(graph, r, eta=0.2 * r.sum(), k=10, seed=4)
        assert first.selected == again.selected
        assert first.objective == again.objective
        assert cheeger_check(graph, seed=4) == cheeger_check(graph, seed=4)

    def test_non_convergence_is_numerical_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no convergence", np.empty(0), np.empty((0, 0))
            )

        # smallest_eigenpairs imports eigsh from scipy at each sparse solve.
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        with pytest.raises(NumericalError):
            smallest_eigenpairs(laplacian(complete_graph(6)), 2, dense_cutoff=0)

    def test_ascending_order(self, rng):
        g = random_connected_graph(rng, 12)
        vals, _ = smallest_eigenpairs(laplacian(g), 6)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_bad_k_rejected(self):
        lap = laplacian(path_graph(3))
        with pytest.raises(ContractViolation):
            smallest_eigenpairs(lap, 0)
        with pytest.raises(ContractViolation):
            smallest_eigenpairs(lap, 4)

    def test_non_square_rejected(self):
        with pytest.raises(ContractViolation):
            smallest_eigenpairs(np.zeros((3, 4)), 1)


class TestRelevance:
    def test_sigmoid_of_scores(self):
        # Scores 0.5 * (1 * f + 0 * f) = 0, 4 and -4.
        verts = [GraphVertex(f"v{i}", "n", np.array([f])) for i, f in enumerate((0.0, 8.0, -8.0))]
        g = KnowledgeGraph(tuple(verts), (("v0", "v1", 1.0),))
        q = Query("q0", np.ones(1), np.zeros(1))
        r = relevance_vector(q, g)
        assert r.values[0] == pytest.approx(0.5, abs=1e-15)
        assert r.values[1] == pytest.approx(SIGMOID_4, rel=1e-12)
        assert r.values[2] == pytest.approx(1.0 - SIGMOID_4, rel=1e-9)
        assert r.total == pytest.approx(0.5 + 1.0, rel=1e-9)

    def test_feature_dots_truncate(self):
        q = Query("q", np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        graph = KnowledgeGraph((GraphVertex("v", "v", np.array([1.0, 0.0, 9.0])),), ())
        # Only the first two feature entries participate: 0.5 * (1 + 3).
        assert relevance_vector(q, graph).values.tolist() == [sigmoid(2.0)]

    # Query blocks shorter than, as wide as, and longer than the vertex
    # features; scales large enough to saturate the sigmoid.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        width=st.integers(1, 12),
        blocks=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        scale=st.sampled_from([1e-3, 1.0, 30.0]),
    )
    def test_stacked_feature_dot_matches_per_vertex_scores(self, seed, n, width, blocks, scale):
        rng = np.random.default_rng(seed)
        g = make_graph(n, [], feat_dim=width, seed=seed)
        visual, textual = (scale * rng.standard_normal(b) for b in blocks)
        q = Query("q", visual, textual)

        def per_vertex(feats):
            # The feature-dot score as a per-vertex loop, before the stacked pass.
            total = 0.0
            for block in (q.visual_features, q.text_features):
                m = min(block.size, feats.size)
                total += float(block[:m] @ feats[:m])
            return sigmoid(0.5 * total)

        got = relevance_vector(q, g).values
        assert np.array_equal(got, [per_vertex(v.features) for v in g.vertices])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            RelevanceVector(np.array([0.5, 1.2]))
        with pytest.raises(ContractViolation):
            RelevanceVector(np.array([-0.1]))

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((2, 2)), "relevance values must form a 1-D vector"),
            (np.array([0.5, np.nan]), "relevance entries must lie in [0, 1]"),
            (np.array([np.inf]), "relevance entries must lie in [0, 1]"),
            (np.array([-np.inf, 0.5]), "relevance entries must lie in [0, 1]"),
            (np.array([1.0 + 2.3e-16]), "relevance entries must lie in [0, 1]"),
            (np.array([0.5, -5e-324]), "relevance entries must lie in [0, 1]"),
        ],
    )
    def test_messages(self, values, message):
        with pytest.raises(ContractViolation) as info:
            RelevanceVector(values)
        assert str(info.value) == message

    @pytest.mark.parametrize("values", [np.zeros(0), np.array([0.0, -0.0, 1.0, 0.5])])
    def test_bounds_and_empty_accepted(self, values):
        assert np.array_equal(RelevanceVector(values).values, values)

    @pytest.mark.parametrize(
        "make",
        [
            lambda values: RelevanceVector(values).values,
            lambda values: GraphVertex("v", "n", values).features,
        ],
    )
    def test_records_keep_a_read_only_float_copy(self, make):
        source = np.array([0.75, 0.0, 0.25, 1.0], dtype=np.float32)[::-1]
        kept = make(source)
        source[0] = 0.5
        assert kept.dtype == np.float64 and kept.flags.c_contiguous
        assert not kept.flags.writeable
        assert np.array_equal(kept, [1.0, 0.25, 0.0, 0.75])
        assert np.array_equal(make([0, 1]), [0.0, 1.0])

    @pytest.mark.parametrize("features", [np.zeros((1, 2)), np.array([0.0, -np.inf])])
    def test_vertex_rejects_features(self, features):
        with pytest.raises(ContractViolation, match="^vertex 'v' has invalid features$"):
            GraphVertex("v", "n", features)


def per_sweep_refine(graph, r, eta, rho, eigvecs):
    """The refine sweep as one lexsort and one np.add.at profile per
    eigenvector direction: a bit-exactness oracle for the stacked pass."""
    n = graph.size
    u, v, w = graph.edge_arrays()
    atol, quantum = spectral._FEASIBLE_ATOL, spectral._SORT_QUANTUM
    all_idx = np.arange(n)
    candidates = [(subgraph_objective(graph, np.ones(n, dtype=bool), r, rho), n, all_idx)]
    if 0.0 >= eta - atol:
        candidates.append((0.0, 0, all_idx[:0]))
    proper_feasible = False
    for col in range(eigvecs.shape[1]):
        vec = eigvecs[:, col]
        vec = -vec if vec[int(np.argmax(np.abs(vec)))] < 0 else vec
        for direction in (1, -1):
            q = np.round(direction * vec / quantum) * quantum
            order = np.lexsort((all_idx, np.round(r / quantum), q))
            pos = np.empty(n, dtype=np.intp)
            pos[order] = all_idx
            lo, hi = np.minimum(pos[u], pos[v]), np.maximum(pos[u], pos[v])
            d_smooth = np.zeros(n + 1)
            np.add.at(d_smooth, hi + 1, w * (r[u] - r[v]) ** 2)
            d_cut = np.zeros(n + 2)
            np.add.at(d_cut, lo + 1, w)
            np.add.at(d_cut, hi + 1, -w)
            objective = np.cumsum(d_smooth)[: n + 1] + rho * np.cumsum(d_cut)[: n + 1]
            mass = np.concatenate([[0.0], np.cumsum(r[order])])
            objs = np.where(mass[1:n] >= eta - atol, objective[1:n], np.inf)
            if objs.size and np.isfinite(objs.min(initial=np.inf)):
                proper_feasible = True
                best_s = int(np.argmin(objs)) + 1
                candidates.append((float(objective[best_s]), best_s, order[:best_s]))
    best = min((obj, size) for obj, size, _ in candidates)
    best_ids = min(
        tuple(sorted(graph.vertices[i].id for i in idxs))
        for obj, size, idxs in candidates
        if (obj, size) == best
    )
    members = np.zeros(n, dtype=bool)
    members[[graph.vertex_index(i) for i in best_ids]] = True
    return spectral.Subgraph(
        selected=best_ids,
        indicator=members.astype(float),
        eta=eta,
        relevance_mass=float(r[members].sum()),
        objective=best[0],
        fallback_used=not proper_feasible and best[1] == n,
    )


@pytest.fixture(scope="module")
def default_bundles():
    """Three seeded default bundles, each with its graph's 10 smallest
    Laplacian eigenvectors and every query's feature-dot relevance."""
    out = []
    for seed in (42, 5, 6):
        bundle = synth_bundle(SynthSpec(seed=seed))
        graph = bundle.graph
        _, vecs = smallest_eigenpairs(laplacian(graph), 10, seed=seed)
        rel = [relevance_vector(q, graph).values for q in bundle.queries]
        out.append((graph, vecs, rel))
    return out


def old_sweep_orders(eigvecs, r):
    """The sweep orders as one stable argsort of 2k rows of quantized keys
    per query, before key ranks: the oracle for ``SweepKeys.orders``."""
    quantum = spectral._SORT_QUANTUM
    pivots = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(eigvecs.shape[1])]
    vecs = np.where(pivots < 0, -eigvecs, eigvecs).T
    base = np.lexsort((np.arange(r.size), np.round(r / quantum)))
    keys = np.stack([vecs, -vecs], axis=1).reshape(-1, r.size)[:, base] / quantum
    return base[np.argsort(np.round(keys) * quantum, axis=1, kind="stable")]


def tied_columns(eigvecs):
    """Columns whose quantized keys are all equal."""
    quantized = np.round(eigvecs / spectral._SORT_QUANTUM)
    return [c for c in range(eigvecs.shape[1]) if np.unique(quantized[:, c]).size == 1]


def assert_orders_match_old(keys, r):
    """The rank path gives the old orders, less the negation row of each
    fully tied column, which repeats the column's own row."""
    old = old_sweep_orders(keys.eigvecs, r)
    tied = tied_columns(keys.eigvecs)
    for c in tied:
        assert np.array_equal(old[2 * c], old[2 * c + 1])
    kept = [i for i in range(len(old)) if i % 2 == 0 or i // 2 not in tied]
    assert np.array_equal(keys.orders(r), old[kept])


TIED_GRAPHS = pytest.mark.parametrize(
    "graph",
    [
        # Components give eigenvectors constant on each component.
        make_graph(9, [("v0", "v1", 1.0), ("v2", "v3", 2.0), ("v3", "v4", 1.0)]),
        two_cliques(5),
        complete_graph(7),
    ],
    ids=["components", "two-cliques", "K7"],
)


class TestSweepKeysMatchOldSweepOrders:
    @pytest.mark.parametrize("bundle", [0, 1, 2])
    def test_every_default_query(self, default_bundles, bundle):
        graph, vecs, rel = default_bundles[bundle]
        keys = SweepKeys(vecs)
        assert tied_columns(vecs) == [0]
        for r in rel:
            assert_orders_match_old(keys, r)

    @TIED_GRAPHS
    def test_tied_graphs(self, graph, rng):
        keys = SweepKeys(smallest_eigenpairs(laplacian(graph), graph.size)[1])
        n = graph.size
        for r in (np.full(n, 0.5), rng.choice([0.2, 0.7], n), rng.random(n)):
            assert_orders_match_old(keys, r)

    @TIED_GRAPHS
    def test_fully_tied_column_swept_once(self, graph):
        vecs = smallest_eigenpairs(laplacian(graph), graph.size)[1]
        tied = tied_columns(vecs)
        # Only a connected graph's constant eigenvector is sure to tie.
        assert (0 in tied) == (connected_components(graph) == 1)
        assert len(SweepKeys(vecs).ranks) == 2 * graph.size - len(tied)

    def test_eigsh_bundle(self):
        bundle = synth_bundle(SynthSpec(seed=42, graph_size=2000, num_queries=40, num_items=400))
        graph = bundle.graph
        assert graph.size > spectral.DENSE_EIG_CUTOFF
        keys = SweepKeys(smallest_eigenpairs(laplacian(graph), 10, seed=42)[1])
        for q in bundle.queries:
            assert_orders_match_old(keys, relevance_vector(q, graph).values)

    def test_of_an_empty_graph_is_contract_violation(self):
        with pytest.raises(ContractViolation, match=r"k=0 outside \[1, 0\]"):
            SweepKeys.of(KnowledgeGraph((), ()), 3)

    def test_cheeger_one_column(self):
        y = np.array([0.3, -0.1, 0.3, 0.2, -0.1 + 1e-12, 0.0])
        got = SweepKeys(y[:, None]).orders(np.zeros(6))
        assert np.array_equal(got, old_sweep_orders(y[:, None], np.zeros(6)))


class TestStackedSweepsMatchPerSweepLoop:
    @pytest.mark.parametrize("bundle", [0, 1, 2])
    def test_every_default_query_at_three_etas(self, default_bundles, bundle):
        graph, vecs, rel = default_bundles[bundle]
        keys = SweepKeys(vecs)
        for r in rel:
            for eta in (0.5 * r.sum(), 0.0, 0.999 * r.sum()):
                got = refine_subgraph(graph, r, eta=eta, k=10, rho=1.0, sweep_keys=keys)
                assert_same_subgraph(got, per_sweep_refine(graph, r, eta, 1.0, vecs))

    @TIED_GRAPHS
    def test_tied_sweep_keys(self, graph, rng):
        vecs = smallest_eigenpairs(laplacian(graph), graph.size)[1]
        keys = SweepKeys(vecs)
        # Relevance with repeated values, so ties fall through to the index.
        for r in (np.full(graph.size, 0.5), rng.choice([0.2, 0.7], graph.size)):
            for eta in (0.0, 0.3 * r.sum(), r.sum()):
                for rho in (0.0, 1.0):
                    got = refine_subgraph(graph, r, eta=eta, rho=rho, sweep_keys=keys)
                    assert_same_subgraph(got, per_sweep_refine(graph, r, eta, rho, vecs))

    def test_fallback(self):
        g = make_graph(3, [("v0", "v1", 1.0), ("v1", "v2", 1.0)])
        r = np.array([0.5, 0.5, 0.5])
        _, vecs = smallest_eigenpairs(laplacian(g), 2)
        got = refine_subgraph(g, r, eta=1.5, k=2, sweep_keys=SweepKeys(vecs))
        assert got.fallback_used
        assert_same_subgraph(got, per_sweep_refine(g, r, 1.5, 1.0, vecs))


class TestRefineSubgraph:
    def planted(self):
        g = two_cliques(4, bridge_weight=1.0)
        r = np.array([0.95] * 4 + [0.05] * 4)
        return g, r

    def test_recovers_planted_clique(self):
        g, r = self.planted()
        sub = refine_subgraph(g, r, eta=3.5, k=4, rho=0.5)
        assert frozenset(sub.selected) == {"a0", "a1", "a2", "a3"}
        assert not sub.fallback_used
        assert sub.relevance_mass == pytest.approx(3.8, rel=1e-12)
        # Smooth term vanishes inside the clique; only the bridge is cut.
        assert sub.objective == pytest.approx(0.5, rel=1e-12)
        u, v, _ = g.edge_arrays()
        assert np.sum((sub.indicator[u] > 0) & (sub.indicator[v] > 0)) == 6

    def test_matches_brute_force_on_planted(self):
        g, r = self.planted()
        sub = refine_subgraph(g, r, eta=3.5, k=4, rho=0.5)
        obj, size, ids = brute_force_best(g, r, 3.5, 0.5)
        assert sub.objective == pytest.approx(obj, abs=1e-12)
        assert sub.selected == ids

    def test_never_beats_brute_force_and_stays_feasible(self, rng):
        for trial in range(8):
            g = random_connected_graph(rng, 7)
            r = rng.uniform(0.0, 1.0, g.size)
            eta = 0.4 * float(r.sum())
            sub = refine_subgraph(g, r, eta=eta, k=3, rho=1.0)
            opt_obj, _, _ = brute_force_best(g, r, eta, 1.0)
            assert sub.objective >= opt_obj - 1e-9
            assert sub.relevance_mass >= eta - 1e-9

    def test_two_cluster_ratio_within_two(self, rng):
        for trial in range(5):
            edges = []
            for prefix in ("a", "b"):
                for i in range(5):
                    for j in range(i + 1, 5):
                        if rng.random() < 0.85:
                            edges.append((f"{prefix}{i}", f"{prefix}{j}", 1.0))
            edges.append(("a0", "b0", 0.5))
            verts = [
                GraphVertex(f"{p}{i}", "n", np.zeros(2)) for p in "ab" for i in range(5)
            ]
            g = KnowledgeGraph(tuple(verts), tuple(edges))
            r = np.array([0.9] * 5 + [0.1] * 5)
            eta = 0.5 * float(r.sum())
            sub = refine_subgraph(g, r, eta=eta, k=4, rho=1.0)
            opt_obj, _, _ = brute_force_best(g, r, eta, 1.0)
            assert sub.objective <= 2.0 * opt_obj + 1e-9

    def test_infeasible_eta_raises(self):
        g, r = self.planted()
        with pytest.raises(InfeasibleConstraintError):
            refine_subgraph(g, r, eta=float(r.sum()) + 1.0, k=2)

    def test_indicator_is_read_only(self):
        g, r = self.planted()
        sub = refine_subgraph(g, r, eta=3.5, k=4, rho=0.5)
        with pytest.raises(ValueError):
            sub.indicator[0] = 0.0

    def test_zero_eta_returns_empty_set(self):
        g, r = self.planted()
        sub = refine_subgraph(g, r, eta=0.0, k=2)
        assert sub.selected == ()
        assert sub.objective == 0.0
        assert not sub.indicator.any()

    def test_fallback_to_full_set(self):
        g = make_graph(3, [("v0", "v1", 1.0), ("v1", "v2", 1.0)])
        r = np.array([0.5, 0.5, 0.5])
        sub = refine_subgraph(g, r, eta=1.5, k=2)
        assert frozenset(sub.selected) == {"v0", "v1", "v2"}
        assert sub.fallback_used

    def test_deterministic(self):
        g, r = self.planted()
        a = refine_subgraph(g, r, eta=2.0, k=4, rho=1.0, seed=3)
        b = refine_subgraph(g, r, eta=2.0, k=4, rho=1.0, seed=3)
        assert a.selected == b.selected
        assert a.objective == b.objective

    def test_precomputed_eigvecs_give_same_answer(self):
        g, r = self.planted()
        _, vecs = smallest_eigenpairs(laplacian(g), 4)
        direct = refine_subgraph(g, r, eta=3.5, k=4, rho=0.5)
        cached = refine_subgraph(g, r, eta=3.5, k=4, rho=0.5, sweep_keys=SweepKeys(vecs))
        assert direct.selected == cached.selected

    def test_negative_rho_rejected(self):
        g, r = self.planted()
        with pytest.raises(ContractViolation):
            refine_subgraph(g, r, eta=1.0, rho=-0.5)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_rho_rejected(self, rho):
        g, r = self.planted()
        with pytest.raises(ContractViolation):
            refine_subgraph(g, r, eta=1.0, rho=rho)

    def test_rho_overflowing_total_edge_weight_is_config_error(self):
        g, r = self.planted()
        total = float(np.sum(g.edge_arrays()[2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="rho"):
                refine_subgraph(g, r, eta=1.0, rho=1e308)
            sub = refine_subgraph(g, r, eta=1.0, rho=1e307 / total)
        assert math.isfinite(sub.objective)


class TestCutsAndConductance:
    def test_path4_hand_values(self):
        g = path_graph(4)
        assert cut_size(g, {"v0", "v1"}) == pytest.approx(1.0)
        assert cut_size(g, {"v0"}) == pytest.approx(1.0)
        assert cut_size(g, {"v0", "v1", "v2", "v3"}) == pytest.approx(0.0)
        # S = {v0, v1}: cut 1, vol(S) = 1 + 2 = 3, vol(rest) = 3.
        assert conductance(g, {"v0", "v1"}) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_conductance_rejects_trivial_sets(self):
        g = path_graph(3)
        with pytest.raises(ContractViolation):
            conductance(g, set())
        with pytest.raises(ContractViolation):
            conductance(g, {"v0", "v1", "v2"})

    def test_zero_volume_side(self):
        g = make_graph(3, [("v0", "v1", 1.0)])
        assert conductance(g, {"v2"}) == 0.0


class TestCheeger:
    def test_bound_on_random_connected(self, rng):
        for _ in range(30):
            g = random_connected_graph(rng, 10)
            rep = cheeger_check(g)
            assert isinstance(rep, CheegerReport)
            assert rep.bound_holds
            assert rep.sweep_conductance <= math.sqrt(2.0 * rep.lambda2_normalized) + 1e-12
            assert not rep.degenerate

    def test_barbell_low_conductance(self):
        g = two_cliques(4, bridge_weight=0.1)
        rep = cheeger_check(g)
        assert rep.bound_holds
        # The sweep should find the bridge cut: 0.1 / (clique volume + bridge).
        vol_side = float(g.degrees[:4].sum())
        assert rep.sweep_conductance == pytest.approx(0.1 / vol_side, rel=1e-9)

    def test_disconnected_flagged_degenerate(self):
        g = make_graph(4, [("v0", "v1", 1.0), ("v2", "v3", 1.0)])
        rep = cheeger_check(g)
        assert rep.degenerate
        assert rep.lambda2_normalized == pytest.approx(0.0, abs=1e-9)
        assert rep.sweep_conductance == pytest.approx(0.0, abs=1e-12)
        assert rep.bound_holds

    def test_too_small_rejected(self):
        g = make_graph(1, [])
        with pytest.raises(ContractViolation):
            cheeger_check(g)


class TestTriplets:
    def graph_with_triplets(self):
        return make_graph(
            4,
            [("v0", "v1", 1.0), ("v1", "v2", 1.0), ("v2", "v3", 3.0)],
            triplets=[
                ("v0", "likes", "v1"),
                ("v1", "cites", "v2"),
                ("v0", "cites", "v3"),
            ],
        )

    def test_filters_to_selected(self):
        g = self.graph_with_triplets()
        sub = refine_subgraph(g, np.array([0.9, 0.9, 0.9, 0.0]), eta=2.0, k=3, rho=0.5)
        assert frozenset(sub.selected) == {"v0", "v1", "v2"}
        recs = extract_triplets(sub, g)
        kept = {(r.head, r.relation, r.tail) for r in recs}
        assert kept == {("v0", "likes", "v1"), ("v1", "cites", "v2")}

    @pytest.mark.parametrize(
        "relevance, eta, outside",
        [([0.9, 0.9, 0.9, 0.0], 2.0, 1), ([0.9, 0.9, 0.9, 0.0], 1.0, 2),
         ([0.0, 0.9, 0.9, 0.9], 1.0, 2), ([0.9, 0.9, 0.9, 0.9], 1.0, 0)],
    )
    def test_triplets_within_is_the_selected_id_rule(self, relevance, eta, outside):
        # ``outside`` triplets have exactly one end outside the selection.
        g = self.graph_with_triplets()
        sub = refine_subgraph(g, np.array(relevance), eta=eta, k=3, rho=0.5)
        selected = frozenset(sub.selected)
        assert sum((h in selected) != (t in selected) for h, _, t in g.triplets) == outside
        want = [h in selected and t in selected for h, _, t in g.triplets]
        assert g.triplets_within(sub.indicator).tolist() == want
        assert [(r.head, r.relation, r.tail) for r in extract_triplets(sub, g)] == [
            trip for trip, keep in zip(g.triplets, want) if keep
        ]

    def test_embedded_points_on_manifold(self):
        g = self.graph_with_triplets()
        table = EmbeddingTable(
            4, {"query": 3, "visual": 3, "textual": 3, "graph_triplet": 3}, seed=1
        )
        sub = refine_subgraph(g, np.array([0.9, 0.9, 0.9, 0.9]), eta=1.0, k=3)
        trips = [(rec.head, rec.relation, rec.tail) for rec in extract_triplets(sub, g)]
        rows = embed_triplets(g, table, trips)
        assert trips and rows.shape == (len(trips), 4)
        base = origin(4)
        for row in rows:
            coords = exp_map(base, TangentVector(base, np.concatenate([[0.0], row]))).coords
            assert lorentz_inner(coords, coords) == pytest.approx(-1.0, abs=1e-9)

    def test_hash_features_deterministic_and_bounded(self):
        a = hash_features("cites", 16)
        b = hash_features("cites", 16)
        c = hash_features("likes", 16)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= -1.0 and a.max() <= 1.0
        assert hash_features("cites", 40).shape == (40,)


class TestTripletRowsMatchScalarPath:
    """``embed_triplets`` embeds each vertex and relation label once per
    call; its rows equal the per-triplet points of ``scalar_triplet_rows``
    bit for bit."""

    @staticmethod
    def table(dim, graph_dim):
        modalities = {"query": 3, "visual": 3, "textual": 3, "graph_triplet": graph_dim}
        return EmbeddingTable(dim, modalities, seed=4)

    def test_default_graph(self):
        graph = synth_bundle(SynthSpec()).graph
        table = self.table(128, graph.vertices[0].features.size)
        rows = embed_triplets(graph, table, graph.triplets)
        assert rows.shape == (len(graph.triplets), 128)
        assert np.array_equal(rows, scalar_triplet_rows(graph, table, graph.triplets))

    def test_repeated_ends_and_a_relation_named_like_a_vertex(self):
        trips = [
            ("v0", "v1", "v1"),
            ("v1", "cites", "v0"),
            ("v0", "v1", "v1"),
            ("v2", "cites", "v0"),
            ("v1", "v0", "v1"),
            ("v3", "v3", "v3"),
        ]
        g = make_graph(4, [("v0", "v1", 1.0)], triplets=trips)
        table = self.table(5, 3)
        rows = embed_triplets(g, table, trips)
        assert np.array_equal(rows, scalar_triplet_rows(g, table, trips))
        assert np.array_equal(rows[0], rows[2])
        assert not np.array_equal(rows[0], rows[4])

    def test_empty_triplet_list(self):
        g = make_graph(2, [("v0", "v1", 1.0)])
        table = self.table(6, 3)
        rows = embed_triplets(g, table, [])
        assert rows.shape == (0, 6)
        assert np.array_equal(rows, scalar_triplet_rows(g, table, []))

    def test_huge_vertex_feature_is_invalid_point(self):
        verts = [
            GraphVertex("v0", "", np.ones(3)),
            GraphVertex("v1", "", np.array([0.0, 1e308, 1e308])),
        ]
        g = KnowledgeGraph(tuple(verts), (("v0", "v1", 1.0),), (("v0", "r", "v1"),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError, match="spatial vector too large to lift"):
                embed_triplets(g, self.table(4, 3), g.triplets)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_table_weight_is_invalid_point(self, weight):
        trips = [("v0", "r", "v1"), ("v1", "s", "v0")]
        g = make_graph(2, [("v0", "v1", 1.0)], triplets=trips)
        table = self.table(4, 3)
        table.weight["graph_triplet"][2, 0] = weight
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError, match="non-finite spatial coordinates"):
                embed_triplets(g, table, trips)
