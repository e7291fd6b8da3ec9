import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hyperrag.alignment import (
    EmbeddingTable,
    KnowledgeItem,
    Query,
    POSITIVE_MODALITIES,
    QUERY_KEY,
    embed_corpus_rows,
    embed_query_rows,
    geo_loss_and_grads,
    id_ranks,
    item_tangent_rows,
    nearest_rows,
)
from hyperrag import pipeline
from hyperrag.errors import (
    ConfigurationError,
    ContractViolation,
    DivergenceError,
    InvalidPointError,
)
from hyperrag.conformance import origin_tangents, scalar_lift
from hyperrag.gate import decide
from hyperrag.geometry import (
    distance_spatial_grad,
    distances_to_rows,
    geodesic_distance,
    log_map,
    origin,
    origin_log_rows,
)
from hyperrag.pipeline import PipelineConfig, evaluate, run_training
from hyperrag.spectral import KnowledgeGraph
from hyperrag.synth import SynthSpec, synth_bundle

from conftest import item_point, query_point

ACOSH_SQRT2 = 0.881373587019543


def make_table(dim=3, d_in=4, seed=0):
    dims = {"visual": d_in, "textual": d_in, "graph_triplet": d_in, "query": 2 * d_in}
    return EmbeddingTable(dim, dims, seed=seed)


def zero_table(dim=3, d_in=4):
    table = make_table(dim, d_in)
    for key in table.weight:
        table.weight[key][:] = 0.0
        table.bias[key][:] = 0.0
    return table


class TestRecordFeatures:
    @pytest.mark.parametrize(
        "features, message",
        [
            (np.zeros(0), "features must be a nonempty 1-D vector, got shape (0,)"),
            (np.zeros((2, 3)), "features must be a nonempty 1-D vector, got shape (2, 3)"),
            (np.array([1.0, np.nan]), "features contains non-finite values"),
            (np.array([-np.inf, 1.0]), "features contains non-finite values"),
        ],
    )
    def test_messages(self, features, message):
        with pytest.raises(ContractViolation) as info:
            KnowledgeItem("i", "visual", features)
        assert str(info.value) == message
        with pytest.raises(ContractViolation) as info:
            Query("q", np.ones(2), features)
        assert str(info.value) == f"text_{message}"

    def test_records_keep_a_read_only_float_copy(self):
        source = np.array([4.0, 3.0, 2.0, 1.0], dtype=np.float32)[::-2]
        item = KnowledgeItem("i", "visual", source)
        query = Query("q", source, [1, 2])
        source[0] = 9.0
        for kept, want in [(item.features, [1.0, 3.0]), (query.visual_features, [1.0, 3.0]),
                           (query.text_features, [1.0, 2.0])]:
            assert kept.dtype == np.float64 and kept.flags.c_contiguous
            assert not kept.flags.writeable
            assert np.array_equal(kept, want)


class TestEmbed:
    def test_for_corpus_takes_the_triplet_width_from_the_graph(self):
        bundle = synth_bundle(SynthSpec(num_queries=4, num_items=8, num_clusters=2, graph_size=6))
        corpus = (bundle.queries, bundle.items, 4, 0)
        query_width = bundle.queries[0].combined_features.size
        vertex_width = bundle.graph.vertices[0].features.size
        assert vertex_width != query_width  # else the default could not be told apart
        table = EmbeddingTable.for_corpus(*corpus, graph=bundle.graph)
        assert table.input_dims["graph_triplet"] == vertex_width
        # Without vertices to read, the triplet map takes the query block size.
        table = EmbeddingTable.for_corpus(*corpus, graph=KnowledgeGraph((), (), ()))
        assert table.input_dims["graph_triplet"] == query_width

    def test_zero_table_maps_to_origin(self, rng):
        table = zero_table()
        p = scalar_lift(table, rng.standard_normal(4), "visual")
        assert np.array_equal(p.coords, origin(3).coords)

    def test_deterministic(self, rng):
        table = make_table(seed=7)
        f = rng.standard_normal(4)
        a = scalar_lift(table, f, "textual")
        b = scalar_lift(table, f, "textual")
        assert np.array_equal(a.coords, b.coords)

    def test_unknown_modality(self):
        with pytest.raises(ConfigurationError):
            scalar_lift(make_table(), np.zeros(4), "audio")

    def test_feature_length_mismatch(self):
        with pytest.raises(ContractViolation):
            scalar_lift(make_table(d_in=4), np.zeros(5), "visual")

    def test_lipschitz_under_operator_norm(self, rng):
        # The hyperboloid lift contracts the affine image, so the end-to-end
        # map is Lipschitz with constant = largest singular value of W.
        table = make_table(dim=5, d_in=8, seed=3)
        lip = np.linalg.norm(table.weight["visual"], 2)
        for _ in range(50):
            f = 3.0 * rng.standard_normal(8)
            delta = rng.standard_normal(8) * rng.uniform(0.01, 2.0)
            d = geodesic_distance(
                scalar_lift(table, f, "visual"), scalar_lift(table, f + delta, "visual")
            )
            assert d <= lip * np.linalg.norm(delta) + 1e-9


class TestItemTangentRows:
    """``item_tangent_rows`` against a test-only copy of the per-document
    path it replaced: ``origin_tangents`` of each ``item_point``."""

    @staticmethod
    def scalar_rows(table, items):
        return origin_tangents([item_point(table, item) for item in items], table.dim)

    def test_default_bundle(self):
        bundle = synth_bundle(SynthSpec())
        table = EmbeddingTable.for_corpus(bundle.queries, bundle.items, 128, 3, bundle.graph)
        rows = item_tangent_rows(table, bundle.items)
        assert rows.shape == (len(bundle.items), 128)
        assert np.array_equal(rows, self.scalar_rows(table, bundle.items))
        picked = [bundle.items[i] for i in (7, 3, 400, 3)]
        assert np.array_equal(item_tangent_rows(table, picked), rows[[7, 3, 400, 3]])

    def test_trained_table(self):
        bundle = synth_bundle(
            SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
        )
        config = PipelineConfig(dim=6, lr=0.5, epochs=3, batch_size=4, k=3, crm_epochs=2, seed=2)
        table = run_training(config, bundle)[0].table
        rows = item_tangent_rows(table, bundle.items)
        assert np.array_equal(rows, self.scalar_rows(table, bundle.items))

    def test_empty(self):
        assert item_tangent_rows(make_table(dim=5), []).shape == (0, 5)

    def test_spatial_stack_matches_single_rows(self, rng):
        table = make_table(dim=6, d_in=9, seed=4)
        feats = rng.standard_normal((11, 9))
        stacked = table.spatial(feats, "visual")
        assert np.array_equal(stacked, [table.spatial(f, "visual") for f in feats])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, 1e308])
    def test_bad_weight_is_invalid_point_without_warnings(self, weight):
        table = make_table(seed=1)
        table.weight["textual"][1, 2] = weight
        items = [
            KnowledgeItem("a", "visual", np.ones(4)),
            KnowledgeItem("b", "textual", np.full(4, 1e10)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError, match="non-finite spatial coordinates"):
                item_tangent_rows(table, items)
            with pytest.raises(InvalidPointError, match="non-finite spatial coordinates"):
                item_point(table, items[1])


class TestQueryRows:
    """``embed_query_rows`` and its origin tangents against the scalar path
    each query took before: its scalar lift and ``log_map`` at the origin."""

    def test_default_bundle_rows_and_tangents(self):
        bundle = synth_bundle(SynthSpec())
        table = EmbeddingTable.for_corpus(bundle.queries, bundle.items, 128, 3, bundle.graph)
        rows = embed_query_rows(table, bundle.queries)
        base = origin(128)
        points = [query_point(table, q) for q in bundle.queries]
        assert np.array_equal(rows, [p.coords for p in points])
        tangents = origin_log_rows(rows)[:, 1:]
        assert np.array_equal(tangents, [log_map(base, p).components[1:] for p in points])
        picked = [bundle.queries[i] for i in (7, 3, 150, 3)]
        assert np.array_equal(embed_query_rows(table, picked), rows[[7, 3, 150, 3]])

    def test_empty(self):
        assert embed_query_rows(make_table(dim=5, d_in=4), []).shape == (0, 6)

    def test_first_query_that_fails_to_lift_raises_as_alone(self):
        table = make_table(dim=3, d_in=2, seed=2)
        good = Query("a", np.ones(2), np.ones(2))
        huge = [Query(name, np.full(2, scale), np.full(2, scale))
                for name, scale in (("b", 1e160), ("c", 1e300))]
        with pytest.raises(InvalidPointError) as alone:
            query_point(table, huge[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError) as err:
                embed_query_rows(table, [good, *huge])
        assert str(err.value) == str(alone.value)

    def test_feature_length_mismatch(self):
        table = make_table(d_in=2)
        queries = [Query("a", np.ones(2), np.ones(2)), Query("b", np.ones(3), np.ones(2))]
        with pytest.raises(ContractViolation) as alone:
            query_point(table, queries[1])
        with pytest.raises(ContractViolation) as err:
            embed_query_rows(table, queries)
        assert str(err.value) == str(alone.value)


class TestGeoLoss:
    def test_coincident_embeddings_give_zero(self):
        table = zero_table()
        q = Query("q", np.ones(4), np.ones(4))
        pos = [KnowledgeItem("a", "visual", np.ones(4))]
        assert geo_loss_and_grads(table, [(q, pos)])[0] == 0.0

    def test_single_pair_each_modality(self):
        # Query at the origin, one visual and one textual positive each at
        # the lift of a unit spatial vector: each term is arccosh(sqrt(2)).
        table = zero_table(dim=2, d_in=2)
        table.weight["visual"][0, 0] = 1.0
        table.weight["textual"][0, 0] = 1.0
        q = Query("q", np.zeros(2), np.zeros(2))
        pos = [
            KnowledgeItem("v", "visual", np.array([1.0, 0.0])),
            KnowledgeItem("t", "textual", np.array([1.0, 0.0])),
        ]
        loss, _ = geo_loss_and_grads(table, [(q, pos)])
        assert_allclose(loss, 2.0 * ACOSH_SQRT2, rtol=1e-12)

    def test_batch_order_invariance(self, rng):
        table = make_table(seed=5)
        batch = []
        for i in range(6):
            q = Query(f"q{i}", rng.standard_normal(4), rng.standard_normal(4))
            pos = [
                KnowledgeItem(f"p{i}{j}", "visual" if j % 2 else "textual", rng.standard_normal(4))
                for j in range(3)
            ]
            batch.append((q, pos))
        shuffled = [batch[i] for i in rng.permutation(6)]
        loss, _ = geo_loss_and_grads(table, batch)
        assert abs(loss - geo_loss_and_grads(table, shuffled)[0]) <= 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolation):
            geo_loss_and_grads(make_table(), [])

    def test_query_without_positives_rejected(self):
        q = Query("q", np.zeros(4), np.zeros(4))
        with pytest.raises(ContractViolation):
            geo_loss_and_grads(make_table(), [(q, [])])

    def test_graph_triplet_positive_rejected(self):
        q = Query("q", np.zeros(4), np.zeros(4))
        bad = KnowledgeItem("g", "graph_triplet", np.zeros(4))
        with pytest.raises(ContractViolation):
            geo_loss_and_grads(make_table(), [(q, [bad])])

    def test_nonnegative(self, rng):
        table = make_table(seed=11)
        q = Query("q", rng.standard_normal(4), rng.standard_normal(4))
        pos = [KnowledgeItem("p", "visual", rng.standard_normal(4))]
        assert geo_loss_and_grads(table, [(q, pos)])[0] >= 0.0


def per_pair_geo_loss_and_grads(table, batch):
    """Oracle for ``geo_loss_and_grads``: one scalar distance and gradient
    per (query, positive) pair, added one at a time in batch order."""
    grads = {name: np.zeros_like(arr) for name, arr in table.named_params()}
    total = 0.0
    inv_b = 1.0 / len(batch)
    for query, positives in batch:
        q_feat = query.combined_features
        q_pt = scalar_lift(table, q_feat, QUERY_KEY)
        for mod in POSITIVE_MODALITIES:
            group = [it for it in positives if it.modality == mod]
            if not group:
                continue
            coeff = inv_b / len(group)
            for item in group:
                i_pt = item_point(table, item)
                total += coeff * geodesic_distance(q_pt, i_pt)
                gq = coeff * distance_spatial_grad(q_pt, i_pt)
                gi = coeff * distance_spatial_grad(i_pt, q_pt)
                grads[f"weight.{QUERY_KEY}"] += np.outer(gq, q_feat)
                grads[f"bias.{QUERY_KEY}"] += gq
                grads[f"weight.{mod}"] += np.outer(gi, item.features)
                grads[f"bias.{mod}"] += gi
    return total, grads


class TestGeoLossMatchesPerPair:
    """Weights scaled to 0 make every pair coincide (the shared bias puts
    every map at one point); 1e-7 puts pairs below the gradient's
    coincidence cutoff but not at distance 0; 1e-3 inside the
    small-excess branch of the distance; larger scales far apart."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 8, 33]),
        q_half=st.integers(1, 4),
        d_in=st.integers(1, 5),
        counts=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), min_size=1, max_size=6
        ),
        scale=st.sampled_from([0.0, 1e-7, 1e-3, 1.0, 30.0]),
        shared_bias=st.booleans(),
    )
    @example(seed=1, dim=2, q_half=1, d_in=1, counts=[(1, 0)], scale=0.0, shared_bias=True)
    @example(
        seed=2, dim=3, q_half=1, d_in=1, counts=[(0, 2), (3, 1)], scale=1e-7, shared_bias=True
    )
    def test_bit_identical_to_per_pair_loop(
        self, seed, dim, q_half, d_in, counts, scale, shared_bias
    ):
        rng = np.random.default_rng(seed)
        dims = {"visual": d_in, "textual": d_in, "graph_triplet": d_in, "query": 2 * q_half}
        table = EmbeddingTable(dim, dims, seed=seed % 1000)
        bias = rng.standard_normal(dim)
        for key in table.weight:
            table.weight[key] *= scale
            table.bias[key] = bias.copy() if shared_bias else rng.standard_normal(dim)
        pool = [
            KnowledgeItem(f"i{j}", "visual" if j % 2 else "textual", rng.standard_normal(d_in))
            for j in range(6)
        ]
        batch = []
        for k, (n_vis, n_txt) in enumerate(counts):
            q = Query(f"q{k}", rng.standard_normal(q_half), rng.standard_normal(q_half))
            vis = [pool[i] for i in rng.choice([1, 3, 5], n_vis)]
            txt = [pool[i] for i in rng.choice([0, 2, 4], n_txt)]
            positives = vis + txt
            batch.append((q, [positives[i] for i in rng.permutation(len(positives))]))
        loss, grads = geo_loss_and_grads(table, batch)
        want_loss, want = per_pair_geo_loss_and_grads(table, batch)
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for name in want:
            assert grads[name].shape == want[name].shape
            assert np.array_equal(grads[name], want[name]), name
        
    def test_bad_query_map_is_an_invalid_point_without_warnings(self):
        table = make_table()
        table.weight["query"][0, 0] = np.inf
        item = KnowledgeItem("i", "visual", np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError, match="non-finite"):
                geo_loss_and_grads(table, [(Query("q", np.ones(4), np.ones(4)), [item])])


CLUSTER_SPEC = SynthSpec(num_queries=60, num_items=150, num_clusters=3, graph_size=60, seed=11)


def cluster_config(epochs):
    return PipelineConfig(
        dim=16, epochs=epochs, batch_size=16, seed=3, k=6, crm_hidden=32, crm_epochs=20, lr=1e-3
    )


class TestTrainAlignment:
    """Phase 2 of ``run_training``, the table's one trainer, on its
    alignment term: the geodesic loss learns, a query without positives adds
    no pair, and a diverged step is reported with its optimizer step."""

    def test_cluster_corpus_loss_halves(self):
        # Measured: l_geo 6.79 -> 2.70 over 30 epochs (ratio 0.40).
        reports = run_training(cluster_config(30), synth_bundle(CLUSTER_SPEC))[1]
        l_geo = [r.l_geo for r in reports]
        assert all(later < earlier for earlier, later in zip(l_geo, l_geo[1:]))
        assert l_geo[-1] <= 0.5 * l_geo[0]

    def test_queries_without_positives_are_left_out(self, monkeypatch):
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=1)
        config = PipelineConfig(dim=8, epochs=2, batch_size=6, crm_epochs=5, crm_hidden=8, k=3)
        bundle = synth_bundle(spec)
        bundle.positives["q0000"] = []
        paired = []
        original = pipeline.geo_loss_and_grads
        monkeypatch.setattr(
            pipeline,
            "geo_loss_and_grads",
            lambda table, pairs: paired.extend(q.id for q, _ in pairs) or original(table, pairs),
        )
        components, reports = run_training(config, bundle)
        gated = {
            q.id for q in bundle.queries
            if decide(components.sigmas.get(q.id, 0.0), components.theta) == 1
        }
        assert "q0000" in gated
        assert sorted(paired) == sorted(list(gated - {"q0000"}) * config.epochs)
        assert all(np.isfinite(r.l_geo) and r.l_geo > 0 for r in reports)

    def test_divergence_reports_step(self):
        # Three steps per epoch: the table leaves the hyperboloid after the
        # ninth, the last of epoch 3, and the final check reports it.
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
        config = PipelineConfig(dim=4, epochs=3, batch_size=4, k=3, crm_epochs=2, lr=1e20)
        with pytest.raises(DivergenceError, match=r"phase 2 diverged in epoch 3: ") as exc_info:
            run_training(config, synth_bundle(spec))
        assert exc_info.value.step == 9

    def test_divergence_on_the_last_step_is_caught(self):
        # One mini-batch in one epoch: the only step is the last, and only
        # the trained table's final check can see it diverge.
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
        config = PipelineConfig(dim=4, epochs=1, batch_size=64, k=3, crm_epochs=2, lr=1e200)
        with pytest.raises(DivergenceError, match=r"\[stage: phase2 epoch 1 index\]") as exc_info:
            run_training(config, synth_bundle(spec))
        assert exc_info.value.step == 1


def nearest_items(table, query, corpus, k):
    """(item, distance) of the k items nearest the query, as the read index
    ranks them: ``nearest_rows`` over freshly embedded rows."""
    point = embed_query_rows(table, [query])[0]
    order, dists = nearest_rows(point, embed_corpus_rows(table, corpus), k, id_ranks(corpus))
    return [(corpus[i], float(dists[i])) for i in order.tolist()]


class TestRetrieve:
    def test_planted_coincident_item_ranked_first(self, rng):
        table = make_table(dim=3, d_in=6, seed=8)
        q = Query("q", rng.standard_normal(6), rng.standard_normal(6))
        target_spatial = table.spatial(q.combined_features, "query")
        f_hit = np.linalg.pinv(table.weight["visual"]) @ (target_spatial - table.bias["visual"])
        corpus = [KnowledgeItem("hit", "visual", f_hit)] + [
            KnowledgeItem(f"x{i}", "textual", 5.0 + rng.standard_normal(6)) for i in range(10)
        ]
        ranked = nearest_items(table, q, corpus, 3)
        assert ranked[0][0].id == "hit"
        assert ranked[0][1] < 1e-6

    def test_full_k_is_sorted_permutation(self, rng):
        table = make_table(dim=3, d_in=4, seed=1)
        corpus = [
            KnowledgeItem(f"i{j:02d}", "visual" if j % 2 else "textual", rng.standard_normal(4))
            for j in range(12)
        ]
        q = Query("q", rng.standard_normal(4), rng.standard_normal(4))
        ranked = nearest_items(table, q, corpus, len(corpus))
        assert sorted(it.id for it, _ in ranked) == sorted(i.id for i in corpus)
        dists = [d for _, d in ranked]
        assert all(a <= b for a, b in zip(dists, dists[1:]))

    def test_matches_exhaustive_scalar_scan(self, rng):
        table = make_table(dim=4, d_in=5, seed=2)
        corpus = [
            KnowledgeItem(f"i{j:02d}", ("visual", "textual")[j % 2], rng.standard_normal(5))
            for j in range(50)
        ]
        q = Query("q", rng.standard_normal(5), rng.standard_normal(5))
        q_pt = query_point(table, q)
        oracle = sorted(
            ((geodesic_distance(q_pt, item_point(table, it)), it.id) for it in corpus),
        )
        ranked = nearest_items(table, q, corpus, 50)
        assert [it.id for it, _ in ranked] == [i for _, i in oracle]

    def test_ties_broken_by_id(self):
        table = zero_table(dim=2, d_in=2)
        corpus = [
            KnowledgeItem(name, "visual", np.zeros(2)) for name in ["b", "a", "d", "c"]
        ]
        q = Query("q", np.zeros(2), np.zeros(2))
        ranked = nearest_items(table, q, corpus, 4)
        assert [it.id for it, _ in ranked] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_rows_order_is_sorted_by_distance_then_id(self, seed):
        rng = np.random.default_rng(seed)
        table = make_table(dim=3, d_in=4, seed=seed)
        feats = rng.standard_normal((6, 4))
        # Each (features, modality) pair three times under shuffled ids, so
        # distances tie exactly.
        ids = [f"i{j:02d}" for j in rng.permutation(18)]
        corpus = [
            KnowledgeItem(ids[j], ("visual", "textual")[j % 2], feats[j % 6]) for j in range(18)
        ]
        q = Query("q", rng.standard_normal(4), rng.standard_normal(4))
        rows = embed_corpus_rows(table, corpus)
        point = embed_query_rows(table, [q])[0]
        dists = distances_to_rows(point, rows)
        assert len(set(dists.tolist())) == 6
        oracle = sorted(range(len(corpus)), key=lambda i: (dists[i], corpus[i].id))
        for k in (0, 5, len(corpus)):
            want = [(corpus[i].id, float(dists[i])) for i in oracle[:k]]
            order, got = nearest_rows(point, rows, k, id_ranks(corpus))
            assert [(corpus[i].id, float(got[i])) for i in order] == want

    def test_id_ranks_keep_corpus_order_for_equal_ids(self):
        corpus = [KnowledgeItem(name, "visual", np.zeros(2)) for name in "bcab"]
        assert id_ranks(corpus).tolist() == [1, 3, 0, 2]

    def test_nan_distance_ranks_first(self):
        table = zero_table(dim=2, d_in=2)
        corpus = [KnowledgeItem(name, "visual", np.zeros(2)) for name in "abc"]
        rows = embed_corpus_rows(table, corpus)
        rows[2] = np.nan
        q = Query("q", np.zeros(2), np.zeros(2))
        order, _ = nearest_rows(query_point(table, q).coords, rows, 2, id_ranks(corpus))
        assert [corpus[i].id for i in order] == ["c", "a"]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_partial_scan_matches_full_sort(self, seed, with_nan):
        def full_sort(point, rows, k, id_key):
            """``nearest_rows`` before the partial scan, as a test-only copy."""
            dists = distances_to_rows(point, rows)
            return np.lexsort((id_key, dists, ~np.isnan(dists)))[:k], dists

        # Seen from the origin, a row (a, 0, 0) is acosh(a) away, so each
        # distance is set directly: five distances four times each, and
        # two rows at +inf, under shuffled rows and shuffled id ranks.
        rng = np.random.default_rng(seed)
        a = np.concatenate([np.repeat(np.cosh([0.5, 0.1, 2.0, 0.3, 1.0]), 4), [np.inf] * 2])
        if with_nan:
            a[7] = np.nan
        rows = np.zeros((len(a), 3))
        rows[:, 0] = rng.permutation(a)
        id_key = rng.permutation(len(a))
        point = origin(2).coords
        for k in range(len(a) + 1):  # k = 0, 1, n - 1, n, and ties at the k-th
            order, dists = nearest_rows(point, rows, k, id_key)
            want_order, want_dists = full_sort(point, rows, k, id_key)
            assert np.array_equal(order, want_order)
            assert np.array_equal(dists, want_dists, equal_nan=True)
            if with_nan and k:
                assert np.isnan(dists[order[0]])
        assert np.isinf(dists[order[-2:]]).all()

    def test_k_zero_empty(self, rng):
        table = make_table()
        q = Query("q", np.zeros(4), np.zeros(4))
        corpus = [KnowledgeItem("i", "visual", np.zeros(4))]
        assert nearest_items(table, q, corpus, 0) == []


class TestPostTrainingRetrieval:
    def test_top1_within_cluster(self):
        # Measured: 0.60 of the queries' nearest items share their cluster
        # (scan precision 0.608); at lr 1e-4 the table barely moves and
        # both sit at the base rate of 3 clusters, 0.333.
        bundle = synth_bundle(CLUSTER_SPEC)
        components = run_training(cluster_config(10), bundle)[0]
        hits = 0
        for q in bundle.queries:
            top = nearest_items(components.table, q, bundle.items, 1)[0][0]
            hits += bundle.clusters[("item", top.id)] == bundle.clusters[("query", q.id)]
        assert hits / len(bundle.queries) >= 0.5
        assert evaluate(components.with_crm(False), bundle).retrieval_precision >= 0.5
