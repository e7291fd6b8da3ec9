import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hyperrag import gate
from hyperrag.alignment import KnowledgeItem, Query
from hyperrag.conformance import flat_params, load_flat_params, sigmoid
from hyperrag.errors import ConfigurationError, ContractViolation, DivergenceError
from hyperrag.gate import (
    LOG_CLAMP,
    RelevanceHead,
    crm_loss_and_grads,
    decide,
    filter_relevant,
    fit_theta,
    max_softmax,
    sigmoid_array,
    _crm_stacked,
    train_crm,
)
from hyperrag.pipeline import PipelineConfig

# Softmax of scores (2, 0, 0): e^2 / (e^2 + 2), evaluated by hand.
SOFTMAX_2_0_0 = 0.7869860421615985
SIGMOID_4 = 0.9820137900379085
LN2 = 0.6931471805599453


def small_head(hidden=8, q_dim=6, i_dim=3, seed=0):
    return RelevanceHead(q_dim, i_dim, hidden=hidden, seed=seed)


def zero_head(**kw):
    head = small_head(**kw)
    head.w1[:] = 0.0
    head.w2[:] = 0.0
    head.b1[:] = 0.0
    head.b2[:] = 0.0
    return head


def make_query(qid="q", dim=3, value=0.0):
    return Query(qid, np.full(dim, value), np.full(dim, value))


def relevance(head, query, doc):
    """The head's score of one document, as ``filter_relevant`` takes it."""
    return float(sigmoid_array(head.forward(head.input_rows(query, [doc]))[1])[0])


def input_vector(query, doc):
    """One row of ``RelevanceHead.input_rows``."""
    return np.concatenate([query.combined_features, doc.features])


class TestConfidence:
    def test_single_candidate_is_one(self):
        assert max_softmax([-5.0]) == 1.0

    def test_two_equal_scores(self):
        assert_allclose(max_softmax([0.0, 0.0]), 0.5, rtol=1e-15)

    def test_softmax_2_0_0(self):
        assert_allclose(max_softmax([2.0, 0.0, 0.0]), SOFTMAX_2_0_0, rtol=1e-12)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ContractViolation):
            max_softmax([])


class TestDecide:
    def test_confident_skips_retrieval(self):
        assert decide(0.9, 0.5) == 0

    def test_boundary_retrieves(self):
        assert decide(0.5, 0.5) == 1
        assert decide(0.0, 0.0) == 1

    def test_monotone(self, rng):
        for _ in range(200):
            theta = rng.uniform(0.0, 1.0)
            s1, s2 = sorted(rng.uniform(0.0, 1.0, size=2))
            if decide(s1, theta) == 0:
                assert decide(s2, theta) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            decide(1.2, 0.5)
        with pytest.raises(ContractViolation):
            decide(0.5, -0.1)


class TestRelevance:
    def test_zero_head_gives_half(self):
        head = zero_head()
        assert relevance(head, make_query(), KnowledgeItem("i", "visual", np.zeros(3))) == 0.5

    def test_raw_score_four(self):
        head = zero_head()
        head.b2[:] = 4.0
        r = relevance(head, make_query(), KnowledgeItem("i", "visual", np.zeros(3)))
        assert_allclose(r, SIGMOID_4, rtol=1e-12)

    def test_monotone_in_raw_score(self, rng):
        head = zero_head()
        doc = KnowledgeItem("i", "visual", np.zeros(3))
        values = []
        for b2 in np.linspace(-5.0, 5.0, 21):
            head.b2[:] = b2
            values.append(relevance(head, make_query(), doc))
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 < v < 1.0 for v in values)

    def test_dimension_mismatch(self):
        head = small_head(q_dim=6, i_dim=3)
        with pytest.raises(ConfigurationError):
            relevance(head, make_query(dim=4), KnowledgeItem("i", "visual", np.zeros(3)))


class TestInputRows:
    """``input_rows`` checks every width before it fills one block."""

    def test_first_bad_width_raises_input_vectors_error(self):
        head = small_head(q_dim=6, i_dim=3)
        q = make_query()
        good = KnowledgeItem("a", "visual", np.zeros(3))
        wide, narrow = (KnowledgeItem(k, "visual", np.zeros(n)) for k, n in (("b", 4), ("c", 2)))
        with pytest.raises(ConfigurationError) as got:
            head.input_rows(q, [good, wide, narrow])
        want = "feature sizes (6 + 4) do not match head configuration (6 + 3)"
        assert str(got.value) == want

    def test_no_docs_gives_an_empty_block(self):
        head = small_head(q_dim=6, i_dim=3)
        rows = head.input_rows(make_query(), [])
        assert rows.shape == (0, 9) and rows.dtype == np.float64

    def test_rows_are_the_input_vector_stack_in_c_order(self, rng):
        head = small_head(q_dim=6, i_dim=3, seed=2)
        q = Query("q", rng.standard_normal(3), rng.standard_normal(3))
        docs = [KnowledgeItem(f"i{k}", "visual", rng.standard_normal(3)) for k in range(7)]
        rows = head.input_rows(q, docs)
        assert rows.flags.c_contiguous
        assert np.array_equal(rows, np.stack([input_vector(q, d) for d in docs]))
        # C rows keep the bits of a one-row forward pass, row by row.
        raw = head.forward(rows)[1]
        assert raw.tolist() == [head.forward(rows[i : i + 1])[1][0] for i in range(len(docs))]


class TestFilterRelevant:
    def test_zero_head_filters_everything(self):
        head = zero_head()
        docs = [KnowledgeItem(f"i{k}", "visual", np.zeros(3)) for k in range(4)]
        assert filter_relevant(head, make_query(), docs) == []

    def test_subset_order_and_idempotence(self, rng):
        head = small_head(seed=3)
        q = Query("q", rng.standard_normal(3), rng.standard_normal(3))
        docs = [KnowledgeItem(f"i{k}", "visual", rng.standard_normal(3)) for k in range(12)]
        kept = filter_relevant(head, q, docs)
        ids = [d.id for d in docs]
        assert [d.id for d in kept] == [i for i in ids if i in {d.id for d in kept}]
        assert all(relevance(head, q, d) > 0.5 for d in kept)
        assert filter_relevant(head, q, kept) == kept


class TestCrmLoss:
    def test_saturated_head_loss_vanishes(self):
        head = zero_head()
        head.b2[:] = 40.0
        q = make_query()
        pos = [KnowledgeItem("p", "visual", np.zeros(3))]
        assert crm_loss_and_grads(head, [(q, pos, [])], want_grads=False)[0] <= 1e-9
        head.b2[:] = -40.0
        neg = [KnowledgeItem("n", "visual", np.zeros(3))]
        assert crm_loss_and_grads(head, [(q, [], neg)], want_grads=False)[0] <= 1e-9

    def test_single_positive_at_half(self):
        head = zero_head()
        q = make_query()
        pos = [KnowledgeItem("p", "visual", np.zeros(3))]
        loss, _ = crm_loss_and_grads(head, [(q, pos, [])], want_grads=False)
        assert_allclose(loss, LN2, rtol=1e-12)

    def test_additive_over_queries(self, rng):
        head = small_head(seed=1)
        batch = []
        for i in range(5):
            q = Query(f"q{i}", rng.standard_normal(3), rng.standard_normal(3))
            pos = [KnowledgeItem(f"p{i}", "visual", rng.standard_normal(3))]
            neg = [KnowledgeItem(f"n{i}", "visual", rng.standard_normal(3))]
            batch.append((q, pos, neg))
        total = crm_loss_and_grads(head, batch, want_grads=False)[0]
        parts = sum(crm_loss_and_grads(head, [entry], want_grads=False)[0] for entry in batch)
        assert abs(total - parts) <= 1e-12

    def test_clamp_keeps_loss_finite(self):
        head = zero_head()
        head.b2[:] = -80.0
        q = make_query()
        pos = [KnowledgeItem("p", "visual", np.zeros(3))]
        loss = crm_loss_and_grads(head, [(q, pos, [])], want_grads=False)[0]
        assert np.isfinite(loss)
        assert_allclose(loss, -math.log(1e-12), rtol=1e-9)

    def test_unlabeled_query_rejected(self):
        with pytest.raises(ContractViolation):
            crm_loss_and_grads(small_head(), [(make_query(), [], [])], want_grads=False)

    @pytest.mark.parametrize("want_grads", [True, False])
    def test_empty_batch_rejected(self, want_grads):
        with pytest.raises(ContractViolation, match="crm_loss_and_grads batch is empty"):
            crm_loss_and_grads(RelevanceHead(3, 2, hidden=4), [], want_grads)

    def test_gradient_matches_finite_differences(self, rng):
        head = small_head(hidden=6, seed=2)
        batch = []
        for i in range(3):
            q = Query(f"q{i}", 0.5 * rng.standard_normal(3), 0.5 * rng.standard_normal(3))
            pos = [KnowledgeItem(f"p{i}", "visual", 0.5 * rng.standard_normal(3))]
            neg = [KnowledgeItem(f"n{i}", "visual", 0.5 * rng.standard_normal(3))]
            batch.append((q, pos, neg))
        _, grads = crm_loss_and_grads(head, batch)
        analytic = flat_params(head, grads)
        flat0 = flat_params(head)
        h = 1e-5
        fd = np.zeros_like(flat0)
        for j in range(flat0.size):
            for sign in (+1, -1):
                probe = flat0.copy()
                probe[j] += sign * h
                load_flat_params(head, probe)
                fd[j] += sign * crm_loss_and_grads(head, batch, want_grads=False)[0]
            fd[j] /= 2.0 * h
        load_flat_params(head, flat0)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(analytic - fd) / denom) < 1e-4


class TestFitTheta:
    def test_calibrated_threshold(self):
        pairs = [(s, False) for s in [0.705, 0.72, 0.8, 0.95, 0.88]]
        pairs += [(s, True) for s in [0.3, 0.5, 0.67, 0.695, 0.25]]
        theta, acc = fit_theta(pairs)
        assert 0.69 <= theta <= 0.71
        assert acc == 1.0

    def test_tie_resolves_to_lowest(self):
        pairs = [(0.0, True)] * 3
        theta, acc = fit_theta(pairs)
        assert theta == 0.0
        assert acc == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            fit_theta([])


def scalar_fit_theta(pairs):
    """Oracle for ``fit_theta``: one ``decide`` per (theta, pair), theta
    outermost, and each accuracy a sum of hits over the pair count."""
    accuracy = {
        theta: sum((decide(sigma, theta) == 1) == bool(needs) for sigma, needs in pairs)
        / len(pairs)
        for theta in gate.THETA_GRID
    }
    best = max(gate.THETA_GRID, key=accuracy.__getitem__)
    return best, accuracy[best]


class TestFitThetaMatchesScalarLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(gate.THETA_GRID + [0.0, 1.0, 5e-324, 0.005, 0.995]),
                    st.floats(0.0, 1.0),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_same_theta_and_accuracy(self, pairs):
        assert fit_theta(pairs) == scalar_fit_theta(pairs)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf"), -5e-324])
    def test_out_of_range_sigma_raises_as_decide_does(self, bad):
        pairs = [(0.5, True), (bad, False), (2.0, True)]
        with pytest.raises(ContractViolation) as want:
            scalar_fit_theta(pairs)
        with pytest.raises(ContractViolation) as got:
            fit_theta(pairs)
        assert str(got.value) == str(want.value)

    def test_decide_is_not_called_per_pair(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gate, "decide", lambda *a: calls.append(a) or decide(*a))
        assert fit_theta([(0.3, True), (0.8, False)]) == (0.3, 1.0)
        assert calls == []


SIGMOID_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 709.8, -709.8, 745.0, -745.0, 5e-324, -5e-324,
    2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -1e-300, 36.7, -36.7, 1e308,
]


class TestSigmoidArray:
    @staticmethod
    def assert_bitwise_scalar(x):
        got = sigmoid_array(np.asarray(x, dtype=float))
        want = [sigmoid(v) for v in np.asarray(x, dtype=float).tolist()]
        assert got.shape == (len(want),)
        for g, w in zip(got.tolist(), want):
            if math.isnan(w):
                assert math.isnan(g)
            else:
                assert np.float64(g).tobytes() == np.float64(w).tobytes()

    def test_edge_values(self):
        self.assert_bitwise_scalar(SIGMOID_EDGES)

    @pytest.mark.parametrize("scale", [1e-310, 1e-12, 1e-3, 1.0, 30.0, 700.0, 1e5])
    def test_random_scales(self, rng, scale):
        self.assert_bitwise_scalar(scale * rng.standard_normal(2000))

    def test_empty(self):
        assert sigmoid_array(np.empty(0)).shape == (0,)


def planted_crm_corpus(rng, n_queries=10, feat=4, margin=3.0):
    direction = np.zeros(feat)
    direction[0] = 1.0
    labeled = []
    for i in range(n_queries):
        q = Query(f"q{i}", rng.standard_normal(feat), rng.standard_normal(feat))
        pos = [
            KnowledgeItem(f"p{i}{j}", "visual", margin * direction + 0.1 * rng.standard_normal(feat))
            for j in range(3)
        ]
        neg = [
            KnowledgeItem(f"n{i}{j}", "visual", -margin * direction + 0.1 * rng.standard_normal(feat))
            for j in range(3)
        ]
        labeled.append((q, pos, neg))
    return labeled


class TestTrainCrm:
    def calibrated_pairs(self):
        pairs = [(s, False) for s in [0.705, 0.72, 0.8, 0.95]]
        pairs += [(s, True) for s in [0.3, 0.5, 0.67, 0.695]]
        return pairs

    def test_separable_corpus_trains_to_perfection(self, rng):
        labeled = planted_crm_corpus(rng)
        config = PipelineConfig(
            crm_hidden=16, crm_lr=0.05, crm_epochs=150, crm_batch_size=10, seed=0
        )
        head, theta, trace = train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        initial, _ = crm_loss_and_grads(
            RelevanceHead(8, 4, hidden=16, seed=0), labeled, want_grads=False
        )
        assert trace.epoch_losses[-1] < 0.05 * initial
        for q, pos, neg in labeled:
            kept = filter_relevant(head, q, pos + neg)
            assert [d.id for d in kept] == [d.id for d in pos]
        assert 0.69 <= theta <= 0.71

    def test_deterministic(self, rng):
        labeled = planted_crm_corpus(rng, n_queries=4)
        config = PipelineConfig(crm_hidden=8, crm_lr=0.05, crm_epochs=20, crm_batch_size=4, seed=5)
        h1, t1, tr1 = train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        h2, t2, tr2 = train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        assert t1 == t2
        assert tr1.epoch_losses == tr2.epoch_losses
        assert np.array_equal(flat_params(h1), flat_params(h2))

    def test_saturated_head_raises_divergence(self, rng):
        # The clamped loss stays finite, so only the clamp shows the blow-up.
        labeled = planted_crm_corpus(rng, n_queries=4)
        config = PipelineConfig(crm_hidden=8, crm_lr=1e6, crm_epochs=5, crm_batch_size=4, seed=5)
        with pytest.raises(DivergenceError, match="log clamp") as info:
            train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        assert info.value.step == 1

    def test_full_batch_epoch_loss_is_the_step_loss(self, rng):
        # The first epoch reports the loss of the pass that took its one
        # step: the full-set loss of the initial head.
        labeled = planted_crm_corpus(rng, n_queries=5)
        config = PipelineConfig(crm_hidden=16, crm_lr=0.05, crm_epochs=3, crm_batch_size=5, seed=4)
        _, _, trace = train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        initial = RelevanceHead(8, 4, hidden=16, seed=4)
        assert trace.epoch_losses[0] == crm_loss_and_grads(initial, labeled, want_grads=False)[0]

    def test_saturation_on_the_last_step_is_caught(self, rng):
        # One full-batch step saturates the head; only the final check sees it.
        labeled = planted_crm_corpus(rng, n_queries=4)
        config = PipelineConfig(crm_hidden=8, crm_lr=1e6, crm_epochs=1, crm_batch_size=4, seed=5)
        with pytest.raises(DivergenceError, match="log clamp") as info:
            train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        assert info.value.step == 1

    @pytest.mark.parametrize("batch_size, steps", [(3, 9), (7, 3), (10, 3)])
    def test_one_pass_per_step_and_one_final_check(self, rng, monkeypatch, batch_size, steps):
        labeled = planted_crm_corpus(rng, n_queries=7)
        calls = []

        def counting(head, z, is_pos, want_grads):
            calls.append(want_grads)
            return _crm_stacked(head, z, is_pos, want_grads)

        monkeypatch.setattr(gate, "_crm_stacked", counting)
        config = PipelineConfig(
            crm_hidden=8, crm_lr=0.05, crm_epochs=3, crm_batch_size=batch_size, seed=1
        )
        train_crm(labeled, self.calibrated_pairs(), config, 8, 4)
        assert calls == [True] * steps + [False]

    @pytest.mark.parametrize("lr", [1e308, 1e300])
    def test_overflowing_step_diverges_without_warnings(self, rng, lr):
        labeled = planted_crm_corpus(rng, n_queries=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="log clamp or NaN"):
                config = PipelineConfig(crm_hidden=8, crm_lr=lr, crm_batch_size=4)
                train_crm(labeled, self.calibrated_pairs(), config, 8, 4)

    @pytest.mark.parametrize("bad", [{"seed": -1}, {"crm_batch_size": 0}])
    def test_bad_config(self, rng, bad):
        labeled = planted_crm_corpus(rng, n_queries=4)
        with pytest.raises(ConfigurationError, match=next(iter(bad))):
            train_crm(labeled, self.calibrated_pairs(), PipelineConfig(crm_hidden=4, **bad), 8, 4)

    def test_requires_both_label_kinds(self, rng):
        q = make_query()
        pos_only = [(q, [KnowledgeItem("p", "visual", np.zeros(3))], [])]
        with pytest.raises(ContractViolation):
            train_crm(pos_only, [(0.5, True)], PipelineConfig(crm_hidden=4), 6, 3)


def per_pair_loss_and_grads(head, batch, want_grads=True):
    """Oracle for ``crm_loss_and_grads``: one forward and backward pass per
    (query, document) pair, accumulated in batch order."""
    grads = {name: np.zeros_like(arr) for name, arr in head.named_params()} if want_grads else None
    total = 0.0
    for query, positives, negatives in batch:
        for doc, is_pos in [(d, True) for d in positives] + [(d, False) for d in negatives]:
            z = input_vector(query, doc)
            h = np.tanh(head.w1 @ z + head.b1)
            r = sigmoid(float(head.w2 @ h + head.b2[0]))
            p = r if is_pos else 1.0 - r
            total += -math.log(max(p, LOG_CLAMP))
            if want_grads and p > LOG_CLAMP:
                upstream = (r - 1.0) if is_pos else r
                grads["w2"] += upstream * h
                grads["b2"] += upstream
                dh = upstream * head.w2 * (1.0 - h * h)
                grads["w1"] += np.outer(dh, z)
                grads["b1"] += dh
    return total, grads


def per_pair_train_crm(labeled, gating_pairs, config, query_dim, item_dim):
    """Oracle for ``train_crm``: the same schedule over the per-pair loss;
    an epoch's loss is the sum of its steps' losses."""
    head = RelevanceHead(query_dim, item_dim, hidden=config.crm_hidden, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    size = config.crm_batch_size
    losses = []
    for _ in range(config.crm_epochs):
        if size >= len(labeled):
            batches = [labeled]
        else:
            order = rng.permutation(len(labeled))
            batches = [
                [labeled[i] for i in order[s : s + size]] for s in range(0, len(labeled), size)
            ]
        epoch_loss = 0.0
        for batch in batches:
            loss, grads = per_pair_loss_and_grads(head, batch)
            head.apply_grads(grads, config.crm_lr)
            epoch_loss += loss
        losses.append(epoch_loss)
    return head, fit_theta(gating_pairs)[0], losses


def _sum_rows(a):
    """a[0] + a[1] + ... in row order, as a ``+=`` loop adds them: reduce
    over the leading axis adds whole slices in order, but sums one-element
    slices pairwise, so those take the running sum (``accumulate``)."""
    return np.add.accumulate(a, axis=0)[-1] if a[0].size == 1 else np.add.reduce(a, axis=0)


def column_loop_grads(head, z, labels):
    """The w1 and b1 gradients of unclamped stacked rows z, summed as
    before the outer-product stack: one ``_sum_rows`` per input column for
    w1, and ``_sum_rows`` of the hidden-layer upstream for b1."""
    h, raw = head.forward(z)
    r = [sigmoid(x) for x in raw.tolist()]
    up = np.array([ri - 1.0 if pos else ri for ri, pos in zip(r, labels)])
    dh = up[:, None] * head.w2 * (1.0 - h * h)
    w1 = np.stack([_sum_rows(dh * z[:, k, None]) for k in range(z.shape[1])], 1)
    return w1, _sum_rows(dh)


class TestBatchedMatchesPerPair:
    # b2 = +-40 saturates every negative (positive) row, so p <= LOG_CLAMP
    # there; +-27.6 puts rows on both sides of the clamp.
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hidden=st.sampled_from([1, 2, 7, 32, 128]),
        dims=st.tuples(st.integers(1, 5), st.integers(1, 6)),
        counts=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any), min_size=1, max_size=6
        ),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        b2=st.sampled_from([0.0, 3.0, 27.6, -27.6, 40.0, -40.0]),
    )
    def test_bit_identical_to_per_pair_loop(self, seed, hidden, dims, counts, scale, b2):
        rng = np.random.default_rng(seed)
        q_half, i_dim = dims
        head = RelevanceHead(2 * q_half, i_dim, hidden=hidden, seed=seed % 1000)
        head.b1 = rng.standard_normal(hidden)
        head.b2[:] = b2
        batch = []
        for k, (n_pos, n_neg) in enumerate(counts):
            q = Query(f"q{k}", scale * rng.standard_normal(q_half), scale * rng.standard_normal(q_half))
            docs = [
                KnowledgeItem(f"d{k}.{j}", "visual", scale * rng.standard_normal(i_dim))
                for j in range(n_pos + n_neg)
            ]
            batch.append((q, docs[:n_pos], docs[n_pos:]))
        loss, grads = crm_loss_and_grads(head, batch)
        want_loss, want = per_pair_loss_and_grads(head, batch)
        assert loss == want_loss
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(grads[name], want[name]), name
        assert crm_loss_and_grads(head, batch, want_grads=False)[0] == want_loss
        q, pos, neg = batch[0]
        want_r = [
            sigmoid(
                float(head.w2 @ np.tanh(head.w1 @ input_vector(q, d) + head.b1) + head.b2[0])
            )
            for d in pos + neg
        ]
        assert [relevance(head, q, d) for d in pos + neg] == want_r
        kept = [d for d, r in zip(pos + neg, want_r) if r > 0.5]
        assert filter_relevant(head, q, pos + neg) == kept

    def test_saturated_rows_add_no_gradient(self):
        head = small_head(seed=4)
        head.b2[:] = -40.0
        q = make_query(value=0.3)
        pos = [KnowledgeItem("p", "visual", np.full(3, 0.2))]
        loss, grads = crm_loss_and_grads(head, [(q, pos, [])])
        assert_allclose(loss, -math.log(LOG_CLAMP), rtol=1e-12)
        assert all(not np.any(g) for g in grads.values())

    # Input rows at scales 1e-8 .. 1e8, with w1 scaled inversely so the
    # hidden layer neither vanishes nor saturates.
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 79),
        hidden=st.one_of(st.just(1), st.integers(1, 129)),
        width=st.one_of(st.just(1), st.integers(1, 29)),
        scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]),
    )
    @example(seed=0, n=5, hidden=1, width=1, scale=1.0)
    def test_w1_grad_matches_column_loop(self, seed, n, hidden, width, scale):
        rng = np.random.default_rng(seed)
        head = RelevanceHead(width, 0, hidden=hidden, seed=seed % 1000)
        head.w1 /= scale
        head.b1 = rng.standard_normal(hidden)
        z = scale * rng.standard_normal((n, width))
        labels = rng.random(n) < 0.5
        z1 = np.concatenate([z, np.ones((n, 1))], axis=1)
        _, grads, clamped = _crm_stacked(head, z1, labels, want_grads=True)
        assert clamped == 0
        want_w1, want_b1 = column_loop_grads(head, z, labels)
        assert np.array_equal(grads["w1"], want_w1)
        assert np.array_equal(grads["b1"], want_b1)

    @pytest.mark.parametrize("batch_size", [3, 7])
    def test_train_crm_matches_per_pair_training(self, rng, batch_size):
        labeled = planted_crm_corpus(rng, n_queries=7)
        pairs = TestTrainCrm().calibrated_pairs()
        config = PipelineConfig(
            crm_hidden=16, crm_lr=0.05, crm_epochs=12, crm_batch_size=batch_size, seed=3
        )
        head, theta, trace = train_crm(labeled, pairs, config, 8, 4)
        want_head, want_theta, want_losses = per_pair_train_crm(labeled, pairs, config, 8, 4)
        assert np.array_equal(flat_params(head), flat_params(want_head))
        assert theta == want_theta
        assert trace.epoch_losses == want_losses
