"""Generation losses, dropout schedule, toy generator, training."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrag import generation
from hyperrag.alignment import EmbeddingTable, Query, embed_query_rows
from hyperrag.conformance import origin_tangents, scalar_lift
from hyperrag.errors import (
    ConfigurationError,
    ContractViolation,
    DivergenceError,
    HyperRagError,
    NumericalError,
)
from hyperrag.gate import LOG_CLAMP
from hyperrag.generation import (
    GenConfig,
    GenDataset,
    GenExample,
    TokenDistributionSequence,
    TokenSequence,
    ToyGenerator,
    apply_query_dropout,
    condition_vector,
    exact_match_rate,
    example_losses_and_grad,
    gen_loss,
    generate,
    gold_distribution,
    local_loss,
    query_dropout_prob,
    softmax,
    train_generation,
)
from hyperrag.geometry import log_map, origin, origin_log_rows, project_to_hyperboloid
from hyperrag.transport import DistributionStack, entropic_terms

from conftest import query_point
from test_transport import old_entropic_terms

THREE_LN_4 = 4.1588830833596715
HALF_OVER_E = 0.18393972058572117


def make_memorizable(num=50, clusters=5, feat=4, dim=6, seed=11):
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        dim,
        {"query": 2 * feat, "visual": feat, "textual": feat, "graph_triplet": feat},
        seed=seed,
    )
    centers = rng.normal(0.0, 3.0, (clusters, feat))
    vocab = clusters + 2
    tok_emb = rng.normal(0.0, 2.0, (vocab, 4))
    examples = []
    for i in range(num):
        c = i % clusters
        q = Query(
            f"q{i:03d}",
            centers[c] + 0.1 * rng.standard_normal(feat),
            centers[c] + 0.1 * rng.standard_normal(feat),
        )
        ev = origin_tangents(
            [
                scalar_lift(table, centers[c] + 0.1 * rng.standard_normal(feat), "visual")
                for _ in range(2)
            ],
            dim,
        )
        examples.append(GenExample(q, ev, TokenSequence((c + 1,) * 3, vocab)))
    return GenDataset(tuple(examples), table, tok_emb)


def query_tangent(table, query) -> np.ndarray:
    """The query's origin tangent row, as the generator takes it."""
    return origin_log_rows(embed_query_rows(table, [query]))[0, 1:]


def scalar_query_tangent(table, query) -> np.ndarray:
    """The same tangent through the scalar maps: the generator's old path."""
    return log_map(origin(table.dim), query_point(table, query)).components[1:]


class TestTokenTypes:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractViolation):
            TokenSequence((), 4)

    def test_out_of_range_token_rejected(self):
        with pytest.raises(ContractViolation):
            TokenSequence((4,), 4)
        with pytest.raises(ContractViolation):
            TokenSequence((-1,), 4)

    def test_distribution_rows_validated(self):
        with pytest.raises(ContractViolation):
            TokenDistributionSequence(np.array([[0.5, 0.4]]))
        with pytest.raises(ContractViolation):
            TokenDistributionSequence(np.array([[1.2, -0.2]]))


class TestLocalLoss:
    def test_perfect_prediction_is_zero(self):
        rows = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        pred = TokenDistributionSequence(rows)
        assert local_loss(pred, TokenSequence((1, 0), 3)) == 0.0

    def test_uniform_vocab4_length3(self):
        pred = TokenDistributionSequence(np.full((3, 4), 0.25))
        assert local_loss(pred, TokenSequence((0, 3, 2), 4)) == pytest.approx(
            THREE_LN_4, abs=1e-9
        )

    def test_additive_over_positions(self, rng):
        rows = rng.dirichlet(np.ones(5), size=6)
        toks = tuple(int(t) for t in rng.integers(0, 5, 6))
        full = local_loss(TokenDistributionSequence(rows), TokenSequence(toks, 5))
        head = local_loss(TokenDistributionSequence(rows[:2]), TokenSequence(toks[:2], 5))
        tail = local_loss(TokenDistributionSequence(rows[2:]), TokenSequence(toks[2:], 5))
        assert full == pytest.approx(head + tail, rel=1e-12)

    def test_zero_probability_clamped(self):
        pred = TokenDistributionSequence(np.array([[1.0, 0.0]]))
        assert local_loss(pred, TokenSequence((1,), 2)) == pytest.approx(
            -math.log(1e-12), rel=1e-12
        )

    def test_length_mismatch_rejected(self):
        pred = TokenDistributionSequence(np.full((2, 4), 0.25))
        with pytest.raises(ContractViolation):
            local_loss(pred, TokenSequence((0,), 4))


class TestGenLoss:
    def test_paper_blend(self):
        assert gen_loss(1.0, 0.0, 0.7) == pytest.approx(0.7, rel=1e-15)

    def test_equal_components_fixed_point(self, rng):
        for _ in range(20):
            c = float(rng.uniform(0, 5))
            a = float(rng.uniform(0.01, 0.99))
            assert gen_loss(c, c, a) == pytest.approx(c, rel=1e-12)

    def test_convex_bound_on_random_triples(self, rng):
        for _ in range(1000):
            lo = float(rng.uniform(0, 10))
            hi = float(rng.uniform(0, 10))
            a = float(rng.uniform(0.001, 0.999))
            out = gen_loss(lo, hi, a)
            assert min(lo, hi) - 1e-12 <= out <= max(lo, hi) + 1e-12

    def test_alpha_boundaries_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigurationError):
                gen_loss(1.0, 1.0, bad)


class TestDropout:
    def test_schedule_endpoints(self):
        assert query_dropout_prob(0, 100.0) == 0.5
        assert query_dropout_prob(100, 100.0) == pytest.approx(HALF_OVER_E, abs=1e-12)

    def test_strictly_decreasing(self):
        vals = [query_dropout_prob(t, 7.0) for t in range(30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bad_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            query_dropout_prob(1, 0.0)

    def test_p_zero_identity(self):
        q = Query("q", np.array([1.0, 2.0]), np.array([3.0]))
        out = apply_query_dropout(q, 0.0, seed=5)
        assert np.array_equal(out.visual_features, q.visual_features)
        assert np.array_equal(out.text_features, q.text_features)

    def test_p_one_zeroes_everything(self):
        q = Query("q", np.array([1.0, 2.0]), np.array([3.0]))
        out = apply_query_dropout(q, 1.0, seed=5)
        assert not out.visual_features.any()
        assert not out.text_features.any()

    def test_deterministic_per_seed(self):
        q = Query("q", np.array([1.0, 2.0]), np.array([3.0]))
        a = apply_query_dropout(q, 0.5, seed=42)
        b = apply_query_dropout(q, 0.5, seed=42)
        assert np.array_equal(a.visual_features, b.visual_features)
        assert np.array_equal(a.text_features, b.text_features)

    def test_empirical_mask_rate(self):
        q = Query("q", np.array([1.0]), np.array([1.0]))
        masked = 0
        for i in range(10000):
            out = apply_query_dropout(q, 0.3, seed=i)
            masked += int(not out.visual_features.any())
            masked += int(not out.text_features.any())
        rate = masked / 20000
        assert abs(rate - 0.3) <= 0.02

    def test_invalid_probability_rejected(self):
        q = Query("q", np.array([1.0]), np.array([1.0]))
        with pytest.raises(ContractViolation):
            apply_query_dropout(q, 1.1, seed=0)


class TestGenerate:
    def setup_method(self):
        self.ds = make_memorizable(num=6, clusters=2)
        self.table = self.ds.table

    def test_zero_generator_uniform_token0(self):
        gen = ToyGenerator(4, 2 * self.table.dim)
        q_tan = query_tangent(self.table, self.ds.examples[0].query)
        assert generate(gen, q_tan, [], 5).tokens == (0,) * 5

    def test_deterministic(self):
        gen = ToyGenerator(self.ds.vocab_size, 2 * self.table.dim)
        ex = self.ds.examples[1]
        q_tan = query_tangent(self.table, ex.query)
        a = generate(gen, q_tan, list(ex.evidence), 3)
        b = generate(gen, q_tan, list(ex.evidence), 3)
        assert a == b

    def test_bad_max_len(self):
        gen = ToyGenerator(4, 2 * self.table.dim)
        q_tan = query_tangent(self.table, self.ds.examples[0].query)
        with pytest.raises(ContractViolation):
            generate(gen, q_tan, [], 0)

    def test_condition_vector_empty_evidence_zero_block(self):
        q_tan = query_tangent(self.table, self.ds.examples[0].query)
        z = condition_vector(q_tan, [])
        assert z.shape == (2 * self.table.dim,)
        assert not z[self.table.dim :].any()
        # The zero block takes the tangent's width, whatever table made it.
        z = condition_vector(np.array([1.0, 2.0, 3.0]), np.empty((0, 5)))
        assert np.array_equal(z, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 9),
        k=st.sampled_from([0, 1, 2, 7, 40]),
        scale=st.sampled_from([1e-6, 1.0, 5.0]),
    )
    def test_condition_vector_matches_per_point_log_maps(self, seed, dim, k, scale):
        rng = np.random.default_rng(seed)
        dims = {"query": 4, "visual": 2, "textual": 2, "graph_triplet": 2}
        table = EmbeddingTable(dim, dims, seed=seed % 1000)
        query = Query("q", rng.standard_normal(2), rng.standard_normal(2))
        points = [project_to_hyperboloid(scale * rng.standard_normal(dim)) for _ in range(k)]
        # The pooling as a per-point loop, before the evidence became rows.
        base = origin(dim)
        ev = (
            np.mean([log_map(base, p).components[1:] for p in points], axis=0)
            if points
            else np.zeros(dim)
        )
        want = np.concatenate([scalar_query_tangent(table, query), ev])
        got = condition_vector(query_tangent(table, query), origin_tangents(points, dim))
        assert np.array_equal(got, want)


class TestGoldDistribution:
    def test_counts_as_weights(self):
        emb = np.arange(10.0).reshape(5, 2)
        dist = gold_distribution(TokenSequence((1, 2, 2), 5), emb)
        assert dist.size == 2
        assert np.allclose(sorted(dist.weights), [1 / 3, 2 / 3])

    def test_constant_answer_single_atom(self):
        emb = np.arange(8.0).reshape(4, 2)
        dist = gold_distribution(TokenSequence((3, 3, 3), 4), emb)
        assert dist.size == 1
        assert dist.weights[0] == 1.0


class TestTraining:
    def test_memorizable_set_learned(self):
        ds = make_memorizable()
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        trained, trace = train_generation(gen, ds, alpha=0.7, config=GenConfig())
        assert exact_match_rate(trained, ds) >= 0.9
        assert trace.local[-1] <= 0.5 * trace.local[0]
        assert trace.global_w2[-1] <= 0.5 * trace.global_w2[0]

    def test_alpha_favors_local(self):
        ds = make_memorizable()
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        _, trace = train_generation(gen, ds, alpha=0.99, config=GenConfig())
        local_drop = (trace.local[0] - trace.local[-1]) / trace.local[0]
        global_drop = (trace.global_w2[0] - trace.global_w2[-1]) / trace.global_w2[0]
        assert local_drop >= global_drop

    def test_dropout_schedule_echoed(self):
        ds = make_memorizable(num=4, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        cfg = GenConfig(epochs=6, t_decay=3.0)
        _, trace = train_generation(gen, ds, alpha=0.5, config=cfg)
        expected = [0.5 * math.exp(-t / 3.0) for t in range(6)]
        assert trace.dropout_probs == expected

    def test_deterministic_per_seed(self):
        ds = make_memorizable(num=8, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        cfg = GenConfig(epochs=5, seed=3)
        _, t1 = train_generation(gen, ds, alpha=0.7, config=cfg)
        _, t2 = train_generation(gen, ds, alpha=0.7, config=cfg)
        assert t1.local == t2.local
        assert t1.global_w2 == t2.global_w2

    def test_interior_alpha_required(self):
        ds = make_memorizable(num=4, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        with pytest.raises(ConfigurationError):
            train_generation(gen, ds, alpha=1.0, config=GenConfig(epochs=1))

    # ot_max_iter is checked with the config, before any Sinkhorn solve.
    @pytest.mark.parametrize("bad", [{"seed": -1}, {"ot_max_iter": 0}])
    def test_bad_config(self, bad):
        ds = make_memorizable(num=4, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        with pytest.raises(ConfigurationError):
            train_generation(gen, ds, alpha=0.5, config=GenConfig(epochs=1, **bad))

    def test_divergence_reports_step(self):
        ds = make_memorizable(num=4, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        gen.weight[0, 0] = np.inf
        with pytest.raises(DivergenceError) as err:
            train_generation(gen, ds, alpha=0.7, config=GenConfig(epochs=3))
        assert err.value.step == 0

    def test_local_matches_local_loss_op(self):
        ds = make_memorizable(num=4, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        ex = ds.examples[0]
        [(local, _, _, z)] = example_losses_and_grad(
            gen, ds.table, [ex], ds.token_embeddings, 0.7, 0.05
        )
        probs = softmax(gen.logits(z))
        pred = TokenDistributionSequence(np.tile(probs, (ex.gold.length, 1)))
        assert local == pytest.approx(local_loss(pred, ex.gold), rel=1e-12)


class TestBlendedGradient:
    def test_matches_finite_differences(self, rng):
        ds = make_memorizable(num=3, clusters=3, seed=5)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        gen.weight = 0.3 * rng.standard_normal(gen.weight.shape)
        gen.bias = 0.3 * rng.standard_normal(gen.bias.shape)
        ex = ds.examples[0]
        alpha, eps = 0.7, 0.05

        def blended(g):
            q_tan = scalar_query_tangent(ds.table, ex.query)
            z = condition_vector(q_tan, list(ex.evidence))
            probs = softmax(g.logits(z))
            counts = np.bincount(np.array(ex.gold.tokens), minlength=g.vocab_size).astype(float)
            local = float(-np.sum(counts * np.log(np.maximum(probs, 1e-12))))
            gold = DistributionStack((gold_distribution(ex.gold, ds.token_embeddings),))
            [(obj, _, _)] = entropic_terms(probs[None], gold, ds.token_embeddings, eps)
            return alpha * local + (1 - alpha) * obj

        [(_, _, grad_logits, z)] = example_losses_and_grad(
            gen, ds.table, [ex], ds.token_embeddings, alpha, eps
        )
        grad_w = np.outer(grad_logits, z)
        h = 1e-5
        coords = [(0, 0), (1, 2), (2, 5), (3, 1)]
        for i, j in coords:
            probe = gen.copy()
            probe.weight[i, j] += h
            up = blended(probe)
            probe.weight[i, j] -= 2 * h
            down = blended(probe)
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grad_w[i, j], rel=1e-3, abs=1e-6)


def old_example_losses_and_grad(
    gen, table, example, token_embeddings, alpha, epsilon, ot_max_iter=2000
):
    """One example's generator pass as it was before the lock-step solve,
    its query lifted through the scalar maps."""
    z = condition_vector(scalar_query_tangent(table, example.query), example.evidence)
    probs = softmax(gen.logits(z))
    gold = example.gold
    counts = np.bincount(np.array(gold.tokens), minlength=gen.vocab_size).astype(float)
    local = float(-np.sum(counts * np.log(np.maximum(probs, LOG_CLAMP))))
    grad_local = gold.length * probs - counts
    _, grad_f, sqrt_cost = old_entropic_terms(
        probs, gold_distribution(gold, token_embeddings), token_embeddings, epsilon, ot_max_iter
    )
    grad_global = probs * (grad_f - float(grad_f @ probs))
    grad_logits = alpha * grad_local + (1.0 - alpha) * grad_global
    return local, sqrt_cost, grad_logits, z


def one_at_a_time(gen, table, examples, *args):
    """The old phase-2 loop: each example prepared and solved in turn."""
    return [old_example_losses_and_grad(gen, table, ex, *args) for ex in examples]


def example_by_example(gen, table, examples, *args):
    """The per-example loop over the current pass: each example prepared
    and solved (a batch of one) before the next.  Its errors are those of
    the old loop, whose one-row solve raised as ``sinkhorn_potentials``
    does now (``old_potentials`` predates that check)."""
    return [terms for ex in examples for terms in example_losses_and_grad(gen, table, [ex], *args)]


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for (local, cost, grad, z), (want_local, want_cost, want_grad, want_z) in zip(got, want):
        assert local == want_local and cost == want_cost
        assert np.array_equal(grad, want_grad) and np.array_equal(z, want_z)


def raised(fn, *args):
    """The (type, message) of the error ``fn(*args)`` raises, with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HyperRagError) as err:
            fn(*args)
    return type(err.value), str(err.value)


def with_gold(ds, tokens_by_index):
    """``ds`` with the gold answers of the given examples replaced."""
    examples = list(ds.examples)
    for idx, tokens in tokens_by_index.items():
        examples[idx] = GenExample(
            examples[idx].query, examples[idx].evidence, TokenSequence(tokens, ds.vocab_size)
        )
    return GenDataset(tuple(examples), ds.table, ds.token_embeddings)


class TestBatchedPass:
    """``example_losses_and_grad`` over many examples gives the bits, and
    the first error, of handling them one at a time."""

    @pytest.mark.parametrize("epsilon", [0.01, 0.05])
    def test_matches_one_at_a_time(self, rng, epsilon):
        # Gold answers of one, two and three atoms; the three-atom group
        # has a single row.
        ds = with_gold(make_memorizable(num=9, clusters=3), {1: (1, 2, 2), 4: (0, 3, 3), 6: (0, 1, 2)})
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        gen.weight = 0.5 * rng.standard_normal(gen.weight.shape)
        gen.bias = 0.5 * rng.standard_normal(gen.bias.shape)
        args = (ds.token_embeddings, 0.7, epsilon, 2000)
        got = example_losses_and_grad(gen, ds.table, list(ds.examples), *args)
        assert_same_terms(got, one_at_a_time(gen, ds.table, ds.examples, *args))

    @pytest.mark.parametrize("epsilon, error", [(0.05, DivergenceError)])
    def test_solve_error_of_an_earlier_example_comes_first(self, epsilon, error):
        # The second example's evidence makes its logits +inf.
        ds = make_memorizable(num=3, clusters=3)
        bad = GenExample(ds.examples[1].query, np.full_like(ds.examples[1].evidence, np.inf),
                         ds.examples[1].gold)
        examples = [ds.examples[0], bad, ds.examples[2]]
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        gen.weight[:] = 0.1
        args = (gen, ds.table, examples, ds.token_embeddings, 0.7, epsilon, 2000)
        want = raised(example_by_example, *args)
        assert want[0] is error
        assert raised(example_losses_and_grad, *args) == want

    def test_preparation_errors_raise_before_any_solve(self, monkeypatch):
        # At this epsilon the first example's solve overflows on its own,
        # but the second example's +inf evidence fails its preparation.
        ds = make_memorizable(num=3, clusters=3)
        bad = GenExample(ds.examples[1].query, np.full_like(ds.examples[1].evidence, np.inf),
                         ds.examples[1].gold)
        examples = [ds.examples[0], bad, ds.examples[2]]
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        gen.weight[:] = 0.1
        rest = (ds.token_embeddings, 0.7, 5e-324, 2000)
        first = (gen, ds.table, examples[:1], *rest)
        assert raised(example_losses_and_grad, *first)[0] is NumericalError
        solves = []

        def counted(*args):
            solves.append(args)
            return entropic_terms(*args)

        monkeypatch.setattr(generation, "entropic_terms", counted)
        args = (gen, ds.table, examples, *rest)
        got = raised(example_losses_and_grad, *args)
        assert got == (DivergenceError, "generator logits are non-finite")
        assert solves == []

    def test_nan_weight_is_divergence(self):
        ds = make_memorizable(num=4, clusters=2)
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        gen.weight[1, 2] = np.nan
        args = (gen, ds.table, list(ds.examples), ds.token_embeddings, 0.7, 0.01, 2000)
        want = raised(example_by_example, *args)
        assert want == (DivergenceError, "generator logits are non-finite")
        assert raised(example_losses_and_grad, *args) == want
