"""Orchestration tests: weighted-loss arithmetic, the adaptive optimizer,
two-phase training semantics, gated inference, and evaluation metrics."""

import hashlib
import math
import sys
from copy import deepcopy

import numpy as np
import pytest

from dataclasses import FrozenInstanceError, replace

from hyperrag import gate, generation, geometry, pipeline
from hyperrag.alignment import (
    AlignmentConfig,
    EmbeddingTable,
    Query,
    embed_corpus_rows,
    embed_query_rows,
    id_ranks,
    item_tangent_rows,
    nearest_rows,
    retrieve_topk,
)
from hyperrag.errors import (
    ConfigurationError,
    ContractViolation,
    DivergenceError,
    HyperRagError,
    InvalidPointError,
    NumericalError,
)
from hyperrag.gate import CrmConfig, decide
from hyperrag.generation import GenConfig
from hyperrag.geometry import LorentzPoint, acosh_stable_array, log_map, origin, origin_log_rows
from hyperrag.io import canonical_json_bytes
from hyperrag.pipeline import (
    AdamW,
    EvalReport,
    LossReport,
    PipelineConfig,
    ReadIndex,
    answer_query,
    evaluate,
    phase1_inputs,
    query_subgraph,
    run_training,
    total_loss,
)
from hyperrag.spectral import (
    GraphVertex,
    KnowledgeGraph,
    SweepKeys,
    embed_triplets,
    extract_triplets,
    refine_subgraph,
)
from hyperrag.synth import SynthSpec, synth_bundle

from conftest import assert_same_subgraph, scalar_triplet_rows
from test_generation import assert_same_terms, example_by_example, one_at_a_time, raised
from test_transport import old_entropic_terms

PLANTED_SPEC = SynthSpec(
    num_queries=30, num_items=90, num_clusters=3, graph_size=30, seed=13
)
PLANTED_CFG = PipelineConfig(
    dim=32, epochs=12, batch_size=10, seed=6, lr=0.01, k=5, crm_hidden=64, top_k=8
)
NOISY_SPEC = SynthSpec(
    num_queries=60, num_items=150, num_clusters=3, graph_size=60,
    noise_frac=0.2, seed=11,
)
NOISY_CFG = PipelineConfig(
    dim=32, epochs=12, batch_size=16, seed=3, lr=0.01, k=6, crm_hidden=64
)


@pytest.fixture(scope="module")
def planted():
    bundle = synth_bundle(PLANTED_SPEC)
    components, reports = run_training(PLANTED_CFG, bundle)
    return bundle, components, reports


@pytest.fixture(scope="module")
def all_answerable():
    bundle = synth_bundle(
        SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
    )
    for i, (qid, _) in enumerate(bundle.gating):
        bundle.gating[i] = (qid, False)
        bundle.confidence[qid] = np.array([2.5])
    return bundle


SMALL_CFG = PipelineConfig(
    dim=8, epochs=4, batch_size=6, seed=2, crm_epochs=20, crm_hidden=16, k=4, lr=0.05
)


class TestTotalLoss:
    def test_equal_thirds(self):
        assert total_loss(3.0, 3.0, 3.0, 1 / 3, 1 / 3) == pytest.approx(3.0, abs=1e-12)

    def test_weighted_arithmetic(self):
        # 0.2*1 + 0.3*2 + 0.5*4 = 2.8
        assert total_loss(1.0, 2.0, 4.0, 0.2, 0.3) == pytest.approx(2.8, abs=1e-12)

    def test_convex_combination_bound(self, rng):
        for _ in range(50):
            parts = rng.uniform(-5, 5, size=3)
            beta, gamma = rng.uniform(0.05, 0.45, size=2)
            value = total_loss(*parts, beta, gamma)
            assert parts.min() - 1e-12 <= value <= parts.max() + 1e-12

    def test_weights_must_be_interior(self):
        with pytest.raises(ConfigurationError):
            total_loss(1.0, 1.0, 1.0, 0.6, 0.4)
        with pytest.raises(ConfigurationError):
            total_loss(1.0, 1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ConfigurationError):
            total_loss(1.0, 1.0, 1.0, 0.5, 1.0)


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"beta": 0.7, "gamma": 0.3},
            {"alpha": 1.0},
            {"alpha": 0.0},
            {"lr": 0.0},
            {"weight_decay": -0.1},
            {"epochs": 0},
            {"batch_size": 0},
            {"dim": 1},
            {"k": 0},
            {"top_k": 0},
            {"eta_frac": 0.0},
            {"eta_frac": 1.5},
            {"rho": -1.0},
            {"epsilon": 0.0},
            {"t_decay": 0.0},
            {"crm_lr": -0.01},
            {"ot_max_iter": 0},
            {"crm_batch_size": 0},
        ],
    )
    def test_invalid_fields(self, overrides):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides, stage",
        [
            ({"crm_lr": 0.0}, "CrmConfig"),
            ({"crm_hidden": 0}, "CrmConfig"),
            ({"dim": 1}, "AlignmentConfig"),
            ({"lr": 0.0}, "AlignmentConfig"),
            ({"epsilon": 0.0}, "GenConfig"),
            ({"ot_max_iter": 0}, "GenConfig"),
        ],
    )
    def test_stage_rule_names_its_stage_config(self, overrides, stage):
        with pytest.raises(ConfigurationError, match=rf"\[stage: {stage}\]"):
            PipelineConfig(**overrides).validate()

    def test_stage_configs_read_their_fields(self):
        cfg = PipelineConfig(
            dim=6, lr=0.3, epochs=2, batch_size=5, seed=4, epsilon=0.2, t_decay=7.0,
            ot_max_iter=9, crm_hidden=3, crm_lr=0.4, crm_epochs=11, crm_batch_size=2,
        )
        assert cfg.crm_config() == CrmConfig(hidden=3, lr=0.4, epochs=11, seed=4, batch_size=2)
        assert cfg.alignment_config() == AlignmentConfig(
            dim=6, lr=0.3, epochs=2, batch_size=5, seed=4
        )
        # gen keeps GenConfig's own lr, epochs and t_decay.
        assert cfg.gen_config() == GenConfig(seed=4, epsilon=0.2, ot_max_iter=9)


class TestReports:
    def test_loss_identity_enforced(self):
        with pytest.raises(ContractViolation, match="identity"):
            LossReport(
                step=1, l_crm=1.0, l_geo=1.0, l_local=1.0, l_global=1.0,
                l_gen=1.0, l_total=2.0, delta_rate=0.5, beta=0.3, gamma=0.3,
            )

    def test_nan_loss_fails_the_identity(self):
        nan = float("nan")
        with pytest.raises(ContractViolation, match="identity"):
            LossReport(
                step=3, l_crm=0.5, l_geo=0.5, l_local=0.5, l_global=nan,
                l_gen=nan, l_total=nan, delta_rate=0.5, beta=0.3, gamma=0.3,
            )

    def test_delta_rate_range_enforced(self):
        with pytest.raises(ContractViolation, match="delta rate"):
            LossReport(
                step=1, l_crm=0.0, l_geo=0.0, l_local=0.0, l_global=0.0,
                l_gen=0.0, l_total=0.0, delta_rate=1.5, beta=0.3, gamma=0.3,
            )

    def test_eval_report_ranges(self):
        with pytest.raises(ContractViolation):
            EvalReport(accuracy=1.2, coherence=0.0, retrieval_precision=0.0, mean_latency_s=0.0)
        with pytest.raises(ContractViolation):
            EvalReport(accuracy=0.5, coherence=-2.0, retrieval_precision=0.0, mean_latency_s=0.0)

    def test_canonical_bytes_exclude_latency(self):
        a = EvalReport(0.5, 0.25, 1.0, mean_latency_s=0.001)
        b = EvalReport(0.5, 0.25, 1.0, mean_latency_s=99.0)
        c = EvalReport(0.75, 0.25, 1.0, mean_latency_s=0.001)
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.canonical_bytes() != c.canonical_bytes()


class TestAdamW:
    def test_decay_only_closed_form(self):
        p = np.ones(4)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
        for _ in range(100):
            opt.step({"p": np.zeros(4)})
        assert np.allclose(p, (1 - 0.1 * 0.01) ** 100, atol=1e-12)

    def test_untouched_without_grad_entry(self):
        p = np.full(3, 2.0)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step({})
        assert np.array_equal(p, np.full(3, 2.0))

    def test_first_step_matches_hand_formula(self):
        p = np.array([1.0])
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01)
        opt.step({"p": np.array([2.0])})
        # m_hat = 2, v_hat = 4; step = lr * 2 / (2 + 1e-8); decay first.
        expected = 1.0 - 0.1 * 0.01 * 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        assert p[0] == pytest.approx(expected, abs=1e-15)

    def test_descends_quadratic(self, rng):
        p = rng.normal(size=6) * 3
        start = np.linalg.norm(p)
        opt = AdamW({"p": p}, lr=0.05, weight_decay=0.0)
        for _ in range(400):
            opt.step({"p": p.copy()})
        assert np.linalg.norm(p) < start / 10

    def test_invalid_settings(self):
        with pytest.raises(ConfigurationError):
            AdamW({"p": np.ones(1)}, lr=0.0)
        with pytest.raises(ConfigurationError):
            AdamW({"p": np.ones(1)}, lr=0.1, weight_decay=-1.0)


def mixed_answers(bundle):
    """Every second gold answer ends in a second distinct token."""
    vocab = bundle.token_embeddings.shape[0]
    for q in bundle.queries[1::2]:
        gold = bundle.qa[q.id]
        bundle.qa[q.id] = gold[:-1] + ((gold[0] + 1) % vocab,)
    return bundle


class TestRunTraining:
    def test_report_shape_and_identity(self, planted):
        _, _, reports = planted
        assert len(reports) == PLANTED_CFG.epochs
        assert [r.step for r in reports] == list(range(1, PLANTED_CFG.epochs + 1))
        for r in reports:
            expected = total_loss(r.l_crm, r.l_geo, r.l_gen, r.beta, r.gamma)
            assert abs(r.l_total - expected) <= 1e-9
            assert 0.0 <= r.delta_rate <= 1.0

    def test_planted_delta_rate(self, planted):
        # Every third query is answerable by construction.
        _, _, reports = planted
        assert reports[0].delta_rate == pytest.approx(2 / 3)

    def test_losses_decrease(self, planted):
        _, _, reports = planted
        assert reports[-1].l_total < reports[0].l_total
        assert reports[-1].l_geo < reports[0].l_geo
        assert reports[-1].l_gen < reports[0].l_gen

    def test_deterministic_per_seed(self, planted):
        bundle, components, reports = planted
        again, reports2 = run_training(PLANTED_CFG, bundle)
        assert [r.to_record() for r in reports] == [r.to_record() for r in reports2]
        e1 = evaluate(components, bundle)
        e2 = evaluate(again, bundle)
        assert e1.canonical_bytes() == e2.canonical_bytes()

    def test_mixed_gold_answers_take_general_sinkhorn_path(self, monkeypatch):
        # Every second gold answer ends in a second distinct token, so the
        # generation loss solves two-atom transport problems.
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
        bundle = mixed_answers(synth_bundle(spec))
        gold_sizes = []
        solve = generation.entropic_terms

        def spy(p_weights, q, *args):
            gold_sizes.extend(row.size for row in q.rows)
            return solve(p_weights, q, *args)

        monkeypatch.setattr(generation, "entropic_terms", spy)
        _, reports = run_training(SMALL_CFG, bundle)
        assert set(gold_sizes) == {1, 2}
        records = [r.to_record() for r in reports]
        assert all(math.isfinite(v) for rec in records for v in rec.values())
        _, again = run_training(SMALL_CFG, bundle)
        assert records == [r.to_record() for r in again]

    def test_all_answerable_accrues_no_retrieval_losses(self, all_answerable):
        components, reports = run_training(SMALL_CFG, all_answerable)
        assert all(r.l_geo == 0.0 for r in reports)
        assert all(r.l_crm == 0.0 for r in reports)
        assert all(r.delta_rate == 0.0 for r in reports)
        # Head and embedding maps receive zero gradient updates: training
        # longer changes nothing.
        one_epoch = PipelineConfig(**{**SMALL_CFG.__dict__, "epochs": 1})
        comps_short, _ = run_training(one_epoch, all_answerable)
        assert np.array_equal(components.head.w1, comps_short.head.w1)
        assert np.array_equal(components.head.b2, comps_short.head.b2)
        for key in components.table.weight:
            assert np.array_equal(
                components.table.weight[key], comps_short.table.weight[key]
            )

    def test_unknown_positive_of_a_gated_query_names_the_query(self):
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=1)
        config = PipelineConfig(dim=8, epochs=1, batch_size=6, crm_epochs=5, crm_hidden=8, k=3)
        clean = synth_bundle(spec)
        components, reports = run_training(config, clean)
        gated = [decide(components.sigmas.get(q.id, 0.0), components.theta) for q in clean.queries]
        assert gated[:3] == [1, 1, 0]  # q0000 is gated, q0002 is not
        bundle = synth_bundle(spec)
        bundle.positives["q0000"].append("no-such-item")
        with pytest.raises(ContractViolation, match="query 'q0000'.*'no-such-item'"):
            run_training(config, bundle)
        # An ungated query's positives are never read, so training is unchanged.
        bundle = synth_bundle(spec)
        bundle.positives["q0002"].append("no-such-item")
        assert run_training(config, bundle)[1] == reports


class TestLockStepGeneration:
    """Phase 2's batched generator pass against the per-example loop it
    replaced, on real bundles and on the errors it raises."""

    @pytest.mark.parametrize(
        "seed, batch_size", [(42, 32), (100042, 199), (200042, 32)]
    )
    def test_every_solve_and_term_matches_per_example_loop(self, monkeypatch, seed, batch_size):
        bundle = mixed_answers(synth_bundle(SynthSpec(seed=seed)))
        solve, generator_pass = generation.entropic_terms, pipeline.example_losses_and_grad
        stacks, passes = [], []

        def checked_solve(p_weights, q, support, epsilon, max_iter):
            stacks.append([row.size for row in q.rows])
            out = solve(p_weights, q, support, epsilon, max_iter)
            for (value, grad, cost), p_w, q_row in zip(out, p_weights, q.rows, strict=True):
                want = old_entropic_terms(p_w, q_row, support, epsilon, max_iter)
                assert (value, cost) == (want[0], want[2]) and np.array_equal(grad, want[1])
            return out

        def checked_pass(*args):
            passes.append(len(stacks))
            out = generator_pass(*args)
            assert len(stacks) == passes[-1] + 1  # one solve per mini-batch
            assert_same_terms(out, one_at_a_time(*args))
            return out

        monkeypatch.setattr(generation, "entropic_terms", checked_solve)
        monkeypatch.setattr(pipeline, "example_losses_and_grad", checked_pass)
        run_training(PipelineConfig(seed=seed, epochs=1, batch_size=batch_size), bundle)
        assert len(stacks) == len(passes) == -(-len(bundle.queries) // batch_size)
        assert {size for sizes in stacks for size in sizes} == {1, 2}
        assert any(set(sizes) == {1, 2} for sizes in stacks)
        assert sum(map(len, stacks)) == len(bundle.queries)
        if batch_size == 199:  # 200 queries: the last batch is one row
            assert len(stacks[-1]) == 1

    @pytest.mark.parametrize("case", ["tiny-epsilon", "nan-weight"])
    def test_first_error_and_stage_match_per_example_loop(self, monkeypatch, case):
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
        bundle = mixed_answers(synth_bundle(spec))
        config = SMALL_CFG
        if case == "tiny-epsilon":
            config = replace(SMALL_CFG, epsilon=5e-324)
        else:
            class NanGenerator(generation.ToyGenerator):
                def __init__(self, *args):
                    super().__init__(*args)
                    self.weight[1, 2] = np.nan

            monkeypatch.setattr(pipeline, "ToyGenerator", NanGenerator)

        got = raised(run_training, config, bundle)
        monkeypatch.setattr(pipeline, "example_losses_and_grad", example_by_example)
        assert got == raised(run_training, config, bundle)
        assert got[1].endswith("[stage: phase2 epoch 1 generation]")
        assert got[0] is {"tiny-epsilon": NumericalError, "nan-weight": DivergenceError}[case]

    def test_plan_read_past_a_short_solve_is_numerical_error(self):
        """``ot_max_iter`` 1 stops the solve before its ladder reaches
        epsilon 5e-324, so the solve's own guard never fires; the plan read
        at that epsilon overflows in epoch 3 and raises, with no warning,
        where it left NaN losses in the reports."""
        spec = SynthSpec(num_queries=12, num_items=30, num_clusters=3, graph_size=18, seed=9)
        config = PipelineConfig(
            dim=8, epochs=3, batch_size=6, seed=2, crm_epochs=5, crm_hidden=8,
            crm_batch_size=4, k=3, top_k=4, lr=0.05, epsilon=5e-324, ot_max_iter=1,
        )
        assert raised(run_training, config, synth_bundle(spec)) == (
            NumericalError,
            "entropic plan at epsilon 5e-324 is non-finite [stage: phase2 epoch 3 generation]",
        )


DIVERGING_EVIDENCE_CONFIG = {
    "dim": 8, "epochs": 2, "batch_size": 4, "crm_epochs": 5, "crm_hidden": 8, "k": 3,
    "lr": 3.0, "seed": 1,
}


def diverging_evidence_bundle():
    """A small bundle whose query features are all scaled by 1e152, with
    positives kept only for the queries of epoch 1's first mini-batch under
    ``DIVERGING_EVIDENCE_CONFIG``: phase 2 first fails to lift a stepped
    query point while it gathers epoch 2's evidence."""
    bundle = synth_bundle(
        SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
    )
    cfg = DIVERGING_EVIDENCE_CONFIG
    order = np.random.default_rng(cfg["seed"]).permutation(len(bundle.queries))
    first = {bundle.queries[i].id for i in order[: cfg["batch_size"]]}
    queries = [
        Query(q.id, q.visual_features * 1e152, q.text_features * 1e152) for q in bundle.queries
    ]
    positives = {qid: ids for qid, ids in bundle.positives.items() if qid in first}
    return replace(bundle, queries=queries, positives=positives)


UNLIFTABLE_QUERY_CONFIG = {
    "dim": 8, "epochs": 1, "batch_size": 6, "crm_epochs": 20, "crm_hidden": 16, "k": 4,
    "lr": 1.0, "seed": 0,
}


def unliftable_query_bundle():
    """A small bundle whose query ``q0005`` has its features scaled by
    1e153.  Under ``UNLIFTABLE_QUERY_CONFIG`` the gate answers it directly,
    both its blocks drop out in its one epoch, so phase 2 never lifts its
    own features, and the trained table no longer lifts them (the initial
    one does)."""
    bundle = synth_bundle(
        SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
    )
    queries = [
        Query(q.id, q.visual_features * 1e153, q.text_features * 1e153) if q.id == "q0005" else q
        for q in bundle.queries
    ]
    return replace(bundle, queries=queries)


class TestPhase2Evidence:
    def test_a_bundle_query_that_no_longer_lifts_fails_the_final_check(self):
        config = PipelineConfig(**UNLIFTABLE_QUERY_CONFIG)
        bundle = unliftable_query_bundle()
        query = bundle.queries[5]
        p = generation.query_dropout_prob(0, config.t_decay)
        dropped = generation.apply_query_dropout(query, p, seed=(config.seed, 1, 5))
        assert not (dropped.visual_features.any() or dropped.text_features.any())
        with pytest.raises(DivergenceError) as err:
            run_training(config, bundle)
        assert str(err.value) == (
            "phase 2 diverged in epoch 1: spatial vector too large to lift "
            "[stage: phase2 epoch 1 index] (step 2)"
        )
        assert err.value.exit_code == 5

    @pytest.mark.parametrize("step", ["nearest_rows", "filter_relevant"])
    def test_a_lift_failure_comes_before_an_earlier_querys_scan_or_filter_error(
        self, monkeypatch, small_trained, step
    ):
        """Phase 2 lifts a mini-batch's gated queries in one pass before it
        scans or filters the first of them, so a later query's lift failure
        is reported, not the first query's scan or filter error."""
        bundle, components = small_trained
        order = np.random.default_rng(SMALL_CFG.seed).permutation(len(bundle.queries))
        first = [bundle.queries[i] for i in order[: SMALL_CFG.batch_size]]
        gated = [q for q in first if components._state.queries[q.id].subgraph]
        assert len(gated) >= 2
        late = gated[-1].id
        queries = [
            Query(q.id, q.visual_features * 1e160, q.text_features * 1e160) if q.id == late else q
            for q in bundle.queries
        ]
        positives = {qid: ids for qid, ids in bundle.positives.items() if qid != late}

        def stand_in(*args, **kwargs):
            raise ContractViolation(f"stand-in {step} error")

        monkeypatch.setattr(pipeline, step, stand_in)
        with pytest.raises(InvalidPointError) as err:
            run_training(SMALL_CFG, replace(bundle, queries=queries, positives=positives))
        assert str(err.value) == "spatial vector too large to lift [stage: phase2 epoch 1 evidence]"

    def test_diverged_query_map_in_the_evidence_step_is_divergence(self):
        config = PipelineConfig(**DIVERGING_EVIDENCE_CONFIG)
        with pytest.raises(DivergenceError) as err:
            run_training(config, diverging_evidence_bundle())
        assert "[stage: phase2 epoch 2 evidence]" in str(err.value)
        assert "spatial vector too large to lift" in str(err.value)

    def test_each_gated_example_holds_its_evidence_mean(self, monkeypatch):
        spec = SynthSpec(num_queries=12, num_items=24, num_clusters=3, graph_size=18, seed=5)
        bundle = synth_bundle(spec)
        generator_pass, full_rows = pipeline.example_losses_and_grad, ReadIndex.evidence
        means, stored = [], []

        def keep_rows(*args):
            rows = full_rows(*args)
            means.append(np.mean(rows, axis=0, keepdims=True) if len(rows) else rows)
            return rows

        def record(gen, table, examples, *rest):
            stored.extend(ex.evidence for ex in examples)
            return generator_pass(gen, table, examples, *rest)

        monkeypatch.setattr(ReadIndex, "evidence", keep_rows)
        monkeypatch.setattr(pipeline, "example_losses_and_grad", record)
        run_training(SMALL_CFG, bundle)
        gated = [ev for ev in stored if len(ev)]
        assert len(gated) == len(means) > 0
        assert all(ev.shape == (1, SMALL_CFG.dim) for ev in gated)
        assert all(np.array_equal(ev, mean) for ev, mean in zip(gated, means))


class TestAnswerQuery:
    def test_gating_consistency(self, planted):
        bundle, components, _ = planted
        for q in bundle.queries:
            res = answer_query(components, q)
            assert (res.subgraph is not None) == (res.delta == 1)

    def test_retrieval_path(self, planted):
        bundle, components, _ = planted
        q = bundle.queries[0]
        res = answer_query(components, q)
        assert res.delta == 1
        assert set(res.timings) == {"gate", "retrieve", "filter", "refine", "generate"}
        assert res.retrieved_ids
        assert set(res.retrieved_ids) <= bundle.relevance[q.id]
        assert set(res.used_ids) <= set(res.retrieved_ids)

    def test_direct_path(self, planted):
        bundle, components, _ = planted
        q = bundle.queries[2]
        res = answer_query(components, q)
        assert res.delta == 0
        assert res.subgraph is None
        assert set(res.timings) == {"gate", "generate"}
        assert res.retrieved_ids == () and res.used_ids == ()

    def test_repeated_calls_identical(self, planted):
        bundle, components, _ = planted
        q = bundle.queries[1]
        a, b = answer_query(components, q), answer_query(components, q)
        assert a.tokens.tokens == b.tokens.tokens
        assert a.sigma == b.sigma and a.delta == b.delta
        assert a.retrieved_ids == b.retrieved_ids and a.used_ids == b.used_ids

    def test_crm_disabled_forces_retrieval(self, planted):
        bundle, components, _ = planted
        disabled = components.with_crm(False)
        q = bundle.queries[2]
        res = answer_query(disabled, q)
        assert res.delta == 1
        assert res.used_ids == res.retrieved_ids

    def test_stage_tag_on_propagated_error(self, planted):
        # A non-finite item map fails where the corpus rows are lifted, at
        # index build; a non-finite generator fails in generate.
        bundle, components, _ = planted
        broken = replace(components, table=deepcopy(components.table))
        broken.table.weight["visual"][0, 0] = np.nan
        with pytest.raises(HyperRagError, match=r"\[stage: index\]"):
            answer_query(broken, bundle.queries[0])
        broken = replace(components, generator=deepcopy(components.generator))
        broken.generator.weight[0, 0] = np.nan
        with pytest.raises(HyperRagError, match=r"\[stage: generate\]"):
            answer_query(broken, bundle.queries[0])

    @pytest.mark.parametrize(
        "stage, target, error",
        [
            ("retrieve", "nearest_rows", InvalidPointError),
            ("filter", "filter_relevant", ContractViolation),
            ("refine", "refine_subgraph", NumericalError),
        ],
    )
    def test_stage_tag_of_each_retrieve_path_stage(
        self, planted, monkeypatch, stage, target, error
    ):
        # An unseen id is gated to retrieval, filtered and refined afresh.
        bundle, components, _ = planted
        query = replace(bundle.queries[0], id="q-unseen")

        def fail(*args, **kwargs):
            raise error("planted failure")

        monkeypatch.setattr(pipeline, target, fail)
        with pytest.raises(HyperRagError) as err:
            answer_query(components, query)
        assert type(err.value) is error
        assert str(err.value) == f"planted failure [stage: {stage}]"

    def test_gate_error_stays_untagged(self, planted):
        bundle, components, _ = planted
        q = bundle.queries[0]
        broken = replace(components, sigmas={**components.sigmas, q.id: 2.0})
        with pytest.raises(ContractViolation) as err:
            answer_query(broken, q)
        assert str(err.value).startswith("sigma=2.0 and theta=")
        assert "[stage:" not in str(err.value)


    def test_trained_query_read_other_query_lifted_once_docs_not_again(
        self, planted, monkeypatch
    ):
        bundle, components, _ = planted
        copies = (components, components.with_crm(False))
        for gated in copies:
            gated.read_index()
        lifted = []

        def counting(table, queries):
            lifted.append([q.id for q in queries])
            return embed_query_rows(table, queries)

        def refuse(*args):
            raise AssertionError("a query or used doc was embedded again")

        monkeypatch.setattr(pipeline, "embed_query_rows", counting)
        monkeypatch.setattr(EmbeddingTable, "embed_query", refuse)
        monkeypatch.setattr(EmbeddingTable, "embed_item", refuse)
        monkeypatch.setattr(pipeline, "embed_corpus_rows", refuse)
        for gated in copies:
            for q in bundle.queries[:6]:
                lifted.clear()
                answer_query(gated, q)
                assert lifted == []
                answer_query(gated, replace(q, text_features=q.text_features[::-1]))
                assert lifted == [[q.id]]

    @pytest.mark.parametrize("crm_enabled", [True, False])
    def test_other_queries_fail_to_lift_in_the_first_stage_that_reads_them(
        self, small_trained, crm_enabled
    ):
        bundle, components = small_trained
        components = components.with_crm(crm_enabled)
        direct = next(q for q in bundle.queries if not components._state.queries[q.id].subgraph)
        huge = replace(direct, visual_features=direct.visual_features * 1e160)
        cases = [
            (replace(huge, id="q-unseen"), "retrieve"),
            (huge, "generate" if crm_enabled else "retrieve"),
        ]
        for query, stage in cases:
            with pytest.raises(InvalidPointError) as err:
                answer_query(components, query)
            assert str(err.value) == f"spatial vector too large to lift [stage: {stage}]"
            assert err.value.exit_code == 4

    @pytest.mark.parametrize("crm_enabled, stage", [(True, "generate"), (False, "retrieve")])
    def test_bad_query_map_fails_in_the_first_stage_that_reads_it(
        self, planted, crm_enabled, stage
    ):
        bundle, components, _ = planted
        broken = replace(components, table=deepcopy(components.table), crm_enabled=crm_enabled)
        broken.read_index()
        broken.table.weight["query"][0, 0] = np.nan
        q = bundle.queries[2]  # answered directly when the gate is on
        with pytest.raises(HyperRagError, match=rf"\[stage: {stage}\]"):
            answer_query(broken, q)


class TestReadIndex:
    def test_triplet_evidence_matches_extract_triplets(self, planted):
        bundle, components, _ = planted
        index = components.read_index()
        checked = 0
        for q in bundle.queries:
            res = answer_query(components, q)
            if res.delta != 1:
                continue
            got = index.evidence([], res.subgraph)
            recs = extract_triplets(res.subgraph, components.graph)
            trips = [(rec.head, rec.relation, rec.tail) for rec in recs]
            assert np.array_equal(got, embed_triplets(components.graph, components.table, trips))
            checked += bool(trips)
        assert checked > 0

    def test_triplet_evidence_needs_both_ends_inside(self):
        rng = np.random.default_rng(0)
        verts = [GraphVertex(f"v{i}", "", rng.standard_normal(3)) for i in range(4)]
        edges = [("v0", "v1", 1.0), ("v1", "v2", 1.0), ("v2", "v3", 3.0)]
        trips = [("v0", "likes", "v1"), ("v3", "cites", "v2"), ("v1", "cites", "v2")]
        graph = KnowledgeGraph(tuple(verts), tuple(edges), tuple(trips))
        sub = refine_subgraph(graph, np.array([0.9, 0.9, 0.9, 0.0]), eta=2.0, k=3, rho=0.5)
        assert sub.vertex_set == {"v0", "v1", "v2"}
        modalities = dict.fromkeys(["query", "visual", "textual", "graph_triplet"], 3)
        table = EmbeddingTable(4, modalities, seed=1)
        index = ReadIndex.build(table, graph, [])
        want = embed_triplets(graph, table, [trips[0], trips[2]])
        assert np.array_equal(index.evidence([], sub), want)

    def test_triplet_evidence_matches_per_batch_selection(self, planted):
        """A test-only copy of the evidence selection that training once
        built by hand per mini-batch: embed the union of the gated queries'
        triplets, then gather each query's rows by triplet index."""
        bundle, components, _ = planted
        cfg, graph, table = components.config, components.graph, components.table
        order = np.random.default_rng(cfg.seed).permutation(len(bundle.queries))
        batch = [bundle.queries[i] for i in order[: cfg.batch_size]]
        subgraphs = {}
        for q in batch:
            res = answer_query(components, q)
            if res.delta == 1:
                subgraphs[q.id] = res.subgraph
        heads = np.array([graph.vertex_index(h) for h, _, _ in graph.triplets], dtype=np.intp)
        tails = np.array([graph.vertex_index(t) for _, _, t in graph.triplets], dtype=np.intp)

        def inside(sub):
            members = sub.indicator > 0
            return np.flatnonzero(members[heads] & members[tails])

        kept_triplets = {qid: inside(sub) for qid, sub in subgraphs.items()}
        batch_trips = list(dict.fromkeys(i for kept in kept_triplets.values() for i in kept))
        trips = [graph.triplets[i] for i in batch_trips]
        trip_rows = scalar_triplet_rows(graph, table, trips)
        row_of = {trip: r for r, trip in enumerate(batch_trips)}
        index = ReadIndex.build(table, graph, components.items)
        for qid, sub in subgraphs.items():
            want = trip_rows[[row_of[i] for i in kept_triplets[qid]]]
            assert np.array_equal(index.evidence([], sub), want)
        assert subgraphs and batch_trips

    def test_corpus_rows_match_embedding(self, planted):
        _, components, _ = planted
        assert np.array_equal(
            components.read_index().corpus_rows,
            embed_corpus_rows(components.table, components.items),
        )

    def test_retrieved_ids_match_retrieve_topk(self, planted):
        bundle, components, _ = planted
        index = components.read_index()
        assert np.array_equal(index.corpus_id_key, id_ranks(components.items))
        k = min(components.config.top_k, len(components.items))
        checked = 0
        for q in bundle.queries:
            res = answer_query(components, q)
            if res.delta == 1:
                want = retrieve_topk(components.table, q, components.items, k)
                assert res.retrieved_ids == tuple(doc.id for doc, _ in want)
                checked += 1
        assert checked > 0

    def test_built_once(self, planted):
        bundle, components, _ = planted
        answer_query(components, bundle.queries[0])
        index = components.read_index()
        answer_query(components, bundle.queries[0])
        assert components.read_index() is index

    def test_copy_does_not_inherit_index(self, planted):
        bundle, components, _ = planted
        answer_query(components, bundle.queries[0])
        original = components.read_index()
        copy = replace(components, table=deepcopy(components.table))
        copy.table.weight["textual"] *= 2.0
        rows = copy.read_index().corpus_rows
        assert copy.read_index() is not original
        assert np.array_equal(rows, embed_corpus_rows(copy.table, copy.items))
        assert not np.array_equal(rows, original.corpus_rows)


def old_corpus_rows(table, items) -> np.ndarray:
    """Test-only copy of the corpus rows as the read index built them
    before they were the ``embed_item`` bits: one GEMM per modality, then
    an einsum lift.  Their last bits differ from ``embed_item``'s."""
    by_mod: dict[str, list[int]] = {}
    for idx, item in enumerate(items):
        by_mod.setdefault(item.modality, []).append(idx)
    spatial = np.empty((len(items), table.dim))
    for mod, idxs in by_mod.items():
        feats = np.stack([items[i].features for i in idxs])
        spatial[idxs] = feats @ table.weight[mod].T + table.bias[mod]
    t = np.sqrt(1.0 + np.einsum("ij,ij->i", spatial, spatial))
    return np.column_stack([t, spatial])


@pytest.fixture(scope="module", params=[42, 100042, 200042])
def default_trained(request):
    """A default bundle trained as the benchmark trains it (one epoch)."""
    bundle = synth_bundle(SynthSpec(seed=request.param))
    components, reports = run_training(PipelineConfig(seed=request.param, epochs=1), bundle)
    return bundle, components, reports


def output_digests(bundle, components, reports) -> dict[str, str]:
    """SHA-256 of the bytes of each kind of training and answering output:
    phase 1 run alone (head arrays, theta, epoch losses), the trained head
    and theta, the table's parameters, the loss records, every answer's
    fields with the gate on and off, and both ``EvalReport``s."""
    phase1 = pipeline.train_phase1(components.config, bundle)[1:]
    head, theta, trace = phase1
    parts = {
        "phase1": [arr.tobytes() for _, arr in head.named_params()]
        + [repr((theta, trace.epoch_losses, trace.theta_accuracy)).encode()],
        "head": [arr.tobytes() for _, arr in components.head.named_params()]
        + [repr(components.theta).encode()],
        "table": [arr.tobytes() for _, arr in components.table.named_params()],
        "losses": [canonical_json_bytes([r.to_record() for r in reports])],
        "answers": [],
        "eval": [],
    }
    for gated in (components, components.with_crm(False)):
        for q in bundle.queries:
            res = answer_query(gated, q)
            sub = res.subgraph
            fields = (res.tokens.tokens, res.sigma, res.delta, res.retrieved_ids, res.used_ids)
            if sub is not None:
                fields += (sub.selected, sub.eta, sub.relevance_mass, sub.objective)
                parts["answers"].append(sub.indicator.tobytes())
            parts["answers"].append(repr(fields).encode())
        parts["eval"].append(evaluate(gated, bundle).canonical_bytes())
    return {name: hashlib.sha256(b"\n".join(chunks)).hexdigest() for name, chunks in parts.items()}


class TestParentOutputs:
    """``output_digests`` of the default bundles, pinned from the per-pair
    phase-1 step, the per-pair alignment loss, the scalar sigmoid and gate
    sweep, and phase-2 examples that held every evidence row, with each
    answer's query and used docs embedded again.  The array passes that
    replaced them keep every byte."""

    PINNED = {
        42: {
            "phase1": "5196c7b5484868b257926a164959624984457ee10cf5f335feae592681d27b1b",
            "head": "1122b8f6889946c8a41230d130b9f9478341ab7b041d3fd89cdacfcf5f585add",
            "table": "e14b8bca96dc6b6845d1bd1169d6aaa13c219fbc398a5e9ef52b2b34d11ad8d2",
            "losses": "75a50c172c04af835333d339c13adba0aee49c3c0b33ed55c251cb977e346840",
            "answers": "a9c0e6b17629a72e5e671fb6bb1b62a75299e8812d976d80bb4fcd2c8904d630",
            "eval": "dcf0fe0c88f8d16087f053e662d6ad32bc00518e53bb5f308e414c8a589ec900",
        },
        100042: {
            "phase1": "fbfe5c3421607d098f77e022b631bf309ac63616b79d0968bd334783b2e56068",
            "head": "dae3e5b6eb04a461bfcf00cda29c1534a804b7ad6d048410c1048d54440e5d30",
            "table": "85c57cb6327158af7d4c389392306235c249fc09627b69b5314e60e5b6888ddc",
            "losses": "4443feabece97ea253b6382516330ae7e05d28b841803bdd7f0ceb51902785cf",
            "answers": "dd2aa64a33b0bd8c4fe3e208bde536db9f805f5dfcfd7fcb4bd623d1a9649a28",
            "eval": "d4bc231e83550c854466f260f3c5d691dcc9482db5ac27c356553dac9e0a5654",
        },
        200042: {
            "phase1": "39634a07125b1803538a6a7410b73f6c809a00d7da5d9aa3de895a0454843450",
            "head": "798126f5f319d5e4db4c307c5d35c23bb1cff5109f6cfeff6e862cb2243c78a9",
            "table": "51ae15770a1a49c2ce7ed6a3ba15cc295d194fd7fd1c5a1316ca8236769249a4",
            "losses": "64d50d576009a6920e7ff71e66c3168e3dfac43aa4e7a340abdede1ccb4345cd",
            "answers": "1918aa30c962fce5542018ea227875d71dd49a67f853c107fc59149eaa71ac62",
            "eval": "a769143acf513f44da53900473c2a1b9e991ff673293221dfdb6679c1179e78f",
        },
    }

    def test_every_output_keeps_its_bytes(self, default_trained):
        bundle, components, reports = default_trained
        got = output_digests(bundle, components, reports)
        assert got == self.PINNED[components.config.seed]


class TestCorpusRows:
    def test_rows_are_the_embed_item_bits(self, default_trained):
        _, components, _ = default_trained
        table, items = components.table, components.items
        want = np.array([table.embed_item(item).coords for item in items])
        assert np.array_equal(embed_corpus_rows(table, items), want)
        assert np.array_equal(components.read_index().corpus_rows, want)

    def test_full_corpus_order_matches_the_old_rows(self, default_trained):
        bundle, components, _ = default_trained
        table, items = components.table, components.items
        key = id_ranks(items)
        rows, old = embed_corpus_rows(table, items), old_corpus_rows(table, items)
        assert not np.array_equal(rows, old)
        for point in embed_query_rows(table, bundle.queries):
            got, _ = nearest_rows(point, rows, len(items), key)
            want, _ = nearest_rows(point, old, len(items), key)
            assert [items[i].id for i in got] == [items[i].id for i in want]


def old_evidence_rows(index, positions, subgraph) -> np.ndarray:
    """Test-only copy of the evidence rows as each answer built them before
    the read index held the corpus tangents: ``origin_log_rows`` over the
    used docs' corpus rows, per answer, then the rows of the triplets with
    both ends in the subgraph's selected ids."""
    selected = subgraph.vertex_set
    inside = [h in selected and t in selected for h, _, t in index.graph.triplets]
    triplet_rows = index.triplet_rows[np.array(inside, dtype=bool)]
    return np.concatenate([origin_log_rows(index.corpus_rows[positions])[:, 1:], triplet_rows])


class TestPrecomputedReadRows:
    """Rows the read path gathers instead of computing per answer, each
    against a test-only copy of the path it replaced, bit for bit."""

    def test_corpus_tangents_are_the_log_map_bits(self, default_trained):
        _, components, _ = default_trained
        table = components.table
        base = origin(table.dim)
        want = [log_map(base, table.embed_item(item)).components[1:] for item in components.items]
        assert np.array_equal(components.read_index().corpus_tangents, np.array(want))

    def test_evidence_rows_match_the_per_answer_tangents(self, default_trained, monkeypatch):
        bundle, components, _ = default_trained
        calls, original = [], ReadIndex.evidence
        monkeypatch.setattr(
            ReadIndex, "evidence", lambda *args: calls.append(args) or original(*args)
        )
        generate, got = pipeline.generate, []

        def record(gen, point, evidence, max_len):
            got.append(evidence)
            return generate(gen, point, evidence, max_len)

        monkeypatch.setattr(pipeline, "generate", record)
        for q in bundle.queries:
            answer_query(components, q)
        gated = [ev for ev in got if len(ev)]
        assert len(calls) == len(gated) > 0
        for args, evidence in zip(calls, gated):
            assert np.array_equal(evidence, old_evidence_rows(*args))

    def test_handed_over_sigmas_are_the_confidence_sigmas(self, default_trained, monkeypatch):
        """One sigma per ``bundle.confidence`` id, computed in training; an
        answer only looks its id up, and an unknown id is retrieved for."""
        bundle, components, _ = default_trained
        want = {qid: pipeline._sigma_of_scores(s) for qid, s in bundle.confidence.items()}
        assert components.sigmas == want
        calls = spy(monkeypatch, "_sigma_of_scores")
        got = [answer_query(components, q).sigma for q in bundle.queries]
        assert got == [want[q.id] for q in bundle.queries]
        unknown = replace(bundle.queries[0], id="q-unknown")
        assert unknown.id not in bundle.confidence
        result = answer_query(components, unknown)
        assert (result.sigma, result.delta) == (0.0, 1)
        assert calls == []

    def test_a_replaced_copy_keeps_the_sigmas(self, default_trained):
        bundle, components, _ = default_trained
        copy = replace(components)
        for q in bundle.queries:
            assert answer_query(copy, q).sigma == answer_query(components, q).sigma

    def test_input_rows_are_the_input_vector_stack(self, default_trained):
        bundle, components, _ = default_trained
        head = components.head
        labeled, _ = phase1_inputs(bundle)
        for q, pos, neg in labeled:
            rows = head.input_rows(q, pos + neg)
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, np.stack([head.input_vector(q, d) for d in pos + neg]))

    def test_phase2_gathers_the_rows_each_batch_built(self, monkeypatch):
        """Phase 2's relevance rows are phase 1's stack gathered by index:
        the rows ``_crm_rows`` built for each mini-batch, in order."""
        original = pipeline.crm_loss_and_grads
        batches = []

        def check(head, batch, want_grads=True, *, stacked=None):
            z, is_pos, _ = gate._crm_rows(head, batch)
            assert stacked[0].flags.c_contiguous
            assert np.array_equal(stacked[0], z) and np.array_equal(stacked[1], is_pos)
            batches.append(len(batch))
            return original(head, batch, want_grads, stacked=stacked)

        monkeypatch.setattr(pipeline, "crm_loss_and_grads", check)
        run_training(SMALL_CFG, synth_bundle(PLANTED_SPEC))
        assert len(batches) > SMALL_CFG.epochs and max(batches) > 1


class TestPinnedTraining:
    # SHA-256 of the canonical JSON of the planted fixture's LossReport
    # records, pinned while triplet and item rows were still built one
    # scalar point at a time and the head's w1 gradient summed a stack of
    # outer products.  The row-wise passes that replaced them move no bit.
    LOSS_REPORTS_SHA256 = "e0b4653aeb586091ecab50f66b074706349d0729d3fc7f3d6ac0ba8acfa807ce"

    def test_loss_reports_are_pinned(self, planted):
        _, _, reports = planted
        records = canonical_json_bytes([r.to_record() for r in reports])
        assert hashlib.sha256(records).hexdigest() == self.LOSS_REPORTS_SHA256

    # SHA-256 of each trained relevance-head array's float64 bytes, pinned
    # while b2 was a Python float copied back from a one-element buffer
    # after every phase-2 step.  A last-bit change in the relevance scores
    # can leave the loss records as they are; it moves these.
    HEAD_SHA256 = {
        "w1": "976e67b22c5b474f2dadf0fd76bac514076a5f8734d369bb47689828bd319bfb",
        "b1": "f63b79d3e0e425a5e65607fa9c7d0dd13100449ef867bb1a66b72ab6aeb12c1c",
        "w2": "2c59fd4e3d80a8f15fbb0a9416455cfecc5ee7593159c279aef347e4c3cb8a40",
        "b2": "180a9d996ca0e8637b21210cc5c820aa8c553e0380ee9d70105dd436910970eb",
    }

    def test_trained_head_is_pinned(self, planted):
        _, components, _ = planted
        got = {
            name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in components.head.named_params()
        }
        assert got == self.HEAD_SHA256

    def test_item_rows_of_the_trained_table(self, planted):
        _, components, _ = planted
        table, items = components.table, components.items
        want = generation.origin_tangents([table.embed_item(doc) for doc in items], table.dim)
        assert np.array_equal(item_tangent_rows(table, items), want)


class TestPhase1Inputs:
    def test_order_follows_bundle(self, planted):
        bundle = planted[0]
        labeled, gating_pairs = phase1_inputs(bundle)
        first_seen = list(dict.fromkeys(qid for qid, _, _ in bundle.labels))
        assert [q.id for q, _, _ in labeled] == first_seen
        by_id = bundle.item_by_id()
        for q, pos, neg in labeled:
            rows = [(iid, flag) for qid, iid, flag in bundle.labels if qid == q.id]
            assert pos == [by_id[iid] for iid, flag in rows if flag]
            assert neg == [by_id[iid] for iid, flag in rows if not flag]
        assert [needs for _, needs in gating_pairs] == [needs for _, needs in bundle.gating]


class TestEvaluate:
    def test_trained_components_answer_from_the_training_index(self, monkeypatch):
        """``run_training`` ends with the trained table's index, which every
        answer of ``evaluate`` reads: no answer builds another."""
        bundle = synth_bundle(PLANTED_SPEC)
        components, _ = run_training(SMALL_CFG, bundle)
        built = []
        build = ReadIndex.build
        monkeypatch.setattr(ReadIndex, "build", lambda *args: built.append(args) or build(*args))
        evaluate(components, bundle)
        assert built == []
        rows = components.read_index().corpus_rows
        assert np.array_equal(rows, embed_corpus_rows(components.table, components.items))

    def test_planted_metrics(self, planted):
        bundle, components, _ = planted
        report = evaluate(components, bundle)
        assert report.accuracy >= 0.9
        assert report.retrieval_precision == 1.0
        assert -1.0 <= report.coherence <= 1.0
        assert report.mean_latency_s > 0.0

    def test_all_relevant_gives_unit_precision(self, planted):
        bundle, components, _ = planted
        every = frozenset(i.id for i in bundle.items)
        relaxed = {qid: every for qid in bundle.relevance}
        original = bundle.relevance
        bundle.relevance = relaxed
        try:
            report = evaluate(components.with_crm(False), bundle)
        finally:
            bundle.relevance = original
        assert report.retrieval_precision == 1.0

    def test_noise_robustness_direction(self):
        bundle = synth_bundle(NOISY_SPEC)
        components, reports = run_training(NOISY_CFG, bundle)
        on = evaluate(components, bundle)
        off = evaluate(components.with_crm(False), bundle)
        assert on.retrieval_precision >= off.retrieval_precision
        assert on.accuracy >= off.accuracy
        # The gate actually skips retrieval for the answerable slice.
        assert 0.0 < reports[-1].delta_rate < 1.0


@pytest.fixture(scope="module")
def small_trained():
    bundle = synth_bundle(PLANTED_SPEC)
    components, _ = run_training(SMALL_CFG, bundle)
    return bundle, components


def spy(monkeypatch, name):
    """Record the positional arguments of each call to ``pipeline.<name>``."""
    calls = []
    original = getattr(pipeline, name)
    monkeypatch.setattr(
        pipeline, name, lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
    )
    return calls


class TestKeptSubgraphs:
    """``run_training`` hands each gated query's ``Subgraph`` to the
    components; an answer uses it only for the trained query's features."""

    def test_evaluate_refines_nothing(self, small_trained, monkeypatch):
        bundle, components = small_trained
        calls = spy(monkeypatch, "refine_subgraph")
        evaluate(components, bundle)
        assert calls == []

    def test_every_gated_answer_equals_a_fresh_refine(self, small_trained):
        bundle, components = small_trained
        gated = 0
        for q in bundle.queries:
            result = answer_query(components, q)
            if result.delta == 1:
                gated += 1
                fresh = query_subgraph(components.config, components.graph, q)
                assert_same_subgraph(result.subgraph, fresh)
        assert 0 < gated < len(bundle.queries)

    def test_changed_features_refine_afresh(self, small_trained, monkeypatch):
        bundle, components = small_trained
        q = next(q for q in bundle.queries if answer_query(components, q).delta == 1)
        changed = replace(q, text_features=q.text_features[::-1])
        calls = spy(monkeypatch, "query_subgraph")
        result = answer_query(components, changed)
        assert [args[2] for args in calls] == [changed]
        fresh = query_subgraph(components.config, components.graph, changed)
        assert_same_subgraph(result.subgraph, fresh)
        assert result.subgraph.eta != answer_query(components, q).subgraph.eta

    def test_without_crm_refines_exactly_the_ungated(self, small_trained, monkeypatch):
        bundle, components = small_trained
        ungated = [q for q in bundle.queries if answer_query(components, q).delta == 0]
        off = components.with_crm(False)
        calls = spy(monkeypatch, "query_subgraph")
        results = [answer_query(off, q) for q in bundle.queries]
        assert [args[2] for args in calls] == ungated
        assert all(result.delta == 1 for result in results)

    def test_replaced_config_keeps_nothing(self, small_trained, monkeypatch):
        bundle, components = small_trained
        config = replace(components.config, eta_frac=0.3)
        other = replace(components, config=config)
        calls = spy(monkeypatch, "query_subgraph")
        for q in bundle.queries:
            result = answer_query(other, q)
            if result.delta == 1:
                assert_same_subgraph(result.subgraph, query_subgraph(config, other.graph, q))
        assert len(calls) == sum(answer_query(components, q).delta for q in bundle.queries)


class TestServeState:
    """The frozen components hand one ``ServeState`` to ``with_crm`` copies
    and none to ``dataclasses.replace`` copies."""

    def test_fields_cannot_be_assigned(self, small_trained):
        _, components = small_trained
        with pytest.raises(FrozenInstanceError):
            components.table = deepcopy(components.table)
        with pytest.raises(FrozenInstanceError):
            components.crm_enabled = False

    def test_without_crm_builds_no_index(self, small_trained, monkeypatch):
        bundle, components = small_trained
        built = []
        build = ReadIndex.build
        monkeypatch.setattr(ReadIndex, "build", lambda *args: built.append(args) or build(*args))
        off = evaluate(components.with_crm(False), bundle)
        assert built == []
        fresh = evaluate(replace(components, crm_enabled=False), bundle)
        assert len(built) == 1
        assert off.canonical_bytes() == fresh.canonical_bytes()

    def test_rows_for_on_a_fresh_copy(self, small_trained):
        """A ``replace`` copy's state holds no query rows: each query is
        lifted again, to the trained rows' bits, and refined afresh."""
        bundle, components = small_trained
        copy = replace(components)
        assert copy.read_index() is not components.read_index()
        for q in bundle.queries[:5]:
            got, trained = copy.rows_for(q), components.rows_for(q)
            assert got is not trained and got.subgraph is None
            assert np.array_equal(got.row, trained.row)
            assert np.array_equal(got.tangent, trained.tangent)
            fresh = query_subgraph(copy.config, copy.graph, q)
            assert_same_subgraph(answer_query(copy.with_crm(False), q).subgraph, fresh)

    def test_rows_for_trained_object_equal_copy_and_changed_features(
        self, small_trained, monkeypatch
    ):
        """The trained query object is recognised without comparing its
        features; an equal copy by comparing them; a query with the same id
        but other features is lifted afresh, with no subgraph."""
        bundle, components = small_trained
        q = next(q for q in bundle.queries if components._state.queries[q.id].subgraph)
        kept = components._state.queries[q.id]
        assert kept.query is q
        with monkeypatch.context() as m:
            m.setattr(np, "array_equal", lambda *args: pytest.fail("features compared"))
            assert components.rows_for(q) is kept
        assert components.rows_for(replace(q)) is kept
        changed = components.rows_for(replace(q, text_features=q.text_features[::-1]))
        assert changed is not kept and changed.subgraph is None
        assert not np.array_equal(changed.row, kept.row)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("default_trained", [42], indirect=True)
    def test_a_copy_with_another_k_refines_with_its_own_keys(self, default_trained, k):
        """A ``replace`` copy with another ``k`` computes its own sweep keys,
        so every gated answer is a fresh refine under the copy's config.  (On
        the seed-42 bundle, the trained ``k=10`` keys give another subgraph
        for 92 of the 134 gated queries at ``k=2``.)"""
        bundle, components, _ = default_trained
        config = replace(components.config, k=k)
        copy = replace(components, config=config)
        gated = 0
        for q in bundle.queries:
            result = answer_query(copy, q)
            if result.delta == 1:
                gated += 1
                fresh = query_subgraph(config, copy.graph, q)
                assert (result.subgraph.selected, result.subgraph.objective) == (
                    fresh.selected, fresh.objective
                )
        assert gated > 0


def old_top_items(config, point: LorentzPoint, index) -> list[int]:
    """Test-only copy of the scan as it read a ``LorentzPoint``: distances
    from ``point.coords[0]`` and ``point.space``, then the same ranking."""
    rows = index.corpus_rows
    dists = acosh_stable_array(rows[:, 0] * point.coords[0] - rows[:, 1:] @ point.space)
    k = min(config.top_k, len(rows))
    return np.lexsort((index.corpus_id_key, dists, ~np.isnan(dists)))[:k].tolist()


def old_condition_vector(table, point: LorentzPoint, evidence) -> np.ndarray:
    """Test-only copy of the condition vector as it took a ``LorentzPoint``:
    its tangent through the scalar ``log_map`` at the origin."""
    q_tan = log_map(origin(table.dim), point).components[1:]
    ev = np.mean(evidence, axis=0) if len(evidence) else np.zeros(table.dim)
    return np.concatenate([q_tan, ev])


def old_answer(components, query):
    """Test-only copy of the answer path before the state held query rows,
    for a query it refined afresh (an unseen id, changed features, or any
    query on a ``replace`` copy): the query lifted through ``embed_query``,
    scanned by ``old_top_items``, conditioned by ``old_condition_vector``.
    Returns the tokens, retrieved, used and selected ids."""
    cfg, table = components.config, components.table
    sigma = components.sigmas.get(query.id, 0.0) if components.crm_enabled else 0.0
    delta = decide(sigma, components.theta) if components.crm_enabled else 1
    point = table.embed_query(query)
    retrieved = used = selected = ()
    evidence = np.empty((0, cfg.dim))
    if delta == 1:
        index = components.read_index()
        positions = old_top_items(cfg, point, index)
        retrieved = tuple(components.items[i].id for i in positions)
        if components.crm_enabled:
            positions = pipeline._relevant(components.head, query, components.items, positions)
        used = tuple(components.items[i].id for i in positions)
        keys = SweepKeys.of(components.graph, cfg.k, cfg.seed)
        subgraph = query_subgraph(cfg, components.graph, query, keys)
        selected = subgraph.selected
        evidence = index.evidence(positions, subgraph)
    z = old_condition_vector(table, point, evidence)
    token = int(np.argmax(generation.softmax(components.generator.logits(z))))
    return (token,) * components.answer_len, retrieved, used, selected


def answer_fields(components, query):
    result = answer_query(components, query)
    selected = () if result.subgraph is None else result.subgraph.selected
    return result.tokens.tokens, result.retrieved_ids, result.used_ids, selected


class TestQueryRowsMatchTheScalarPath:
    """Every query row the read path and phase 2 use, against test-only
    copies of the scalar path they replaced, bit for bit."""

    def test_state_holds_every_bundle_query_at_the_scalar_bits(self, default_trained):
        bundle, components, _ = default_trained
        table, base = components.table, origin(components.table.dim)
        state = components._state.queries
        assert list(state) == [q.id for q in bundle.queries]
        for q in bundle.queries:
            rows, point = state[q.id], table.embed_query(q)
            assert rows.query is q
            assert np.array_equal(rows.row, point.coords)
            assert np.array_equal(rows.tangent, log_map(base, point).components[1:])
            assert (rows.subgraph is None) == (answer_query(components, q).delta == 0)

    @pytest.mark.parametrize("seed", [42, 100042, 200042])
    def test_phase2_scans_and_condition_vectors(self, monkeypatch, seed):
        bundle = synth_bundle(SynthSpec(seed=seed))
        config = PipelineConfig(seed=seed, epochs=1)
        build, relevant = ReadIndex.build, pipeline._relevant
        generator_pass = pipeline.example_losses_and_grad
        last, scans, vectors = {}, [], []

        def keep_index(table, graph, items):
            last["table"], last["index"] = table, build(table, graph, items)
            return last["index"]

        def check_scan(head, q, items, positions):
            want = old_top_items(config, last["table"].embed_query(q), last["index"])
            assert positions == want
            scans.append(q.id)
            return relevant(head, q, items, positions)

        def check_vectors(gen, table, examples, *rest):
            out = generator_pass(gen, table, examples, *rest)
            for ex, (_, _, _, z) in zip(examples, out, strict=True):
                want = old_condition_vector(table, table.embed_query(ex.query), ex.evidence)
                assert np.array_equal(z, want)
            vectors.extend(ex.query.id for ex in examples)
            return out

        monkeypatch.setattr(ReadIndex, "build", keep_index)
        monkeypatch.setattr(pipeline, "_relevant", check_scan)
        monkeypatch.setattr(pipeline, "example_losses_and_grad", check_vectors)
        components, _ = run_training(config, bundle)
        kept = [qid for qid, rows in components._state.queries.items() if rows.subgraph]
        assert sorted(scans) == sorted(kept) and len(kept) > 0
        assert sorted(vectors) == sorted(q.id for q in bundle.queries)
        monkeypatch.undo()
        index = components.read_index()
        for q in bundle.queries:
            result = answer_query(components, q)
            if result.delta == 1:
                want = old_top_items(config, components.table.embed_query(q), index)
                assert result.retrieved_ids == tuple(components.items[i].id for i in want)


def count_scalar_geometry(monkeypatch) -> dict[str, int]:
    """Count ``LorentzPoint`` constructions and the calls of
    ``project_to_hyperboloid`` and ``log_map`` through every ``hyperrag``
    module that binds them."""
    counts = dict.fromkeys(["LorentzPoint", "project_to_hyperboloid", "log_map"], 0)
    post_init = LorentzPoint.__post_init__

    def counted_post_init(point):
        counts["LorentzPoint"] += 1
        post_init(point)

    monkeypatch.setattr(LorentzPoint, "__post_init__", counted_post_init)
    for name in ("project_to_hyperboloid", "log_map"):
        fn = getattr(geometry, name)

        def counted(*args, _name=name, _fn=fn):
            counts[_name] += 1
            return _fn(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("hyperrag") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


class TestReadPathGuards:
    @pytest.mark.parametrize("default_trained", [42], indirect=True)
    def test_trained_answers_make_no_scalar_lift(self, default_trained, monkeypatch):
        bundle, components, _ = default_trained
        counts = count_scalar_geometry(monkeypatch)
        table = components.table  # first, the stand-in counts the scalar path
        geometry.log_map(geometry.origin(table.dim), table.embed_query(bundle.queries[0]))
        assert counts == {"LorentzPoint": 2, "project_to_hyperboloid": 1, "log_map": 1}
        counts.update(dict.fromkeys(counts, 0))
        deltas = {answer_query(components, q).delta for q in bundle.queries}
        assert deltas == {0, 1}
        assert counts == {"LorentzPoint": 0, "project_to_hyperboloid": 0, "log_map": 0}

    @pytest.mark.parametrize("default_trained", [42], indirect=True)
    def test_other_queries_answer_as_the_old_path(self, default_trained):
        bundle, components, _ = default_trained
        gated = [q for q in bundle.queries if components._state.queries[q.id].subgraph]
        ungated = [q for q in bundle.queries if not components._state.queries[q.id].subgraph]
        picked = gated[:4] + ungated[:4]
        unseen = [replace(q, id=f"{q.id}-unseen") for q in picked]
        changed = [replace(q, text_features=q.text_features[::-1]) for q in picked]
        for q in unseen + changed:
            assert answer_fields(components, q) == old_answer(components, q)
        assert {answer_query(components, q).delta for q in changed} == {0, 1}
        copy = replace(components)
        for q in picked:
            assert answer_fields(copy, q) == old_answer(copy, q)
