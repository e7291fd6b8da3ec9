"""Acceptance gate: one test per release criterion, one printed verdict line
per criterion.

Each test exercises a full behavioral contract (numerical tolerances, oracle
cross-checks, runtime budget) and prints a single PASS/FAIL line directly to
the real stdout so the verdicts survive pytest's capture.  Checks accumulate
into a failure list so a criterion reports every violated sub-check at once
instead of stopping at the first.
"""

import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from hyperrag.alignment import EmbeddingTable, KnowledgeItem, Query
from hyperrag.conformance import (
    crm_gradient_case,
    dense_eigs,
    finite_difference_grad,
    origin_tangents,
    ot_bruteforce,
    random_connected_graph,
    random_rounding_instance,
    rounding_ratio,
    scalar_lift,
    subset_bruteforce,
    two_clique_graph,
)
from hyperrag.gate import RelevanceHead, decide, filter_relevant, train_crm
from hyperrag.generation import (
    GenDataset,
    GenExample,
    TokenDistributionSequence,
    TokenSequence,
    ToyGenerator,
    apply_query_dropout,
    exact_match_rate,
    gen_loss,
    local_loss,
    query_dropout_prob,
    train_generation,
)
from hyperrag.geometry import (
    LorentzPoint,
    acosh_from_excess,
    distance_spatial_grad,
    exp_map,
    geodesic_distance,
    log_map,
    lorentz_inner,
    project_to_hyperboloid,
    riemannian_gradient,
    rsgd_step,
)
from hyperrag.pipeline import PipelineConfig, evaluate, run_training, total_loss
from hyperrag.spectral import (
    GraphVertex,
    KnowledgeGraph,
    cheeger_check,
    laplacian,
    refine_subgraph,
    smallest_eigenpairs,
)
from hyperrag.synth import SynthSpec, synth_bundle
from hyperrag.transport import (
    EmpiricalDistribution,
    wasserstein2_exact,
    wasserstein2_sinkhorn,
)

THREE_LN_4 = 4.1588830833596715
HALF_OVER_E = 0.18393972058572117
INV_SQRT2 = 0.7071067811865476


@contextmanager
def criterion(num: int, name: str, capfd, budget_s: float | None = None):
    """Collect sub-check failures, enforce the runtime budget, and print one
    verdict line on the real stdout regardless of capture."""
    failures: list[str] = []
    start = time.perf_counter()
    try:
        yield failures
    except BaseException as exc:
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
        raise
    finally:
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed > budget_s:
            failures.append(f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
        status = "PASS" if not failures else "FAIL"
        detail = "" if not failures else f" [{failures[0]}]"
        with capfd.disabled():
            print(
                f"{status} criterion {num}: {name} ({elapsed:.1f}s){detail}",
                file=sys.stdout,
                flush=True,
            )
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def random_point(rng: np.random.Generator, n: int, scale: float) -> LorentzPoint:
    return project_to_hyperboloid(scale * rng.standard_normal(n))


def path_graph(n: int) -> KnowledgeGraph:
    return KnowledgeGraph(
        tuple(GraphVertex(f"v{i}", f"v{i}", np.zeros(1)) for i in range(n)),
        tuple((f"v{i}", f"v{i + 1}", 1.0) for i in range(n - 1)),
        (),
    )


def complete_graph(n: int) -> KnowledgeGraph:
    return KnowledgeGraph(
        tuple(GraphVertex(f"v{i}", f"v{i}", np.zeros(1)) for i in range(n)),
        tuple((f"v{i}", f"v{j}", 1.0) for i in range(n) for j in range(i + 1, n)),
        (),
    )


def test_criterion_1_hyperbolic_geometry(capfd):
    rng = np.random.default_rng(1)
    with criterion(1, "hyperbolic geometry", capfd, budget_s=10.0) as failures:
        for _ in range(1000):
            x = random_point(rng, 6, 1.5)
            y = random_point(rng, 6, 1.5)
            if geodesic_distance(x, y) != geodesic_distance(y, x):
                failures.append("distance symmetry is not exact")
                break

        worst_gap = 0.0
        for _ in range(1000):
            scale = float(rng.uniform(0.3, 2.5))
            x, y, z = (random_point(rng, 5, scale) for _ in range(3))
            gap = geodesic_distance(x, z) - (
                geodesic_distance(x, y) + geodesic_distance(y, z)
            )
            worst_gap = max(worst_gap, gap)
        check(
            failures, worst_gap <= 1e-9,
            f"triangle inequality violated by {worst_gap:.3e} (> 1e-9)",
        )

        worst_exp_log = 0.0
        worst_log_exp = 0.0
        for _ in range(200):
            x = random_point(rng, 7, 1.5)
            y = random_point(rng, 7, 1.5)
            if geodesic_distance(x, y) > 10.0:
                continue
            z = exp_map(x, log_map(x, y))
            worst_exp_log = max(worst_exp_log, float(np.max(np.abs(z.coords - y.coords))))
            u = riemannian_gradient(x, rng.standard_normal(8))
            if u.norm() > 10.0 or u.norm() < 1e-6:
                continue
            back = log_map(x, exp_map(x, u))
            worst_log_exp = max(
                worst_log_exp, float(np.max(np.abs(back.components - u.components)))
            )
        check(
            failures, worst_exp_log <= 1e-8,
            f"exp(log) round trip deviates by {worst_exp_log:.3e} (> 1e-8)",
        )
        check(
            failures, worst_log_exp <= 1e-8,
            f"log(exp) round trip deviates by {worst_log_exp:.3e} (> 1e-8)",
        )

        # Descend toward a rotating set of targets so the iterate keeps
        # moving for all 1000 steps without converging or escaping.
        targets = [random_point(rng, 6, 1.5) for _ in range(4)]
        x = random_point(rng, 6, 1.5)
        worst_drift = 0.0
        for step in range(1000):
            t = targets[(step // 50) % len(targets)]
            a = -lorentz_inner(x.coords, t.coords)
            d = acosh_from_excess(a - 1.0)
            if d > 1e-9:
                coeff = d / math.sqrt(a * a - 1.0)
                g = coeff * np.concatenate([[t.coords[0]], -t.space])
                x = rsgd_step(x, g, 0.02)
            worst_drift = max(worst_drift, abs(lorentz_inner(x.coords, x.coords) + 1.0))
        check(
            failures, worst_drift <= 1e-9,
            f"manifold drift over 1000 optimizer steps is {worst_drift:.3e} (> 1e-9)",
        )

        worst_rel = 0.0
        for _ in range(25):
            v = rng.standard_normal(5)
            y = random_point(rng, 5, 1.5)
            analytic = distance_spatial_grad(project_to_hyperboloid(v), y)
            fd = finite_difference_grad(
                lambda w: geodesic_distance(project_to_hyperboloid(w), y), v
            )
            rel = float(np.linalg.norm(analytic - fd)) / max(
                float(np.linalg.norm(fd)), 1e-12
            )
            worst_rel = max(worst_rel, rel)
        check(
            failures, worst_rel < 1e-4,
            f"distance gradient relative error {worst_rel:.3e} (>= 1e-4)",
        )


def test_criterion_2_spectral_refinement(capfd):
    rng = np.random.default_rng(2)
    with criterion(2, "spectral graph refinement", capfd, budget_s=60.0) as failures:
        worst_row = 0.0
        worst_neg = 0.0
        for _ in range(100):
            n = int(rng.integers(4, 51))
            graph = random_connected_graph(rng, n)
            mat = laplacian(graph)
            worst_row = max(worst_row, float(np.max(np.abs(mat @ np.ones(n)))))
            worst_neg = max(worst_neg, -float(dense_eigs(mat)[0]))
        check(
            failures, worst_row <= 1e-10,
            f"Laplacian row sums deviate by {worst_row:.3e} (> 1e-10)",
        )
        check(
            failures, worst_neg <= 1e-10,
            f"Laplacian has eigenvalue {-worst_neg:.3e} below zero",
        )

        for graph, expected, label in [
            (path_graph(3), np.array([0.0, 1.0, 3.0]), "3-path"),
            (complete_graph(4), np.array([0.0, 4.0, 4.0, 4.0]), "4-clique"),
        ]:
            mat = laplacian(graph)
            vals, _ = smallest_eigenpairs(mat, graph.size, seed=0)
            dev_known = float(np.max(np.abs(vals - expected)))
            dev_oracle = float(np.max(np.abs(vals - dense_eigs(mat))))
            check(
                failures, dev_known <= 1e-7,
                f"{label} spectrum deviates from known values by {dev_known:.3e}",
            )
            check(
                failures, dev_oracle <= 1e-7,
                f"{label} spectrum deviates from the dense oracle by {dev_oracle:.3e}",
            )

        cheeger_failures = 0
        for _ in range(100):
            n = int(rng.integers(4, 51))
            report = cheeger_check(random_connected_graph(rng, n), seed=int(rng.integers(2**31)))
            cheeger_failures += int(not report.bound_holds)
        check(
            failures, cheeger_failures == 0,
            f"sweep-cut conductance bound failed on {cheeger_failures}/100 graphs",
        )

        graph, r = two_clique_graph()
        _, oracle_ids = subset_bruteforce(graph, r, eta=3.5, rho=0.5)
        sub = refine_subgraph(graph, r, eta=3.5, k=4, rho=0.5)
        check(
            failures,
            set(sub.selected) == set(oracle_ids) == {"a0", "a1", "a2", "a3"},
            f"planted clique not recovered exactly: got {sorted(sub.selected)}",
        )

        ratio_rng = np.random.default_rng(42)
        worst_ratio = 0.0
        for _ in range(100):
            worst_ratio = max(worst_ratio, rounding_ratio(*random_rounding_instance(ratio_rng)))
        check(
            failures, worst_ratio <= 2.0 + 1e-9,
            f"sweep objective is {worst_ratio:.3f}x the brute-force optimum (> 2x)",
        )


def test_criterion_3_optimal_transport(capfd):
    rng = np.random.default_rng(3)
    with criterion(3, "optimal transport", capfd, budget_s=30.0) as failures:
        worst_value = 0.0
        worst_marginal = 0.0

        def marginal_violation(plan, p, q) -> float:
            return max(
                float(np.max(np.abs(plan.row_marginals() - p.weights))),
                float(np.max(np.abs(plan.col_marginals() - q.weights))),
            )

        for _ in range(200):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            p = EmpiricalDistribution.uniform(rng.normal(size=(n, d)))
            q = EmpiricalDistribution.uniform(rng.normal(size=(n, d)))
            value, plan = wasserstein2_exact(p, q)
            worst_value = max(worst_value, abs(value - ot_bruteforce(p, q)))
            worst_marginal = max(worst_marginal, marginal_violation(plan, p, q))
        check(
            failures, worst_value <= 1e-9,
            f"exact solver deviates from enumeration by {worst_value:.3e} (> 1e-9)",
        )

        p = EmpiricalDistribution.uniform(np.array([0.0, 1.0]))
        q = EmpiricalDistribution.uniform(np.array([0.0, 2.0]))
        value, plan, converged = wasserstein2_sinkhorn(p, q, epsilon=0.01)
        worst_marginal = max(worst_marginal, marginal_violation(plan, p, q))
        check(failures, converged, "entropic solver did not converge on the benchmark")
        check(
            failures, abs(value - INV_SQRT2) <= 1e-3,
            f"benchmark value {value:.6f} deviates from {INV_SQRT2:.6f} by > 1e-3",
        )

        epsilons = [0.1, 0.05, 0.02, 0.01, 0.005]
        monotone = True
        for _ in range(20):
            n = int(rng.integers(2, 6))
            p = EmpiricalDistribution.uniform(rng.normal(0.0, 1.0, (n, 3)))
            q = EmpiricalDistribution.uniform(rng.normal(0.0, 1.0, (n, 3)))
            exact, _ = wasserstein2_exact(p, q)
            values = []
            for eps in epsilons:
                val, plan, _ = wasserstein2_sinkhorn(p, q, epsilon=eps, max_iter=2500)
                worst_marginal = max(worst_marginal, marginal_violation(plan, p, q))
                values.append(val)
                monotone = monotone and val >= exact - 1e-7
            monotone = monotone and all(
                lo <= hi + 1e-6 for hi, lo in zip(values, values[1:])
            )
            monotone = monotone and abs(values[-1] - exact) <= 5e-3
        check(
            failures, monotone,
            "entropic values do not approach the exact value monotonically",
        )
        check(
            failures, worst_marginal <= 1e-6,
            f"transport-plan marginals deviate by {worst_marginal:.3e} (> 1e-6)",
        )


def planted_gate_corpus(rng, n_queries=10, feat=4, margin=3.0):
    """Linearly separable retrieval corpus: positives and negatives sit on
    opposite sides of a fixed direction with a wide margin."""
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


def test_criterion_4_confidence_gate(capfd):
    rng = np.random.default_rng(4)
    with criterion(4, "confidence gate and relevance filter", capfd, budget_s=20.0) as failures:
        boundary = all(decide(theta, theta) == 1 for theta in [0.0, 0.25, 0.5, 0.69, 1.0])
        check(failures, boundary, "score equal to the threshold must trigger retrieval")

        idempotent = True
        for trial in range(20):
            head = RelevanceHead(6, 3, hidden=8, seed=trial)
            q = Query("q", rng.standard_normal(3), rng.standard_normal(3))
            docs = [
                KnowledgeItem(f"d{j}", "visual", rng.standard_normal(3)) for j in range(12)
            ]
            once = filter_relevant(head, q, docs)
            twice = filter_relevant(head, q, once)
            idempotent = idempotent and [d.id for d in once] == [d.id for d in twice]
        check(failures, idempotent, "relevance filter is not idempotent")

        grad = crm_gradient_case(seed=7)
        check(
            failures, grad.passed and grad.implementation < 1e-4,
            f"contrastive gradient relative error {grad.implementation:.3e} (>= 1e-4)",
        )

        labeled = planted_gate_corpus(np.random.default_rng(0))
        pairs = [(s, False) for s in [0.705, 0.72, 0.8, 0.95]]
        pairs += [(s, True) for s in [0.3, 0.5, 0.67, 0.695]]
        # One batch of all 10 queries: full-batch descent, in query order.
        config = PipelineConfig(
            crm_hidden=16, crm_lr=0.05, crm_epochs=150, crm_batch_size=10, seed=0
        )
        head, theta, _ = train_crm(labeled, pairs, config, 8, 4)
        classified = all(
            [d.id for d in filter_relevant(head, q, pos + neg)] == [d.id for d in pos]
            for q, pos, neg in labeled
        )
        check(failures, classified, "planted corpus not classified at 100%")
        check(
            failures, 0.69 <= theta <= 0.71,
            f"fitted threshold {theta:.3f} outside [0.69, 0.71]",
        )


def memorizable_dataset(num=50, clusters=5, feat=4, dim=6, seed=11) -> GenDataset:
    """Clustered queries whose gold answer repeats the cluster token; small
    enough for the toy generator to memorize."""
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


def test_criterion_5_generation(capfd):
    with criterion(5, "generation losses and training", capfd, budget_s=120.0) as failures:
        uniform = TokenDistributionSequence(np.full((3, 4), 0.25))
        dev = abs(local_loss(uniform, TokenSequence((0, 3, 2), 4)) - THREE_LN_4)
        check(
            failures, dev <= 1e-9,
            f"uniform cross-entropy deviates from 3*ln(4) by {dev:.3e} (> 1e-9)",
        )

        rng = np.random.default_rng(5)
        blend_ok = gen_loss(1.0, 0.0, 0.7) == 0.7
        for _ in range(1000):
            lo = float(rng.uniform(0, 10))
            hi = float(rng.uniform(0, 10))
            a = float(rng.uniform(0.001, 0.999))
            out = gen_loss(lo, hi, a)
            blend_ok = blend_ok and out == a * lo + (1.0 - a) * hi
            blend_ok = blend_ok and min(lo, hi) - 1e-12 <= out <= max(lo, hi) + 1e-12
        check(failures, blend_ok, "blended loss violates the convex-combination bound")

        check(failures, query_dropout_prob(0, 100.0) == 0.5, "dropout schedule p(0) != 0.5")
        dev = abs(query_dropout_prob(100, 100.0) - HALF_OVER_E)
        check(
            failures, dev <= 1e-12,
            f"dropout schedule p(T) deviates from 0.5/e by {dev:.3e} (> 1e-12)",
        )

        q = Query("q", np.array([1.0]), np.array([1.0]))
        masked = 0
        for i in range(10000):
            out = apply_query_dropout(q, 0.3, seed=i)
            masked += int(not out.visual_features.any())
            masked += int(not out.text_features.any())
        rate = masked / 20000
        check(
            failures, abs(rate - 0.3) <= 0.02,
            f"empirical mask rate {rate:.4f} outside 0.3 +/- 0.02",
        )

        ds = memorizable_dataset()
        gen = ToyGenerator(ds.vocab_size, 2 * ds.table.dim)
        trained, trace = train_generation(gen, ds, PipelineConfig(alpha=0.7))
        em = exact_match_rate(trained, ds)
        check(failures, em >= 0.9, f"exact-match rate {em:.2f} below 0.9 after training")
        check(
            failures, trace.local[-1] <= 0.5 * trace.local[0],
            f"token loss reduced only {trace.local[0]:.3f} -> {trace.local[-1]:.3f}",
        )
        check(
            failures, trace.global_w2[-1] <= 0.5 * trace.global_w2[0],
            f"transport loss reduced only {trace.global_w2[0]:.3f} -> {trace.global_w2[-1]:.3f}",
        )


def test_criterion_6_end_to_end_training(capfd):
    with criterion(6, "end-to-end training determinism", capfd, budget_s=None) as failures:
        bundle = synth_bundle(SynthSpec(seed=42))
        config = PipelineConfig(seed=42)

        start = time.perf_counter()
        components, reports = run_training(config, bundle)
        train_s = time.perf_counter() - start
        check(
            failures, train_s < 300.0,
            f"training took {train_s:.0f}s (>= 5 min)",
        )

        check(
            failures, reports[-1].l_total < reports[0].l_total,
            f"total loss did not decrease: {reports[0].l_total:.4f} -> {reports[-1].l_total:.4f}",
        )
        worst_identity = max(
            abs(r.l_total - total_loss(r.l_crm, r.l_geo, r.l_gen, r.beta, r.gamma))
            for r in reports
        )
        check(
            failures, worst_identity <= 1e-9,
            f"weighted-sum identity off by {worst_identity:.3e} (> 1e-9)",
        )

        first = evaluate(components, bundle).canonical_bytes()
        components2, _ = run_training(config, bundle)
        second = evaluate(components2, bundle).canonical_bytes()
        check(failures, first == second, "identical-seed runs produced different reports")


def test_criterion_7_noise_robustness(capfd):
    with criterion(7, "noise robustness and gating", capfd, budget_s=None) as failures:
        spec = SynthSpec(
            num_queries=60, num_items=150, num_clusters=3, graph_size=60,
            noise_frac=0.2, seed=11,
        )
        config = PipelineConfig(
            dim=32, epochs=12, batch_size=16, seed=3, lr=0.01, k=6, crm_hidden=64
        )
        bundle = synth_bundle(spec)
        components, reports = run_training(config, bundle)
        on = evaluate(components, bundle)
        off = evaluate(components.with_crm(False), bundle)
        check(
            failures, on.retrieval_precision >= off.retrieval_precision,
            f"filtered precision {on.retrieval_precision:.3f} below unfiltered "
            f"{off.retrieval_precision:.3f}",
        )
        check(
            failures, on.accuracy >= off.accuracy,
            f"filtered accuracy {on.accuracy:.3f} below unfiltered {off.accuracy:.3f}",
        )
        check(
            failures, 0.0 < reports[-1].delta_rate < 1.0,
            f"gate retrieves for {reports[-1].delta_rate:.2f} of queries; expected a "
            "strict mix of direct and retrieval paths",
        )
