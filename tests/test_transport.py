"""Exact and entropic optimal transport solvers."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hyperrag import transport
from hyperrag.errors import ContractViolation, NumericalError
from hyperrag.transport import (
    DistributionStack,
    EmpiricalDistribution,
    TransportPlan,
    entropic_terms,
    sinkhorn_potentials,
    squared_cost_matrix,
    wasserstein2_exact,
    wasserstein2_sinkhorn,
)

INV_SQRT2 = 0.7071067811865476


def one_entropic_terms(p_weights, q, support, *args, **kwargs):
    """``entropic_terms`` on a stack of one row."""
    [terms] = entropic_terms(np.asarray(p_weights)[None], DistributionStack((q,)), support, *args, **kwargs)
    return terms


def uniform_cloud(rng, n, d=3, spread=2.0):
    return EmpiricalDistribution.uniform(rng.normal(0.0, spread, (n, d)))


def permutation_bruteforce(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Exhaustive assignment search for uniform equal-size marginals."""
    assert p.size == q.size
    n = p.size
    cost = squared_cost_matrix(p, q)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n)) / n
        best = min(best, total)
    return math.sqrt(best)


class TestEmpiricalDistribution:
    def test_weight_sum_enforced(self):
        with pytest.raises(ContractViolation):
            EmpiricalDistribution(np.zeros((2, 1)), np.array([0.6, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractViolation):
            EmpiricalDistribution(np.zeros((2, 1)), np.array([1.5, -0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            EmpiricalDistribution(np.zeros((2, 1)), np.array([1.0]))

    def test_1d_support_promoted(self):
        dist = EmpiricalDistribution.uniform(np.array([0.0, 1.0]))
        assert dist.support.shape == (2, 1)
        assert dist.weights.tolist() == [0.5, 0.5]


class TestExactSolver:
    def test_identical_distributions(self, rng):
        p = uniform_cloud(rng, 5)
        value, plan = wasserstein2_exact(p, p)
        assert value == pytest.approx(0.0, abs=1e-9)
        # Optimal plan keeps all mass on the diagonal.
        assert np.allclose(plan.coupling, np.diag(p.weights), atol=1e-8)

    def test_point_masses(self):
        p = EmpiricalDistribution(np.array([[0.0, 0.0]]), np.array([1.0]))
        q = EmpiricalDistribution(np.array([[3.0, 4.0]]), np.array([1.0]))
        value, plan = wasserstein2_exact(p, q)
        assert value == pytest.approx(5.0, rel=1e-12)
        assert plan.coupling.shape == (1, 1)

    def test_two_point_line_instance(self):
        # Uniform on {0, 1} vs uniform on {0, 2}: the identity-ish
        # assignment costs (0 + 1)/2, the swap costs (4 + 1)/2.
        p = EmpiricalDistribution.uniform(np.array([0.0, 1.0]))
        q = EmpiricalDistribution.uniform(np.array([0.0, 2.0]))
        value, _ = wasserstein2_exact(p, q)
        assert value == pytest.approx(INV_SQRT2, abs=1e-9)
        assert value == pytest.approx(permutation_bruteforce(p, q), abs=1e-12)

    def test_matches_permutation_bruteforce(self, rng):
        for trial in range(30):
            n = int(rng.integers(2, 6))
            p = uniform_cloud(rng, n)
            q = uniform_cloud(rng, n)
            value, _ = wasserstein2_exact(p, q)
            assert value == pytest.approx(permutation_bruteforce(p, q), abs=1e-9)

    def test_marginals_exact(self, rng):
        p = EmpiricalDistribution(rng.normal(size=(4, 2)), np.array([0.4, 0.3, 0.2, 0.1]))
        q = EmpiricalDistribution(rng.normal(size=(3, 2)), np.array([0.5, 0.25, 0.25]))
        _, plan = wasserstein2_exact(p, q)
        assert np.max(np.abs(plan.row_marginals() - p.weights)) <= 1e-6
        assert np.max(np.abs(plan.col_marginals() - q.weights)) <= 1e-6

    def test_support_budget(self, rng):
        p = uniform_cloud(rng, 40)
        q = uniform_cloud(rng, 40)
        with pytest.raises(ContractViolation, match="sinkhorn"):
            wasserstein2_exact(p, q)

    def test_metric_properties(self, rng):
        for _ in range(10):
            a = uniform_cloud(rng, 3)
            b = uniform_cloud(rng, 3)
            c = uniform_cloud(rng, 3)
            ab, _ = wasserstein2_exact(a, b)
            ba, _ = wasserstein2_exact(b, a)
            ac, _ = wasserstein2_exact(a, c)
            cb, _ = wasserstein2_exact(c, b)
            aa, _ = wasserstein2_exact(a, a)
            assert ab == pytest.approx(ba, abs=1e-9)
            assert ab >= 0.0
            assert aa <= 1e-8
            assert ab <= ac + cb + 1e-7

    def test_dimension_mismatch(self, rng):
        p = uniform_cloud(rng, 2, d=2)
        q = uniform_cloud(rng, 2, d=3)
        with pytest.raises(ContractViolation):
            wasserstein2_exact(p, q)


class TestSinkhorn:
    def test_line_instance_near_exact(self):
        p = EmpiricalDistribution.uniform(np.array([0.0, 1.0]))
        q = EmpiricalDistribution.uniform(np.array([0.0, 2.0]))
        value, plan, converged = wasserstein2_sinkhorn(p, q, epsilon=0.01)
        assert converged
        assert value == pytest.approx(INV_SQRT2, abs=1e-3)
        assert np.max(np.abs(plan.row_marginals() - p.weights)) <= 1e-6
        assert np.max(np.abs(plan.col_marginals() - q.weights)) <= 1e-6

    def test_epsilon_sweep_monotone(self, rng):
        epsilons = [0.1, 0.05, 0.02, 0.01, 0.005]
        for trial in range(20):
            n = int(rng.integers(2, 6))
            p = uniform_cloud(rng, n, spread=1.0)
            q = uniform_cloud(rng, n, spread=1.0)
            exact, _ = wasserstein2_exact(p, q)
            values = []
            for eps in epsilons:
                val, _, _ = wasserstein2_sinkhorn(p, q, epsilon=eps, max_iter=2500)
                values.append(val)
                assert val >= exact - 1e-7
            for hi, lo in zip(values, values[1:]):
                assert lo <= hi + 1e-6
            assert values[-1] == pytest.approx(exact, abs=5e-3)

    def test_identity_case(self, rng):
        p = uniform_cloud(rng, 4)
        value, plan, converged = wasserstein2_sinkhorn(p, p, epsilon=0.05)
        assert converged
        assert value <= 0.05 * math.log(p.size) + 1e-6
        assert np.max(np.abs(plan.row_marginals() - p.weights)) <= 1e-6

    def test_zero_weight_atom_handled(self):
        p = EmpiricalDistribution(np.array([[0.0], [5.0]]), np.array([1.0, 0.0]))
        q = EmpiricalDistribution(np.array([[1.0]]), np.array([1.0]))
        value, plan, converged = wasserstein2_sinkhorn(p, q, epsilon=0.05)
        assert converged
        assert value == pytest.approx(1.0, abs=1e-6)
        assert plan.coupling[1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_nonconvergence_flagged(self, rng):
        p = uniform_cloud(rng, 6)
        q = uniform_cloud(rng, 6)
        _, _, converged = wasserstein2_sinkhorn(p, q, epsilon=0.001, max_iter=2)
        assert not converged

    def test_invalid_epsilon(self, rng):
        p = uniform_cloud(rng, 2)
        with pytest.raises(ContractViolation):
            wasserstein2_sinkhorn(p, p, epsilon=0.0)


class TestEnvelopeGradient:
    def test_matches_finite_differences(self, rng):
        vocab = rng.normal(size=(6, 3))
        q = EmpiricalDistribution.uniform(rng.normal(size=(4, 3)))
        logits = rng.normal(size=6)
        p_w = np.exp(logits) / np.exp(logits).sum()
        value, grad, _ = one_entropic_terms(p_w, q, vocab, epsilon=0.05)
        assert value >= -1e-9
        h = 1e-6
        for _ in range(4):
            d = rng.normal(size=6)
            d -= d.mean()
            d /= np.linalg.norm(d)
            vp, _, _ = one_entropic_terms(p_w + h * d, q, vocab, epsilon=0.05)
            vm, _, _ = one_entropic_terms(p_w - h * d, q, vocab, epsilon=0.05)
            fd = (vp - vm) / (2 * h)
            assert fd == pytest.approx(float(grad @ d), rel=1e-3, abs=1e-6)

    def test_gradient_descends(self, rng):
        # Moving predicted mass toward the target support must lower the
        # objective along the negative gradient.
        vocab = np.array([[0.0], [1.0], [2.0]])
        q = EmpiricalDistribution(np.array([[2.0]]), np.array([1.0]))
        p_w = np.array([0.6, 0.3, 0.1])
        value, grad, _ = one_entropic_terms(p_w, q, vocab, epsilon=0.05)
        step = p_w - 0.05 * (grad - grad.mean())
        step = np.maximum(step, 1e-9)
        step /= step.sum()
        new_value, _, _ = one_entropic_terms(step, q, vocab, epsilon=0.05)
        assert new_value < value


def old_potentials(p, q, epsilon, max_iter):
    """``sinkhorn_potentials`` as it was before the shared plan helpers.
    Its reductions are scipy's ``logsumexp``, which ``TestLogSumExp`` shows
    ``transport._logsumexp`` matches bit for bit, so this reference does not
    move with the production reduction."""
    cost = squared_cost_matrix(p, q)
    pw, qw = p.weights, q.weights
    with np.errstate(divide="ignore"):
        log_p = np.where(pw > 0, np.log(np.where(pw > 0, pw, 1.0)), -np.inf)
        log_q = np.where(qw > 0, np.log(np.where(qw > 0, qw, 1.0)), -np.inf)
    f, g = np.zeros(p.size), np.zeros(q.size)
    scale = max(float(cost.max(initial=0.0)), epsilon)
    ladder = [epsilon]
    eps_up = epsilon
    while eps_up < scale / 10.0:
        eps_up *= 2.0
        ladder.append(eps_up)
    ladder.reverse()
    iters_used, converged, violation = 0, False, math.inf
    for stage, eps in enumerate(ladder):
        last_stage = stage == len(ladder) - 1
        while iters_used < max_iter:
            f = -eps * scipy.special.logsumexp((g[None, :] - cost) / eps + log_q[None, :], axis=1)
            g = -eps * scipy.special.logsumexp((f[:, None] - cost) / eps + log_p[:, None], axis=0)
            iters_used += 1
            log_pi = (f[:, None] + g[None, :] - cost) / eps + log_p[:, None] + log_q[None, :]
            rows = np.exp(scipy.special.logsumexp(log_pi, axis=1))
            violation = float(np.max(np.abs(rows - pw)))
            if violation < transport.SINKHORN_TARGET:
                break
            if not last_stage and violation < 1e-3:
                break
        if last_stage:
            converged = violation < transport.SINKHORN_TARGET
    return f, g, converged, violation


def old_entropic_plan(p, q, epsilon, f, g):
    cost = squared_cost_matrix(p, q)
    with np.errstate(divide="ignore"):
        log_p = np.where(p.weights > 0, np.log(np.where(p.weights > 0, p.weights, 1.0)), -np.inf)
        log_q = np.where(q.weights > 0, np.log(np.where(q.weights > 0, q.weights, 1.0)), -np.inf)
    log_pi = (f[:, None] + g[None, :] - cost) / epsilon + log_p[:, None] + log_q[None, :]
    log_pi = log_pi - scipy.special.logsumexp(log_pi)
    return np.exp(log_pi)


def old_wasserstein2_sinkhorn(p, q, epsilon, max_iter):
    """The solve that built the cost matrix three times."""
    f, g, converged, _ = old_potentials(p, q, epsilon, max_iter)
    raw = old_entropic_plan(p, q, epsilon, f, g)
    plan = TransportPlan(transport._round_to_marginals(raw, p.weights, q.weights))
    plan.check_marginals(p, q)
    cost = squared_cost_matrix(p, q)
    return transport._sqrt_cost(plan.coupling, cost), plan, converged


def old_entropic_terms(p_weights, q, support, epsilon, max_iter):
    p = EmpiricalDistribution(support, p_weights)
    f, g, _, _ = old_potentials(p, q, epsilon, max_iter)
    value = float(f @ p.weights + g @ q.weights)
    grad = f - float(np.mean(f))
    raw = old_entropic_plan(p, q, epsilon, f, g)
    plan = transport._round_to_marginals(raw, p.weights, q.weights)
    return value, grad, transport._sqrt_cost(plan, squared_cost_matrix(p, q))


def weights_with_zeros(rng, n, zeros):
    """A random probability vector of length n with ``zeros`` zero entries
    (at least one entry stays positive)."""
    w = rng.random(n) + 0.05
    w[rng.permutation(n)[: min(zeros, n - 1)]] = 0.0
    return w / w.sum()


class TestOnePlanHelper:
    """The shared ``_log_weights``/``_log_plan``/``_rounded_plan`` path
    gives the bits of the old path, which built the cost matrix and the
    log-weights again for the plan and for the reported cost."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab=st.integers(1, 9),
        gold_atoms=st.one_of(st.just(1), st.integers(1, 4)),
        zeros=st.tuples(st.integers(0, 3), st.integers(0, 2)),
        epsilon=st.sampled_from([0.005, 0.05]),
        max_iter=st.one_of(st.integers(1, 5), st.just(2000)),
    )
    def test_bit_identical_to_three_build_path(
        self, seed, vocab, gold_atoms, zeros, epsilon, max_iter
    ):
        rng = np.random.default_rng(seed)
        tokens = rng.normal(0.0, 1.5, size=(vocab, 3))
        p_w = weights_with_zeros(rng, vocab, zeros[0])
        gold = rng.normal(0.0, 1.5, size=(gold_atoms, 3))
        q = EmpiricalDistribution(gold, weights_with_zeros(rng, gold_atoms, zeros[1]))

        value, grad, cost = one_entropic_terms(p_w, q, tokens, epsilon, max_iter)
        want_value, want_grad, want_cost = old_entropic_terms(p_w, q, tokens, epsilon, max_iter)
        assert value == want_value and cost == want_cost
        assert np.array_equal(grad, want_grad)

        p = EmpiricalDistribution(tokens, p_w)
        value, plan, converged = wasserstein2_sinkhorn(p, q, epsilon, max_iter)
        want_value, want_plan, want_converged = old_wasserstein2_sinkhorn(p, q, epsilon, max_iter)
        assert value == want_value and converged == want_converged
        assert np.array_equal(plan.coupling, want_plan.coupling)
        assert sinkhorn_potentials(p, q, epsilon, max_iter)[2:] == old_potentials(
            p, q, epsilon, max_iter
        )[2:]

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-310])
    def test_tiny_epsilon_raises_without_warnings(self, epsilon):
        # The scaled costs overflow once the ladder reaches epsilon.
        p = EmpiricalDistribution.uniform(np.array([[0.0], [1.0], [2.5]]))
        q = EmpiricalDistribution.uniform(np.array([[2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"epsilon {epsilon}"):
                sinkhorn_potentials(p, q, epsilon)


PROBLEM = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "zeros": st.tuples(st.integers(0, 3), st.integers(0, 2)),
        "spread": st.sampled_from([0.3, 1.5, 4.0]),
    }
)


class TestLockStepSolver:
    """Stacked problems solved in lock step give, row for row, the bits of
    solving each one alone with ``old_potentials``."""

    @staticmethod
    def problems(vocab, gold_atoms, rows):
        """One support of ``vocab`` tokens; per row its p weights and a gold
        distribution of ``gold_atoms`` atoms.  Rows draw their own scales,
        so their annealing ladders differ in length."""
        out = []
        tokens = np.random.default_rng(rows[0]["seed"]).normal(0.0, 1.5, size=(vocab, 3))
        for row in rows:
            rng = np.random.default_rng(row["seed"])
            gold = rng.normal(0.0, row["spread"], size=(gold_atoms, 3))
            q = EmpiricalDistribution(gold, weights_with_zeros(rng, gold_atoms, row["zeros"][1]))
            out.append((weights_with_zeros(rng, vocab, row["zeros"][0]), q))
        return tokens, out

    @settings(max_examples=100, deadline=None)
    @given(
        vocab=st.integers(1, 9),
        gold_atoms=st.integers(1, 4),
        rows=st.lists(PROBLEM, min_size=1, max_size=6),
        epsilon=st.sampled_from([0.005, 0.05]),
        max_iter=st.one_of(st.integers(1, 5), st.just(2000)),
    )
    def test_rows_match_one_at_a_time(self, vocab, gold_atoms, rows, epsilon, max_iter):
        tokens, problems = self.problems(vocab, gold_atoms, rows)
        ps = [EmpiricalDistribution(tokens, p_w) for p_w, _ in problems]
        cost = np.stack([squared_cost_matrix(p, q) for p, (_, q) in zip(ps, problems)])
        f, g, converged, violation = transport._sinkhorn_rows(
            cost,
            np.stack([p.weights for p in ps]),
            np.stack([q.weights for _, q in problems]),
            epsilon,
            max_iter,
        )
        for b, (p, (_, q)) in enumerate(zip(ps, problems)):
            f_ref, g_ref, conv_ref, viol_ref = old_potentials(p, q, epsilon, max_iter)
            assert np.array_equal(f[b], f_ref) and np.array_equal(g[b], g_ref)
            assert converged[b] == conv_ref and violation[b] == viol_ref

        stack = DistributionStack(tuple(q for _, q in problems))
        batched = entropic_terms(np.stack([p_w for p_w, _ in problems]), stack, tokens, epsilon, max_iter)
        assert len(batched) == len(problems)
        for (value, grad, sqrt_cost), (p_w, q) in zip(batched, problems):
            want_value, want_grad, want_cost = old_entropic_terms(p_w, q, tokens, epsilon, max_iter)
            assert value == want_value and sqrt_cost == want_cost
            assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("n_p, n_q", [(2, 1), (1, 2)])
    def test_row_count_mismatch_is_a_contract_violation(self, n_p, n_q):
        tokens = np.array([[0.0], [1.0]])
        gold = DistributionStack((EmpiricalDistribution(np.array([[1.0]]), np.array([1.0])),) * n_q)
        with pytest.raises(ContractViolation, match=f"{n_p} p_weights rows against {n_q} gold"):
            entropic_terms(np.full((n_p, 2), 0.5), gold, tokens, 0.1)

    def test_one_row_overflowing_raises_without_warnings(self):
        # The first row's cost is 0; the second's overflows once scaled.
        tokens = np.array([[2.0]])
        at_token = EmpiricalDistribution(np.array([[2.0]]), np.array([1.0]))
        away = EmpiricalDistribution(np.array([[0.0]]), np.array([1.0]))
        p_rows = np.ones((2, 1))
        [(value, _, cost)] = entropic_terms(p_rows[:1], DistributionStack((at_token,)), tokens, 5e-324)
        assert value == cost == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="epsilon 5e-324"):
                entropic_terms(p_rows, DistributionStack((at_token, away)), tokens, 5e-324)

    # Vocabularies of 7 and 8 tokens, on either side of the size from which
    # a one-atom row's column is summed apart, are drawn more often.
    @settings(max_examples=100, deadline=None)
    @given(
        vocab=st.one_of(st.sampled_from([7, 8]), st.integers(1, 10)),
        rows=st.lists(st.tuples(PROBLEM, st.integers(1, 4)), min_size=1, max_size=6),
        epsilon=st.floats(1e-3, 1.0),
        max_iter=st.one_of(st.integers(1, 5), st.just(2000)),
    )
    # 8 tokens: a one-atom row whose column, summed in order, differs.
    @example(
        vocab=8,
        rows=[({"seed": 2, "zeros": (0, 0), "spread": 1.5}, 2),
              ({"seed": 1002, "zeros": (0, 0), "spread": 1.5}, 1)],
        epsilon=0.05,
        max_iter=2000,
    )
    def test_mixed_sizes_match_each_row_alone(self, vocab, rows, epsilon, max_iter):
        """Rows of 1 to 4 atoms, padded to the widest, give the bits of
        solving each row alone (a vocabulary of 8 or more tokens sums a
        one-atom row's column in another order unless it is summed apart;
        below 8 both orders are the same)."""
        tokens, problems = self.mixed_problems(vocab, rows)
        stack = DistributionStack(tuple(q for _, q in problems))
        assert stack.size == max(q.size for _, q in problems)
        p_rows = np.stack([p_w for p_w, _ in problems])
        batched = entropic_terms(p_rows, stack, tokens, epsilon, max_iter)
        assert len(batched) == len(problems)
        for (value, grad, sqrt_cost), (p_w, q) in zip(batched, problems):
            want_value, want_grad, want_cost = one_entropic_terms(p_w, q, tokens, epsilon, max_iter)
            assert value == want_value and sqrt_cost == want_cost
            assert np.array_equal(grad, want_grad)

    @settings(max_examples=40, deadline=None)
    @given(
        vocab=st.integers(1, 10),
        rows=st.lists(st.tuples(PROBLEM, st.integers(1, 4)), min_size=1, max_size=6),
        at_token=st.lists(st.booleans(), min_size=6, max_size=6),
        max_iter=st.one_of(st.integers(1, 5), st.just(2000)),
    )
    def test_mixed_sizes_overflow_when_a_row_alone_does(self, vocab, rows, at_token, max_iter):
        # A row whose atoms all sit on the first token point has zero cost
        # when the vocabulary is that one token, so its solve stays finite.
        tokens, problems = self.mixed_problems(vocab, rows)
        problems = [
            (p_w, EmpiricalDistribution(np.repeat(tokens[:1], q.size, axis=0), q.weights))
            if on else (p_w, q)
            for (p_w, q), on in zip(problems, at_token)
        ]

        def overflows(chosen):
            stack = DistributionStack(tuple(q for _, q in chosen))
            try:
                with warnings.catch_warnings():
                    # The plan rounding of a row that stopped early may warn.
                    warnings.simplefilter("ignore", RuntimeWarning)
                    entropic_terms(np.stack([p_w for p_w, _ in chosen]), stack, tokens, 5e-324,
                                   max_iter)
            except NumericalError:
                return True
            return False

        assert overflows(problems) == any(overflows([row]) for row in problems)

    @staticmethod
    def mixed_problems(vocab, rows):
        """As ``problems``, with each row's own atom count."""
        tokens = np.random.default_rng(rows[0][0]["seed"]).normal(0.0, 1.5, size=(vocab, 3))
        out = []
        for row, gold_atoms in rows:
            rng = np.random.default_rng(row["seed"])
            gold = rng.normal(0.0, row["spread"], size=(gold_atoms, 3))
            q = EmpiricalDistribution(gold, weights_with_zeros(rng, gold_atoms, row["zeros"][1]))
            out.append((weights_with_zeros(rng, vocab, row["zeros"][0]), q))
        return tokens, out

    GOLD_1D = EmpiricalDistribution(np.array([[1.0]]), np.array([1.0]))
    GOLD_2D = EmpiricalDistribution(np.array([[1.0, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "support, p_rows, gold",
        [
            ([[np.nan], [1.0]], [[0.7, 0.7], [0.5, 0.5]], [GOLD_2D, GOLD_1D]),
            ([[0.0], [1.0]], [[0.5, 0.5], [-0.5, 1.5]], [GOLD_2D, GOLD_1D]),
            ([[0.0], [1.0]], [[0.7, 0.7], [-0.5, 1.5]], [GOLD_1D, GOLD_1D]),
            ([[0.0], [1.0]], [[0.5, 0.5], [0.2, 0.3, 0.5]], [GOLD_1D, GOLD_1D]),
            ([[0.0], [1.0]], [[0.5, 0.5], [0.5, 0.5]], [GOLD_1D, GOLD_2D]),
        ],
        ids=["support", "weights-before-costs", "first-row-first", "shape", "dimensions"],
    )
    def test_errors_are_the_per_row_checks_in_order(self, support, p_rows, gold):
        """The support is checked once, yet the first error is the one that
        building each row's distribution, then its costs, raises first."""
        with pytest.raises(ContractViolation) as want:
            ps = [EmpiricalDistribution(np.array(support), np.array(w)) for w in p_rows]
            for p, q in zip(ps, gold):
                squared_cost_matrix(p, q)
        with pytest.raises(ContractViolation) as got:
            entropic_terms([np.array(w) for w in p_rows], DistributionStack(tuple(gold)),
                           np.array(support), 0.1)
        assert str(got.value) == str(want.value)

    def test_stack_needs_a_row_and_reports_the_widest(self):
        one = EmpiricalDistribution.uniform(np.array([[0.0]]))
        two = EmpiricalDistribution.uniform(np.array([[0.0], [1.0]]))
        assert DistributionStack((two, two)).size == 2
        assert DistributionStack((one, two)).size == 2
        with pytest.raises(ContractViolation):
            DistributionStack(())


# Few distinct values, so maxima tie often; infinities of both signs; and
# values close together, whose exp terms are alike in size, so that a sum
# in another order differs in its last bits.
LSE_ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf, -math.inf]),
    st.floats(-800.0, 800.0),
    st.floats(-3.0, 3.0),
)


class TestLogSumExp:
    """transport._logsumexp keeps scipy.special.logsumexp's arithmetic, so
    Sinkhorn outputs (and the pinned training digests) keep their bits."""

    # 2-D matrices and 3-D stacks whose last axis is 1 to 9 wide: the
    # column chains below 8 columns and numpy's reduce from 8 are both
    # compared, as are the whole-axis maxima and counts of other axes.
    @settings(max_examples=400, deadline=None)
    @given(
        arrays(
            np.float64,
            st.one_of(
                st.tuples(st.integers(1, 8), st.integers(1, 9)),
                st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 9)),
            ),
            elements=LSE_ELEMENTS,
        ),
        st.sampled_from([0, 1, -1, None]),
        st.booleans(),
    )
    def test_bit_identical_to_scipy(self, a, axis, keepdims):
        expected = np.asarray(scipy.special.logsumexp(a, axis=axis, keepdims=keepdims))
        got = np.asarray(transport._logsumexp(a, axis=axis, keepdims=keepdims))
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize(
        "gold",
        [[3], [1, 4], [0, 1, 2, 3, 4, 5, 6, 1, 2]],
        ids=["one-atom", "two-atom", "nine-atom"],
    )
    def test_solver_outputs_unchanged_against_scipy(self, rng, monkeypatch, gold):
        # Several draws: a formula that differs only in the last bits
        # leaves some solves unchanged.
        problems = []
        for _ in range(4):
            tokens = rng.normal(0.0, 2.0, size=(7, 4))
            logits = rng.normal(size=7)
            p_w = np.exp(logits) / np.exp(logits).sum()
            problems.append((tokens, p_w))

        def solve_all():
            out = []
            for tokens, p_w in problems:
                p = EmpiricalDistribution(tokens, p_w)
                q = EmpiricalDistribution.uniform(tokens[gold])
                out.append(
                    (
                        sinkhorn_potentials(p, q, epsilon=0.01),
                        one_entropic_terms(p_w, q, tokens, epsilon=0.01),
                    )
                )
            return out

        ours = solve_all()
        monkeypatch.setattr(transport, "_logsumexp", scipy.special.logsumexp)

        def own_reduction(*args, **kwargs):
            raise AssertionError("a solver reduction bypassed _logsumexp")

        # With scipy in its place, no reduction may reach the helper behind it.
        monkeypatch.setattr(transport, "_reduce", own_reduction)
        for ((f, g, conv, viol), (value, grad, cost)), (
            (f_ref, g_ref, conv_ref, viol_ref),
            (value_ref, grad_ref, cost_ref),
        ) in zip(ours, solve_all()):
            assert np.array_equal(f, f_ref) and np.array_equal(g, g_ref)
            assert (conv, viol) == (conv_ref, viol_ref)
            assert (value, cost) == (value_ref, cost_ref)
            assert np.array_equal(grad, grad_ref)


class TestTransportPlanType:
    def test_negative_entries_rejected(self):
        with pytest.raises(ContractViolation):
            TransportPlan(np.array([[0.5, -0.5], [0.0, 1.0]]))

    def test_tiny_negative_clamped(self):
        plan = TransportPlan(np.array([[0.5, -1e-15], [0.0, 0.5]]))
        assert plan.coupling.min() >= 0.0

    def test_rounding_a_subnormal_row_raises_no_warning(self):
        # p / row overflows to inf for the subnormal first row; the cap at 1
        # keeps that row as it is, and the residual patch fills it.
        coupling = np.array([[1e-320, 0.0], [0.25, 0.25]])
        half = np.array([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rounded = transport._round_to_marginals(coupling, half, half)
        assert np.array_equal(rounded, np.full((2, 2), 0.25))
