"""Oracle-suite checks: the brute-force oracles against closed forms, and
the production kernels against the oracles."""

import ast
import pathlib

import numpy as np
import pytest

from hyperrag.conformance import (
    OracleResult,
    crm_gradient_case,
    dense_eigs,
    finite_difference_grad,
    generator_gradient_case,
    origin_geometry_case,
    ot_bruteforce,
    random_connected_graph,
    random_rounding_instance,
    rounding_ratio,
    run_all,
    subset_bruteforce,
    two_clique_graph,
)
from hyperrag.errors import ContractViolation, InfeasibleConstraintError
from hyperrag.spectral import laplacian, refine_subgraph, smallest_eigenpairs
from hyperrag.transport import EmpiricalDistribution, wasserstein2_exact

INV_SQRT2 = 0.7071067811865476


class TestOracleResult:
    def test_from_values_computes_pass(self):
        assert OracleResult.from_values("c", 1.0, 1.0 + 1e-10, 1e-9).passed
        assert not OracleResult.from_values("c", 1.0, 1.1, 1e-9).passed

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ContractViolation):
            OracleResult(case="c", oracle=0.0, implementation=1.0, tolerance=0.1, passed=True)

    def test_from_sets(self):
        assert OracleResult.from_sets("c", ("a", "b"), ["b", "a"]).passed
        assert not OracleResult.from_sets("c", ("a",), ("a", "b")).passed

    def test_to_record_round_trips_fields(self):
        res = OracleResult.from_values("c", 2.0, 2.0, 1e-9)
        rec = res.to_record()
        assert rec == {
            "case": "c",
            "oracle": 2.0,
            "implementation": 2.0,
            "tolerance": 1e-9,
            "passed": True,
        }


class TestOtBruteforce:
    def test_two_point_line_instance(self):
        p = EmpiricalDistribution.uniform(np.array([0.0, 1.0]))
        q = EmpiricalDistribution.uniform(np.array([0.0, 2.0]))
        assert ot_bruteforce(p, q) == pytest.approx(INV_SQRT2, abs=1e-12)

    def test_identical_distributions_cost_zero(self, rng):
        pts = rng.standard_normal((4, 3))
        p = EmpiricalDistribution.uniform(pts)
        assert ot_bruteforce(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_solver_on_200_random_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            p = EmpiricalDistribution.uniform(rng.standard_normal((n, d)))
            q = EmpiricalDistribution.uniform(rng.standard_normal((n, d)))
            value, _ = wasserstein2_exact(p, q)
            assert ot_bruteforce(p, q) == pytest.approx(value, abs=1e-9)

    def test_refuses_large_support(self, rng):
        p = EmpiricalDistribution.uniform(rng.standard_normal((9, 2)))
        with pytest.raises(ContractViolation):
            ot_bruteforce(p, p)

    def test_refuses_unequal_sizes(self, rng):
        p = EmpiricalDistribution.uniform(rng.standard_normal((3, 2)))
        q = EmpiricalDistribution.uniform(rng.standard_normal((4, 2)))
        with pytest.raises(ContractViolation):
            ot_bruteforce(p, q)

    def test_refuses_nonuniform_weights(self):
        pts = np.array([[0.0], [1.0]])
        p = EmpiricalDistribution(pts, np.array([0.3, 0.7]))
        q = EmpiricalDistribution.uniform(pts)
        with pytest.raises(ContractViolation):
            ot_bruteforce(p, q)


class TestSubsetBruteforce:
    def test_two_clique_planted_recovers_clique_a(self):
        graph, r = two_clique_graph()
        obj, ids = subset_bruteforce(graph, r, eta=3.5, rho=0.5)
        assert ids == ("a0", "a1", "a2", "a3")
        # Relevance is constant inside the clique; only the bridge is cut.
        assert obj == pytest.approx(0.5, abs=1e-12)

    def test_refine_matches_oracle_on_planted(self):
        graph, r = two_clique_graph()
        obj, ids = subset_bruteforce(graph, r, eta=3.5, rho=0.5)
        sub = refine_subgraph(graph, r, eta=3.5, k=4, rho=0.5)
        assert sub.selected == ids
        assert sub.objective == pytest.approx(obj, abs=1e-12)

    def test_infeasible_eta_matches_refine_error(self):
        graph, r = two_clique_graph()
        eta = float(r.sum()) + 1.0
        with pytest.raises(InfeasibleConstraintError):
            subset_bruteforce(graph, r, eta, rho=0.5)
        with pytest.raises(InfeasibleConstraintError):
            refine_subgraph(graph, r, eta=eta, k=4, rho=0.5)

    def test_refuses_large_graphs(self, rng):
        graph = random_connected_graph(rng, 13)
        with pytest.raises(ContractViolation):
            subset_bruteforce(graph, np.ones(13), eta=1.0, rho=1.0)

    def test_refine_within_two_of_optimum_on_random_family(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            assert rounding_ratio(*random_rounding_instance(rng)) <= 2.0 + 1e-9

    def test_refine_never_beats_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            graph, r, eta = random_rounding_instance(rng)
            opt, _ = subset_bruteforce(graph, r, eta, 1.0)
            sub = refine_subgraph(graph, r, eta=eta, k=min(4, graph.size), rho=1.0)
            assert sub.objective >= opt - 1e-9


class TestDenseEigs:
    def test_path3_spectrum(self):
        run = [r for r in run_all(case_filter="path3") if "path3" in r.case]
        assert run and all(r.passed for r in run)

    def test_path3_values_direct(self):
        from hyperrag.conformance import _path_graph

        vals = dense_eigs(laplacian(_path_graph(3)))
        assert vals == pytest.approx([0.0, 1.0, 3.0], abs=1e-7)

    def test_complete4_values_direct(self):
        from hyperrag.conformance import _complete_graph

        vals = dense_eigs(laplacian(_complete_graph(4)))
        assert vals == pytest.approx([0.0, 4.0, 4.0, 4.0], abs=1e-7)

    def test_refuses_large_matrices(self):
        with pytest.raises(ContractViolation):
            dense_eigs(np.eye(65))

    def test_refuses_nonsquare(self):
        with pytest.raises(ContractViolation):
            dense_eigs(np.ones((3, 4)))

    def test_matches_iterative_solver_on_random_graphs(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 24))
            graph = random_connected_graph(rng, n)
            mat = laplacian(graph)
            full = dense_eigs(mat)
            k = min(4, n)
            vals, _ = smallest_eigenpairs(mat, k, dense_cutoff=0, seed=3)
            assert vals == pytest.approx(full[:k], abs=1e-7)


class TestFiniteDifferenceGrad:
    def test_quadratic_is_exact(self, rng):
        coeffs = rng.standard_normal(6)
        point = rng.standard_normal(6)
        grad = finite_difference_grad(lambda p: float(0.5 * np.sum(coeffs * p**2)), point)
        assert grad == pytest.approx(coeffs * point, abs=1e-9)

    def test_nonfinite_reported_per_coordinate(self):
        def f(p):
            return float("nan") if p[1] > 0.5 else float(p[0] + p[1])

        grad = finite_difference_grad(f, np.array([0.0, 0.5]))
        assert grad[0] == pytest.approx(1.0, abs=1e-9)
        assert np.isnan(grad[1])

    def test_crm_head_gradient_case(self):
        res = crm_gradient_case(seed=7)
        assert res.passed
        assert res.implementation < 1e-4

    def test_generator_gradient_case(self):
        res = generator_gradient_case(seed=9)
        assert res.passed
        assert res.implementation < 1e-3

    @pytest.mark.parametrize("seed", [0, 11, 12345])
    def test_origin_geometry_case(self, seed):
        res = origin_geometry_case(seed=seed)
        assert res.case == "geometry/origin-rows-bitwise"
        assert res.passed and res.implementation == 0


@pytest.fixture(scope="module")
def results():
    return run_all(seed=0)


class TestRunAll:
    def test_all_cases_pass(self, results):
        assert len(results) == 11
        assert all(res.passed for res in results)

    def test_filter_narrows_cases(self):
        filtered = run_all(seed=0, case_filter="transport")
        assert filtered
        assert all("transport" in res.case for res in filtered)

    def test_deterministic_per_seed(self, results):
        again = run_all(seed=0)
        assert [r.to_record() for r in again] == [r.to_record() for r in results]


class TestIsolationFromProduction:
    def test_production_modules_never_import_the_suite(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "hyperrag"
        for path in sorted(src.glob("*.py")):
            if path.name in ("conformance.py", "cli.py"):
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name for alias in node.names]
                assert not any(
                    "conformance" in name for name in names
                ), f"{path.name} imports the oracle suite"
