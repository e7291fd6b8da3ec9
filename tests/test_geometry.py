import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hyperrag.errors import ContractViolation, DivergenceError, InvalidPointError
from hyperrag.geometry import (
    LorentzPoint,
    TangentVector,
    _sinh_from_excess,
    acosh_from_excess,
    acosh_stable_array,
    distance_spatial_grad,
    distances_to_rows,
    exp_map,
    geodesic_distance,
    log_map,
    lorentz_inner,
    origin,
    origin_exp_rows,
    origin_log_rows,
    project_rows,
    project_to_hyperboloid,
    riemannian_gradient,
    rsgd_step,
)

from conftest import random_lorentz, raw_point

# arccosh(sqrt(2)): distance from the origin to the lift of a unit spatial
# vector, computed as log(sqrt(2) + 1) by hand.
ACOSH_SQRT2 = 0.881373587019543
# arccosh(3): distance between the lifts of +e1 and -e1; equals twice
# ACOSH_SQRT2 because the origin lies on the connecting geodesic.
ACOSH_3 = 1.762747174039086


class TestLorentzInner:
    def test_signature(self):
        assert lorentz_inner([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1.0
        assert lorentz_inner([0.0, 1.0, 2.0], [0.0, 3.0, 4.0]) == 11.0

    def test_symmetry_and_bilinearity(self, rng):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        z = rng.standard_normal(5)
        assert_allclose(lorentz_inner(x, y), lorentz_inner(y, x), rtol=1e-15)
        assert_allclose(
            lorentz_inner(2.0 * x + z, y),
            2.0 * lorentz_inner(x, y) + lorentz_inner(z, y),
            rtol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            lorentz_inner([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_too_short(self):
        with pytest.raises(ContractViolation):
            lorentz_inner([1.0], [1.0])


class TestLorentzPoint:
    def test_valid_point(self):
        p = LorentzPoint(np.array([math.sqrt(2.0), 1.0, 0.0]))
        assert p.dim == 2
        assert_allclose(p.space, [1.0, 0.0])

    def test_constraint_enforced(self):
        with pytest.raises(InvalidPointError):
            LorentzPoint(np.array([1.0, 1.0]))

    def test_small_violation_rejected(self):
        with pytest.raises(InvalidPointError):
            LorentzPoint(np.array([1.0 + 1e-7, 0.0, 0.0]))

    def test_lower_sheet_rejected(self):
        with pytest.raises(InvalidPointError):
            LorentzPoint(np.array([-1.0, 0.0, 0.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidPointError):
            LorentzPoint(np.array([np.inf, 0.0, 0.0]))

    def test_coords_read_only(self):
        p = origin(3)
        with pytest.raises(ValueError):
            p.coords[0] = 2.0

    def test_far_points_accepted(self, rng):
        # x0 ~ cosh(20) ~ 2.4e8: the scaled tolerance must absorb the
        # cancellation in <x,x>_L at this range.
        p = project_to_hyperboloid(math.sinh(20.0) * np.array([0.6, 0.8]))
        assert p.coords[0] > 1e8


class TestProjection:
    def test_preserves_spatial_part(self, rng):
        v = rng.standard_normal(7)
        p = project_to_hyperboloid(v)
        assert_allclose(p.space, v, rtol=0, atol=0)
        assert_allclose(lorentz_inner(p.coords, p.coords), -1.0, atol=1e-12)

    def test_zero_maps_to_origin(self):
        assert np.array_equal(project_to_hyperboloid(np.zeros(4)).coords, origin(4).coords)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidPointError):
            project_to_hyperboloid(np.array([np.nan, 0.0]))


class TestAcoshStable:
    def test_clamps_below_one(self):
        assert acosh_from_excess((1.0 - 1e-15) - 1.0) == 0.0
        assert acosh_from_excess(1.0 - 1.0) == 0.0

    def test_matches_math_acosh(self):
        for a in [1.0 + 1e-9, 1.5, math.sqrt(2.0), 10.0, 1e6]:
            assert_allclose(acosh_from_excess(a - 1.0), math.acosh(a), rtol=1e-9)

    def test_excess_form_near_zero(self):
        # arccosh(1+s) ~ sqrt(2s) as s -> 0; the log1p form must not lose
        # precision there.
        s = 1e-13
        assert_allclose(acosh_from_excess(s), math.sqrt(2.0 * s), rtol=1e-6)
        assert acosh_from_excess(0.0) == 0.0
        assert acosh_from_excess(-1e-16) == 0.0

    def test_array_variant_matches_scalar(self, rng):
        a = 1.0 + np.abs(rng.standard_normal(50))
        expected = [acosh_from_excess(float(v) - 1.0) for v in a]
        assert_allclose(acosh_stable_array(a), expected, rtol=1e-14)

    def test_array_variant_huge_excess_without_warning(self):
        # s * (s + 2) overflows once the excess s passes about 1.3e154; the
        # distance stays finite and the farthest, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = acosh_stable_array(np.array([1.0, 1e150, 1e160, 1e300]))
        assert out[0] == 0.0 and math.isfinite(out[1])
        assert list(out) == sorted(out)


    def test_past_the_overflow_point(self):
        excess = np.logspace(150, 300, 151)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arr = acosh_stable_array(1.0 + excess)
            scalar = [acosh_from_excess(s) for s in excess.tolist()]
        want = [math.acosh(1.0 + s) for s in excess.tolist()]
        assert_allclose(arr, want, rtol=1e-15, atol=0.0)
        assert_allclose(scalar, want, rtol=1e-15, atol=0.0)

    def test_below_the_branch_bits_unchanged(self, rng):
        # The expressions before the overflow branch, as test-only copies.
        def old_array(a):
            s = np.maximum(a - 1.0, 0.0)
            return np.log1p(s + np.sqrt(s * (s + 2.0)))

        def old_scalar(s):
            return 0.0 if s <= 0.0 else math.log1p(s + math.sqrt(s * (s + 2.0)))

        # The overflow branch as it was before it became lazy: evaluated for
        # every entry, then picked by np.where.
        def eager_branch_array(a):
            s = np.maximum(a - 1.0, 0.0)
            with np.errstate(over="ignore"):
                prod = s * (s + 2.0)
            return np.where(np.isinf(prod), np.log(2.0) + np.log1p(s), np.log1p(s + np.sqrt(prod)))

        sampled = 10.0 ** rng.uniform(-16, 154, 2000)
        excess = np.concatenate([[0.0, 1e-300, 1e-13, 1.3e154], sampled])
        a = 1.0 + excess
        assert np.array_equal(acosh_stable_array(a), old_array(a))
        assert [acosh_from_excess(s) for s in excess.tolist()] == [
            old_scalar(s) for s in excess.tolist()
        ]
        # One array with no overflowing excess, one with both kinds.
        mixed = 1.0 + np.concatenate([excess, 10.0 ** rng.uniform(155, 308, 200), [np.inf]])
        rng.shuffle(mixed)
        for arr in (a, mixed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.array_equal(acosh_stable_array(arr), eager_branch_array(arr))


class TestGeodesicDistance:
    def test_origin_to_unit_lift(self):
        d = geodesic_distance(origin(3), project_to_hyperboloid([1.0, 0.0, 0.0]))
        assert_allclose(d, ACOSH_SQRT2, rtol=1e-12)

    def test_antipodal_unit_lifts(self):
        x = project_to_hyperboloid([1.0, 0.0])
        y = project_to_hyperboloid([-1.0, 0.0])
        assert_allclose(geodesic_distance(x, y), ACOSH_3, rtol=1e-12)
        # The origin sits on this geodesic, so the two halves add exactly.
        assert_allclose(ACOSH_3, 2.0 * ACOSH_SQRT2, rtol=1e-12)

    def test_identity(self, rng):
        for scale in [0.1, 1.0, 5.0]:
            p = random_lorentz(rng, 6, scale)
            assert geodesic_distance(p, p) == 0.0

    def test_symmetry(self, rng):
        x = random_lorentz(rng, 6)
        y = random_lorentz(rng, 6)
        assert_allclose(geodesic_distance(x, y), geodesic_distance(y, x), rtol=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            x, y, z = (random_lorentz(rng, 4, 2.0) for _ in range(3))
            dxz = geodesic_distance(x, z)
            dxy = geodesic_distance(x, y)
            dyz = geodesic_distance(y, z)
            assert dxz <= dxy + dyz + 1e-9

    def test_rejects_off_manifold(self):
        bad = raw_point([1.0, 0.5, 0.0])  # <x,x>_L = -0.75
        with pytest.raises(InvalidPointError):
            geodesic_distance(bad, origin(2))

    def test_accepts_mild_drift(self):
        # Within the 1e-6 input tolerance but outside the construction one.
        drifted = raw_point([1.0 + 1e-8, 0.0, 0.0])
        assert geodesic_distance(drifted, origin(2)) < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            geodesic_distance(origin(2), origin(3))


class TestExpLog:
    def test_exp_zero_is_identity(self, rng):
        x = random_lorentz(rng, 5)
        u = TangentVector(x, np.zeros(6))
        assert exp_map(x, u) is x

    def test_exp_norm_is_distance(self, rng):
        x = random_lorentz(rng, 5)
        for target_norm in [1e-6, 1e-3, 0.5, 2.0, 10.0]:
            g = rng.standard_normal(6)
            u = riemannian_gradient(x, g)
            scale = target_norm / u.norm()
            u = TangentVector(x, scale * u.components)
            y = exp_map(x, u)
            assert_allclose(geodesic_distance(x, y), target_norm, rtol=1e-7)

    def test_log_of_self_is_zero(self, rng):
        x = random_lorentz(rng, 5)
        u = log_map(x, x)
        assert u.norm() == 0.0
        assert np.all(u.components == 0.0)

    def test_exp_log_round_trip(self, rng):
        for scale in [0.1, 1.0, 3.0]:
            x = random_lorentz(rng, 8, scale)
            y = random_lorentz(rng, 8, scale)
            u = log_map(x, y)
            z = exp_map(x, u)
            assert_allclose(z.coords, y.coords, rtol=1e-8, atol=1e-8)

    def test_log_exp_round_trip(self, rng):
        x = random_lorentz(rng, 4)
        u = riemannian_gradient(x, rng.standard_normal(5))
        y = exp_map(x, u)
        back = log_map(x, y)
        assert_allclose(back.components, u.components, rtol=1e-8, atol=1e-10)

    def test_log_norm_equals_distance(self, rng):
        x = random_lorentz(rng, 6, 2.0)
        y = random_lorentz(rng, 6, 2.0)
        assert_allclose(log_map(x, y).norm(), geodesic_distance(x, y), rtol=1e-10)

    def test_exp_base_mismatch(self, rng):
        x = random_lorentz(rng, 4)
        y = random_lorentz(rng, 4)
        u = riemannian_gradient(x, rng.standard_normal(5))
        with pytest.raises(ContractViolation):
            exp_map(y, u)


class TestTangentAndGradient:
    def test_riemannian_gradient_is_tangent(self, rng):
        x = random_lorentz(rng, 7, 2.0)
        u = riemannian_gradient(x, rng.standard_normal(8))
        assert abs(lorentz_inner(x.coords, u.components)) < 1e-8

    def test_non_tangent_rejected(self, rng):
        x = random_lorentz(rng, 3)
        with pytest.raises(InvalidPointError):
            TangentVector(x, x.coords.copy())

    def test_gradient_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            riemannian_gradient(origin(3), np.zeros(3))

    def test_rsgd_rejects_non_finite(self):
        with pytest.raises(DivergenceError):
            rsgd_step(origin(3), np.array([np.nan, 0.0, 0.0, 0.0]), 0.1)

    def test_rsgd_descends_distance_objective(self, rng):
        # Minimize f(x) = 0.5 d(x, t)^2; ambient gradient is
        # d / sinh(d) * (t0, -t_space).
        target = random_lorentz(rng, 4, 1.5)
        x = random_lorentz(rng, 4, 1.5)
        prev = geodesic_distance(x, target)
        for _ in range(60):
            a = -lorentz_inner(x.coords, target.coords)
            d = acosh_from_excess(a - 1.0)
            if d < 1e-9:
                break
            coeff = d / math.sqrt(a * a - 1.0)
            g = coeff * np.concatenate([[target.coords[0]], -target.space])
            x = rsgd_step(x, g, 0.3)
            cur = geodesic_distance(x, target)
            assert cur <= prev + 1e-12
            prev = cur
        assert geodesic_distance(x, target) < 1e-3

    def test_distance_spatial_grad_matches_fd(self, rng):
        v = rng.standard_normal(5)
        y = random_lorentz(rng, 5, 1.5)
        x = project_to_hyperboloid(v)
        grad = distance_spatial_grad(x, y)
        eps = 1e-6
        fd = np.zeros(5)
        for i in range(5):
            vp = v.copy()
            vp[i] += eps
            vm = v.copy()
            vm[i] -= eps
            fd[i] = (
                geodesic_distance(project_to_hyperboloid(vp), y)
                - geodesic_distance(project_to_hyperboloid(vm), y)
            ) / (2.0 * eps)
        assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_distance_spatial_grad_zero_at_coincidence(self, rng):
        x = random_lorentz(rng, 4)
        assert_allclose(distance_spatial_grad(x, x), np.zeros(4))


class TestSinhFromExcess:
    def test_distance_spatial_grad_past_the_overflow_point(self):
        # The lifts of (+-1e78, 0) are at excess 2e156, where s * (s + 2)
        # overflows; the gradient there is the analytic 1/v.
        x = project_to_hyperboloid([1e78, 0.0])
        y = project_to_hyperboloid([-1e78, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_allclose(distance_spatial_grad(x, y), [1e-78, 0.0], rtol=1e-12, atol=0.0)
            assert_allclose(distance_spatial_grad(y, x), [-1e-78, 0.0], rtol=1e-12, atol=0.0)

    def test_below_the_branch_bits_unchanged(self, rng):
        excess = np.concatenate([[1e-12, 1e150], 10.0 ** rng.uniform(-12, 150, 2000)]).tolist()
        old = [math.sqrt(s * (s + 2.0)) for s in excess]
        assert np.array_equal([_sinh_from_excess(s) for s in excess], old)


class TestVectorizedHelpers:
    def test_project_rows_matches_scalar(self, rng):
        spatial = rng.standard_normal((10, 4))
        rows = project_rows(spatial)
        for i in range(10):
            assert_allclose(rows[i], project_to_hyperboloid(spatial[i]).coords, rtol=1e-15)

    def test_distances_to_rows_matches_scalar(self, rng):
        spatial = rng.standard_normal((20, 6))
        rows = project_rows(spatial)
        q = random_lorentz(rng, 6)
        batch = distances_to_rows(q.coords, rows)
        for i in range(20):
            expected = geodesic_distance(q, project_to_hyperboloid(spatial[i]))
            assert_allclose(batch[i], expected, rtol=1e-10, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
)
def test_distance_nonnegative_and_symmetric(vx, vy):
    x = project_to_hyperboloid(np.array(vx))
    y = project_to_hyperboloid(np.array(vy))
    d = geodesic_distance(x, y)
    assert d >= 0.0
    assert_allclose(d, geodesic_distance(y, x), rtol=1e-12, atol=1e-15)


def _scalar_error(fn, *args):
    """The error class and message of a scalar call (its warnings hidden)."""
    try:
        with np.errstate(all="ignore"):
            fn(*args)
    except (InvalidPointError, ContractViolation) as exc:
        return type(exc), str(exc)
    return None


class TestOriginRows:
    """The row-wise origin maps against the scalar maps, one row at a time,
    with ``np.array_equal``: every row carries the scalar call's bits."""

    # 0 and 1e-14 give zero tangents; up to about 1e-2 the log map takes
    # its small-excess branch.
    NORMS = [0.0, 1e-14, 1e-9, 1e-5, 1e-3, 1e-2, 0.02, 0.5, 3.0, 1e3, 1e100, 1e150]

    def spatial(self, seed, n=7):
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((len(self.NORMS), n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return np.concatenate([dirs * np.array(self.NORMS)[:, None], rng.standard_normal((40, n))])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lift_and_log_match_scalar(self, seed):
        spatial = self.spatial(seed)
        coords = project_rows(spatial)
        logs = origin_log_rows(coords)
        base = origin(spatial.shape[1])
        for v, row, tangent in zip(spatial, coords, logs):
            point = project_to_hyperboloid(v)
            assert np.array_equal(row, point.coords)
            assert np.array_equal(tangent, log_map(base, point).components)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exp_matches_scalar_on_tangents_and_their_means(self, seed):
        spatial = self.spatial(seed)
        logs = origin_log_rows(project_rows(spatial))
        rng = np.random.default_rng(seed + 10)
        h, r, t = rng.integers(len(logs), size=(3, 60))
        tangents = np.concatenate([logs, (logs[h] + logs[r] + logs[t]) / 3.0])
        base = origin(spatial.shape[1])
        for u, row in zip(tangents, origin_exp_rows(tangents)):
            assert np.array_equal(row, exp_map(base, TangentVector(base, u)).coords)

    @staticmethod
    def inline_log1p_rows(coords):
        """Test-only copy of ``origin_log_rows`` as it took each row's
        distance from its own inline ``log1p`` (tangency check left out)."""
        base = origin(coords.shape[1] - 1).coords
        diff = coords - base
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s = coords[:, 0] - 1.0
            sq = np.matmul(diff[:, None, 1:], diff[:, 1:, None])[:, 0, 0]
            s = np.where(s < 1e-4, 0.5 * (-diff[:, 0] * diff[:, 0] + sq), s)
            root = np.sqrt(s * (s + 2.0))
            d = np.array(
                [0.0 if x <= 0.0 else math.log1p(x + r) for x, r in zip(s.tolist(), root.tolist())]
            )
            u = (d / root)[:, None] * (diff - s[:, None] * base)
        u[d < 1e-12] = 0.0
        return u

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_log_matches_the_inline_log1p_copy(self, seed):
        coords = project_rows(self.spatial(seed))
        assert np.array_equal(origin_log_rows(coords), self.inline_log1p_rows(coords))

    def test_empty_rows(self):
        assert project_rows(np.empty((0, 4))).shape == (0, 5)
        assert origin_log_rows(np.empty((0, 5))).shape == (0, 5)
        assert origin_exp_rows(np.empty((0, 5))).shape == (0, 5)

    @pytest.mark.parametrize(
        "bad, want",
        [
            ([0.0, np.nan, 1.0], "non-finite spatial coordinates"),
            ([np.inf, 0.0, 1.0], "non-finite spatial coordinates"),
            ([1e200, 0.0, 1.0], "spatial vector too large to lift"),
        ],
    )
    def test_lift_raises_the_scalar_error_for_the_first_bad_row(self, bad, want):
        spatial = np.array([[0.1, 0.2, 0.3], bad, [1e300, 0.0, 0.0], [0.0, np.nan, 0.0]])
        assert _scalar_error(project_to_hyperboloid, spatial[1]) == (InvalidPointError, want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError, match=f"^{want}$"):
                project_rows(spatial)

    def test_exp_checks_tangency_and_overflow_as_scalar(self):
        base = origin(2)
        not_tangent = np.array([[0.0, 0.1, 0.2], [1.0, 0.1, 0.2]])
        overflow = np.array([[0.0, 0.1, 0.2], [0.0, 1e200, 1e200]])
        for rows in (not_tangent, overflow):
            kind, message = _scalar_error(
                lambda u: exp_map(base, TangentVector(base, u)), rows[1]
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(kind) as got:
                    origin_exp_rows(rows)
            assert str(got.value) == message

    def test_rejects_non_matrix_input(self):
        with pytest.raises(ContractViolation):
            project_rows(np.zeros(3))
        with pytest.raises(ContractViolation):
            origin_log_rows(np.zeros((2, 1)))
