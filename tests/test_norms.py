import math
import warnings

import numpy as np
import pytest

from jsrelax import (
    AngularNorm,
    MatrixSet,
    eccentricity,
    euclidean,
    evaluate,
    max_image,
    normalize,
)
from jsrelax.norms import _grid, _ImagePlan, combine_linear, combine_max

from conftest import random_irreducible_pair


def combined(combine, nm: AngularNorm, s: MatrixSet, *args) -> AngularNorm:
    """The profile combine_linear or combine_max writes from the node image maxima of s."""
    vals = np.empty(nm.node_count)
    m = _ImagePlan(s, nm.node_count, (1.0, 0.0)).node_image_max(nm)
    combine(nm, m, *args, vals[nm.node_count // 2:])
    return AngularNorm._adopt(vals)


def infinity_profile(n: int) -> AngularNorm:
    """h(phi) = max(|cos phi|, |sin phi|): the max-norm restricted to the circle."""
    angles = _grid(n).angles
    return AngularNorm(np.maximum(np.abs(np.cos(angles)), np.abs(np.sin(angles))))


class TestConstruction:
    def test_euclidean_small(self):
        assert euclidean(8).values.tolist() == [1.0] * 8

    def test_euclidean_large(self):
        assert bool(np.all(euclidean(3000).values == 1.0))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            euclidean(7)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            euclidean(6)

    def test_rejects_nonpositive(self):
        values = np.ones(16)
        values[3] = 0.0
        values[11] = 0.0
        with pytest.raises(ValueError):
            AngularNorm(values)

    def test_rejects_nan(self):
        values = np.ones(16)
        values[0] = float("nan")
        with pytest.raises(ValueError):
            AngularNorm(values)

    def test_symmetry_pinned_exactly(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.5, 2.0, size=64)
        nm = AngularNorm(values)
        half = 32
        assert bool(np.all(nm.values[:half] == nm.values[half:]))

    def test_symmetrization_is_idempotent(self):
        rng = np.random.default_rng(1)
        nm = AngularNorm(rng.uniform(0.5, 2.0, size=64))
        again = AngularNorm(nm.values)
        assert bool(np.all(again.values == nm.values))

    def test_fold_of_huge_halves_stays_finite(self):
        # a + b overflows here; a RuntimeWarning fails the test suite
        big = np.finfo(float).max
        a = np.array([big, big, 1e308, 1.5e308])
        b = np.array([big, 1e308, 1.5e308, 2.0])
        nm = AngularNorm(np.concatenate([a, b]))
        expected = [big, 0.5 * big + 0.5 * 1e308, 0.5 * 1e308 + 0.5 * 1.5e308, 0.5 * (1.5e308 + 2.0)]
        assert nm.values.tolist() == expected * 2
        assert AngularNorm(np.full(8, 1e308)).values.tolist() == [1e308] * 8

    def test_fold_is_the_antipodal_mean_bitwise(self):
        rng = np.random.default_rng(2024)
        a, b = 10.0 ** rng.uniform(-300.0, 300.0, size=(2, 4096))
        b[::3] = a[::3]
        b[1::3] = a[1::3] * rng.uniform(0.5, 2.0, size=b[1::3].size)
        nm = AngularNorm(np.concatenate([a, b]))
        assert nm.values[:4096].tobytes() == (0.5 * (a + b)).tobytes()


class TestEvaluate:
    def test_euclidean_three_four_five(self):
        # the N-gon through the unit node vectors: exact along a node
        # direction, and within 1/cos(pi/N) of the Euclidean length elsewhere
        n = 3000
        assert evaluate(euclidean(n), (5.0, 0.0)) == 5.0
        assert evaluate(euclidean(n), (0.0, -5.0)) == 5.0
        assert 5.0 <= evaluate(euclidean(n), (3.0, 4.0)) <= 5.0 / math.cos(math.pi / n)

    def test_zero_vector(self):
        assert evaluate(infinity_profile(64), (0.0, 0.0)) == 0.0

    def test_infinity_profile_diagonal(self):
        n = 3000
        nm = infinity_profile(n)
        tol = (2.0 * math.pi / n) ** 2
        assert evaluate(nm, (1.0, 1.0)) == pytest.approx(1.0, abs=tol)

    def test_infinity_profile_matches_max_norm(self):
        n = 3000
        nm = infinity_profile(n)
        tol = (2.0 * math.pi / n) ** 2
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(size=2)
            exact = max(abs(x[0]), abs(x[1]))
            assert evaluate(nm, x) == pytest.approx(exact, abs=tol * max(1.0, exact))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            evaluate(euclidean(8), (float("nan"), 1.0))

    @pytest.mark.parametrize("x", [(1.0,), (), (1.0, 0.0, 7.0), np.ones(3)])
    def test_a_vector_of_other_than_two_entries_is_refused(self, x):
        # (1.0,) raised IndexError, and a third entry was ignored
        s, nm = MatrixSet((((1.0, 0.0), (0.0, 1.0)),)), euclidean(64)
        for call in (lambda: evaluate(nm, x), lambda: max_image(nm, s, x),
                     lambda: normalize(nm, x), lambda: _ImagePlan(s, 64, x)):
            with pytest.raises(ValueError, match="two entries, got"):
                call()

    def test_overflowing_length_is_refused_without_a_warning(self):
        # hypot overflowed here with a RuntimeWarning, and the norm was inf;
        # now a cone coordinate overflows, without a warning, and is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite length"):
                evaluate(euclidean(8), (1.5e308, 1.5e308))

    def test_homogeneity(self):
        nm = infinity_profile(512)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.normal(size=2)
            c = rng.uniform(-10.0, 10.0)
            lhs = evaluate(nm, c * x)
            rhs = abs(c) * evaluate(nm, x)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)

    def test_central_symmetry(self):
        nm = infinity_profile(512)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.normal(size=2)
            assert evaluate(nm, -x) == pytest.approx(evaluate(nm, x), rel=1e-14)

    def test_triangle_inequality_sampled(self):
        # the star polygon of an iterate need not be convex, but it can dent
        # convexity only at second order in the grid spacing; the slack is
        # part of the contract
        rng = np.random.default_rng(5)
        ex1 = MatrixSet(([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]]))
        for n in (512, 3000):
            nm = euclidean(n)
            for k in range(4):
                g = max_image(nm, ex1, (1.0, 0.0))
                nm = combined(combine_linear, nm, ex1, 0.3, g)
            slack = 10.0 * (2.0 * math.pi / n) ** 2
            for _ in range(200):
                x = rng.normal(size=2)
                y = rng.normal(size=2)
                vx, vy = evaluate(nm, x), evaluate(nm, y)
                assert evaluate(nm, x + y) <= vx + vy + slack * (vx + vy)


class TestMaxImage:
    def test_identity(self):
        fam = MatrixSet((np.eye(2),))
        nm = euclidean(3000)
        assert max_image(nm, fam, (5.0, 0.0)) == 5.0
        assert max_image(nm, fam, (3.0, 4.0)) == evaluate(nm, (3.0, 4.0))
        assert 5.0 <= max_image(nm, fam, (3.0, 4.0)) <= 5.0 / math.cos(math.pi / 3000)

    def test_picks_doubling_member(self):
        fam = MatrixSet((2.0 * np.eye(2), np.eye(2)))
        assert max_image(euclidean(3000), fam, (1.0, 0.0)) == 2.0

    def test_example_pair_vertical(self, example1):
        # images of (0,1) are (1,1) and (0,1): the max is sqrt(2)
        value = max_image(euclidean(3000), example1, (0.0, 1.0))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_rejects_dim_three(self):
        from jsrelax import UnsupportedDimensionError

        with pytest.raises(UnsupportedDimensionError):
            max_image(euclidean(8), MatrixSet((np.eye(3),)), (1.0, 0.0))

    def test_overflowing_image_is_refused_without_a_warning(self):
        # the image (2e308 - 2e308, 2e308) overflowed here with RuntimeWarnings,
        # and the max was NaN
        fam = MatrixSet(([[2.0, -2.0], [1.0, 1.0]],))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite length"):
                max_image(euclidean(8), fam, (1e308, 1e308))


class TestCombineLinear:
    def test_identity_fixed_point(self):
        fam = MatrixSet((np.eye(2),))
        nm = combined(combine_linear, euclidean(64), fam, 0.3, 1.0)
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_scalar_family_fixed_point(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        nm = combined(combine_linear, euclidean(64), fam, 0.5, 2.0)
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_normalization_identity_exact(self, example1):
        # gamma is the image norm at e = (1,0), which is itself a grid node, so
        # the new node value there is lam * 1 + (1 - lam) * 1 = 1 exactly
        n = 3000
        nm = euclidean(n)
        gamma = max_image(nm, example1, (1.0, 0.0))
        out = combined(combine_linear, nm, example1, 0.3, gamma)
        assert out.values[n // 2] == 1.0

    def test_lambda_zero_writes_the_scaled_image_exactly(self, example1):
        nm = AngularNorm(np.random.default_rng(9).uniform(0.2, 3.0, size=3000))
        m = _ImagePlan(example1, 3000, (1.0, 0.0)).node_image_max(nm)
        want = m / 1.7
        out = combined(combine_linear, nm, example1, 0.0, 1.7)
        assert out.values[1500:].tobytes() == want.tobytes()

    def test_rejects_bad_lambda(self, example1):
        for lam in (1.0, -0.2, 1.3, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"in \[0, 1\)"):
                combined(combine_linear, euclidean(64), example1, lam, 1.0)

    def test_rejects_bad_gamma(self, example1):
        for gamma in (0.0, -1.0):
            with pytest.raises(ValueError):
                combined(combine_linear, euclidean(64), example1, 0.3, gamma)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            fam = random_irreducible_pair(rng)
            nm = AngularNorm(rng.uniform(0.2, 3.0, size=128))
            out = combined(combine_linear, nm, fam, 0.4, 1.7)
            assert bool(np.all(out.values > 0.0))
            out = combined(combine_max, nm, fam, 1.7)
            assert bool(np.all(out.values > 0.0))


class TestCombineMax:
    def test_identity_fixed_point(self):
        fam = MatrixSet((np.eye(2),))
        nm = combined(combine_max, euclidean(64), fam, 1.0)
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_scalar_family_matched_gamma(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        nm = combined(combine_max, euclidean(64), fam, 2.0)
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_doubling_dominates(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        nm = combined(combine_max, euclidean(64), fam, 1.0)
        assert np.abs(nm.values - 2.0).max() <= 1e-12

    def test_rejects_bad_gamma(self, example1):
        with pytest.raises(ValueError):
            combined(combine_max, euclidean(64), example1, 0.0)


class TestNormalize:
    def test_uniform_rescale_exact(self):
        nm = normalize(AngularNorm(2.0 * np.ones(3000)), (1.0, 0.0))
        assert bool(np.all(nm.values == 1.0))

    def test_euclidean_already_normalized(self):
        nm = normalize(euclidean(16), (0.0, 1.0))
        assert bool(np.all(nm.values == 1.0))

    def test_any_constant_any_node_direction(self):
        rng = np.random.default_rng(7)
        n = 3000
        for _ in range(10):
            c = rng.uniform(0.1, 9.0)
            j = int(rng.integers(0, n))
            g = _grid(n)
            e = (g.ux[j], g.uy[j])
            nm = normalize(AngularNorm(c * np.ones(n)), e)
            assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_off_grid_reference(self):
        nm = normalize(infinity_profile(3000), (0.7, 0.31))
        assert evaluate(nm, (0.7, 0.31)) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize(euclidean(8), (0.0, 0.0))

    @pytest.mark.parametrize("nm, e", [
        (euclidean(64), (5e-324, 0.0)),
        (euclidean(64), (0.0, -1e-310)),
        (AngularNorm(0.4 * np.ones(8)), (5e-324, 0.0)),  # its norm rounds to 0
        (AngularNorm([1.0, 1.0, 1e300, 1.0] * 2), (1e-10, 0.0)),  # only the spike overflows
    ])
    def test_too_short_reference_is_refused_without_a_warning(self, nm, e):
        # 1/|e| overflowed here with a RuntimeWarning, and the profile check
        # then said only "profile values must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^e = \(.+\) is too short"):
                normalize(nm, e)


class TestEccentricity:
    def test_self_is_one(self):
        nm = infinity_profile(64)
        assert eccentricity(nm, nm) == 1.0

    def test_infinity_vs_euclidean(self):
        value = eccentricity(infinity_profile(3000), euclidean(3000))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_scale_invariance(self):
        nm = infinity_profile(64)
        scaled = AngularNorm(7.0 * nm.values)
        assert eccentricity(scaled, nm) == pytest.approx(1.0, abs=1e-12)

    def test_at_least_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = AngularNorm(rng.uniform(0.2, 3.0, size=64))
            b = AngularNorm(rng.uniform(0.2, 3.0, size=64))
            assert eccentricity(a, b) >= 1.0

    def test_strictly_above_one_when_not_proportional(self):
        values = np.ones(64)
        values[5] = values[5 + 32] = 1.5
        assert eccentricity(AngularNorm(values), euclidean(64)) == 1.5

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(ValueError):
            eccentricity(euclidean(64), euclidean(128))
