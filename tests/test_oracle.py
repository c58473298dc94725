import math
import warnings

import numpy as np
import pytest

from jsrelax import (
    EnumerationBudgetError,
    Matrix,
    MatrixSet,
    UnsupportedDimensionError,
    depth_sweep,
    product_bounds,
    spectral_radius,
    trace_estimate,
)
from jsrelax.matrices import _spectral_norms, _spectral_radii

from conftest import random_irreducible_pair


def lapack_products(mats, depth):
    """All depth-n products by plain matmul, unscaled."""
    mats = np.asarray(mats, dtype=float)
    prods = mats
    for _ in range(depth - 1):
        prods = (mats[:, None] @ prods[None]).reshape(-1, 2, 2)
    return prods


def scalar_spectral_radius(a: np.ndarray) -> float:
    """Spectral radius of one 2x2 array by the scalar closed form, in Python
    floats after the power-of-two prescale: the independent reference of the
    batch form."""
    exp = math.frexp(max(map(abs, a.ravel().tolist())))[1]
    e = np.ldexp(a, -exp)
    tr = float(e[0, 0] + e[1, 1])
    det = float(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        return math.ldexp(0.5 * (abs(tr) + math.sqrt(disc)), exp)
    # complex conjugate pair; det > 0 is forced by a negative discriminant
    return math.ldexp(math.sqrt(det), exp)


def seeded_triple() -> MatrixSet:
    return MatrixSet(tuple(np.random.default_rng(41).uniform(-2.0, 2.0, size=(3, 2, 2))))


class TestProductBounds:
    def test_scalar_family_degenerate(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        b = product_bounds(fam, 3)
        assert b.lower == pytest.approx(2.0, rel=1e-12)
        assert b.upper == pytest.approx(2.0, rel=1e-12)

    def test_example1_depth_one(self, example1):
        # both members have a double unit eigenvalue; both 2-norms are golden
        b = product_bounds(example1, 1)
        assert b.lower == 1.0
        assert b.upper == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-5)

    def test_lower_never_above_upper_across_depths(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            fam = random_irreducible_pair(rng)
            bnds = [product_bounds(fam, n) for n in range(1, 6)]
            for a in bnds:
                for b in bnds:
                    assert a.lower <= b.upper + 1e-9

    def test_sandwich_around_published_values(self, example1, example2):
        # the depth-sweep bounds must close in on the known limits
        for fam, value in ((example1, 1.389), (example2, 1.192)):
            bnds = [product_bounds(fam, n) for n in range(1, 13)]
            assert max(b.lower for b in bnds) <= value + 2e-3
            assert min(b.upper for b in bnds) >= value - 2e-3

    def test_permutation_invariance_exact(self, example2):
        swapped = MatrixSet(tuple(reversed(example2.matrices)))
        for n in (1, 3, 5):
            b1 = product_bounds(example2, n)
            b2 = product_bounds(swapped, n)
            assert (b1.lower, b1.upper) == (b2.lower, b2.upper)
            assert trace_estimate(example2, n) == trace_estimate(swapped, n)

    def test_scaling(self, example1):
        scaled = MatrixSet(tuple(2.5 * m.entries for m in example1))
        for n in (1, 2, 4, 6):
            b1 = product_bounds(example1, n)
            b2 = product_bounds(scaled, n)
            assert b2.lower == pytest.approx(2.5 * b1.lower, rel=1e-12)
            assert b2.upper == pytest.approx(2.5 * b1.upper, rel=1e-12)

    def test_upper_is_exact_spectral_norm(self, example1):
        exact = 1.489222848592541
        assert abs(product_bounds(example1, 3).upper - exact) <= 4 * math.ulp(exact)

    def test_upper_bounds_every_product_norm(self, example1, example2):
        for fam, depths in ((example1, range(1, 13)), (example2, range(1, 13)),
                            (seeded_triple(), range(1, 7))):
            mats = [m.entries for m in fam]
            for d in depths:
                norms = np.linalg.norm(lapack_products(mats, d), 2, axis=(1, 2))
                exact = float(norms.max()) ** (1.0 / d)
                b = product_bounds(fam, d)
                assert b.upper >= exact * (1.0 - 1e-14)
                assert b.upper <= exact * (1.0 + 1e-14)
                assert b.norm_used == "euclidean"

    @pytest.mark.parametrize("k", [-1000, -3, 5, 1000])
    def test_power_of_two_scaling_is_bitwise(self, example1, example2, k):
        for fam in (example1, example2):
            scaled = MatrixSet(tuple(math.ldexp(1.0, k) * m.entries for m in fam))
            for d in (1, 3, 8):
                b1, b2 = product_bounds(fam, d), product_bounds(scaled, d)
                assert b2.lower == math.ldexp(b1.lower, k)
                assert b2.upper == math.ldexp(b1.upper, k)
                assert trace_estimate(scaled, d) == math.ldexp(trace_estimate(fam, d), k)

    @pytest.mark.parametrize("factor", [1e300, 1e-300])
    def test_extreme_scales_stay_finite(self, example1, factor):
        scaled = MatrixSet(tuple(factor * m.entries for m in example1))
        for d in (1, 2, 3, 8):
            base = product_bounds(example1, d)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                b = product_bounds(scaled, d)
                t = trace_estimate(scaled, d)
            for got, want in ((b.lower, base.lower), (b.upper, base.upper),
                              (t, trace_estimate(example1, d))):
                assert math.isfinite(got) and got > 0.0
                assert got == pytest.approx(factor * want, rel=1e-14)

    def test_budget_refusal_names_requirement(self, example1):
        with pytest.raises(EnumerationBudgetError) as err:
            product_bounds(example1, 25)
        assert "33554432" in str(err.value)
        assert err.value.required == 2 ** 25

    def test_custom_cap_honored(self, example1):
        with pytest.raises(EnumerationBudgetError):
            product_bounds(example1, 5, cap=16)
        assert product_bounds(example1, 4, cap=16).depth == 4


class TestTraceEstimate:
    def test_identity_family(self):
        fam = MatrixSet((np.eye(2),))
        assert trace_estimate(fam, 2) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_scalar_family(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        assert trace_estimate(fam, 4) == pytest.approx(32.0 ** 0.25, rel=1e-15)

    def test_example1_depth_one(self, example1):
        assert trace_estimate(example1, 1) == 2.0

    def test_budget_refusal(self, example1):
        with pytest.raises(EnumerationBudgetError):
            trace_estimate(example1, 40)

    def test_rejects_dim_three_as_product_bounds_does(self):
        # the family itself refuses a 3x3 member, before either call
        for call in (product_bounds, trace_estimate):
            with pytest.raises(UnsupportedDimensionError, match=r"2x2, got shape \(3, 3\)"):
                call(MatrixSet((np.eye(3),)), 2)


class TestDepthSweep:
    def test_rows_equal_product_bounds_and_trace_estimate(self, example1, example2):
        for fam, max_depth in ((example1, 12), (example2, 12), (seeded_triple(), 7)):
            rows = list(depth_sweep(fam, max_depth))
            assert [b.depth for b, _ in rows] == list(range(1, max_depth + 1))
            for d, (b, t) in enumerate(rows, 1):
                assert b == product_bounds(fam, d)
                assert t == trace_estimate(fam, d)

    def test_depth_above_cap_stops_after_the_rows_before_it(self, example1):
        rows = []
        with pytest.raises(EnumerationBudgetError) as err:
            for row in depth_sweep(example1, 6, cap=16):
                rows.append(row)
        assert len(rows) == 4 and err.value.depth == 5

    def test_rejects_dim_three_before_any_row(self):
        with pytest.raises(UnsupportedDimensionError):
            next(depth_sweep(MatrixSet((np.eye(3),)), 3))

    @pytest.mark.parametrize("max_depth", [0, -2])
    def test_rejects_depth_below_one_when_called(self, example1, max_depth):
        # refused by the call itself, as product_bounds refuses depth 0
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {max_depth}"):
            depth_sweep(example1, max_depth)
        with pytest.raises(ValueError, match=f"depth must be >= 1, got {max_depth}"):
            product_bounds(example1, max_depth)

    @pytest.mark.parametrize("depth", [True, False, 2.5, 2.0, "3", None])
    def test_rejects_a_depth_that_is_not_an_integer(self, example1, depth):
        # a bool was taken as the depth 1 or 0, and 2.5 failed inside range()
        for call in (depth_sweep, product_bounds, trace_estimate):
            with pytest.raises(ValueError, match=f"depth must be an integer, got {depth!r}"):
                call(example1, depth)

    def test_numpy_integer_depth_is_an_int(self, example1):
        bounds = product_bounds(example1, np.int64(6))
        assert type(bounds.depth) is int and bounds == product_bounds(example1, 6)
        rows = list(depth_sweep(example1, np.int32(3)))
        assert [type(b.depth) for b, _ in rows] == [int] * 3


class TestOverflow:
    # 2^e * max^(1/n) above the largest double warned "overflow encountered in
    # ldexp" and returned inf, a false bound
    HUGE = 1.7e308

    def test_roots_above_the_double_range_are_refused_without_a_warning(self):
        h = self.HUGE
        fam = MatrixSet(([[h, h], [h, h]],))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for depth in (1, 2, 3):
                for call in (product_bounds, trace_estimate):
                    with pytest.raises(ValueError, match=f"depth-{depth} value exceeds the "
                                                         "double range; rescale the family"):
                        call(fam, depth)
            with pytest.raises(ValueError, match="depth-1 value exceeds the double range"):
                next(depth_sweep(fam, 2))

    def test_each_call_refuses_only_its_own_root(self):
        # radius and norm are HUGE, the trace 2 * HUGE
        h = self.HUGE
        fam = MatrixSet(([[h, 0.0], [0.0, h]],))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = product_bounds(fam, 1)
            assert bounds.lower == bounds.upper == h
            with pytest.raises(ValueError, match="depth-1 value exceeds the double range"):
                trace_estimate(fam, 1)
            with pytest.raises(ValueError, match="depth-1 value exceeds the double range"):
                next(depth_sweep(fam, 1))

    def test_roots_at_the_top_of_the_range_are_kept(self):
        # radius, norm and |trace| of every depth-n product are HUGE^n
        h = self.HUGE / 2.0
        fam = MatrixSet(([[h, h], [h, h]],))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = list(depth_sweep(fam, 4))
        assert [b.depth for b, _ in rows] == [1, 2, 3, 4]
        for b, t in rows:
            for value in (b.lower, b.upper, t):
                assert value == pytest.approx(self.HUGE, rel=1e-15)


class TestWorkCount:
    """Each depth is built by one level build from the depth before it."""

    def test_sweep_builds_each_depth_once(self, example1, product_levels):
        for _ in depth_sweep(example1, 16):
            pass
        assert product_levels == [2 ** d for d in range(2, 17)]

    def test_single_depth_does_no_extra_work(self, example1, product_levels):
        product_bounds(example1, 10)
        trace_estimate(example1, 10)
        assert product_levels == 2 * [2 ** d for d in range(2, 11)]

    def test_refusal_builds_nothing(self, example1, product_levels):
        with pytest.raises(EnumerationBudgetError):
            product_bounds(example1, 5, cap=16)
        with pytest.raises(EnumerationBudgetError):
            trace_estimate(example1, 5, cap=16)
        assert product_levels == []


class TestBatchSpectralRadii:
    def test_matches_scalar_closed_form(self):
        rng = np.random.default_rng(12)
        batch = rng.normal(size=(200, 2, 2))
        vectorized = _spectral_radii(batch.transpose(1, 2, 0))  # component-major
        for k in range(200):
            assert vectorized[k] == pytest.approx(
                scalar_spectral_radius(batch[k]), rel=1e-14, abs=1e-300
            )

    def test_spectral_radius_is_the_scalar_closed_form_bitwise(self):
        # random entries, integer entries with signed zeros, and decimal
        # extremes down to subnormals; a radius above the largest double
        # overflows in both forms
        rng = np.random.default_rng(14)
        ints = rng.integers(-2, 3, size=(1000, 2, 2)).astype(float)
        ints[(ints == 0.0) & rng.integers(0, 2, size=ints.shape).astype(bool)] = -0.0
        mats = [rng.normal(size=(1000, 2, 2)), ints]
        mats += [scale * rng.uniform(-1.0, 1.0, size=(200, 2, 2))
                 for scale in (1.7e308, 1e300, 1e-300, 1e-308, 5e-324)]
        checked = 0
        for a in np.concatenate(mats):
            if not a.any():
                continue
            try:
                want = scalar_spectral_radius(a)
            except OverflowError:
                with pytest.raises(OverflowError):
                    spectral_radius(Matrix(a))
                continue
            assert spectral_radius(Matrix(a)).hex() == want.hex(), a
            checked += 1
        assert checked > 2500


class TestBatchSpectralNorms:
    def test_matches_lapack(self):
        rng = np.random.default_rng(13)
        batch = rng.normal(size=(200, 2, 2))
        expected = np.linalg.norm(batch, 2, axis=(1, 2))
        got = _spectral_norms(batch.transpose(1, 2, 0))  # component-major
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
