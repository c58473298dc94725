import math
import warnings

import numpy as np
import pytest

from jsrelax import (
    Matrix,
    MatrixSet,
    UnsupportedDimensionError,
    apply,
    is_irreducible,
    spectral_radius,
)


class TestMatrixValues:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, float("nan")], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, float("inf")], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_entries_read_only(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9.0

    def test_set_rejects_empty(self):
        with pytest.raises(ValueError):
            MatrixSet(())

    def test_set_rejects_mixed_dims(self):
        # refused by the member that is not 2x2
        with pytest.raises(UnsupportedDimensionError, match=r"got shape \(3, 3\)"):
            MatrixSet((np.eye(2), np.eye(3)))
        with pytest.raises(UnsupportedDimensionError, match=r"got shape \(1, 1\)"):
            MatrixSet(([[2.0]], np.eye(2)))

    @pytest.mark.parametrize("entries", [
        [[-3.0]],
        np.eye(3),
        np.zeros((4, 4)),
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        [1.0, 2.0, 3.0, 4.0],
        np.ones((2, 2, 1)),
    ], ids=["1x1", "3x3", "4x4", "2x3", "3x2", "flat", "2x2x1"])
    def test_matrix_refuses_every_shape_but_2x2(self, entries):
        with pytest.raises(UnsupportedDimensionError, match="must be 2x2, got shape"):
            Matrix(entries)

    def test_set_rejects_all_zero(self):
        with pytest.raises(ValueError):
            MatrixSet((np.zeros((2, 2)), np.zeros((2, 2))))

    def test_set_coerces_raw_arrays(self):
        fam = MatrixSet(([[1, 0], [0, 1]],))
        assert fam.count == 1 and fam.dim == 2


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(Matrix(np.eye(2))) == 1.0

    def test_shear_double_eigenvalue(self):
        assert spectral_radius(Matrix([[1.0, 1.0], [0.0, 1.0]])) == 1.0

    def test_unit_complex_pair(self):
        # det = (225 + 64)/289 = 1 with tr^2 < 4 det: conjugate pair on the unit circle
        m = Matrix([[15 / 17, -16 / 17], [4 / 17, 15 / 17]])
        assert spectral_radius(m) == pytest.approx(1.0, abs=1e-15)

    def test_one_by_one(self):
        # a 1x1 matrix is refused when it is built
        with pytest.raises(UnsupportedDimensionError):
            spectral_radius(Matrix([[-3.0]]))

    def test_rejects_dim_three(self):
        with pytest.raises(UnsupportedDimensionError):
            spectral_radius(Matrix(np.eye(3)))

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            c = rng.uniform(-5.0, 5.0)
            lhs = spectral_radius(Matrix(c * a))
            rhs = abs(c) * spectral_radius(Matrix(a))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            assert spectral_radius(Matrix(a)) == pytest.approx(
                spectral_radius(Matrix(a.T)), rel=1e-12
            )


class TestApply:
    def test_identity(self):
        assert apply(Matrix(np.eye(2)), (3.0, 4.0)).tolist() == [3.0, 4.0]

    def test_shear(self):
        assert apply(Matrix([[1.0, 1.0], [0.0, 1.0]]), (1.0, 1.0)).tolist() == [2.0, 1.0]

    def test_zero_matrix(self):
        fam = Matrix(np.zeros((2, 2)))
        assert apply(fam, (5.0, -2.0)).tolist() == [0.0, 0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(Matrix(np.eye(2)), (1.0, 2.0, 3.0))


class TestIrreducibility:
    def test_scalar_family_reducible(self):
        assert is_irreducible(MatrixSet((2.0 * np.eye(2),))) is False

    def test_two_shears_irreducible(self):
        # eigendirections are span(1,0) and span(0,1): no common line
        fam = MatrixSet(([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]]))
        assert is_irreducible(fam) is True

    def test_common_axes_reducible(self):
        fam = MatrixSet(([[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 5.0]]))
        assert is_irreducible(fam) is False

    def test_rotation_single_irreducible(self):
        c, s = math.cos(0.4), math.sin(0.4)
        assert is_irreducible(MatrixSet(([[c, -s], [s, c]],))) is True

    def test_single_shear_reducible(self):
        assert is_irreducible(MatrixSet(([[1.0, 1.0], [0.0, 1.0]],))) is False

    def test_scalar_member_constrains_nothing(self):
        # the scalar member leaves every line invariant, so the shear decides
        fam = MatrixSet((2.0 * np.eye(2), [[1.0, 1.0], [0.0, 1.0]]))
        assert is_irreducible(fam) is False

    def test_zero_member_constrains_nothing(self):
        fam = MatrixSet((np.zeros((2, 2)), [[1.0, 1.0], [0.0, 1.0]]))
        assert is_irreducible(fam) is False

    def test_rejects_dim_three(self):
        with pytest.raises(UnsupportedDimensionError):
            is_irreducible(MatrixSet((np.eye(3),)))

    def test_similarity_invariance(self):
        rng = np.random.default_rng(44)
        checked = 0
        while checked < 30:
            a = rng.uniform(-2.0, 2.0, size=(2, 2))
            b = rng.uniform(-2.0, 2.0, size=(2, 2))
            t = rng.uniform(-1.0, 1.0, size=(2, 2))
            if abs(np.linalg.det(t)) < 1e-3 or np.linalg.cond(t) >= 10.0:
                continue
            tinv = np.linalg.inv(t)
            fam = MatrixSet((a, b))
            conj = MatrixSet((t @ a @ tinv, t @ b @ tinv))
            assert is_irreducible(fam) == is_irreducible(conj)
            checked += 1


class TestScaleProof:
    EX1 = ([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]])
    EX2 = ([[15 / 17, -16 / 17], [4 / 17, 15 / 17]], [[4 / 5, 3 / 5], [-3 / 5, 4 / 5]])
    # reducible: e1 is an eigenvector of both members
    SHEARS = ([[1.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("k", [-1000, -3, 5, 1000])
    def test_power_of_two_scaling_is_bitwise(self, k):
        for mats in (self.EX1, self.EX2, self.SHEARS):
            fam = MatrixSet(mats)
            scaled = MatrixSet(tuple(math.ldexp(1.0, k) * m.entries for m in fam))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert is_irreducible(scaled) == is_irreducible(fam)
                for m, ms in zip(fam, scaled):
                    assert spectral_radius(ms) == math.ldexp(spectral_radius(m), k)

    @pytest.mark.parametrize("factor", [1e160, 1e300, 1e-300])
    def test_decimal_extremes(self, factor):
        fam = MatrixSet(tuple(factor * np.array(m) for m in self.SHEARS))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert is_irreducible(fam) is False
            radius = spectral_radius(fam.matrices[1])
            assert radius == pytest.approx(2.0 * factor, rel=1e-15, abs=0.0)
