"""The decimal kernel against Python's own "%.17g" and "%.6f", byte for byte.

Every value set runs through the kernel in the writers' blocks and through
the %-format, one number per call, and the two texts must be equal.  The
sets (about 10^6 random values in all) cover each binade from the subnormals
to 2^1023, exact rounding ties,
powers of ten and their neighbours, the kernel's range edges, signed zeros,
negatives, and values the kernel hands to the %-format by itself.
"""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrelax import _decimal

FORMATS = ["%.17g", "%.6f"]


def kernel_text(x: np.ndarray, fmt: str) -> str:
    x = np.asarray(x, dtype=np.float64)
    return b"".join(
        _decimal.text(_decimal.cells(x[rows], fmt, b"\n")) for rows in _decimal.blocks(x.size)
    ).decode("ascii")


def first_mismatch(x: np.ndarray, fmt: str):
    """None when the kernel writes every number as fmt % x does, else the first miss."""
    x = np.asarray(x, dtype=np.float64)
    got = kernel_text(x, fmt).split("\n")[:-1]
    for value, line in zip(x.tolist(), got):
        if line != fmt % value:
            return value.hex(), line, fmt % value
    assert len(got) == x.size
    return None


def binades(seed: int, n: int, lo: int, hi: int) -> np.ndarray:
    """n random doubles of either sign with biased exponents in [lo, hi] and random mantissas."""
    rng = np.random.default_rng(seed)
    exponent = rng.integers(lo, hi + 1, size=n, dtype=np.uint64)
    mantissa = rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)


def biased_exponent(x: float) -> int:
    return int(np.float64(x).view(np.uint64) >> np.uint64(52)) & 0x7FF


# binades a little wider than the kernel's own range, [1e-4, 1e17) and [0, 2^52 / 10^6)
KERNEL_BINADES = {
    "%.17g": (biased_exponent(1e-4) - 2, biased_exponent(1e17) + 2),
    "%.6f": (0, biased_exponent(2.0 ** 52 / 1e6) + 2),
}


class TestRandomBinades:
    # from the subnormals (biased exponent 0) to 2^1023; fewer for %.6f, whose
    # text of a large number has hundreds of digits
    @pytest.mark.parametrize("fmt,count", [("%.17g", 1 << 18), ("%.6f", 1 << 16)])
    def test_every_binade(self, fmt, count):
        assert first_mismatch(binades(2008, count, 0, 2046), fmt) is None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_kernel_binades(self, fmt):
        lo, hi = KERNEL_BINADES[fmt]
        assert first_mismatch(binades(2009, 1 << 19, lo, hi), fmt) is None


def g17_ties(seed: int) -> np.ndarray:
    """Doubles k * 2^-j, k odd, with 18 significant digits, the last a 5: %.17g halves."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(3, 20):
        lo, hi = 10.0 ** (17 - j) * 2.0 ** j, min(10.0 ** (18 - j) * 2.0 ** j, 2.0 ** 53)
        k = rng.integers(int(lo), int(hi), size=200) | 1
        out.append(k * 2.0 ** -j)
    return np.concatenate(out)


class TestTies:
    def test_g17_ties_are_halves(self):
        # the ties really sit halfway between two 17-digit decimals
        for x in g17_ties(1)[::97].tolist():
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5

    def test_g17_ties_round_half_to_even(self):
        x = g17_ties(1)
        assert first_mismatch(np.concatenate([x, -x]), "%.17g") is None

    def test_f6_ties_round_half_to_even(self):
        # m / 128 for odd m is a %.6f half: m * 7812.5
        m = np.arange(1, 2 ** 17, 2, dtype=np.float64)
        x = np.concatenate([m / 128.0, m * 2.0 ** 14 / 128.0])
        assert first_mismatch(np.concatenate([x, -x]), "%.6f") is None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_one_plus_powers_of_two(self, fmt):
        x = 1.0 + 2.0 ** -np.arange(1, 53)
        assert first_mismatch(x, fmt) is None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_small_mantissa_multiples(self, fmt):
        m = np.arange(1, 2049, dtype=np.float64)
        x = (m[:, None] * 2.0 ** -np.arange(0, 60)[None, :]).ravel()
        assert first_mismatch(x, fmt) is None


class TestEdges:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_powers_of_ten_and_neighbours(self, fmt):
        p = np.array([float(f"1e{k}") for k in range(-30, 31)])
        x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
        assert first_mismatch(np.concatenate([x, -x]), fmt) is None

    def test_g17_range_edges(self):
        # 1e-4 and 1e16 are written in fixed point and 1e17 with an exponent;
        # the double just below 1e-4 is 9.9999999999999991e-05
        edges = np.array([1e-4, 1e16, 1e17])
        x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        assert first_mismatch(x, "%.17g") is None
        assert kernel_text([np.nextafter(1e-4, 0.0)], "%.17g") == "9.9999999999999991e-05\n"

    def test_f6_range_edges(self):
        # |x| < 2^52 / 10^6 is formatted by the kernel, the rest by %; values
        # near 5e-7 round to 0.000000 or 0.000001
        edge = 2.0 ** 52 / 1e6
        near = np.array([edge, 5e-7, 1.5e-6, 2.5e-6, 9.9999995e-7, 4.9999999999999998e-7])
        x = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
        assert first_mismatch(np.concatenate([x, -x]), "%.6f") is None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_signed_zeros_and_negatives(self, fmt):
        x = np.array([0.0, -0.0, -1.0, -0.5, -1e-5, -123.456, -1e16, -5e-324, 5e-324])
        assert first_mismatch(x, fmt) is None

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_non_finite_and_huge(self, fmt):
        x = np.array([np.inf, -np.inf, np.nan, 1e300, -1.7976931348623157e308])
        assert first_mismatch(x, fmt) is None


class TestFallbackAcrossBlocks:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_mixed_blocks(self, fmt):
        # in-range numbers with %-formatted ones at and around the block edges
        block = _decimal.BLOCK
        x = np.random.default_rng(7).uniform(-4.0, 4.0, 2 * block + 5)
        for j, v in zip([0, 1, block - 1, block, block + 1, 2 * block, 2 * block + 4],
                        [0.0, -0.0, 1e300, -1e-7, np.nan, 1e18, -np.inf]):
            x[j] = v
        assert first_mismatch(x, fmt) is None

    def test_suffix_follows_a_widened_row(self):
        # a %-formatted number longer than the kernel's row widens every row
        cells = _decimal.cells(np.array([1.5, 1e300, -2.25]), "%.6f", b" L ")
        assert _decimal.text(cells) == "".join("%.6f L " % v for v in (1.5, 1e300, -2.25)).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.sampled_from(FORMATS))
def test_any_finite_floats(values, fmt):
    assert first_mismatch(np.array(values), fmt) is None
