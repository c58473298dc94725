"""Brute-force product enumeration for cross-checking the relaxation bracket.

For depth n the r^n ordered products give a lower bound (largest spectral
radius, to the power 1/n) and an upper bound (largest spectral norm, to the
power 1/n) on the joint spectral radius.  Both are closed forms over the
whole product batch, exact within a few ulp.  The family is divided by a
power of two first, so its overall scale cannot overflow or underflow them.
The trace-based estimate converges to the same limit but at finite depth is
neither a lower nor an upper bound, so it is reported as a diagnostic only.
A value above the largest double is refused with ValueError, not returned
as inf.

Each depth is one level, stored component-major as a (2, 2, K) array: row
[i, j] holds the (i, j) entry of every product, so the closed forms read the
contiguous rows p, q, r and s.  Depth n is built from depth n-1 by one level
builder (_extend): broadcast multiply-adds over blocks of at most 2^14
products, written straight into the level, bitwise equal to an einsum level.
Building depth n holds depths n-1 and n (32 bytes per product) plus one
512 KB scratch block, so peak memory is set by the deepest level.  On a
2-vCPU x86-64 host, example 1's depth-16 level (65536 products) takes about
0.4 ms and its depth-20 level about 12 ms; depth_sweep to depth 20 takes
about 0.14 s, most of it the closed forms over the 2^20 products.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .matrices import MatrixSet, _count, _spectral_norms, _spectral_radii, _unit_scaled

__all__ = [
    "DEFAULT_PRODUCT_CAP",
    "EnumerationBudgetError",
    "ProductBounds",
    "depth_sweep",
    "product_bounds",
    "trace_estimate",
]

DEFAULT_PRODUCT_CAP = 1 << 20


class EnumerationBudgetError(ValueError):
    """Enumeration refused because r^depth exceeds the product cap."""

    def __init__(self, count: int, depth: int, required: int, cap: int):
        super().__init__(
            f"enumerating depth {depth} over {count} matrices needs {required} products, "
            f"above the cap of {cap}; rerun with cap >= {required}"
        )
        self.depth = depth
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class ProductBounds:
    """Bracket of the joint spectral radius from exhaustive depth-n products."""

    depth: int
    lower: float
    upper: float
    norm_used: str


def _products(s: MatrixSet, depth: int, cap: int) -> Iterator[tuple[np.ndarray, int]]:
    """Yield, for n = 1..depth, all r^n ordered products of the family divided
    by 2^e, as one component-major level (see _extend), and e.  Each depth is
    built from the one before.

    2^e is the power of two just above the largest entry; it divides exactly,
    so the products of 2^k * A equal those of A.  A depth whose product count
    exceeds cap raises EnumerationBudgetError before it is built.
    """
    first, e = _unit_scaled(np.stack(s.arrays(), axis=-1))
    level = first
    for n in range(1, depth + 1):
        _check_budget(s.count, n, cap)
        if n > 1:
            level = _extend(first, level)
        yield level, e


# Products per block of a level build: bounds the scratch block, so a level
# needs its output and one block more.
_LEVEL_BLOCK = 1 << 14


def _extend(first: np.ndarray, level: np.ndarray) -> np.ndarray:
    """The next depth level: A_a P_k for every member a and product k, a-major.

    Levels are component-major, (2, 2, K) with level[i, l, k] = P_k[i, l];
    first is the depth-1 level, the members themselves.  Block by block,
    A_a[i, 0] P_k[0, l] is written straight into the result, the
    A_a[i, 1] P_k[1, l] block is added, and then +0.0, so a sum of -0.0
    terms is +0.0 as in a sum started from zero.  Read as (K, 2, 2), the
    result equals np.einsum("aij,kjl->akil", ...) bitwise, which the tests
    keep as the reference.
    """
    r, count = first.shape[2], level.shape[2]
    out = np.empty((2, 2, r, count))  # out[i, l, a, k] = (A_a P_k)[i, l]
    step = max(1, _LEVEL_BLOCK // r)
    term = np.empty((2, 2, r, min(step, count)))
    # a_j[i, 0, a, 0] = A_a[i, j]
    a0, a1 = first[:, None, 0, :, None], first[:, None, 1, :, None]
    for k0 in range(0, count, step):
        block = out[..., k0:k0 + step]
        part = term[..., :block.shape[3]]
        # level[j][None, :, None, k] is P_k[j, l] at [0, l, 0, k]
        np.multiply(a0, level[0][None, :, None, k0:k0 + step], out=block)
        np.multiply(a1, level[1][None, :, None, k0:k0 + step], out=part)
        block += part
        block += 0.0
    return out.reshape(2, 2, r * count)


def _check_budget(count: int, depth: int, cap: int) -> None:
    required = count ** depth
    if required > cap:
        raise EnumerationBudgetError(count, depth, required, cap)


def _checked_depth(depth) -> int:
    """depth as an int; refuses a bool, a non-integer and a depth below 1."""
    depth = _count(depth, "depth")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return depth


def _deepest(s: MatrixSet, depth: int, cap: int) -> tuple[np.ndarray, int]:
    """The depth-n level of _products; refused before any product is built."""
    _check_budget(s.count, depth, cap)
    for batch in _products(s, depth, cap):
        pass
    return batch


def _root(values: np.ndarray, depth: int, e: int) -> float:
    """2^e * max(values)^(1/depth): a depth-n value of the unscaled family.

    Raises ValueError, with no warning, when that value exceeds the largest
    double: an inf would claim a bound the family does not have.
    """
    try:
        return math.ldexp(float(values.max()) ** (1.0 / depth), e)
    except OverflowError:
        raise ValueError(
            f"a depth-{depth} value exceeds the double range; rescale the family"
        ) from None


def _bounds(level: np.ndarray, depth: int, e: int) -> ProductBounds:
    lower = _root(_spectral_radii(level), depth, e)
    upper = _root(_spectral_norms(level), depth, e)
    return ProductBounds(depth, lower, upper, "euclidean")


def _trace(level: np.ndarray, depth: int, e: int) -> float:
    return _root(np.abs(level[0, 0] + level[1, 1]), depth, e)


def product_bounds(s: MatrixSet, depth: int, cap: int = DEFAULT_PRODUCT_CAP) -> ProductBounds:
    """Exhaustive depth-n bracket of the joint spectral radius.

    lower = (max spectral radius over products)^(1/n);
    upper = (max spectral norm over products)^(1/n), exact up to rounding.
    """
    depth = _checked_depth(depth)
    level, e = _deepest(s, depth, cap)
    return _bounds(level, depth, e)


def trace_estimate(s: MatrixSet, depth: int, cap: int = DEFAULT_PRODUCT_CAP) -> float:
    """max over depth-n products of |tr|^(1/n); diagnostic, not a bound."""
    depth = _checked_depth(depth)
    level, e = _deepest(s, depth, cap)
    return _trace(level, depth, e)


def depth_sweep(
    s: MatrixSet, max_depth: int, cap: int = DEFAULT_PRODUCT_CAP
) -> Iterator[tuple[ProductBounds, float]]:
    """Rows of product_bounds and trace_estimate for depths 1..max_depth, with
    equal results, building each depth once from the one before.

    A max_depth that is not an integer of at least 1 is refused here, before
    the rows are iterated.  A depth above cap raises EnumerationBudgetError
    after the rows before it.
    """
    max_depth = _checked_depth(max_depth)
    return (
        (_bounds(level, depth, e), _trace(level, depth, e))
        for depth, (level, e) in enumerate(_products(s, max_depth, cap), 1)
    )
