"""Brute-force product enumeration for cross-checking the relaxation bracket.

For depth n the r^n ordered products give a lower bound (largest spectral
radius, to the power 1/n) and an upper bound (largest spectral norm, to the
power 1/n) on the joint spectral radius.  Both are closed forms over the
whole product batch, exact within a few ulp.  The family is divided by a
power of two first, so its overall scale cannot overflow or underflow them.
The trace-based estimate converges to the same limit but at finite depth is
neither a lower nor an upper bound, so it is reported as a diagnostic only.

Depth n is built from depth n-1 by one level builder (_extend): broadcast
multiply-adds over blocks of at most 2^14 products, bitwise equal to an
einsum level.  Building depth n holds depths n-1 and n (32 bytes per 2x2
product) plus two scratch blocks (1 MB for 2x2), so peak memory is set by
the deepest batch.  On a 2-vCPU x86-64 host, example 1's depth-16 level
(65536 products) takes about 1.6 ms and its depth-20 level about 35 ms;
depth_sweep to depth 20 takes about 0.4 s, most of it the closed forms over
the 2^20 products.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .matrices import MatrixSet, UnsupportedDimensionError

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
    by 2^e, and e.  Each depth is built from the one before.

    2^e is the power of two just above the largest entry; it divides exactly,
    so the products of 2^k * A equal those of A.  A depth whose product count
    exceeds cap raises EnumerationBudgetError before it is built.
    """
    mats = np.stack(s.arrays())
    e = math.frexp(float(np.abs(mats).max()))[1]
    mats = np.ldexp(mats, -e)
    prods = mats
    for n in range(1, depth + 1):
        _check_budget(s.count, n, cap)
        if n > 1:
            prods = _extend(mats, prods)
        yield prods, e


# Products per block of a level build: bounds the two scratch buffers, so a
# level needs its output and two blocks more.
_LEVEL_BLOCK = 1 << 14


def _extend(mats: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """The next depth level: A_a P_k for every member a and product k, a-major.

    Each entry sums the inner index j in order by broadcast multiply-adds,
    then adds +0.0, so a sum of -0.0 terms is +0.0 as in a sum started from
    zero.  The result equals np.einsum("aij,kjl->akil", mats, prods) bitwise,
    which the tests keep as the reference.  A block is summed with the
    product index last, so each multiply-add runs along the block, not along
    rows of length d.
    """
    r, d = mats.shape[0], mats.shape[1]
    count = prods.shape[0]
    out = np.empty((r, count, d, d))
    step = max(1, _LEVEL_BLOCK // r)
    acc = np.empty((r, d, d, min(step, count)))  # acc[a, i, l, k] = (A_a P_k)[i, l]
    term = np.empty_like(acc)
    for k0 in range(0, count, step):
        cols = prods[k0:k0 + step].transpose(1, 2, 0)  # cols[j, l, k] = P_k[j, l]
        n = cols.shape[2]
        total, part = acc[..., :n], term[..., :n]
        np.multiply(mats[:, :, 0, None, None], cols[None, None, 0], out=total)
        for j in range(1, d):
            np.multiply(mats[:, :, j, None, None], cols[None, None, j], out=part)
            total += part
        np.add(total.transpose(0, 3, 1, 2), 0.0, out=out[:, k0:k0 + step])
    return out.reshape(-1, d, d)


def _check_budget(count: int, depth: int, cap: int) -> None:
    required = count ** depth
    if required > cap:
        raise EnumerationBudgetError(count, depth, required, cap)


def _check_request(s: MatrixSet, depth: int) -> None:
    """Refuses a family that is not 2x2, then a depth below 1."""
    if s.dim != 2:
        raise UnsupportedDimensionError(f"the product oracle supports dim 2 only, got {s.dim}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def _deepest(s: MatrixSet, depth: int, cap: int) -> tuple[np.ndarray, int]:
    """The depth-n batch of _products; refused before any product is built."""
    _check_request(s, depth)
    _check_budget(s.count, depth, cap)
    for batch in _products(s, depth, cap):
        pass
    return batch


def _spectral_radii(prods: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 spectral radii for a batch of matrices."""
    tr = prods[:, 0, 0] + prods[:, 1, 1]
    det = prods[:, 0, 0] * prods[:, 1, 1] - prods[:, 0, 1] * prods[:, 1, 0]
    disc = tr * tr - 4.0 * det
    real = 0.5 * (np.abs(tr) + np.sqrt(np.maximum(disc, 0.0)))
    complex_pair = np.sqrt(np.maximum(det, 0.0))
    return np.where(disc >= 0.0, real, complex_pair)


def _spectral_norms(prods: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 spectral norms (largest singular values) for a batch.

    [[p, q], [r, s]] splits into a scaled rotation and a scaled reflection
    whose gains add: hypot((p+s)/2, (r-q)/2) + hypot((p-s)/2, (r+q)/2).
    hypot squares nothing, and both terms are nonnegative, so the sum has no
    cancellation.
    """
    p, q = prods[:, 0, 0], prods[:, 0, 1]
    r, s = prods[:, 1, 0], prods[:, 1, 1]
    return np.hypot(0.5 * (p + s), 0.5 * (r - q)) + np.hypot(0.5 * (p - s), 0.5 * (r + q))


def _root(values: np.ndarray, depth: int, e: int) -> float:
    """2^e * max(values)^(1/depth): a depth-n value of the unscaled family."""
    return float(np.ldexp(float(values.max()) ** (1.0 / depth), e))


def _bounds(prods: np.ndarray, depth: int, e: int) -> ProductBounds:
    lower = _root(_spectral_radii(prods), depth, e)
    upper = _root(_spectral_norms(prods), depth, e)
    return ProductBounds(depth, lower, upper, "euclidean")


def _trace(prods: np.ndarray, depth: int, e: int) -> float:
    return _root(np.abs(np.trace(prods, axis1=1, axis2=2)), depth, e)


def product_bounds(s: MatrixSet, depth: int, cap: int = DEFAULT_PRODUCT_CAP) -> ProductBounds:
    """Exhaustive depth-n bracket of the joint spectral radius.

    lower = (max spectral radius over products)^(1/n);
    upper = (max spectral norm over products)^(1/n), exact up to rounding.
    """
    prods, e = _deepest(s, depth, cap)
    return _bounds(prods, depth, e)


def trace_estimate(s: MatrixSet, depth: int, cap: int = DEFAULT_PRODUCT_CAP) -> float:
    """max over depth-n products of |tr|^(1/n); diagnostic, not a bound."""
    prods, e = _deepest(s, depth, cap)
    return _trace(prods, depth, e)


def depth_sweep(
    s: MatrixSet, max_depth: int, cap: int = DEFAULT_PRODUCT_CAP
) -> Iterator[tuple[ProductBounds, float]]:
    """Rows of product_bounds and trace_estimate for depths 1..max_depth, with
    equal results, building each depth once from the one before.

    A family that is not 2x2 and a max_depth below 1 are refused here, before
    the rows are iterated.  A depth above cap raises EnumerationBudgetError
    after the rows before it.
    """
    _check_request(s, max_depth)
    return (
        (_bounds(prods, depth, e), _trace(prods, depth, e))
        for depth, (prods, e) in enumerate(_products(s, max_depth, cap), 1)
    )
