"""Proven bounds on the joint spectral radius from explicit products, numpy only.

For every product P of depth d over the family, rho(P)^(1/d) <= rho(A) <=
max_P ||P||_2^(1/d).  The benchmark judges each output of the program against
these bounds and never calls jsrelax to compute them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Products enumerated at the deepest level; the depth is the largest d with
# r^d within this budget (12 for r=2, 4 for r=8, 2 for r=32, 7 for r=3).
PRODUCT_BUDGET = 4096

# Relative allowance for floating-point rounding only.  Checked in 40-digit
# arithmetic, the bounds of every workload family were off by at most 4e-16
# relative; 1e-12 is about 4500 ulp.  (A product with a defective eigenvalue
# can be off by 2e-8, but none sets a bound here.)  The grid-bracket defect
# this check exists to find is 1e-8 to 1e-6 relative.
ROUNDING_MARGIN = 1e-12


@dataclass(frozen=True)
class Reference:
    """rho(A) lies in [lower, upper]; both come from products up to `depth`."""

    lower: float
    upper: float
    depth: int


def product_depth(r: int) -> int:
    """Largest depth d >= 1 with r^d <= PRODUCT_BUDGET (1 for a single matrix)."""
    if r < 2:
        return 1
    depth = 1
    while r ** (depth + 1) <= PRODUCT_BUDGET:
        depth += 1
    return depth


def reference_bounds(mats) -> Reference:
    """Best lower and upper bound over all depths 1..D of explicit products."""
    mats = np.asarray(mats, dtype=float)
    depth = product_depth(len(mats))
    prods = mats
    lower, upper = 0.0, np.inf
    for d in range(1, depth + 1):
        if d > 1:
            prods = np.einsum("aij,kjl->akil", mats, prods).reshape(-1, 2, 2)
        radius = float(np.abs(np.linalg.eigvals(prods)).max())
        norm = float(np.linalg.norm(prods, ord=2, axis=(1, 2)).max())
        lower = max(lower, radius ** (1.0 / d))
        upper = min(upper, norm ** (1.0 / d))
    return Reference(lower, upper, depth)


def contradicts(lo: float, hi: float, ref: Reference) -> bool:
    """True when the claim lo <= rho(A) <= hi is provably false (or not a number).

    The claim is false when its upper end lies below the proven lower bound or
    its lower end above the proven upper bound, beyond rounding.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return True
    return hi < ref.lower * (1.0 - ROUNDING_MARGIN) or lo > ref.upper * (1.0 + ROUNDING_MARGIN)
