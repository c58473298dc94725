"""Real 2x2 matrix values, spectral radius, and the common-invariant-line test."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Matrix",
    "MatrixSet",
    "UnsupportedDimensionError",
    "spectral_radius",
    "is_irreducible",
]

# Two directions count as the same line when they differ by less than this angle.
ANGLE_TOL = 1e-10


class UnsupportedDimensionError(ValueError):
    """Raised when a matrix is not 2x2; Matrix refuses every other shape."""


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable real 2x2 matrix with finite entries (row-major).

    The radial-profile norms are planar, so this is the one place that
    decides the dimension: any other shape raises UnsupportedDimensionError.
    """

    entries: np.ndarray
    dim = 2  # not a field: the one dimension a Matrix can have

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (2, 2):
            raise UnsupportedDimensionError(f"a matrix must be 2x2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """Ordered family of 2x2 matrices, not all zero."""

    matrices: tuple[Matrix, ...]
    dim = 2

    def __post_init__(self):
        mats = tuple(m if isinstance(m, Matrix) else Matrix(m) for m in self.matrices)
        if not mats:
            raise ValueError("matrix set must contain at least one matrix")
        if all(not m.entries.any() for m in mats):
            raise ValueError("matrix set must contain at least one nonzero matrix")
        object.__setattr__(self, "matrices", mats)

    @property
    def count(self) -> int:
        return len(self.matrices)

    def arrays(self) -> list[np.ndarray]:
        """Entry arrays of the members, in order (read-only views)."""
        return [m.entries for m in self.matrices]

    def __iter__(self):
        return iter(self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)


def _count(value, name: str) -> int:
    """value as an int; refuses a bool and any value that is not an integer type.

    RelaxConfig's node count and iteration cap and the oracle's depths use it.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str) -> float:
    """value as a float; refuses a bool and any value that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be one number, got {value!r}")
    return float(value)


def spectral_radius(a: Matrix) -> float:
    """Largest eigenvalue magnitude, by the closed form of _spectral_radii."""
    e, exp = _unit_scaled(a.entries)
    return math.ldexp(float(_spectral_radii(e)), exp)


def _spectral_radii(m: np.ndarray) -> np.ndarray:
    """Closed-form spectral radii of 2x2 matrices stored component-major:
    m[i, j] holds the (i, j) entries, one array (or scalar) per component.

    For a real pair the extreme eigenvalue is (|tr| + sqrt(disc)) / 2, and
    for a complex pair |lambda|^2 equals the determinant.
    """
    p, q, r, s = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    tr = p + s
    det = p * s - q * r
    disc = tr * tr - 4.0 * det
    real = 0.5 * (np.abs(tr) + np.sqrt(np.maximum(disc, 0.0)))
    # complex conjugate pair; det > 0 is forced by a negative discriminant
    complex_pair = np.sqrt(np.maximum(det, 0.0))
    return np.where(disc >= 0.0, real, complex_pair)


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """Closed-form spectral norms (largest singular values) of 2x2 matrices
    stored component-major, as in _spectral_radii.

    [[p, q], [r, s]] splits into a scaled rotation and a scaled reflection
    whose gains add: hypot((p+s)/2, (r-q)/2) + hypot((p-s)/2, (r+q)/2).
    hypot squares nothing, and both terms are nonnegative, so the sum has no
    cancellation.
    """
    p, q, r, s = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    return np.hypot(0.5 * (p + s), 0.5 * (r - q)) + np.hypot(0.5 * (p - s), 0.5 * (r + q))


def _unit_scaled(e: np.ndarray) -> tuple[np.ndarray, int]:
    """e divided by 2^exp, the power of two just above its largest entry, and exp.

    The division is exact, so tr^2 and det of the result neither overflow nor
    underflow, and 2^k * A gives bitwise the same result as A.
    """
    exp = math.frexp(max(map(abs, e.ravel().tolist())))[1]
    return np.ldexp(e, -exp), exp


def _eigendirections(e: np.ndarray) -> list[np.ndarray] | None:
    """Real eigendirections of a 2x2 matrix, as unit vectors.

    Returns None when every direction is invariant (scalar multiples of the
    identity, including the zero matrix) and an empty list when the
    eigenvalues form a complex pair.
    """
    scale = float(np.abs(e).max())
    if scale == 0.0:
        return None
    tr = float(e[0, 0] + e[1, 1])
    det = float(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])
    disc = tr * tr - 4.0 * det
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    lams = [0.5 * (tr + root)]
    if root != 0.0:
        lams.append(0.5 * (tr - root))
    dirs: list[np.ndarray] = []
    for lam in lams:
        # null vectors of (A - lam I); the two candidates cover b = 0 / c = 0
        v1 = np.array([float(e[0, 1]), lam - float(e[0, 0])])
        v2 = np.array([lam - float(e[1, 1]), float(e[1, 0])])
        v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
        norm = math.hypot(*v)
        if norm <= 1e-12 * max(scale, abs(lam)):
            # A - lam I vanishes: scalar multiple of the identity
            return None
        v = v / norm
        if not any(abs(v[0] * w[1] - v[1] * w[0]) <= ANGLE_TOL for w in dirs):
            dirs.append(v)
    return dirs


def _line_invariant(e: np.ndarray, v: np.ndarray) -> bool:
    """Whether the line spanned by unit vector v is mapped into itself by e."""
    w0 = float(e[0, 0]) * v[0] + float(e[0, 1]) * v[1]
    w1 = float(e[1, 0]) * v[0] + float(e[1, 1]) * v[1]
    wn = math.hypot(w0, w1)
    if wn == 0.0:
        return True
    return abs(v[0] * w1 - v[1] * w0) / wn <= ANGLE_TOL


def is_irreducible(s: MatrixSet) -> bool:
    """True iff the 2x2 family has no common invariant line.

    A common invariant line must be a real eigendirection of every member
    that is not a scalar multiple of the identity, so it suffices to take
    the (at most two) eigendirections of the first non-scalar member and
    test them against the whole family.
    """
    # eigendirections and invariant lines are scale-free: test each member
    # divided by a power of two, so tr^2, det and A v stay in range
    candidates: list[np.ndarray] | None = None
    for m in s:
        dirs = _eigendirections(_unit_scaled(m.entries)[0])
        if dirs is None:
            continue  # scalar member constrains nothing
        if not dirs:
            return True  # complex pair: no real line is invariant under m
        candidates = dirs
        break
    if candidates is None:
        # every member is scalar, so every line is invariant
        return False
    members = [_unit_scaled(m.entries)[0] for m in s]
    for v in candidates:
        if all(_line_invariant(e, v) for e in members):
            return False
    return True
