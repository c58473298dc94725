"""Planar norms stored as piecewise-linear radial profiles on an angular grid.

A norm on the plane is determined by its restriction h(phi) = |(cos phi,
sin phi)| to the unit circle.  Profiles are sampled at the uniform nodes
phi_j = -pi + 2*pi*j/N, interpolated linearly in angle between nodes, and
kept centrally symmetric (h_j = h_{j+N/2}, bit-exact) because a norm
satisfies |-x| = |x|.

Node sweeps go through elementwise array arithmetic rather than BLAS, and
single vectors through Python floats with the same IEEE operations in the
same order, so the two agree bitwise; several exactness guarantees
(normalization at a grid-aligned reference vector, scaling equivariance)
rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .matrices import MatrixSet, UnsupportedDimensionError

__all__ = [
    "AngularNorm",
    "euclidean",
    "evaluate",
    "max_image",
    "combine_linear",
    "combine_max",
    "normalize",
    "eccentricity",
]

TWO_PI = 2.0 * math.pi
MIN_NODES = 8

# Interpolation positions within this many node units of a node collapse onto
# it, so evaluation along a grid direction returns the stored value exactly.
# Well above the float error of the position computation (~2e-12 for N=3000)
# and far below anything that affects the stated tolerances.
_NODE_SNAP = 1e-11


class _Grid(NamedTuple):
    angles: np.ndarray  # node angles, ascending from -pi
    ux: np.ndarray      # unit vector x components, antipodal halves negate exactly
    uy: np.ndarray


@lru_cache(maxsize=16)
def _grid(n: int) -> _Grid:
    """Node angles and unit vectors for an N-node grid.

    The upper half (phi in [0, pi)) is computed directly with the cardinal
    directions pinned to exact (1,0) / (0,1); the lower half is its exact
    negation.  This makes antipodal symmetry and evaluation at the default
    reference vector e = (1,0) bit-exact.
    """
    half = n // 2
    step = TWO_PI / n
    angles = -math.pi + step * np.arange(n)
    upper = angles[half:]
    ux_up = np.cos(upper)
    uy_up = np.sin(upper)
    ux_up[0] = 1.0
    uy_up[0] = 0.0
    if n % 4 == 0:
        ux_up[n // 4] = 0.0
        uy_up[n // 4] = 1.0
    ux = np.concatenate([-ux_up, ux_up])
    uy = np.concatenate([-uy_up, uy_up])
    for arr in (angles, ux, uy):
        arr.flags.writeable = False
    return _Grid(angles, ux, uy)


@dataclass(frozen=True, eq=False)
class AngularNorm:
    """Radial profile h_j = |(cos phi_j, sin phi_j)| on the uniform grid.

    Construction validates positivity, finiteness and the node-count parity,
    and pins central symmetry by averaging antipodal nodes (an exact no-op
    when the input is already symmetric).
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError(f"profile must be one-dimensional, got shape {vals.shape}")
        n = vals.size
        if n < MIN_NODES or n % 2 != 0:
            raise ValueError(f"node count must be even and >= {MIN_NODES}, got {n}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        a, b = vals[:n // 2], vals[n // 2:]
        with np.errstate(over="ignore"):
            total = a + b
        # the antipodal mean, halving first where a + b overflows
        folded = np.where(np.isfinite(total), 0.5 * total, 0.5 * a + 0.5 * b)
        object.__setattr__(self, "values", _symmetric(folded))

    @classmethod
    def _from_half(cls, upper: np.ndarray) -> "AngularNorm":
        """The profile whose two halves are both upper, with the same checks.

        Skips the fold, which is exact for equal halves.
        """
        nm = object.__new__(cls)
        object.__setattr__(nm, "values", _symmetric(upper))
        return nm

    @property
    def node_count(self) -> int:
        return self.values.size

    def node_angles(self) -> np.ndarray:
        """Grid angles phi_j, ascending from -pi (read-only)."""
        return _grid(self.node_count).angles


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """Read-only node values upper, upper after the profile value checks."""
    if not np.all(np.isfinite(upper)):
        raise ValueError("profile values must be finite")
    if not np.all(upper > 0.0):
        raise ValueError("profile values must be positive")
    vals = np.concatenate([upper, upper])
    vals.flags.writeable = False
    return vals


def euclidean(n: int) -> AngularNorm:
    """Constant profile h = 1: the Euclidean norm, exactly, at any grid size."""
    return AngularNorm(np.ones(int(n)))


def _sector(x0, x1, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid sector index and in-sector weight f of the vectors (x0, x1).

    A vector at node position t lies between nodes idx and idx + 1 (mod n),
    at fraction f of the way; positions within _NODE_SNAP of a node snap to it.
    """
    t = (np.arctan2(x1, x0) + math.pi) * (n / TWO_PI)
    j = np.floor(t)
    f = t - j
    hi = f >= 1.0 - _NODE_SNAP
    j = np.where(hi, j + 1.0, j)
    f = np.where(hi | (f <= _NODE_SNAP), 0.0, f)
    return j.astype(np.intp) % n, f


def _images(mats, x0, x1):
    """The images A (x0, x1) of the vectors, one pair of arrays per matrix."""
    return ((a[0, 0] * x0 + a[0, 1] * x1, a[1, 0] * x0 + a[1, 1] * x1) for a in mats)


class _Points:
    """Interpolation terms of a few fixed vectors, evaluated in Python floats.

    Each vector y keeps (i0, i1, w0 = 1 - f, f, rad = |y|_2) for its grid
    sector, and max_norm() returns max over the vectors of
    rad * (w0 * h[i0] + f * h[i1]): the IEEE operations of _Stencil.apply,
    in the same order, without copying the profile.  The indices are taken
    modulo N/2, so a symmetric profile's full values and its upper half give
    the same result.
    """

    def __init__(self, y0, y1, n: int):
        i0, f = _sector(y0, y1, n)
        half = n // 2
        self.terms = tuple(zip(
            (i0 % half).tolist(), ((i0 + 1) % half).tolist(),
            (1.0 - f).tolist(), f.tolist(), np.hypot(y0, y1).tolist(),
        ))

    @classmethod
    def of_family(cls, mats, x0: float, x1: float, n: int) -> "_Points":
        """Terms of the images A (x0, x1), one per family member."""
        y0, y1 = (np.array(c) for c in zip(*_images(mats, x0, x1)))
        return cls(y0, y1, n)

    def max_norm(self, values: np.ndarray) -> float:
        """Largest profile norm among the vectors; NaN if any norm is NaN, as np.max."""
        best = -math.inf
        for i0, i1, w0, f, rad in self.terms:
            v = rad * (w0 * values.item(i0) + f * values.item(i1))
            if v > best or v != v:
                best = v
        return best


# Entries per block of a stencil apply: bounds its scratch buffers and keeps
# the working set in cache whatever the family size and grid.
_BLOCK = 16384


class _Stencil:
    """Interpolation stencil of the images y_kj = A_k x_j, reusable for any profile.

    Row k, column j stores the grid sector i0, the weights w0 = 1 - f and f,
    and the length rad = |y_kj|_2, so that apply() evaluates
    max_k rad * (w0 * h[i0] + f * h[i0 + 1]) with a gather and a multiply-add,
    without angle work.
    Memory is 32 bytes per entry plus two block buffers; apply() writes into
    the buffers, so one stencil serves one thread.
    """

    def __init__(self, mats, x0, x1, n: int):
        shape = rows, cols = len(mats), np.size(x0)
        self.i0 = np.empty(shape, dtype=np.intp)
        self.f = np.empty(shape)
        self.rad = np.empty(shape)
        for k, (y0, y1) in enumerate(_images(mats, x0, x1)):
            self.i0[k], self.f[k] = _sector(y0, y1, n)
            self.rad[k] = np.hypot(y0, y1)
        self.w0 = 1.0 - self.f
        width = min(cols, _BLOCK)
        height = max(1, _BLOCK // width)
        self._blocks = [
            (slice(r0, r0 + height), slice(c0, c0 + width))
            for c0 in range(0, cols, width)
            for r0 in range(0, rows, height)
        ]
        self._buf = np.empty((2, min(rows, height) * width))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """max over the rows of the profile norms of the stored vectors."""
        ahead = np.concatenate([values[1:], values[:1]])  # ahead[i] = h[i + 1 mod n]
        best = np.empty(self.i0.shape[1])
        for rows, cols in self._blocks:
            i0 = self.i0[rows, cols]
            a = self._buf[0, :i0.size].reshape(i0.shape)
            b = self._buf[1, :i0.size].reshape(i0.shape)
            np.take(values, i0, out=a, mode="clip")
            np.take(ahead, i0, out=b, mode="clip")
            np.multiply(self.w0[rows, cols], a, out=a)
            np.multiply(self.f[rows, cols], b, out=b)
            np.add(a, b, out=a)
            np.multiply(self.rad[rows, cols], a, out=a)
            if rows.start == 0:
                np.max(a, axis=0, out=best[cols])
            else:
                column = self._buf[1, :i0.shape[1]]
                np.max(a, axis=0, out=column)
                np.maximum(best[cols], column, out=best[cols])
        return best


def _image_max_xy(values: np.ndarray, mats, x0, x1) -> np.ndarray:
    """max over the family of the profile norm of A (x0, x1)."""
    return _Stencil(mats, x0, x1, values.size).apply(values)


def _upper_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors of the upper-half nodes (phi in [0, pi))."""
    g = _grid(n)
    return g.ux[n // 2:], g.uy[n // 2:]


def _node_image_max(nm: AngularNorm, s: MatrixSet) -> np.ndarray:
    """Image maxima at the upper-half node directions (phi in [0, pi))."""
    _require_planar(s)
    return _image_max_xy(nm.values, s.arrays(), *_upper_nodes(nm.node_count))


class _ImagePlan:
    """The fixed vectors of one relaxation solve: the family, its grid and e.

    Holds the stencil of every upper-half node under every matrix, and the
    terms of the images A_i e and of e itself.  Built once per solve; each
    step then reads the node image maxima, gamma_lr and the norm of e off it
    with no angle work.  image_at_e and norm_at_e evaluate the terms that
    max_image and evaluate build, so they agree bitwise.
    """

    def __init__(self, s: MatrixSet, n: int, e):
        _require_planar(s)
        e0, e1 = _checked_vector(e)
        mats = s.arrays()
        self.nodes = _Stencil(mats, *_upper_nodes(n), n)
        self.images_of_e = _Points.of_family(mats, e0, e1, n)
        self.e = _Points(np.array([e0]), np.array([e1]), n)

    def node_image_max(self, nm: AngularNorm) -> np.ndarray:
        """max_i |A_i u_j| at the upper-half nodes u_j."""
        return self.nodes.apply(nm.values)

    def image_at_e(self, nm: AngularNorm) -> float:
        """max_i |A_i e|, bitwise equal to max_image(nm, s, e)."""
        return self.images_of_e.max_norm(nm.values)

    def norm_at_e(self, nm: AngularNorm) -> float:
        """|e|, bitwise equal to evaluate(nm, e)."""
        return self.e.max_norm(nm.values)


def _require_planar(s: MatrixSet) -> None:
    if s.dim != 2:
        raise UnsupportedDimensionError(f"angular norms are planar; matrix dim is {s.dim}")


def _checked_vector(x) -> tuple[float, float]:
    x0, x1 = float(x[0]), float(x[1])
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError("vector entries must be finite")
    return x0, x1


def evaluate(nm: AngularNorm, x) -> float:
    """Norm of the planar vector x (0 at the origin)."""
    x0, x1 = _checked_vector(x)
    if x0 == 0.0 and x1 == 0.0:
        return 0.0
    return _Points(np.array([x0]), np.array([x1]), nm.node_count).max_norm(nm.values)


def max_image(nm: AngularNorm, s: MatrixSet, x) -> float:
    """Largest norm among the images A x over the family."""
    _require_planar(s)
    x0, x1 = _checked_vector(x)
    return _Points.of_family(s.arrays(), x0, x1, nm.node_count).max_norm(nm.values)


def combine_linear(nm: AngularNorm, s: MatrixSet, lam: float, gamma: float) -> AngularNorm:
    """Blend the profile with its scaled image profile.

    The new node values are lam * h_j + (1 - lam) * max_i |A_i u_j| / gamma.
    Requires lam strictly inside (0, 1) and gamma > 0.
    """
    _require_planar(s)
    return AngularNorm._from_half(_blend_linear(nm, _node_image_max(nm, s), lam, gamma))


def _blend_linear(nm: AngularNorm, m: np.ndarray, lam: float, gamma: float) -> np.ndarray:
    """Upper half of combine_linear given the node image maxima m."""
    lam = float(lam)
    gamma = float(gamma)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie strictly inside (0, 1), got {lam}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    upper = nm.values[nm.node_count // 2:]
    return lam * upper + (1.0 - lam) * (m / gamma)


def combine_max(nm: AngularNorm, s: MatrixSet, gamma: float) -> AngularNorm:
    """Pointwise maximum of the profile and its scaled image profile."""
    _require_planar(s)
    return AngularNorm._from_half(_blend_max(nm, _node_image_max(nm, s), gamma))


def _blend_max(nm: AngularNorm, m: np.ndarray, gamma: float) -> np.ndarray:
    """Upper half of combine_max given the node image maxima m."""
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    upper = nm.values[nm.node_count // 2:]
    return np.maximum(upper, m / gamma)


def normalize(nm: AngularNorm, e) -> AngularNorm:
    """Rescale so the reference vector e has norm 1."""
    e0, e1 = _checked_vector(e)
    if e0 == 0.0 and e1 == 0.0:
        raise ValueError("reference vector must be nonzero")
    return AngularNorm(nm.values / evaluate(nm, (e0, e1)))


def eccentricity(n1: AngularNorm, n2: AngularNorm) -> float:
    """Spread of the node-value ratio h1/h2: max ratio over min ratio (>= 1)."""
    if n1.node_count != n2.node_count:
        raise ValueError(
            f"node counts differ: {n1.node_count} vs {n2.node_count}"
        )
    ratio = n1.values / n2.values
    return float(ratio.max() / ratio.min())
