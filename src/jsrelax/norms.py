"""Planar norms stored as piecewise-linear radial profiles on an angular grid.

A norm on the plane is determined by its restriction h(phi) = |(cos phi,
sin phi)| to the unit circle.  Profiles are sampled at the uniform nodes
phi_j = -pi + 2*pi*j/N, interpolated linearly in angle between nodes, and
kept centrally symmetric (h_j = h_{j+N/2}, bit-exact) because a norm
satisfies |-x| = |x|.  So the upper half (phi in [0, pi)) holds every node
value, and the stencils below index it alone.

Node sweeps go through elementwise array arithmetic rather than BLAS, and
single vectors through Python floats with the same IEEE operations in the
same order, so the two agree bitwise; several exactness guarantees
(normalization at a grid-aligned reference vector, scaling equivariance)
rely on this.  A relaxation solve builds one _ImagePlan, the only builder
of a node stencil, whose stencil and buffers every step reuses;
combine_linear and combine_max write a step's next profile from the plan's
node image maxima, and each step allocates only that profile.
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
        vals[n // 2:] = np.where(np.isfinite(total), 0.5 * total, 0.5 * a + 0.5 * b)
        object.__setattr__(self, "values", _symmetric(vals))

    @classmethod
    def _adopt(cls, vals: np.ndarray) -> "AngularNorm":
        """The profile of a fresh array whose upper half holds the node values.

        Checks and mirrors that half as construction does, skipping the fold,
        which is exact for equal halves.  vals becomes the profile's storage.
        """
        nm = object.__new__(cls)
        object.__setattr__(nm, "values", _symmetric(vals))
        return nm

    @property
    def node_count(self) -> int:
        return self.values.size

    def node_angles(self) -> np.ndarray:
        """Grid angles phi_j, ascending from -pi (read-only)."""
        return _grid(self.node_count).angles


def _symmetric(vals: np.ndarray) -> np.ndarray:
    """vals, read-only, with its upper half checked and copied into its lower half.

    Non-finite values are refused before non-positive ones.  One min and one
    max decide both: a NaN propagates into each, and the values are all
    finite exactly when both extremes are.
    """
    half = vals.size // 2
    upper = vals[half:]
    lo, hi = float(np.minimum.reduce(upper)), float(np.maximum.reduce(upper))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("profile values must be finite")
    if not lo > 0.0:
        raise ValueError("profile values must be positive")
    vals[:half] = upper
    vals.flags.writeable = False
    return vals


def euclidean(n: int) -> AngularNorm:
    """Constant profile h = 1: the Euclidean norm, exactly, at any grid size."""
    return AngularNorm(np.ones(int(n)))


def _sector(x0, x1, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid sector index, modulo N/2, and in-sector weight f of the vectors (x0, x1).

    A vector at node position t lies between nodes idx and idx + 1 (mod n),
    at fraction f of the way; positions within _NODE_SNAP of a node snap to it.
    idx is returned modulo N/2, which indexes either half of a symmetric profile.
    """
    t = np.arctan2(x1, x0)
    t += math.pi
    t *= n / TWO_PI  # t >= +0.0, so adding 0.0 below changes no bit
    j = np.floor(t)
    f = np.subtract(t, j, out=t)
    hi = f >= 1.0 - _NODE_SNAP
    j += hi
    np.putmask(f, hi | (f <= _NODE_SNAP), 0.0)
    return j.astype(np.intp) % (n // 2), f


def _entries(mats) -> np.ndarray:
    """The matrices' entries a00, a01, a10, a11 as entry[:, 0..3], each of shape (rows, 1)."""
    return np.array(mats, dtype=float).reshape(len(mats), 4, 1)


def _images(entry: np.ndarray, x0, x1) -> tuple[np.ndarray, np.ndarray]:
    """The images A (x0, x1) of the vectors, one row per matrix of _entries (or a row slice)."""
    return entry[:, 0] * x0 + entry[:, 1] * x1, entry[:, 2] * x0 + entry[:, 3] * x1


class _Points:
    """Interpolation terms of a few fixed vectors, evaluated in Python floats.

    Each vector y keeps (i0, i1, w0 = 1 - f, f, rad = |y|_2) for its grid
    sector, and max_norm() returns max over the vectors of
    rad * (w0 * h[i0] + f * h[i1]): the IEEE operations of _Stencil.apply,
    in the same order, without copying the profile.  The indices are taken
    modulo N/2, so a symmetric profile's full values and its upper half give
    the same result.

    A vector that overflowed gets an infinite or NaN length, without a
    warning; finite says whether every length is finite.
    """

    def __init__(self, y0, y1, n: int):
        half = n // 2
        with np.errstate(over="ignore", invalid="ignore"):
            i0, f = _sector(y0, y1, n)
            rad = np.hypot(y0, y1)
        self.finite = bool(np.isfinite(rad).all())
        self.terms = tuple(zip(
            i0.tolist(), ((i0 + 1) % half).tolist(),
            (1.0 - f).tolist(), f.tolist(), rad.tolist(),
        ))

    @classmethod
    def of_family(cls, mats, x0: float, x1: float, n: int) -> "_Points":
        """Terms of the images A (x0, x1), one per family member."""
        with np.errstate(over="ignore", invalid="ignore"):
            y0, y1 = _images(_entries(mats), np.array([x0]), np.array([x1]))
        return cls(y0.ravel(), y1.ravel(), n)

    def max_norm(self, values: np.ndarray) -> float:
        """Largest profile norm among the vectors; NaN if any norm is NaN, as np.max."""
        best = -math.inf
        for i0, i1, w0, f, rad in self.terms:
            v = rad * (w0 * values.item(i0) + f * values.item(i1))
            if v > best or v != v:
                best = v
        return best


# Entries per block of a stencil apply, and of a stencil build.  They keep
# the working set in cache whatever the family and grid, and every temporary
# at most 16K doubles, within glibc's mmap threshold, so that freeing one does
# not hand it back to the system and make the next allocation page-fault.
# An apply works in two preallocated block buffers; a build makes about eight
# temporaries per block, so it takes smaller blocks, which keep a solve's
# peak memory about 0.5 MB lower.
_BLOCK = 16384
_BUILD_BLOCK = 4096


def _tiles(rows: int, cols: int, size: int) -> list[tuple[slice, slice]]:
    """Blocks of at most size entries covering a C-ordered (rows, cols) array.

    A block is whole rows when a row fits, else a segment of one row, so every
    block is contiguous.  The row blocks of the same columns come in order.
    """
    width = min(cols, size)
    height = max(1, size // width)
    return [
        (slice(r0, min(r0 + height, rows)), slice(c0, min(c0 + width, cols)))
        for c0 in range(0, cols, width)
        for r0 in range(0, rows, height)
    ]


class _Stencil:
    """Interpolation stencil of the images y_kj = A_k x_j, reusable for any profile.

    Row k, column j stores the grid sector i0 modulo N/2, the weights
    w0 = 1 - f and f, and the length rad = |y_kj|_2, so that apply() evaluates
    max_k rad * (w0 * h[i0] + f * h[i0 + 1]) with a gather and a multiply-add
    and no angle work.  A symmetric profile repeats its upper half, so
    h[i0] and h[i0 + 1] are values[i0] and values[1:][i0]: apply() reads
    values[:N/2 + 1] and needs no shifted copy of the profile.  The build maps
    all rows at once, block by block, with the same _sector and hypot per
    entry as a map of one row at a time.

    Memory is 32 bytes per entry, an output buffer of one value per column
    and two block buffers.  apply() works in those buffers and returns the
    output buffer, which its next call overwrites; so one stencil serves one
    thread.
    """

    def __init__(self, mats, x0, x1, n: int):
        rows, cols = len(mats), np.size(x0)
        entry = _entries(mats)
        self.i0 = np.empty((rows, cols), dtype=np.intp)
        self.w0 = np.empty((rows, cols))
        self.f = np.empty((rows, cols))
        self.rad = np.empty((rows, cols))
        for r, c in _tiles(rows, cols, _BUILD_BLOCK):
            y0, y1 = _images(entry[r], x0[c], x1[c])
            self.i0[r, c], f = _sector(y0, y1, n)
            self.f[r, c] = f
            np.subtract(1.0, f, out=self.w0[r, c])
            np.hypot(y0, y1, out=self.rad[r, c])
        self.best = np.empty(cols)
        tiles = _tiles(rows, cols, _BLOCK)
        r, c = tiles[0]
        buf = np.empty((2, (r.stop - r.start) * (c.stop - c.start)))
        # per block: its stencil views, two scratch views and its output view;
        # a one-row block gets 1-d views and needs no reduction over rows
        self._blocks = []
        for r, c in tiles:
            first = r.start == 0
            if r.stop - r.start == 1:
                r = r.start
            i0 = self.i0[r, c]
            a, b = buf[:, :i0.size].reshape((2,) + i0.shape)
            self._blocks.append(
                (i0, self.w0[r, c], self.f[r, c], self.rad[r, c], a, b, self.best[c], first)
            )

    def apply(self, values: np.ndarray) -> np.ndarray:
        """max over the rows of the profile norms of the stored vectors.

        values is a symmetric profile.  Returns the output buffer, which the
        next call overwrites.
        """
        ahead = values[1:]  # ahead[i] = h[i + 1]
        for i0, w0, f, rad, a, b, best, first in self._blocks:
            values.take(i0, out=a, mode="clip")
            ahead.take(i0, out=b, mode="clip")
            np.multiply(w0, a, out=a)
            np.multiply(f, b, out=b)
            np.add(a, b, out=a)
            if a.ndim == 1:
                if first:
                    np.multiply(rad, a, out=best)
                else:
                    np.multiply(rad, a, out=a)
                    np.maximum(best, a, out=best)
            else:
                np.multiply(rad, a, out=a)
                if first:
                    np.maximum.reduce(a, axis=0, out=best)
                else:
                    np.maximum.reduce(a, axis=0, out=b[0])
                    np.maximum(best, b[0], out=best)
        return self.best


class _ImagePlan:
    """The fixed vectors of one relaxation solve, and the solve's workspace.

    Holds the stencil of every upper-half node under every matrix, and the
    terms of the images A_i e and of e itself.  Built once per solve, and the
    only builder of a stencil; each step then reads the node image maxima,
    the lr gamma max_i |A_i e| and the norm of e off it with no angle work.
    image_at_e and norm_at_e evaluate the terms that max_image and evaluate
    build, so they agree bitwise.

    The workspace is the stencil's node-maximum output and block buffers, and
    the bracket-ratio buffer `ratio`.  node_image_max returns the output
    array itself, and its next call overwrites it; so one plan serves one
    thread, and a caller that keeps the maxima past the next call copies them.

    Raises ValueError, before any step and without a warning, if e or one of
    these images has no finite Euclidean length.
    """

    def __init__(self, s: MatrixSet, n: int, e):
        _require_planar(s)
        e0, e1 = _checked_vector(e)
        mats = s.arrays()
        g = _grid(n)
        # a node image that overflows gets an infinite or NaN length, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            self.nodes = _Stencil(mats, g.ux[n // 2:], g.uy[n // 2:], n)
        self.images_of_e = _Points.of_family(mats, e0, e1, n)
        self.e = _Points(np.array([e0]), np.array([e1]), n)
        self.ratio = np.empty(n // 2)
        if not math.isfinite(self.nodes.rad.max()):  # max keeps a NaN
            raise ValueError(
                "the family maps a grid node to a vector of non-finite length; "
                "rescale the family"
            )
        if not (self.e.finite and self.images_of_e.finite):
            raise ValueError(
                f"e = ({e0!r}, {e1!r}) or one of its images A_i e has a non-finite "
                "length; rescale e"
            )

    def node_image_max(self, nm: AngularNorm) -> np.ndarray:
        """max_i |A_i u_j| at the upper-half nodes u_j, in the plan's output buffer."""
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
    """Norm of the planar vector x (0 at the origin).

    Raises ValueError if x has no finite Euclidean length.
    """
    x0, x1 = _checked_vector(x)
    if x0 == 0.0 and x1 == 0.0:
        return 0.0
    return _vector_points(x0, x1, nm.node_count).max_norm(nm.values)


def _vector_points(x0: float, x1: float, n: int) -> _Points:
    """Terms of the vector (x0, x1); raises ValueError if its length is not finite."""
    pts = _Points(np.array([x0]), np.array([x1]), n)
    if not pts.finite:
        raise ValueError(f"x = ({x0!r}, {x1!r}) has a non-finite length; rescale x")
    return pts


def max_image(nm: AngularNorm, s: MatrixSet, x) -> float:
    """Largest norm among the images A x over the family.

    Raises ValueError if one of the images has no finite Euclidean length.
    """
    _require_planar(s)
    x0, x1 = _checked_vector(x)
    pts = _Points.of_family(s.arrays(), x0, x1, nm.node_count)
    if not pts.finite:
        raise ValueError(
            f"one of the images A_i x of x = ({x0!r}, {x1!r}) has a non-finite length; "
            "rescale x"
        )
    return pts.max_norm(nm.values)


def combine_linear(nm: AngularNorm, m: np.ndarray, lam: float, gamma: float, out) -> None:
    """Blend the profile with its scaled image profile, into out.

    Given the node image maxima m = max_i |A_i u_j| at the upper-half nodes,
    writes the next upper half lam * h_j + (1 - lam) * m_j / gamma into out;
    m is overwritten.  Requires lam strictly inside (0, 1) and gamma > 0.
    """
    lam = float(lam)
    gamma = float(gamma)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie strictly inside (0, 1), got {lam}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    # lam * upper + (1 - lam) * (m / gamma), operation by operation
    np.multiply(lam, nm.values[nm.node_count // 2:], out=out)
    np.divide(m, gamma, out=m)
    np.multiply(1.0 - lam, m, out=m)
    np.add(out, m, out=out)


def combine_max(nm: AngularNorm, m: np.ndarray, gamma: float, out) -> None:
    """Pointwise maximum of the profile and its scaled image profile, into out.

    Given the node image maxima m at the upper-half nodes, writes the next
    upper half max(h_j, m_j / gamma) into out.  Requires gamma > 0.
    """
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    np.divide(m, gamma, out=out)
    np.maximum(nm.values[nm.node_count // 2:], out, out=out)


def normalize(nm: AngularNorm, e) -> AngularNorm:
    """Rescale so the reference vector e has norm 1.

    Raises ValueError, with no warning, if e is so short (subnormal, say)
    that a rescaled value would not be finite.
    """
    e0, e1 = _checked_vector(e)
    if e0 == 0.0 and e1 == 0.0:
        raise ValueError("reference vector must be nonzero")
    v = evaluate(nm, (e0, e1))
    # division is monotone, so the largest value decides whether all stay finite
    if not (v > 0.0 and math.isfinite(float(nm.values.max()) / v)):
        raise ValueError(
            f"e = ({e0!r}, {e1!r}) is too short: the profile rescaled to norm 1 at e "
            "is not finite; rescale e"
        )
    # a symmetric profile over a scalar keeps its halves equal: no fold needed
    return AngularNorm._adopt(nm.values / v)


def eccentricity(n1: AngularNorm, n2: AngularNorm) -> float:
    """Spread of the node-value ratio h1/h2: max ratio over min ratio (>= 1)."""
    if n1.node_count != n2.node_count:
        raise ValueError(
            f"node counts differ: {n1.node_count} vs {n2.node_count}"
        )
    ratio = n1.values / n2.values
    return float(ratio.max() / ratio.min())
