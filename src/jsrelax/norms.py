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
node image maxima, and each step allocates only that profile.  A step maps
only the family members that can attain those maxima: a member whose
Euclidean image lengths stay below the longest image's by more than the
profile's spread max h / min h (its dominance margin) is skipped, which
changes no output bit (see _Stencil).

A plan lives for one solve and serves one thread.  When the solve ends, it
hands its stencil arrays to a one-set slot (_ImagePlan.release), and the
next plan of the same shape that a solve takes from it (_ImagePlan.reusing)
builds into them instead of allocating; the build rewrites every entry, so
no output bit depends on what the arrays held.  The slot keeps at most one
set, of at most _KEPT_MAX_BYTES, so a process keeps at most that much after
a solve returns.
"""

from __future__ import annotations

import bisect
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
    when the input is already symmetric).  The validation's min and max of
    the node values stay as _extremes = (min h, max h), which the image
    plan's member screening reads.
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
        _store(self, vals)

    @classmethod
    def _adopt(cls, vals: np.ndarray) -> "AngularNorm":
        """The profile of a fresh array whose upper half holds the node values.

        Checks and mirrors that half as construction does, skipping the fold,
        which is exact for equal halves.  vals becomes the profile's storage.
        """
        nm = object.__new__(cls)
        _store(nm, vals)
        return nm

    @property
    def node_count(self) -> int:
        return self.values.size

    def node_angles(self) -> np.ndarray:
        """Grid angles phi_j, ascending from -pi (read-only)."""
        return _grid(self.node_count).angles


class _ZeroValue(ValueError):
    """The least profile value is 0 (a step's positive value can underflow to 0)."""


def _store(nm: AngularNorm, vals: np.ndarray) -> None:
    """Make vals, read-only, nm's profile, with its upper half checked and
    copied into its lower half; keep the node extremes as nm._extremes.

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
        raise (_ZeroValue if lo == 0.0 else ValueError)("profile values must be positive")
    vals[:half] = upper
    vals.flags.writeable = False
    object.__setattr__(nm, "values", vals)
    object.__setattr__(nm, "_extremes", (lo, hi))


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


# A member is screened out of a step when its dominance margin exceeds the
# profile's spread max h / min h by this factor, far more than the few-ulp
# rounding of an interpolated value.  That rounding is relative only for node
# values in [_SCREEN_LO, _SCREEN_HI]: normal, and an interpolation of them
# still finite.  A profile outside it maps every member.
_MARGIN_SLACK = 1.0 + 1e-12
_SCREEN_LO = 2.0 ** -1022
_SCREEN_HI = 2.0 ** 1022
# A stencil orders its rows by their margins over about this many evenly
# spaced columns.  On the relax_family benchmark corpus (N = 3000) every solve
# then maps as many rows as with the rows in the order of their exact
# margins, and so it does with 32 columns; sorting the built rows by their
# exact margins instead moves the whole stencil, which made an r = 8 plan
# build at N = 300000 a third slower or more.
_SAMPLE_COLUMNS = 64


def _margins(rad: np.ndarray) -> np.ndarray:
    """The dominance margin of each row of rad.

    Row k's margin is min over the columns j of top_j / rad_kj, with top_j
    the largest length in column j: at least 1, exactly 1 for a row that is
    the longest somewhere, +inf for a row of length 0 wherever top_j > 0.
    Columns of length 0 in every row do not count.
    """
    top = np.maximum.reduce(rad, axis=0)
    margin = np.full(rad.shape[0], math.inf)
    # x/0 and 0/0 give inf and NaN, with no warning; fmin skips the NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, c in _tiles(*rad.shape, _BLOCK):
            np.fmin(margin[r], np.fmin.reduce(top[c] / rad[r, c], axis=1), out=margin[r])
    return margin


# The slot of released stencil arrays: at most one entry, under _KEPT_KEY,
# (shape, arrays) of the last plan released.  A set is taken with one
# dict.pop, so two threads never take the same set, and put with one
# assignment, which replaces any set there.  A set over _KEPT_MAX_BYTES is
# not kept: the benchmark corpus's largest (32 matrices on 3000 nodes) is
# 1.78 MB, and one of a 300000-node solve would pin tens of MB.
_KEPT_KEY = "stencil"
_KEPT_MAX_BYTES = 4 << 20
_kept: dict = {}


class _Stencil:
    """Interpolation stencil of the images y_kj = A_k x_j, reusable for any profile.

    Row k, column j stores the grid sector i0 modulo N/2, the weights
    w0 = 1 - f and f, and the length rad = |y_kj|_2, so that apply() evaluates
    max_k rad * (w0 * h[i0] + f * h[i0 + 1]) with a gather and a multiply-add
    and no angle work.  A symmetric profile repeats its upper half, so
    h[i0] and h[i0 + 1] are values[i0] and values[1:][i0]: apply() reads
    values[:N/2 + 1] and needs no shifted copy of the profile.

    Member screening.  Row k's value at column j is rad_kj times an
    interpolation of h, which lies within a few ulp of [min h, max h]; the
    longest row there, of length top_j, gives at least top_j * min h less
    those few ulp.  So where the row's dominance margin
    mu_k = min_j top_j / rad_kj (see _margins) exceeds the spread
    max h / min h by _MARGIN_SLACK, its value lies below the longest row's at
    every column and never attains the maximum.  The maximum is exact and
    independent of the row order, so apply() maps only the leading rows that
    rows_for() keeps and returns the same bits as a map of every row.

    The rows are stored in the order of their margins over a sample of the
    columns, likely those with small margins first; `members` holds the
    family index of each row.  `margin[k]` is the least exact margin of row
    k and the rows after it, so it never decreases, and the rows after the
    first k whose margin[k] exceeds a bound all exceed it.  When every
    margin is 1 (every member is the longest somewhere, or the last row is)
    apply() maps every row and does no screening work.  The build maps all
    rows at once, block by block, with the same _sector and hypot per entry
    as a map of one row at a time.

    Memory is 32 bytes per entry, an output buffer of one value per column
    and two block buffers.  apply() works in those buffers and returns the
    output buffer, which its next call overwrites; so one stencil serves one
    thread.  The four entry arrays and the block buffers (`arrays`) may come
    from an earlier stencil of the same (rows, cols): the build overwrites
    every entry of the entry arrays, and apply() every buffer entry it reads.
    """

    def __init__(self, mats, x0, x1, n: int, arrays: tuple | None = None):
        rows, cols = len(mats), np.size(x0)
        entry = _entries(mats)
        step = max(1, cols // _SAMPLE_COLUMNS)
        sampled = _margins(np.hypot(*_images(entry, x0[::step], x1[::step])))
        self.members = np.argsort(sampled, kind="stable")
        entry = entry[self.members]
        if arrays is None:
            r, c = _tiles(rows, cols, _BLOCK)[0]
            arrays = (np.empty((rows, cols), dtype=np.intp), np.empty((rows, cols)),
                      np.empty((rows, cols)), np.empty((rows, cols)),
                      np.empty((2, (r.stop - r.start) * (c.stop - c.start))))
        self.arrays = arrays
        self.i0, self.w0, self.f, self.rad, self._buf = arrays
        for r, c in _tiles(rows, cols, _BUILD_BLOCK):
            y0, y1 = _images(entry[r], x0[c], x1[c])
            self.i0[r, c], f = _sector(y0, y1, n)
            self.f[r, c] = f
            np.subtract(1.0, f, out=self.w0[r, c])
            np.hypot(y0, y1, out=self.rad[r, c])
        # the exact margins, each lowered to the least of its row and the rows
        # after it.  The sample's lengths are the build's at its columns, so a
        # row's exact margin is at most its sampled one: margins all 1 there
        # are exact.
        if sampled.max() > 1.0:
            self.margin = np.minimum.accumulate(_margins(self.rad)[::-1])[::-1].tolist()
        else:
            self.margin = [1.0] * rows
        self.best = np.empty(cols)
        self._blocks = {}  # the block views of each leading row count

    def _views(self, rows: int) -> list[tuple]:
        """Per block of the leading rows: its stencil views, two scratch views
        and its output view; a one-row block gets 1-d views and needs no
        reduction over rows."""
        blocks = []
        for r, c in _tiles(rows, self.best.size, _BLOCK):
            first = r.start == 0
            if r.stop - r.start == 1:
                r = r.start
            i0 = self.i0[r, c]
            a, b = self._buf[:, :i0.size].reshape((2,) + i0.shape)
            blocks.append((i0, self.w0[r, c], self.f[r, c], self.rad[r, c], a, b, self.best[c], first))
        self._blocks[rows] = blocks
        return blocks

    def rows_for(self, lo: float, hi: float) -> int:
        """How many leading rows can attain the maximum for a profile with
        node extremes lo = min h and hi = max h: those with margin at most
        (hi / lo) * _MARGIN_SLACK, and at least one; every row when no
        margin exceeds 1 or lo and hi leave the screening range."""
        margin = self.margin
        if margin[-1] <= 1.0 or not (_SCREEN_LO <= lo and hi <= _SCREEN_HI):
            return len(margin)
        return max(1, bisect.bisect_right(margin, hi / lo * _MARGIN_SLACK))

    def apply(self, values: np.ndarray, rows: int) -> np.ndarray:
        """max over the leading rows of the profile norms of the stored vectors.

        values is a symmetric profile, and rows at least rows_for() of its
        extremes.  Returns the output buffer, which the next call overwrites.
        """
        ahead = values[1:]  # ahead[i] = h[i + 1]
        blocks = self._blocks.get(rows) or self._views(rows)
        for i0, w0, f, rad, a, b, best, first in blocks:
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

    Lifetime.  A plan built directly, _ImagePlan(s, n, e), owns its arrays
    for as long as the caller keeps it, and release() leaves it alone.  A
    solve takes its plan from reusing() instead, which builds into the
    stencil arrays of the last released plan when their (rows, cols) match,
    and ends it with release(), which hands those arrays to the slot (see
    _kept) and unlinks them from the plan.

    Raises ValueError, before any step and without a warning, if e or one of
    these images has no finite Euclidean length.
    """

    def __init__(self, s: MatrixSet, n: int, e, arrays: tuple | None = None):
        _require_planar(s)
        e0, e1 = _checked_vector(e)
        mats = s.arrays()
        g = _grid(n)
        self._slot_shape = None  # (rows, cols) for a plan from reusing()
        # a node image that overflows gets an infinite or NaN length, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            self.nodes = _Stencil(mats, g.ux[n // 2:], g.uy[n // 2:], n, arrays)
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

    @classmethod
    def reusing(cls, s: MatrixSet, n: int, e) -> "_ImagePlan":
        """The plan of (s, n, e), built into the kept stencil arrays if they
        have its shape; its caller ends it with release().

        A kept set of another shape is freed before the build allocates, and
        the set of a build that raises is dropped: the slot stays empty until
        the next release.
        """
        shape = (s.count, n // 2)
        kept = _kept.pop(_KEPT_KEY, None)
        arrays = kept[1] if kept is not None and kept[0] == shape else None
        del kept
        plan = cls(s, n, e, arrays)
        plan._slot_shape = shape
        return plan

    def release(self) -> None:
        """End a plan from reusing(): keep its stencil arrays for the next
        plan of the same shape, if they are at most _KEPT_MAX_BYTES, and make
        this plan unusable.  A plan built directly is left as it is."""
        shape, self._slot_shape = self._slot_shape, None
        if shape is None:
            return
        arrays, self.nodes = self.nodes.arrays, None
        if sum(a.nbytes for a in arrays) <= _KEPT_MAX_BYTES:
            _kept[_KEPT_KEY] = (shape, arrays)

    def members_mapped(self, nm: AngularNorm) -> int:
        """How many family members node_image_max(nm) maps: those whose
        dominance margin the spread of nm reaches."""
        return self.nodes.rows_for(*nm._extremes)

    def node_image_max(self, nm: AngularNorm) -> np.ndarray:
        """max_i |A_i u_j| at the upper-half nodes u_j, in the plan's output buffer.

        Maps only the members that can attain the maximum (see _Stencil).
        """
        return self.nodes.apply(nm.values, self.members_mapped(nm))

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
