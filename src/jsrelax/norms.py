"""Planar norms stored as star-polygon profiles on an angular grid.

A profile holds node values h_j > 0 at the uniform nodes u_j = (cos phi_j,
sin phi_j), phi_j = -pi + 2*pi*j/N, and stands for the gauge of the star
polygon through the points p_j = u_j / h_j: a vector y = a u_i + b u_{i+1}
with a, b >= 0, its cone coordinates in the sector from node i to node
i + 1, has norm a h_i + b h_{i+1}.  That polygon is the norm's unit sphere,
which svgplot draws.  Profiles are kept centrally symmetric (h_j = h_{j+N/2},
bit-exact) because a norm satisfies |-x| = |x|.  So the upper half (phi in
[0, pi)) holds every node value, and the stencils below index it alone.

Node sweeps and single vectors go through the same elementwise array
arithmetic rather than BLAS (the node map, and _gauge for evaluate,
max_image and the refinement of a profile onto another grid), so the two
agree bitwise; scaling equivariance relies on this.  A relaxation solve
takes one _ImagePlan per grid, the only builder of a node stencil, whose
stencil and buffers every step reuses, and which reads the reference
vector's norm and the lr gamma off node values;
combine_linear and combine_max write a step's next profile from the plan's
node image maxima, and each step allocates only that profile.  A step maps
only the family members that can attain those maxima: a member whose
image weight sums a + b stay below the largest image's by more than the
profile's spread max h / min h (its dominance margin) is skipped, which
changes no output bit (see _ImagePlan; _Plans keeps the finished plans of a
solve's grids whole for the next solve of the same family, grids and e,
such as mr after lr).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .matrices import MatrixSet, _real

__all__ = [
    "AngularNorm",
    "euclidean",
    "evaluate",
    "max_image",
    "combine_linear",
    "combine_max",
    "normalize",
]

TWO_PI = 2.0 * math.pi
MIN_NODES = 8


class _Grid(NamedTuple):
    angles: np.ndarray   # node angles, ascending from -pi
    ux: np.ndarray       # unit vector x components, antipodal halves negate exactly
    uy: np.ndarray       # (ux and uy are read-only views of the first two rows of sectors)
    sectors: np.ndarray  # (5, N + 1): u_i's x and y, s_i, c_i and n_i of sector i (see _grid)
    fold: np.ndarray     # (N + 1,): i modulo N/2


@lru_cache(maxsize=16)
def _grid(n: int) -> _Grid:
    """Node angles, unit vectors and sector constants for an N-node grid.

    The upper half (phi in [0, pi)) is computed directly with the cardinal
    directions pinned to exact (1,0) / (0,1); the lower half is its exact
    negation, so antipodal symmetry is bit-exact.  Column i of `sectors`
    holds u_i, s_i = u_i x u_{i+1}, c_i = u_i . u_{i+1} and n_i = |u_i|^2
    (u_N = u_0), with _cone's products, so node vectors get exact cone
    coordinates; column N repeats column 0, for the vectors at angle pi.
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
    x1, y1 = np.roll(ux, -1), np.roll(uy, -1)
    sectors = np.stack([ux, uy, ux * y1 - uy * x1, ux * x1 + uy * y1, ux * ux + uy * uy])
    sectors = np.concatenate([sectors, sectors[:, :1]], axis=1)
    fold = np.arange(n + 1) % half
    for arr in (angles, sectors, fold):
        arr.flags.writeable = False
    return _Grid(angles, sectors[0, :n], sectors[1, :n], sectors, fold)


@dataclass(frozen=True, eq=False)
class AngularNorm:
    """Node values h_j = |u_j| on the uniform grid, of the star polygon through u_j / h_j.

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
    """Constant profile h = 1: the N-gon through the unit node vectors, whose
    gauge f is the Euclidean length along every node direction and satisfies
    |x| <= f(x) <= |x| / cos(pi/N) everywhere."""
    return AngularNorm(np.ones(int(n)))


def _cone(y0, y1, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid sector index i0, modulo N/2, and cone coordinates (a, b) of the vectors (y0, y1).

    y = a u_i + b u_{i+1} in the sector i that holds y, by the correlated
    form b = (u_i x y) / s_i and a = (u_i . y - b c_i) / n_i (see _grid): a
    node vector gets exactly (1, 0) or (0, 1).  A vector within about 1e-15
    radians of a node ray u_k can get a negative coordinate, from the
    rounding of atan2 (which finds the sector) or of its tiny coordinate; it
    gets the sector k and the coordinates (u_k . y / n_k, 0), its projection
    on the ray, with u_k the sector's end ray if a < 0 and its start ray if
    b < 0.  So a, b >= 0, which the nested brackets and the member screening
    need.  i0 indexes either half of a symmetric profile.
    """
    g = _grid(n)
    t = np.arctan2(y1, y0)
    t *= n / TWO_PI
    t += n // 2
    i = t.astype(np.intp)  # t lies in [0, n] up to rounding, so this is its floor, or 0
    ux, uy, s, c, sq = g.sectors.take(i, axis=1, mode="clip")
    b = np.multiply(ux, y1, out=t)
    b -= uy * y0
    b /= s
    a = np.multiply(ux, y0, out=ux)
    a += np.multiply(uy, y1, out=uy)
    a -= np.multiply(b, c, out=c)
    a /= sq
    if a.min() < 0.0 or b.min() < 0.0:
        off = np.nonzero(np.minimum(a, b) < 0.0)
        k = (i[off] + (a[off] < 0.0)) % n
        kx, ky, _, _, ksq = g.sectors[:, k]
        i[off] = k
        a[off] = (kx * y0[off] + ky * y1[off]) / ksq
        b[off] = 0.0
    return g.fold.take(i, mode="clip"), a, b


def _entries(mats) -> np.ndarray:
    """The matrices' entries a00, a01, a10, a11 as entry[:, 0..3], each of shape (rows, 1)."""
    return np.array(mats, dtype=float).reshape(len(mats), 4, 1)


def _images(entry: np.ndarray, x0, x1) -> tuple[np.ndarray, np.ndarray]:
    """The images A (x0, x1) of the vectors, one row per matrix of _entries (or a row slice)."""
    return entry[:, 0] * x0 + entry[:, 1] * x1, entry[:, 2] * x0 + entry[:, 3] * x1


def _gauge(values: np.ndarray, y0, y1) -> np.ndarray:
    """The norm a * h[i0] + b * h[i0 + 1] of each vector (y0, y1) under the
    profile `values`, with the node map's operations; an overflow gives an
    infinite or NaN norm, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        i0, a, b = _cone(y0, y1, values.size)
        return a * values[i0] + b * values[i0 + 1]


# Entries per block of a node map, and of a stencil build.  They keep
# the working set in cache whatever the family and grid, and every temporary
# at most 16K doubles, within glibc's mmap threshold, so that freeing one does
# not hand it back to the system and make the next allocation page-fault.
# A map works in two preallocated block buffers; a build makes about eight
# temporaries per block, one of them its five gathered sector constants per
# entry, so it takes blocks of at most 16K / 5 entries.
_BLOCK = 16384
_BUILD_BLOCK = 3072


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
# rounding of a gauge value.  That rounding is relative only for node values
# in [_SCREEN_LO, _SCREEN_HI]: normal, and a weighted sum of them still
# finite.  A profile outside it maps every member.
_MARGIN_SLACK = 1.0 + 1e-12
_SCREEN_LO = 2.0 ** -1022
_SCREEN_HI = 2.0 ** 1022
# A plan orders its stencil rows by their margins over about this many evenly
# spaced columns.  On the relax_family benchmark corpus (N = 3000) every solve
# then maps as many rows as with the rows in the order of their exact
# margins, and so it does with 32 columns; sorting the built rows by their
# exact margins instead moves the whole stencil, which made an r = 8 plan
# build at N = 300000 a third slower or more.
_SAMPLE_COLUMNS = 64


def _margins(a: np.ndarray, b: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The dominance margin of each row of the weight sums w = a + b, given
    top, the largest sum in each column: min over the columns j of
    top_j / w_kj, at least 1, exactly 1 for a row that is the largest
    somewhere, +inf for a row of weight 0 wherever top_j > 0.  Columns of
    weight 0 in every row do not count.
    """
    margin = np.full(a.shape[0], math.inf)
    # x/0 and 0/0 give inf and NaN, with no warning; fmin skips the NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, c in _tiles(*a.shape, _BLOCK):
            np.fmin(margin[r], np.fmin.reduce(top[c] / (a[r, c] + b[r, c]), axis=1),
                    out=margin[r])
    return margin


# The slot of the plans the last solve released, under _KEPT_KEY: a dict of
# them by key, one per grid of that solve (see _Plans).  One dict.pop takes
# them and one assignment puts them, so two threads never share a plan.  The
# kept plans total at most _KEPT_MAX_BYTES: the benchmark corpus's largest
# plan (32 matrices on 3000 nodes) is 1.41 MB, the three plans of a continued
# 30000-node solve of 2 matrices 1.3 MB, and one plan of a 300000-node solve
# would pin tens of MB.
_KEPT_KEY = "plans"
_KEPT_MAX_BYTES = 4 << 20
_kept: dict = {}


def _key(s: MatrixSet, n: int, e) -> tuple:
    """The inputs a plan is a function of: entry bytes in order, N, e as two floats."""
    return _entries(s.arrays()).tobytes(), n, _checked_vector(e)


class _Plans:
    """The image plans of one solve, a context manager around its grids.

    Entering takes the slot's plans and holds those of the solve's grids,
    (node count, e) pairs; the rest are freed there, before any build.
    take(n, e) hands out the held plan of that grid, else a new build.
    release(plan), once per take, keeps a plan whose grid has ended while
    the kept plans total at most _KEPT_MAX_BYTES, coarsest first, and drops
    it otherwise.  Leaving releases the held plans never taken, and puts
    the kept plans in the slot, however the solve ends; so a continued
    solve holds its finest plan and the coarser ones it keeps, about 1.3
    times the finest.
    """

    def __init__(self, s: MatrixSet, grids: list[tuple[int, tuple]]):
        self._s = s
        self._keys = {(n, e): _key(s, n, e) for n, e in grids}

    def __enter__(self) -> _Plans:
        kept = _kept.pop(_KEPT_KEY, {})
        self._held = {key: kept[key] for key in self._keys.values() if key in kept}
        self._done, self._bytes = {}, 0
        return self

    def take(self, n: int, e: tuple) -> _ImagePlan:
        return self._held.pop(self._keys[n, e], None) or _ImagePlan(self._s, n, e)

    def release(self, plan: _ImagePlan) -> None:
        if self._bytes + plan.nbytes <= _KEPT_MAX_BYTES:
            self._done[plan.key] = plan
            self._bytes += plan.nbytes

    def __exit__(self, *exc) -> None:
        for plan in self._held.values():  # never taken: a solve closed before their grids
            self.release(plan)
        self._held = None
        if self._done:
            _kept[_KEPT_KEY] = self._done


class _ImagePlan:
    """The fixed vectors of one relaxation solve, and the solve's workspace.

    Holds the stencil of the images y_kj = A_k u_j of every upper-half node
    under every matrix, and the node of the reference vector e.  Built once
    per solve; each step then reads the node image maxima off it with no
    angle work, and the lr gamma max_i |A_i e| and the norm of e off those
    maxima and the profile.

    Row k, column j of the stencil stores the grid sector i0 modulo N/2 and
    the cone coordinates a and b of y_kj (see _cone), so that node_image_max
    evaluates max_k a * h[i0] + b * h[i0 + 1] with a gather and a
    multiply-add.  A symmetric profile repeats its upper half, so h[i0] and
    h[i0 + 1] are values[i0] and values[1:][i0]: the map reads
    values[:N/2 + 1] and needs no shifted copy of the profile.  The build
    maps all rows at once, block by block, with the same _cone per entry as
    a map of one row at a time.

    Member screening.  Row k's value at column j is a * h[i0] + b * h[i0 + 1]
    with a, b >= 0, which lies within a few ulp of [min h, max h] times the
    weight sum w_kj = a + b; the row of the largest sum there, top_j, gives
    at least top_j * min h less those few ulp.  So where the row's dominance
    margin mu_k = min_j top_j / w_kj (see _margins) exceeds the spread
    max h / min h by _MARGIN_SLACK, its value lies below that row's at
    every column and never attains the maximum.  The maximum is exact and
    independent of the row order, so node_image_max maps only the leading
    members_mapped() rows and returns the same bits as a map of every row.
    The rows are stored in the order of their Euclidean margins over a
    sample of the columns, likely small margins first; `members` holds the
    family index of each row.  `margin[k]` is the least exact margin of row
    k and the rows after it, so it never decreases, and the rows after the
    first k whose margin[k] exceeds a bound all exceed it.  When every
    margin is 1 (every member is the largest somewhere, or the last row is)
    every row is mapped and no screening work is done.

    Workspace and lifetime.  The stencil takes 24 bytes per entry; the
    workspace is an output buffer `best` of one value per column, two block
    buffers and the bracket-ratio buffer `ratio`.  node_image_max returns
    `best` itself, and its next call overwrites it; so one plan serves one
    thread, and a caller that keeps the maxima past the next call copies
    them.  Each plan allocates its own arrays, and `key` holds its inputs:
    a solve takes its plans from _Plans and hands them back to it.

    The reference vector.  e lies along a grid node, and the plan keeps its
    upper-half node k = `node` and its scale c = `scale` from _node_of, as
    RelaxConfig's check and a solve's start do.  at_e then reads |e| = c h_k
    off a profile and max_i |A_i e| = c m_k off the node image maxima m,
    with no evaluation of its own.  For
    e = +-2^p u_k, such as (1, 0) and (0, 1) times 2^p, c is 2^p, and both
    values are bit for bit evaluate(nm, e) and max_image(nm, s, e); for
    another e along u_k they differ from those by rounding only.

    `weight`, the largest weight sum a + b of the stencil, bounds the map:
    each node image maximum is at most weight * max h, up to a few ulp.

    Raises ValueError, before any step and without a warning, if e lies
    along no grid node, or a node image, or e or one of its images
    A_i e = c A_i u_k, has a non-finite cone coordinate.
    """

    def __init__(self, s: MatrixSet, n: int, e):
        self.key = _key(s, n, e)
        entry = np.frombuffer(self.key[0]).reshape(-1, 4, 1)  # the build reads its key
        e0, e1 = self.key[2]
        self.node, self.scale = _node_of((e0, e1), n)
        g = _grid(n)
        x0, x1 = g.ux[n // 2:], g.uy[n // 2:]
        rows, cols = len(entry), n // 2
        # a node image that overflows gets an infinite or NaN coordinate, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            # the squared lengths order the rows as the lengths would, with no root
            step = max(1, cols // _SAMPLE_COLUMNS)
            y0, y1 = _images(entry, x0[::step], x1[::step])
            y0 *= y0
            y1 *= y1
            sampled = _margins(y0, y1, np.maximum.reduce(y0 + y1, axis=0))
            self.members = np.argsort(sampled, kind="stable")
            entry = entry[self.members]
            self.i0 = np.empty((rows, cols), dtype=np.intp)
            self.a, self.b = np.empty((rows, cols)), np.empty((rows, cols))
            r, c = _tiles(rows, cols, _BLOCK)[0]
            self._buf = np.empty((2, (r.stop - r.start) * (c.stop - c.start)))
            top = np.zeros(cols)  # the largest weight sum of each column
            for r, c in _tiles(rows, cols, _BUILD_BLOCK):
                i0, a, b = _cone(*_images(entry[r], x0[c], x1[c]), n)
                self.i0[r, c], self.a[r, c], self.b[r, c] = i0, a, b
                np.maximum(top[c], np.maximum.reduce(a + b, axis=0), out=top[c])
            # the exact margins, each lowered to the least of its row and the rows after it
            self.margin = np.minimum.accumulate(_margins(self.a, self.b, top)[::-1])[::-1].tolist()
        self.weight = float(top.max())
        self.best = np.empty(cols)
        self._blocks = {}  # the block views of each leading row count
        self.ratio = np.empty(cols)
        if not (math.isfinite(self.a.max()) and math.isfinite(self.b.max())):  # max keeps a NaN
            raise ValueError(
                "the family maps a grid node to a vector of non-finite length; "
                "rescale the family"
            )
        k = self.node
        # the cone coordinates of the images A_i e = c A_i u_k, in Python floats: no warning
        if not math.isfinite(self.scale * max(self.a[:, k].max(), self.b[:, k].max()).item()):
            raise ValueError(
                f"e = ({e0!r}, {e1!r}) or one of its images A_i e has a non-finite "
                "length; rescale e"
            )

    @property
    def nbytes(self) -> int:
        """The bytes of the stencil and the block buffers, which _Plans counts."""
        return sum(x.nbytes for x in (self.i0, self.a, self.b, self._buf))

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
            x, y = self._buf[:, :i0.size].reshape((2,) + i0.shape)
            blocks.append((i0, self.a[r, c], self.b[r, c], x, y, self.best[c], first))
        self._blocks[rows] = blocks
        return blocks

    def members_mapped(self, nm: AngularNorm) -> int:
        """How many leading rows node_image_max(nm) maps: those whose margin
        is at most the spread (max h / min h) * _MARGIN_SLACK of nm, and at
        least one; every row when no margin exceeds 1 or nm's extremes leave
        the screening range."""
        lo, hi = nm._extremes
        margin = self.margin
        if margin[-1] <= 1.0 or not (_SCREEN_LO <= lo and hi <= _SCREEN_HI):
            return len(margin)
        return max(1, bisect.bisect_right(margin, hi / lo * _MARGIN_SLACK))

    def node_image_max(self, nm: AngularNorm) -> np.ndarray:
        """max_i |A_i u_j| at the upper-half nodes u_j, in the output buffer
        `best`, which the next call overwrites; maps only the members that
        can attain the maximum."""
        values = nm.values
        ahead = values[1:]  # ahead[i] = h[i + 1]
        rows = self.members_mapped(nm)
        blocks = self._blocks.get(rows) or self._views(rows)
        for i0, a, b, x, y, best, first in blocks:
            values.take(i0, out=x, mode="clip")
            ahead.take(i0, out=y, mode="clip")
            np.multiply(a, x, out=x)
            np.multiply(b, y, out=y)
            if x.ndim == 1:
                if first:
                    np.add(x, y, out=best)
                else:
                    np.add(x, y, out=x)
                    np.maximum(best, x, out=best)
            else:
                np.add(x, y, out=x)
                if first:
                    np.maximum.reduce(x, axis=0, out=best)
                else:
                    np.maximum.reduce(x, axis=0, out=y[0])
                    np.maximum(best, y[0], out=best)
        return self.best

    def at_e(self, values: np.ndarray) -> float:
        """c * v_k, e's value read off node values v at the upper-half nodes
        (or a profile's values, whose halves are equal): |e| for a profile,
        and max_i |A_i e| for its node image maxima (see the class docstring)."""
        return self.scale * values.item(self.node)


def _node_of(e: tuple[float, float], n: int) -> tuple[int, float]:
    """The upper-half node k of the N-node grid along the finite vector e,
    and e's scale c = |u_k . e| / |u_k|^2: e = c u_k up to rounding, so
    |e| = c h_k.  Raises ValueError if e is off every node by over 1e-9 of
    a grid step."""
    e0, e1 = e
    t = (math.atan2(e1, e0) + math.pi) * (n / TWO_PI)
    if abs(t - round(t)) > 1e-9:
        raise ValueError(f"e must point along a grid node direction, got {e}")
    k = round(t) % (n // 2)
    ux, uy, _, _, sq = _grid(n).sectors[:, n // 2 + k].tolist()
    return k, abs(ux * e0 + uy * e1) / sq


def _checked_vector(x, name: str = "a planar vector") -> tuple[float, float]:
    if len(x) != 2:
        raise ValueError(f"{name} must have two entries, got {len(x)}")
    x0, x1 = (_real(c, f"each entry of {name}") for c in x)
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"{name} must be finite")
    return x0, x1


def evaluate(nm: AngularNorm, x) -> float:
    """Norm of the planar vector x (0 at the origin).

    Raises ValueError if the norm is not finite (x is within a factor
    cos(pi/N) of the double range, or the profile's values are huge).
    """
    x0, x1 = _checked_vector(x)
    v = _gauge(nm.values, np.array([x0]), np.array([x1])).item()
    if not math.isfinite(v):
        raise ValueError(f"x = ({x0!r}, {x1!r}) has a non-finite length; rescale x")
    return v


def max_image(nm: AngularNorm, s: MatrixSet, x) -> float:
    """Largest norm among the images A x over the family.

    Raises ValueError if the norm of one of the images is not finite.
    """
    x0, x1 = _checked_vector(x)
    with np.errstate(over="ignore", invalid="ignore"):
        y0, y1 = _images(_entries(s.arrays()), x0, x1)
    v = _gauge(nm.values, y0.ravel(), y1.ravel())
    if not np.isfinite(v).all():
        raise ValueError(
            f"one of the images A_i x of x = ({x0!r}, {x1!r}) has a non-finite length; "
            "rescale x"
        )
    return v.max().item()


def combine_linear(nm: AngularNorm, m: np.ndarray, lam: float, gamma: float, out) -> None:
    """Blend the profile with its scaled image profile, into out.

    Given the node image maxima m = max_i |A_i u_j| at the upper-half nodes,
    writes the next upper half lam * h_j + (1 - lam) * m_j / gamma into out;
    m is overwritten.  Requires lam in [0, 1) and gamma > 0; lam = 0 writes
    m_j / gamma exactly.
    """
    lam = float(lam)
    gamma = float(gamma)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lambda must lie in [0, 1), got {lam}")
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
    return _rescaled(nm, (e0, e1), evaluate(nm, (e0, e1)))


def _rescaled(nm: AngularNorm, e: tuple[float, float], v: float) -> AngularNorm:
    """nm over v, the norm of e under nm; raises ValueError, with no warning,
    if a rescaled value would not be finite."""
    # division is monotone, so the largest value decides whether all stay finite
    if not (v > 0.0 and math.isfinite(float(nm.values.max()) / v)):
        raise ValueError(
            f"e = ({e[0]!r}, {e[1]!r}) is too short: the profile rescaled to norm 1 at e "
            "is not finite; rescale e"
        )
    # a symmetric profile over a scalar keeps its halves equal: no fold needed
    return AngularNorm._adopt(nm.values / v)
