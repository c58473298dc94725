"""Relaxation iterations that bracket the joint spectral radius.

Two update rules drive a sequence of angular-profile norms toward an
extremal norm of the family:

  lr: the next profile is lambda times the current one plus 1 - lambda
      times the image profile scaled by 1/gamma_n, with gamma_n the image
      norm of the reference vector e and lambda one weight in [0, 1) for
      every step; lambda = 0 is the direct iteration, the scaled image
      profile alone, which has no convergence guarantee;
  mr: the next profile is the pointwise maximum of the current one and the
      image profile scaled by 1/gamma_n, renormalized at e, with gamma_n the
      arithmetic mean of the current bracket ends.

Every step yields a grid bracket [rho_minus, rho_plus]: the bounds the
profile's N grid directions give.  It approaches rho at about O(N^-2) but
is not a proven bracket: the star gauge's supremum of f(A_i x) / f(x) may
lie off the nodes, at the preimages A_i^-1 p_m of the polygon's vertices.
At tol=1e-9 and N=3000 both ends of example 1's bracket lie within 9e-10 of
its closed form (2 + sqrt(3))^(1/4).  oracle.product_bounds gives the
proven check.

Nested brackets.  Write the grid map as M(h)_j = max_i L_ij(h), with
L_ij(h) = a * h[i0] + b * h[i1] the star-gauge norm of A_i u_j, with its
cone coordinates a, b >= 0 (norms._cone): a linear map with nonnegative
weights.  So M is monotone, positively homogeneous and subadditive, and the
bracket of h says rho_minus * h <= M(h) <= rho_plus * h at the nodes.  An
lr step with any lambda in [0, 1), the direct lambda = 0 included, gives
h' = lambda * h + (1 - lambda) * M(h) / gamma, and then
  M(h') <= lambda * M(h) + (1 - lambda) * M(M(h)) / gamma <= rho_plus * h',
since M(M(h)) <= M(rho_plus * h) = rho_plus * M(h); and at node j, with i
the member that attains M(h)_j,
  M(h')_j >= lambda * L_ij(h) + (1 - lambda) * L_ij(M(h)) / gamma
         >= rho_minus * h'_j,
since L_ij(M(h)) >= rho_minus * L_ij(h) = rho_minus * M(h)_j.  An mr step
takes g = max(h, M(h) / gamma) with rho_minus <= gamma <= rho_plus, and
rescales it, which moves no ratio: M(g) is at least M(h) and M(M(h)) / gamma,
so at least rho_minus * g; and g <= (rho_plus / gamma) * h, so
M(g) <= rho_plus * M(h) / gamma <= rho_plus * g.  So the grid brackets are
nested, up to rounding: rho_plus never rises and rho_minus never falls from
one step to the next.  Rounding does move them by a few ulp: at N = 3000
and tol = 1e-6, 14 of the 16 families of the relax_family benchmark's
corpus, unrotated or turned by its seed-1 rotations, have an mr step whose
rho_plus rises or rho_minus falls, by at most 4.6e-16 relative.

A solve takes the image plan of the family once per grid (norms._Plans),
and each step is lr_step or mr_step on that plan: it maps its profile once,
takes that profile's bracket from bounds and the next profile from
combine_linear or combine_max, all on that single map.  e lies along a grid
node u_k, as e = c u_k (norms._node_of), so the plan reads the norm of e as
c h_k off the profile and lr's gamma as c m_k off the node image maxima m of
that map; each grid's start is normalized at the same node.  A step checks
its profile once, at the map: its normalization and its range (see _HUGE).
The plan is also the solve's workspace: a step maps the grid into the
plan's buffers, and the only array it allocates is the next profile, whose
upper half it computes in place and checks with one min and one max.  A
plan serves one solve at a time, so one thread: it is taken when the grid's
steps start and released when they end, however they end.  The plans of
every grid of a solve, within 4 MiB, are then kept whole for the next solve
of the same family, grids and e, such as mr after lr.

One profile, one bracket.  A step's record is the bracket of its input, so
the solve yields each profile with that record, and a result's norm, the
last profile yielded, is the one whose bracket rho_lo, rho_hi and the last
trace row hold; the last step's next profile is dropped.

Grid continuation.  The relaxation contracts at a rate set by the family,
not by the grid, so a fine solve with no initial norm first solves on the
coarse grids N/4, N/16, ... (each 2 * floor(n / 8) nodes, n/4 rounded down
to even) of at least 1024 nodes, coarsest first, with e = (1, 0), and each
grid starts from the last profile the one before yielded, that polygon's
gauge at its nodes.  A coarse grid of N_c nodes may take max_iters * N_c / N steps.
A solve is continued only when it has two coarse grids or more, from
N = 16384: N = 30000 solves on 1874, 7500 and then 30000 nodes, N = 3000
and N = 16382 on their own grid.  Coarse grids pay off when the solve
needs many steps and cost more than they save on a short one; timed
against single-level solves on the benchmark corpus's r = 8 families,
one coarse grid (N = 4096 to 12000) took 1.5-27% longer in all, two
(N = 16384) 3% longer, three (N = 30000) 1-7% less and, for the two
families timed there, five (N = 300000) 20-37% less.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .matrices import MatrixSet, _count, _real, is_irreducible
from .norms import (
    AngularNorm,
    _gauge,
    _checked_vector,
    _grid,
    _ImagePlan,
    _node_of,
    _Plans,
    _rescaled,
    _ZeroValue,
    combine_linear,
    combine_max,
    euclidean,
)

__all__ = [
    "ALGORITHM_LR",
    "ALGORITHM_MR",
    "STATUS_CONVERGED",
    "STATUS_DEGENERATE",
    "STATUS_MAX_ITERS",
    "STATUS_REJECTED",
    "RelaxConfig",
    "IterationRecord",
    "RelaxResult",
    "bounds",
    "gamma_mr",
    "iterate",
    "lr_step",
    "mr_step",
    "run",
]

ALGORITHM_LR = "lr"
ALGORITHM_MR = "mr"

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters_reached"
STATUS_REJECTED = "not_irreducible_rejected"
# the next profile is undefined: lr's gamma or mr's rho_minus is 0, as every
# matrix maps some grid direction to 0 (reducible families only); or a node
# value leaves the double range relative to |e| = 1, in either direction: it
# reaches 0 (lr's lam^n at such a node), or it or a bracket ratio would
# overflow, as off e's invariant line where a larger diagonal entry grows the
# other direction, or for a given initial norm that spans the whole range
STATUS_DEGENERATE = "degenerate_image"

# Every iterate must keep the reference vector at norm 1; the lr update
# preserves this identity by construction, so drift past this bound means an
# implementation bug and is raised rather than silently rescaled.
_NORMALIZATION_TOL = 1e-12

# A step maps a profile only while its largest value h, W h with W the plan's
# largest stencil weight, and W h over its least value (and over gamma, for
# lr) stay below _HUGE.  Then the node map m <= W h, the bracket's ratios
# m / h, lr's m / gamma and its blend, and mr's max(h, m / gamma), at most 2h
# before its renormalization, are finite, with room for their rounding.
_HUGE = 2.0 ** 1022

# The least node count of a coarse grid; a solve needs two such grids to be
# continued (see the module docstring).
_COARSE_MIN_NODES = 1024


@dataclass(frozen=True)
class RelaxConfig:
    """All iteration parameters; validated on construction."""

    algorithm: str = ALGORITHM_LR
    # lr's one relaxation weight in [0, 1), the same at every step of every grid;
    # the name is the trace header's key
    lambda_schedule: float = 0.3
    node_count: int = 3000
    e: tuple[float, float] = (1.0, 0.0)
    tol: float = 1e-3
    max_iters: int = 10_000
    initial_norm: AngularNorm | None = None

    def __post_init__(self):
        if self.algorithm not in (ALGORITHM_LR, ALGORITHM_MR):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        lam = _real(self.lambda_schedule, "lambda_schedule")
        if not 0.0 <= lam < 1.0:  # refuses a NaN
            raise ValueError(f"lambda_schedule {lam} outside [0, 1)")
        object.__setattr__(self, "lambda_schedule", lam)
        n = _count(self.node_count, "node count")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"node count must be even and >= 8, got {n}")
        object.__setattr__(self, "node_count", n)
        e = _checked_vector(self.e, "e")
        if e == (0.0, 0.0):
            raise ValueError("e must be nonzero")
        _node_of(e, n)
        object.__setattr__(self, "e", e)
        tol = _real(self.tol, "tol")
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol must be positive, got {tol}")
        object.__setattr__(self, "tol", tol)
        iters = _count(self.max_iters, "max_iters")
        if iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {iters}")
        object.__setattr__(self, "max_iters", iters)
        if self.initial_norm is not None and self.initial_norm.node_count != n:
            raise ValueError(
                f"initial norm has {self.initial_norm.node_count} nodes, config wants {n}"
            )


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: the bracket of profile n, and the scaling step n used on it."""

    n: int
    rho_minus: float
    rho_plus: float
    gamma: float
    lam: float | None = None


@dataclass(frozen=True)
class RelaxResult:
    """Final bracket, midpoint estimate, converged norm, and the trace of the solve.

    The trace, and so the bracket and the norm, are those of the N-node grid,
    and the bracket, the trace's last row, is the norm's own.  levels holds
    (node count, steps) for every grid of the solve, 0 for a grid that took
    none, coarsest first, and ends with (N, len(trace)); a solve with no
    coarse level has the one entry, and a rejected family none.
    """

    rho_lo: float
    rho_hi: float
    rho_mid: float
    norm: AngularNorm
    trace: tuple[IterationRecord, ...]
    status: str
    config: RelaxConfig
    levels: tuple[tuple[int, int], ...]


def gamma_mr(rho_minus: float, rho_plus: float) -> float:
    """Arithmetic mean of the bracket ends.

    The result is clamped into [rho_minus, rho_plus] so the bracket inclusion
    holds exactly even when the last floating-point rounding would nudge it
    out by one ulp.
    """
    t, s = float(rho_minus), float(rho_plus)
    if not (0.0 < t <= s):
        raise ValueError(f"need 0 < rho_minus <= rho_plus, got ({t}, {s})")
    return min(max(0.5 * (t + s), t), s)


class _DegenerateImage(ValueError):
    """The step is undefined: an image vanishes, or a node value leaves the double range."""


def bounds(nm: AngularNorm, m: np.ndarray, out: np.ndarray) -> tuple[float, float]:
    """Grid bracket: the extremes of m_j / h_j over the upper-half nodes.

    m holds the node image maxima max_i |A_i u_j|; by homogeneity the
    continuous extrema run over directions only, and the grid samples them.
    The ratios go into out.
    """
    ratio = np.divide(m, nm.values[nm.node_count // 2:], out=out)
    return float(np.minimum.reduce(ratio)), float(np.maximum.reduce(ratio))


def _mapped(
    nm: AngularNorm, plan: _ImagePlan, n: int, algorithm: str
) -> tuple[np.ndarray, float, float]:
    """Checks nm's normalization and range (see _HUGE), its one check, and
    maps the grid once: the node image maxima and nm's bracket."""
    v = plan.at_e(nm.values)
    if abs(v - 1.0) > _NORMALIZATION_TOL:
        raise RuntimeError(f"norm of reference vector drifted to {v!r} at {algorithm} step {n}")
    least, top = nm._extremes
    reach = top * plan.weight
    if not (top < _HUGE and reach < _HUGE and reach < _HUGE * least):
        raise _DegenerateImage("a node value or a bracket ratio would overflow")
    m = plan.node_image_max(nm)
    lo, hi = bounds(nm, m, plan.ratio)
    return m, lo, hi


def _next_profile(vals: np.ndarray) -> AngularNorm:
    """The profile of a step's new values; a node value that underflowed to 0
    (where every member maps the node to 0, or nearly) ends the solve."""
    try:
        return AngularNorm._adopt(vals)
    except _ZeroValue:
        raise _DegenerateImage("a node value underflowed to 0") from None


def lr_step(
    nm: AngularNorm, plan: _ImagePlan, cfg: RelaxConfig, n: int
) -> tuple[AngularNorm, IterationRecord]:
    """One linear-relaxation step on the solve's plan: the next profile, still
    normalized at e, and the bracket of nm.

    Raises _DegenerateImage, a ValueError, when the next profile is undefined.
    """
    m, lo, hi = _mapped(nm, plan, n, ALGORITHM_LR)
    g = plan.at_e(m)
    # m / g is at most weight * max h / g
    if not nm._extremes[1] * plan.weight < _HUGE * g:
        raise _DegenerateImage("gamma = max_i |A_i e| is 0, or m / gamma would overflow")
    lam = cfg.lambda_schedule
    vals = np.empty(nm.node_count)
    combine_linear(nm, m, lam, g, vals[nm.node_count // 2:])
    return _next_profile(vals), IterationRecord(n, lo, hi, g, lam)


def mr_step(
    nm: AngularNorm, plan: _ImagePlan, cfg: RelaxConfig, n: int
) -> tuple[AngularNorm, IterationRecord]:
    """One max-relaxation step on the solve's plan: the next profile,
    renormalized at e after the maximum, and the bracket of nm.

    Raises _DegenerateImage, a ValueError, when the next profile is undefined.
    """
    m, lo, hi = _mapped(nm, plan, n, ALGORITHM_MR)
    if lo == 0.0:
        raise _DegenerateImage("every matrix maps a grid direction to 0 (rho_minus = 0)")
    g = gamma_mr(lo, hi)
    vals = np.empty(nm.node_count)
    upper = vals[nm.node_count // 2:]
    combine_max(nm, m, g, upper)
    # |e| under the raised profile, read off its upper half
    np.divide(upper, plan.at_e(upper), out=upper)
    return _next_profile(vals), IterationRecord(n, lo, hi, g, None)


def _initial(cfg: RelaxConfig, start: AngularNorm | None = None) -> AngularNorm:
    """start, by default the initial norm or the Euclidean profile, over its
    norm of e, c h_k (see norms._node_of): a grid's first profile, and a
    stepless result's norm."""
    nm = start or cfg.initial_norm or euclidean(cfg.node_count)
    k, c = _node_of(cfg.e, cfg.node_count)
    return _rescaled(nm, cfg.e, c * nm.values.item(k))


def _converged(rec: IterationRecord, cfg: RelaxConfig) -> bool:
    return 0.5 * (rec.rho_plus - rec.rho_minus) <= cfg.tol


def _refined(nm: AngularNorm, n: int) -> AngularNorm:
    """nm's polygon on the n-node grid: its gauge a * h[i0] + b * h[i0 + 1] at
    the upper-half nodes, as the node map evaluates an image (both profiles
    are centrally symmetric)."""
    g = _grid(n)
    vals = np.empty(n)
    vals[n // 2:] = _gauge(nm.values, g.ux[n // 2:], g.uy[n // 2:])
    return AngularNorm._adopt(vals)


def _grids(cfg: RelaxConfig) -> list[RelaxConfig]:
    """The config of each grid a solve steps on, coarsest first, ending with cfg.

    The coarse grids, none for a solve with an initial norm or with fewer
    than two, have N_c = 2 * floor(N / 8) nodes (then the same of N_c, down
    to _COARSE_MIN_NODES), e = (1, 0) and at most max_iters * N_c / N steps,
    so a stalled solve spends (N_c / N)^2 of its N-node grid's node-steps on
    each.
    """
    counts, n = [], cfg.node_count
    while (n := 2 * (n // 8)) >= _COARSE_MIN_NODES:
        counts.append(n)
    if cfg.initial_norm is not None or len(counts) < 2:
        return [cfg]
    return [replace(cfg, node_count=n, e=(1.0, 0.0),
                    max_iters=max(1, cfg.max_iters * n // cfg.node_count))
            for n in reversed(counts)] + [cfg]


def _solve(
    s: MatrixSet, cfg: RelaxConfig
) -> Iterator[tuple[int, AngularNorm, IterationRecord]]:
    """(node count, profile, record) for every step of every grid of _grids(cfg).

    The record is the bracket of the profile, the step's input, yielded once
    the step has made the next one.  A grid ends after a record within tol,
    after max_iters, or, yielding nothing for it, at a step whose next
    profile is undefined.  It starts from the last profile the grid before
    yielded, refined, else from _initial.  Each plan is released once, however
    its grid ends, and the kept plans go to the slot when the solve ends,
    even when the caller closes the generator.
    """
    step = lr_step if cfg.algorithm == ALGORITHM_LR else mr_step
    grids = _grids(cfg)
    last = None
    with _Plans(s, [(grid.node_count, grid.e) for grid in grids]) as plans:
        for grid in grids:
            n_nodes = grid.node_count
            nm = _initial(grid, None if last is None else _refined(last, n_nodes))
            last = None
            plan = plans.take(n_nodes, grid.e)
            try:
                for n in range(grid.max_iters):
                    try:
                        nxt, rec = step(nm, plan, grid, n)
                    except _DegenerateImage:
                        break
                    yield n_nodes, nm, rec
                    last = nm
                    if _converged(rec, grid):
                        break
                    nm = nxt
            finally:
                plans.release(plan)
                plan = None  # a plan over the cap is freed before the next grid's build


def iterate(
    s: MatrixSet, cfg: RelaxConfig | None = None
) -> Iterator[tuple[AngularNorm, IterationRecord]]:
    """Yield each profile n of the N-node grid, the input of step n, with its
    trace record, that profile's bracket.

    Starts from the normalized initial norm.  With no initial norm and
    N >= 16384 nodes it first solves on the coarse grids N/4, N/16, ... of
    1024 nodes or more (see the module docstring) and starts from the last
    profile refined onto the N-node grid; it yields the N-node grid only.
    Stops after the first record whose bracket half-width is within tol,
    after max_iters steps, or, yielding nothing for it, at a step whose next
    profile is undefined.  Does not test irreducibility; run does.
    """
    cfg = RelaxConfig() if cfg is None else cfg
    return ((nm, rec) for n, nm, rec in _solve(s, cfg) if n == cfg.node_count)


def run(s: MatrixSet, cfg: RelaxConfig | None = None, *, force: bool = False) -> RelaxResult:
    """Iterate the configured scheme until the bracket half-width reaches tol.

    The result's norm is the last profile iterate yields, and rho_lo, rho_hi
    and the trace's last row are that profile's bracket.  Reducible families
    are rejected with a distinct status unless force is set; forced runs
    keep valid brackets but may stall at the iteration cap, and end with
    STATUS_DEGENERATE and the records so far if every image of some
    direction vanishes, or a node value underflows to 0 or would overflow.
    A grid of 16384 nodes or more with no initial norm is solved by
    continuation from coarse grids, as iterate does; the trace and the
    status are the N-node grid's, and levels lists every grid's steps, 0
    for a grid that took none.  Pass initial_norm=euclidean(N) for a
    single-level solve.
    """
    if cfg is None:
        cfg = RelaxConfig()
    nan = float("nan")
    if not force and not is_irreducible(s):
        return RelaxResult(nan, nan, nan, _initial(cfg), (), STATUS_REJECTED, cfg, ())
    steps = dict.fromkeys((grid.node_count for grid in _grids(cfg)), 0)
    records: list[IterationRecord] = []
    for n, nm, rec in _solve(s, cfg):
        steps[n] += 1
        if n == cfg.node_count:
            records.append(rec)
    levels = tuple(steps.items())
    if records and _converged(records[-1], cfg):
        status = STATUS_CONVERGED
    elif len(records) == cfg.max_iters:
        status = STATUS_MAX_ITERS
    else:
        status = STATUS_DEGENERATE
    if not records:
        return RelaxResult(nan, nan, nan, _initial(cfg), (), status, cfg, levels)
    last = records[-1]
    mid = 0.5 * (last.rho_minus + last.rho_plus)
    return RelaxResult(last.rho_minus, last.rho_plus, mid, nm, tuple(records), status, cfg, levels)
