"""Relaxation iterations that bracket the joint spectral radius.

Two update rules drive a sequence of angular-profile norms toward an
extremal norm of the family:

  lr: the next profile is a convex combination of the current one and the
      image profile scaled by 1/gamma_n, with gamma_n the image norm of the
      reference vector e;
  mr: the next profile is the pointwise maximum of the current one and the
      image profile scaled by 1/gamma_n, renormalized at e, with gamma_n an
      average of the current bracket ends.

Every step yields a grid bracket [rho_minus, rho_plus]: the bounds the
profile's N grid directions give.  It approaches rho at about O(N^-2) but
is not a proven bracket; at tol=1e-9 and N=3000, example 1's rho_plus lies
5.6e-7 below a proven lower bound.  oracle.product_bounds gives the proven
check.

Nested brackets.  Write the grid map as M(h)_j = max_i L_ij(h), with
L_ij(h) = rad * (w0 * h[i0] + f * h[i1]) the interpolated norm of A_i u_j:
a linear map with nonnegative weights.  So M is monotone, positively
homogeneous and subadditive, and the bracket of h says
rho_minus * h <= M(h) <= rho_plus * h at the nodes.  An lr step with any
lambda in [0, 1), the unsafe_direct lambda = 0 included, gives
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
and tol = 1e-6, 15 of the 16 families of the relax_family benchmark's
corpus, unrotated or turned by its seed-1 rotations, have an mr step whose
rho_plus rises or rho_minus falls, by at most 4.6e-16 relative.

A solve builds the image plan of the family once (norms._ImagePlan), and
each step is lr_step or mr_step on that plan: it maps the grid once, takes
the bracket from bounds and the next profile from combine_linear or
combine_max, all on that single map.  gamma and the norm of e come from
scalar terms in the plan.  The plan is also the solve's workspace: a step
maps the grid into the plan's buffers, and the only array it allocates is
the next profile, whose upper half it computes in place and checks with one
min and one max.  A plan serves one solve, so one thread: it is taken with
_ImagePlan.reusing when the grid's steps start and released when they end,
however they end, and its stencil arrays then serve the next solve of the
same shape in the process (see norms).

Grid continuation.  The relaxation contracts at a rate set by the family,
not by the grid, so a fine solve with no initial norm first solves on the
coarse grids N/4, N/16, ... (each 2 * floor(n / 8) nodes, n/4 rounded down
to even) of at least 1024 nodes, coarsest first, with e = (1, 0), and each
grid starts from the last profile of the one before, interpolated linearly
in angle.  A coarse grid of N_c nodes may take max_iters * N_c / N steps.
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
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .matrices import MatrixSet, UnsupportedDimensionError, is_irreducible
from .norms import (
    TWO_PI,
    AngularNorm,
    _grid,
    _ImagePlan,
    _ZeroValue,
    combine_linear,
    combine_max,
    euclidean,
    normalize,
)

__all__ = [
    "ALGORITHM_LR",
    "ALGORITHM_MR",
    "AVERAGING_KINDS",
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
AVERAGING_KINDS = ("arithmetic", "geometric", "harmonic")

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters_reached"
STATUS_REJECTED = "not_irreducible_rejected"
# every matrix maps some grid direction to 0 (possible for reducible families
# only), so the next profile is undefined: lr has gamma = 0, or the image
# profile that mr and the direct variant need vanishes at a node; or a node
# value underflows to 0, as lr's at such a node does, lam^n times its start
STATUS_DEGENERATE = "degenerate_image"

# Every iterate must keep the reference vector at norm 1; the lr update
# preserves this identity by construction, so drift past this bound means an
# implementation bug and is raised rather than silently rescaled.
_NORMALIZATION_TOL = 1e-12

# The least node count of a coarse grid; a solve needs two such grids to be
# continued (see the module docstring).
_COARSE_MIN_NODES = 1024


@dataclass(frozen=True)
class RelaxConfig:
    """All iteration parameters; validated on construction."""

    algorithm: str = ALGORITHM_LR
    lambda_lo: float = 0.05
    lambda_hi: float = 0.95
    lambda_schedule: float | Sequence[float] = 0.3
    averaging: str = "arithmetic"
    node_count: int = 3000
    e: tuple[float, float] = (1.0, 0.0)
    tol: float = 1e-3
    max_iters: int = 10_000
    initial_norm: AngularNorm | None = None
    unsafe_direct: bool = False

    def __post_init__(self):
        if self.algorithm not in (ALGORITHM_LR, ALGORITHM_MR):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (0.0 < self.lambda_lo <= self.lambda_hi < 1.0):
            raise ValueError(
                f"need 0 < lambda_lo <= lambda_hi < 1, got [{self.lambda_lo}, {self.lambda_hi}]"
            )
        if self.unsafe_direct and self.algorithm != ALGORITHM_LR:
            raise ValueError("unsafe_direct applies to the lr algorithm only")
        if isinstance(self.lambda_schedule, (int, float)):
            sched: float | tuple[float, ...] = float(self.lambda_schedule)
            values = (sched,)
        else:
            sched = tuple(float(v) for v in self.lambda_schedule)
            if not sched:
                raise ValueError("lambda sequence must be nonempty")
            values = sched
        if not self.unsafe_direct:
            for v in values:
                if not (self.lambda_lo <= v <= self.lambda_hi):
                    raise ValueError(
                        f"lambda value {v} outside [{self.lambda_lo}, {self.lambda_hi}]"
                    )
        object.__setattr__(self, "lambda_schedule", sched)
        if self.averaging not in AVERAGING_KINDS:
            raise ValueError(f"unknown averaging {self.averaging!r}")
        n = _count(self.node_count, "node count")
        if n < 8 or n % 2 != 0:
            raise ValueError(f"node count must be even and >= 8, got {n}")
        object.__setattr__(self, "node_count", n)
        e = (float(self.e[0]), float(self.e[1]))
        if not all(math.isfinite(c) for c in e):
            raise ValueError("e must be finite")
        if e == (0.0, 0.0):
            raise ValueError("e must be nonzero")
        t = (math.atan2(e[1], e[0]) + math.pi) * (n / TWO_PI)
        if abs(t - round(t)) > 1e-9:
            raise ValueError(f"e must point along a grid node direction, got {e}")
        object.__setattr__(self, "e", e)
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        iters = _count(self.max_iters, "max_iters")
        if iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {iters}")
        object.__setattr__(self, "max_iters", iters)
        if self.initial_norm is not None and self.initial_norm.node_count != n:
            raise ValueError(
                f"initial norm has {self.initial_norm.node_count} nodes, config wants {n}"
            )

    def lambda_at(self, n: int) -> float:
        """Relaxation weight for step n; a short sequence repeats its last value."""
        if self.unsafe_direct:
            return 0.0
        if isinstance(self.lambda_schedule, float):
            return self.lambda_schedule
        return self.lambda_schedule[min(n, len(self.lambda_schedule) - 1)]


def _count(value, name: str) -> int:
    """value as an int; refuses a bool and any value that is not an integer type."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: bracket ends and the scaling used at step n."""

    n: int
    rho_minus: float
    rho_plus: float
    gamma: float
    lam: float | None = None


@dataclass(frozen=True)
class RelaxResult:
    """Final bracket, midpoint estimate, converged norm, and the trace of the solve.

    The trace, and so the bracket and the norm, are those of the N-node grid.
    levels holds (node count, steps) for every grid the solve stepped on,
    coarsest first, and ends with (N, len(trace)); a solve with no coarse
    level has the one entry, and a rejected family none.
    """

    rho_lo: float
    rho_hi: float
    rho_mid: float
    norm: AngularNorm
    trace: tuple[IterationRecord, ...]
    status: str
    config: RelaxConfig
    levels: tuple[tuple[int, int], ...]


def gamma_mr(rho_minus: float, rho_plus: float, kind: str = "arithmetic") -> float:
    """Average of the bracket ends: arithmetic, geometric, or harmonic.

    The result is clamped into [rho_minus, rho_plus] so the bracket inclusion
    holds exactly even when the last floating-point rounding would nudge it
    out by one ulp.
    """
    t, s = float(rho_minus), float(rho_plus)
    if not (0.0 < t <= s):
        raise ValueError(f"need 0 < rho_minus <= rho_plus, got ({t}, {s})")
    if kind == "arithmetic":
        g = 0.5 * (t + s)
    elif kind == "geometric":
        g = math.sqrt(t * s)
    elif kind == "harmonic":
        g = 2.0 * t * s / (t + s)
    else:
        raise ValueError(f"unknown averaging {kind!r}")
    return min(max(g, t), s)


class _DegenerateImage(ValueError):
    """Every matrix maps a grid direction to 0, so the step is undefined."""


def _require_normalized(
    nm: AngularNorm, plan: _ImagePlan, algorithm: str, n: int, at: str
) -> None:
    v = plan.norm_at_e(nm)
    if abs(v - 1.0) > _NORMALIZATION_TOL:
        raise RuntimeError(
            f"norm of reference vector drifted to {v!r} at {algorithm} step {n} {at}"
        )


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
    """Checks nm at entry, maps the grid once: the node image maxima and the bracket."""
    _require_normalized(nm, plan, algorithm, n, "entry")
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
    """One linear-relaxation step on the solve's plan; the iterate stays normalized at e.

    Raises _DegenerateImage, a ValueError, when the next profile is undefined.
    """
    m, lo, hi = _mapped(nm, plan, n, ALGORITHM_LR)
    g = plan.image_at_e(nm)
    if g == 0.0:
        raise _DegenerateImage("every matrix maps the reference vector to 0 (gamma = 0)")
    lam = cfg.lambda_at(n)
    vals = np.empty(nm.node_count)
    upper = vals[nm.node_count // 2:]
    if cfg.unsafe_direct:
        # degenerate lam = 0 variant: pure image profile, no convergence guarantee
        if lo == 0.0:
            raise _DegenerateImage("every matrix maps a grid direction to 0")
        np.divide(m, g, out=upper)
    else:
        combine_linear(nm, m, lam, g, upper)
    nxt = _next_profile(vals)
    _require_normalized(nxt, plan, ALGORITHM_LR, n, "exit")
    return nxt, IterationRecord(n, lo, hi, g, lam)


def mr_step(
    nm: AngularNorm, plan: _ImagePlan, cfg: RelaxConfig, n: int
) -> tuple[AngularNorm, IterationRecord]:
    """One max-relaxation step on the solve's plan; renormalizes at e after the maximum.

    Raises _DegenerateImage, a ValueError, when the next profile is undefined.
    """
    m, lo, hi = _mapped(nm, plan, n, ALGORITHM_MR)
    if lo == 0.0:
        raise _DegenerateImage("every matrix maps a grid direction to 0 (rho_minus = 0)")
    g = gamma_mr(lo, hi, cfg.averaging)
    vals = np.empty(nm.node_count)
    upper = vals[nm.node_count // 2:]
    combine_max(nm, m, g, upper)
    # |e| under the raised profile, read off its upper half
    np.divide(upper, plan.e.max_norm(upper), out=upper)
    nxt = _next_profile(vals)
    _require_normalized(nxt, plan, ALGORITHM_MR, n, "exit")
    return nxt, IterationRecord(n, lo, hi, g, None)


def _initial(cfg: RelaxConfig) -> AngularNorm:
    init = cfg.initial_norm if cfg.initial_norm is not None else euclidean(cfg.node_count)
    return normalize(init, cfg.e)


def _converged(rec: IterationRecord, cfg: RelaxConfig) -> bool:
    return 0.5 * (rec.rho_plus - rec.rho_minus) <= cfg.tol


def _refined(nm: AngularNorm, n: int) -> AngularNorm:
    """nm interpolated linearly in angle onto the n-node grid.

    Both profiles are centrally symmetric, so only the upper half (phi in
    [0, pi)) is interpolated; its last interval ends at phi = pi, where the
    profile takes its value at phi = 0.
    """
    half = nm.node_count // 2
    xp = np.append(nm.node_angles()[half:], math.pi)
    fp = np.append(nm.values[half:], nm.values[half])
    vals = np.empty(n)
    vals[n // 2:] = np.interp(_grid(n).angles[n // 2:], xp, fp)
    return AngularNorm._adopt(vals)


def _coarse_grids(cfg: RelaxConfig) -> list[int]:
    """Node counts of the grids a solve steps on before cfg's, coarsest first.

    N_c = 2 * floor(N / 8) (N/4 rounded down to even), the same of N_c, and
    so on down to the last of at least _COARSE_MIN_NODES nodes; none for a
    solve with an initial norm or with fewer than two such grids.
    """
    grids, n = [], cfg.node_count
    while (n := 2 * (n // 8)) >= _COARSE_MIN_NODES:
        grids.append(n)
    if cfg.initial_norm is not None or len(grids) < 2:
        return []
    return grids[::-1]


def _start(s: MatrixSet, cfg: RelaxConfig, levels: list[tuple[int, int]]) -> AngularNorm:
    """The normalized start of the solve cfg configures.

    The initial norm, or the Euclidean profile, unless cfg has coarse grids.
    Then each coarse grid in turn is solved with e = (1, 0) from the last
    profile of the grid before, refined, and the last profile, refined onto
    cfg's grid, is the start; each grid's (node count, steps) is appended to
    levels.  A grid of N_c nodes may take max_iters * N_c / N steps, so a
    solve that stalls spends at most (N_c / N)^2 of its N-node grid's
    node-steps there, 1/15 on all of them together.  A grid that yields no
    step leaves the next one the Euclidean start.
    """
    last = None
    for n_c in _coarse_grids(cfg):
        coarse = replace(cfg, node_count=n_c, e=(1.0, 0.0),
                         initial_norm=None if last is None else _refined(last, n_c),
                         max_iters=max(1, cfg.max_iters * n_c // cfg.node_count))
        last, steps = None, 0
        # each grid's plan goes with its generator, before the next grid builds one
        for last, _ in _steps(s, coarse, _initial(coarse)):
            steps += 1
        levels.append((n_c, steps))
    if last is None:
        return _initial(cfg)
    return normalize(_refined(last, cfg.node_count), cfg.e)


def _steps(
    s: MatrixSet, cfg: RelaxConfig, nm: AngularNorm
) -> Iterator[tuple[AngularNorm, IterationRecord]]:
    """The steps on cfg's grid from the normalized profile nm, as iterate yields them.

    The plan is released however the steps end: converged, at the cap, at
    a degenerate image, on an error, or when the caller closes the generator.
    """
    plan = _ImagePlan.reusing(s, cfg.node_count, cfg.e)
    step = lr_step if cfg.algorithm == ALGORITHM_LR else mr_step
    try:
        for n in range(cfg.max_iters):
            try:
                nm, rec = step(nm, plan, cfg, n)
            except _DegenerateImage:
                return
            yield nm, rec
            if _converged(rec, cfg):
                return
    finally:
        plan.release()


def _solve(
    s: MatrixSet, cfg: RelaxConfig, levels: list[tuple[int, int]]
) -> Iterator[tuple[AngularNorm, IterationRecord]]:
    """iterate's steps; the coarse grids' (node count, steps) go into levels."""
    yield from _steps(s, cfg, _start(s, cfg, levels))


def iterate(
    s: MatrixSet, cfg: RelaxConfig | None = None
) -> Iterator[tuple[AngularNorm, IterationRecord]]:
    """Yield the norm and the trace record after each step of the configured scheme.

    Starts from the normalized initial norm and builds the image plan of the
    family once.  With no initial norm and N >= 16384 nodes it first solves
    on the coarse grids N/4, N/16, ... of 1024 nodes or more (see the module
    docstring) and starts from the last profile refined onto the N-node
    grid; it yields the steps of the N-node grid only.
    Stops after the first step whose bracket half-width is within tol,
    after max_iters steps, or, yielding nothing for it, at a step whose
    image profile degenerates.  Does not test irreducibility; run does.
    """
    return _solve(s, RelaxConfig() if cfg is None else cfg, [])


def run(s: MatrixSet, cfg: RelaxConfig | None = None, *, force: bool = False) -> RelaxResult:
    """Iterate the configured scheme until the bracket half-width reaches tol.

    Reducible families are rejected with a distinct status unless force is
    set; forced runs keep valid brackets but may stall at the iteration cap,
    and end with STATUS_DEGENERATE and the records so far if every image of
    some direction vanishes, or a node value underflows to 0.  A grid of
    16384 nodes or more with no initial norm is solved by continuation from
    coarse grids, as iterate does; the trace and the status are the N-node
    grid's, and levels lists every grid's steps.  Pass
    initial_norm=euclidean(N) for a single-level solve.
    """
    if cfg is None:
        cfg = RelaxConfig()
    if s.dim != 2:
        raise UnsupportedDimensionError(f"run supports dim 2 only, got {s.dim}")
    nan = float("nan")
    if not force and not is_irreducible(s):
        return RelaxResult(nan, nan, nan, _initial(cfg), (), STATUS_REJECTED, cfg, ())
    records: list[IterationRecord] = []
    levels: list[tuple[int, int]] = []
    for nm, rec in _solve(s, cfg, levels):
        records.append(rec)
    levels.append((cfg.node_count, len(records)))
    if records and _converged(records[-1], cfg):
        status = STATUS_CONVERGED
    elif len(records) == cfg.max_iters:
        status = STATUS_MAX_ITERS
    else:
        status = STATUS_DEGENERATE
    if not records:
        return RelaxResult(nan, nan, nan, _initial(cfg), (), status, cfg, tuple(levels))
    last = records[-1]
    mid = 0.5 * (last.rho_minus + last.rho_plus)
    return RelaxResult(
        last.rho_minus, last.rho_plus, mid, nm, tuple(records), status, cfg, tuple(levels)
    )
