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

A solve builds the image plan of the family once (norms._ImagePlan), and
each step is lr_step or mr_step on that plan: it maps the grid once, takes
the bracket from bounds and the next profile from combine_linear or
combine_max, all on that single map.  gamma and the norm of e come from
scalar terms in the plan.  The plan is also the solve's workspace: a step
maps the grid into the plan's buffers, and the only array it allocates is
the next profile, whose upper half it computes in place and checks with one
min and one max.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .matrices import MatrixSet, UnsupportedDimensionError, is_irreducible
from .norms import (
    TWO_PI,
    AngularNorm,
    _ImagePlan,
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
# profile that mr and the direct variant need vanishes at a node
STATUS_DEGENERATE = "degenerate_image"

# Every iterate must keep the reference vector at norm 1; the lr update
# preserves this identity by construction, so drift past this bound means an
# implementation bug and is raised rather than silently rescaled.
_NORMALIZATION_TOL = 1e-12


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
        n = int(self.node_count)
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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
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
    """Final bracket, midpoint estimate, converged norm, and the full trace."""

    rho_lo: float
    rho_hi: float
    rho_mid: float
    norm: AngularNorm
    trace: tuple[IterationRecord, ...]
    status: str
    config: RelaxConfig


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
    nxt = AngularNorm._adopt(vals)
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
    nxt = AngularNorm._adopt(vals)
    _require_normalized(nxt, plan, ALGORITHM_MR, n, "exit")
    return nxt, IterationRecord(n, lo, hi, g, None)


def _initial(cfg: RelaxConfig) -> AngularNorm:
    init = cfg.initial_norm if cfg.initial_norm is not None else euclidean(cfg.node_count)
    return normalize(init, cfg.e)


def _converged(rec: IterationRecord, cfg: RelaxConfig) -> bool:
    return 0.5 * (rec.rho_plus - rec.rho_minus) <= cfg.tol


def iterate(
    s: MatrixSet, cfg: RelaxConfig | None = None
) -> Iterator[tuple[AngularNorm, IterationRecord]]:
    """Yield the norm and the trace record after each step of the configured scheme.

    Starts from the normalized initial norm and builds the image plan of the
    family once.  Stops after the first step whose bracket half-width is
    within tol, after max_iters steps, or, yielding nothing for it, at a step
    whose image profile degenerates.  Does not test irreducibility; run does.
    """
    if cfg is None:
        cfg = RelaxConfig()
    nm = _initial(cfg)
    plan = _ImagePlan(s, cfg.node_count, cfg.e)
    step = lr_step if cfg.algorithm == ALGORITHM_LR else mr_step
    for n in range(cfg.max_iters):
        try:
            nm, rec = step(nm, plan, cfg, n)
        except _DegenerateImage:
            return
        yield nm, rec
        if _converged(rec, cfg):
            return


def run(s: MatrixSet, cfg: RelaxConfig | None = None, *, force: bool = False) -> RelaxResult:
    """Iterate the configured scheme until the bracket half-width reaches tol.

    Reducible families are rejected with a distinct status unless force is
    set; forced runs keep valid brackets but may stall at the iteration cap,
    and end with STATUS_DEGENERATE and the records so far if every image of
    some direction vanishes.
    """
    if cfg is None:
        cfg = RelaxConfig()
    if s.dim != 2:
        raise UnsupportedDimensionError(f"run supports dim 2 only, got {s.dim}")
    nan = float("nan")
    if not force and not is_irreducible(s):
        return RelaxResult(nan, nan, nan, _initial(cfg), (), STATUS_REJECTED, cfg)
    records: list[IterationRecord] = []
    for nm, rec in iterate(s, cfg):
        records.append(rec)
    if records and _converged(records[-1], cfg):
        status = STATUS_CONVERGED
    elif len(records) == cfg.max_iters:
        status = STATUS_MAX_ITERS
    else:
        status = STATUS_DEGENERATE
    if not records:
        return RelaxResult(nan, nan, nan, _initial(cfg), (), status, cfg)
    last = records[-1]
    mid = 0.5 * (last.rho_minus + last.rho_plus)
    return RelaxResult(last.rho_minus, last.rho_plus, mid, nm, tuple(records), status, cfg)
