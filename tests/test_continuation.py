"""Grid continuation: a solve of N nodes with no initial norm starts from
solves on the coarse grids N/4, N/16, ... (each 2 * floor(n / 8) nodes) of
at least 1024 nodes, coarsest first, when there are two or more of them.

The chain below rebuilds it by hand: iterate on each coarse grid with
e = (1, 0) and max_iters * N_c / N steps at most, the last profile's star
gauge a * h[i0] + b * h[i0 + 1] evaluated at the next grid's upper-half
nodes (the profile of the same polygon there), and that profile passed as
the next solve's initial norm (which iterate and run normalize at their e).
"""

from dataclasses import replace

import numpy as np
import pytest

from jsrelax import (
    AngularNorm,
    MatrixSet,
    RelaxConfig,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    euclidean,
    iterate,
    product_bounds,
    run,
)
from jsrelax.norms import _cone, _grid

EX1 = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0)))
EX2 = (((15 / 17, -16 / 17), (4 / 17, 15 / 17)), ((4 / 5, 3 / 5), (-3 / 5, 4 / 5)))
R3 = tuple(np.random.default_rng(3).uniform(-2.0, 2.0, size=(3, 2, 2)))


def refine(nm: AngularNorm, n: int) -> AngularNorm:
    g = _grid(n)
    i0, a, b = _cone(g.ux[n // 2:], g.uy[n // 2:], nm.node_count)
    upper = a * nm.values[i0] + b * nm.values[(i0 + 1) % (nm.node_count // 2)]
    return AngularNorm(np.concatenate([upper, upper]))


def chain(s: MatrixSet, cfg: RelaxConfig, coarse: tuple[int, ...]):
    """run(s, cfg) rebuilt level by level on the given coarse node counts."""
    start, levels = None, []
    grids = (*coarse, cfg.node_count)
    for n, finer in zip(grids, grids[1:]):
        budget = max(1, cfg.max_iters * n // cfg.node_count)
        steps = list(iterate(s, replace(cfg, node_count=n, e=(1.0, 0.0), initial_norm=start,
                                        max_iters=budget)))
        levels.append((n, len(steps)))
        start = refine(steps[-1][0], finer) if steps else None
    return run(s, replace(cfg, initial_norm=start)), levels


@pytest.mark.parametrize("mats, extra, coarse", [
    (EX2, {"node_count": 30000, "tol": 1e-6}, (1874, 7500)),
    (EX1, {"node_count": 16384, "algorithm": "mr", "e": (0.0, 2.0)},
     (1024, 4096)),
    (R3, {"node_count": 16392, "lambda_schedule": 0.9, "tol": 1e-5},
     (1024, 4098)),
    (tuple(np.array(EX1) * 1e300), {"node_count": 30000, "max_iters": 40}, (1874, 7500)),
], ids=["ex2-lr-30000", "ex1-mr-16384-e", "r3-lr-16392-schedule", "ex1x1e300-stalled"])
def test_run_equals_hand_built_chain_bitwise(mats, extra, coarse):
    s = MatrixSet(mats)
    cfg = RelaxConfig(**extra)
    res = run(s, cfg)
    ref, levels = chain(s, cfg, coarse)
    assert res.trace == ref.trace
    assert res.norm.values.tobytes() == ref.norm.values.tobytes()
    assert res.status == ref.status
    assert res.levels == (*levels, (cfg.node_count, len(res.trace)))
    assert ref.levels == ((cfg.node_count, len(ref.trace)),)  # a given start: one level


def test_levels_at_30000_nodes():
    res = run(MatrixSet(EX2), RelaxConfig(node_count=30000, tol=1e-6))
    assert [n for n, _ in res.levels] == [1874, 7500, 30000]
    assert res.levels[-1] == (30000, len(res.trace))
    assert all(steps >= 1 for _, steps in res.levels)


@pytest.mark.parametrize("n, nodes", [
    (16382, [16382]),               # 4094, then 1022: one coarse grid
    (16384, [1024, 4096, 16384]),   # two coarse grids of 1024 nodes or more
    (16392, [1024, 4098, 16392]),   # 2 * floor(16392 / 8) = 4098
    (4096, [4096]),
    (3000, [3000]),
    (300000, [1170, 4686, 18750, 75000, 300000]),
])
def test_coarse_levels_start_at_1024_nodes(n, nodes):
    res = run(MatrixSet(EX1), RelaxConfig(node_count=n))
    assert [k for k, _ in res.levels] == nodes


def test_explicit_initial_norm_is_one_level():
    cfg = RelaxConfig(node_count=30000, tol=1e-6, initial_norm=euclidean(30000))
    res = run(MatrixSet(EX1), cfg)
    assert res.levels == ((30000, len(res.trace)),)


def test_iterate_yields_the_finest_level_only():
    s, cfg = MatrixSet(EX2), RelaxConfig(node_count=16384, tol=1e-6)
    seen = list(iterate(s, cfg))
    res = run(s, cfg)
    assert tuple(rec for _, rec in seen) == res.trace
    assert all(nm.node_count == 16384 for nm, _ in seen)
    assert seen[-1][0].values.tobytes() == res.norm.values.tobytes()


@pytest.mark.parametrize("extra", [
    {"e": (0.0, 1.0)},
    {"e": (-3.0, 0.0), "algorithm": "mr"},
    {"lambda_schedule": 0.95},
    {"algorithm": "mr"},
    {"lambda_schedule": 0.0, "max_iters": 40},
    {"max_iters": 1},
    {"algorithm": "mr", "max_iters": 1},
], ids=lambda extra: "-".join(f"{k}={v}" for k, v in extra.items()))
def test_continued_solves_end_with_a_status(extra):
    cfg = RelaxConfig(node_count=16384, tol=1e-6, **extra)
    res = run(MatrixSet(R3), cfg)
    assert res.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)
    assert [n for n, _ in res.levels] == [1024, 4096, 16384]
    assert 1 <= len(res.trace) <= cfg.max_iters
    assert res.levels[-1] == (16384, len(res.trace))
    assert res.rho_lo <= res.rho_mid <= res.rho_hi


def test_degenerate_coarse_level_falls_back_to_the_euclidean_start():
    # every member maps (1, 0), the coarse grids' e, to 0, so their first lr
    # step has gamma = 0; the fine grid's e = (0, 1) has a nonzero image
    s = MatrixSet((((0.0, 1.0), (0.0, 0.0)), ((0.0, -0.5), (0.0, 0.0))))
    cfg = RelaxConfig(node_count=16384, e=(0.0, 1.0), max_iters=30)
    res = run(s, cfg, force=True)
    assert res.levels == ((1024, 0), (4096, 0), (16384, len(res.trace)))
    assert len(res.trace) >= 1
    single = run(s, replace(cfg, initial_norm=euclidean(16384)), force=True)
    assert res.trace == single.trace
    assert res.status == single.status
    assert res.norm.values.tobytes() == single.norm.values.tobytes()


@pytest.mark.parametrize("mats", [EX1, EX2], ids=["ex1", "ex2"])
@pytest.mark.parametrize("algorithm", ["lr", "mr"])
def test_fine_solves_converge_within_the_product_bounds(mats, algorithm):
    s = MatrixSet(mats)
    cfg = RelaxConfig(algorithm=algorithm, node_count=30000, tol=1e-6)
    res = run(s, cfg)
    assert res.status == STATUS_CONVERGED
    assert len(res.levels) == 3
    proven = product_bounds(s, 10)
    # the grid bracket is not a proven bound; 1e-9 is far below its error
    # at 30000 nodes and far below the depth-10 bounds' width
    assert res.rho_hi >= proven.lower - 1e-9
    assert res.rho_lo <= proven.upper + 1e-9
    # and it brackets the same quantity as the single-level solve
    single = run(s, replace(cfg, initial_norm=euclidean(30000)))
    assert res.rho_lo <= single.rho_hi and single.rho_lo <= res.rho_hi


@pytest.mark.parametrize("mats, force", [
    (tuple(np.array(EX1) * 1e300), False),   # tol is absolute: 1e-3 is below its rounding
    ((((1.0, 1.0), (0.0, 1.0)), ((0.5, 0.3), (0.0, 0.9))), True),  # reducible
], ids=["ex1x1e300", "forced-reducible"])
def test_a_stalled_solve_spends_at_most_a_fifteenth_on_coarse_grids(mats, force):
    # each coarse grid of N_c nodes may take max_iters * N_c / N steps, so its
    # node-steps are at most (N_c / N)^2 of the N-node grid's
    cfg = RelaxConfig(node_count=30000, max_iters=200, tol=1e-12)
    res = run(MatrixSet(mats), cfg, force=force)
    assert res.status == STATUS_MAX_ITERS
    assert res.levels == ((1874, 12), (7500, 50), (30000, 200))
    coarse = sum(n * steps for n, steps in res.levels[:-1])
    assert coarse <= 30000 * 200 / 15
