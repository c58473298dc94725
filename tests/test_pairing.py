"""A result's norm and its bracket describe one profile.

run's norm is the last profile iterate yields, and rho_lo, rho_hi and the
trace's last row are that profile's grid bracket; every yield pairs a profile
with its own bracket.  Each check maps the profile again on a fresh image plan
and takes relax.bounds of it, which must give the reported ends bit for bit.
"""

import numpy as np
import pytest

from jsrelax import MatrixSet, RelaxConfig, iterate, run
from jsrelax import norms, relax

EX1 = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0)))
EX2 = (((15 / 17, -16 / 17), (4 / 17, 15 / 17)), ((4 / 5, 3 / 5), (-3 / 5, 4 / 5)))
R32 = tuple(np.random.default_rng(2008).uniform(-2.0, 2.0, size=(32, 2, 2)))

# (N, tol): two single-level solves and a continued one
GRIDS = [(3000, 1e-4), (3000, 1e-9), (30000, 1e-6)]


def grid_bracket(s: MatrixSet, nm, e) -> tuple[float, float]:
    with norms._Plans(s, [(nm.node_count, e)]) as plans:
        plan = plans.take(nm.node_count, e)
        try:
            m = plan.node_image_max(nm)
            return relax.bounds(nm, m, np.empty_like(m))
        finally:
            plans.release(plan)


@pytest.mark.parametrize("n, tol", GRIDS, ids=[f"{n}-{tol:g}" for n, tol in GRIDS])
@pytest.mark.parametrize("algorithm", ["lr", "mr"])
@pytest.mark.parametrize("mats", [EX1, EX2, R32], ids=["ex1", "ex2", "r32"])
def test_norm_and_every_yield_carry_their_own_bracket(mats, algorithm, n, tol):
    s, cfg = MatrixSet(mats), RelaxConfig(algorithm=algorithm, node_count=n, tol=tol)
    res = run(s, cfg)
    assert grid_bracket(s, res.norm, cfg.e) == (res.rho_lo, res.rho_hi)
    assert (res.trace[-1].rho_minus, res.trace[-1].rho_plus) == (res.rho_lo, res.rho_hi)
    seen = list(iterate(s, cfg))
    assert tuple(rec for _, rec in seen) == res.trace
    assert seen[-1][0].values.tobytes() == res.norm.values.tobytes()
    for nm, rec in seen:
        assert grid_bracket(s, nm, cfg.e) == (rec.rho_minus, rec.rho_plus), rec.n
