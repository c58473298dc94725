"""The precomputed image plan against the per-matrix image loop it replaced.

The reference below evaluates every family member with _eval_xy, the array
evaluator that evaluate used before the plan's scalar terms, and takes the
running maximum, as the image map did before it was split into a plan built
once per solve and a gather-multiply-add per step.  The plan performs the
same floating-point operations, so runs must agree bit for bit.
"""

import numpy as np
import pytest

from jsrelax import (
    AngularNorm,
    IterationRecord,
    MatrixSet,
    RelaxConfig,
    euclidean,
    gamma_mr,
    run,
)
from jsrelax import norms, relax
from jsrelax.norms import _grid, _node_image_max, _sector


def _eval_xy(values: np.ndarray, x0, x1) -> np.ndarray:
    """Profile norm of the vectors (x0, x1); arrays of any common shape."""
    idx, f = _sector(x0, x1, values.size)
    interp = (1.0 - f) * values[idx] + f * values[(idx + 1) % values.size]
    return np.hypot(x0, x1) * interp


def reference_image_max(values, mats, x0, x1):
    best = None
    for a in mats:
        v = _eval_xy(values, a[0, 0] * x0 + a[0, 1] * x1, a[1, 0] * x0 + a[1, 1] * x1)
        best = v if best is None else np.maximum(best, v)
    return best


def reference_run(s: MatrixSet, cfg: RelaxConfig):
    """run() rebuilt on the reference image map, for irreducible families."""
    n_nodes, half = cfg.node_count, cfg.node_count // 2
    g = _grid(n_nodes)
    ux, uy = g.ux[half:], g.uy[half:]
    ex, ey = np.array([cfg.e[0]]), np.array([cfg.e[1]])
    mats = s.arrays()

    def normalized(values):
        return AngularNorm(values / float(_eval_xy(values, ex, ey)[0]))

    nm = normalized((cfg.initial_norm or euclidean(n_nodes)).values)
    records = []
    for n in range(cfg.max_iters):
        upper = nm.values[half:]
        m = reference_image_max(nm.values, mats, ux, uy)
        ratio = m / upper
        lo, hi = float(ratio.min()), float(ratio.max())
        if cfg.algorithm == "lr":
            gamma = float(reference_image_max(nm.values, mats, ex, ey)[0])
            lam = cfg.lambda_at(n)
            nxt = m / gamma if cfg.unsafe_direct else lam * upper + (1.0 - lam) * (m / gamma)
            nm = AngularNorm(np.concatenate([nxt, nxt]))
        else:
            gamma, lam = gamma_mr(lo, hi, cfg.averaging), None
            nxt = np.maximum(upper, m / gamma)
            nm = normalized(AngularNorm(np.concatenate([nxt, nxt])).values)
        records.append(IterationRecord(n, lo, hi, gamma, lam))
        if 0.5 * (hi - lo) <= cfg.tol:
            break
    return nm, tuple(records)


EX1 = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0)))
EX2 = (((15 / 17, -16 / 17), (4 / 17, 15 / 17)), ((4 / 5, 3 / 5), (-3 / 5, 4 / 5)))
R32 = tuple(np.random.default_rng(2008).uniform(-2.0, 2.0, size=(32, 2, 2)))


def bumpy(n: int) -> AngularNorm:
    phi = _grid(n).angles
    return AngularNorm(1.0 + 0.3 * np.cos(2.0 * phi) ** 2 + 0.1 * np.sin(phi) ** 2)


CASES = [
    (name, mats, algorithm, n, {})
    for name, mats in (("ex1", EX1), ("ex2", EX2))
    for algorithm in ("lr", "mr")
    for n in (64, 3000)
] + [
    ("r32", R32, "lr", 3000, {"tol": 1e-4, "max_iters": 40}),
    ("r32", R32, "mr", 64, {"tol": 1e-4}),
    ("ex1", EX1, "lr", 64, {"e": (0.0, 2.0)}),
    ("ex2", EX2, "mr", 3000, {"e": (-1.5, 0.0)}),
    ("ex1", EX1, "lr", 3000, {"initial_norm": bumpy(3000)}),
    ("ex2", EX2, "mr", 64, {"initial_norm": bumpy(64)}),
    ("ex1", EX1, "lr", 3000, {"unsafe_direct": True, "max_iters": 40}),
    ("ex1", EX1, "lr", 64, {"lambda_schedule": (0.1, 0.5, 0.9)}),
    ("ex2", EX2, "mr", 3000, {"averaging": "geometric"}),
    ("ex1", EX1, "mr", 64, {"averaging": "harmonic"}),
]


@pytest.mark.parametrize(
    "name, mats, algorithm, n, extra", CASES,
    ids=[f"{c[0]}-{c[2]}-{c[3]}-{'-'.join(c[4]) or 'default'}" for c in CASES],
)
def test_run_matches_reference_bitwise(name, mats, algorithm, n, extra):
    s = MatrixSet(mats)
    cfg = RelaxConfig(algorithm=algorithm, node_count=n, **extra)
    res = run(s, cfg)
    nm, records = reference_run(s, cfg)
    assert res.trace == records
    assert res.norm.values.tobytes() == nm.values.tobytes()


@pytest.mark.parametrize("r, n", [(3, 40000), (40, 3000), (1, 8)])
def test_node_image_max_matches_reference_across_blocks(r, n):
    # 40000 nodes split each row into column blocks; 40 matrices at 3000 nodes
    # span several row blocks
    s = MatrixSet(tuple(np.random.default_rng(r).uniform(-2.0, 2.0, size=(r, 2, 2))))
    nm = bumpy(n)
    g = _grid(n)
    expected = reference_image_max(nm.values, s.arrays(), g.ux[n // 2:], g.uy[n // 2:])
    assert _node_image_max(nm, s).tobytes() == expected.tobytes()


class TestWorkCount:
    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"plans": 0, "stencils": 0, "points": 0, "plan_points": 0, "node_maps": 0,
                 "applies": 0}

        class CountingPlan(norms._ImagePlan):
            def __init__(self, *args):
                tally["plans"] += 1
                before = tally["points"]
                super().__init__(*args)
                tally["plan_points"] += tally["points"] - before

            def node_image_max(self, nm):
                tally["node_maps"] += 1
                return super().node_image_max(nm)

        stencil_init, stencil_apply = norms._Stencil.__init__, norms._Stencil.apply
        points_init = norms._Points.__init__

        def counting_init(self, *args):
            tally["stencils"] += 1
            stencil_init(self, *args)

        def counting_points_init(self, *args):
            tally["points"] += 1
            points_init(self, *args)

        def counting_apply(self, values):
            out = stencil_apply(self, values)
            tally["applies"] += out.size == values.size // 2
            return out

        monkeypatch.setattr(relax, "_ImagePlan", CountingPlan)
        monkeypatch.setattr(norms._Stencil, "__init__", counting_init)
        monkeypatch.setattr(norms._Stencil, "apply", counting_apply)
        monkeypatch.setattr(norms._Points, "__init__", counting_points_init)
        return tally

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    @pytest.mark.parametrize("mats", [EX1, R32], ids=["ex1", "r32"])
    def test_one_plan_per_run_one_node_map_per_step(self, counts, mats, algorithm):
        res = run(MatrixSet(mats), RelaxConfig(algorithm=algorithm, node_count=512, tol=1e-4))
        steps = len(res.trace)
        assert steps > 1
        assert counts["plans"] == 1
        assert counts["stencils"] == 1  # the node grid, inside the plan
        assert counts["plan_points"] == 2  # the terms of A_i e and of e
        assert counts["node_maps"] == steps
        assert counts["applies"] == steps  # nothing else maps the node grid

    def test_each_direct_step_builds_its_own_plan(self, counts):
        nm = euclidean(64)
        for n in range(3):
            nm, _ = relax.lr_step(nm, MatrixSet(EX1), RelaxConfig(node_count=64), n)
        assert counts["plans"] == counts["node_maps"] == counts["applies"] == 3


def test_plan_one_point_stencils_match_evaluate_and_max_image():
    s = MatrixSet(R32)
    nm = bumpy(3000)
    for e in ((1.0, 0.0), (0.0, -2.0), (-3.0, 0.0), (1.0, 1.0)):
        plan = norms._ImagePlan(s, 3000, e)
        assert plan.norm_at_e(nm) == norms.evaluate(nm, e)
        assert plan.image_at_e(nm) == norms.max_image(nm, s, e)
