"""The star gauge: cone coordinates, exactness at the nodes, refinement, and
brackets that proven product bounds never contradict.

A profile is the gauge of the star polygon through u_j / h_j, so a vector
y = a u_i + b u_{i+1} (a, b >= 0) has norm a h_i + b h_{i+1}.  Its bracket
ends are then sound up to rounding: the checks below allow 1e-12 relative,
where the angle-linear profile it replaced missed by about 5e-7.
"""

import math

import numpy as np
import pytest

from jsrelax import (
    AngularNorm,
    MatrixSet,
    RelaxConfig,
    STATUS_CONVERGED,
    depth_sweep,
    euclidean,
    evaluate,
    normalize,
    product_bounds,
    run,
)
from jsrelax import norms, relax
from jsrelax.norms import _cone, _grid

from conftest import random_irreducible_pair, rotation

EX1 = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0)))
RHO_EX1 = (2.0 + math.sqrt(3.0)) ** 0.25
ROUNDING = 1e-12  # relative allowance for rounding in a bracket check


def bumpy(n: int) -> AngularNorm:
    phi = _grid(n).angles
    return AngularNorm(1.0 + 0.3 * np.cos(2.0 * phi) ** 2 + 0.1 * np.sin(phi) ** 2)


class TestConeCoordinates:
    def test_every_node_vector_gets_a_unit_weight(self):
        for n in range(8, 4097, 2):
            g = _grid(n)
            _, a, b = _cone(g.ux, g.uy, n)
            unit = ((a == 1.0) & (b == 0.0)) | ((a == 0.0) & (b == 1.0))
            assert unit.all(), n

    @pytest.mark.parametrize("n", [8, 64, 3000, 30000, 300000])
    def test_vectors_within_a_few_ulp_of_a_node_ray_get_no_negative_weight(self, n):
        g = _grid(n)
        step = max(1, n // 30000)  # every node up to 30000 nodes, a sample beyond
        x0, x1 = [], []
        for scale in (1.0, 3.0, 1e-300, 7e299):
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1), (2, -3), (-4, 4)):
                x0.append(_ulps(scale * g.ux[::step], dx))
                x1.append(_ulps(scale * g.uy[::step], dy))
        x0, x1 = np.concatenate(x0), np.concatenate(x1)
        i0, a, b = _cone(x0, x1, n)
        assert a.min() >= 0.0 and b.min() >= 0.0
        # and the weights rebuild the vector: y = +-(a U_i0 + b U_i0+1)
        upper_x = np.append(g.ux[n // 2:], -1.0)
        upper_y = np.append(g.uy[n // 2:], -0.0)
        rx = a * upper_x[i0] + b * upper_x[i0 + 1]
        ry = a * upper_y[i0] + b * upper_y[i0 + 1]
        length = np.hypot(x0, x1)
        err = np.minimum(np.hypot(rx - x0, ry - x1), np.hypot(rx + x0, ry + x1))
        assert (err <= 4e-15 * length).all()

    @pytest.mark.parametrize("n", [8, 10, 3000, 30002])
    def test_power_of_two_scaling_is_bitwise(self, n):
        rng = np.random.default_rng(n)
        g = _grid(n)
        x0 = np.concatenate([g.ux, 3.0 * g.ux, rng.normal(size=2000)])
        x1 = np.concatenate([g.uy, 3.0 * g.uy, rng.normal(size=2000)])
        i0, a, b = _cone(x0, x1, n)
        for k in (-60, -1, 1, 60):
            i0_k, a_k, b_k = _cone(np.ldexp(x0, k), np.ldexp(x1, k), n)
            assert i0_k.tobytes() == i0.tobytes()
            assert a_k.tobytes() == np.ldexp(a, k).tobytes()
            assert b_k.tobytes() == np.ldexp(b, k).tobytes()

    def test_zero_vector_has_zero_weights(self):
        i0, a, b = _cone(np.array([0.0, -0.0, 0.0]), np.array([0.0, -0.0, -0.0]), 64)
        assert (a == 0.0).all() and (b == 0.0).all()
        assert evaluate(bumpy(64), (0.0, -0.0)) == 0.0

    def test_euclidean_is_the_n_gon(self):
        n = 3000
        nm = euclidean(n)
        rng = np.random.default_rng(7)
        for x in rng.normal(size=(500, 2)):
            length = math.hypot(*x)
            assert length * (1.0 - 1e-15) <= evaluate(nm, x) <= length / math.cos(math.pi / n)


def _ulps(x: np.ndarray, k: int) -> np.ndarray:
    """x moved k ulp (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return x


class TestNormalization:
    @pytest.mark.parametrize("e", [(1.0, 0.0), (0.0, 1.0), "node 417"])
    def test_exact_at_a_node(self, e):
        n = 3000
        if e == "node 417":
            g = _grid(n)
            e = (float(g.ux[n // 2 + 417]), float(g.uy[n // 2 + 417]))
        nm = normalize(bumpy(n), e)
        assert evaluate(nm, e) == 1.0
        for algorithm in ("lr", "mr"):
            cfg = RelaxConfig(algorithm=algorithm, node_count=n, e=e, tol=1e-9)
            res = run(MatrixSet(EX1), cfg)
            assert res.status == STATUS_CONVERGED
            assert abs(evaluate(res.norm, e) - 1.0) <= 1e-15

    @pytest.mark.parametrize("offset", [2e-11, 5e-10, 9e-10])
    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_an_e_just_off_a_node_keeps_its_norm(self, offset, algorithm):
        # RelaxConfig accepts e within 1e-9 node units of a node; the node
        # snap of the angle-linear profile once covered such an e
        n = 3000
        phi = (417 + offset) * 2.0 * math.pi / n
        e = (math.cos(phi), math.sin(phi))
        cfg = RelaxConfig(algorithm=algorithm, node_count=n, e=e, tol=1e-9)
        res = run(MatrixSet(EX1), cfg)  # raised the drift RuntimeError if e's norm moved
        assert res.status == STATUS_CONVERGED
        assert abs(evaluate(res.norm, e) - 1.0) <= 1e-12


class TestRefinement:
    @pytest.mark.parametrize("coarse", [64, 1000, 1874])
    def test_refined_profile_is_the_same_polygon(self, coarse):
        # every coarse node is a node of the grid four times finer, so the
        # fine profile is the coarse polygon sampled at more of its points
        nm = run(MatrixSet(EX1), RelaxConfig(node_count=coarse, tol=1e-6)).norm
        fine = relax._refined(nm, 4 * coarse)
        assert fine.values[::4].tobytes() == nm.values.tobytes()
        phi = np.random.default_rng(coarse).uniform(-math.pi, math.pi, size=10000)
        for x in zip(np.cos(phi), np.sin(phi)):
            want = evaluate(nm, x)
            assert abs(evaluate(fine, x) - want) <= 4.0 * math.ulp(want)


class TestBracketsAgainstProvenBounds:
    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_example1_bracket_holds_its_closed_form(self, algorithm):
        res = run(MatrixSet(EX1), RelaxConfig(algorithm=algorithm, node_count=3000, tol=1e-9))
        assert res.status == STATUS_CONVERGED
        assert res.rho_lo <= RHO_EX1 * (1.0 + ROUNDING)
        assert RHO_EX1 <= res.rho_hi * (1.0 + ROUNDING)

    def test_relax_family_corpus_is_never_contradicted(self):
        # the relax_family benchmark corpus, turned by its seed-1 rotations;
        # the depth is the largest with r^d <= 4096
        rng = np.random.default_rng(2008)
        families = [rng.uniform(-2.0, 2.0, size=(r, 2, 2))
                    for r, count in ((2, 6), (8, 6), (32, 4)) for _ in range(count)]
        angles = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, size=len(families))
        bad = []
        for k, (base, angle) in enumerate(zip(families, angles)):
            q = rotation(angle)
            s = MatrixSet(tuple(np.einsum("ij,ajk,lk->ail", q, base, q)))
            depth = int(math.log(4096, s.count) + 1e-9)
            proven = product_bounds(s, depth)
            for algorithm in ("lr", "mr"):
                res = run(s, RelaxConfig(algorithm=algorithm, node_count=3000, tol=1e-4))
                if (res.rho_hi < proven.lower * (1.0 - ROUNDING)
                        or res.rho_lo > proven.upper * (1.0 + ROUNDING)):
                    bad.append((k, algorithm, res.rho_lo, res.rho_hi, proven))
        assert bad == []

    def test_random_pairs_reach_their_lower_bound(self):
        rng = np.random.default_rng(2008)
        bad = []
        for k in range(20):
            s = random_irreducible_pair(rng)
            lower = max(b.lower for b, _ in depth_sweep(s, 12))
            for algorithm in ("lr", "mr"):
                res = run(s, RelaxConfig(algorithm=algorithm, node_count=3000, tol=1e-9))
                if res.rho_hi < lower * (1.0 - ROUNDING):
                    bad.append((k, algorithm, res.rho_hi, lower))
        assert bad == []


def test_a_zero_member_changes_no_bit():
    # its images have weights 0, so it attains no maximum and is screened out
    zero = ((0.0, 0.0), (0.0, 0.0))
    for algorithm in ("lr", "mr"):
        cfg = RelaxConfig(algorithm=algorithm, node_count=512, tol=1e-8)
        base, padded = run(MatrixSet(EX1), cfg), run(MatrixSet((zero, *EX1)), cfg)
        assert padded.trace == base.trace
        assert padded.norm.values.tobytes() == base.norm.values.tobytes()
        plan = norms._ImagePlan(MatrixSet((zero, *EX1)), 512, cfg.e)
        assert plan.members_mapped(base.norm) == 2
