"""Acceptance suite: one pass/fail line per criterion (run with -s to see them all).

Criteria 1-3 pin the published reference values for the two benchmark
families; the rest pin the bracket/monotonicity/normalization guarantees,
degenerate cases, and byte-level determinism of the serialized outputs.
Iteration-count ceilings are deliberately loose: the reference step counts
depend on unspecified initialization details, the converged values do not.
"""

import json
import math
import time

import numpy as np
import pytest

from jsrelax import (
    MatrixSet,
    RelaxConfig,
    STATUS_CONVERGED,
    evaluate,
    iterate,
    product_bounds,
    run,
)
from jsrelax.cli import cli_main
from jsrelax.norms import _ImagePlan

from conftest import random_irreducible_pair, rotation


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference_runs(example1, example2):
    """The four benchmark runs at the published settings, with wall times."""
    out = {}
    for name, fam in (("ex1", example1), ("ex2", example2)):
        for algorithm in ("lr", "mr"):
            cfg = RelaxConfig(algorithm=algorithm)
            t0 = time.perf_counter()
            res = run(fam, cfg)
            out[name, algorithm] = (res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def oracle_bounds(example1, example2):
    """Depth 1..12 product bounds for both families, with total wall time."""
    t0 = time.perf_counter()
    table = {
        "ex1": [product_bounds(example1, n) for n in range(1, 13)],
        "ex2": [product_bounds(example2, n) for n in range(1, 13)],
    }
    return table, time.perf_counter() - t0


def test_criterion_1_example1_lr(reference_runs):
    res, elapsed = reference_runs["ex1", "lr"]
    ok = (
        res.status == STATUS_CONVERGED
        and 1.387 <= res.rho_mid <= 1.391
        and len(res.trace) <= 200
        and elapsed <= 10.0
    )
    report(
        "1 example1-lr",
        ok,
        f"mid={res.rho_mid:.6f} iters={len(res.trace)} time={elapsed:.3f}s",
    )


def test_criterion_2_example1_mr(reference_runs):
    res, _ = reference_runs["ex1", "mr"]
    ok = (
        res.status == STATUS_CONVERGED
        and 1.387 <= res.rho_mid <= 1.391
        and len(res.trace) <= 200
    )
    report("2 example1-mr", ok, f"mid={res.rho_mid:.6f} iters={len(res.trace)}")


def test_criterion_3_example2_both(reference_runs):
    details = []
    ok = True
    for algorithm in ("lr", "mr"):
        res, _ = reference_runs["ex2", algorithm]
        good = (
            res.status == STATUS_CONVERGED
            and 1.190 <= res.rho_mid <= 1.194
            and len(res.trace) <= 300
        )
        ok = ok and good
        details.append(f"{algorithm}: mid={res.rho_mid:.6f} iters={len(res.trace)}")
    report("3 example2-lr-mr", ok, "; ".join(details))


def test_criterion_4_bracket_vs_oracle(reference_runs, oracle_bounds):
    table, elapsed = oracle_bounds
    worst = -math.inf
    for name in ("ex1", "ex2"):
        for algorithm in ("lr", "mr"):
            res, _ = reference_runs[name, algorithm]
            for b in table[name]:
                for rec in res.trace:
                    worst = max(
                        worst,
                        b.lower - rec.rho_plus,
                        rec.rho_minus - b.upper,
                    )
    ok = worst <= 1e-6 and elapsed <= 60.0
    report(
        "4 bracket-vs-oracle",
        ok,
        f"worst excess={worst:.2e} oracle time={elapsed:.1f}s",
    )


def test_criterion_5_monotonicity_suite():
    rng = np.random.default_rng(20260811)
    worst_up = worst_lo = 0.0
    worst_gamma = -math.inf
    norm_ok = True
    for _ in range(20):
        fam = random_irreducible_pair(rng)
        for algorithm in ("lr", "mr"):
            cfg = RelaxConfig(algorithm=algorithm, max_iters=150)
            previous = None
            for nm, rec in iterate(fam, cfg):
                norm_ok = norm_ok and abs(evaluate(nm, cfg.e) - 1.0) <= 1e-12
                worst_gamma = max(
                    worst_gamma, rec.rho_minus - rec.gamma, rec.gamma - rec.rho_plus
                )
                if previous is not None:
                    worst_up = max(
                        worst_up, (rec.rho_plus - previous.rho_plus) / previous.rho_plus
                    )
                    worst_lo = max(
                        worst_lo, (previous.rho_minus - rec.rho_minus) / previous.rho_minus
                    )
                previous = rec
    ok = worst_up <= 1e-6 and worst_lo <= 1e-6 and worst_gamma <= 1e-12 and norm_ok
    report(
        "5 monotonicity-20-random-pairs",
        ok,
        f"worst rho+ rise={worst_up:.2e} worst rho- drop={worst_lo:.2e} "
        f"gamma excess={worst_gamma:.2e}",
    )


def test_criterion_6_normalization(example1, example2, reference_runs):
    worst = 0.0
    for name, fam in (("ex1", example1), ("ex2", example2)):
        for algorithm in ("lr", "mr"):
            cfg = RelaxConfig(algorithm=algorithm)
            replay = []
            for nm, rec in iterate(fam, cfg):
                worst = max(worst, abs(evaluate(nm, cfg.e) - 1.0))
                replay.append(rec)
            # the stepwise replay is exactly the accepted run
            assert tuple(replay) == reference_runs[name, algorithm][0].trace
    report("6 normalization-at-e", worst <= 1e-12, f"worst |e-norm - 1|={worst:.2e}")


def test_criterion_7_scaling_equivariance():
    rng = np.random.default_rng(77)
    worst_rho = worst_profile = 0.0
    for _ in range(5):
        fam = random_irreducible_pair(rng)
        tripled = MatrixSet(tuple(3.0 * m.entries for m in fam))
        cfg = RelaxConfig(max_iters=40)
        for (n1, r1), (n3, r3) in zip(iterate(fam, cfg), iterate(tripled, cfg)):
            worst_rho = max(
                worst_rho,
                abs(r3.rho_minus - 3.0 * r1.rho_minus) / (3.0 * r1.rho_minus),
                abs(r3.rho_plus - 3.0 * r1.rho_plus) / (3.0 * r1.rho_plus),
            )
            worst_profile = max(
                worst_profile, float(np.abs(n3.values / n1.values - 1.0).max())
            )
    ok = worst_rho <= 1e-12 and worst_profile <= 1e-12
    report(
        "7 scaling-equivariance",
        ok,
        f"worst rho rel dev={worst_rho:.2e} worst profile rel dev={worst_profile:.2e}",
    )


def test_criterion_8_scaled_rotations():
    details = []
    ok = True
    for c in (0.5, 1.0, 2.0):
        fam = MatrixSet((rotation(math.pi / 5, scale=c),))
        res = run(fam, RelaxConfig())
        good = (
            res.status == STATUS_CONVERGED
            and len(res.trace) <= 5
            and abs(res.rho_mid - c) <= res.config.tol + 1e-9
        )
        ok = ok and good
        details.append(f"c={c}: mid={res.rho_mid:.12f} iters={len(res.trace)}")
    report("8 scaled-rotations", ok, "; ".join(details))


def test_criterion_9_barabanov_residual(example1, reference_runs):
    res, _ = reference_runs["ex1", "lr"]
    nm = res.norm
    m = _ImagePlan(example1, nm.node_count, res.config.e).node_image_max(nm)
    ratios = m / nm.values[nm.node_count // 2:]
    residual = float(np.abs(ratios - res.rho_mid).max())
    ok = residual <= 2.0 * res.config.tol
    report("9 barabanov-residual", ok, f"max |ratio - mid|={residual:.2e}")


def test_criterion_10_determinism(tmp_path):
    problem = tmp_path / "ex1.json"
    problem.write_text(json.dumps({"matrices": [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]}))
    outputs = {}
    for tag in ("a", "b"):
        trace = tmp_path / f"trace-{tag}.csv"
        norm = tmp_path / f"norm-{tag}.csv"
        svg = tmp_path / f"sphere-{tag}.svg"
        code = cli_main([
            "run", "--algorithm", "lr", "--lambda", "0.3", "--nodes", "3000",
            "--tol", "1e-3", "--trace", str(trace), "--norm-out", str(norm),
            "--svg", str(svg), str(problem),
        ])
        assert code == 0
        outputs[tag] = (trace.read_bytes(), norm.read_bytes(), svg.read_bytes())
    ok = outputs["a"] == outputs["b"]
    report("10 byte-determinism", ok, "trace, norm and svg outputs identical")
