import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from jsrelax import (
    AngularNorm,
    Matrix,
    MatrixSet,
    RelaxConfig,
    STATUS_CONVERGED,
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    STATUS_REJECTED,
    UnsupportedDimensionError,
    eccentricity,
    euclidean,
    evaluate,
    gamma_mr,
    is_irreducible,
    iterate,
    normalize,
    run,
    spectral_radius,
)
from jsrelax import relax
from jsrelax.norms import _ImagePlan

from conftest import random_irreducible_pair, rotation


def node_bounds(nm: AngularNorm, s: MatrixSet) -> tuple[float, float]:
    """relax.bounds on the node image maxima of s under nm, as a step takes them."""
    m = _ImagePlan(s, nm.node_count, (1.0, 0.0)).node_image_max(nm)
    return relax.bounds(nm, m, np.empty_like(m))


def lr_once(nm: AngularNorm, s: MatrixSet, cfg: RelaxConfig, n: int):
    """relax.lr_step on a plan of s built for this one step."""
    return relax.lr_step(nm, _ImagePlan(s, nm.node_count, cfg.e), cfg, n)


def mr_once(nm: AngularNorm, s: MatrixSet, cfg: RelaxConfig, n: int):
    """relax.mr_step on a plan of s built for this one step."""
    return relax.mr_step(nm, _ImagePlan(s, nm.node_count, cfg.e), cfg, n)


def image_at_e(nm: AngularNorm, s: MatrixSet, e) -> float:
    """The lr gamma max_i |A_i e|, as a step reads it off the node image maxima."""
    plan = _ImagePlan(s, nm.node_count, e)
    return plan.at_e(plan.node_image_max(nm))


class TestConfig:
    def test_defaults_valid(self):
        cfg = RelaxConfig()
        assert cfg.algorithm == "lr" and cfg.node_count == 3000

    def test_rejects_schedule_outside_window(self):
        for schedule in (1.0, 1.5, -0.1, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"lambda_schedule .* outside \[0, 1\)"):
                RelaxConfig(lambda_schedule=schedule)

    @pytest.mark.parametrize("schedule", [
        0.0, -0.0, 0, 1e-300, 0.99, 1.0 - 2.0 ** -53, np.float32(0.25),
    ])
    def test_accepts_schedule_in_window(self, schedule):
        # the window is [0, 1) whatever the algorithm; mr ignores the weight
        for algorithm in ("lr", "mr"):
            cfg = RelaxConfig(algorithm=algorithm, lambda_schedule=schedule)
            assert type(cfg.lambda_schedule) is float and cfg.lambda_schedule == schedule

    def test_has_seven_fields(self):
        assert [f.name for f in dataclasses.fields(RelaxConfig)] == [
            "algorithm", "lambda_schedule", "node_count", "e", "tol", "max_iters",
            "initial_norm",
        ]

    @pytest.mark.parametrize("schedule", [
        [0.2, 0.3], (0.1, 0.5, 0.9), [], [0.5], np.array([0.2, 0.3]), "0.3", True, False,
    ], ids=repr)
    def test_rejects_a_sequence_or_bool_schedule(self, schedule):
        # one weight for every step: a sequence restarted on each grid of a
        # continued solve
        with pytest.raises(ValueError, match="lambda_schedule must be one number"):
            RelaxConfig(lambda_schedule=schedule)

    def test_rejects_off_grid_reference(self):
        with pytest.raises(ValueError):
            RelaxConfig(node_count=16, e=(1.0, 0.3))

    def test_diagonal_reference_is_on_grid_at_3000(self):
        assert RelaxConfig(e=(1.0, 1.0)).e == (1.0, 1.0)

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            RelaxConfig(e=(0.0, 0.0))

    @pytest.mark.parametrize("e", [(1.0,), (1.0, 0.0, 7.0)])
    def test_rejects_a_reference_of_other_than_two_entries(self, e):
        # (1.0, 0.0, 7.0) became (1.0, 0.0), dropping the 7.0
        with pytest.raises(ValueError, match="e must have two entries"):
            RelaxConfig(e=e)

    def test_rejects_bad_tol_and_cap(self):
        with pytest.raises(ValueError):
            RelaxConfig(tol=0.0)
        with pytest.raises(ValueError):
            RelaxConfig(max_iters=0)

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", np.float64(3)), ("max_iters", 3.0),
        ("max_iters", True), ("node_count", 3000.7), ("node_count", 3000.0),
        ("node_count", np.float64(64)), ("node_count", False), ("node_count", "64"),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            RelaxConfig(**{field: value})

    def test_numpy_integer_counts_become_ints(self):
        cfg = RelaxConfig(node_count=np.int64(64), max_iters=np.int32(3))
        assert type(cfg.node_count) is int and cfg.node_count == 64
        assert type(cfg.max_iters) is int and cfg.max_iters == 3
        assert len(run(MatrixSet((rotation(0.5, 2.0),)), cfg).trace) <= 3

    def test_rejects_mismatched_initial_norm(self):
        with pytest.raises(ValueError):
            RelaxConfig(node_count=3000, initial_norm=euclidean(64))


class TestBounds:
    def test_scalar_family(self):
        lo, hi = node_bounds(euclidean(64), MatrixSet((2.0 * np.eye(2),)))
        assert lo == pytest.approx(2.0, abs=1e-12)
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_rotation_isometry(self):
        # a turn by whole grid steps maps the 64-gon onto itself; any other
        # turn moves each node within the 64-gon bound 1/cos(pi/64)
        lo, hi = node_bounds(euclidean(64), MatrixSet((rotation(2.0 * math.pi * 5 / 64),)))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        lo, hi = node_bounds(euclidean(64), MatrixSet((rotation(math.pi / 5),)))
        assert 1.0 - 1e-12 <= lo <= hi <= 1.0 / math.cos(math.pi / 64) + 1e-12

    def test_example1_initial_bracket(self, example1):
        # closed forms: the shared 2-norm of both members is the golden ratio,
        # and the direction minimum of max_i |A_i u| is sqrt(3/2)
        lo, hi = node_bounds(euclidean(3000), example1)
        assert hi == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-5)
        golden_min = math.sqrt(1.5)
        assert golden_min - 1e-12 <= lo <= golden_min + 3e-3

    def test_rejects_dim_three(self):
        with pytest.raises(UnsupportedDimensionError):
            node_bounds(euclidean(64), MatrixSet((np.eye(3),)))

    def test_example1_lower_matches_dense_sweep(self, example1):
        # independent dense-direction oracle for the same grid-restricted value
        theta = np.linspace(-math.pi, math.pi, 400001)
        u = np.stack([np.cos(theta), np.sin(theta)])
        worst = None
        for m in example1.arrays():
            v = np.hypot(m[0, 0] * u[0] + m[0, 1] * u[1], m[1, 0] * u[0] + m[1, 1] * u[1])
            worst = v if worst is None else np.maximum(worst, v)
        lo, hi = node_bounds(euclidean(3000), example1)
        assert lo == pytest.approx(float(worst.min()), abs=3e-3)
        assert hi == pytest.approx(float(worst.max()), abs=1e-5)


class TestGammas:
    def test_gamma_lr_scalar(self):
        assert image_at_e(euclidean(64), MatrixSet((2.0 * np.eye(2),)), (1.0, 0.0)) == 2.0

    def test_gamma_lr_identity_on_normalized_norm(self, example1):
        nm = euclidean(512)
        for n in range(3):
            nm, _ = lr_once(nm, example1, RelaxConfig(node_count=512), n)
        value = image_at_e(nm, MatrixSet((np.eye(2),)), (1.0, 0.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_gamma_lr_example1(self, example1):
        value = image_at_e(euclidean(3000), example1, (1.0, 0.0))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_gamma_lr_rejects_zero(self):
        # the lr gamma is taken at the config's e, which refuses a zero vector,
        # as normalize does before the first step
        with pytest.raises(ValueError, match="nonzero"):
            RelaxConfig(node_count=64, e=(0.0, 0.0))
        with pytest.raises(ValueError, match="nonzero"):
            normalize(euclidean(64), (0.0, 0.0))

    def test_gamma_mr_degenerate(self):
        assert gamma_mr(2.0, 2.0) == 2.0

    def test_gamma_mr_arithmetic(self):
        assert gamma_mr(1.0, 3.0) == 2.0

    def test_gamma_mr_stays_inside(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            t = rng.uniform(0.01, 5.0)
            s = t + rng.uniform(0.0, 5.0)
            assert t <= gamma_mr(t, s) <= s

    def test_gamma_mr_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_mr(0.0, 1.0)
        with pytest.raises(ValueError):
            gamma_mr(-1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_mr(2.0, 1.0)


class TestSteps:
    def test_lr_scalar_fixed_point(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        nm, rec = lr_once(euclidean(64), fam, RelaxConfig(node_count=64), 0)
        assert (rec.rho_minus, rec.rho_plus) == (pytest.approx(2.0, abs=1e-12),) * 2
        assert rec.gamma == pytest.approx(2.0, abs=1e-12)
        assert rec.lam == 0.3
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_lr_rotation_fixed_point(self):
        # the 64-gon is a fixed point of a turn by whole grid steps, and
        # moves within the 64-gon bound under any other turn
        fam = MatrixSet((rotation(2.0 * math.pi * 7 / 64),))
        nm, rec = lr_once(euclidean(64), fam, RelaxConfig(node_count=64), 0)
        for v in (rec.rho_minus, rec.rho_plus, rec.gamma):
            assert v == pytest.approx(1.0, abs=1e-12)
        assert np.abs(nm.values - 1.0).max() <= 1e-12
        bound = 1.0 / math.cos(math.pi / 64)
        fam = MatrixSet((rotation(1.0),))
        nm, rec = lr_once(euclidean(64), fam, RelaxConfig(node_count=64), 0)
        for v in (rec.rho_minus, rec.rho_plus, rec.gamma):
            assert 1.0 - 1e-12 <= v <= bound + 1e-12
        assert np.abs(nm.values - 1.0).max() <= bound - 1.0

    def test_lr_example1_first_record(self, example1):
        _, rec = lr_once(euclidean(3000), example1, RelaxConfig(), 0)
        assert rec.rho_plus == pytest.approx(1.61803, abs=1e-4)
        assert rec.rho_minus < rec.rho_plus

    def test_lr_rejects_unnormalized_entry(self, example1):
        bad = AngularNorm(2.0 * np.ones(3000))
        with pytest.raises(RuntimeError):
            lr_once(bad, example1, RelaxConfig(), 0)

    def test_mr_scalar_fixed_point(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        nm, rec = mr_once(euclidean(64), fam, RelaxConfig(algorithm="mr", node_count=64), 0)
        assert rec.gamma == pytest.approx(2.0, abs=1e-12)
        assert rec.lam is None
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_mr_duplicate_identities(self):
        fam = MatrixSet((np.eye(2), np.eye(2)))
        nm, rec = mr_once(euclidean(64), fam, RelaxConfig(algorithm="mr", node_count=64), 0)
        for v in (rec.rho_minus, rec.rho_plus, rec.gamma):
            assert v == pytest.approx(1.0, abs=1e-14)
        assert np.abs(nm.values - 1.0).max() <= 1e-14

    def test_mr_example2_first_record_brackets_limit(self, example2):
        cfg = RelaxConfig(algorithm="mr")
        final = run(example2, cfg)
        _, rec = mr_once(euclidean(3000), example2, cfg, 0)
        assert rec.rho_plus >= final.rho_mid - 1e-6
        assert rec.rho_minus <= final.rho_mid + 1e-6


class TestRun:
    def test_scalar_family_converges_immediately(self):
        res = run(MatrixSet((2.0 * np.eye(2),)), RelaxConfig(node_count=64), force=True)
        assert res.status == STATUS_CONVERGED
        assert len(res.trace) == 1
        assert res.rho_mid == pytest.approx(2.0, abs=1e-12)

    def test_reducible_rejected_without_force(self):
        fam = MatrixSet(([[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 5.0]]))
        res = run(fam, RelaxConfig(node_count=64))
        assert res.status == STATUS_REJECTED
        assert res.trace == ()
        assert math.isnan(res.rho_mid)

    def test_forced_run_keeps_valid_bracket(self):
        # reducible pair: the gap cannot close, but the bracket must stay sound
        fam = MatrixSet(([[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 5.0]]))
        res = run(fam, RelaxConfig(node_count=256, max_iters=40), force=True)
        assert res.status == STATUS_MAX_ITERS
        assert res.rho_lo - 1e-9 <= 5.0 <= res.rho_hi + 1e-9

    def test_forced_single_shear_brackets_spectral_radius(self):
        a = [[2.0, 1.0], [0.0, 1.0]]
        fam = MatrixSet((a,))
        res = run(fam, RelaxConfig(node_count=256, max_iters=60), force=True)
        assert res.rho_lo - 1e-9 <= spectral_radius(Matrix(a)) <= res.rho_hi + 1e-9

    def test_single_rotation_like_matrix(self):
        a = [[1.2, -0.9], [1.1, 0.7]]
        fam = MatrixSet((a,))
        res = run(fam, RelaxConfig())
        assert res.status == STATUS_CONVERGED
        expected = spectral_radius(Matrix(a))
        assert abs(res.rho_mid - expected) <= res.config.tol + 1e-6

    def test_rejects_dim_three(self):
        with pytest.raises(UnsupportedDimensionError):
            run(MatrixSet((np.eye(3),)), RelaxConfig())

    def test_overflowing_images_of_e_are_refused_up_front(self):
        # A_1 e = (0, 2e308) overflows; this once warned five times, then
        # failed with "gamma must be positive, got nan" (warnings fail tier-1)
        fam = MatrixSet(([[2.0, -2.0], [1.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]]))
        cfg = RelaxConfig(node_count=64, e=(1e308, 1e308))
        with pytest.raises(ValueError, match=r"images A_i e has a non-finite length"):
            run(fam, cfg, force=True)
        with pytest.raises(ValueError, match=r"images A_i e"):
            next(iterate(fam, cfg))

    @pytest.mark.parametrize("e", [(5e-324, 0.0), (0.0, -1e-310)])
    def test_subnormal_reference_is_refused_up_front(self, example1, e):
        # normalizing at e divided by |e| and overflowed, with a warning
        cfg = RelaxConfig(node_count=64, e=e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^e = \(.+\) is too short"):
                run(example1, cfg)
            with pytest.raises(ValueError, match=r"^e = \(.+\) is too short"):
                next(iterate(example1, cfg))

    def test_overflowing_node_images_are_refused_up_front(self):
        big = 1.5e308  # maps the node at 45 degrees to length 3e308
        fam = MatrixSet(([[big, big], [big, -big]], [[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="grid node"):
            run(fam, RelaxConfig(node_count=64), force=True)

    def test_trace_indices_contiguous(self, example1):
        res = run(example1, RelaxConfig())
        assert [r.n for r in res.trace] == list(range(len(res.trace)))

    def test_result_midpoint_between_bounds(self, example1):
        res = run(example1, RelaxConfig())
        assert res.rho_lo <= res.rho_mid <= res.rho_hi

    def test_direct_iteration_runs(self, example1):
        cfg = RelaxConfig(lambda_schedule=0.0, max_iters=60)
        res = run(example1, cfg)
        assert all(r.lam == 0.0 for r in res.trace)
        assert res.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)

    def test_warm_restart_from_explicit_profile(self, example1):
        first = run(example1, RelaxConfig())
        warm = RelaxConfig(initial_norm=first.norm)
        res = run(example1, warm)
        assert res.status == STATUS_CONVERGED
        assert len(res.trace) <= 3
        assert abs(res.rho_mid - first.rho_mid) <= 2.0 * warm.tol

    def test_two_positive_shears_golden_ratio(self):
        # the alternating product [[2,1],[1,1]] has spectral radius phi^2 and
        # is optimal, so the limit is the golden ratio exactly
        fam = MatrixSet(([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]))
        res = run(fam, RelaxConfig())
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert res.status == STATUS_CONVERGED
        assert abs(res.rho_mid - phi) <= 2e-3

    def test_nilpotent_pair_unit_radius(self):
        # each member is nilpotent but their product is a projection: limit 1
        fam = MatrixSet(([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]))
        res = run(fam, RelaxConfig())
        assert res.status == STATUS_CONVERGED
        assert abs(res.rho_mid - 1.0) <= 2e-3

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    @pytest.mark.parametrize("mats", [
        ([[0.0, 1.0], [0.0, 0.0]],),
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0, -2.0], [0.0, 0.0]]),
    ], ids=["one-nilpotent", "two-nilpotent"])
    def test_forced_common_kernel_ends_degenerate(self, mats, algorithm):
        # every member maps e = (1, 0) to 0: lr has gamma = 0, mr has rho_minus = 0
        cfg = RelaxConfig(algorithm=algorithm, node_count=64)
        res = run(MatrixSet(mats), cfg, force=True)
        assert res.status == STATUS_DEGENERATE
        assert res.trace == ()
        assert math.isnan(res.rho_lo) and math.isnan(res.rho_hi) and math.isnan(res.rho_mid)
        assert np.array_equal(res.norm.values, euclidean(64).values)
        assert list(iterate(MatrixSet(mats), cfg)) == []

    def test_direct_iteration_degenerate_off_reference(self):
        # e = (0, 1) has a nonzero image, but the direction (1, 0) maps to 0,
        # so the pure image profile of the direct iteration is not a norm
        fam = MatrixSet(([[0.0, 1.0], [0.0, 0.0]],))
        cfg = RelaxConfig(node_count=64, e=(0.0, 1.0), lambda_schedule=0.0)
        assert run(fam, cfg, force=True).status == STATUS_DEGENERATE

    def test_forced_lr_whose_node_value_underflows_ends_degenerate(self):
        # (0, 1) maps to 0, so lr keeps lam^n of its value there, which
        # underflows after 11 steps; it raised "profile values must be positive"
        lam = 8.0e-28
        cfg = RelaxConfig(node_count=8, tol=1e-300, max_iters=30, lambda_schedule=lam)
        res = run(MatrixSet(([[0.0, 0.0], [1.0, 0.0]],)), cfg, force=True)
        assert res.status == STATUS_DEGENERATE
        assert len(res.trace) == 11 and res.rho_lo == 0.0

    def test_steps_still_raise_on_degenerate_input(self):
        fam = MatrixSet(([[0.0, 1.0], [0.0, 0.0]],))
        with pytest.raises(ValueError):
            lr_once(euclidean(64), fam, RelaxConfig(node_count=64), 0)
        with pytest.raises(ValueError):
            mr_once(euclidean(64), fam, RelaxConfig(algorithm="mr", node_count=64), 0)

    def test_triple_family_vs_oracle(self):
        from jsrelax import product_bounds

        fam = MatrixSet((
            rotation(0.9, scale=1.1),
            [[1.0, 0.4], [0.0, 0.8]],
            [[0.6, -0.5], [0.7, 0.2]],
        ))
        assert is_irreducible(fam)
        res = run(fam, RelaxConfig(node_count=600, max_iters=400))
        assert res.status == STATUS_CONVERGED
        for depth in (1, 3, 5, 7):
            b = product_bounds(fam, depth)
            slack = 20.0 * (2.0 * math.pi / 600) ** 2 * res.rho_hi
            assert b.lower <= res.rho_hi + slack
            assert res.rho_lo <= b.upper + slack

    def test_random_families_agree_with_oracle(self):
        # converged grid brackets are exact only to O(grid spacing^2) relative,
        # so the cross-check slack scales with the resolution and the value
        rng = np.random.default_rng(14)
        nodes = 500
        done = 0
        while done < 15:
            fam = random_irreducible_pair(rng)
            res = run(fam, RelaxConfig(node_count=nodes, max_iters=400))
            if res.status != STATUS_CONVERGED:
                continue
            done += 1
            from jsrelax import product_bounds

            b = product_bounds(fam, 6)
            slack = 20.0 * (2.0 * math.pi / nodes) ** 2 * max(res.rho_hi, b.lower)
            assert b.lower <= res.rho_hi + slack
            assert res.rho_lo <= b.upper + slack


class TestStepPath:
    """run() steps through the names on relax that a tracer wraps."""

    @pytest.fixture
    def calls(self, monkeypatch):
        tally = Counter()
        for name in ("lr_step", "mr_step", "bounds", "combine_linear", "combine_max"):
            def counted(*args, _fn=getattr(relax, name), _name=name, **kwargs):
                tally[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(relax, name, counted)
        return tally

    @pytest.mark.parametrize("algorithm, combine", [
        ("lr", "combine_linear"), ("mr", "combine_max"),
    ])
    def test_each_step_calls_bounds_and_its_combine_once(self, calls, example1, algorithm,
                                                          combine):
        res = run(example1, RelaxConfig(algorithm=algorithm, node_count=512))
        steps = len(res.trace)
        assert steps > 1
        assert calls == {f"{algorithm}_step": steps, "bounds": steps, combine: steps}

    def test_direct_iteration_steps_through_combine_linear(self, calls, example1):
        res = run(example1, RelaxConfig(node_count=512, lambda_schedule=0.0, max_iters=20))
        steps = len(res.trace)
        assert steps > 1
        assert calls == {"lr_step": steps, "bounds": steps, "combine_linear": steps}


class TestTraceInvariants:
    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_example_monotone_brackets(self, example1, example2, algorithm):
        for fam in (example1, example2):
            res = run(fam, RelaxConfig(algorithm=algorithm))
            tr = res.trace
            assert res.status == STATUS_CONVERGED
            for i in range(len(tr) - 1):
                assert tr[i + 1].rho_plus <= tr[i].rho_plus * (1.0 + 1e-6)
                assert tr[i + 1].rho_minus >= tr[i].rho_minus * (1.0 - 1e-6)
            for a in tr:
                for b in tr:
                    assert a.rho_minus <= b.rho_plus * (1.0 + 1e-6)

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_gamma_inside_bracket(self, example1, algorithm):
        res = run(example1, RelaxConfig(algorithm=algorithm))
        for rec in res.trace:
            assert rec.rho_minus - 1e-12 <= rec.gamma <= rec.rho_plus + 1e-12

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_normalization_every_step(self, example1, algorithm):
        cfg = RelaxConfig(algorithm=algorithm)
        for nm, _ in iterate(example1, cfg):
            assert abs(evaluate(nm, cfg.e) - 1.0) <= 1e-12

    def test_scaling_equivariance_stepwise(self):
        rng = np.random.default_rng(10)
        fam = random_irreducible_pair(rng)
        tripled = MatrixSet(tuple(3.0 * m.entries for m in fam))
        cfg = RelaxConfig(max_iters=30)
        for (n1, r1), (n3, r3) in zip(iterate(fam, cfg), iterate(tripled, cfg)):
            assert r3.rho_minus == pytest.approx(3.0 * r1.rho_minus, rel=1e-12)
            assert r3.rho_plus == pytest.approx(3.0 * r1.rho_plus, rel=1e-12)
            assert float(np.abs(n3.values / n1.values - 1.0).max()) <= 1e-12

    def test_eccentricity_diagnostic_nonincreasing(self, example1):
        cfg = RelaxConfig()
        final = run(example1, cfg).norm
        previous = eccentricity(normalize(euclidean(cfg.node_count), cfg.e), final)
        for nm, _ in iterate(example1, cfg):
            current = eccentricity(nm, final)
            assert current <= previous + 1e-4
            previous = current
