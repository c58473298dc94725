"""The precomputed image plan against a per-matrix image loop.

The reference below evaluates every family member with _eval_xy, an array
evaluator of the star gauge a * h[i0] + b * h[i0 + 1] on the cone
coordinates of _cone, and takes the running maximum, as an image map with
no plan would; it reads the norm of e and lr's gamma off e's grid node, as
c * h_k and c * m_k with e = c u_k.  The plan performs the same
floating-point operations, in a stencil built once per solve and a
gather-multiply-add per step, so runs must agree bit for bit.  The plan
maps only the members whose dominance margin the profile's spread reaches;
the member-screening tests below hold it to the unscreened reference at and
around every margin.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrelax import (
    AngularNorm,
    IterationRecord,
    MatrixSet,
    RelaxConfig,
    euclidean,
    gamma_mr,
    iterate,
    run,
)
from jsrelax import norms, relax
from jsrelax.norms import _cone, _grid


def _eval_xy(values: np.ndarray, x0, x1) -> np.ndarray:
    """Profile norm of the vectors (x0, x1); arrays of one shape."""
    i0, a, b = _cone(x0, x1, values.size)
    return a * values[i0] + b * values[(i0 + 1) % (values.size // 2)]


def reference_image_max(values, mats, x0, x1):
    best = None
    for a in mats:
        v = _eval_xy(values, a[0, 0] * x0 + a[0, 1] * x1, a[1, 0] * x0 + a[1, 1] * x1)
        best = v if best is None else np.maximum(best, v)
    return best


def reference_run(s: MatrixSet, cfg: RelaxConfig):
    """run() rebuilt on the reference image map, for irreducible families:
    the profile whose bracket the last record holds, and the records."""
    n_nodes, half = cfg.node_count, cfg.node_count // 2
    g = _grid(n_nodes)
    ux, uy = g.ux[half:], g.uy[half:]
    ex, ey = cfg.e
    mats = s.arrays()
    # e = c u_k, with u_k the upper-half node nearest e's direction
    k = round((math.atan2(ey, ex) + math.pi) * n_nodes / (2.0 * math.pi)) % half
    c = abs(float(ux[k]) * ex + float(uy[k]) * ey) / float(ux[k] * ux[k] + uy[k] * uy[k])

    def normalized(values):
        return AngularNorm(values / (c * float(values[k])))

    nm = normalized((cfg.initial_norm or euclidean(n_nodes)).values)
    records = []
    for n in range(cfg.max_iters):
        upper = nm.values[half:]
        m = reference_image_max(nm.values, mats, ux, uy)
        ratio = m / upper
        lo, hi = float(ratio.min()), float(ratio.max())
        if cfg.algorithm == "lr":
            gamma = c * float(m[k])
            lam = cfg.lambda_schedule
            nxt = lam * upper + (1.0 - lam) * (m / gamma)
            nxt = AngularNorm(np.concatenate([nxt, nxt]))
        else:
            gamma, lam = gamma_mr(lo, hi), None
            nxt = np.maximum(upper, m / gamma)
            nxt = normalized(AngularNorm(np.concatenate([nxt, nxt])).values)
        records.append(IterationRecord(n, lo, hi, gamma, lam))
        if 0.5 * (hi - lo) <= cfg.tol or n + 1 == cfg.max_iters:
            return nm, tuple(records)
        nm = nxt


EX1 = (((1.0, 1.0), (0.0, 1.0)), ((1.0, 0.0), (-1.0, 1.0)))
EX2 = (((15 / 17, -16 / 17), (4 / 17, 15 / 17)), ((4 / 5, 3 / 5), (-3 / 5, 4 / 5)))
R32 = tuple(np.random.default_rng(2008).uniform(-2.0, 2.0, size=(32, 2, 2)))
R1 = (((0.6, -0.9), (0.8, 0.5)),)  # complex eigenvalues: irreducible alone
R3, R5, R33 = (tuple(np.random.default_rng(r).uniform(-2.0, 2.0, size=(r, 2, 2)))
               for r in (3, 5, 33))
WIDTH = norms._BLOCK  # entries per block of a stencil apply


def node(n: int, k: int, scale: float = 2.5) -> tuple[float, float]:
    """A reference vector along upper-half node k of the N-node grid."""
    g = _grid(n)
    return scale * g.ux[n // 2 + k], scale * g.uy[n // 2 + k]


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
    ("ex1", EX1, "lr", 3000, {"lambda_schedule": 0.0, "max_iters": 40}),
    ("ex1", EX1, "lr", 64, {"lambda_schedule": 0.9}),
    # the block edges of the stencil build and apply: one to 33 rows; N/2
    # below, equal to, above and not a multiple of the block width
    ("r1", R1, "lr", 64, {}),
    ("r1", R1, "mr", 2 * WIDTH + 2, {"max_iters": 6}),
    ("r3", R3, "lr", 2 * WIDTH - 768, {"max_iters": 6, "e": node(2 * WIDTH - 768, 300)}),
    ("r5", R5, "mr", 2 * WIDTH, {"max_iters": 6}),
    ("r5", R5, "lr", 2 * WIDTH, {"max_iters": 6, "lambda_schedule": 0.0}),
    ("r3", R3, "mr", 2 * WIDTH + 7002, {"max_iters": 6, "e": node(2 * WIDTH + 7002, 7)}),
    ("r5", R5, "lr", 4 * WIDTH, {"max_iters": 4, "lambda_schedule": 0.7}),
    ("r33", R33, "lr", 3000, {"lambda_schedule": 0.0, "max_iters": 6}),
    ("r33", R33, "mr", 3002, {"tol": 1e-4, "max_iters": 12, "e": node(3002, 1000, 0.5)}),
    ("r33", R33, "mr", 998, {"max_iters": 12}),
]


@pytest.mark.parametrize(
    "name, mats, algorithm, n, extra", CASES,
    ids=[f"{c[0]}-{c[2]}-{c[3]}-{'-'.join(c[4]) or 'default'}" for c in CASES],
)
def test_run_matches_reference_bitwise(name, mats, algorithm, n, extra):
    # the reference is a single-level solve; from N = 16384 on, run() would
    # start from coarse grids, so those cases pass the Euclidean start
    if n >= 16384:
        extra = {"initial_norm": euclidean(n), **extra}
    s = MatrixSet(mats)
    cfg = RelaxConfig(algorithm=algorithm, node_count=n, **extra)
    res = run(s, cfg)
    nm, records = reference_run(s, cfg)
    assert res.trace == records
    assert res.norm.values.tobytes() == nm.values.tobytes()


@pytest.mark.parametrize("r, n", [
    (3, 40000), (40, 3000), (1, 8), (1, 2 * WIDTH), (5, 2 * WIDTH - 2), (3, 2 * WIDTH + 2),
    (33, 3000), (33, 2 * WIDTH - 768), (5, 6 * WIDTH + 10), (3, 2 * norms._BUILD_BLOCK),
    (3, 8192),
])
def test_node_image_max_matches_reference_across_blocks(r, n):
    # 40000 nodes split each row into column blocks; 40 matrices at 3000 nodes
    # span several row blocks, with a shorter last one; N/2 is also below,
    # at, above and not a multiple of the apply and the build block widths
    s = MatrixSet(tuple(np.random.default_rng(r).uniform(-2.0, 2.0, size=(r, 2, 2))))
    nm = bumpy(n)
    g = _grid(n)
    expected = reference_image_max(nm.values, s.arrays(), g.ux[n // 2:], g.uy[n // 2:])
    assert norms._ImagePlan(s, n, (1.0, 0.0)).node_image_max(nm).tobytes() == expected.tobytes()


class TestWorkCount:
    @pytest.fixture
    def counts(self, monkeypatch):
        tally = {"plans": 0, "cones": 0, "plan_cones": 0, "node_maps": 0}
        plan_init, node_image_max, cone = (norms._ImagePlan.__init__,
                                           norms._ImagePlan.node_image_max, norms._cone)

        def counting_init(self, *args):
            tally["plans"] += 1
            before = tally["cones"]
            plan_init(self, *args)
            tally["plan_cones"] += tally["cones"] - before

        def counting_map(self, nm):
            # the plan is the only builder of a node stencil, so this counts every node map
            tally["node_maps"] += 1
            return node_image_max(self, nm)

        def counting_cone(*args):
            # the sector lookup of every vector the package evaluates off the node map
            tally["cones"] += 1
            return cone(*args)

        monkeypatch.setattr(norms._ImagePlan, "__init__", counting_init)
        monkeypatch.setattr(norms._ImagePlan, "node_image_max", counting_map)
        monkeypatch.setattr(norms, "_cone", counting_cone)
        monkeypatch.setattr(norms, "_kept", {})  # an empty slot of kept plans
        return tally

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    @pytest.mark.parametrize("mats", [EX1, R32], ids=["ex1", "r32"])
    def test_one_plan_per_run_one_node_map_per_step(self, counts, mats, algorithm):
        res = run(MatrixSet(mats), RelaxConfig(algorithm=algorithm, node_count=512, tol=1e-4))
        steps = len(res.trace)
        assert steps > 1
        assert counts["plans"] == 1  # the only builder of a node stencil
        # the start and every step read |e| and gamma off node values: every
        # sector lookup is the stencil build's
        cones = counts["cones"]
        assert cones == counts["plan_cones"] > 0
        assert counts["node_maps"] == steps  # nothing else maps the node grid
        # the other algorithm on an equal family takes the kept plan: no build
        other = "mr" if algorithm == "lr" else "lr"
        again = run(MatrixSet(mats), RelaxConfig(algorithm=other, node_count=512, tol=1e-4))
        assert counts["plans"] == 1 and counts["cones"] == cones
        assert counts["node_maps"] == steps + len(again.trace)

    def test_a_step_on_a_given_plan_builds_no_plan_and_no_stencil(self, counts):
        lr, mr = RelaxConfig(node_count=64), RelaxConfig(algorithm="mr", node_count=64)
        plan = relax._ImagePlan(MatrixSet(EX1), 64, lr.e)
        assert counts["plans"] == 1
        nm = relax._initial(lr)
        cones = counts["cones"]
        for n in range(3):
            nm, _ = relax.lr_step(nm, plan, lr, n)
        for n in range(3, 6):
            nm, _ = relax.mr_step(nm, plan, mr, n)
        assert counts["plans"] == 1
        assert counts["node_maps"] == 6
        assert counts["cones"] == cones  # no step looks up a sector


@pytest.mark.parametrize("mats", [EX1, EX2, R32], ids=["ex1", "ex2", "r32"])
@pytest.mark.parametrize("n", [64, 3000])
def test_values_read_at_e_match_evaluate_and_max_image(mats, n):
    # e = c u_k: c h_k and c m_k are evaluate's and max_image's bits when c is
    # a power of two, and agree with them up to rounding otherwise
    s, nm = MatrixSet(mats), bumpy(n)

    def read_and_evaluated(e):
        plan = norms._ImagePlan(s, n, e)
        return ((plan.at_e(nm.values), plan.at_e(plan.node_image_max(nm))),
                (norms.evaluate(nm, e), norms.max_image(nm, s, e)))

    for e in ((1.0, 0.0), (0.0, -2.0), (-0.5, 0.0), (0.0, 2.0 ** -40), (2.0 ** 40, 0.0),
              node(n, 5, 2.0 ** -3)):
        read, evaluated = read_and_evaluated(e)
        assert read == evaluated, e
    for e in ((-3.0, 0.0), (1.0, 1.0), (0.5, 0.5), node(n, 7)):
        read, evaluated = read_and_evaluated(e)
        assert read == pytest.approx(evaluated, rel=1e-13, abs=0.0), e


def test_iterate_yields_are_not_overwritten_by_later_steps():
    # every step reuses the plan's buffers; the profiles and records it
    # yields must not share them
    for algorithm in ("lr", "mr"):
        cfg = RelaxConfig(algorithm=algorithm, node_count=512, tol=1e-6, max_iters=30)
        seen = [(nm, rec, nm.values.tobytes()) for nm, rec in iterate(MatrixSet(R32), cfg)]
        assert len(seen) > 2
        for nm, _, raw in seen:
            assert nm.values.tobytes() == raw
            assert not nm.values.flags.writeable
        res = run(MatrixSet(R32), cfg)
        assert res.trace == tuple(rec for _, rec, _ in seen)
        assert res.norm.values.tobytes() == seen[-1][2]


def test_step_allocates_only_the_next_profile():
    cfg = RelaxConfig(node_count=256)
    plan = norms._ImagePlan(MatrixSet(R5), 256, cfg.e)
    nm = relax._initial(cfg)
    buffers = (plan.ratio, plan.best)
    for n in range(4):
        m = plan.node_image_max(nm)
        assert m is plan.best  # the plan's output, overwritten by the next call
        prev = nm.values.tobytes()
        nxt, _ = relax.lr_step(nm, plan, cfg, n)
        assert nm.values.tobytes() == prev
        assert not any(np.shares_memory(nxt.values, b) for b in buffers)
        nm = nxt


def test_normalize_matches_folding_construction_bitwise():
    # a symmetric profile over a scalar keeps its halves equal, so normalize
    # skips the antipodal fold of construction without changing a bit
    for nm, e in ((euclidean(8), (1.0, 0.0)), (euclidean(3000), (0.0, -3.0)),
                  (euclidean(3002), node(3002, 11, 1e-300)), (bumpy(64), (1e300, 0.0)),
                  (bumpy(2 * WIDTH + 2), node(2 * WIDTH + 2, 5)), (bumpy(3000), (0.3, -0.7)),
                  (AngularNorm(1e308 * bumpy(16).values), (0.6, 0.8))):
        expected = AngularNorm(nm.values / norms.evaluate(nm, e))
        assert norms.normalize(nm, e).values.tobytes() == expected.values.tobytes()


NAN, INF = float("nan"), float("inf")
FINITE = "profile values must be finite"
POSITIVE = "profile values must be positive"
# bad upper-half entries at mixed positions: finite is refused before positive
BAD = [
    ({3: NAN}, FINITE), ({0: INF}, FINITE), ({7: -INF}, FINITE), ({5: -1.0}, POSITIVE),
    ({1: 0.0, 6: -1.0}, POSITIVE), ({2: -0.0, 4: -2.0}, POSITIVE),
    ({0: -1.0, 7: NAN}, FINITE), ({1: NAN, 6: -1.0}, FINITE), ({2: 0.0, 5: INF, 7: -1.0}, FINITE),
    ({4: -0.0, 0: -INF}, FINITE), ({7: -5.0, 3: -0.0, 0: INF}, FINITE),
]
# with no negative or non-finite entry the step stops at the degenerate
# bracket first, so these reach the profile check through construction only
BAD_CONSTRUCTION_ONLY = [({2: 0.0}, POSITIVE), ({6: -0.0}, POSITIVE), ({1: 0.0, 5: INF}, FINITE)]


@pytest.mark.parametrize("bad, message", BAD + BAD_CONSTRUCTION_ONLY)
def test_construction_refuses_finite_before_positive(bad, message):
    values = np.ones(16)
    for j, v in bad.items():
        values[j] = values[j + 8] = v
    with pytest.raises(ValueError, match=message):
        AngularNorm(values)


@pytest.mark.parametrize("bad, message", BAD)
def test_step_refuses_finite_before_positive(bad, message):
    class CraftedPlan(norms._ImagePlan):
        def node_image_max(self, nm):
            m = np.ones(8)
            for j, v in bad.items():
                m[j] = v
            return m

        def at_e(self, values):
            return 1.0

    # lambda = 0 makes the next upper half 0 * h + m / 1.0: m, but for a zero's sign
    cfg = RelaxConfig(node_count=16, lambda_schedule=0.0)
    plan = CraftedPlan(MatrixSet(EX1), 16, cfg.e)
    with pytest.raises(ValueError, match=message):
        relax.lr_step(relax._initial(cfg), plan, cfg, 0)


def where_cone(x0, x1, n):
    """_cone written with one new array per operation, and np.where for the
    vectors that it projects onto a node ray."""
    g = _grid(n)
    t = np.arctan2(x1, x0) * (n / norms.TWO_PI) + n // 2
    i = t.astype(np.intp)
    ux, uy, s, c, sq = g.sectors[:, i]
    b = (ux * x1 - uy * x0) / s
    a = (ux * x0 + uy * x1 - b * c) / sq
    off = np.minimum(a, b) < 0.0
    k = (i + (a < 0.0)) % n
    kx, ky, _, _, ksq = g.sectors[:, k]
    a = np.where(off, (kx * x0 + ky * x1) / ksq, a)
    b = np.where(off, 0.0, b)
    return np.where(off, k, i) % (n // 2), a, b


@pytest.mark.parametrize("n", [8, 10, 64, 3000, 30000, 30002, 40002])
def test_sector_matches_where_form_bitwise(n):
    # exact, scaled and antipodal node directions, vectors just off a node on
    # either side, the axes with signed zeros (atan2 = pi and -pi among them),
    # and random vectors
    g = _grid(n)
    rng = np.random.default_rng(n)
    eps = 1e-13
    x0 = np.concatenate([g.ux, 3.0 * g.ux, -g.ux, g.ux + eps, g.ux - eps,
                         [0.0, -0.0, 1.0, -1.0, 0.0, -0.0, -1.0, -2.0],
                         rng.normal(size=5000)])
    x1 = np.concatenate([g.uy, 3.0 * g.uy, -g.uy, g.uy, g.uy,
                         [1.0, -1.0, 0.0, -0.0, -1.0, 1.0, 0.0, -0.0],
                         rng.normal(size=5000)])
    got = _cone(x0, x1, n)
    want = where_cone(x0, x1, n)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()
    assert min(got[1].min(), got[2].min()) >= 0.0


# Member screening: a step maps only the members whose dominance margin
# mu_k = min_j top_j / w_kj, with w_kj = a + b the weight sum of A_k u_j, is
# within the spread max h / min h (times 1 + 1e-12) of the profile, and must
# equal the reference map of every member.

# the relax_family corpus of the benchmark, before its per-seed rotations
_rng = np.random.default_rng(2008)
CORPUS = [_rng.uniform(-2.0, 2.0, size=(r, 2, 2)) for r, count in ((2, 6), (8, 6), (32, 4))
          for _ in range(count)]


def reference_weights(mats, n):
    """The weight sums a + b of the images of the upper-half nodes, one row per member."""
    g = _grid(n)
    x0, x1 = g.ux[n // 2:], g.uy[n // 2:]
    return np.array([np.add(*_cone(a[0, 0] * x0 + a[0, 1] * x1, a[1, 0] * x0 + a[1, 1] * x1,
                                   n)[1:]) for a in mats])


def reference_margins(mats, n):
    """Each member's margin, in family order, from the reference weight sums."""
    w = reference_weights(mats, n)
    top = w.max(axis=0)
    live = top > 0.0  # columns of weight 0 in every row do not count
    return [min((t / v if v > 0.0 else math.inf for t, v in zip(top[live], row[live])),
                default=math.inf) for row in w]


def assert_unscreened(plan, s, nm):
    n = nm.node_count
    g = _grid(n)
    expected = reference_image_max(nm.values, s.arrays(), g.ux[n // 2:], g.uy[n // 2:])
    assert plan.node_image_max(nm).tobytes() == expected.tobytes()


def spike(n: int, nodes, hi: float) -> AngularNorm:
    """Profile 1 except hi at the given upper-half nodes: min h = 1, max h = hi."""
    upper = np.ones(n // 2)
    upper[list(nodes)] = hi
    return AngularNorm(np.concatenate([upper, upper]))


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_corpus_margins_and_screening_is_exact_around_each(k):
    # for each member, a profile whose spread sits just below, at and just
    # above its margin, with max h on the image of its closest node and
    # min h elsewhere: there the member comes within 2e-12 of the maximum
    n = 3000
    s = MatrixSet(tuple(CORPUS[k]))
    plan = norms._ImagePlan(s, n, (1.0, 0.0))
    exact = reference_margins(s.arrays(), n)
    members = plan.members.tolist()
    assert sorted(members) == list(range(s.count))
    assert plan.margin == [min(exact[i] for i in members[row:]) for row in range(s.count)]
    w = plan.a + plan.b
    assert w.tobytes() == reference_weights(s.arrays(), n)[members].tobytes()
    top = w.max(axis=0)
    for row, member in enumerate(members):
        mu = exact[member]
        if not 1.0 + 1e-9 < mu < math.inf:
            continue
        j = int(np.argmin(top / w[row]))
        i0 = int(plan.i0[row, j])
        # just below its margin the member is skipped, unless a later row
        # has a smaller margin; from 1e-13 below it on, it is mapped
        for factor, mapped in ((1.0 - 2e-12, False if plan.margin[row] == mu else None),
                               (1.0 - 1e-13, True), (1.0, True), (1.0 + 1e-12, True),
                               (1.0 + 1e-6, True)):
            nm = spike(n, {i0, (i0 + 1) % (n // 2)}, mu * factor)
            if mapped is not None:
                assert (plan.members_mapped(nm) > row) == mapped
            assert_unscreened(plan, s, nm)


ZERO = ((0.0, 0.0), (0.0, 0.0))
NIL = ((0.0, 1.0), (0.0, 0.0))
A = ((1.0, 2.0), (-0.5, 1.5))
EDGE_FAMILIES = {
    "zero member": (A, ZERO),
    "zero member first": (ZERO, R1[0]),
    "singular member maps a node to 0": (((1.0, 0.0), (0.0, 0.0)), R1[0]),
    "dominated singular member": (((0.1, 0.0), (0.0, 0.0)), A),
    "nilpotent pair": (NIL, ((0.0, 0.0), (1.0, 0.0))),
    "nilpotent and its double": (NIL, ((0.0, 2.0), (0.0, 0.0))),
    "r1": R1,
    "r1 nilpotent": (NIL,),
}


@pytest.mark.parametrize("name", list(EDGE_FAMILIES))
@pytest.mark.parametrize("n", [64, 3000])
def test_screening_is_exact_on_degenerate_families(name, n):
    s = MatrixSet(EDGE_FAMILIES[name])
    plan = norms._ImagePlan(s, n, (1.0, 0.0))
    assert 1 <= plan.members_mapped(euclidean(n)) <= s.count
    for nm in (euclidean(n), bumpy(n), spike(n, {3, 4}, 7.5), spike(n, range(n // 4), 1e6)):
        assert_unscreened(plan, s, nm)


def test_zero_member_has_infinite_margin_and_is_never_mapped():
    plan = norms._ImagePlan(MatrixSet((ZERO, A)), 64, (1.0, 0.0))
    assert plan.members.tolist() == [1, 0]
    assert plan.margin == [1.0, math.inf]
    assert plan.members_mapped(spike(64, {1}, 1e300)) == 1


def test_dominated_member_is_mapped_only_past_its_margin():
    # A/4 lies a factor 4 below A at every node (its cone coordinates are
    # A's over 4, exactly), so the Euclidean profile maps A alone and a
    # spread above 4 maps both
    s = MatrixSet((np.array(A) / 4.0, A))
    plan = norms._ImagePlan(s, 512, (1.0, 0.0))
    assert plan.members.tolist() == [1, 0]
    assert plan.margin[0] == 1.0 and plan.margin[1] == pytest.approx(4.0, rel=1e-15)
    for nm, mapped in ((euclidean(512), 1), (spike(512, {7}, 3.99), 1), (spike(512, {7}, 4.01), 2),
                       (bumpy(512), 1)):
        assert plan.members_mapped(nm) == mapped
        assert_unscreened(plan, s, nm)


def test_profiles_outside_the_screening_range_map_every_member():
    # a gauge value's rounding is relative only for normal node values whose
    # weighted sums stay finite, so other profiles map every member
    s = MatrixSet((np.array(A) / 256.0, np.array(A) / 64.0))
    plan = norms._ImagePlan(s, 64, (1.0, 0.0))
    assert plan.members_mapped(euclidean(64)) == 1
    for values in (np.full(64, 1e-310), np.full(64, 1.5 * 2.0 ** 1022),
                   spike(64, {2}, 1e-300).values * 1e-10):
        nm = AngularNorm(values)
        assert plan.members_mapped(nm) == 2
        assert_unscreened(plan, s, nm)


screen_entry = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)
screen_matrix = st.lists(screen_entry, min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2)))


@st.composite
def screened_family(draw):
    """Up to six matrices, some of them scaled copies of others, so dominated."""
    base = draw(st.lists(screen_matrix, min_size=1, max_size=4))
    copies = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.floats(0.0, 1.0)),
                           max_size=6 - len(base)))
    mats = base + [scale * base[i] for i, scale in copies]
    return draw(st.permutations(mats))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(screened_family(), st.sampled_from([16, 64, 250]),
       st.lists(st.floats(1.0, 50.0), min_size=1, max_size=8), st.data())
def test_screened_map_equals_unscreened_reference(mats, n, levels, data):
    if not any(np.any(a) for a in mats):
        return  # MatrixSet refuses a family of zero matrices
    s = MatrixSet(tuple(mats))
    plan = norms._ImagePlan(s, n, (1.0, 0.0))
    upper = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n // 2,
                                        max_size=n // 2)))
    assert_unscreened(plan, s, AngularNorm(np.concatenate([upper, upper])))
