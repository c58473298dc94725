"""The slot of the last solve's finished image plans, one per grid: a solve
takes a kept plan whole for each grid whose family entries, N and e equal
the plan's, frees the other kept plans before its first build, and builds
the plans it lacks; no output bit may depend on it.

Each test starts with an empty slot.  The corpus is that of the relax_family
benchmark: seeded random families of 2, 8 and 32 matrices at N = 3000, each
solved with lr and then with mr.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from jsrelax import MatrixSet, RelaxConfig, iterate, norms, relax, run

NODES = 3000
CORPUS = ((2, 6), (8, 6), (32, 4))  # (matrices per family, families)


def corpus() -> list[MatrixSet]:
    rng = np.random.default_rng(2008)
    return [MatrixSet(tuple(rng.uniform(-2.0, 2.0, size=(r, 2, 2))))
            for r, count in CORPUS for _ in range(count)]


CASES = [(s, RelaxConfig(algorithm=algorithm, node_count=NODES, tol=1e-4))
         for s in corpus() for algorithm in ("lr", "mr")]
R32 = 2 * 13  # the lr case of an r = 32 family; its mr case follows it
EX1 = MatrixSet(([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]]))
EX2 = MatrixSet(([[15 / 17, -16 / 17], [4 / 17, 15 / 17]], [[4 / 5, 3 / 5], [-3 / 5, 4 / 5]]))


def fine(algorithm: str, n: int = 30000) -> RelaxConfig:
    """The continued solve of cli_fine: 1874, 7500 and then 30000 nodes at N = 30000."""
    return RelaxConfig(algorithm=algorithm, node_count=n, tol=1e-6)


def outcome(res) -> tuple:
    rows = tuple((r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam) for r in res.trace)
    return (res.status, res.rho_lo, res.rho_hi, res.rho_mid, res.norm.values.tobytes(), rows,
            res.levels)


def steps(s: MatrixSet, cfg: RelaxConfig) -> list:
    return [(rec, nm.values.tobytes()) for nm, rec in iterate(s, cfg)]


def arrays(plan) -> tuple:
    return plan.i0, plan.a, plan.b, plan._buf, plan.best, plan.ratio


def shares(plan, other) -> bool:
    return any(np.shares_memory(x, y) for x in arrays(plan) for y in arrays(other))


def stencil_bytes(plan) -> int:
    return sum(x.nbytes for x in (plan.i0, plan.a, plan.b, plan._buf))


def kept() -> list:
    """The plans in the slot, coarsest first; [] for an empty slot."""
    return list(norms._kept.get(norms._KEPT_KEY, {}).values())


def release(s: MatrixSet, *plans) -> None:
    """Hand plans of s back as one solve of their grids does."""
    with norms._Plans(s, [(p.key[1], p.key[2]) for p in plans]) as slot:
        for p in plans:
            slot.release(p)


def take(s: MatrixSet, n: int, e):
    """Take the plan of one grid as a solve of that grid does, and release nothing."""
    with norms._Plans(s, [(n, e)]) as slot:
        return slot.take(n, e)


@pytest.fixture(scope="module")
def fresh() -> list[tuple]:
    """Every case solved with the slot emptied before the solve."""
    results = []
    for s, cfg in CASES:
        norms._kept.clear()
        results.append(outcome(run(s, cfg)))
    return results


@pytest.fixture(autouse=True)
def empty_slot():
    norms._kept.clear()
    yield
    norms._kept.clear()


@pytest.fixture
def built(monkeypatch) -> list:
    """Every plan built, in order."""
    plans = []
    init = norms._ImagePlan.__init__

    def spy(self, *args):
        plans.append(self)
        init(self, *args)

    monkeypatch.setattr(norms._ImagePlan, "__init__", spy)
    return plans


def test_corpus_solved_twice_matches_fresh_solves(fresh):
    for _ in range(2):
        assert [outcome(run(s, cfg)) for s, cfg in CASES] == fresh


def test_a_relax_family_pass_builds_one_plan_per_family(fresh, built):
    # each family's lr and then its mr, as perfbench runs them: mr builds nothing
    assert [outcome(run(s, cfg)) for s, cfg in CASES] == fresh
    assert len(built) == len(CASES) // 2 == 16
    assert all(p.key[1] == NODES for p in built)


def test_a_second_solve_of_the_same_inputs_takes_the_kept_plan(fresh, built):
    # mr after lr, on a new MatrixSet of equal entries: one plan, kept whole,
    # and bit for bit a fresh build's
    s, lr = CASES[R32]
    assert outcome(run(s, lr)) == fresh[R32]
    (plan,) = kept()
    equal = MatrixSet(tuple(np.array(s.arrays())))
    assert outcome(run(equal, CASES[R32 + 1][1])) == fresh[R32 + 1]
    assert built == [plan] and kept() == [plan]
    direct = norms._ImagePlan(s, NODES, lr.e)
    for p in (plan, direct):
        assert p.node_image_max(norms.euclidean(NODES)) is p.best
    assert (plan.key, plan.node, plan.scale, plan.weight, plan.margin) == (
        direct.key, direct.node, direct.scale, direct.weight, direct.margin)
    for got, want in zip((plan.members, *arrays(plan)[:3], plan.best),
                         (direct.members, *arrays(direct)[:3], direct.best)):
        assert got.tobytes() == want.tobytes()


def test_a_repeated_solve_takes_the_kept_plan_and_its_arrays(built):
    # the same inputs again: the solve takes the kept plan and its arrays,
    # builds nothing, and hands them back
    s, cfg = CASES[0]
    run(s, cfg)
    (plan,) = kept()
    stencil = arrays(plan)
    run(s, cfg)
    assert built == [plan] and kept() == [plan]
    assert all(x is y for x, y in zip(arrays(kept()[0]), stencil))


def test_a_kept_plan_with_a_nan_filled_workspace_gives_fresh_results(fresh, built):
    # the workspace of a kept plan (block buffers, `best` and `ratio`) holds
    # nothing a solve reads before it writes it
    k = 2 * 13  # an r = 32 family, lr
    s, cfg = CASES[k]
    run(s, cfg)
    (plan,) = kept()
    for a in (plan._buf, plan.best, plan.ratio):
        a.fill(np.nan)
    assert outcome(run(s, cfg)) == fresh[k]
    assert built == [plan] and kept() == [plan]
    for a in (plan._buf, plan.best, plan.ratio):
        a.fill(np.nan)
    assert outcome(run(s, CASES[k + 1][1])) == fresh[k + 1]  # and mr after it


def one_ulp(s: MatrixSet) -> MatrixSet:
    mats = np.array(s.arrays())
    mats[5, 1, 0] = np.nextafter(mats[5, 1, 0], np.inf)
    return MatrixSet(tuple(mats))


@pytest.mark.parametrize("change", [
    lambda s, cfg: (one_ulp(s), cfg),
    lambda s, cfg: (s, RelaxConfig(node_count=NODES, tol=1e-4, e=(0.0, 1.0))),
    lambda s, cfg: (s, RelaxConfig(node_count=NODES, tol=1e-4, e=(2.0, 0.0))),
    lambda s, cfg: (s, RelaxConfig(node_count=NODES + 2, tol=1e-4)),
], ids=["entry one ulp up", "e on another node", "e on the same node, scaled", "N + 2"])
def test_another_input_builds_a_new_plan(built, change):
    s, cfg = CASES[2 * 6]  # an r = 8 family, lr
    run(s, cfg)
    other = change(s, cfg)
    norms._kept.clear()
    want = outcome(run(*other))
    run(s, cfg)
    assert outcome(run(*other)) == want
    assert len(built) == 4 and kept() == [built[-1]]


@pytest.mark.parametrize("family", [EX1, EX2], ids=["ex1", "ex2"])
def test_mr_after_lr_of_a_continued_solve_builds_no_plan(family, built):
    # cli_fine's solves: lr keeps the plans of its three grids, and mr takes them
    norms._kept.clear()
    want = [outcome(run(family, fine("lr")))]
    norms._kept.clear()
    want.append(outcome(run(family, fine("mr"))))
    norms._kept.clear()
    del built[:]
    assert outcome(run(family, fine("lr"))) == want[0]
    assert [p.key[1] for p in built] == [1874, 7500, 30000]
    assert kept() == built
    assert sum(p.nbytes for p in kept()) <= norms._KEPT_MAX_BYTES
    assert outcome(run(family, fine("mr"))) == want[1]
    assert len(built) == 3 and kept() == built


def test_solves_of_two_families_in_turn_match_solves_from_an_empty_slot(built):
    # continued and single-grid solves of ex1 and ex2, lr and mr, interleaved
    # so that each solve finds the plans of the last one, of either family
    order = [(EX1, fine("lr")), (EX1, fine("mr")), (EX2, fine("mr")), (EX2, fine("lr")),
             (EX1, fine("lr", NODES)), (EX1, fine("lr")), (EX2, fine("lr")), (EX2, fine("lr"))]
    want = []
    for s, cfg in order:
        norms._kept.clear()
        want.append(outcome(run(s, cfg)))
    norms._kept.clear()
    del built[:]
    for (s, cfg), expected in zip(order, want):
        res = run(s, cfg)
        assert outcome(res) == expected
        assert [p.key[1] for p in kept()] == [n for n, _ in res.levels]
        assert sum(p.nbytes for p in kept()) <= norms._KEPT_MAX_BYTES
    assert len(built) == 3 + 0 + 3 + 0 + 1 + 3 + 3 + 0


def test_interleaved_solves_of_one_shape_share_no_arrays(built):
    # lr and mr on one family, in lockstep: the first takes the kept plan,
    # the second finds the slot empty and builds its own
    (s, lr), (_, mr) = CASES[R32], CASES[R32 + 1]
    want = [steps(s, lr), steps(s, mr)]
    norms._kept.clear()
    run(s, lr)
    (plan,) = kept()
    live = [(iterate(s, lr), []), (iterate(s, mr), [])]
    got = [yields for _, yields in live]
    checked = False
    while live:
        for gen, yields in list(live):
            try:
                nm, rec = next(gen)
            except StopIteration:
                live.remove((gen, yields))
                continue
            yields.append((rec, nm.values.tobytes()))
        if not checked:  # both plans are live after the first round
            assert norms._KEPT_KEY not in norms._kept
            assert built[-1] is not plan and not shares(plan, built[-1])
            checked = True
    assert got == want


def test_a_kept_set_of_another_shape_is_freed_before_the_build(monkeypatch):
    s, cfg = CASES[0]  # 2 matrices
    run(s, cfg)
    (plan,) = kept()
    plan, stencil = weakref.ref(plan), weakref.ref(plan.i0)
    alive = []
    init = norms._ImagePlan.__init__

    def spy(self, *args):
        alive.append(plan() is not None or stencil() is not None)
        init(self, *args)

    monkeypatch.setattr(norms._ImagePlan, "__init__", spy)
    run(CASES[-1][0], cfg)  # 32 matrices
    assert alive == [False]


def test_a_solve_of_another_family_frees_every_kept_plan_before_its_first_build(monkeypatch):
    run(EX1, fine("lr"))
    refs = [weakref.ref(x) for p in kept() for x in (p, p.i0, p.a, p.b)]
    assert len(refs) == 12
    alive = []
    init = norms._ImagePlan.__init__

    def spy(self, *args):
        alive.append([ref() is not None for ref in refs])
        init(self, *args)

    monkeypatch.setattr(norms._ImagePlan, "__init__", spy)
    run(EX2, fine("lr"))
    assert alive == [[False] * 12] * 3


@pytest.mark.parametrize("solves", [
    [CASES[0], CASES[2]],  # two families of 2 matrices: the same shape
    [CASES[0], (CASES[0][0], RelaxConfig(node_count=30000, tol=1e-6))],  # 3000, then 1874 to 30000
], ids=["same shape", "coarse to fine"])
def test_a_kept_plan_is_freed_before_the_next_build(monkeypatch, solves):
    # at each build no plan of an earlier solve is alive, and every plan of
    # the solve's coarser grids is, kept for the next solve
    refs, alive, solve = [], [], [0]
    init = norms._ImagePlan.__init__

    def spy(self, *args):
        alive.append(sorted({k for k, ref in refs if ref() is not None}))
        init(self, *args)
        refs.extend((solve[0], weakref.ref(x)) for x in (self, self.i0))

    monkeypatch.setattr(norms._ImagePlan, "__init__", spy)
    want = []
    for k, (s, cfg) in enumerate(solves):
        solve[0] = k
        grids = len(run(s, cfg).levels)
        want += [[]] + [[k]] * (grids - 1)
    assert alive == want


def test_closing_a_solve_early_hands_its_arrays_back(built):
    s, cfg = CASES[R32]
    gen = iterate(s, cfg)
    next(gen)
    assert norms._KEPT_KEY not in norms._kept
    gen.close()
    assert kept() == [built[0]]


def test_closing_a_continued_solve_early_hands_back_every_plan_it_made(built):
    gen = iterate(EX1, fine("mr"))
    next(gen)  # the first record of the 30000-node grid: all three plans are built
    assert norms._KEPT_KEY not in norms._kept
    gen.close()
    assert [p.key[1] for p in built] == [1874, 7500, 30000] and kept() == built


def test_a_solve_closed_on_its_coarsest_grid_hands_back_the_plans_it_took(built):
    run(EX1, fine("lr"))
    plans = kept()
    gen = relax._solve(EX1, fine("mr"))  # every grid's steps, the coarse ones too
    assert next(gen)[0] == 1874
    assert norms._KEPT_KEY not in norms._kept
    gen.close()
    assert kept() == plans == built


def test_a_build_that_raises_leaves_the_slot_usable(fresh, built):
    s, cfg = CASES[0]
    run(s, cfg)
    mats = np.array(s.arrays())
    huge = MatrixSet(tuple(mats * (1.5e308 / np.abs(mats).max())))  # same shape, images overflow
    with pytest.raises(ValueError, match="non-finite length"):
        run(huge, cfg)
    assert norms._KEPT_KEY not in norms._kept  # the kept plan was dropped, and nothing kept
    assert outcome(run(s, cfg)) == fresh[0]
    (plan,) = kept()
    assert outcome(run(s, cfg)) == fresh[0]
    assert len(built) == 3 and kept() == [plan]


def test_threads_give_the_sequential_results(fresh):
    # more threads than cores, switching often: two threads that took the
    # same plan would corrupt each other's buffers and change a result
    cases = list(enumerate(CASES))[-16:]  # the r = 8 and r = 32 families
    workers = 4
    results: dict[int, list] = {t: [] for t in range(workers)}

    def work(t: int):
        for k, (s, cfg) in cases[t:] + cases[:t]:
            results[t].append((k, outcome(run(s, cfg))))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for t in range(workers):
        assert len(results[t]) == len(cases)
        assert all(got == fresh[k] for k, got in results[t])


def test_threads_running_continued_solves_give_the_sequential_results():
    # as above, with solves on 1024, 4096 and 16384 nodes, so that each solve
    # holds three plans between taking and handing back the slot's
    cases = [(s, fine(algorithm, 16384)) for s in (EX1, EX2) for algorithm in ("lr", "mr")]
    want = []
    for s, cfg in cases:
        norms._kept.clear()
        want.append(outcome(run(s, cfg)))
    workers = 4
    results: dict[int, list] = {t: [] for t in range(workers)}

    def work(t: int):
        for k in [*range(t, len(cases)), *range(t)] * 2:
            results[t].append((k, outcome(run(*cases[k]))))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for t in range(workers):
        assert len(results[t]) == 2 * len(cases)
        assert all(got == want[k] for k, got in results[t])
    assert sum(p.nbytes for p in kept()) <= norms._KEPT_MAX_BYTES


def test_a_plan_never_released_keeps_its_arrays():
    s, cfg = CASES[0]
    run(s, cfg)
    (solves,) = kept()
    plan = norms._ImagePlan(s, NODES, cfg.e)  # built directly: never from the slot
    assert kept() == [solves] and plan is not solves and not shares(plan, solves)
    before = [a.copy() for a in arrays(plan)[:3]]  # i0, a and b
    for _ in range(3):
        run(s, cfg)
        assert kept() == [solves]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(plan), before))


def test_a_solve_releases_each_plan_it_takes_once(monkeypatch):
    released = []
    original = norms._Plans.release

    def spy(self, plan):
        released.append(plan)
        original(self, plan)

    monkeypatch.setattr(norms._Plans, "release", spy)
    s, cfg = CASES[0]
    res = run(s, RelaxConfig(node_count=30000, tol=1e-6))  # three grids, a plan each
    assert len(res.levels) == len(released) == len({id(p) for p in released}) == 3
    released.clear()
    run(s, cfg)
    run(s, cfg)  # takes the plan the solve before released
    gen = iterate(s, cfg)
    next(gen)
    gen.close()  # and so does this one
    assert len(released) == 3 and all(p is released[0] for p in released)


def test_a_direct_construction_never_takes_the_kept_plan():
    # each of these keys once, then a take finds it: families of 2 and 8
    # matrices, e on two nodes, and N + 2
    for s, n, e in [(CASES[0][0], NODES, (1.0, 0.0)), (CASES[2][0], NODES, (0.0, -2.0)),
                    (CASES[12][0], NODES, (1.0, 0.0)), (CASES[14][0], NODES + 2, (-3.0, 0.0))]:
        plan = norms._ImagePlan(s, n, e)
        release(s, plan)
        again = norms._ImagePlan(s, n, e)
        assert kept() == [plan] and again is not plan and not shares(plan, again)
        assert take(s, n, e) is plan
        assert norms._KEPT_KEY not in norms._kept


def test_a_set_over_the_cap_is_not_kept():
    s = CASES[-1][0]  # 32 matrices
    small = norms._ImagePlan(s, NODES, (1.0, 0.0))
    assert stencil_bytes(small) == small.nbytes <= norms._KEPT_MAX_BYTES
    release(s, small)
    assert kept() == [small]
    large = norms._ImagePlan(s, 4 * NODES, (1.0, 0.0))  # 32 matrices x 6000 columns
    assert stencil_bytes(large) == large.nbytes > norms._KEPT_MAX_BYTES
    release(s, large)  # as a solve of its grid hands it back: small is dropped, large not kept
    assert norms._KEPT_KEY not in norms._kept
    release(s, small, large)  # the grids of one solve: what fits is kept
    assert kept() == [small]
    take(s, 4 * NODES, (1.0, 0.0))  # as a solve takes it: small is dropped
    assert norms._KEPT_KEY not in norms._kept


def test_a_continued_solve_keeps_only_the_coarse_plans_that_fit(built):
    # r = 8 at N = 300000: grids of 1170, 4686, 18750, 75000 and 300000 nodes,
    # kept coarsest first while their total fits
    s = CASES[2 * 6][0]
    res = run(s, RelaxConfig(node_count=300000, tol=1e-4))
    assert [p.key[1] for p in built] == [n for n, _ in res.levels] == [
        1170, 4686, 18750, 75000, 300000]
    fits, total = [], 0
    for p in built:
        if total + p.nbytes <= norms._KEPT_MAX_BYTES:
            fits.append(p)
            total += p.nbytes
    assert kept() == fits and 0 < len(fits) < len(built)
    assert sum(p.nbytes for p in kept()) <= norms._KEPT_MAX_BYTES
