"""The slot of released image-plan arrays: a solve's plan builds into the
arrays of the last finished plan of the same shape, and no output bit may
depend on it.

Each test starts with an empty slot.  The corpus is that of the relax_family
benchmark: seeded random families of 2, 8 and 32 matrices at N = 3000.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from jsrelax import MatrixSet, RelaxConfig, iterate, norms, run

NODES = 3000
CORPUS = ((2, 6), (8, 6), (32, 4))  # (matrices per family, families)


def corpus() -> list[MatrixSet]:
    rng = np.random.default_rng(2008)
    return [MatrixSet(tuple(rng.uniform(-2.0, 2.0, size=(r, 2, 2))))
            for r, count in CORPUS for _ in range(count)]


CASES = [(s, RelaxConfig(algorithm=algorithm, node_count=NODES, tol=1e-4))
         for s in corpus() for algorithm in ("lr", "mr")]


def outcome(res) -> tuple:
    rows = tuple((r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam) for r in res.trace)
    return (res.status, res.rho_lo, res.rho_hi, res.rho_mid, res.norm.values.tobytes(), rows,
            res.levels)


def steps(s: MatrixSet, cfg: RelaxConfig) -> list:
    return [(rec, nm.values.tobytes()) for nm, rec in iterate(s, cfg)]


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


def kept_arrays():
    return norms._kept[norms._KEPT_KEY][1]


def test_corpus_solved_twice_matches_fresh_solves(fresh):
    for _ in range(2):
        assert [outcome(run(s, cfg)) for s, cfg in CASES] == fresh


def test_second_solve_of_a_shape_builds_into_the_kept_arrays(built):
    s, cfg = CASES[0]
    run(s, cfg)
    arrays = kept_arrays()
    run(s, cfg)
    assert len(built) == 2 and built[1].arrays is None  # released, and unlinked
    assert kept_arrays() is arrays


def test_nan_filled_kept_arrays_are_fully_rewritten(fresh, built):
    k = 2 * 13  # an r = 32 family, lr
    s, cfg = CASES[k]
    run(s, cfg)
    for a in kept_arrays():
        a.fill(-1 if a.dtype.kind == "i" else np.nan)
    arrays = kept_arrays()
    plan = norms._ImagePlan(s, NODES, cfg.e)
    assert plan.arrays is arrays
    direct = norms._ImagePlan(s, NODES, cfg.e)  # the slot is empty: into new arrays
    for got, want in zip(plan.arrays[:3], direct.arrays[:3]):  # i0, a and b
        assert got.tobytes() == want.tobytes()
    plan.release()
    for a in kept_arrays():
        a.fill(-1 if a.dtype.kind == "i" else np.nan)
    assert outcome(run(s, cfg)) == fresh[k]


def test_interleaved_solves_of_one_shape_share_no_arrays(built):
    (a, cfg_a), (b, cfg_b) = CASES[2 * 13], CASES[2 * 14 + 1]  # two r = 32 families
    want_a, want_b = steps(a, cfg_a), steps(b, cfg_b)
    norms._kept.clear()
    run(a, cfg_a)  # leaves a set of this shape in the slot
    arrays = kept_arrays()
    live = [(iterate(a, cfg_a), []), (iterate(b, cfg_b), [])]
    got_a, got_b = (got for _, got in live)
    checked = False
    while live:
        for gen, got in list(live):
            try:
                nm, rec = next(gen)
            except StopIteration:
                live.remove((gen, got))
                continue
            got.append((rec, nm.values.tobytes()))
        if not checked:  # both plans are live after the first round
            plan_a, plan_b = built[-2:]
            assert plan_a.arrays is arrays
            assert not any(np.shares_memory(x, y)
                           for x in plan_a.arrays for y in plan_b.arrays)
            checked = True
    assert (got_a, got_b) == (want_a, want_b)


def test_a_kept_set_of_another_shape_is_freed_before_the_build(monkeypatch):
    s, cfg = CASES[0]  # 2 matrices
    run(s, cfg)
    kept = weakref.ref(kept_arrays()[0])
    alive = []
    entries = norms._entries

    def spy(mats):
        alive.append(kept() is not None)
        return entries(mats)

    # the plan's one call starts its build
    monkeypatch.setattr(norms, "_entries", spy)
    run(CASES[-1][0], cfg)  # 32 matrices
    assert alive == [False]


def test_closing_a_solve_early_hands_its_arrays_back(built):
    s, cfg = CASES[2 * 13]
    gen = iterate(s, cfg)
    next(gen)
    arrays = built[0].arrays
    assert norms._KEPT_KEY not in norms._kept
    gen.close()
    assert kept_arrays() is arrays
    assert built[0].arrays is None


def test_a_build_that_raises_leaves_the_slot_usable(fresh, built):
    s, cfg = CASES[0]
    run(s, cfg)
    mats = np.array(s.arrays())
    huge = MatrixSet(tuple(mats * (1.5e308 / np.abs(mats).max())))  # same shape, images overflow
    with pytest.raises(ValueError, match="non-finite length"):
        run(huge, cfg)
    assert outcome(run(s, cfg)) == fresh[0]
    arrays = kept_arrays()
    assert outcome(run(s, cfg)) == fresh[0]
    assert built[-1].arrays is None and kept_arrays() is arrays


def test_threads_give_the_sequential_results(fresh):
    # more threads than cores, switching often: two threads that took the
    # same set would corrupt each other's stencil and change a result
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


def test_a_plan_never_released_keeps_its_arrays():
    s, cfg = CASES[0]
    run(s, cfg)
    plan = norms._ImagePlan(s, NODES, cfg.e)  # takes the set the solve released
    assert norms._KEPT_KEY not in norms._kept
    before = [a.copy() for a in plan.arrays[:3]]  # i0, a and b
    following = norms._ImagePlan(s, NODES, cfg.e)  # the next plan of its shape allocates
    assert not any(np.shares_memory(x, y) for x in plan.arrays for y in following.arrays)
    for _ in range(3):
        run(s, cfg)
        assert not any(np.shares_memory(x, y) for x in kept_arrays() for y in plan.arrays)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plan.arrays, before))


def test_a_second_release_does_nothing():
    s, cfg = CASES[0]
    plan = norms._ImagePlan(s, NODES, cfg.e)
    arrays = plan.arrays
    plan.release()
    plan.release()
    assert kept_arrays() is arrays
    taken = norms._ImagePlan(s, NODES, cfg.e)
    assert taken.arrays is arrays
    plan.release()  # hands nothing back: the arrays are taken's
    assert norms._KEPT_KEY not in norms._kept


def test_every_construction_takes_the_kept_set_of_its_shape():
    # plans of one (rows, cols) share the set whatever their family and e:
    # two families of 2 matrices, two of 8, then one of 8 on two nodes more
    shapes = [(CASES[0][0], NODES, (1.0, 0.0)), (CASES[2][0], NODES, (0.0, -2.0)),
              (CASES[12][0], NODES, (1.0, 0.0)), (CASES[14][0], NODES, (-3.0, 0.0)),
              (CASES[14][0], NODES + 2, (1.0, 0.0))]
    last = None
    for s, n, e in shapes:
        for _ in range(2):
            plan = norms._ImagePlan(s, n, e)
            if last is not None and last[0].shape == (s.count, n // 2):
                assert plan.arrays is last
            else:
                assert not any(np.shares_memory(x, y) for x in plan.arrays for y in last or ())
            assert norms._KEPT_KEY not in norms._kept
            last = plan.arrays
            plan.release()


def test_a_set_over_the_cap_is_not_kept():
    s = CASES[-1][0]  # 32 matrices
    small = norms._ImagePlan(s, NODES, (1.0, 0.0))
    assert sum(a.nbytes for a in small.arrays) <= norms._KEPT_MAX_BYTES
    small.release()
    assert norms._KEPT_KEY in norms._kept
    large = norms._ImagePlan(s, 4 * NODES, (1.0, 0.0))  # 32 matrices x 6000 columns
    assert sum(a.nbytes for a in large.arrays) > norms._KEPT_MAX_BYTES
    large.release()
    assert norms._KEPT_KEY not in norms._kept
