"""Time the product oracle, the output writers and the relaxation solve; write JSON.

Every section is a list of rows, and each timed key of a row holds, per
loaded tree, the min and median ms of the call over the repeats and the
median minor page faults of one call (`minflt`, from getrusage):
{tag: {min_ms, median_ms, minflt}}.  The trees are this one (`change`) and,
with --parent DIR, a checkout of the parent commit, the jsrelax package under
DIR/src imported as a package copy (`parent`).  Both run in this process, so
they share its allocator and its speed state; each keeps its own module
state.  With two trees each timed key also holds `change_over_parent`, the
median over the rounds of the ratio of the trees' fastest calls in the
round, and each row says whether the trees gave the same output
(`same_output`).  A round times both trees back to back, so the ratio
cancels a host speed state that lasts longer than the round: in three
runs over the oracle rows to depth 12 and the writer rows of identical
trees, the ratio of the trees' medians read 0.69-1.44 where the median of
the round ratios read 0.92-1.07.

One loop, `measure`, times every section but the last.  It first runs each
call once, untimed, on every tree and compares the outputs.  That first run
also sets each timed key's calls per round, the same on every tree: enough
calls that a round of them takes about ROUND_SECONDS on the tree whose
first run was slowest, at most MAX_CALLS_PER_ROUND, and at least the
section's least count (RUN_MIN_CALLS for `runs`, 1 elsewhere); each row
records them as `calls_per_round`, by key.  So a call under a millisecond
is timed hundreds of times a round, where one call alone read 0.57-1.55
change/parent between identical trees.  Then, for --repeats rounds, it runs
each call once untimed and then its calls per round timed on each tree,
the first tree alternating from round to round, and keeps the fastest
timed call of the round.  The repeats of one call are spread over its
section, so a host that switches speed for seconds at a time shows each
call its fast state, and each timed call follows an untimed one, so it
finds its data in cache as the steps of a solve do.

The sections, in the order they run:

- runs: `run` on examples 1 and 2, lr and mr, at tol=1e-9 for each N up to
  30000, and on the seeded r = 2, 8 and 32 families, lr and mr, at N = 3000
  and tol=1e-4; at least RUN_MIN_CALLS calls per round.
- relax_family: one relax_family pass, the benchmark's 16 corpus families
  turned by the rotations of workload seed PASS_SEED, lr and mr, as run
  rows.  `relax_family_pass` sums each round's solves into a pass and
  counts, per tree, the solves whose bracket perfbench/reference.py's proven
  product bounds contradict (`contradicted`).
- oracle: for each depth n, the time depth_sweep takes to yield row n
  (build level n from level n-1, then the bounds and the trace estimate;
  `sweep_row`) and the level build alone (`level_build`), with the product
  count r^n; `oracle_sweeps`: the whole depth_sweep to --max-depth.
- writers: for each node count N, write_norm and write_trace into memory and
  render_unit_sphere at 512 px, on the norm that `run` (lr, tol=1e-6, as
  `jsrelax run --tol 1e-6` does) converges to.
- steps: for seeded random families of r = 2, 8 and 32 matrices and each
  node count N, the image plan build and one `relax.lr_step` and one
  `relax.mr_step` on that plan, from the normalized Euclidean start and from
  the profile that `run` converges to at tol=1e-4 with the same algorithm
  (r = 32 only up to N = 30000: its plan holds 24 bytes per entry, 115 MB
  at N = 300000).  `mapped` says how many of the r members each step maps:
  the plan maps only the members whose dominance margin the profile's
  spread reaches.  `plan_build` is a build into new arrays; `plan_rebuild`
  is a second build of the same shape as a solve makes it, into the arrays
  the build before it released.  `bounds`, `combine_linear` and
  `combine_max` are the parts of a step after its node map, on the node
  maxima of the profile lr converges to, each on a fresh copy of them made
  untimed (combine_linear overwrites its input).  Each row is timed on its
  own, so that only one row's plans are held at a time.
- fine_runs: `run` and the single-level solve, `run` given the Euclidean
  start (`run_single`), whatever --nodes says, on examples 1 and 2, lr and
  mr, at N = 30000 with tol=1e-6 and at N = 300000 with tol=1e-10; on the
  seeded r = 2, 8 and 32 families at tol=1e-6 and N = 16382 and 16384
  (either side of the node count where grid continuation starts) and
  30000, and for r = 8 at N = 300000; and on example 1 scaled by 1e300 at
  N = 30000 with max_iters=200, a solve that stalls because tol is absolute.
- fresh_process_faults: after its large solves this process no longer
  faults on fresh arrays, so this counts the faults of a few run() calls and
  of a first and a second plan build of each seeded family, in a fresh
  process per tree.  The first-call counts depend on the path the tree is
  imported from, not only on its code: with byte-identical code, r = 32 at
  N = 3000 read a first run of 325, 311 and 369 faults from three paths.
  So only the within-tree check, `plan_rebuild` <= `plan_build`, is
  evidence; a first-call difference between two trees is not.

A run row records its status, its iterations (the N-node grid's), its grid
levels (the node count and the steps of every grid the solve stepped on,
coarsest first) and its bracket.  The outputs compared are a run's status,
levels, bracket, norm bytes and trace rows; a writer's bytes; the oracle's
rows, as hex; a step's node maxima and next profile; and a fresh plan's node
maxima at the Euclidean start.  Byte strings are compared by their SHA-256.

Run from the repository root:

    python tools/bench.py --out BENCH.json
    python tools/bench.py --parent ../parent --out BENCH.json
    python tools/bench.py --max-depth 8 --nodes 3000 --repeats 1 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jsrelax  # noqa: E402

FAMILIES = {
    "ex1": ([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]]),
    "ex2": (
        [[15 / 17, -16 / 17], [4 / 17, 15 / 17]],
        [[4 / 5, 3 / 5], [-3 / 5, 4 / 5]],
    ),
}
# matrices per seeded relax family, and the largest node count each is timed at
RELAX_FAMILIES = ((2, 300000), (8, 300000), (32, 30000))
RUN_TOL = 1e-9
RUN_MAX_NODES = 30000
# the converged profiles of the step rows, and the run rows of the seeded families
FAMILY_TOL = 1e-4
FAMILY_RUNS = ((2, 3000), (8, 3000), (32, 3000))
# (N, tol) of the fine example runs
FINE_RUNS = ((30000, 1e-6), (300000, 1e-10))
# (r, N) of the fine seeded-family runs, at FINE_FAMILY_TOL
FINE_FAMILY_RUNS = (*((r, n) for r in (2, 8, 32) for n in (16382, 16384, 30000)), (8, 300000))
FINE_FAMILY_TOL = 1e-6
# the stalled run: example 1 times 1e300 at N = 30000 takes max_iters steps
STALLED_MAX_ITERS = 200
# the relax_family pass: the benchmark's 16 corpus families turned by the
# rotations of this workload seed, lr and mr
PASS_SEED = 1
# a timed key's calls per round (see the module docstring): about this many
# seconds of calls, at most MAX_CALLS_PER_ROUND of them, and for a `runs` row
# at least RUN_MIN_CALLS (with one call a round, `runs` rows of identical
# code read 0.64-1.52 change/parent)
ROUND_SECONDS = 0.05
MAX_CALLS_PER_ROUND = 1000
RUN_MIN_CALLS = 5
# the steps of a `steps` row
STEP_KEYS = ("lr_step", "lr_step_converged", "mr_step", "mr_step_converged")
# the fields of a run row, from the change tree's run
RUN_FIELDS = ("max_iters", "status", "iterations", "levels", "rho_lo", "rho_hi")


class Call(NamedTuple):
    """One call on one tree: run() is timed, or run(prepare()) with prepare
    untimed; output(what run returned) is what the trees must agree on."""

    run: Callable
    output: Callable = lambda got: got
    prepare: Callable | None = None


class Sample(NamedTuple):
    """One call's output from its untimed first run, and per round the
    seconds and minor page faults of its fastest timed call."""

    output: object
    seconds: list
    faults: list


def minor_faults() -> int:
    """Minor page faults of this process so far: fresh pages the kernel had to map."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(call: Call) -> tuple[float, int, object]:
    """Seconds and minor page faults of one call, and what it returned."""
    args = () if call.prepare is None else (call.prepare(),)
    faults = minor_faults()
    start = perf_counter()
    got = call.run(*args)
    seconds = perf_counter() - start
    return seconds, minor_faults() - faults, got


def summary(seconds: list[float], faults: list[int]) -> dict:
    """min and median ms, and the median minor page faults of a call."""
    return {"min_ms": 1e3 * min(seconds), "median_ms": 1e3 * statistics.median(seconds),
            "minflt": statistics.median_low(faults)}


def calls_per_round(seconds: float, least: int = 1) -> int:
    """Timed calls per round of a key whose first run took seconds."""
    return max(least, min(MAX_CALLS_PER_ROUND, math.ceil(ROUND_SECONDS / max(seconds, 1e-9))))


def round_ratio(change: list[float], parent: list[float]) -> float:
    """The median over the rounds of change/parent (see the module docstring)."""
    return statistics.median(c / p for c, p in zip(change, parent))


def measure(rows: list[tuple[dict, dict]], repeats: int, least: int = 1) -> list[dict]:
    """Time every call of rows on every tree, as the module docstring says,
    at least `least` calls per round, and write each timed key's summary
    and its calls per round into its row.

    rows holds (row, calls) pairs, where calls maps each timed key to
    {tag: Call}, with the same tags in the same order throughout.  Returns,
    per row, {key: {tag: Sample}}.
    """
    got, counts = [], []
    for _, calls in rows:
        samples, count = {}, {}
        for key, by_tree in calls.items():
            first = {tag: timed(call) for tag, call in by_tree.items()}
            samples[key] = {tag: Sample(by_tree[tag].output(returned), [], [])
                            for tag, (_, _, returned) in first.items()}
            count[key] = calls_per_round(max(seconds for seconds, _, _ in first.values()), least)
        got.append(samples)
        counts.append(count)
    for k in range(repeats):
        for (_, calls), samples, count in zip(rows, got, counts):
            for key, by_tree in calls.items():
                tags = list(by_tree)
                for tag in tags if k % 2 == 0 else tags[::-1]:
                    call = by_tree[tag]
                    timed(call)
                    seconds, faults = min(timed(call)[:2] for _ in range(count[key]))
                    samples[key][tag].seconds.append(seconds)
                    samples[key][tag].faults.append(faults)
    for (row, _), samples, count in zip(rows, got, counts):
        row["calls_per_round"] = count
        for key, by_tree in samples.items():
            row[key] = {tag: summary(s.seconds, s.faults) for tag, s in by_tree.items()}
            if len(by_tree) > 1:
                row[key]["change_over_parent"] = round_ratio(by_tree["change"].seconds,
                                                             by_tree["parent"].seconds)
        if len(by_tree) > 1:
            # repr, so that a NaN in both outputs reads the same
            row["same_output"] = all(len({repr(s.output) for s in by_tree.values()}) == 1
                                     for by_tree in samples.values())
    return got


def digest(data) -> str:
    """SHA-256 of a byte string or a contiguous array."""
    return hashlib.sha256(data).hexdigest()


def record(r) -> tuple:
    """The fields of an iteration record."""
    return r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam


def outcome(result) -> dict:
    """A run's row fields, with its norm's bytes and its trace rows."""
    return {"max_iters": result.config.max_iters, "status": result.status,
            "iterations": len(result.trace),
            "levels": [list(level) for level in result.levels],
            "rho_lo": result.rho_lo, "rho_hi": result.rho_hi,
            "norm": digest(result.norm.values),
            "trace": [record(r) for r in result.trace]}


def solve(tree, s, cfg) -> Call:
    return Call(lambda: tree.run(s, cfg), outcome)


def per_tree(trees: dict, make) -> dict:
    """A row's calls, {key: {tag: Call}}, from make(tree) -> {key: Call}."""
    made = {tag: make(t) for tag, t in trees.items()}
    return {key: {tag: calls[key] for tag, calls in made.items()} for key in made["change"]}


def seeded_mats(r: int) -> np.ndarray:
    return np.random.default_rng(2008 + r).uniform(-2.0, 2.0, size=(r, 2, 2))


def run_calls(tree, mats, cfg: dict, single: bool) -> dict:
    """`run` of mats under cfg with tree's classes and, if single,
    `run_single`: the same solve given the Euclidean start."""
    s = tree.MatrixSet(tuple(np.array(mats, dtype=float)))
    c = tree.RelaxConfig(**cfg)
    calls = {"run": solve(tree, s, c)}
    if single:
        calls["run_single"] = solve(tree, s, replace(c, initial_norm=tree.euclidean(c.node_count)))
    return calls


def timed_runs(trees: dict, cases: list[tuple], repeats: int, single: bool = False,
               least: int = 1) -> tuple[list[dict], list[dict]]:
    """A run row per case (name, matrices, N, tol, extra config) and
    algorithm, timed, with its fields from the change tree's run; and per
    row, the `run` samples by tree."""
    rows = []
    for name, mats, n, tol, extra in cases:
        for algorithm in ("lr", "mr"):
            cfg = {"algorithm": algorithm, "node_count": n, "tol": tol, **extra}
            row = {"family": name, "algorithm": algorithm, "nodes": n, "tol": tol}
            rows.append((row, per_tree(trees, lambda t: run_calls(t, mats, cfg, single))))
    got = [samples["run"] for samples in measure(rows, repeats, least)]
    for (row, _), by_tree in zip(rows, got):
        row.update((field, by_tree["change"].output[field]) for field in RUN_FIELDS)
    return [row for row, _ in rows], got


def perfbench_module(name: str):
    """A module of perfbench/, imported read-only."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def family_pass(trees: dict, repeats: int) -> tuple[list[dict], dict]:
    """The relax_family rows, a solve each, and the pass they make per tree:
    its time per round, its faults, the p50 and p90 solve, and how many of
    its brackets the proven product bounds contradict."""
    workloads, reference = perfbench_module("workloads"), perfbench_module("reference")
    families = workloads.corpus()
    angles = np.random.default_rng(PASS_SEED).uniform(0.0, 2.0 * np.pi, size=len(families))
    mats = [workloads.rotated(base, angle) for base, angle in zip(families, angles)]
    rows, got = timed_runs(trees, [(i, m, workloads.FAMILY_NODES, workloads.FAMILY_TOL, {})
                                   for i, m in enumerate(mats)], repeats)
    bounds = [reference.reference_bounds(np.array(m)) for m in mats for _ in ("lr", "mr")]
    family, passes = {"seed": PASS_SEED, "solves": len(rows), "contradicted": {}}, {}
    for tag in trees:
        solves = [by_tree[tag] for by_tree in got]
        family["contradicted"][tag] = sum(
            bool(reference.contradicts(s.output["rho_lo"], s.output["rho_hi"], ref))
            for s, ref in zip(solves, bounds))
        passes[tag] = [sum(round_) for round_ in zip(*(s.seconds for s in solves))]
        faults = [sum(round_) for round_ in zip(*(s.faults for s in solves))]
        seconds = [x for s in solves for x in s.seconds]
        family[tag] = {**summary(passes[tag], faults),
                       "solve_p50_ms": 1e3 * statistics.median(seconds),
                       "solve_p90_ms": 1e3 * statistics.quantiles(seconds, n=10)[-1]}
    if len(trees) > 1:
        family["change_over_parent"] = round_ratio(passes["change"], passes["parent"])
        family["same_output"] = all(row["same_output"] for row in rows)
    return rows, family


def sweep_outcome(rows) -> list[tuple]:
    """Every float of depth_sweep's rows, as hex."""
    return [(b.depth, b.lower.hex(), b.upper.hex(), t.hex()) for b, t in rows]


def sweep_at(tree, s, depth: int):
    """A depth_sweep of s that has yielded its rows before depth."""
    rows = tree.depth_sweep(s, depth)
    for _ in range(depth - 1):
        next(rows)
    return rows


def levels_to(tree, s, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The depth-1 level of s and its level at depth, built as the oracle builds them."""
    levels = tree.oracle._products(s, depth, tree.DEFAULT_PRODUCT_CAP)
    first = level = next(levels)[0]
    for level, _ in levels:
        pass
    return first, level


def depth_calls(tree, mats, depth: int) -> dict:
    """depth_sweep's row at depth and, above depth 1, the level build before it."""
    s = tree.MatrixSet(mats)
    calls = {"sweep_row": Call(next, lambda row: sweep_outcome([row]),
                               lambda: sweep_at(tree, s, depth))}
    if depth > 1:
        calls["level_build"] = Call(lambda levels: tree.oracle._extend(*levels), digest,
                                    lambda: levels_to(tree, s, depth - 1))
    return calls


def sweep_calls(tree, mats, max_depth: int) -> dict:
    """The whole depth_sweep to max_depth."""
    s = tree.MatrixSet(mats)
    return {"sweep": Call(lambda: list(tree.depth_sweep(s, max_depth)), sweep_outcome)}


def into(write, obj, sink):
    """sink, after write(obj, sink)."""
    write(obj, sink)
    return sink


def writer_calls(tree, result) -> dict:
    """The three writers on the norm and trace of result, by tree."""
    return {
        "write_norm": Call(lambda: into(tree.write_norm, result.norm, io.BytesIO()),
                           lambda out: digest(out.getvalue())),
        "render_unit_sphere": Call(lambda: tree.render_unit_sphere(result.norm, 512),
                                   lambda svg: digest(svg.encode())),
        "write_trace": Call(lambda: into(tree.write_trace, result, io.StringIO()),
                            lambda out: digest(out.getvalue().encode())),
    }


def writer_rows(trees: dict, nodes: list[int]) -> list[tuple[dict, dict]]:
    """A row per family and node count: the writers on the norm that run()
    converges to at tol=1e-6."""
    rows = []
    for name, mats in FAMILIES.items():
        for n in nodes:
            results = {t: t.run(t.MatrixSet(mats), t.RelaxConfig(node_count=n, tol=1e-6))
                       for t in trees.values()}
            done = results[jsrelax]
            rows.append(({"family": name, "nodes": n, "status": done.status,
                          "iterations": len(done.trace)},
                         per_tree(trees, lambda t: writer_calls(t, results[t]))))
    return rows


def combined(combine, nm, m: np.ndarray, args: tuple, out: np.ndarray) -> np.ndarray:
    """out, after combine(nm, m, *args, out)."""
    combine(nm, m, *args, out)
    return out


def step_calls(tree, mats: np.ndarray, n: int) -> dict:
    """A `steps` row's calls on tree: the plan build and rebuild, the four
    steps on one plan, which the calls hold, and the bounds and combines on
    the node maxima of the lr-converged profile."""
    s = tree.MatrixSet(tuple(mats))
    e = (1.0, 0.0)
    plan = tree.norms._ImagePlan(s, n, e)
    start = tree.relax._initial(tree.RelaxConfig(node_count=n))
    calls = {
        # never released, so the untimed call drains the slot and the timed one allocates
        "plan_build": Call(lambda: tree.norms._ImagePlan(s, n, e),
                           lambda fresh: digest(fresh.node_image_max(start))),
        # as a solve builds its plan: into the arrays the untimed call released
        "plan_rebuild": Call(lambda: tree.norms._ImagePlan(s, n, e).release()),
    }
    converged = {}
    for algorithm, step in (("lr", tree.relax.lr_step), ("mr", tree.relax.mr_step)):
        cfg = tree.RelaxConfig(algorithm=algorithm, node_count=n)
        converged[algorithm] = tree.run(s, tree.RelaxConfig(algorithm=algorithm, node_count=n,
                                                            tol=FAMILY_TOL)).norm
        for key, nm in ((f"{algorithm}_step", tree.relax._initial(cfg)),
                        (f"{algorithm}_step_converged", converged[algorithm])):
            calls[key] = Call(
                lambda step=step, nm=nm, cfg=cfg: step(nm, plan, cfg, 0),
                lambda got, nm=nm: (plan.members_mapped(nm), digest(plan.node_image_max(nm)),
                                    digest(got[0].values), record(got[1])))
    nm = converged["lr"]
    m = plan.node_image_max(nm).copy()
    out = np.empty_like(m)
    lo, hi = tree.relax.bounds(nm, m, out)
    calls["bounds"] = Call(lambda m: tree.relax.bounds(nm, m, out), prepare=m.copy)
    lam, gamma = tree.RelaxConfig().lambda_schedule, tree.max_image(nm, s, e)
    for key, args in (("combine_linear", (lam, gamma)),
                      ("combine_max", (tree.relax.gamma_mr(lo, hi),))):
        calls[key] = Call(lambda m, combine=getattr(tree.norms, key), args=args:
                          combined(combine, nm, m, args, out), digest, m.copy)
    return calls


def step_rows(trees: dict, nodes: list[int], repeats: int) -> list[dict]:
    """The `steps` rows, each timed on its own, so that only its plans are held."""
    rows = []
    for r, max_nodes in RELAX_FAMILIES:
        for n in (n for n in nodes if n <= max_nodes):
            row = {"r": r, "nodes": n}
            calls = per_tree(trees, lambda t: step_calls(t, seeded_mats(r), n))
            (samples,) = measure([(row, calls)], repeats)
            row["mapped"] = {key: samples[key]["change"].output[0] for key in STEP_KEYS}
            rows.append(row)
    return rows


# Run in a fresh process by fresh_faults: the minor page faults of each of
# RUN_SERIES run() calls of one family, after one run of the same family on
# two nodes more (so the process has imported and warmed up everything, and
# its kept plan arrays have another shape), and of a first and a second plan
# build made and released as a solve makes and releases it.
_FAULTS = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from jsrelax import MatrixSet, RelaxConfig, norms, run
s = MatrixSet(tuple(json.loads(sys.argv[2])))
n, tol, series = int(sys.argv[3]), float(sys.argv[4]), int(sys.argv[5])
def faults(call):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
run(s, RelaxConfig(node_count=n + 2, tol=tol))
row = {"runs": [faults(lambda: run(s, RelaxConfig(node_count=n, tol=tol))) for _ in range(series)]}
run(s, RelaxConfig(node_count=n + 2, tol=tol))
build = lambda: norms._ImagePlan(s, n, (1.0, 0.0)).release()
row["plan_build"], row["plan_rebuild"] = faults(build), faults(build)
print(json.dumps(row))
"""
RUN_SERIES = 4


def fresh_faults(src: Path, mats: np.ndarray, n: int, tol: float) -> dict:
    """Minor page faults of run() and of the plan build of one family, lr, in
    a fresh process that imports jsrelax from src (see _FAULTS)."""
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS, str(src), json.dumps(mats.tolist()), str(n), repr(tol),
         str(RUN_SERIES)], capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def fault_rows(trees: dict[str, Path], nodes: list[int]) -> list[dict]:
    """fresh_faults of each seeded relax family at each node count up to 30000, per tree.

    Freeing memory in the bench's own process moves the allocator's
    thresholds, so that after its large solves a fresh array no longer
    faults; a fresh process shows what a process of small solves pays.
    """
    rows = []
    for r, _ in RELAX_FAMILIES:
        for n in (n for n in nodes if n <= RUN_MAX_NODES):
            row = {"r": r, "nodes": n, "tol": FAMILY_TOL}
            row.update((tag, fresh_faults(src, seeded_mats(r), n, FAMILY_TOL))
                       for tag, src in trees.items())
            rows.append(row)
    return rows


def load_tree(root: Path, name: str):
    """The jsrelax package of the checkout at root, imported as the package `name`."""
    init = root / "src" / "jsrelax" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    if spec is None:
        raise FileNotFoundError(f"no jsrelax package at {init}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bench(trees: dict, max_depth: int, nodes: list[int], repeats: int) -> dict:
    """Every section, timed on trees, in the order of the module docstring;
    the runs and the pass go first, before the large solves of the others
    move the allocator's thresholds (see fault_rows)."""
    result = {
        "benchmark": "run, relax_family, oracle by depth, writers, plan and steps, fine runs",
        "max_depth": max_depth,
        "repeats": repeats,
        "trees": list(trees),
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    runs = [(name, mats, n, RUN_TOL, {}) for name, mats in FAMILIES.items()
            for n in nodes if n <= RUN_MAX_NODES]
    runs += [(f"r{r}", seeded_mats(r), n, FAMILY_TOL, {}) for r, n in FAMILY_RUNS]
    result["runs"], _ = timed_runs(trees, runs, repeats, least=RUN_MIN_CALLS)
    result["relax_family"], result["relax_family_pass"] = family_pass(trees, repeats)
    depths = [({"family": name, "depth": d, "products": len(mats) ** d},
               per_tree(trees, lambda t: depth_calls(t, mats, d)))
              for name, mats in FAMILIES.items() for d in range(1, max_depth + 1)]
    sweeps = [({"family": name, "max_depth": max_depth},
               per_tree(trees, lambda t: sweep_calls(t, mats, max_depth)))
              for name, mats in FAMILIES.items()]
    measure(depths + sweeps, repeats)
    result["oracle"] = [row for row, _ in depths]
    result["oracle_sweeps"] = [row for row, _ in sweeps]
    writers = writer_rows(trees, nodes)
    measure(writers, repeats)
    result["writers"] = [row for row, _ in writers]
    result["steps"] = step_rows(trees, nodes, repeats)
    fine = [(name, mats, n, tol, {}) for n, tol in FINE_RUNS for name, mats in FAMILIES.items()]
    fine += [(f"r{r}", seeded_mats(r), n, FINE_FAMILY_TOL, {}) for r, n in FINE_FAMILY_RUNS]
    fine.append(("ex1x1e300", np.array(FAMILIES["ex1"]) * 1e300, 30000, FINE_FAMILY_TOL,
                 {"max_iters": STALLED_MAX_ITERS}))
    result["fine_runs"], _ = timed_runs(trees, fine, repeats, single=True)
    return result


SECTIONS = ("runs", "relax_family", "oracle", "oracle_sweeps", "writers", "steps", "fine_runs")


def line(section: str, row: dict, tags: list[str]) -> str:
    """A row as one line: its scalar fields, then each timed key's median per tree."""
    labels = " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()
                      if isinstance(v, (str, int, float))
                      and k != "same_output")
    calls = [f"{key} " + " vs ".join(f"{got[t]['median_ms']:.3f}" for t in tags) + " ms"
             + (f" (x{got['change_over_parent']:.3f})" if "change_over_parent" in got else "")
             for key, got in row.items() if isinstance(got, dict) and "change" in got]
    same = f", same output {row['same_output']}" if "same_output" in row else ""
    return f"{section} {labels}: " + ", ".join(calls) + same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-depth", type=int, default=20)
    parser.add_argument("--nodes", type=int, nargs="+", default=[3000, 30000, 300000],
                        help="node counts of the writer and relax timings")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", metavar="DIR", type=Path,
                        help="a checkout of the parent commit: time every row on its "
                             "tree too, in this process, and compare the outputs")
    args = parser.parse_args(argv)
    if args.max_depth < 2 or args.repeats < 1 or any(n < 8 or n % 2 for n in args.nodes):
        parser.error("need --max-depth >= 2, --repeats >= 1 and even --nodes >= 8")
    trees, sources = {"change": jsrelax}, {"change": ROOT / "src"}
    if args.parent is not None:
        trees = {"parent": load_tree(args.parent, "jsrelax_parent"), **trees}
        sources = {"parent": args.parent / "src", **sources}
    result = bench(trees, args.max_depth, args.nodes, args.repeats)
    result["fresh_process_faults"] = fault_rows(sources, args.nodes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for section in SECTIONS:
        for row in result[section]:
            print(line(section, row, list(trees)))
    fam = result["relax_family_pass"]
    for tag in trees:
        got = fam[tag]
        print(f"{tag} relax_family pass (seed {fam['seed']}): {got['median_ms']:.1f} ms median, "
              f"solve p50 {got['solve_p50_ms']:.2f} ms, p90 {got['solve_p90_ms']:.2f} ms, "
              f"{got['minflt']} faults, {fam['contradicted'][tag]}/{fam['solves']} brackets "
              "contradicting the proven bounds")
    for row in result["fresh_process_faults"]:
        print(f"r={row['r']} N={row['nodes']} fresh-process faults: "
              + "; ".join(f"{tag} runs {row[tag]['runs']}, plan build {row[tag]['plan_build']} "
                          f"then {row[tag]['plan_rebuild']}" for tag in trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
