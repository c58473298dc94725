"""Time the product oracle, the output writers and the relaxation solve; write JSON.

Oracle: for each depth n it records the time depth_sweep takes to yield row n
(build level n from level n-1, then the bounds and the trace estimate) and the
time of the level build alone, with the product count r^n.

Writers: for each node count N it solves the example with `run` (lr,
tol=1e-6, as `jsrelax run --tol 1e-6` does) and times write_norm and
write_trace into memory and render_unit_sphere at 512 px.

Relax: for seeded random families of r = 2, 8 and 32 matrices and each node
count N it times the image plan build and one `relax.lr_step` and one
`relax.mr_step` on that plan, from the normalized Euclidean start and from
the profile that `run` converges to at tol=1e-4 with the same algorithm
(r = 32 only up to N = 30000: its plan holds 24 bytes per entry, 115 MB at
N = 300000).  Each row records how many of the r members each of those
steps maps: the plan maps only the members whose dominance margin the
profile's spread reaches.  It also times `run` on examples 1 and 2, lr and
mr, at tol=1e-9 for each N up to 30000, and on the seeded r = 8 and r = 32
families, lr and mr, at N = 3000 and tol=1e-4, and, whatever --nodes says,
on examples 1 and 2, lr and mr, at N = 30000 with tol=1e-6 and at
N = 300000 with tol=1e-10; on the seeded r = 2, 8 and 32 families at
tol=1e-6 and N = 16382 and 16384 (either side of the node count where grid
continuation starts) and 30000, and for r = 8 at N = 300000; and on
example 1 scaled by 1e300 at N = 30000 with max_iters=200, a solve that
stalls because tol is absolute (`fine_runs`).  A fine run row also times
the single-level solve, `run` given the Euclidean start (`run_single`).
Each run row records its status, its iterations (the N-node grid's) and
its grid levels: the node count and the steps of every grid the solve
stepped on, coarsest first.  Its repeats go round robin over all of these
calls.

Each time is the minimum and the median over the repeats, and each timed
relax call (plan build, step, run) also records the median minor page faults
of one call (`minflt`, from getrusage).  A step row's `plan_build` is a
build into new arrays; its `plan_rebuild` is a second build of the same
shape as a solve makes it, into the arrays the build before it released.
After its large solves this process no longer faults on fresh arrays, so
`fresh_process_faults` counts the faults of a few run() calls and of a
first and a second plan build of each seeded family, in a fresh process
per tree.

With --parent DIR, a checkout of the parent commit, the jsrelax package under
DIR/src is imported as a package copy, and the `runs` rows, depth_sweep to
--max-depth on examples 1 and 2 (`oracle`) and one relax_family pass (the
benchmark's corpus, seed PASS_SEED) are timed for both trees alternately in
this process, before any other section (`parent_ab`).  A `runs` row takes
the fastest of RUN_CALLS_PER_ROUND calls in each round.  The pass also
counts, per tree, the solves whose bracket perfbench/reference.py's proven
product bounds contradict (`contradicted`).  Then, one family and
node count at a time, so are the `steps` rows: the plan rebuild as a solve
makes it and the four steps, each tree on its own plan.  Each of these rows
says whether the two trees gave the same output (`same_output`); a step
row compares the node image maxima and the next profile of every step.

Run from the repository root:

    python tools/bench.py --out BENCH.json
    python tools/bench.py --parent ../parent --out BENCH.json
    python tools/bench.py --max-depth 8 --nodes 3000 --repeats 1 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jsrelax import (  # noqa: E402
    DEFAULT_PRODUCT_CAP,
    MatrixSet,
    RelaxConfig,
    depth_sweep,
    euclidean,
    render_unit_sphere,
    run,
    write_norm,
    write_trace,
)
import jsrelax  # noqa: E402
from jsrelax import norms, oracle  # noqa: E402

FAMILIES = {
    "ex1": ([[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [-1.0, 1.0]]),
    "ex2": (
        [[15 / 17, -16 / 17], [4 / 17, 15 / 17]],
        [[4 / 5, 3 / 5], [-3 / 5, 4 / 5]],
    ),
}


def sweep_row_times(s: MatrixSet, max_depth: int) -> list[float]:
    """Seconds from one depth_sweep row to the next, for depths 1..max_depth."""
    times = []
    start = time.perf_counter()
    for _ in depth_sweep(s, max_depth):
        now = time.perf_counter()
        times.append(now - start)
        start = now
    return times


def level_times(s: MatrixSet, max_depth: int, repeats: int) -> list[list[float]]:
    """Seconds of each level build, repeats times, for depths 2..max_depth."""
    # the depth-1 level: the prescaled family, component-major
    first, _ = next(oracle._products(s, 1, DEFAULT_PRODUCT_CAP))
    level = first
    times = []
    for _ in range(2, max_depth + 1):
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            built = oracle._extend(first, level)
            runs.append(time.perf_counter() - start)
        times.append(runs)
        level = built
    return times


def summary(runs: list[float], faults: list[int] | None = None) -> dict:
    """min and median ms of runs, and the median minor page faults of a call if counted."""
    row = {"min_ms": 1e3 * min(runs), "median_ms": 1e3 * statistics.median(runs)}
    if faults is not None:
        row["minflt"] = statistics.median_low(faults)
    return row


def minor_faults() -> int:
    """Minor page faults of this process so far: fresh pages the kernel had to map."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed(call) -> tuple[float, int]:
    """Seconds and minor page faults of one call."""
    faults = minor_faults()
    start = time.perf_counter()
    call()
    seconds = time.perf_counter() - start
    return seconds, minor_faults() - faults


def writer_times(s: MatrixSet, nodes: int, repeats: int) -> dict:
    """min and median ms of each writer on the converged norm of s at this node count."""
    result = run(s, RelaxConfig(node_count=nodes, tol=1e-6))
    calls = {
        "write_norm": lambda: write_norm(result.norm, io.BytesIO()),
        "render_unit_sphere": lambda: render_unit_sphere(result.norm, 512),
        "write_trace": lambda: write_trace(result, io.StringIO()),
    }
    times = {name: [] for name in calls}
    for _ in range(repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - start)
    row = {"nodes": nodes, "status": result.status, "iterations": len(result.trace)}
    row.update((name, summary(runs)) for name, runs in times.items())
    return row


# matrices per seeded relax family, and the largest node count each is timed at
RELAX_FAMILIES = ((2, 300000), (8, 300000), (32, 30000))
RUN_TOL = 1e-9
RUN_MAX_NODES = 30000
# the converged profiles of the step rows, and the run rows of the seeded families
FAMILY_TOL = 1e-4
FAMILY_RUNS = ((8, 3000), (32, 3000))
# (N, tol) of the fine example runs
FINE_RUNS = ((30000, 1e-6), (300000, 1e-10))
# (r, N) of the fine seeded-family runs, at FINE_FAMILY_TOL
FINE_FAMILY_RUNS = (*((r, n) for r in (2, 8, 32) for n in (16382, 16384, 30000)), (8, 300000))
FINE_FAMILY_TOL = 1e-6
# the stalled run: example 1 times 1e300 at N = 30000 takes max_iters steps
STALLED_MAX_ITERS = 200


def seeded_mats(r: int) -> np.ndarray:
    return np.random.default_rng(2008 + r).uniform(-2.0, 2.0, size=(r, 2, 2))


def seeded_family(r: int) -> MatrixSet:
    return MatrixSet(tuple(seeded_mats(r)))


def run_families(nodes: list[int]) -> list[tuple[str, object, int, float]]:
    """(name, matrices, N, tol) of the `runs` rows."""
    return ([(name, mats, n, RUN_TOL) for name, mats in FAMILIES.items()
             for n in nodes if n <= RUN_MAX_NODES]
            + [(f"r{r}", seeded_mats(r), n, FAMILY_TOL) for r, n in FAMILY_RUNS])


def run_row(family: str, cfg: RelaxConfig, result) -> dict:
    """A run row's outcome."""
    return {"family": family, "algorithm": cfg.algorithm, "nodes": cfg.node_count,
            "tol": cfg.tol, "max_iters": cfg.max_iters,
            "status": result.status, "iterations": len(result.trace),
            "levels": [list(level) for level in result.levels],
            "rho_lo": result.rho_lo, "rho_hi": result.rho_hi}


def round_robin(calls: list[tuple[dict, str, object]], repeats: int) -> None:
    """Time every call once per round, for repeats rounds; put its summary,
    with its minor page faults, in row[key].

    The repeats of one call are spread over the whole section, so a host
    that switches speed for seconds at a time shows each call its fast state.
    Each timed call follows an untimed one, so it finds its data in cache as
    the steps of a solve do.
    """
    times = [([], []) for _ in calls]
    for _ in range(repeats):
        for (_, _, call), (runs, faults) in zip(calls, times):
            call()
            seconds, flt = timed(call)
            runs.append(seconds)
            faults.append(flt)
    for (row, key, _), (runs, faults) in zip(calls, times):
        row[key] = summary(runs, faults)


def step_calls(tree, mats: np.ndarray, n: int) -> tuple[object, dict, dict]:
    """A `steps` row on tree: the plan, the timed calls by key (the plan rebuild
    and the four steps on that plan) and, by step key, the members the step
    maps and its node image maxima, next profile and record."""
    s = tree.MatrixSet(tuple(mats))
    e = (1.0, 0.0)
    plan = tree.norms._ImagePlan(s, n, e)
    # as a solve builds its plan: into the arrays the untimed call released
    calls = {"plan_rebuild": lambda: tree.norms._ImagePlan(s, n, e).release()}
    done = {}
    for algorithm, step in (("lr", tree.relax.lr_step), ("mr", tree.relax.mr_step)):
        cfg = tree.RelaxConfig(algorithm=algorithm, node_count=n)
        converged = tree.run(s, tree.RelaxConfig(algorithm=algorithm, node_count=n,
                                                 tol=FAMILY_TOL)).norm
        for key, nm in ((f"{algorithm}_step", tree.relax._initial(cfg)),
                        (f"{algorithm}_step_converged", converged)):
            m = plan.node_image_max(nm).copy()
            nxt, rec = step(nm, plan, cfg, 0)
            done[key] = (plan.members_mapped(nm), m.tobytes(), nxt.values.tobytes(),
                         (rec.n, rec.rho_minus, rec.rho_plus, rec.gamma, rec.lam))
            calls[key] = lambda step=step, nm=nm, cfg=cfg: step(nm, plan, cfg, 0)
    return plan, calls, done


def relax_times(nodes: list[int], repeats: int) -> dict:
    """min and median ms of the plan build and of one step per family and node count,
    and of run() on the examples."""
    steps, calls = [], []
    for r, max_nodes in RELAX_FAMILIES:
        s = seeded_family(r)
        for n in (n for n in nodes if n <= max_nodes):
            # the step calls hold their plan for the section: 53 MB at the default N
            _, made, done = step_calls(jsrelax, seeded_mats(r), n)
            row = {"r": r, "nodes": n, "mapped": {key: got[0] for key, got in done.items()}}
            steps.append(row)
            # never released, so the untimed call drains the slot and the timed one allocates
            calls.append((row, "plan_build",
                          lambda s=s, n=n: norms._ImagePlan(s, n, (1.0, 0.0))))
            calls += [(row, key, call) for key, call in made.items()]
    runs, fine_runs = [], []
    cases = [(runs, name, MatrixSet(tuple(mats)), n, tol, {})
             for name, mats, n, tol in run_families(nodes)]
    cases += [(fine_runs, name, MatrixSet(mats), n, tol, {})
              for n, tol in FINE_RUNS for name, mats in FAMILIES.items()]
    cases += [(fine_runs, f"r{r}", seeded_family(r), n, FINE_FAMILY_TOL, {})
              for r, n in FINE_FAMILY_RUNS]
    cases.append((fine_runs, "ex1x1e300", MatrixSet(tuple(np.array(FAMILIES["ex1"]) * 1e300)),
                  30000, FINE_FAMILY_TOL, {"max_iters": STALLED_MAX_ITERS}))
    for rows, name, s, n, tol, extra in cases:
        for algorithm in ("lr", "mr"):
            cfg = RelaxConfig(algorithm=algorithm, node_count=n, tol=tol, **extra)
            row = run_row(name, cfg, run(s, cfg))
            rows.append(row)
            calls.append((row, "run", lambda s=s, cfg=cfg: run(s, cfg)))
            if rows is fine_runs:
                single = replace(cfg, initial_norm=euclidean(n))
                calls.append((row, "run_single", lambda s=s, cfg=single: run(s, cfg)))
    round_robin(calls, repeats)
    return {"steps": steps, "runs": runs, "fine_runs": fine_runs}


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


TREES = ("parent", "change")
# the timed calls of a parent/change `steps` row
STEP_KEYS = ("plan_rebuild", "lr_step", "lr_step_converged", "mr_step", "mr_step_converged")
# the relax_family pass of the parent comparison: the benchmark's 16 corpus
# families turned by the rotations of this workload seed, lr and mr
PASS_SEED = 1
# calls of a parent/change `runs` row per round, of which the fastest counts:
# with one call a round, rows of identical code read 0.64-1.52 change/parent
RUN_CALLS_PER_ROUND = 5


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


def outcome(result) -> tuple:
    """Every output float and byte of a run, to check that two trees agree."""
    rows = tuple((r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam) for r in result.trace)
    return result.status, result.rho_lo, result.rho_hi, result.norm.values.tobytes(), rows


def perfbench_module(name: str):
    """A module of perfbench/, imported read-only."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def corpus_pass(tree) -> list[tuple]:
    """(family, config) of one relax_family pass, built with tree's classes."""
    workloads = perfbench_module("workloads")
    families = workloads.corpus()
    angles = np.random.default_rng(PASS_SEED).uniform(0.0, 2.0 * np.pi, size=len(families))
    return [(tree.MatrixSet(tuple(workloads.rotated(base, angle))),
             tree.RelaxConfig(algorithm=algorithm, node_count=workloads.FAMILY_NODES,
                              tol=workloads.FAMILY_TOL))
            for base, angle in zip(families, angles) for algorithm in ("lr", "mr")]


def contradicted(cases: list[tuple], results: list) -> int:
    """How many of the results of cases report a bracket that perfbench's
    proven product bounds (reference.py) contradict."""
    reference = perfbench_module("reference")
    return sum(bool(reference.contradicts(r.rho_lo, r.rho_hi,
                                          reference.reference_bounds(np.array(s.arrays()))))
               for (s, _), r in zip(cases, results))


def sweep_outcome(rows) -> list[tuple]:
    """Every float of depth_sweep's rows, as hex, to check that two trees agree."""
    return [(b.depth, b.lower.hex(), b.upper.hex(), t.hex()) for b, t in rows]


def parent_step_rows(trees: dict, nodes: list[int], repeats: int) -> list[dict]:
    """The `steps` rows for both trees, one family and node count at a time,
    each call alternately on either tree, the first tree changing each round."""
    rows = []
    for r, max_nodes in RELAX_FAMILIES:
        for n in (n for n in nodes if n <= max_nodes):
            made = {tag: step_calls(t, seeded_mats(r), n) for tag, t in trees.items()}
            row = {"r": r, "nodes": n, "same_output": made["parent"][2] == made["change"][2]}
            times = {key: {tag: ([], []) for tag in TREES} for key in STEP_KEYS}
            for k in range(repeats):
                order = TREES if k % 2 == 0 else TREES[::-1]
                for key, by_tree in times.items():
                    for tag in order:
                        call = made[tag][1][key]
                        call()
                        seconds, flt = timed(call)
                        by_tree[tag][0].append(seconds)
                        by_tree[tag][1].append(flt)
            for key, by_tree in times.items():
                row[key] = {tag: summary(*by_tree[tag]) for tag in TREES}
                row[key]["change_over_parent"] = (row[key]["change"]["median_ms"]
                                                  / row[key]["parent"]["median_ms"])
            for plan, _, _ in made.values():
                plan.release()
            rows.append(row)
    return rows


def parent_times(parent: Path, nodes: list[int], max_depth: int, repeats: int) -> dict:
    """The `runs` rows, depth_sweep to max_depth on examples 1 and 2, and a
    relax_family pass, timed for the parent tree and this one alternately in
    this process, the first tree changing each round.

    Both trees run in one process, so they share its allocator and its
    speed state; each keeps its own module state.  main() runs this section
    first, before the large solves of the others move the allocator's
    thresholds (see fault_rows).
    """
    trees = {"parent": load_tree(parent, "jsrelax_parent"), "change": jsrelax}
    rows = []
    for name, mats, n, tol in run_families(nodes):
        for algorithm in ("lr", "mr"):
            row = {"family": name, "algorithm": algorithm, "nodes": n, "tol": tol}
            solve = {tag: lambda t=t, s=t.MatrixSet(tuple(np.array(mats, dtype=float))),
                     cfg=t.RelaxConfig(algorithm=algorithm, node_count=n, tol=tol): t.run(s, cfg)
                     for tag, t in trees.items()}
            row["same_output"] = outcome(solve["parent"]()) == outcome(solve["change"]())
            rows.append((row, solve, {tag: ([], []) for tag in TREES}))
    sweeps = []
    for name, mats in FAMILIES.items():
        row = {"family": name, "max_depth": max_depth}
        sweep = {tag: lambda t=t, s=t.MatrixSet(mats): sweep_outcome(t.depth_sweep(s, max_depth))
                 for tag, t in trees.items()}
        row["same_output"] = sweep["parent"]() == sweep["change"]()
        sweeps.append((row, sweep, {tag: ([], []) for tag in TREES}))
    cases = {tag: corpus_pass(t) for tag, t in trees.items()}
    results = {tag: [t.run(*case) for case in cases[tag]] for tag, t in trees.items()}
    same = all(outcome(a) == outcome(b) for a, b in zip(results["parent"], results["change"]))
    passes = {tag: {"pass": [], "minflt": [], "solves": []} for tag in TREES}
    for k in range(repeats):
        order = TREES if k % 2 == 0 else TREES[::-1]
        for tag in order:
            faults = minor_faults()
            solves = [timed(lambda a=a: trees[tag].run(*a))[0] for a in cases[tag]]
            passes[tag]["minflt"].append(minor_faults() - faults)
            passes[tag]["pass"].append(sum(solves))
            passes[tag]["solves"] += solves
        for calls, group in ((RUN_CALLS_PER_ROUND, rows), (1, sweeps)):
            for _, solve, times in group:
                for tag in order:
                    solve[tag]()
                    seconds, flt = min(timed(solve[tag]) for _ in range(calls))
                    times[tag][0].append(seconds)
                    times[tag][1].append(flt)
    for row, _, times in rows + sweeps:
        row.update((tag, summary(*times[tag])) for tag in TREES)
        row["change_over_parent"] = row["change"]["median_ms"] / row["parent"]["median_ms"]
    for row, _, _ in rows:
        row["calls_per_round"] = RUN_CALLS_PER_ROUND
    family = {"seed": PASS_SEED, "solves": len(cases["change"]), "same_output": same,
              "contradicted": {tag: contradicted(cases[tag], results[tag]) for tag in TREES}}
    for tag, p in passes.items():
        family[tag] = {**summary(p["pass"], p["minflt"]),
                       "solve_p50_ms": 1e3 * statistics.median(p["solves"]),
                       "solve_p90_ms": 1e3 * statistics.quantiles(p["solves"], n=10)[-1]}
    return {"runs": [row for row, _, _ in rows], "oracle": [row for row, _, _ in sweeps],
            "relax_family_pass": family, "steps": parent_step_rows(trees, nodes, repeats)}


def bench(max_depth: int, nodes: list[int], repeats: int) -> dict:
    families = {}
    for name, mats in FAMILIES.items():
        s = MatrixSet(mats)
        sweeps = [sweep_row_times(s, max_depth) for _ in range(repeats)]
        builds = level_times(s, max_depth, repeats)
        rows = []
        for depth in range(1, max_depth + 1):
            row = {"depth": depth, "products": s.count ** depth,
                   "sweep_row": summary([sweep[depth - 1] for sweep in sweeps])}
            if depth > 1:
                row["level_build"] = summary(builds[depth - 2])
            rows.append(row)
        families[name] = {
            "sweep_total_ms": summary([sum(sweep) for sweep in sweeps]),
            "depths": rows,
        }
    writers = {
        name: [writer_times(MatrixSet(mats), n, repeats) for n in nodes]
        for name, mats in FAMILIES.items()
    }
    return {
        "benchmark": "oracle by depth; writers, relax plan and steps by node count",
        "max_depth": max_depth,
        "repeats": repeats,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "families": families,
        "writers": writers,
        "relax": relax_times(nodes, repeats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-depth", type=int, default=20)
    parser.add_argument("--nodes", type=int, nargs="+", default=[3000, 30000, 300000],
                        help="node counts of the writer and relax timings")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent", metavar="DIR", type=Path,
                        help="a checkout of the parent commit: also time its run rows, "
                             "oracle sweeps, a relax_family pass and step rows against "
                             "this tree's, in this process")
    args = parser.parse_args(argv)
    if args.max_depth < 2 or args.repeats < 1 or min(args.nodes) < 8:
        parser.error("need --max-depth >= 2, --repeats >= 1 and --nodes >= 8")
    ab = (None if args.parent is None
          else parent_times(args.parent, args.nodes, args.max_depth, args.repeats))
    result = bench(args.max_depth, args.nodes, args.repeats)
    trees = {"change": ROOT / "src"}
    if ab is not None:
        trees = {"parent": args.parent / "src", **trees}
        result["parent_ab"] = ab
    result["relax"]["fresh_process_faults"] = fault_rows(trees, args.nodes)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for name, fam in result["families"].items():
        deepest = fam["depths"][-1]
        print(f"{name}: depth {deepest['depth']} row {deepest['sweep_row']['min_ms']:.2f} ms, "
              f"level build {deepest['level_build']['min_ms']:.2f} ms, "
              f"sweep {fam['sweep_total_ms']['min_ms']:.1f} ms")
    for name, rows in result["writers"].items():
        for row in rows:
            print(f"{name} N={row['nodes']}: "
                  + ", ".join(f"{w} {row[w]['min_ms']:.2f} ms"
                              for w in ("write_norm", "render_unit_sphere", "write_trace")))
    for row in result["relax"]["steps"]:
        steps = ", ".join(f"{key.replace('_', ' ')} {row[key]['min_ms']:.3f} ms ({mapped} mapped)"
                          for key, mapped in row["mapped"].items())
        builds = ", ".join(f"{label} {row[key]['min_ms']:.2f} ms ({row[key]['minflt']} faults)"
                           for key, label in (("plan_build", "plan build"),
                                              ("plan_rebuild", "second build")) if key in row)
        print(f"r={row['r']} N={row['nodes']}: {builds}, {steps}")
    for row in result["relax"]["runs"] + result["relax"]["fine_runs"]:
        levels = " / ".join(str(steps) for _, steps in row["levels"])
        single = row.get("run_single")
        single = f" (single-level {single['min_ms']:.1f} ms)" if single else ""
        print(f"{row['family']} {row['algorithm']} N={row['nodes']} tol={row['tol']:g}: "
              f"run {row['run']['min_ms']:.1f} ms ({row['run']['minflt']} faults){single}, "
              f"{row['iterations']} iterations (steps by level {levels}), {row['status']}")
    for row in result["relax"]["fresh_process_faults"]:
        trees = []
        for tag in (t for t in TREES if t in row):
            got = row[tag]
            builds = (f", plan build {got['plan_build']} then {got['plan_rebuild']}"
                      if "plan_build" in got else "")
            trees.append(f"{tag} runs {got['runs']}{builds}")
        print(f"r={row['r']} N={row['nodes']} fresh-process faults: " + "; ".join(trees))
    ab = result.get("parent_ab")
    if ab:
        for row in ab["runs"]:
            print(f"parent/change {row['family']} {row['algorithm']} N={row['nodes']}: "
                  + " vs ".join(f"{row[t]['median_ms']:.2f} ms ({row[t]['minflt']} faults)"
                                for t in TREES)
                  + f", ratio {row['change_over_parent']:.3f}, same output {row['same_output']}")
        for row in ab["oracle"]:
            print(f"parent/change {row['family']} depth_sweep to depth {row['max_depth']}: "
                  + " vs ".join(f"{row[t]['median_ms']:.1f} ms" for t in TREES)
                  + f", ratio {row['change_over_parent']:.3f}, same output {row['same_output']}")
        fam = ab["relax_family_pass"]
        for t in TREES:
            got = fam[t]
            print(f"{t} relax_family pass (seed {fam['seed']}): {got['median_ms']:.1f} ms median, "
                  f"solve p50 {got['solve_p50_ms']:.2f} ms, p90 {got['solve_p90_ms']:.2f} ms, "
                  f"{got['minflt']} faults")
        print(f"relax_family pass same output: {fam['same_output']}, cases contradicting "
              "the proven bounds: "
              + ", ".join(f"{t} {fam['contradicted'][t]}/{fam['solves']}" for t in TREES))
        for row in ab["steps"]:
            calls = ", ".join(f"{key.replace('_', ' ')} "
                              + " vs ".join(f"{row[key][t]['median_ms']:.3f}" for t in TREES)
                              + " ms" for key in STEP_KEYS)
            print(f"parent/change r={row['r']} N={row['nodes']}: {calls}, "
                  f"same output {row['same_output']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
