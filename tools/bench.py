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
(r = 32 only up to N = 30000: its plan holds 32 bytes per entry, 150 MB at
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

Each time is the minimum and the median over the repeats.  Run from the
repository root:

    python tools/bench.py --out BENCH.json
    python tools/bench.py --max-depth 8 --nodes 3000 --repeats 1 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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
from jsrelax import norms, oracle, relax  # noqa: E402

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
    mats, _ = next(oracle._products(s, 1, DEFAULT_PRODUCT_CAP))  # the prescaled family
    prods = mats
    times = []
    for _ in range(2, max_depth + 1):
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            built = oracle._extend(mats, prods)
            runs.append(time.perf_counter() - start)
        times.append(runs)
        prods = built
    return times


def summary(runs: list[float]) -> dict[str, float]:
    return {"min_ms": 1e3 * min(runs), "median_ms": 1e3 * statistics.median(runs)}


def writer_times(s: MatrixSet, nodes: int, repeats: int) -> dict:
    """min and median ms of each writer on the converged norm of s at this node count."""
    result = run(s, RelaxConfig(node_count=nodes, tol=1e-6))
    calls = {
        "write_norm": lambda: write_norm(result.norm, io.StringIO()),
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


def seeded_family(r: int) -> MatrixSet:
    return MatrixSet(tuple(np.random.default_rng(2008 + r).uniform(-2.0, 2.0, size=(r, 2, 2))))


def members_mapped(plan, nm: norms.AngularNorm) -> int:
    """How many members a step from nm maps on the plan (all, for a plan without screening)."""
    if hasattr(plan, "members_mapped"):
        return plan.members_mapped(nm)
    return len(plan.nodes.rad)


def run_row(family: str, cfg: RelaxConfig, result) -> dict:
    """A run row's outcome; a tree without grid continuation has the one level."""
    levels = getattr(result, "levels", ((cfg.node_count, len(result.trace)),))
    return {"family": family, "algorithm": cfg.algorithm, "nodes": cfg.node_count,
            "tol": cfg.tol, "max_iters": cfg.max_iters,
            "status": result.status, "iterations": len(result.trace),
            "levels": [list(level) for level in levels],
            "rho_lo": result.rho_lo, "rho_hi": result.rho_hi}


def round_robin(calls: list[tuple[dict, str, object]], repeats: int) -> None:
    """Time every call once per round, for repeats rounds; put its summary in row[key].

    The repeats of one call are spread over the whole section, so a host
    that switches speed for seconds at a time shows each call its fast state.
    Each timed call follows an untimed one, so it finds its data in cache as
    the steps of a solve do.
    """
    times = [[] for _ in calls]
    for _ in range(repeats):
        for (_, _, call), runs in zip(calls, times):
            call()
            start = time.perf_counter()
            call()
            runs.append(time.perf_counter() - start)
    for (row, key, _), runs in zip(calls, times):
        row[key] = summary(runs)


def relax_times(nodes: list[int], repeats: int) -> dict:
    """min and median ms of the plan build and of one step per family and node count,
    and of run() on the examples."""
    steps, calls = [], []
    e = RelaxConfig().e
    for r, max_nodes in RELAX_FAMILIES:
        s = seeded_family(r)
        for n in (n for n in nodes if n <= max_nodes):
            row = {"r": r, "nodes": n, "mapped": {}}
            steps.append(row)
            plan = norms._ImagePlan(s, n, e)  # kept for the section: 70 MB at the default N
            calls.append((row, "plan_build", lambda s=s, n=n: norms._ImagePlan(s, n, e)))
            for algorithm, step in (("lr", relax.lr_step), ("mr", relax.mr_step)):
                cfg = RelaxConfig(algorithm=algorithm, node_count=n)
                start = relax._initial(cfg)
                converged = run(s, RelaxConfig(algorithm=algorithm, node_count=n,
                                               tol=FAMILY_TOL)).norm
                for key, nm in ((f"{algorithm}_step", start),
                                (f"{algorithm}_step_converged", converged)):
                    row["mapped"][key] = members_mapped(plan, nm)
                    calls.append((row, key, lambda step=step, nm=nm, plan=plan, cfg=cfg:
                                  step(nm, plan, cfg, 0)))
    runs, fine_runs = [], []
    cases = [(runs, name, MatrixSet(mats), n, RUN_TOL, {})
             for name, mats in FAMILIES.items() for n in nodes if n <= RUN_MAX_NODES]
    cases += [(runs, f"r{r}", seeded_family(r), n, FAMILY_TOL, {}) for r, n in FAMILY_RUNS]
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
    args = parser.parse_args(argv)
    if args.max_depth < 2 or args.repeats < 1 or min(args.nodes) < 8:
        parser.error("need --max-depth >= 2, --repeats >= 1 and --nodes >= 8")
    result = bench(args.max_depth, args.nodes, args.repeats)
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
        print(f"r={row['r']} N={row['nodes']}: plan build {row['plan_build']['min_ms']:.2f} ms, "
              + steps)
    for row in result["relax"]["runs"] + result["relax"]["fine_runs"]:
        levels = " / ".join(str(steps) for _, steps in row["levels"])
        single = row.get("run_single")
        single = f" (single-level {single['min_ms']:.1f} ms)" if single else ""
        print(f"{row['family']} {row['algorithm']} N={row['nodes']} tol={row['tol']:g}: "
              f"run {row['run']['min_ms']:.1f} ms{single}, {row['iterations']} iterations "
              f"(steps by level {levels}), {row['status']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
