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
(`same_output`) and, in `same`, which outputs held: a verdict per timed key,
and for a run's outcome one per field (SAME_FIELDS).  A round times both
trees back to back, so the ratio cancels a host speed state that lasts
longer than the round: in three runs over the oracle rows to depth 12 and
the writer rows of identical trees, the ratio of the trees' medians read
0.69-1.44 where the median of the round ratios read 0.92-1.07.

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
  and tol=1e-4; at least RUN_MIN_CALLS calls per round.  Every timed solve
  here and in fine_runs starts from an empty plan slot (see `solve`), so it
  builds every grid's plan as a family's first solve does.
- relax_family_pass: the tool's relax_family measure, `pass`: the
  benchmark's 16 corpus families turned by the rotations of workload seed
  PASS_SEED, timed whole as perfbench runs them, each family's lr and then
  its mr (which takes lr's plans), one call a round, the trees alternating.
  Its output is the 32 solves' outcomes by field, so `same` has a verdict
  per field; the row records each solve (`solves`) and, per tree, the
  solves whose bracket perfbench/reference.py's proven product bounds
  contradict (`contradicted`).  perfbench's solve_ms_p50 and solve_ms_p90
  are the per-solve figures of record.
- cli_pass: the cli_fine workload's pass as perfbench runs it at workload
  seed PASS_SEED: `jsrelax run` through cli.cli_main on examples 1 and 2,
  lr and mr, at N = 30000 and tol=1e-6, writing the trace, the norm CSV and
  the SVG, in perfbench's order for that seed; timed whole (`pass`), one
  call a round, the trees alternating.  `digests` holds each case's exit
  code and the SHA-256 of its stdout, trace, norm CSV and SVG.  Both trees
  share this process's allocator, so the ratio is a floor on what separate
  processes read: the per-process caches of dd81404 read 0.790
  change/parent here (BENCH_28.json), +26-33% cli_fine `solves_per_s` in
  perfbench.
- oracle: for each depth n, the time depth_sweep takes to yield row n
  (build level n from level n-1, then the bounds and the trace estimate;
  `sweep_row`) and the level build alone (`level_build`), with the product
  count r^n; `oracle_sweeps`: the whole depth_sweep to --max-depth.
- writers: for each node count N, write_norm and write_trace into memory and
  render_unit_sphere at 512 px, on the norm that `run` (lr, tol=1e-6, as
  `jsrelax run --tol 1e-6` does) converges to.  A row repeats one write, so
  `write_norm` keeps the angle cells of its node count (io._angle_cells)
  from the row's second call on; `write_norm_cold` empties them untimed.
- steps: for seeded random families of r = 2, 8 and 32 matrices and each
  node count N, the image plan build and one `relax.lr_step` and one
  `relax.mr_step` on that plan, from the normalized Euclidean start and from
  the profile that `run` converges to at tol=1e-4 with the same algorithm
  (r = 32 only up to N = 30000: its plan holds 24 bytes per entry, 115 MB
  at N = 300000).  `mapped` says how many of the r members each step maps:
  the plan maps only the members whose dominance margin the profile's
  spread reaches.  `plan_build` is a direct build into new arrays.
  `bounds`, `combine_linear` and `combine_max` are the parts of a step
  after its node map, on the node maxima of the profile lr converges to,
  each on a fresh copy of them made untimed (combine_linear overwrites its
  input).  Each row is timed on its own, so that only one row's plans are
  held at a time.
- fine_runs: `run`, whatever --nodes says, on examples 1 and 2, lr and mr,
  at N = 30000 with tol=1e-6 and at N = 300000 with tol=1e-10; on the
  seeded r = 2, 8 and 32 families at tol=1e-6 and N = 16382 and 16384
  (either side of the node count where grid continuation starts) and
  30000, and for r = 8 at N = 300000; and on example 1 scaled by 1e300 at
  N = 30000 with max_iters=200, a solve that stalls because tol is absolute.
  Where the solve is continued, `run_single` is the single-level solve of
  the same problem, `run` given the Euclidean start.
- fresh_process_faults: after its large solves this process no longer
  faults on fresh arrays, so this counts the faults of a few run() calls
  and of a direct plan build of each seeded family, in a fresh process per
  tree.  The first-call counts depend on the path the tree is imported
  from, not only on its code: with byte-identical code, r = 32 at N = 3000
  read a first run of 325, 311 and 369 faults from three paths.  So each
  tree is imported from a package copy in its own temporary directory,
  whose paths have one length.

A run row, and each solve of the pass, records its status, its iterations
(the N-node grid's), its grid levels (the node count and the steps of every
grid the solve stepped on, coarsest first) and its bracket.  The outputs
compared are a run's status, levels, bracket, norm bytes and trace rows; a
writer's bytes; the oracle's rows, as hex; a step's node maxima and next
profile; a fresh plan's node maxima at the Euclidean start; and each
`jsrelax run` of the cli pass.  Byte strings are compared by their SHA-256.

Run from the repository root:

    python tools/bench.py --out BENCH.json
    python tools/bench.py --parent ../parent --out BENCH.json
    python tools/bench.py --max-depth 8 --nodes 3000 --repeats 1 --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
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
# the fields of a run's outcome that a row's `same` compares one by one
SAME_FIELDS = {"status": ("status",), "levels": ("levels",), "bracket": ("rho_lo", "rho_hi"),
               "trace": ("trace",), "norm": ("norm",)}


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


def calls_per_round(seconds: float, least: int = 1, most: int = MAX_CALLS_PER_ROUND) -> int:
    """Timed calls per round of a key whose first run took seconds."""
    return max(least, min(most, math.ceil(ROUND_SECONDS / max(seconds, 1e-9))))


def agree(outputs: list) -> bool:
    """Whether every tree's output reads the same (by repr, so that a NaN in
    each reads the same)."""
    return len({repr(out) for out in outputs}) == 1


def same(outputs: list) -> bool | dict:
    """Whether the trees' outputs agree: field by field for a run's outcome
    (see SAME_FIELDS), else whole."""
    if isinstance(outputs[0], dict):
        return {name: agree([[out[f] for f in fields] for out in outputs])
                for name, fields in SAME_FIELDS.items()}
    return agree(outputs)


def round_ratio(change: list[float], parent: list[float]) -> float:
    """The median over the rounds of change/parent (see the module docstring)."""
    return statistics.median(c / p for c, p in zip(change, parent))


def measure(rows: list[tuple[dict, dict]], repeats: int, least: int = 1,
            most: int = MAX_CALLS_PER_ROUND) -> list[dict]:
    """Time every call of rows on every tree, as the module docstring says,
    at least `least` and at most `most` calls per round, and write each
    timed key's summary and its calls per round into its row.

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
            count[key] = calls_per_round(max(seconds for seconds, _, _ in first.values()),
                                         least, most)
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
            outputs = {key: [s.output for s in by_tree.values()] for key, by_tree in samples.items()}
            row["same"] = {key: same(got) for key, got in outputs.items()}
            row["same_output"] = all(agree(got) for got in outputs.values())
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
    """`run` of s under cfg, each call from an empty plan slot (emptied untimed)."""
    return Call(lambda _: tree.run(s, cfg), outcome, tree.norms._kept.clear)


def per_tree(trees: dict, make) -> dict:
    """A row's calls, {key: {tag: Call}}, from make(tree) -> {key: Call}."""
    made = {tag: make(t) for tag, t in trees.items()}
    return {key: {tag: calls[key] for tag, calls in made.items()} for key in made["change"]}


def seeded_mats(r: int) -> np.ndarray:
    return np.random.default_rng(2008 + r).uniform(-2.0, 2.0, size=(r, 2, 2))


def run_calls(tree, mats, cfg: dict) -> dict:
    """`run` of mats under cfg with tree's classes and, where the solve is
    continued, `run_single`, the same solve given the Euclidean start."""
    s = tree.MatrixSet(tuple(np.array(mats, dtype=float)))
    c = tree.RelaxConfig(**cfg)
    calls = {"run": solve(tree, s, c)}
    if len(tree.relax._grids(c)) > 1:
        calls["run_single"] = solve(tree, s, replace(c, initial_norm=tree.euclidean(c.node_count)))
    return calls


def timed_runs(trees: dict, cases: list[tuple], repeats: int, least: int = 1) -> list[dict]:
    """A run row per case (name, matrices, N, tol, extra config) and
    algorithm, timed, with its fields from the change tree's run."""
    rows = []
    for name, mats, n, tol, extra in cases:
        for algorithm in ("lr", "mr"):
            cfg = {"algorithm": algorithm, "node_count": n, "tol": tol, **extra}
            row = {"family": name, "algorithm": algorithm, "nodes": n, "tol": tol}
            rows.append((row, per_tree(trees, lambda t: run_calls(t, mats, cfg))))
    for (row, _), samples in zip(rows, measure(rows, repeats, least)):
        row.update((field, samples["run"]["change"].output[field]) for field in RUN_FIELDS)
    return [row for row, _ in rows]


def perfbench_module(name: str):
    """A module of perfbench/, imported read-only."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    return importlib.import_module(name)


def by_field(results) -> dict:
    """The outcomes of results, grouped by field: {field: [value per result]}."""
    outcomes = [outcome(res) for res in results]
    return {field: [out[field] for out in outcomes] for field in outcomes[0]}


def pass_call(tree, mats: list[np.ndarray], nodes: int, tol: float) -> Call:
    """The relax_family pass as perfbench runs it: each family's lr and then
    its mr, on one MatrixSet; its output is their outcomes by field."""
    solves = []
    for m in mats:
        s = tree.MatrixSet(tuple(m))
        solves += [(s, tree.RelaxConfig(algorithm=algorithm, node_count=nodes, tol=tol))
                   for algorithm in ("lr", "mr")]
    return Call(lambda: [tree.run(s, cfg) for s, cfg in solves], by_field)


def family_pass(trees: dict, repeats: int) -> dict:
    """The relax_family pass, timed whole on each tree (`pass`), with each
    solve's fields from the change tree's pass and, per tree, how many of
    its brackets the proven product bounds contradict."""
    workloads, reference = perfbench_module("workloads"), perfbench_module("reference")
    families = workloads.corpus()
    angles = np.random.default_rng(PASS_SEED).uniform(0.0, 2.0 * np.pi, size=len(families))
    mats = [workloads.rotated(base, angle) for base, angle in zip(families, angles)]
    nodes, tol = workloads.FAMILY_NODES, workloads.FAMILY_TOL
    family = {"seed": PASS_SEED}
    calls = per_tree(trees, lambda t: {"pass": pass_call(t, mats, nodes, tol)})
    (samples,) = measure([(family, calls)], repeats, most=1)
    got = {tag: sample.output for tag, sample in samples["pass"].items()}
    bounds = [reference.reference_bounds(np.array(m)) for m in mats for _ in ("lr", "mr")]
    family["contradicted"] = {
        tag: sum(bool(reference.contradicts(lo, hi, ref))
                 for lo, hi, ref in zip(out["rho_lo"], out["rho_hi"], bounds))
        for tag, out in got.items()}
    cases = [(i, algorithm) for i in range(len(mats)) for algorithm in ("lr", "mr")]
    family["solves"] = [{"family": i, "algorithm": algorithm, "nodes": nodes, "tol": tol,
                         **{field: got["change"][field][k] for field in RUN_FIELDS}}
                        for k, (i, algorithm) in enumerate(cases)]
    return family


def cli_call(tree, argvs: list[tuple[str, list, list[Path]]]) -> Call:
    """`jsrelax run` of each (case, argv, output files) in turn through tree's
    cli.cli_main, with stdout and stderr captured; the output is each case's
    exit code and the digests of its stdout and its files."""
    cli = importlib.import_module(f"{tree.__name__}.cli")

    def run():
        got = []
        for name, argv, files in argvs:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = cli.cli_main(argv)
            got.append((name, code, text.getvalue()))
        return got

    def output(got):
        files = {name: files for name, _, files in argvs}
        return [(name, code, digest(text.encode()), *(digest(f.read_bytes()) for f in files[name]))
                for name, code, text in got]

    return Call(run, output)


def cli_pass(trees: dict, repeats: int) -> list[dict]:
    """The cli_fine pass at workload seed PASS_SEED, timed whole on each tree,
    as one row; each tree writes its outputs into a directory of its own."""
    workloads = perfbench_module("workloads")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        order = [case.name for case in workloads.build("cli_fine", PASS_SEED, work)]

        def calls(tree):
            out = work / tree.__name__
            out.mkdir()
            argvs = []
            for name in order:
                family, algorithm = name.split("-")
                files = [out / f"{name}.{ext}" for ext in ("trace.csv", "norm.csv", "svg")]
                argvs.append((name, [
                    "run", str(work / f"{family}.json"), "--algorithm", algorithm,
                    "--nodes", str(workloads.CLI_NODES), "--tol", repr(workloads.CLI_TOL),
                    "--trace", str(files[0]), "--norm-out", str(files[1]), "--svg", str(files[2]),
                ], files))
            return {"pass": cli_call(tree, argvs)}

        row = {"seed": PASS_SEED, "nodes": workloads.CLI_NODES, "tol": workloads.CLI_TOL,
               "cases": order}
        (samples,) = measure([(row, per_tree(trees, calls))], repeats, most=1)
    row["digests"] = {name: list(rest) for name, *rest in samples["pass"]["change"].output}
    return [row]


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
    write_norm = Call(lambda *_: into(tree.write_norm, result.norm, io.BytesIO()),
                      lambda out: digest(out.getvalue()))
    return {
        "write_norm": write_norm,
        "write_norm_cold": write_norm._replace(prepare=tree.io._angle_cells.clear),
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
    """A `steps` row's calls on tree: the plan build, the four steps on one
    plan, which the calls hold, and the bounds and combines on the node
    maxima of the lr-converged profile."""
    s = tree.MatrixSet(tuple(mats))
    e = (1.0, 0.0)
    plan = tree.norms._ImagePlan(s, n, e)
    start = tree.relax._initial(tree.RelaxConfig(node_count=n))
    # a direct build never comes from the plan slot, so every timed call allocates
    calls = {"plan_build": Call(lambda: tree.norms._ImagePlan(s, n, e),
                                lambda fresh: digest(fresh.node_image_max(start)))}
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
# its kept plan is of other inputs), and of one direct plan build.
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
row["plan_build"] = faults(lambda: norms._ImagePlan(s, n, (1.0, 0.0)))
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
    """fresh_faults of each seeded relax family at each node count up to
    30000, per tree, each imported from a package copy in a temporary
    directory of its own (see fresh_process_faults in the module docstring)."""
    with contextlib.ExitStack() as stack:
        copies = {}
        for tag, src in trees.items():
            copies[tag] = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            shutil.copytree(src / "jsrelax", copies[tag] / "jsrelax",
                            ignore=shutil.ignore_patterns("__pycache__"))
        rows = []
        for r, _ in RELAX_FAMILIES:
            for n in (n for n in nodes if n <= RUN_MAX_NODES):
                row = {"r": r, "nodes": n, "tol": FAMILY_TOL}
                row.update((tag, fresh_faults(src, seeded_mats(r), n, FAMILY_TOL))
                           for tag, src in copies.items())
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
    move the allocator's thresholds (see fresh_process_faults)."""
    result = {
        "benchmark": "run, relax_family pass, cli pass, oracle by depth, writers, plan and "
                     "steps, fine runs",
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
    result["runs"] = timed_runs(trees, runs, repeats, least=RUN_MIN_CALLS)
    result["relax_family_pass"] = family_pass(trees, repeats)
    result["cli_pass"] = cli_pass(trees, repeats)
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
    result["fine_runs"] = timed_runs(trees, fine, repeats)
    return result


SECTIONS = ("runs", "cli_pass", "oracle", "oracle_sweeps", "writers", "steps", "fine_runs")


def line(section: str, row: dict, tags: list[str]) -> str:
    """A row as one line: its scalar fields, then each timed key's median per tree."""
    labels = " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()
                      if isinstance(v, (str, int, float))
                      and k != "same_output")
    timings = {key: row[key] for key in row["calls_per_round"]}
    calls = [f"{key} " + " vs ".join(f"{got[t]['median_ms']:.3f}" for t in tags) + " ms"
             + (f" (x{got['change_over_parent']:.3f})" if "change_over_parent" in got else "")
             for key, got in timings.items()]
    if "same_output" not in row:
        return f"{section} {labels}: " + ", ".join(calls)
    differ = []
    for key, verdict in row["same"].items():
        if isinstance(verdict, dict):
            differ += [f"{key}.{name}" for name, held in verdict.items() if not held]
        elif not verdict:
            differ.append(key)
    held = f"same output {row['same_output']}" + (f" ({', '.join(differ)} differ)" if differ else "")
    return f"{section} {labels}: " + ", ".join(calls) + ", " + held


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
        parent = load_tree(args.parent, "jsrelax_parent")
        if not (hasattr(parent.norms, "_kept") and hasattr(parent.io, "_angle_cells")):
            parser.error(f"--parent {args.parent}: jsrelax has no norms._kept or io._angle_cells")
        trees = {"parent": parent, **trees}
        sources = {"parent": args.parent / "src", **sources}
    result = bench(trees, args.max_depth, args.nodes, args.repeats)
    result["fresh_process_faults"] = fault_rows(sources, args.nodes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for section in SECTIONS:
        for row in result[section]:
            print(line(section, row, list(trees)))
    fam = result["relax_family_pass"]
    print(line("relax_family_pass", fam, list(trees)) + "; brackets contradicting the proven "
          "bounds: " + ", ".join(f"{tag} {n}/{len(fam['solves'])}"
                                  for tag, n in fam["contradicted"].items()))
    for row in result["fresh_process_faults"]:
        print(f"r={row['r']} N={row['nodes']} fresh-process faults: "
              + "; ".join(f"{tag} {row[tag]}" for tag in trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
