"""Benchmark for jsrelax: time to a converged bracket, end to end and per layer.

    python3 perfbench/run.py --workload {cli_fine,relax_family,oracle_sweep} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and imports jsrelax from
the checkout's `src`.  Each run is a closed loop over the workload's cases,
each solve starting when the previous one ends.  It runs whole passes over the
cases (untraced: until at least S seconds and 100 solves are measured, with the
set-up probes spread between them; traced:
untraced and traced passes in turn for S seconds), checks every solve
against references computed with numpy, and prints a summary followed by one
JSON line: the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_fine", "relax_family", "oracle_sweep")

# p90 is reported only with at least 10 solves beyond it, which 100 solves ensure.
MIN_SOLVES = 100
SETUP_PROBES = 7
# Measuring stops here even short of MIN_SOLVES, so a run ends well within 180 s.
HARD_LIMIT_S = 140.0

# (name, unit, better): the end-to-end metrics of an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solves_per_s", "1/s", "higher"),
    ("solve_ms_p50", "ms", "lower"),
    ("solve_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def p90(samples: list[float]) -> float | None:
    """90th percentile, or None when fewer than 10 samples lie beyond it."""
    if len(samples) < 2:
        return None
    q = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return q if sum(x > q for x in samples) >= 10 else None


def windows(passes: list[list[float]], size: int = MIN_SOLVES) -> list[list[float]]:
    """Consecutive whole passes grouped into windows of at least `size` solves.

    A remainder short of `size` joins the last window; with fewer than `size`
    solves in all there is one window.
    """
    groups, current = [], []
    for times in passes:
        current += times
        if len(current) >= size:
            groups.append(current)
            current = []
    if current and groups:
        groups[-1] += current
    elif current:
        groups.append(current)
    return groups


def windowed_p90(passes: list[list[float]]) -> float | None:
    """Mean over windows of at least MIN_SOLVES solves of each window's p90.

    The host's speed switches between two states.  In a pooled sample the
    slow state's copies of the slowest cases fill the top decile first, so a
    pooled p90 jumps with the slow share of the run; a mean over windows
    moves with it smoothly, as solves_per_s does.  Each window keeps at least
    10 solves beyond its p90.
    """
    values = [p90(w) for w in windows(passes)]
    return None if None in values else statistics.fmean(values)


def end_to_end(passes: list[list[float]], setup_s: list[float], peak_rss_mb: float) -> dict:
    """Metrics of an untraced run, named and united as in END_TO_END.

    passes holds the solve times of each whole pass over the cases.
    solves_per_s is solves over the time spent solving: under a host whose
    speed switches between two states, this mean moves smoothly with the
    share of time spent in each, where a median jumps between them.
    """
    solve_s = [t for times in passes for t in times]
    tail = windowed_p90(passes)
    values = {
        "setup_s": statistics.median(setup_s),
        "solves_per_s": len(solve_s) / sum(solve_s),
        "solve_ms_p50": 1e3 * statistics.median(solve_s),
        "solve_ms_p90": None if tail is None else 1e3 * tail,
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in END_TO_END
        if values[name] is not None
    }


def per_layer(tracer, plain: list[list[float]], traced: list[list[float]], outcomes) -> dict:
    """Metrics of a traced run, named and united as in tracing.LAYER_METRICS.

    plain and traced are the solve times of each pass without and with the
    hooks installed; the difference of their medians is the tracing overhead.
    """
    plain_s = [t for times in plain for t in times]
    traced_s = [t for times in traced for t in times]
    io_bytes = [o.io_bytes for o in outcomes if o is not None]
    values = tracing.layer_metrics(tracer.spans, tracer.hooked,
                                   statistics.fmean(io_bytes) if io_bytes else 0.0)
    untraced_ms = 1e3 * statistics.median(plain_s)
    traced_ms = 1e3 * statistics.median(traced_s)
    values["trace.solve_ms_p50_untraced"] = untraced_ms
    values["trace.solve_ms_p50_traced"] = traced_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0)
    values["trace.spans_per_solve"] = len(tracer.spans) / len(traced_s)
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in tracing.LAYER_METRICS
        if name in values
    }


def judge(outcome, first_fingerprint: str | None, ref) -> tuple[bool, bool]:
    """(failed, contradicted) for one solve.

    A solve fails when its status is not converged, its output differs from
    the first solve of the same case, or a claim contradicts the reference.
    """
    contradicted = any(reference.contradicts(lo, hi, ref) for lo, hi in outcome.claims)
    differs = first_fingerprint is not None and outcome.fingerprint != first_fingerprint
    return (not outcome.converged) or differs or contradicted, contradicted


class Ledger:
    """Checks every solve and counts attempts, failures and bracket misses.

    attempted and failed count solves.  failed_cases holds the cases with at
    least one failed solve: a case is one input, solved on every pass, so
    this count depends on the seed and the program only, not on how many
    passes the host's speed allowed.
    """

    def __init__(self, cases, refs):
        self.cases = cases
        self.refs = refs
        self.first: dict[int, str] = {}
        self.failed_cases: set[int] = set()
        self.attempted = self.failed = 0
        self.relax_solves = self.misses = 0
        self.worst_miss = 0.0  # largest relative distance of a missed bracket end
        self.errors: Counter[str] = Counter()  # distinct failure messages

    def record(self, k: int, raw, error: str | None):
        """Judge one solve of case k; returns its Outcome, or None if it raised."""
        self.attempted += 1
        outcome = None
        if error is None:
            try:
                outcome = self.cases[k].inspect(raw)
            except (OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if outcome is None:
            self.failed += 1
            self.failed_cases.add(k)
            self.errors[f"{self.cases[k].name}: {error}"] += 1
            return None
        failed, contradicted = judge(outcome, self.first.get(k), self.refs[k])
        self.first.setdefault(k, outcome.fingerprint)
        self.failed += failed
        if failed:
            self.failed_cases.add(k)
        if outcome.relax:
            self.relax_solves += 1
            self.misses += contradicted
            ref = self.refs[k]
            for lo, hi in outcome.claims if contradicted else ():
                self.worst_miss = max(self.worst_miss, (ref.lower - hi) / ref.lower,
                                      (lo - ref.upper) / ref.upper)
        if contradicted:
            self.errors[f"{self.cases[k].name}: contradicts the proven bounds"] += 1
        elif not outcome.converged:
            self.errors[f"{self.cases[k].name}: status is not converged"] += 1
        elif failed:
            self.errors[f"{self.cases[k].name}: output differs from its first solve"] += 1
        return outcome


def measure(cases, ledger: Ledger, seconds: float, min_solves: int, deadline: float, tracer=None):
    """Closed loop over whole passes of the cases.

    Returns the solve times of each pass and the outcomes of all solves.
    """
    passes, outcomes = [], []
    solves = 0
    start = time.perf_counter()
    while True:
        times = []
        for k, case in enumerate(cases):
            if tracer is not None:
                tracer.solve += 1
            error = None
            t0 = time.perf_counter()
            try:
                raw = case.solve()
            except Exception as exc:  # a failed solve is counted, the run goes on
                raw, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            solves += 1
            outcomes.append(ledger.record(k, raw, error))
        passes.append(times)
        now = time.perf_counter()
        if (now - start >= seconds and solves >= min_solves) or now >= deadline:
            return passes, outcomes


def probe_setup(workload: str, seed: int, target: Path) -> float:
    """Set-up seconds of a fresh process that imports jsrelax and builds the inputs."""
    target.mkdir()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed), str(target)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def environment(workloads) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "oracle_workers": tracing.oracle_workers(workloads.example_arrays(workloads.EX1)),
    }


def write_spans(path: Path, tracer, env: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as out:
        out.write(f"# {json.dumps(env)}\n")
        out.write("index,name,parent,solve,start_s,end_s,work,cpu_s\n")
        for s in tracer.spans:
            out.write(f"{s.index},{s.name},{s.parent},{s.solve},{s.start!r},{s.end!r},"
                      f"{s.work},{s.cpu!r}\n")


def summary(args, ledger: Ledger, metrics: dict, env: dict, extra: list[str]) -> list[str]:
    attempted = ledger.attempted
    lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
             f"env: {json.dumps(env)}"]
    lines.extend(extra)
    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':34s} {ledger.failed / attempted:.6g} "
                 f"({ledger.failed}/{attempted} solves; "
                 f"{len(ledger.failed_cases)}/{len(ledger.cases)} cases)")
    if ledger.relax_solves:
        lines.append(f"  {'bracket_miss_frac':34s} {ledger.misses / ledger.relax_solves:.6g} "
                     f"({ledger.misses}/{ledger.relax_solves} relax solves, "
                     f"worst by {ledger.worst_miss:.2g} relative)")
    else:
        lines.append(f"  {'bracket_miss_frac':34s} n/a (no relax solves)")
    lines.extend(f"  failed {n}x: {message}" for message, n in sorted(ledger.errors.items()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "jsrelax" / "__init__.py").is_file():
        print(f"error: no jsrelax package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jsrelax

    if Path(jsrelax.__file__).resolve().parent != SRC / "jsrelax":
        print(f"error: imported jsrelax from {jsrelax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        deadline = started + HARD_LIMIT_S
        cases = workloads.build(args.workload, args.seed, workdir)
        refs = [reference.reference_bounds(c.mats) for c in cases]
        ledger = Ledger(cases, refs)
        measure(cases, ledger, 0.0, 0, deadline)  # warm-up pass, checked, not timed
        extra = [f"cases={len(cases)} reference depths={sorted({r.depth for r in refs})}"]
        if args.trace == 0:
            # The set-up probes are spread over the run, one before each
            # share of the passes, so that setup_s meets the host's speed
            # states in the same mix as the solves.
            passes, setup = [], []
            for i in range(SETUP_PROBES):
                setup.append(probe_setup(args.workload, args.seed, workdir / f"probe{i}"))
                short = MIN_SOLVES - sum(map(len, passes)) if i == SETUP_PROBES - 1 else 0
                passes += measure(cases, ledger, args.seconds / SETUP_PROBES, short, deadline)[0]
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(passes, setup, rss)
            solved = sum(len(times) for times in passes)
            extra.append(f"timed solves={solved} in {len(passes)} passes, "
                         f"{sum(map(sum, passes)):.3f} s; p90 windows="
                         f"{len(windows(passes))}; setup samples={len(setup)}")
            if "solve_ms_p90" not in metrics:
                extra.append("solve_ms_p90 withheld: fewer than 10 solves beyond it")
        else:
            # untraced and traced passes alternate, so both meet the same load
            plain, traced, outcomes = [], [], []
            tracer = tracing.Tracer()
            end = time.perf_counter() + args.seconds
            while time.perf_counter() < min(end, deadline):
                plain += measure(cases, ledger, 0.0, 0, deadline)[0]
                with tracer.installed():
                    passes, seen = measure(cases, ledger, 0.0, 0, deadline, tracer)
                traced += passes
                outcomes += seen
            metrics = per_layer(tracer, plain, traced, outcomes)
            spans_file = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.csv"
            extra.append(f"untraced passes={len(plain)} traced passes={len(traced)} "
                         f"spans={len(tracer.spans)} -> {spans_file.relative_to(ROOT)}")
            if tracer.missing:
                extra.append(f"missing hooks (their metrics are absent): {', '.join(tracer.missing)}")
        env = environment(workloads)  # after the peak RSS is read: its oracle call is large
        correct = ledger.attempted > 0 and all(
            r.lower <= r.upper * (1.0 + reference.ROUNDING_MARGIN) for r in refs)
        if args.trace == 1:
            write_spans(spans_file, tracer, env)
        print("\n".join(summary(args, ledger, metrics, env, extra)))
        # counted per case: a run checks every solve, but how many solves
        # fit in --seconds is the host's doing, not the program's
        print(json.dumps({
            "correct": correct,
            "attempted": len(ledger.cases),
            "failed": len(ledger.failed_cases),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
