"""Spans around calls into jsrelax, recorded from outside the program.

The tracer replaces a public function at the module attribute where its
callers look it up (for example `jsrelax.relax.lr_step`, which `run` reads
from its own module) by a wrapper that records a span: name, start, end,
parent span and solve id.  Spans stay in memory until the run ends.  A hook
whose attribute is gone is reported as missing, and the metrics that need it
are left out, so the benchmark keeps running when the program drops a
function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

STEP = ("relax.lr_step", "relax.mr_step")
COMBINE = ("norms.combine_linear", "norms.combine_max")
EVALUATE = ("norms.evaluate", "norms.max_image", "norms.normalize")


def _node_images(nm, s, *rest, **kwargs) -> int:
    # one image map evaluates every family member at the N/2 upper-half nodes
    return s.count * nm.node_count // 2


def _products(s, depth, *rest, **kwargs) -> int:
    return s.count ** depth


# (module, attribute, span name, work per call, record process CPU time)
HOOKS = (
    ("jsrelax.cli", "cli_main", "cli.cli_main", None, False),
    ("jsrelax.cli", "parse_problem", "io.parse_problem", None, False),
    ("jsrelax.cli", "run", "relax.run", None, False),
    ("jsrelax.cli", "write_trace", "io.write_trace", None, False),
    ("jsrelax.cli", "write_norm", "io.write_norm", None, False),
    ("jsrelax.cli", "render_unit_sphere", "svgplot.render_unit_sphere", None, False),
    ("jsrelax.relax", "run", "relax.run", None, False),
    ("jsrelax.relax", "is_irreducible", "matrices.is_irreducible", None, False),
    ("jsrelax.relax", "lr_step", "relax.lr_step", None, False),
    ("jsrelax.relax", "mr_step", "relax.mr_step", None, False),
    ("jsrelax.relax", "bounds", "relax.bounds", None, False),
    ("jsrelax.relax", "combine_linear", "norms.combine_linear", _node_images, False),
    ("jsrelax.relax", "combine_max", "norms.combine_max", _node_images, False),
    ("jsrelax.relax", "evaluate", "norms.evaluate", None, False),
    ("jsrelax.relax", "max_image", "norms.max_image", None, False),
    ("jsrelax.relax", "normalize", "norms.normalize", None, False),
    ("jsrelax.norms", "evaluate", "norms.evaluate", None, False),
    ("jsrelax.oracle", "product_bounds", "oracle.product_bounds", _products, True),
    ("jsrelax.oracle", "trace_estimate", "oracle.trace_estimate", None, False),
)

# (name, unit, better): the per-layer metrics of a traced run.
LAYER_METRICS = (
    ("matrices.is_irreducible_us", "us", "lower"),
    ("norms.combine_ms", "ms", "lower"),
    ("norms.node_images_per_s", "1/s", "higher"),
    ("norms.evaluate_calls_per_iter", "count", "lower"),
    ("norms.evaluate_us", "us", "lower"),
    ("relax.iterations_per_solve_mean", "count", "lower"),
    ("relax.iterations_per_solve_max", "count", "lower"),
    ("relax.step_ms", "ms", "lower"),
    ("relax.step_self_ms", "ms", "lower"),
    ("relax.bounds_ms", "ms", "lower"),
    ("relax.run_self_ms", "ms", "lower"),
    ("relax.step_per_image_map", "ratio", "lower"),
    ("oracle.product_bounds_ms", "ms", "lower"),
    ("oracle.trace_estimate_ms", "ms", "lower"),
    ("oracle.products_per_s", "1/s", "higher"),
    ("oracle.cpu_per_wall", "ratio", "higher"),
    ("io.parse_problem_us", "us", "lower"),
    ("io.write_trace_ms", "ms", "lower"),
    ("io.write_norm_ms", "ms", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("svgplot.render_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.solve_ms_p50_untraced", "ms", "lower"),
    ("trace.solve_ms_p50_traced", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans_per_solve", "count", "lower"),
)


class Span:
    __slots__ = ("index", "name", "parent", "solve", "work", "start", "end", "cpu")

    def __init__(self, index, name, parent, solve, work=0, start=0.0, end=0.0, cpu=0.0):
        self.index = index
        self.name = name
        self.parent = parent  # index of the enclosing span, -1 at the top
        self.solve = solve
        self.work = work
        self.start = start
        self.end = end
        self.cpu = cpu

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the hooked functions while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.solve = -1          # id stamped on new spans; the run loop counts it up
        self.hooked: set[str] = set()
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def installed(self):
        self.hooked.clear()
        self.missing.clear()
        for module_name, attr, name, work, cpu in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work, cpu))
            self.hooked.add(name)
        try:
            yield self
        finally:
            while self._restore:
                module, attr, fn = self._restore.pop()
                setattr(module, attr, fn)

    def _wrap(self, fn, name, work, cpu):
        spans, ids, local = self.spans, self._ids, self._local
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            amount = 0
            if work is not None:
                try:
                    amount = work(*args, **kwargs)
                except (TypeError, AttributeError, ValueError):
                    amount = 0
            span = Span(next(ids), name, stack[-1] if stack else -1, self.solve, amount)
            spans.append(span)
            stack.append(span.index)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                span.start = t0
                if cpu:
                    span.cpu = cpu_clock() - c0
                stack.pop()

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    own = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(s.index, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        own[s.index] = s.duration - covered
    return own


def layer_metrics(spans: list[Span], hooked: set[str], io_bytes_per_solve: float) -> dict[str, float]:
    """Per-layer figures from one traced phase.

    Times are means per call.  A layer the workload never calls reads 0; a
    metric whose hooks are all missing is left out.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def picked(names):
        return [s for n in names for s in by_name.get(n, ())]

    def mean(names, value, scale):
        chosen = picked(names)
        return scale * sum(value(s) for s in chosen) / len(chosen) if chosen else 0.0

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    duration = lambda s: s.duration  # noqa: E731
    self_time = lambda s: own[s.index]  # noqa: E731
    index = {s.index: s for s in spans}

    def ancestor(s, names) -> int:
        """Index of the nearest enclosing span named in names, or -1."""
        parent = s.parent
        while parent >= 0 and index[parent].name not in names:
            parent = index[parent].parent
        return parent

    steps = picked(STEP)
    runs = by_name.get("relax.run", [])
    steps_per_run = defaultdict(int)
    for s in steps:
        steps_per_run[ancestor(s, ("relax.run",))] += 1

    combine_ms = mean(COMBINE, self_time, 1e3)
    step_ms = mean(STEP, duration, 1e3)
    product = by_name.get("oracle.product_bounds", [])
    product_wall = sum(s.duration for s in product)
    irreducible, bounds, run = ["matrices.is_irreducible"], ["relax.bounds"], ["relax.run"]
    oracle, estimate = ["oracle.product_bounds"], ["oracle.trace_estimate"]
    parse, trace, norm = ["io.parse_problem"], ["io.write_trace"], ["io.write_norm"]
    render, cli = ["svgplot.render_unit_sphere"], ["cli.cli_main"]
    # name: (value, groups of span names; each group needs one hooked name)
    values = {
        "matrices.is_irreducible_us": (mean(irreducible, duration, 1e6), [irreducible]),
        "norms.combine_ms": (combine_ms, [COMBINE]),
        "norms.node_images_per_s": (
            ratio(sum(s.work for s in picked(COMBINE)), sum(map(self_time, picked(COMBINE)))),
            [COMBINE]),
        "norms.evaluate_calls_per_iter": (
            ratio(sum(ancestor(s, STEP) >= 0 for s in picked(EVALUATE)), len(steps)),
            [EVALUATE, STEP]),
        "norms.evaluate_us": (mean(EVALUATE, self_time, 1e6), [EVALUATE]),
        "relax.iterations_per_solve_mean": (ratio(len(steps), len(runs)), [STEP, run]),
        "relax.iterations_per_solve_max": (
            float(max((steps_per_run[r.index] for r in runs), default=0)), [STEP, run]),
        "relax.step_ms": (step_ms, [STEP]),
        "relax.step_self_ms": (mean(STEP, self_time, 1e3), [STEP]),
        "relax.bounds_ms": (mean(bounds, duration, 1e3), [bounds]),
        "relax.run_self_ms": (mean(run, self_time, 1e3), [run]),
        "relax.step_per_image_map": (ratio(step_ms, combine_ms), [STEP, COMBINE]),
        "oracle.product_bounds_ms": (mean(oracle, duration, 1e3), [oracle]),
        "oracle.trace_estimate_ms": (mean(estimate, duration, 1e3), [estimate]),
        "oracle.products_per_s": (ratio(sum(s.work for s in product), product_wall), [oracle]),
        "oracle.cpu_per_wall": (ratio(sum(s.cpu for s in product), product_wall), [oracle]),
        "io.parse_problem_us": (mean(parse, duration, 1e6), [parse]),
        "io.write_trace_ms": (mean(trace, duration, 1e3), [trace]),
        "io.write_norm_ms": (mean(norm, duration, 1e3), [norm]),
        "io.bytes_written": (io_bytes_per_solve, []),
        "svgplot.render_ms": (mean(render, duration, 1e3), [render]),
        "cli.self_ms": (mean(cli, self_time, 1e3), [cli]),
    }
    return {
        name: value
        for name, (value, needs) in values.items()
        if all(any(n in hooked for n in group) for group in needs)
    }


def oracle_workers(mats) -> int:
    """Largest worker count the oracle's thread pool is started with for one
    depth-9 sweep of the family (512 products, more than one chunk); 1 when
    the oracle starts no pool.  Reads no environment variable itself."""
    jsrelax = importlib.import_module("jsrelax")
    module = importlib.import_module("jsrelax.oracle")
    pool = getattr(module, "ThreadPoolExecutor", None)
    if pool is None:
        return 1
    seen = []

    def spy(*args, **kwargs):
        seen.append(kwargs.get("max_workers", args[0] if args else 0) or 0)
        return pool(*args, **kwargs)

    module.ThreadPoolExecutor = spy
    try:
        module.product_bounds(jsrelax.MatrixSet(tuple(mats)), 9)
    finally:
        module.ThreadPoolExecutor = pool
    return max(seen, default=1)
