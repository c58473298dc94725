"""Command line surface: run the iteration, brute-force bounds, irreducibility check.

Exit codes: 0 success/converged, 1 usage or I/O error, 2 iteration cap
reached before convergence, 3 precondition (irreducibility) rejected, 4 a
forced run stopped because every matrix maps some grid direction to 0, or a
node value would leave the double range.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .io import ProblemFile, parse_problem, write_norm, write_trace
from .matrices import is_irreducible, spectral_radius
from .oracle import EnumerationBudgetError, depth_sweep
from .relax import (
    STATUS_CONVERGED,
    STATUS_DEGENERATE,
    STATUS_REJECTED,
    RelaxConfig,
    run,
)
from .svgplot import render_unit_sphere

__all__ = ["cli_main", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2
EXIT_REJECTED = 3
EXIT_DEGENERATE = 4

_SVG_SIZE = 512


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on the first call of the process and
    shared by every later one: parse_args keeps no state between calls."""
    parser = _Parser(
        prog="jsrelax",
        description="Joint spectral radius of a 2x2 matrix family via norm relaxation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="iterate and report the bracket and midpoint")
    runp.add_argument("problem", help="JSON problem file")
    runp.add_argument("--algorithm", choices=("lr", "mr"), default="lr")
    runp.add_argument("--lambda", dest="lambda_value", type=float, default=0.3,
                      help="constant relaxation weight in [0, 1) (lr); 0 is the direct "
                           "iteration, which has no convergence guarantee")
    runp.add_argument("--nodes", type=int, default=3000)
    runp.add_argument("--tol", type=float, default=1e-3)
    runp.add_argument("--max-iters", type=int, default=10_000)
    runp.add_argument("--e", default="1,0", metavar="X,Y",
                      help="reference vector; write --e=X,Y, since a negative X after a "
                           "space reads as an option")
    runp.add_argument("--force", action="store_true",
                      help="iterate even when the family is reducible")
    runp.add_argument("--trace", metavar="PATH", help="write the iteration trace CSV")
    runp.add_argument("--norm-out", metavar="PATH", help="write the final norm CSV")
    runp.add_argument("--svg", metavar="PATH", help="write the unit-sphere SVG")

    orc = sub.add_parser("oracle", help="brute-force product bounds and trace estimates")
    orc.add_argument("problem")
    orc.add_argument("--max-depth", type=int, default=8)

    chk = sub.add_parser("check", help="irreducibility report (exit 3 when reducible)")
    chk.add_argument("problem")
    return parser


def _load_problem(path: str) -> ProblemFile:
    return parse_problem(Path(path).read_bytes())


def _parse_e(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--e expects 'x,y', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--e expects numbers, got {text!r}") from None


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _cmd_run(args) -> int:
    problem = _load_problem(args.problem)
    cfg = RelaxConfig(
        algorithm=args.algorithm,
        lambda_schedule=args.lambda_value,
        node_count=args.nodes,
        e=_parse_e(args.e),
        tol=args.tol,
        max_iters=args.max_iters,
    )
    result = run(problem.matrices, cfg, force=args.force)
    if result.status == STATUS_REJECTED:
        print("family is reducible; rerun with --force to iterate anyway", file=sys.stderr)
        return EXIT_REJECTED
    if result.status == STATUS_DEGENERATE:
        print("no relaxation step is defined: every matrix maps a grid direction to 0, "
              "or a node value would leave the double range", file=sys.stderr)
        return EXIT_DEGENERATE
    if args.trace:
        with open(args.trace, "w", newline="\n") as sink:
            write_trace(result, sink)
    if args.norm_out:
        with open(args.norm_out, "wb") as sink:
            write_norm(result.norm, sink)
    if args.svg:
        Path(args.svg).write_text(render_unit_sphere(result.norm, _SVG_SIZE), newline="\n")
    if problem.label:
        print(f"label: {problem.label}")
    print(f"status: {result.status}")
    print(f"iterations: {len(result.trace)}")
    if len(result.levels) > 1:
        print("levels: " + " ".join(f"{nodes}:{steps}" for nodes, steps in result.levels))
    print(f"rho bracket: [{_fmt(result.rho_lo)}, {_fmt(result.rho_hi)}]")
    print(f"rho midpoint: {_fmt(result.rho_mid)}")
    return EXIT_OK if result.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED


def _cmd_oracle(args) -> int:
    problem = _load_problem(args.problem)
    rows = depth_sweep(problem.matrices, args.max_depth)  # refuses a bad request here
    if problem.label:
        print(f"# label: {problem.label}")
    print("# upper bound norm: euclidean")
    print("# trace_estimate is a diagnostic, not a bound")
    print("depth,lower,upper,trace_estimate")
    try:
        for b, t in rows:
            print(f"{b.depth},{_fmt(b.lower)},{_fmt(b.upper)},{_fmt(t)}")
    except EnumerationBudgetError as exc:
        # the library's remedy, a larger cap, has no flag here; the rows printed fit
        fits = (f"use --max-depth {exc.depth - 1} or less" if exc.depth > 1
                else "the family is too large to enumerate")
        print(f"error: depth {exc.depth} needs {exc.required} products, above the cap "
              f"of {exc.cap}; {fits}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _radius_text(m) -> str:
    try:
        return _fmt(spectral_radius(m))
    except OverflowError:  # the radius exceeds the largest double
        return "inf"


def _cmd_check(args) -> int:
    problem = _load_problem(args.problem)
    family = problem.matrices
    if problem.label:
        print(f"label: {problem.label}")
    print(f"matrices: {family.count} (dim {family.dim})")
    radii = ", ".join(_radius_text(m) for m in family)
    print(f"member spectral radii: {radii}")
    verdict = is_irreducible(family)
    print(f"irreducible: {'yes' if verdict else 'no'}")
    return EXIT_OK if verdict else EXIT_REJECTED


def cli_main(argv) -> int:
    """Parse argv (without the program name) and dispatch; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_check(args)
    except (_UsageError, OSError, ValueError) as exc:
        # ValueError covers ProblemFormatError and EnumerationBudgetError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None) -> int:
    return cli_main(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
