"""The benchmark's three workloads: inputs built from the seed, and one solve each.

A workload is a list of cases.  A case holds the family exactly as the program
receives it (for the references), a `solve` that calls into jsrelax through
module attributes (so the tracer's wrappers see the calls), and an `inspect`
that turns the raw result into what the run loop checks.  `inspect` runs
outside every timed region.

Callers put the checkout's `src` directory on sys.path before importing this
module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import jsrelax
from jsrelax import cli, oracle, relax
from jsrelax import io as jio

WORKLOADS = ("cli_fine", "relax_family", "oracle_sweep")

EX1 = [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]
EX2 = [[["15/17", "-16/17"], ["4/17", "15/17"]], [["4/5", "3/5"], ["-3/5", "4/5"]]]

# cli_fine: the documented user path on a fine grid.
CLI_NODES = 30000
CLI_TOL = 1e-6

# relax_family: a small grid with many matrices.  The families are drawn once
# from CORPUS_SEED (entries uniform in [-2, 2]) and every workload seed turns
# each family by its own random rotation Q A Q^T.  Fresh families per seed
# would make the cost per run unsteady: the iteration count of uniform random
# pairs has a tail near P(iters > x) ~ 1/x (1 in 100 needs over 900
# iterations), while a rotation keeps rho(A) and the iteration count and moves
# every entry and the alignment with the grid.
CORPUS_SEED = 2008
CORPUS = ((2, 6), (8, 6), (32, 4))  # (matrices per family, families)
FAMILY_NODES = 3000
FAMILY_TOL = 1e-4

# oracle_sweep: (depth D, family) with about 10^3 products at depth D.
EXAMPLE_DEPTH = 10
RANDOM_R = 3
RANDOM_DEPTH = 6


@dataclass
class Outcome:
    """What one solve produced, as the run loop checks it."""

    fingerprint: str                 # digest of every output byte or float
    converged: bool                  # status says converged (True if the call has no status)
    claims: list[tuple[float, float]]  # brackets lo <= rho(A) <= hi the output asserts
    relax: bool                      # the claims are relaxation brackets
    io_bytes: int = 0                # trace and norm CSV bytes written by the solve


@dataclass
class Case:
    name: str
    mats: np.ndarray                 # the family exactly as the program receives it
    solve: Callable[[], object]
    inspect: Callable[[object], Outcome]


def _entry(raw) -> float:
    # the problem-file rule: "p/q" is p divided by q
    if isinstance(raw, str):
        num, den = raw.split("/")
        return int(num) / int(den)
    return float(raw)


def example_arrays(rows) -> np.ndarray:
    return np.array([[[_entry(v) for v in row] for row in mat] for mat in rows])


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


_BRACKET = re.compile(r"^rho bracket: \[([^,]+), ([^\]]+)\]$", re.M)


def _cli_case(name: str, problem: Path, algorithm: str, workdir: Path, mats) -> Case:
    outputs = [workdir / f"{name}.{ext}" for ext in ("trace.csv", "norm.csv", "svg")]
    argv = [
        "run", str(problem), "--algorithm", algorithm,
        "--nodes", str(CLI_NODES), "--tol", repr(CLI_TOL),
        "--trace", str(outputs[0]), "--norm-out", str(outputs[1]), "--svg", str(outputs[2]),
    ]

    def solve():
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = cli.cli_main(argv)
        return code, text.getvalue()

    def inspect(raw) -> Outcome:
        code, text = raw
        files = [p.read_bytes() for p in outputs]
        match = _BRACKET.search(text)
        if match is None:
            raise ValueError(f"no bracket in cli output: {text!r}")
        lo, hi = float(match.group(1)), float(match.group(2))
        converged = code == 0 and "status: converged" in text.splitlines()
        return Outcome(_digest(code, text, *files), converged, [(lo, hi)], True,
                       len(files[0]) + len(files[1]))

    return Case(name, mats, solve, inspect)


def _build_cli_fine(seed: int, workdir: Path) -> list[Case]:
    cases = []
    for label, rows in (("ex1", EX1), ("ex2", EX2)):
        problem = workdir / f"{label}.json"
        problem.write_text(json.dumps({"label": label, "matrices": rows}))
        jio.parse_problem(problem.read_bytes())  # the input as the program reads it
        for algorithm in ("lr", "mr"):
            cases.append(_cli_case(f"{label}-{algorithm}", problem, algorithm, workdir,
                                   example_arrays(rows)))
    order = np.random.default_rng(seed).permutation(len(cases))
    return [cases[i] for i in order]


def _relax_outcome(res) -> Outcome:
    rows = tuple((r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam) for r in res.trace)
    digest = _digest(res.status, res.rho_lo, res.rho_hi, res.rho_mid,
                     res.norm.values.tobytes(), rows)
    return Outcome(digest, res.status == relax.STATUS_CONVERGED, [(res.rho_lo, res.rho_hi)], True)


def corpus() -> list[np.ndarray]:
    """The seed-independent families of relax_family, before rotation."""
    rng = np.random.default_rng(CORPUS_SEED)
    return [rng.uniform(-2.0, 2.0, size=(r, 2, 2)) for r, count in CORPUS for _ in range(count)]


def rotated(mats: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    q = np.array([[c, -s], [s, c]])
    return np.einsum("ij,ajk,lk->ail", q, mats, q)


def _build_relax_family(seed: int, workdir: Path) -> list[Case]:
    families = corpus()
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=len(families))
    cases = []
    for k, (base, angle) in enumerate(zip(families, angles)):
        mats = rotated(base, angle)
        family = jsrelax.MatrixSet(tuple(mats))
        for algorithm in ("lr", "mr"):
            cfg = relax.RelaxConfig(algorithm=algorithm, node_count=FAMILY_NODES, tol=FAMILY_TOL)
            cases.append(Case(
                f"r{len(mats)}-f{k}-{algorithm}", mats,
                lambda family=family, cfg=cfg: relax.run(family, cfg), _relax_outcome,
            ))
    return cases


def _sweep_case(name: str, mats: np.ndarray, depth: int) -> Case:
    family = jsrelax.MatrixSet(tuple(mats))

    def solve():
        rows = []
        for d in range(1, depth + 1):
            b = oracle.product_bounds(family, d)
            rows.append((b.lower, b.upper, oracle.trace_estimate(family, d)))
        return rows

    def inspect(rows) -> Outcome:
        return Outcome(_digest(rows), True, [(lo, hi) for lo, hi, _ in rows], False)

    return Case(name, mats, solve, inspect)


def _build_oracle_sweep(seed: int, workdir: Path) -> list[Case]:
    random_family = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(RANDOM_R, 2, 2))
    return [
        _sweep_case("ex1", example_arrays(EX1), EXAMPLE_DEPTH),
        _sweep_case("ex2", example_arrays(EX2), EXAMPLE_DEPTH),
        _sweep_case(f"r{RANDOM_R}", random_family, RANDOM_DEPTH),
    ]


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    """The workload's cases for this seed; files it needs go under workdir."""
    builders = {
        "cli_fine": _build_cli_fine,
        "relax_family": _build_relax_family,
        "oracle_sweep": _build_oracle_sweep,
    }
    return builders[workload](seed, workdir)
