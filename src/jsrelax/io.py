"""Problem files, trace CSV, and norm CSV.

All writers emit deterministic bytes: 17-significant-digit decimals (enough
to round-trip doubles exactly), LF line endings, no timestamps.  The trace,
at most a few thousand numbers, is formatted one number at a time with
format(x, ".17g"); the norm CSV, two numbers per grid node, goes through the
decimal kernel in `_decimal`, which writes the same bytes as "%.17g" for
whole arrays at once, and goes to its binary sink block by block.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import BinaryIO, TextIO

import numpy as np

from .matrices import Matrix, MatrixSet
from .norms import AngularNorm
from .relax import IterationRecord, RelaxResult

__all__ = [
    "TRACE_FORMAT_VERSION",
    "ProblemFile",
    "ProblemFormatError",
    "TraceFormatError",
    "parse_problem",
    "write_trace",
    "read_trace",
    "write_norm",
    "read_norm",
]

TRACE_FORMAT_VERSION = 3

_TRACE_HEADER = "n,rho_minus,rho_plus,gamma,lambda"
_NORM_HEADER = "phi,h"


class ProblemFormatError(ValueError):
    """Malformed problem file; messages carry the offending position."""


class TraceFormatError(ValueError):
    """Malformed trace or norm CSV."""


@dataclass(frozen=True)
class ProblemFile:
    """A parsed matrix family plus its optional label."""

    matrices: MatrixSet
    label: str | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# one side of a rational string: an optional sign and ASCII digits, nothing else
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_entry(raw, where: str) -> float:
    if isinstance(raw, bool):
        raise ProblemFormatError(f"{where}: expected a number or 'p/q' string")
    if isinstance(raw, (int, float)):
        num, den = raw, 1
    elif isinstance(raw, str):
        parts = [part.strip() for part in raw.split("/")]
        if len(parts) != 2 or not all(_INTEGER.fullmatch(part) for part in parts):
            raise ProblemFormatError(f"{where}: cannot parse {raw!r} as a rational 'p/q'")
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError:  # more digits than int() converts
            raise ProblemFormatError(
                f"{where}: cannot parse {raw!r} as a rational 'p/q'"
            ) from None
        if den == 0:
            raise ProblemFormatError(f"{where}: zero denominator in {raw!r}")
    else:
        raise ProblemFormatError(f"{where}: expected a number or 'p/q' string")
    try:
        value = num / den  # the nearest double, 0.0 on underflow; x / 1 is x
    except OverflowError:
        raise ProblemFormatError(f"{where}: entry overflows a double") from None
    if not math.isfinite(value):
        raise ProblemFormatError(f"{where}: entry is not finite")
    return value


def parse_problem(text: bytes | str) -> ProblemFile:
    """Parse a JSON problem file: {"matrices": [...], "label": optional}.

    Each matrix is a list of 2 rows of 2 entries; any other shape is refused
    here, naming the matrix (and the row).  Entries are numbers or rational
    strings like "15/17" (converted by division to the nearest double).
    Errors name the matrix, row and column.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"not valid UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid syntax at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal past the int conversion limit
        raise ProblemFormatError(f"unreadable number: {exc}") from None
    if not isinstance(data, dict) or "matrices" not in data:
        raise ProblemFormatError("top level must be an object with a 'matrices' list")
    raw_mats = data["matrices"]
    if not isinstance(raw_mats, list) or not raw_mats:
        raise ProblemFormatError("'matrices' must be a nonempty list")
    mats = []
    for k, raw in enumerate(raw_mats):
        if not isinstance(raw, list) or len(raw) != 2:
            raise ProblemFormatError(f"matrix {k}: expected a 2x2 matrix, a list of 2 rows")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 2:
                raise ProblemFormatError(
                    f"matrix {k}, row {i}: expected 2 entries for a 2x2 matrix"
                )
            rows.append([
                _parse_entry(cell, f"matrix {k}, row {i}, column {j}")
                for j, cell in enumerate(row)
            ])
        mats.append(Matrix(rows))
    try:
        family = MatrixSet(tuple(mats))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ProblemFormatError("'label' must be a string")
    return ProblemFile(family, label)


def write_trace(result: RelaxResult, sink: TextIO) -> None:
    """Write the iteration trace as CSV with a '#' config header block.

    Version 2 of the format drops version 1's lambda_lo, lambda_hi and
    unsafe_direct header lines, and version 3 its averaging line, with
    lambda_schedule always one number; read_trace reads every version.
    """
    cfg = result.config
    lines = [
        f"# jsrelax-trace format-version={TRACE_FORMAT_VERSION}",
        f"# algorithm={cfg.algorithm}",
        f"# lambda_schedule={_fmt(cfg.lambda_schedule)}",
        f"# node_count={cfg.node_count}",
        f"# e={_fmt(cfg.e[0])},{_fmt(cfg.e[1])}",
        f"# tol={_fmt(cfg.tol)}",
        f"# max_iters={cfg.max_iters}",
        f"# initial_norm={'euclidean' if cfg.initial_norm is None else 'explicit'}",
        f"# status={result.status}",
        _TRACE_HEADER,
    ]
    for rec in result.trace:
        lam = "" if rec.lam is None else _fmt(rec.lam)
        lines.append(
            f"{rec.n},{_fmt(rec.rho_minus)},{_fmt(rec.rho_plus)},{_fmt(rec.gamma)},{lam}"
        )
    sink.write("\n".join(lines) + "\n")


def read_trace(text: str) -> tuple[dict[str, str], tuple[IterationRecord, ...]]:
    """Parse a trace CSV back into its header fields and iteration records.

    Re-validates the row invariants: n contiguous from 0, and
    rho_minus <= gamma <= rho_plus within 1e-9.
    """
    meta: dict[str, str] = {}
    rows: list[IterationRecord] = []
    seen_header = False
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not seen_header:
            if line != _TRACE_HEADER:
                raise TraceFormatError(f"expected header {_TRACE_HEADER!r}, got {line!r}")
            seen_header = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise TraceFormatError(f"expected 5 fields, got {len(parts)}: {line!r}")
        try:
            n = int(parts[0])
            lo, hi, gamma = (float(p) for p in parts[1:4])
            lam = None if parts[4] == "" else float(parts[4])
        except ValueError:
            raise TraceFormatError(f"unparseable row: {line!r}") from None
        if n != len(rows):
            raise TraceFormatError(f"rows must be contiguous from 0, got n={n} at row {len(rows)}")
        slack = 1e-9 * max(1.0, abs(hi))
        if not (lo <= hi + slack and lo - slack <= gamma <= hi + slack):
            raise TraceFormatError(
                f"row {n} violates rho_minus <= gamma <= rho_plus: {lo}, {gamma}, {hi}"
            )
        rows.append(IterationRecord(n, lo, hi, gamma, lam))
    if not seen_header:
        raise TraceFormatError("missing trace header row")
    return meta, tuple(rows)


def write_norm(nm: AngularNorm, sink: BinaryIO) -> None:
    """Write the radial profile as 'phi,h' CSV, angles ascending from -pi, as
    ASCII bytes to a binary sink (a file opened "wb", or io.BytesIO).

    The numbers are format(x, ".17g") of each angle and value, written by the
    decimal kernel in blocks of at most _decimal.BLOCK rows.  Each block of
    the lower half goes to the sink as it is made; the upper half's rows,
    made from the same value cells, wait for the lower half to end.
    """
    # imported here, not with the package: building its tables costs about
    # 1 MB of RSS, which a process that writes no norm or SVG need not pay
    from . import _decimal

    angles = nm.node_angles()
    half = nm.node_count // 2
    upper = nm.values[half:]  # bit-equal to the lower half, so formatted once for both
    sink.write(f"{_NORM_HEADER}\n".encode())
    later = []
    for rows in _decimal.blocks(half):
        h = _decimal.cells(upper[rows], "%.17g", b"\n")
        sink.write(_decimal.text(_decimal.cells(angles[:half][rows], "%.17g", b","), h))
        later.append(_decimal.text(_decimal.cells(angles[half:][rows], "%.17g", b","), h))
    for part in later:
        sink.write(part)


def read_norm(text: str) -> AngularNorm:
    """Parse a 'phi,h' CSV back into a profile, checking the angle grid."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _NORM_HEADER:
        raise TraceFormatError(f"expected header {_NORM_HEADER!r}")
    values = []
    angles = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise TraceFormatError(f"expected 2 fields, got {len(parts)}: {ln!r}")
        try:
            angles.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise TraceFormatError(f"unparseable row: {ln!r}") from None
    try:
        nm = AngularNorm(np.asarray(values))
    except ValueError as exc:
        raise TraceFormatError(str(exc)) from None
    expected = nm.node_angles()
    if not (np.abs(np.asarray(angles) - expected) <= 1e-9).all():  # refuses a NaN
        raise TraceFormatError("phi column does not match the uniform grid from -pi")
    return nm
