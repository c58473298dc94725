import io as stringio
import json
import math

import numpy as np
import pytest

from jsrelax import (
    MatrixSet,
    ProblemFormatError,
    RelaxConfig,
    TraceFormatError,
    euclidean,
    parse_problem,
    read_norm,
    read_trace,
    run,
    write_norm,
    write_trace,
)


EX1_JSON = json.dumps({"matrices": [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]})
EX2_JSON = json.dumps({
    "label": "rationals",
    "matrices": [
        [["15/17", "-16/17"], ["4/17", "15/17"]],
        [["4/5", "3/5"], ["-3/5", "4/5"]],
    ],
})


class TestParseProblem:
    def test_integer_matrices(self):
        problem = parse_problem(EX1_JSON)
        assert problem.matrices.count == 2
        assert problem.matrices.matrices[0].entries.tolist() == [[1.0, 1.0], [0.0, 1.0]]
        assert problem.label is None

    def test_rational_entries(self):
        problem = parse_problem(EX2_JSON.encode())
        first = problem.matrices.matrices[0].entries
        assert first[0, 0] == 15 / 17
        assert first[0, 1] == -16 / 17
        assert problem.label == "rationals"

    def test_empty_matrix_list(self):
        with pytest.raises(ProblemFormatError):
            parse_problem(json.dumps({"matrices": []}))

    def test_ragged_rows_report_position(self):
        bad = json.dumps({"matrices": [[[1, 2], [3]]]})
        with pytest.raises(ProblemFormatError, match="matrix 0, row 1"):
            parse_problem(bad)

    def test_bad_entry_reports_position(self):
        bad = json.dumps({"matrices": [[[1, "x/y"], [0, 1]]]})
        with pytest.raises(ProblemFormatError, match="matrix 0, row 0, column 1"):
            parse_problem(bad)

    def test_zero_denominator(self):
        bad = json.dumps({"matrices": [[[1, "1/0"], [0, 1]]]})
        with pytest.raises(ProblemFormatError, match="denominator"):
            parse_problem(bad)

    def test_non_finite_rejected(self):
        bad = '{"matrices": [[[1, Infinity], [0, 1]]]}'
        with pytest.raises(ProblemFormatError, match="finite"):
            parse_problem(bad)

    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(ProblemFormatError, match="line"):
            parse_problem("{not json}")

    def test_missing_matrices_key(self):
        with pytest.raises(ProblemFormatError):
            parse_problem(json.dumps({"label": "no data"}))

    def test_boolean_entry_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_problem(json.dumps({"matrices": [[[1, True], [0, 1]]]}))


class TestTraceRoundTrip:
    def _result(self, example1, **kwargs):
        return run(example1, RelaxConfig(**kwargs))

    def test_single_record(self):
        fam = MatrixSet((2.0 * np.eye(2),))
        result = run(fam, RelaxConfig(node_count=64), force=True)
        sink = stringio.StringIO()
        write_trace(result, sink)
        text = sink.getvalue()
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert body[0] == "n,rho_minus,rho_plus,gamma,lambda"
        assert len(body) == 2

    def test_round_trip_bit_exact(self, example1):
        result = self._result(example1)
        sink = stringio.StringIO()
        write_trace(result, sink)
        meta, records = read_trace(sink.getvalue())
        assert meta["algorithm"] == "lr"
        assert meta["status"] == "converged"
        assert len(records) == len(result.trace)
        for got, want in zip(records, result.trace):
            assert got.n == want.n
            assert got.rho_minus == want.rho_minus
            assert got.rho_plus == want.rho_plus
            assert got.gamma == want.gamma
            assert got.lam == want.lam

    def test_round_trip_mr_blank_lambda(self, example1):
        result = self._result(example1, algorithm="mr")
        sink = stringio.StringIO()
        write_trace(result, sink)
        lines = sink.getvalue().splitlines()
        first_row = next(ln for ln in lines if ln[0].isdigit())
        assert first_row.endswith(",")
        _, records = read_trace(sink.getvalue())
        assert all(r.lam is None for r in records)

    def test_converged_trace_final_gap(self, example1):
        result = self._result(example1)
        sink = stringio.StringIO()
        write_trace(result, sink)
        _, records = read_trace(sink.getvalue())
        assert records[-1].rho_plus - records[-1].rho_minus <= 2e-3

    def test_deterministic_bytes(self, example1):
        a, b = stringio.StringIO(), stringio.StringIO()
        write_trace(self._result(example1), a)
        write_trace(self._result(example1), b)
        assert a.getvalue() == b.getvalue()

    def test_lf_endings_only(self, example1):
        sink = stringio.StringIO()
        write_trace(self._result(example1), sink)
        assert "\r" not in sink.getvalue()

    def test_read_rejects_gap_violation(self):
        text = "n,rho_minus,rho_plus,gamma,lambda\n0,2,1,1.5,0.3\n"
        with pytest.raises(TraceFormatError):
            read_trace(text)

    def test_read_rejects_gamma_outside(self):
        text = "n,rho_minus,rho_plus,gamma,lambda\n0,1,2,9,0.3\n"
        with pytest.raises(TraceFormatError):
            read_trace(text)

    def test_read_rejects_non_contiguous(self):
        text = "n,rho_minus,rho_plus,gamma,lambda\n0,1,2,1.5,\n2,1,2,1.5,\n"
        with pytest.raises(TraceFormatError, match="contiguous"):
            read_trace(text)

    def test_read_rejects_missing_header(self):
        with pytest.raises(TraceFormatError):
            read_trace("0,1,2,1.5,\n")

    def test_sequence_schedule_recorded(self, example1):
        result = run(example1, RelaxConfig(lambda_schedule=[0.2, 0.3, 0.5]))
        sink = stringio.StringIO()
        write_trace(result, sink)
        meta, records = read_trace(sink.getvalue())
        assert meta["lambda_schedule"].count(";") == 2
        assert records[0].lam == 0.2 and records[2].lam == 0.5


class TestNormCsv:
    def test_header_and_row_count(self):
        sink = stringio.BytesIO()
        write_norm(euclidean(64), sink)
        lines = sink.getvalue().decode().splitlines()
        assert lines[0] == "phi,h"
        assert len(lines) == 65

    def test_angles_ascend_from_minus_pi(self):
        sink = stringio.BytesIO()
        write_norm(euclidean(64), sink)
        rows = sink.getvalue().decode().splitlines()[1:]
        angles = [float(r.split(",")[0]) for r in rows]
        assert angles[0] == -math.pi
        assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_round_trip_bit_exact(self, example1):
        result = run(example1, RelaxConfig())
        sink = stringio.BytesIO()
        write_norm(result.norm, sink)
        back = read_norm(sink.getvalue().decode())
        assert bool(np.all(back.values == result.norm.values))

    def test_read_rejects_wrong_grid(self):
        nm = euclidean(64)
        sink = stringio.BytesIO()
        write_norm(nm, sink)
        mangled = sink.getvalue().decode().replace("phi,h", "phi,h").splitlines()
        # shift one angle off the uniform grid
        parts = mangled[5].split(",")
        mangled[5] = f"{float(parts[0]) + 0.01},{parts[1]}"
        with pytest.raises(TraceFormatError, match="grid"):
            read_norm("\n".join(mangled) + "\n")

    def test_read_rejects_bad_header(self):
        with pytest.raises(TraceFormatError):
            read_norm("a,b\n0,1\n")
