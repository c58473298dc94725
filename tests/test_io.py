import io as stringio
import json
import math
import re

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

    @pytest.mark.parametrize("entry", [10 ** 400, -10 ** 309, "1" + "0" * 400 + "/3",
                                       "-1" + "0" * 309 + "/1", "1" + "0" * 400 + "/1" + "0" * 50],
                             ids=["int", "negative int", "p/q", "negative p/q", "quotient"])
    def test_an_entry_that_overflows_a_double_is_refused(self, entry):
        # each raised an uncaught OverflowError
        bad = json.dumps({"matrices": [[[1, 0], [0, 1]], [[1, 2], [3, entry]]]})
        with pytest.raises(ProblemFormatError, match="matrix 1, row 1, column 1: .*overflows"):
            parse_problem(bad)

    def test_a_rational_that_underflows_is_the_nearest_double(self):
        ok = json.dumps({"matrices": [[["1/1" + "0" * 400, "-3/1" + "0" * 330], [0, 1]]]})
        entries = parse_problem(ok).matrices.matrices[0].entries
        assert entries[0].tolist() == [0.0, -3e-330] and math.copysign(1.0, entries[0, 0]) == 1.0

    def test_syntax_error_reports_line_and_column(self):
        with pytest.raises(ProblemFormatError, match="line"):
            parse_problem("{not json}")

    def test_missing_matrices_key(self):
        with pytest.raises(ProblemFormatError):
            parse_problem(json.dumps({"label": "no data"}))

    def test_boolean_entry_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_problem(json.dumps({"matrices": [[[1, True], [0, 1]]]}))

    @pytest.mark.parametrize("matrix, where", [
        (np.eye(3).tolist(), "matrix 1: "),
        ([[1]], "matrix 1: "),
        ([], "matrix 1: "),
        ([[1, 0], [0, 1], [1, 1]], "matrix 1: "),
        ([[1, 0, 0], [0, 1, 0]], "matrix 1, row 0: "),
        ([[1, 0], [0, 1, 0]], "matrix 1, row 1: "),
        ([[1, 0], 5], "matrix 1, row 1: "),
        ("[[1, 0], [0, 1]]", "matrix 1: "),
    ], ids=["3x3", "1x1", "empty", "3x2", "2x3", "long row", "row not a list", "string"])
    def test_a_matrix_that_is_not_2x2_is_refused_with_its_position(self, matrix, where):
        bad = json.dumps({"matrices": [[[1, 0], [0, 1]], matrix]})
        with pytest.raises(ProblemFormatError, match=f"^{re.escape(where)}expected .*2x2"):
            parse_problem(bad)

    def test_an_integer_literal_past_the_conversion_limit_is_a_format_error(self):
        # json.loads raised a plain ValueError for more than 4300 digits
        bad = '{"matrices": [[[1' + "0" * 5000 + ", 0], [0, 1]]]}"
        with pytest.raises(ProblemFormatError, match="unreadable number"):
            parse_problem(bad)

    @pytest.mark.parametrize("entry", ["1_0/3", "1/1_0", "\u0967/2", "1/\u0662",
                                       "\uff11/2", "+-1/2", "1/", "/2", "1.5/2", "0x1/2",
                                       "1 0/3", "1/2/3", "--1/2"])
    def test_a_malformed_rational_is_refused(self, entry):
        # int() took underscores and non-ASCII digits: "1_0/3" read as 10/3
        bad = '{"matrices": [[[1, "%s"], [0, 1]]]}' % entry
        with pytest.raises(ProblemFormatError,
                           match="matrix 0, row 0, column 1: cannot parse .* as a rational"):
            parse_problem(bad)

    @pytest.mark.parametrize("entry, value", [
        ("-3/4", -0.75), ("+3/4", 0.75), (" 3 / -4 ", -0.75), ("007/+2", 3.5), ("-0/5", 0.0),
    ])
    def test_a_rational_takes_a_sign_ascii_digits_and_surrounding_spaces(self, entry, value):
        ok = json.dumps({"matrices": [[[1, entry], [0, 1]]]})
        got = parse_problem(ok).matrices.matrices[0].entries[0, 1]
        assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)


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


# a version-1 trace, as jsrelax run --nodes 64 --max-iters 3 wrote it for
# example 1, with the lambda_lo, lambda_hi and unsafe_direct lines of that version
TRACE_V1 = """\
# jsrelax-trace format-version=1
# algorithm=lr
# lambda_lo=0.050000000000000003
# lambda_hi=0.94999999999999996
# lambda_schedule=0.29999999999999999
# averaging=arithmetic
# node_count=64
# e=1,0
# tol=0.001
# max_iters=3
# initial_norm=euclidean
# unsafe_direct=false
# status=max_iters_reached
n,rho_minus,rho_plus,gamma,lambda
0,1.2566846596861734,1.6171645706896476,1.4142135623730951,0.29999999999999999
1,1.3038634263255726,1.5423839936740529,1.5310612497708611,0.29999999999999999
2,1.3377722907850287,1.4895108202707275,1.4811377957673986,0.29999999999999999
"""

# a version-2 trace, as run wrote it for example 1 with lambda_schedule=(0.1, 0.5),
# averaging="geometric", node_count=64 and max_iters=3, before version 3
# dropped the averaging line and the lambda sequences
TRACE_V2 = """\
# jsrelax-trace format-version=2
# algorithm=lr
# lambda_schedule=0.10000000000000001;0.5
# averaging=geometric
# node_count=64
# e=1,0
# tol=0.001
# max_iters=3
# initial_norm=euclidean
# status=max_iters_reached
n,rho_minus,rho_plus,gamma,lambda
0,1.257326569156588,1.6191148627021517,1.4142135623730949,0.10000000000000001
1,1.2880515858852621,1.5690708915691707,1.5658220312553277,0.5
2,1.3376796902998249,1.5140267256387943,1.4977870421298725,0.5
"""


class TestTraceVersions:
    def test_version_one_trace_reads_as_before(self):
        meta, records = read_trace(TRACE_V1)
        assert meta["jsrelax-trace format-version"] == "1"
        assert (meta["lambda_lo"], meta["lambda_hi"], meta["unsafe_direct"]) == (
            "0.050000000000000003", "0.94999999999999996", "false")
        assert [(r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam) for r in records] == [
            (0, 1.2566846596861734, 1.6171645706896476, 1.4142135623730951, 0.3),
            (1, 1.3038634263255726, 1.5423839936740529, 1.5310612497708611, 0.3),
            (2, 1.3377722907850287, 1.4895108202707275, 1.4811377957673986, 0.3),
        ]

    def test_version_two_trace_reads_as_before(self):
        meta, records = read_trace(TRACE_V2)
        assert meta["jsrelax-trace format-version"] == "2"
        assert meta["averaging"] == "geometric"
        assert meta["lambda_schedule"] == "0.10000000000000001;0.5"
        assert [(r.n, r.rho_minus, r.rho_plus, r.gamma, r.lam) for r in records] == [
            (0, 1.257326569156588, 1.6191148627021517, 1.4142135623730949, 0.1),
            (1, 1.2880515858852621, 1.5690708915691707, 1.5658220312553277, 0.5),
            (2, 1.3376796902998249, 1.5140267256387943, 1.4977870421298725, 0.5),
        ]

    def test_version_three_drops_only_the_removed_lines(self, example1):
        # this solve's version-3 header is the version-1 header without
        # version 1's lambda_lo, lambda_hi and unsafe_direct lines and version
        # 2's averaging line; its records are its own, since TRACE_V1 came
        # from a solve with the angle-linear profile that the star gauge replaced
        cfg = RelaxConfig(node_count=64, max_iters=3)
        result = run(example1, cfg)
        sink = stringio.StringIO()
        write_trace(result, sink)
        removed = ("# lambda_lo=", "# lambda_hi=", "# unsafe_direct=", "# averaging=")
        header = [line for line in TRACE_V1.splitlines(keepends=True)
                  if line.startswith("#") and not line.startswith(removed)]
        want = "".join(header).replace("version=1", "version=3")
        assert want == """\
# jsrelax-trace format-version=3
# algorithm=lr
# lambda_schedule=0.29999999999999999
# node_count=64
# e=1,0
# tol=0.001
# max_iters=3
# initial_norm=euclidean
# status=max_iters_reached
"""
        text = sink.getvalue()
        assert text[:len(want)] == want
        assert text[len(want):].splitlines()[0] == "n,rho_minus,rho_plus,gamma,lambda"
        assert read_trace(text)[1] == result.trace

    def test_a_direct_iteration_trace_round_trips(self, example1):
        result = run(example1, RelaxConfig(node_count=512, lambda_schedule=0.0, max_iters=20))
        sink = stringio.StringIO()
        write_trace(result, sink)
        meta, records = read_trace(sink.getvalue())
        assert meta["lambda_schedule"] == "0"
        assert records == result.trace and all(r.lam == 0.0 for r in records)


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

    def test_read_rejects_a_nan_angle(self):
        # a NaN compared False against the grid tolerance and was accepted
        sink = stringio.BytesIO()
        write_norm(euclidean(64), sink)
        lines = sink.getvalue().decode().splitlines()
        lines[5] = "nan," + lines[5].split(",")[1]
        with pytest.raises(TraceFormatError, match="grid"):
            read_norm("\n".join(lines) + "\n")

    def test_read_rejects_bad_header(self):
        with pytest.raises(TraceFormatError):
            read_norm("a,b\n0,1\n")
