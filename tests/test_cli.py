import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest

from jsrelax import MatrixSet, RelaxConfig, read_trace, run, write_trace
from jsrelax.cli import cli_main


EX1 = {"matrices": [[[1, 1], [0, 1]], [[1, 0], [-1, 1]]]}
EX2 = {"matrices": [
    [["15/17", "-16/17"], ["4/17", "15/17"]],
    [["4/5", "3/5"], ["-3/5", "4/5"]],
]}
REDUCIBLE = {"matrices": [[[2, 0], [0, 3]], [[1, 0], [0, 5]]]}
NILPOTENT = {"matrices": [[[0, 1], [0, 0]]]}
THREE_BY_THREE = {"matrices": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}


@pytest.fixture
def problem_file(tmp_path):
    def write(payload, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestRunCommand:
    def test_example1_converges_and_writes_outputs(self, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        norm = tmp_path / "norm.csv"
        svg = tmp_path / "sphere.svg"
        code = cli_main([
            "run", "--algorithm", "lr", "--lambda", "0.3", "--nodes", "3000",
            "--tol", "1e-3", "--trace", str(trace), "--norm-out", str(norm),
            "--svg", str(svg), problem_file(EX1),
        ])
        out = capsys.readouterr().out
        assert code == 0
        lo, hi = map(float, re.search(r"rho bracket: \[([^,]+), ([^\]]+)\]", out).groups())
        assert lo <= 1.389 <= hi or abs(0.5 * (lo + hi) - 1.389) < 2e-3
        assert trace.exists() and norm.exists() and svg.exists()

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_run_writes_nothing_past_redirected_streams(self, problem_file, tmp_path, capfd,
                                                        algorithm):
        # a caller that redirects sys.stdout and sys.stderr gets all the output:
        # none reaches file descriptors 1 and 2, and no warning is emitted
        outputs = [str(tmp_path / name) for name in ("trace.csv", "norm.csv", "sphere.svg")]
        text = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = cli_main([
                    "run", problem_file(EX2), "--algorithm", algorithm, "--nodes", "30000",
                    "--tol", "1e-6", "--trace", outputs[0], "--norm-out", outputs[1],
                    "--svg", outputs[2],
                ])
        assert code == 0
        assert capfd.readouterr() == ("", "")
        assert [str(w.message) for w in caught] == []
        assert text.getvalue().splitlines()[-2].startswith("rho bracket: [")

    @pytest.mark.parametrize("nodes, levels", [
        ("3000", None), ("16382", None), ("30000", r"levels: 1874:\d+ 7500:\d+ 30000:(\d+)"),
    ])
    def test_levels_line_follows_iterations_on_fine_grids(self, problem_file, capsys, nodes,
                                                            levels):
        code = cli_main(["run", "--nodes", nodes, "--tol", "1e-6", problem_file(EX1)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].startswith("status: ") and lines[1].startswith("iterations: ")
        if levels is None:
            assert not any(line.startswith("levels:") for line in lines)
        else:
            finest = re.fullmatch(levels, lines[2]).group(1)
            assert lines[1] == f"iterations: {finest}"

    def test_mr_algorithm(self, problem_file, capsys):
        code = cli_main(["run", "--algorithm", "mr", problem_file(EX2)])
        out = capsys.readouterr().out
        assert code == 0
        mid = float(re.search(r"rho midpoint: (\S+)", out).group(1))
        assert abs(mid - 1.192) < 2e-3

    def test_averaging_flag_is_a_usage_error(self, problem_file, capsys):
        # mr's scaling is the arithmetic mean of the bracket ends, with no choice
        code = cli_main(["run", "--algorithm", "mr", "--averaging", "geom", problem_file(EX2)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--averaging" in captured.err

    def test_reducible_rejected(self, problem_file, capsys):
        code = cli_main(["run", problem_file(REDUCIBLE)])
        assert code == 3
        assert "force" in capsys.readouterr().err

    def test_force_runs_to_cap(self, problem_file):
        code = cli_main(["run", "--force", "--max-iters", "15", "--nodes", "64",
                         problem_file(REDUCIBLE)])
        assert code == 2

    @pytest.mark.parametrize("algorithm", ["lr", "mr"])
    def test_forced_degenerate_image(self, problem_file, tmp_path, capsys, algorithm):
        trace = tmp_path / "trace.csv"
        code = cli_main(["run", "--force", "--algorithm", algorithm, "--nodes", "64",
                         "--trace", str(trace), problem_file(NILPOTENT)])
        assert code == 4
        assert "maps a grid direction to 0" in capsys.readouterr().err
        assert not trace.exists()

    def test_lambda_zero_runs_the_direct_iteration(self, problem_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code = cli_main(["run", "--lambda", "0", "--max-iters", "50", "--nodes", "512",
                         "--trace", str(trace), problem_file(EX1)])
        assert code in (0, 2)
        text = trace.read_text()
        meta, records = read_trace(text)
        assert meta["jsrelax-trace format-version"] == "3"
        assert meta["lambda_schedule"] == "0"
        assert not {"lambda_lo", "lambda_hi", "unsafe_direct", "averaging"} & set(meta)
        assert records and all(rec.lam == 0.0 for rec in records)
        assert all(row.endswith(",0") for row in text.splitlines()[-len(records):])
        # the same bytes as the library's trace of the same solve
        cfg = RelaxConfig(lambda_schedule=0.0, node_count=512, max_iters=50)
        sink = io.StringIO()
        write_trace(run(MatrixSet(([[1, 1], [0, 1]], [[1, 0], [-1, 1]])), cfg), sink)
        assert text == sink.getvalue()

    @pytest.mark.parametrize("value", ["1", "1.5", "-0.1", "nan"])
    def test_lambda_outside_zero_one_is_an_error(self, problem_file, capsys, value):
        code = cli_main(["run", f"--lambda={value}", "--nodes", "64", problem_file(EX1)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "outside [0, 1)" in captured.err

    @pytest.mark.parametrize("flag", [["--unsafe-direct"], ["--lambda-lo", "0.1"],
                                      ["--lambda-hi", "0.9"]], ids=lambda flag: flag[0])
    def test_removed_lambda_flags_are_usage_errors(self, problem_file, capsys, flag):
        assert cli_main(["run", *flag, "--nodes", "64", problem_file(EX1)]) == 1
        assert flag[0] in capsys.readouterr().err

    def test_custom_reference_vector(self, problem_file):
        code = cli_main(["run", "--e", "0,1", "--nodes", "64", problem_file(EX1)])
        assert code == 0

    def test_negative_reference_vector_in_equals_form(self, problem_file, capsys):
        # "--e -1,0" reads -1,0 as an option; central symmetry gives e and -e one norm
        args = ["run", "--nodes", "64", "--tol", "1e-8", problem_file(EX1)]
        assert cli_main([*args, "--e", "1,0"]) == 0
        plus = capsys.readouterr().out
        assert cli_main([*args, "--e=-1,0"]) == 0
        assert capsys.readouterr().out == plus

    def test_off_grid_reference_vector_fails(self, problem_file, capsys):
        code = cli_main(["run", "--e", "1,0.3", "--nodes", "64", problem_file(EX1)])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_overflowing_reference_images_are_an_error(self, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        fam = {"matrices": [[[2, -2], [1, 1]], [[1, 0], [0.5, 1]]]}
        code = cli_main(["run", "--force", "--nodes", "64", "--e", "1e308,1e308",
                         "--trace", str(trace), problem_file(fam)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: e = (1e+308, 1e+308)")
        assert not trace.exists()

    def test_subnormal_reference_vector_is_an_error(self, problem_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["run", "--nodes", "64", "--e", "5e-324,0",
                             "--trace", str(trace), problem_file(EX1)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: e = (5e-324, 0.0) is too short")
        assert not trace.exists()

    def test_missing_file(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli_main(["run", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_entry_that_overflows_a_double_is_an_error(self, problem_file, capsys):
        path = problem_file({"matrices": [[[1, 0], [0, 10 ** 400]]]})
        assert cli_main(["run", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: matrix 0, row 1, column 1: entry overflows a double")
        assert "Traceback" not in err

    def test_usage_error(self, capsys):
        assert cli_main(["run"]) == 1
        assert cli_main(["frobnicate"]) == 1


class TestOracleCommand:
    def test_table_is_sound(self, problem_file, capsys):
        code = cli_main(["oracle", "--max-depth", "8", problem_file(EX2)])
        out = capsys.readouterr().out
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if ln and ln[0].isdigit()]
        assert len(rows) == 8
        lowers = [float(r[1]) for r in rows]
        uppers = [float(r[2]) for r in rows]
        assert max(lowers) <= min(uppers) + 1e-9

    def test_each_depth_is_built_once(self, problem_file, capsys, product_levels):
        assert cli_main(["oracle", "--max-depth", "16", problem_file(EX1)]) == 0
        assert product_levels == [2 ** d for d in range(2, 17)]

    def test_depth_above_cap_prints_rows_before_it(self, problem_file, capsys):
        # 1025 members: depth 1 is within the default cap of 2^20, depth 2 is not
        mats = np.random.default_rng(5).integers(-3, 4, size=(1025, 2, 2)).tolist()
        code = cli_main(["oracle", "--max-depth", "3", problem_file({"matrices": mats})])
        captured = capsys.readouterr()
        assert code == 1
        rows = [ln for ln in captured.out.splitlines() if ln and ln[0].isdigit()]
        assert [r.split(",")[0] for r in rows] == ["1"]
        assert "depth 2" in captured.err

    def test_depth_above_cap_names_the_deepest_depth_that_fits(self, problem_file, capsys):
        # the library's remedy, "rerun with cap >= 2097152", names no flag of the CLI
        code = cli_main(["oracle", "--max-depth", "21", problem_file(EX1)])
        captured = capsys.readouterr()
        assert code == 1
        rows = [ln for ln in captured.out.splitlines() if ln and ln[0].isdigit()]
        assert [int(r.split(",")[0]) for r in rows] == list(range(1, 21))
        assert captured.err == (
            "error: depth 21 needs 2097152 products, above the cap of 1048576; "
            "use --max-depth 20 or less\n")

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_one_is_an_error(self, problem_file, capsys, depth):
        code = cli_main(["oracle", "--max-depth", depth, problem_file(EX1)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: depth must be >= 1, got {depth}\n"

    def test_roots_above_the_double_range_are_an_error(self, problem_file, capsys):
        # printed rows of inf after an ldexp overflow warning, and exited 0
        h = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["oracle", "--max-depth", "2",
                             problem_file({"matrices": [[[h, h], [h, h]]]})])
        captured = capsys.readouterr()
        assert code == 1
        assert not [ln for ln in captured.out.splitlines() if ln and ln[0].isdigit()]
        assert captured.err == (
            "error: a depth-1 value exceeds the double range; rescale the family\n")

    def test_nodes_flag_is_a_usage_error(self, problem_file, capsys):
        assert cli_main(["oracle", "--nodes", "512", problem_file(EX1)]) == 1
        assert "--nodes" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["oracle", "--max-depth", "3"], ["check"]])
def test_a_3x3_family_is_an_error_before_any_output(problem_file, capsys, command):
    # `check` printed "matrices: 1 (dim 3)" before failing
    code = cli_main([*command, problem_file(THREE_BY_THREE)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: matrix 0: expected a 2x2 matrix, a list of 2 rows\n"


class TestCheckCommand:
    @pytest.mark.parametrize("others, radii, verdict, exit_code", [
        ([], "inf", "no", 3),
        ([[[2, 0], [0, 2]]], "inf, 2", "no", 3),
        ([[[0, 1], [0, 0]]], "inf, 0", "yes", 0),
    ], ids=["alone", "with-2I", "with-nilpotent"])
    def test_radius_above_the_double_range_prints_inf(self, problem_file, capsys, others,
                                                      radii, verdict, exit_code):
        # spectral_radius raised OverflowError here, a traceback after the first line
        h = 1.7e308
        code = cli_main(["check", problem_file({"matrices": [[[h, h], [h, h]], *others]})])
        captured = capsys.readouterr()
        assert code == exit_code
        assert captured.out == (f"matrices: {1 + len(others)} (dim 2)\n"
                                f"member spectral radii: {radii}\nirreducible: {verdict}\n")
        assert captured.err == ""

    def test_irreducible_family(self, problem_file, capsys):
        code = cli_main(["check", problem_file(EX1)])
        assert code == 0
        assert "irreducible: yes" in capsys.readouterr().out

    def test_reducible_family(self, problem_file, capsys):
        code = cli_main(["check", problem_file(REDUCIBLE)])
        assert code == 3
        assert "irreducible: no" in capsys.readouterr().out
