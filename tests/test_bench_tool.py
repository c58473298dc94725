"""The timing loop of tools/bench.py, driven with fake trees of plain callables."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Clock:
    """A fake perf_counter that only the fake calls advance."""

    def __init__(self):
        self.now = 0.0
        self.log = []

    def __call__(self):
        return self.now

    def call(self, tag, seconds, output=None):
        """A call that logs tag and takes the next of seconds."""
        durations = iter(seconds)

        def run(*args):
            self.log.append(tag)
            self.now += next(durations)
            return output

        return run


@pytest.fixture
def clock(bench, monkeypatch):
    clock = Clock()
    monkeypatch.setattr(bench, "perf_counter", clock)
    # a round's time, so short that a fake call of a millisecond or more is timed once a round
    monkeypatch.setattr(bench, "ROUND_SECONDS", 1e-6)
    return clock


def test_first_tree_alternates_from_round_to_round(bench, clock):
    calls = {"f": {tag: bench.Call(clock.call(tag, [1.0] * 9)) for tag in ("parent", "change")}}
    bench.measure([({}, calls)], repeats=3)
    # the untimed first run on each tree, then per round an untimed and a timed call each
    assert clock.log == ["parent", "change",
                         "parent", "parent", "change", "change",
                         "change", "change", "parent", "parent",
                         "parent", "parent", "change", "change"]


def test_each_round_keeps_the_fastest_of_its_calls(bench, clock):
    # a first run of 1/2.5 of the round's time gives three calls a round;
    # per round: the untimed call, then three timed ones
    seconds = [bench.ROUND_SECONDS / 2.5, 9.0, 0.005, 0.002, 0.007, 9.0, 0.004, 0.009, 0.003]
    row = {}
    bench.measure([(row, {"f": {"change": bench.Call(clock.call("change", seconds))}})],
                  repeats=2)
    assert row["f"]["change"]["min_ms"] == pytest.approx(2.0)
    assert row["f"]["change"]["median_ms"] == pytest.approx(2.5)
    assert row["calls_per_round"] == {"f": 3}


def test_calls_per_round_follow_the_slowest_first_run_on_every_tree(bench, clock):
    # first runs of 1/10 and 1/3.5 of the round's time: four calls a round on
    # both trees; the key "g" is ten times slower and takes one
    short = {tag: bench.ROUND_SECONDS / d for tag, d in (("parent", 10.0), ("change", 3.5))}
    calls = {"f": {tag: bench.Call(clock.call(tag, [t] + [1e-3] * 5)) for tag, t in short.items()},
             "g": {tag: bench.Call(clock.call(f"g-{tag}", [10 * t] + [1e-3] * 2))
                   for tag, t in short.items()}}
    row = {}
    bench.measure([(row, calls)], repeats=1)
    assert row["calls_per_round"] == {"f": 4, "g": 1}
    assert [clock.log.count(tag) for tag in ("parent", "change")] == [6, 6]
    assert [clock.log.count(f"g-{tag}") for tag in ("parent", "change")] == [3, 3]


def test_calls_per_round_bounds(bench):
    assert bench.calls_per_round(1.0) == 1
    assert bench.calls_per_round(1.0, least=5) == 5
    assert bench.calls_per_round(bench.ROUND_SECONDS / 7.5) == 8
    assert bench.calls_per_round(0.0) == bench.calls_per_round(1e-12) == bench.MAX_CALLS_PER_ROUND
    assert bench.calls_per_round(0.0, most=1) == bench.calls_per_round(1.0, most=1) == 1


def test_prepare_is_not_timed(bench, clock):
    prepare = clock.call("prepare", [5.0] * 3)
    row = {}
    bench.measure([(row, {"f": {"change": bench.Call(clock.call("change", [0.001] * 3),
                                                     prepare=prepare)}})], repeats=1)
    assert clock.log == ["prepare", "change"] * 3
    assert row["f"]["change"]["min_ms"] == pytest.approx(1.0)


def test_outputs_that_differ_are_reported(bench, clock):
    def outputs(parent, change):
        return {"parent": bench.Call(clock.call("parent", [0.001] * 3, parent)),
                "change": bench.Call(clock.call("change", [0.001] * 3, change))}

    agree, disagree = {}, {}
    bench.measure([(agree, {"f": outputs("x", "x")}),
                   (disagree, {"f": outputs("x", "x"), "g": outputs("x", "y")})], repeats=1)
    assert agree["same_output"] is True
    assert disagree["same_output"] is False
    assert agree["same"] == {"f": True}
    assert disagree["same"] == {"f": True, "g": False}


def test_a_run_outcome_is_compared_field_by_field(bench, clock):
    # a run row's `same` says which outcome fields held: here only the norm moved
    base = {"max_iters": 9, "status": "converged", "iterations": 3, "levels": [[64, 3]],
            "rho_lo": 1.0, "rho_hi": 2.0, "norm": "aa", "trace": [(0, 1.0, 2.0, 1.5, None)]}
    moved = {**base, "norm": "bb"}
    row = {}
    bench.measure([(row, {"run": {"parent": bench.Call(clock.call("parent", [0.001] * 3, base)),
                                  "change": bench.Call(clock.call("change", [0.001] * 3, moved))}})],
                  repeats=1)
    assert row["same"] == {"run": {"status": True, "levels": True, "bracket": True,
                                   "trace": True, "norm": False}}
    assert row["same_output"] is False
    assert bench.line("runs", row, ["parent", "change"]).endswith(
        "same output False (run.norm differ)")


def test_change_over_parent_is_the_median_of_the_round_ratios(bench, clock):
    # rounds of ratio 1.5, 0.25 and 5/9: their median, not 3/4, the ratio of the medians
    parent = [1.0, 1.0, 0.002, 1.0, 0.004, 1.0, 0.009]
    change = [1.0, 1.0, 0.003, 1.0, 0.001, 1.0, 0.005]
    row = {}
    bench.measure([(row, {"f": {"parent": bench.Call(clock.call("parent", parent)),
                                "change": bench.Call(clock.call("change", change))}})],
                  repeats=3)
    assert row["f"]["parent"]["median_ms"] == pytest.approx(4.0)
    assert row["f"]["change"]["median_ms"] == pytest.approx(3.0)
    assert row["f"]["change_over_parent"] == pytest.approx(5 / 9)


def test_one_tree_has_no_ratio_and_no_output_check(bench, clock):
    row = {}
    got = bench.measure([(row, {"f": {"change": bench.Call(clock.call("change", [0.001] * 5),
                                                           output=lambda got: "out")}})],
                        repeats=2)
    assert sorted(row) == ["calls_per_round", "f"]
    assert sorted(row["f"]) == ["change"]
    assert sorted(row["f"]["change"]) == ["median_ms", "min_ms", "minflt"]
    assert got[0]["f"]["change"].output == "out"


def test_odd_node_count_is_refused(bench, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        bench.main(["--nodes", "9", "--out", str(tmp_path / "bench.json")])
    assert exit_.value.code == 2
    assert "even --nodes" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
