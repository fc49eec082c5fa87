import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code


class Box:
    """Class docstring."""

    # a comment alone

    def size(self):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return len(text)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string and the return.
    assert code_lines.code_lines(_SAMPLE) == 6


def test_code_lines_print_each_file_and_the_total(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    paths[0].write_text(_SAMPLE)
    paths[1].write_text("x = 1\n\n# end\n")
    code_lines.main([str(p) for p in paths])
    assert capsys.readouterr().out.split("\n") == [
        f"     6 {paths[0]}", f"     1 {paths[1]}", "     7 total", ""]


_STEP_COST_PATH = Path(__file__).resolve().parent.parent / "tools" / "step_cost.py"
_STEP_COST_SPEC = importlib.util.spec_from_file_location("step_cost", _STEP_COST_PATH)
step_cost = importlib.util.module_from_spec(_STEP_COST_SPEC)
_STEP_COST_SPEC.loader.exec_module(step_cost)


def test_step_cost_prints_one_row_per_grid_and_one_column_per_loss(capsys):
    step_cost.main(["--grids", "24x16", "--steps", "3", "--repeats", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| grid | ce | j | jc | bwm | dsc |", "|---|---|---|---|---|---|"]
    assert len(lines) == 3 and lines[2].startswith("| 24x16 (T(3), min of 1) | ")
    cells = lines[2].strip("| ").split(" | ")[1:]
    assert len(cells) == 5 and all(cell.endswith(("µs", "ms")) for cell in cells)
    step_cost.main(["--grids", "24x16", "--losses", "jc", "dsc", "--steps", "3", "--repeats", "1"])
    assert capsys.readouterr().out.splitlines()[0] == "| grid | jc | dsc |"


@pytest.mark.parametrize("flag", ["--steps", "--repeats"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_step_cost_refuses_run_lengths_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as stop:
        step_cost.main(["--grids", "24x16", flag, value])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # not even the table's header
    assert f"{flag} must be >= 1, got {value}" in captured.err


_BENCH_PAIRS_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_BENCH_PAIRS_SPEC = importlib.util.spec_from_file_location("bench_pairs", _BENCH_PAIRS_PATH)
bench_pairs = importlib.util.module_from_spec(_BENCH_PAIRS_SPEC)
_BENCH_PAIRS_SPEC.loader.exec_module(bench_pairs)


def test_bench_pairs_applies_the_pair_rule_to_fixed_numbers():
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # Exclusive quartiles of 10..19: 11.75 and 17.25.
    s = bench_pairs.summarize(parent, [9.0, 10, 11, 12, 13, 14, 15, 16, 17, 19], 0.5)
    assert (s["pairs"], s["wins"], s["ties"]) == (10, 9, 1)
    assert (s["parent_median"], s["change_median"]) == (14.5, 13.5)
    assert s["parent_quartiles"] == (11.75, 17.25) and s["parent_iqr"] == 5.5
    assert not s["gain"]  # 9 of 10 pairs, but the medians are 1 apart
    faster = [p - 6 for p in parent]
    assert bench_pairs.summarize(parent, faster, 0.5)["gain"]
    slower = bench_pairs.summarize(parent, faster, 0.5, lower_is_better=False)
    assert (slower["wins"], slower["gain"]) == (0, False)
    one_loss = faster[:9] + [parent[9] + 1]
    assert bench_pairs.summarize(parent, one_loss, 0.5)["wins"] == 9
    assert bench_pairs.summarize(parent, one_loss, 0.5)["gain"]
    two_losses = faster[:8] + [parent[8] + 1, parent[9] + 1]
    assert not bench_pairs.summarize(parent, two_losses, 0.5)["gain"]
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, parent[:9], 0.5)


_PARENT = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # median 104.5, distance 5.5


def test_bench_pairs_reports_worse_past_the_bound_of_the_parents_median():
    # A bound of 0.1 is 10.45 here; the change's median is 11 worse.
    s = bench_pairs.summarize(_PARENT, [p + 11 for p in _PARENT], 0.1)
    assert (s["limit"], s["worse"]) == (0.1 * 104.5, "worse")
    assert bench_pairs.summarize(_PARENT, [p + 10 for p in _PARENT], 0.1)["worse"] == "no"
    # Higher is better: 11 fewer ops per second are as bad.
    fewer = bench_pairs.summarize(_PARENT, [p - 11 for p in _PARENT], 0.1, lower_is_better=False)
    assert fewer["worse"] == "worse"
    # Worse beats the spread: a bound below the distance still reads worse.
    assert bench_pairs.summarize(_PARENT, [p + 11 for p in _PARENT], 0.01)["worse"] == "worse"


def test_bench_pairs_reports_unresolved_when_the_parent_spreads_past_the_bound():
    # A bound of 0.05 is 5.225, below the parent's distance of 5.5.
    s = bench_pairs.summarize(_PARENT, _PARENT, 0.05)
    assert s["limit"] < s["parent_iqr"] and s["worse"] == "unresolved"
    # Most change runs beat the parent's, but not every one beats every one.
    nearly = [p - 9 for p in _PARENT]
    assert bench_pairs.summarize(_PARENT, nearly, 0.05)["worse"] == "unresolved"


def test_bench_pairs_reports_no_when_neither_rule_holds():
    assert bench_pairs.summarize(_PARENT, [p + 5 for p in _PARENT], 0.06)["worse"] == "no"
    # The spread exceeds the bound, but every change run beats every parent run.
    better = [p - 10 for p in _PARENT]
    assert bench_pairs.summarize(_PARENT, better, 0.05)["worse"] == "no"
    more = bench_pairs.summarize(_PARENT, [p + 10 for p in _PARENT], 0.05, lower_is_better=False)
    assert more["worse"] == "no"


def _fake_checkout(root: Path, p50: float, rate: float, log: Path, failed: int = 0,
                   result: bool = True, end: str = "") -> Path:
    """A checkout that declares a lower-is-better and a higher-is-better
    metric, with bounds of 0.1 and 0.2, whose benchmark appends the
    checkout's name to ``log``, prints a line and then, when ``result``
    holds, its result: ``p50`` and ``rate`` for the two metrics, a metric
    it does not declare and ``failed`` ops.  The statement ``end`` runs
    last."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_p50_ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "better": "higher", "bound": 0.2}]}))
    metrics = {"op_p50_ms": {"value": p50}, "ops_per_s": {"value": rate},
               "grids.softmax.calls": {"value": 3}}
    line = {"correct": failed == 0, "failed": failed, "metrics": metrics}
    (root / "perfbench" / "run.py").write_text(
        f"with open({str(log)!r}, 'a') as f:\n    f.write({root.name!r})\n"
        f"print('a metric line')\n{f'print({json.dumps(line)!r})' if result else ''}\n{end}\n")
    return root


def test_bench_pairs_alternates_the_first_side_and_summarizes_every_metric(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent = _fake_checkout(tmp_path / "p", 10.0, 100.0, log)
    change = _fake_checkout(tmp_path / "c", 8.0, 90.0, log)
    # Bytecode no source matches, in each tree whose caches are renewed.
    stale = [root / top / "__pycache__" / "gone.cpython-311.pyc"
             for root in (parent, change) for top in ("src/pkg", "perfbench", "tools")]
    for path in stale:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"stale")
    bench_pairs.main([str(parent), str(change), "--workload", "segment", "--pairs", "2"])
    assert log.read_text() == "pccp"
    assert not any(path.exists() for path in stale)
    for root in (parent, change):  # and the sources are compiled anew
        cached = (root / "perfbench" / "__pycache__").iterdir()
        assert [path.name.split(".")[0] for path in cached] == ["run"]
    assert capsys.readouterr().out.splitlines() == [
        "pair 1 (parent first, parent / change): op_p50_ms 10 / 8, ops_per_s 100 / 90",
        "pair 2 (change first, parent / change): op_p50_ms 10 / 8, ops_per_s 100 / 90",
        "segment, 2 pairs; failed ops: parent 0, change 0",
        "op_p50_ms: change wins 2, 0 ties; medians: parent 10, change 8; "
        "parent quartiles 10 to 10, distance 0; gain claimable: yes; bound 1, worse: no",
        "ops_per_s: change wins 0, 0 ties; medians: parent 100, change 90; "
        "parent quartiles 100 to 100, distance 0; gain claimable: no; bound 20, worse: no",
    ]


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_refuses_fewer_than_two_pairs_before_it_runs(tmp_path, capsys, pairs):
    log = tmp_path / "order.log"
    parent = _fake_checkout(tmp_path / "p", 10.0, 100.0, log)
    change = _fake_checkout(tmp_path / "c", 8.0, 90.0, log)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(parent), str(change), "--workload", "segment", "--pairs", pairs])
    assert stop.value.code == 2
    assert f"--pairs must be >= 2, got {pairs}" in capsys.readouterr().err
    assert not log.exists()
    assert not any((root / "perfbench" / "__pycache__").exists() for root in (parent, change))


def test_bench_pairs_names_a_run_that_ends_without_its_result(tmp_path):
    log = tmp_path / "order.log"
    crashed = _fake_checkout(tmp_path / "crashed", 10.0, 100.0, log, result=False,
                             end="raise MemoryError('no room for the scene')")
    with pytest.raises(RuntimeError) as info:
        bench_pairs.run_once(crashed, "segment")
    message = str(info.value)
    assert message.startswith(f"{crashed}: the segment run exited 1 without its result")
    assert message.endswith("MemoryError: no room for the scene")
    # A run whose ops failed exits 1 but prints its result, which counts.
    failing = _fake_checkout(tmp_path / "failing", 10.0, 100.0, log, failed=2,
                             end="raise SystemExit(1)")
    values, failed = bench_pairs.run_once(failing, "segment")
    assert (values["op_p50_ms"], failed) == (10.0, 2)
