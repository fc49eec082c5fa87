import importlib.util
from pathlib import Path

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
