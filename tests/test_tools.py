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
