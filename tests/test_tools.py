"""The repository's line counter (tools/src_lines.py)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

MODULE = '''\
"""Module docstring,
two lines."""

# a comment
import math  # a trailing comment is still a code line

TEXT = """a string that is
not a docstring"""


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring."""
        return math.pi
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # code: import, the two lines of TEXT, class, def, return
    assert src_lines.count_lines(MODULE) == (16, 6)


def test_every_module_of_the_package_is_counted(capsys):
    assert src_lines.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines[1:-1]]
    assert names == sorted(p.name for p in src_lines.SRC.glob("*.py"))
    assert "evaluation.py" in names
    physical, code = (int(v) for v in lines[-1].split()[1:])
    assert physical > code > 0
