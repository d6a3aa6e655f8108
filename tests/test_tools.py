"""The repository's tools: the line counter and the in-process A/B loop."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = _load_tool("src_lines")
ab_loop = _load_tool("ab_loop")

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


@pytest.mark.parametrize("workload", ["quotes-ema", "period-hyperplane"])
def test_ab_loop_of_the_checkout_against_itself(capsys, workload):
    args = [str(ab_loop.SRC), "--workload", workload, "--length", "1500", "--chunk", "400",
            "--passes", "2"]
    assert ab_loop.main(args) == 0
    out = capsys.readouterr().out
    assert f"{workload} seed 1: 1500 instances x 2 passes, chunks of 400" in out
    assert "over 8 chunks" in out  # 4 chunks per pass, the last one short
    assert f"B ({ab_loop.SRC})" in out
    assert "(A and B are the same tree)" in out
    assert re.search(r"^  set-up: A \d+\.\d{3} s   B \d+\.\d{3} s   speedup \d+\.\d{3}x "
                     r"over 2 loads each$", out, re.MULTILINE)
    assert re.search(r"^  traced set-up: A peak \d+\.\d{3} MB, retained \d+\.\d{3} MB   "
                     r"B peak \d+\.\d{3} MB, retained \d+\.\d{3} MB$", out, re.MULTILINE)
    assert re.search(r"^  import after numpy, fresh process: A \+\d+\.\d{3} MB   "
                     r"B \+\d+\.\d{3} MB of peak RSS$", out, re.MULTILINE)
    assert "forecasts and drift logs identical" in out


def test_ab_loop_import_rss_counts_what_a_tree_holds_at_import(tmp_path):
    tree = tmp_path / "driftnet"
    shutil.copytree(ab_loop.SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    init = tree / "__init__.py"
    init.write_text(init.read_text(encoding="utf-8") + "\n_BALLAST = b'x' * (16 * 2**20)\n",
                    encoding="utf-8")
    plain = ab_loop.import_rss(ab_loop.SRC)
    assert 0 < plain < 12
    assert ab_loop.import_rss(tree) > plain + 15


def test_ab_loop_given_a_path_that_is_not_a_package_is_a_usage_error(tmp_path, capsys):
    for path in (ab_loop.ROOT, tmp_path / "missing"):
        with pytest.raises(SystemExit) as exc:
            ab_loop.main([str(path)])
        assert exc.value.code == 2
        assert f"{path} is not a package directory: it has no __init__.py" in capsys.readouterr().err


def test_ab_loop_refuses_trees_whose_forecasts_differ(tmp_path, capsys):
    tree = tmp_path / "driftnet"
    shutil.copytree(ab_loop.SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    ensembles = tree / "ensembles.py"
    text = ensembles.read_text(encoding="utf-8")
    assert text.count("return weighted / weight_total") == 1
    ensembles.write_text(text.replace("return weighted / weight_total",
                                      "return weighted / weight_total + 1e-9"), encoding="utf-8")
    args = [str(tree), "--length", "500", "--chunk", "250", "--passes", "1"]
    assert ab_loop.main(args) == 1
    assert "forecasts or drift logs differ" in capsys.readouterr().err


def test_ab_loop_refuses_trees_that_load_different_instances(tmp_path, capsys):
    tree = tmp_path / "driftnet"
    shutil.copytree(ab_loop.SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    streams = tree / "streams.py"
    text = streams.read_text(encoding="utf-8")
    assert text.count("table[:, target].copy()") == 1
    streams.write_text(text.replace("table[:, target].copy()", "(table[:, target] + 1.0)"), encoding="utf-8")
    args = [str(tree), "--length", "500", "--chunk", "250", "--passes", "1"]
    assert ab_loop.main(args) == 1
    assert "pass 1: the two trees load different instances" in capsys.readouterr().err
