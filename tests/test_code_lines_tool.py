"""tools/code_lines.py counts code lines, not docstrings, comments or
blank lines, and refuses a tree that holds no package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools"
                                              / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code


def f(x):
    """One docstring line."""
    # a comment line
    return (math.floor(x)
            + 1)
'''


def test_counts_only_code_lines():
    # the import, the def and the two lines of the return statement
    assert code_lines.code_lines(SOURCE) == 4


def test_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "src" / "signedwiener"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == \
        "     4  a.py\n     2  b.py\n     6  total\n"


def test_refuses_a_tree_without_the_package(tmp_path, capsys):
    # an empty package, the source directory itself, or a typo
    (tmp_path / "src" / "signedwiener").mkdir(parents=True)
    for tree in (tmp_path, tmp_path / "src", tmp_path / "missing"):
        assert code_lines.main([str(tree)]) == 2
        out, err = capsys.readouterr()
        package = tree / "src" / "signedwiener"
        assert (out, err) == ("", f"code_lines.py: no package at {package}\n")
