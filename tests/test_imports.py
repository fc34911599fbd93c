"""No module imports a name it never uses, no private name in the
package goes unread, and no public name is kept alive by tests alone.

A stdlib ast pass over the package, tests, demos and tools: every name
an import binds must be read somewhere in its module (or listed in
__all__).  An import line carrying a `# noqa` comment is exempt.  A
second pass over the package alone: every private name a module binds
at top level must be read somewhere in the package.  A third: every
public def or class at the package's top level must be read by the
package, the benchmark, the tools or the demos.  A fourth: the package
turns text into an int only in graphs.parse_int, so no other function
calls int() or passes type=int, bar the named exceptions."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "demos", "tools")
               for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))
CALLERS = sorted(p for d in ("src", "perfbench", "tools", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa" not in lines[alias.lineno - 1] and \
                        "# noqa" not in lines[node.lineno - 1]:
                    bound.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return [(line, name) for line, name in bound if name not in used]


def test_detector():
    source = ("import os\nimport sys  # noqa\nfrom a import (\n"
              "    b,\n    c,\n)\nimport d.e\n\nprint(b, d)\n")
    assert unused_imports(source) == [(1, "os"), (5, "c")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each _name a module binds at top level by def,
    class or assignment; dunder names are not private."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(t.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.endswith("__")]


def names_read(source: str) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_private_detector():
    source = ("_used = 1\n_dead = 2\n__dunder__ = 3\n\n"
              "def _helper():\n    return _used\n\n"
              "class _Gone:\n    pass\n\nx = mod._helper\n")
    assert private_definitions(source) == [(1, "_used"), (2, "_dead"),
                                           (5, "_helper"), (8, "_Gone")]
    assert {"_used", "_helper"} <= names_read(source)
    assert not {"_dead", "_Gone"} & names_read(source)


def test_no_unread_private_names():
    sources = {path: path.read_text() for path in SRC}
    read = set().union(*(names_read(text) for text in sources.values()))
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, text in sources.items()
              for line, name in private_definitions(text)
              if name not in read]
    assert unread == []


def public_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each def or class a module binds at top level
    under a name without a leading underscore."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def test_public_detector():
    source = ("def shown():\n    pass\n\nclass Shown:\n    pass\n\n"
              "def _hidden():\n    pass\n\nvalue = 1\n")
    assert public_definitions(source) == [(1, "shown"), (4, "Shown")]


def test_every_public_name_has_a_caller():
    read = set().union(*(names_read(path.read_text()) for path in CALLERS))
    uncalled = [f"{path.relative_to(ROOT)}:{line} {name}"
                for path in SRC
                for line, name in public_definitions(path.read_text())
                if name not in read]
    assert uncalled == []


# the functions that may call int(): the one text rule, the key-value
# reader of tokens and list indices the renderer wrote, and a base-2
# bit reversal
INT_CALLERS = {("graphs", "parse_int"), ("reports", "parse_token"),
               ("reports", "_listify"), ("distances", "_mirror")}


def int_conversions(source: str) -> list[tuple[int, str]]:
    """(line, enclosing top-level function) for each int( call and each
    type=int keyword in the module."""
    out = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "int"
                    or any(k.arg == "type" and isinstance(k.value, ast.Name)
                           and k.value.id == "int" for k in node.keywords)):
                out.append((node.lineno, name))
    return out


def test_int_conversion_detector():
    source = ("x = int('1')\n\ndef f(p):\n    p.add(type=int)\n\n"
              "def g(t):\n    return [int(t), float(t)]\n")
    assert int_conversions(source) == [(1, "<module>"), (4, "f"), (7, "g")]


def test_text_becomes_an_int_only_in_parse_int():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in SRC
             for line, name in int_conversions(path.read_text())
             if (path.stem, name) not in INT_CALLERS]
    assert found == []
