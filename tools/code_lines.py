"""Count the code lines of the package in a source tree.

Run from anywhere, with the root of a checkout:

    python3 tools/code_lines.py TREE

It prints, for each module under TREE/src/signedwiener, its count of
code lines, then the total.  A code line holds at least one token that
is not a comment; blank lines, comment lines and the lines of
docstrings (the string that opens a module, class or function body)
do not count.  A statement that spans several lines counts each of
them.  A TREE whose package holds no module is refused with exit code
2 and one line naming the missing package.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: code_lines.py TREE", file=sys.stderr)
        return 2
    package = Path(argv[0]) / "src" / "signedwiener"
    modules = sorted(package.rglob("*.py"))
    if not modules:
        print(f"code_lines.py: no package at {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(package)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
