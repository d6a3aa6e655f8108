"""Count the physical and code lines of each module of a driftnet source tree.

A code line holds at least one token that is neither a comment nor part
of a docstring, so blank lines, comment lines and docstrings do not
count. Docstrings, the string literals that open a module, class or
function body, are found with ``ast``; every other token with
``tokenize``.

    python3 tools/src_lines.py              # this checkout's src/driftnet
    python3 tools/src_lines.py OTHER/src/driftnet
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "driftnet"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    total_physical = total_code = 0
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        physical, code = count_lines(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:<16}{physical:>10}{code:>8}")
    print(f"{'total':<16}{total_physical:>10}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
