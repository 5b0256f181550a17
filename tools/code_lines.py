"""Count the code lines of each module in src/bettikit and in tests, and their totals.

A code line is a line that holds part of a token other than a comment, a
docstring or layout (newlines and indentation).  A docstring is the string
that opens a module, class or function body.  A token spanning several
lines, such as a multi-line string, counts each line it spans.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in LAYOUT:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    for directory in ("src/bettikit", "tests"):
        print(f"{directory}/")
        total = 0
        for path in sorted((root / directory).glob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{path.name:20} {count:5}")
        print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
