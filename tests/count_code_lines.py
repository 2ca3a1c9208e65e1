"""Lines and code lines of each module in src/gradednn.

    python tests/count_code_lines.py

A code line holds at least one token that is neither a comment nor part of
a docstring: tokenize finds the comments and blank lines, and ast finds the
docstrings (the first statement of a module, class or function, when it is
a string).  Trimming prose or blank lines therefore changes the first count
and not the second.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gradednn"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(lines, code lines) of the Python file path."""
    text = path.read_text()
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(text.splitlines()), len(code)


def main() -> int:
    rows = sorted(((p.name,) + count(p) for p in SRC.glob("*.py")),
                  key=lambda r: (-r[1], r[0]))
    print("| module | lines | code |\n|---|---|---|")
    for name, lines, code in rows:
        print("| `%s` | %d | %d |" % (name, lines, code))
    print("| total | %d | %d |" % (sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
