"""Count the code lines of each module of ``src/rpwf``.

A code line holds at least one token that is not a comment, a blank line
or a docstring: ``ast`` finds the docstrings (the leading string of a
module, class or function body) and ``tokenize`` drops comments and blank
lines.  Run from the repository root:

    python3 tools/code_lines.py [SRC_DIR]

It prints one row per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src/rpwf")
    counts = {path.stem: code_lines(path.read_text()) for path in sorted(src.glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
