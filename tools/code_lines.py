"""Count the code lines of each module of ``src/rpwf``.

A code line holds at least one token that is not a comment, a blank line
or a docstring: ``ast`` finds the docstrings (the leading string of a
module, class or function body) and ``tokenize`` drops comments and blank
lines.  Run from the repository root:

    python3 tools/code_lines.py [--against REV] [SRC_DIR]

It prints one row per module and the total.  With ``--against REV`` each
row has three columns: the count at the git revision REV (read through
``git show REV:path``), the count in the working tree, and the change.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Code lines of each module.")
    parser.add_argument("src", nargs="?", default="src/rpwf")
    parser.add_argument("--against", metavar="REV", help="also count each module at git revision REV")
    args = parser.parse_args(argv[1:])
    src = Path(args.src)
    now = {path.stem: code_lines(path.read_text()) for path in sorted(src.glob("*.py"))}
    if args.against is None:
        header, rows = None, {name: (n,) for name, n in now.items()}
    else:
        files = [f for f in _git("ls-tree", "--name-only", args.against, f"{src.as_posix()}/").split() if f.endswith(".py")]
        then = {Path(f).stem: code_lines(_git("show", f"{args.against}:{f}")) for f in files}
        header = (args.against, "tree", "change")
        rows = {name: (then.get(name, 0), now.get(name, 0), now.get(name, 0) - then.get(name, 0)) for name in sorted(then | now)}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    width = max(map(len, rows))
    if header:
        print(f"{'module':<{width}}" + "".join(f"  {h:>6}" for h in header))
    for name, cols in rows.items():
        print(f"{name:<{width}}" + "".join(f"  {c:+6d}" if i == 2 else f"  {c:6d}" for i, c in enumerate(cols)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
