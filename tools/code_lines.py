"""Code lines of each ``nablalg`` module and their total.

    python tools/code_lines.py [--src DIR]

A code line is a line that holds a token of code: blank lines, comment lines
and the lines of module, class and function docstrings do not count.  A line
of a multi-line expression or of a string that is not a docstring does.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {line for tok in tokens if tok.type not in LAYOUT
             for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory that holds the nablalg package")
    args = parser.parse_args()
    total = 0
    for path in sorted((args.src / "nablalg").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:>12} {count:6,}")
    print(f"{'total':>12} {total:6,}")


if __name__ == "__main__":
    main()
