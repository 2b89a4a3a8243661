"""Code-line counts of two source trees, file by file.

    python3 tools/codelines.py OLD_DIR NEW_DIR

A code line is a physical line that holds some Python token other than a
comment and is not part of a docstring (the leading string of a module,
class or function).  Blank lines, comment lines and docstrings are left
out; a line of a multi-line string that is not a docstring counts.  For
each ``.py`` file under either directory, by its path relative to that
directory, the report gives its count in OLD_DIR and NEW_DIR (``-`` where
the file is missing) and the delta, then both totals and the total delta.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts(root: Path) -> dict[str, int]:
    return {str(p.relative_to(root)): code_lines(p.read_text(encoding="utf-8"))
            for p in sorted(root.rglob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (counts(Path(d)) for d in argv)
    width = max(map(len, old.keys() | new.keys()), default=4)
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        delta = (b or 0) - (a or 0)
        print(f"{name:<{width}} {'-' if a is None else a:>6} {'-' if b is None else b:>6} {delta:>+6}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<{width}} {a:>6} {b:>6} {b - a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
