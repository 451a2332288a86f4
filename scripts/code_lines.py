"""Print the size of each ``src/tvclust`` module: ``wc -l`` lines and code lines.

After the package total comes the subtotal of the three core files,
``engine.py``, ``models.py`` and ``truncation.py``: the files whose code
lines ROADMAP aim 2 counts.

Code lines are the lines that are not blank, not a comment and not part of
a module, class or function docstring (found with ``ast``).  Deleting code
shrinks them; deleting docstrings or comments does not.

Usage: ``python scripts/code_lines.py`` (no options).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tvclust"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
CORE = ("engine.py", "models.py", "truncation.py")


def code_lines(text):
    """Number of lines of ``text`` that are code, not docstring or comment."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and i not in docs
    )


def main():
    total_wc = total_code = core_wc = core_code = 0
    print(f"{'module':<16} {'wc -l':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        if path.name in CORE:
            core_wc += wc
            core_code += code
        print(f"{path.name:<16} {wc:>6} {code:>6}")
    print(f"{'total':<16} {total_wc:>6} {total_code:>6}")
    print(f"{'core':<16} {core_wc:>6} {core_code:>6}  ({', '.join(CORE)})")


if __name__ == "__main__":
    main()
