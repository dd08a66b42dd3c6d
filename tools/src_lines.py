"""Count the code lines of a Python source tree.

    python tools/src_lines.py [DIR]      # DIR defaults to src

A code line is a line that is not blank, not comment-only and not inside
a docstring (of a module, class or function).  Prints one line per module,
"<count> <path>", in path order, then "<total> total".
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree):
    """The line numbers covered by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    counts = {path: code_lines(path.read_text())
              for path in sorted(root.rglob("*.py"))}
    for path, count in counts.items():
        print(f"{count:6d} {path}")
    print(f"{sum(counts.values()):6d} total")


if __name__ == "__main__":
    main(sys.argv)
