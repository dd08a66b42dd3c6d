"""Count the code lines of a Python source tree, or compare two trees.

    python tools/src_lines.py [DIR]      # DIR defaults to src
    python tools/src_lines.py OLD NEW    # e.g. a parent's src and this src

A code line is a line that is not blank, not comment-only and not inside
a docstring (of a module, class or function).  With one tree, prints one
line per module, "<count> <path>", in path order, then "<total> total".
With two, prints "<old> <new> <new - old> <path>" per module, the path
relative to its tree, in path order over both trees, then the totals with
the label "total"; a module that is absent from a tree shows "-" there and
counts 0 in its difference.
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


def tree_counts(root):
    """{path: code lines} over the .py files of root, in path order."""
    return {path: code_lines(path.read_text())
            for path in sorted(Path(root).rglob("*.py"))}


def compare(old_root, new_root):
    old, new = ({path.relative_to(root): count
                 for path, count in tree_counts(root).items()}
                for root in (old_root, new_root))
    for path in sorted(old.keys() | new.keys()):
        before, after = old.get(path), new.get(path)
        print(f"{'-' if before is None else before:>6} "
              f"{'-' if after is None else after:>6} "
              f"{(after or 0) - (before or 0):+6d} {path}")
    total_old, total_new = sum(old.values()), sum(new.values())
    print(f"{total_old:6d} {total_new:6d} {total_new - total_old:+6d} total")


def main(argv):
    if len(argv) > 2:
        compare(argv[1], argv[2])
        return
    counts = tree_counts(argv[1] if len(argv) > 1 else "src")
    for path, count in counts.items():
        print(f"{count:6d} {path}")
    print(f"{sum(counts.values()):6d} total")


if __name__ == "__main__":
    main(sys.argv)
