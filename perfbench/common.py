"""Paths, source-tree import and statistics shared by the benchmark files.

The benchmark always measures the `cybethe` package under `src/` of the
checkout that contains this directory, never an installed copy.
"""

import hashlib
import os
import statistics
import sys
from math import lcm
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
# scratch space for request documents and trace files; listed in .gitignore
WORK = ROOT / ".perfbench_out"


def use_source_tree():
    """Put the checkout's `src/` first on sys.path; exit if it is missing."""
    if not (SRC / "cybethe" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cybethe source tree at {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_origin():
    """Exit unless `cybethe` was imported from the checkout's `src/`."""
    import cybethe
    origin = Path(cybethe.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"perfbench: cybethe imported from {origin}, "
                         f"not from {SRC}")


def child_env():
    """Environment for subprocesses that must import the same source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return statistics.median(values)


def tail(values, beyond=10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile) or (None, None) when there are too few
    samples for such a percentile to exist.
    """
    n = len(values)
    if n <= beyond:
        return None, None
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def coeff_bits(polys):
    """Largest numerator or denominator bit length over the coefficients."""
    bits = 0
    for p in polys:
        for c in p.terms.values():
            for q in c.vec:
                bits = max(bits, q.numerator.bit_length(),
                           q.denominator.bit_length())
    return bits


def field_order(polys):
    """Smallest cyclotomic order holding every coefficient's representation."""
    order = 1
    for p in polys:
        order = lcm(order, p.field_order())
    return order
