"""Exact dense linear algebra over Q or Q(zeta_M).

Entries may be ints, Fractions, or Cyc scalars; Gaussian elimination only
uses field operations, so everything stays exact.  Every public function
reads the pivots of one reduction, `_rref`.  A row operation skips the
product at a zero entry of the pivot row and keeps the other entry, at
the field order the product would have given it.
"""

from fractions import Fraction
from math import lcm

from .scalars import Cyc


def _is_zero(x):
    if isinstance(x, Cyc):
        return x.is_zero()
    return x == 0


def _kept(x, *operands):
    """x - f * y or x * y where y = 0 (operands (f, y) or (y,)), without
    the product: x at the field order the result has, the lcm of the orders
    of its Cyc operands, which later steps read.  Without a Cyc operand the
    operation runs, for the numeric type it gives."""
    orders = [v.order for v in (x, *operands) if isinstance(v, Cyc)]
    if orders:
        return Cyc.of(x, lcm(*orders))
    return x - operands[0] * operands[1] if operands[1:] else x * operands[0]


def _rref(rows, cols):
    """Gauss-Jordan reduction pivoting on the first `cols` columns; later
    columns (right-hand sides) ride along.  Returns (reduced rows, pivot
    column of each leading row)."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if not _is_zero(m[i][c])),
                     None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c] if not isinstance(m[r][c], Cyc) else m[r][c].inverse()
        # a zero entry of the pivot row is kept, not multiplied
        m[r] = [x * inv if x else _kept(x, inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y if y else _kept(x, f, y)
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def solve(matrix, rhs):
    """One solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero.  `matrix` is a list of rows; it need
    not be square.
    """
    return solve_many(matrix, [rhs])[0]


def solve_many(matrix, rhss):
    """`solve` for each right-hand side in rhss, from one reduction.

    The right-hand sides ride along as extra columns.  Pivots read only
    the matrix columns, and each extra column sees the same row
    operations as alone, so every answer is exactly the one `solve` gives.
    """
    if not rhss:
        return []
    cols = len(matrix[0]) if matrix else 0
    m, pivots = _rref([list(row) + [b[i] for b in rhss]
                       for i, row in enumerate(matrix)], cols)
    out = []
    for k in range(cols, cols + len(rhss)):
        if any(not _is_zero(row[k]) for row in m[len(pivots):]):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for row, c in zip(m, pivots):
            x[c] = row[k]
        out.append(x)
    return out


def nullspace(matrix):
    """Basis of the kernel of `matrix` (list of coefficient vectors)."""
    cols = len(matrix[0]) if matrix else 0
    m, pivots = _rref(matrix, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def rank(matrix):
    return len(_rref(matrix, len(matrix[0]) if matrix else 0)[1])


def invert(matrix):
    """Exact inverse of a square matrix, or None if singular.

    One reduction of [A | I]; the right half is the inverse.
    """
    n = len(matrix)
    identity = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
    m, pivots = _rref([list(row) + e for row, e in zip(matrix, identity)], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in m]
