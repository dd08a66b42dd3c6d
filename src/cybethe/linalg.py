"""Exact dense linear algebra over Q or Q(zeta_M).

Entries may be ints, Fractions, or Cyc scalars; Gaussian elimination only
uses field operations, so everything stays exact.  Every public function
reads the pivots of one reduction, `_rref`.  A row operation skips the
product at a zero entry of the pivot row and keeps the other entry as it
is.
"""

from fractions import Fraction

from .scalars import Cyc


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
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c] if not isinstance(m[r][c], Cyc) else m[r][c].inverse()
        # a zero entry of the pivot row is kept, not multiplied
        m[r] = [x * inv if x else x for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
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
        if any(row[k] for row in m[len(pivots):]):
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
