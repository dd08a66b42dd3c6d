import random
from fractions import Fraction as F

import pytest

from conftest import written
from cybethe import linalg
from cybethe.scalars import Cyc, cyclotomic_polynomial


def _random_matrix(rng, rows, cols, rank=None):
    """Random rational matrix; with `rank`, a product of two thin factors."""
    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    if rank is None:
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(cols)] for i in range(rows)]


def _matvec(matrix, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in matrix]


def _shapes():
    rng = random.Random(11)
    cases = []
    for rows, cols in ((3, 3), (4, 4), (2, 5), (5, 2), (4, 3), (1, 1)):
        cases.append(_random_matrix(rng, rows, cols))
        low = max(0, min(rows, cols) - 1)
        cases.append(_random_matrix(rng, rows, cols, rank=low))
    cases.append([[F(0)] * 3 for _ in range(2)])
    return cases


@pytest.mark.parametrize("matrix", _shapes())
def test_linalg_against_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                         for x in row] for row in matrix])
    rng = random.Random(len(matrix) * 100 + len(matrix[0]))
    rows, cols = len(matrix), len(matrix[0])

    assert linalg.rank(matrix) == ref.rank()

    kernel = linalg.nullspace(matrix)
    assert len(kernel) == cols - ref.rank()
    for vec in kernel:
        assert _matvec(matrix, vec) == [0] * rows
    if kernel:
        span = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                              for x in vec] for vec in kernel]).T
        assert span.rank() == len(kernel)

    # consistent right-hand side: the image of a random vector
    x0 = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
    rhs = _matvec(matrix, x0)
    x = linalg.solve(matrix, rhs)
    assert x is not None and _matvec(matrix, x) == rhs

    # a right-hand side outside the column space is inconsistent
    if ref.rank() < rows:
        probe = next(e for e in (
            [F(int(i == k)) for i in range(rows)] for k in range(rows))
            if ref.row_join(sympy.Matrix(e)).rank() > ref.rank())
        assert linalg.solve(matrix, probe) is None

    inverse = linalg.invert(matrix) if rows == cols else None
    if rows == cols and ref.rank() == rows:
        want = ref.inv()
        assert [[sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in inverse] == want.tolist()
    elif rows == cols:
        assert inverse is None


def test_linalg_cyclotomic_entries():
    w = Cyc.root_of_unity(3)
    one, zero = Cyc.of(1), Cyc.of(0)
    matrix = [[one, w], [w ** 2, 2 * one]]
    # det = 2 - w^3 = 1
    inverse = linalg.invert(matrix)
    assert inverse == [[2 * one, -w], [-w ** 2, one]]
    x = linalg.solve(matrix, [one + w, w])
    assert [sum((a * b for a, b in zip(row, x)), zero)
            for row in matrix] == [one + w, w]

    singular = [[one, w], [w, w ** 2]]
    assert linalg.rank(singular) == 1
    assert linalg.invert(singular) is None
    (vec,) = linalg.nullspace(singular)
    assert vec[0] == -w and vec[1] == 1
    assert linalg.solve(singular, [one, zero]) is None


def _solve_alone(matrix, rhs):
    """Reference: one reduction of [matrix | rhs], as `solve` was written
    before `solve_many`."""
    cols = len(matrix[0]) if matrix else 0
    m, pivots = linalg._rref([list(row) + [b] for row, b in zip(matrix, rhs)],
                             cols)
    if any(row[-1] for row in m[len(pivots):]):
        return None
    x = [F(0)] * cols
    for row, c in zip(m, pivots):
        x[c] = row[-1]
    return x


def _exactly(x):
    """A solution with each entry's type, and order and vector for Cyc."""
    if x is None:
        return None
    return [(type(v), v.order, v.vec) if isinstance(v, Cyc) else (type(v), v)
            for v in x]


def test_solve_many_matches_one_solve_per_right_hand_side():
    """Same answers, entry types and Cyc orders as one reduction per right
    hand side, over Q and over mixed orders in Q(zeta_12), with consistent
    and inconsistent right-hand sides, and none at all."""
    rng = random.Random(12)
    outcomes = {True: 0, False: 0}
    units = [Cyc.of(1), Cyc.root_of_unity(3), Cyc.root_of_unity(4),
             Cyc.root_of_unity(12, 5)]
    for case in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        rank = rng.randint(0, min(rows, cols))
        matrix = _random_matrix(rng, rows, cols, rank=rank)
        if case % 2:
            matrix = [[x * rng.choice(units) for x in row] for row in matrix]
        rhss = []
        for _ in range(rng.randint(0, 4)):
            x0 = [F(rng.randint(-3, 3)) * rng.choice(units)
                  for _ in range(cols)]
            rhs = [sum((a * b for a, b in zip(row, x0)), Cyc.of(0))
                   for row in matrix]
            if rng.random() < 0.3:
                rhs[rng.randrange(rows)] += rng.choice(units)
            rhss.append(rhs)
        got = linalg.solve_many(matrix, rhss)
        assert [_exactly(x) for x in got] == \
            [_exactly(_solve_alone(matrix, rhs)) for rhs in rhss]
        for rhs, x in zip(rhss, got):
            assert _exactly(linalg.solve(matrix, rhs)) == _exactly(x)
            outcomes[x is None] += 1
    assert min(outcomes.values()) >= 10, outcomes
    assert linalg.solve_many([[F(1)]], []) == []


def _rref_with_every_product(rows, cols):
    """The reduction as it was before zero entries were skipped: a product
    (and a difference) on every entry of each row it updates."""
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
        inv = 1 / m[r][c] if not isinstance(m[r][c], Cyc) else \
            m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def test_rref_skipping_zero_entries_keeps_every_value_and_text():
    rng = random.Random(13)
    orders = (1, 2, 3, 4, 8)
    kept = 0
    for case in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        extra = rng.randint(0, 2)

        def entry():
            roll = rng.random()
            if roll < 0.45:  # zeros of every order, and rational zeros
                return rng.choice([F(0), *(Cyc.of(0, M) for M in orders)])
            if roll < 0.55:
                return F(rng.randint(-3, 3), rng.randint(1, 3))
            M = rng.choice(orders)
            return Cyc(M, [F(rng.randint(-2, 2), rng.randint(1, 2))
                           for _ in cyclotomic_polynomial(M)[1:]])
        matrix = [[entry() for _ in range(cols + extra)]
                  for _ in range(rows)]
        if case % 3 == 0:  # a dependent row
            k = rng.choice(orders)
            matrix.append([x * Cyc.root_of_unity(k) for x in matrix[0]])
        got, pivots = linalg._rref(matrix, cols)
        want, want_pivots = _rref_with_every_product(matrix, cols)
        assert pivots == want_pivots
        # the same values, and the same text as a section
        assert got == want and written(got) == written(want)
        kept += sum(1 for row in want for x in row if not x)
    assert kept > 500
