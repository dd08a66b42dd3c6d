import random
from collections import Counter
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import poly
from cybethe import linalg, qpoly, scalars
from cybethe.errors import (AmbiguousNormalization, BranchUndefined,
                            InexactDivision, NoSolution)
from cybethe.qpoly import (QPoly, divide_exact, is_squarefree, proportional,
                           qgcd, wronskian, wronskian_ode_solve,
                           wronskian_table)
from cybethe.scalars import Cyc, cyclotomic_polynomial
from oracles import RatQP, divided_wronskian


def test_arithmetic_basics():
    f = poly(1, 2) * poly(-1, 1)
    assert f == poly(-1, -1, 2)
    assert (f - f).is_zero()
    assert f.degree == 2
    assert QPoly.zero().degree is None
    half = QPoly.x_power(F(1, 2))
    assert (half * half) == QPoly.x_power(1)
    assert half.denom == 2 and poly(1, 1).denom == 1


def test_derivative_rule():
    f = QPoly.x_power(F(3, 2), 2) + poly(0, 0, 5)
    df = f.derivative()
    assert df == QPoly.x_power(F(1, 2), 3) + poly(0, 10)


def test_wronskian_examples():
    one, x = QPoly.one(), QPoly.x_power(1)
    assert wronskian([one, x]) == one
    assert wronskian([QPoly.x_power(2), QPoly.x_power(3)]) == QPoly.x_power(4)
    assert wronskian([QPoly.x_power(F(1, 2)), QPoly.x_power(F(3, 2))]) == x


def test_divided_wronskian():
    # k = 1: empty divisor product
    f = poly(3, 1)
    assert divided_wronskian([f], []) == f
    # multiply-back oracle with a fractional divisor
    u1, u2 = poly(-1, 0, 0, 1), QPoly.x_power(F(3, 2))
    tt = QPoly.x_power(F(1, 2))
    q = divided_wronskian([u1, u2], [tt])
    assert q * tt == wronskian([u1, u2])
    # inexact division is an error
    with pytest.raises(InexactDivision):
        divide_exact(poly(1, 1), poly(1, 1, 1))


def test_division_and_gcd():
    assert divide_exact(poly(-1, 0, 1), poly(-1, 1)) == poly(1, 1)
    assert qgcd(poly(-1, 0, 0, 1), poly(1, 0, 0, 1)).degree == 0
    assert qgcd(poly(-1, 0, 1), poly(-1, 1)) == poly(-1, 1)
    g = qgcd(poly(0, 2, 2), poly(0, 0, 3))
    assert g == poly(0, 1)  # common root at the origin
    assert is_squarefree(poly(-1, 0, 0, 1))
    assert not is_squarefree(poly(1, 2, 1))
    assert proportional(qgcd(poly(2, 2), poly(2, 2)), poly(1, 1))


def test_laurent_quotient_flagged():
    q = divide_exact(poly(1, 1), QPoly.x_power(2))
    assert not q.is_quasi()
    assert q == QPoly.x_power(-2) + QPoly.x_power(-1)


def test_ode_solve_antiderivative():
    one = QPoly.one()
    y, hom = wronskian_ode_solve(one, one, ("coeff_zero", 0))
    assert y == QPoly.x_power(1)
    assert hom == one
    y, _ = wronskian_ode_solve(one, QPoly.x_power(F(1, 2)), ("coeff_zero", 0))
    assert y == QPoly.x_power(F(3, 2), F(2, 3))


def test_ode_solve_recheck():
    f = poly(-1, 0, 0, 1)
    w = QPoly.x_power(F(1, 2)) * poly(1, 0, 0, 1)
    y, _ = wronskian_ode_solve(f, w, ("coeff_zero", 3))
    assert y.degree == F(3, 2)
    assert wronskian([f, y]) == w
    # solution set is particular + span(f): shifted member still solves
    assert wronskian([f, y + f.scale(7)]) == w


def test_ode_solve_holomorphic():
    one = QPoly.one()
    y, _ = wronskian_ode_solve(one, QPoly.x_power(F(1, 2)),
                               ("holomorphic_at_zero", F(3, 2)))
    assert y == QPoly.x_power(F(3, 2), F(2, 3))
    # pinning in the same class as f is ambiguous
    with pytest.raises(AmbiguousNormalization):
        wronskian_ode_solve(one, QPoly.x_power(2), ("holomorphic_at_zero", 1))


def test_ode_solve_errors():
    # Wr(x^2, Y) = x^3 forces the kernel exponent and is inconsistent
    f = QPoly.x_power(2)
    with pytest.raises(NoSolution):
        wronskian_ode_solve(f, QPoly.x_power(3), ("coeff_zero", 2))
    with pytest.raises(AmbiguousNormalization):
        # f has zero coefficient at the pinned exponent
        wronskian_ode_solve(poly(0, 1), poly(0, 0, 3), ("coeff_zero", 5))



def _dense_ode_solve(f, w_target, norm):
    """Reference: Wr(f, Y) = W as one dense linear system in the
    coefficients of Y, Gauss-Jordan through `linalg.solve` (free variables
    zero), then the pin and the exact check."""
    if f.is_zero():
        raise NoSolution("kernel function f must be nonzero")
    kind, pin = norm[0], F(norm[1])
    if w_target.is_zero():
        return QPoly.zero(), f
    D = lcm(f.denom, w_target.denom, pin.denominator)
    hi = max(w_target.degree - f.degree + 1, f.degree)
    if kind == "coeff_zero":
        support = [F(k, D) for k in range(int(hi * D) + 1)]
    else:
        if pin - pin.__floor__() in {e - e.__floor__() for e in f.terms}:
            raise AmbiguousNormalization("pinned class meets f")
        support = [pin + k for k in range(int(max(hi, pin) - pin) + 1)]
    out_exps = sorted({a + e - 1 for a in f.terms for e in support}
                      | set(w_target.terms))
    row_of = {e: i for i, e in enumerate(out_exps)}
    matrix = [[Cyc.of(0)] * len(support) for _ in out_exps]
    for j, e in enumerate(support):
        for a, ca in f.terms.items():
            if e - a:
                row = matrix[row_of[a + e - 1]]
                row[j] = row[j] + ca * (e - a)
    sol = linalg.solve(matrix, [w_target.coeff(e) for e in out_exps])
    if sol is None:
        raise NoSolution("Wr(f, Y) = W has no quasi-polynomial solution")
    particular = QPoly(dict(zip(support, sol)))
    if kind == "coeff_zero":
        fpin = f.coeff(pin)
        if fpin.is_zero():
            raise AmbiguousNormalization("f vanishes at the pin")
        particular = particular - f.scale(particular.coeff(pin) / fpin)
    assert f * particular.derivative() - f.derivative() * particular \
        == w_target
    return particular, f


def _ode_outcome(solve, f, w, norm):
    """Error type, or the terms in order with each value and its order."""
    try:
        y, hom = solve(f, w, norm)
    except (NoSolution, AmbiguousNormalization) as exc:
        return type(exc).__name__
    assert hom is f
    return [(e, c.order, c.vec) for e, c in y.terms.items()], str(y)


def _ode_rand_poly(rng, M, terms, top, denom=2):
    """Up to `terms` terms over Q(zeta_M) on exponents in (1/denom)Z."""
    w = Cyc.root_of_unity(M)
    out = {}
    for _ in range(rng.randint(1, terms)):
        c = Cyc.of(F(rng.randint(-3, 3), rng.choice((1, 2))), M)
        if M > 1:
            c = c + w * F(rng.randint(-3, 3), rng.choice((1, 2)))
        out[F(rng.randint(0, top), denom)] = c or Cyc.of(1, M)
    return QPoly(out)


def test_ode_solve_matches_dense_reference():
    """Same error, or the same terms, term order, coefficient orders and
    text, both for one field Q(zeta_M), M in {1, 3, 4}, per case and where
    f, Y and the extra term of W each take their own field.  Then the
    same over orders {8, 12}, over exponent denominators 3 and 6 with f
    and W of different D, and for an f whose leading coefficient is
    irrational, which the sweep solves as monic."""
    rng = random.Random(2015)
    seen = {}
    for case in range(400):
        mixed = case % 4 == 3
        M = rng.choice((1, 3, 4))
        fields = [rng.choice((1, 3, 4)) if mixed else M for _ in range(3)]
        f = _ode_rand_poly(rng, fields[0], 3, 6)
        w = wronskian([f, _ode_rand_poly(rng, fields[1], 3, 6)])
        if rng.random() < 0.4:  # usually inconsistent
            w = w + _ode_rand_poly(rng, fields[2], 1, 10)
        if rng.random() < 0.5:
            pin = rng.choice([*f.terms, F(rng.randint(0, 8), 2)])
            norm = ("coeff_zero", pin)
        else:
            norm = ("holomorphic_at_zero", F(rng.randint(0, 5), 2))
        want = _ode_outcome(_dense_ode_solve, f, w, norm)
        assert _ode_outcome(wronskian_ode_solve, f, w, norm) == want, \
            (f, w, norm)
        kind = want if isinstance(want, str) else "solved"
        seen[kind] = seen.get(kind, 0) + 1
    assert min(seen.get(k, 0) for k in ("solved", "NoSolution",
                                        "AmbiguousNormalization")) >= 40

    rng, seen = random.Random(38), Counter()
    for case in range(240):
        group = ("orders", "denominators", "non-monic")[case % 3]
        fields = [rng.choice((1, 3, 4, 8, 12) if group == "non-monic"
                             else (8, 12)) for _ in range(3)]
        # f, the second solution and the extra term of W on (1/D)Z
        dens = rng.choice(((3, 6, 2), (6, 3, 3), (2, 3, 6), (3, 3, 6))) \
            if group == "denominators" else (2, 2, 2)
        f = _ode_rand_poly(rng, fields[0], 3, 6, dens[0])
        if group == "non-monic":
            lead = Cyc.root_of_unity(fields[0]) * F(rng.choice((2, -3)), 5) \
                + rng.randint(-1, 1) if fields[0] > 2 else Cyc.of(F(-2, 3))
            f = f.monic().scale(lead)
            assert not f.is_monic()
        w = wronskian([f, _ode_rand_poly(rng, fields[1], 3, 6, dens[1])])
        if rng.random() < 0.3:
            w = w + _ode_rand_poly(rng, fields[2], 1, 10, dens[2])
        D = lcm(*dens)
        if rng.random() < 0.5:
            norm = ("coeff_zero", rng.choice([*f.terms,
                                              F(rng.randint(0, 8), D)]))
        else:
            norm = ("holomorphic_at_zero", F(rng.randint(0, 2 * D), D))
        want = _ode_outcome(_dense_ode_solve, f, w, norm)
        assert _ode_outcome(wronskian_ode_solve, f, w, norm) == want, \
            (f, w, norm)
        seen[group, want if isinstance(want, str) else "solved"] += 1
        if group == "denominators":
            seen["different D"] += f.denom != w.denom
        if group == "non-monic":
            seen["irrational lead"] += not f.leading_coeff().is_rational()
    assert min(seen[g, k] for g in ("orders", "denominators", "non-monic")
               for k in ("solved", "NoSolution",
                         "AmbiguousNormalization")) >= 10, seen
    assert seen["different D"] >= 40 and seen["irrational lead"] >= 40, seen


def test_ode_solve_keeps_the_field_of_f():
    # a rational leading coefficient of order 1 beside an order-2 term,
    # as the L = 2 step meets on the A4 catalog
    f = QPoly({F(3): Cyc.of(1), F(0): Cyc.of(-3, 2)})
    w = QPoly({F(7, 2): Cyc.of(1), F(1, 2): Cyc.of(3, 2)})
    norm = ("holomorphic_at_zero", F(3, 2))
    got = _ode_outcome(wronskian_ode_solve, f, w, norm)
    assert got == _ode_outcome(_dense_ode_solve, f, w, norm)
    assert got[0] == [(F(3, 2), 2, (F(-2, 3),))]


def test_ode_sweep_and_dense_reference_print_alike():
    # Y's coefficients have orders 3, 1 and 4; when they kept them, both
    # solvers returned Y, but its constant term i + 2 printed as "w + 2"
    # (order 4) from the dense solve and as "w^3 + 2" (order 12) from the
    # sweep
    i, w = Cyc.root_of_unity(4), Cyc.root_of_unity(3)
    f = QPoly({2: 2 - i, F(3, 2): i - 3})
    y = QPoly({2: w + 1, 1: Cyc.of(1), 0: i + 2})
    norm = ("coeff_zero", F(3, 2))
    target = wronskian([f, y])
    sweep, _ = wronskian_ode_solve(f, target, norm)
    dense, _ = _dense_ode_solve(f, target, norm)
    assert str(sweep) == str(dense)
    assert _ode_outcome(wronskian_ode_solve, f, target, norm) == \
        _ode_outcome(_dense_ode_solve, f, target, norm)
    assert {c.order for c in sweep.terms.values()} == {12}


def test_ode_solve_checks_before_pinning():
    # inconsistent W and a pin where f vanishes: the missing solution wins
    with pytest.raises(NoSolution, match="no quasi-polynomial solution"):
        wronskian_ode_solve(QPoly.x_power(2), QPoly.x_power(3),
                            ("coeff_zero", 5))


def test_ode_solve_coeff_zero_needs_quasi_f():
    # the pinned walk starts at x^0, so a Laurent f is refused, not
    # answered with a false NoSolution
    f = QPoly({F(-1): 1, F(1): 1})
    with pytest.raises(ValueError, match="negative exponents"):
        wronskian_ode_solve(f, wronskian([f, QPoly.x_power(1)]),
                            ("coeff_zero", 1))
    y, _ = wronskian_ode_solve(f, wronskian([f, QPoly.x_power(F(1, 2))]),
                               ("holomorphic_at_zero", F(1, 2)))
    assert y == QPoly.x_power(F(1, 2))

def _cofactor_wronskian(fs):
    """Reference: Wr(fs) by cofactor expansion down the first column,
    every minor recomputed."""
    rows = []
    for f in fs:
        row = [f]
        for _ in fs[1:]:
            row.append(row[-1].derivative())
        rows.append(row)
    return _det(rows)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = QPoly.zero()
    for i in range(n):
        if rows[i][0].is_zero():
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        term = rows[i][0] * _det(minor)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def _wr_outcome(w):
    """The terms of w by exponent, with each coefficient's order."""
    return sorted((e, c.order, c.vec) for e, c in w.terms.items())


def test_wronskian_table_matches_cofactor_reference():
    """Every subset Wronskian of the table, and `wronskian`, agree with the
    cofactor expansion in values, coefficient orders, key order and text,
    both when the family lies in one field Q(zeta_M), M in {1, 3, 4} and
    then M in {1, 2, 3, 4, 8}, and when its members take their own fields.
    Families mix in a zero, a constant and a repeated member (Wr = 0)."""
    rng = random.Random(1503)
    seen = {"zero": 0, "constant": 0, "repeat": 0, "mixed": 0, 5: 0}
    for case in range(480):
        n = case % 5 + 1
        mixed = case % 3 == 2
        orders = (1, 3, 4) if case < 240 else (1, 2, 3, 4, 8)
        M = rng.choice(orders)
        fs = [_ode_rand_poly(rng, rng.choice(orders) if mixed else M, 3, 6)
              for _ in range(n)]
        special = rng.choice(("zero", "constant", "repeat", None))
        if special and n > 1:
            k = rng.randrange(1, n)
            fs[k] = {"zero": QPoly.zero(),
                     "constant": QPoly.constant(fs[k].leading_coeff()),
                     "repeat": fs[rng.randrange(k)]}[special]
            seen[special] += 1
        seen["mixed"] += mixed
        seen[n] = seen.get(n, 0) + 1
        table = wronskian_table(fs)
        assert len(table) == 1 << n and table[0] == QPoly.one()
        for mask in range(1, 1 << n):
            subset = [f for i, f in enumerate(fs) if mask >> i & 1]
            ref = _cofactor_wronskian(subset)
            want = _wr_outcome(ref)
            assert _wr_outcome(table[mask]) == want, (fs, mask)
            assert [(type(e), e) for e in table[mask].terms] == \
                [(type(e), e) for e in ref.terms], (fs, mask)
            assert str(table[mask]) == str(ref), (fs, mask)
        assert _wr_outcome(wronskian(fs)) == want, fs
        if special == "repeat" and n > 1:
            assert wronskian(fs).is_zero()
    assert min(seen.values()) >= 30, seen
    with pytest.raises(ValueError):
        wronskian([])


def test_wronskian_table_builds_no_qpoly_product_or_sum(monkeypatch):
    """A table of 5 functions over Q, Q(zeta_2) and Q(zeta_8) runs no
    `QPoly.__mul__` or `QPoly.__add__` (as a sum of `__mul__` products it
    makes all 75 products of 5 functions), and builds no Cyc: derivatives
    and minors go from stored ints to stored ints."""
    rng = random.Random(37)
    fs = [_ode_rand_poly(rng, M, 3, 6) for M in (1, 2, 8, 2, 1)]
    want = wronskian_table(fs)
    calls = Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(QPoly, "__mul__", counted("mul", QPoly.__mul__))
    monkeypatch.setattr(QPoly, "__add__", counted("add", QPoly.__add__))
    for module in (scalars, qpoly):
        monkeypatch.setattr(module, "_cyc", counted("cyc", scalars._cyc))
    monkeypatch.setattr(Cyc, "__init__", counted("cyc", Cyc.__init__))
    table = wronskian_table(fs)
    assert calls == {}
    assert {w.field_order() for w in table} == {1, 2, 8}
    assert [str(w) for w in table] == [str(w) for w in want]


def test_wronskian_table_lifts_each_operand_once_per_order(monkeypatch):
    """Over Q, Q(zeta_2) and Q(zeta_8), each derivative and each minor is
    lifted to a field order at most once per table, and the table equals
    the expansion along the last derivative row as a sum of products."""
    rng = random.Random(37)
    fs = [_ode_rand_poly(rng, M, 3, 6) for M in (1, 2, 8, 2, 1)]
    derivs = [[f] for f in fs]
    for row in derivs:
        for _ in fs[1:]:
            row.append(row[-1].derivative())
    want = [QPoly.one()]
    for mask in range(1, 1 << len(fs)):
        members = [i for i in range(len(fs)) if mask >> i & 1]
        acc = QPoly.zero()
        for pos, i in enumerate(members):
            term = derivs[i][len(members) - 1] * want[mask ^ (1 << i)]
            acc = acc + (term if (len(members) - pos) % 2 else -term)
        want.append(acc)
    lifts = []
    lift = qpoly._lift_nums

    def recorded(nums, M, L):
        if M != L and L > 2:
            lifts.append((id(nums), L))
        return lift(nums, M, L)

    monkeypatch.setattr(qpoly, "_lift_nums", recorded)
    table = wronskian_table(fs)
    assert lifts and len(set(lifts)) == len(lifts)
    assert {w.field_order() for w in table} == {1, 2, 8}
    assert [(str(w), w.field_order()) for w in table] == \
        [(str(w), w.field_order()) for w in want]
    assert table == want


def test_substitute_and_negate():
    x = QPoly.x_power(1)
    assert x.substitute_scale(-1) == -x
    f = poly(1, 0, 0, 1)
    assert f.negate_argument() == poly(1, 0, 0, -1)
    half = QPoly.x_power(F(1, 2))
    assert half.negate_argument() == QPoly.x_power(F(1, 2),
                                                   Cyc.root_of_unity(4))
    # substitute_scale routes s = -1 through the fixed branch
    assert half.substitute_scale(-1) == half.negate_argument()
    with pytest.raises(BranchUndefined):
        half.substitute_scale(2)
    with pytest.raises(BranchUndefined):
        QPoly.x_power(F(1, 3)).negate_argument()


def test_negate_is_ring_hom():
    rng = random.Random(11)
    for _ in range(10):
        a = QPoly({F(k, 2): rng.randint(-3, 3) for k in range(5)})
        b = QPoly({F(k, 2): rng.randint(-3, 3) for k in range(4)})
        assert (a * b).negate_argument() == \
            a.negate_argument() * b.negate_argument()
        assert (a + b).negate_argument() == \
            a.negate_argument() + b.negate_argument()
    # double negation is the identity on integer exponents only
    p = poly(1, 2, 3)
    assert p.negate_argument().negate_argument() == p
    h = QPoly.x_power(F(1, 2))
    assert h.negate_argument().negate_argument() == -h


def test_ratqp():
    f = RatQP(poly(-1, 0, 1), poly(-1, 1))   # (x^2-1)/(x-1) = x+1
    assert f == RatQP(poly(1, 1))
    d = RatQP(poly(0, 1)).derivative()
    assert d == RatQP(poly(1))


# --- modular coprimality certificate ----------------------------------------

def _dense(f):
    return f._dense()[1]


def _exact_gcd_degree(f, g):
    """Degree of gcd(f, g) in s by the exact Euclidean reference path."""
    return len(qpoly._dense_gcd(_dense(f), _dense(g))) - 1


def _rand_scalar(rng, M):
    w = Cyc.root_of_unity(M)
    out = Cyc.of(F(rng.randint(-4, 4), rng.randint(1, 3)), M)
    for k in range(1, len(out.vec)):
        out = out + w ** k * F(rng.randint(-4, 4), rng.randint(1, 3))
    return out


def _rand_poly(rng, M, deg):
    """Degree deg, with nonzero constant and leading coefficients."""
    coeffs = [_rand_scalar(rng, M) for _ in range(deg + 1)]
    for k in (0, deg):
        coeffs[k] = coeffs[k] or Cyc.of(1, M)
    return poly(*coeffs)


def test_certificate_prime_and_root():
    for L in (1, 2, 3, 8, 24):
        p, powers = qpoly._cert_field(L)
        assert (p - 1) % L == 0 and p < 2 ** 61 and qpoly._is_prime(p)
        value = 0
        for c in reversed(cyclotomic_polynomial(L)):
            value = (value * powers[1 % L] + c) % p
        assert value == 0
    assert not qpoly._is_prime(2 ** 61 + 1) and qpoly._is_prime(2 ** 61 - 1)
    assert [n for n in range(40) if qpoly._is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_certificate_image_is_ring_map_across_orders():
    # zeta_3 beside zeta_6 and zeta_4 beside zeta_8: each order-m value maps
    # through r^(L/m), so sums and products commute with the image
    L = 24
    p, powers = qpoly._cert_field(L)
    values = [Cyc.root_of_unity(3), Cyc.root_of_unity(6, 5),
              Cyc.root_of_unity(4), Cyc.root_of_unity(8, 3) * F(2, 7) + F(1, 5),
              Cyc.root_of_unity(12, 7) - 3, Cyc.of(F(-3, 2))]

    def img(c):
        num = c.num[0] if c.order <= 2 else c.num
        return qpoly._image((c.order, c.den, [num]), L, p, powers)[0]

    for a in values:
        assert img(a.promote(L)) == img(a)
        for b in values:
            assert img(a * b) == img(a) * img(b) % p
            assert img(a + b) == (img(a) + img(b)) % p


@pytest.mark.parametrize("M", [1, 3, 8])
def test_certificate_against_sympy(M):
    sympy = pytest.importorskip("sympy")
    if M == 1:
        K, gen = sympy.QQ, sympy.QQ.one
    else:
        K = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / M))
        gen = K.from_sympy(sympy.exp(2 * sympy.pi * sympy.I / M))
    x = sympy.symbols("x")

    def to_sympy(f):
        coeffs = []
        for k in range(int(f.degree), -1, -1):
            c = f.coeff(k).promote(M)
            acc = K.zero
            for j, q in enumerate(c.vec):
                acc += K.convert(sympy.QQ(q.numerator, q.denominator)) \
                    * gen ** j
            coeffs.append(acc)
        return sympy.Poly(coeffs, x, domain=K)

    rng = random.Random(1000 + M)
    for trial in range(12):
        a = _rand_poly(rng, M, rng.randint(1, 3))
        b = _rand_poly(rng, M, rng.randint(1, 3))
        h = _rand_poly(rng, M, rng.randint(1, 2))
        # coprime as drawn, a built common factor, and a repeated root
        for f, g in ((a, b), (h * a, h * b), (h * h * a, b)):
            want = to_sympy(f).gcd(to_sympy(g)).degree()
            assert qgcd(f, g).degree == want
            assert _exact_gcd_degree(f, g) == want
            fs = to_sympy(f)
            assert is_squarefree(f) == (fs.degree() < 2
                                        or fs.discriminant() != 0)
        assert qgcd(h * a, h * b).degree >= h.degree
        assert not is_squarefree(h * h * a)


def test_certificate_mixed_orders():
    rng = random.Random(5)
    z3, z6 = Cyc.root_of_unity(3), Cyc.root_of_unity(6)
    i, z8 = Cyc.root_of_unity(4), Cyc.root_of_unity(8)
    for _ in range(6):
        f = poly(z3 * rng.randint(1, 3), z6, 1, z3 - z6 + 2)
        g = poly(i + rng.randint(1, 3), z8 ** 3, F(1, 2), i)
        h = poly(z6 * F(rng.randint(1, 5), 2), z8, 1)
        assert qgcd(f, g).degree == _exact_gcd_degree(f, g) == 0
        built = qgcd(h * f, h * g)
        assert built.degree == _exact_gcd_degree(h * f, h * g) >= 2
        assert divide_exact(h * f, built) * built == h * f
        assert is_squarefree(h * f)
        assert not is_squarefree(h * h * g)


def test_certificate_falls_back_when_the_prime_divides_input():
    p, _ = qpoly._cert_field(1)
    line = poly(-1, 1)
    # leading coefficient divisible by p: the image loses degree
    f = poly(1, 0, p)
    assert not qpoly._certified_coprime(_dense(f), _dense(line))
    assert qgcd(f, line).degree == 0
    assert qgcd(line * poly(1, p), line * poly(2, 1)) == line
    assert not qpoly._certified_coprime(_dense(poly(1, 2, p)))
    assert is_squarefree(poly(1, 2, p))
    assert not is_squarefree(poly(1, 2, 1).scale(p))
    # a denominator divisible by p
    f = poly(F(1, p), 1)
    assert not qpoly._certified_coprime(_dense(f), _dense(line))
    assert qgcd(f, line).degree == 0
    assert qgcd(f * line, line * line) == line
    # a common root mod p that is no common root over Q
    g = poly(-1 - p, 1)
    assert not qpoly._certified_coprime(_dense(line), _dense(g))
    assert qgcd(line, g).degree == 0
    # discriminant -4p: squarefree over Q, a double root mod p
    f = poly(1 + p, -2, 1)
    assert not qpoly._certified_coprime(_dense(f))
    assert is_squarefree(f)
    # the same in Q(zeta_3): p3 * zeta_3 maps to 0
    p3, _ = qpoly._cert_field(3)
    z3 = Cyc.root_of_unity(3)
    f = poly(1, z3, z3 * p3)
    assert not qpoly._certified_coprime(_dense(f), _dense(line))
    assert qgcd(f, line).degree == 0
    assert qgcd(f * line, line).degree == 1


@pytest.mark.parametrize("value", [
    poly(F(1, 2), -1, 3),
    Cyc.root_of_unity(3) + F(2, 3),
    Cyc.root_of_unity(8) * 2 - Cyc.root_of_unity(8, 3),
], ids=["qpoly", "cyc3", "cyc8"])
def test_power_squares_only_while_bits_remain(value, monkeypatch):
    cls = type(value)
    one = QPoly.one() if cls is QPoly else Cyc.of(1, value.order)
    want = one
    for n in range(6):
        assert value ** n == want, n
        want = want * value
    calls = []
    mul = cls.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    # from the first factor: no product by one
    for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        value ** n
        assert len(calls) == products, n


def test_equality_contract_with_foreign_operands():
    p = QPoly.one()
    assert not (p == None)  # noqa: E711
    assert p != None  # noqa: E711
    assert p != "x" and not (p == "x")
    assert None not in [p] and "x" not in [p]
    assert p in [1] and QPoly.constant(F(1, 2)) in [F(1, 2)]
    w = Cyc.root_of_unity(3)
    assert QPoly.constant(w) == w and QPoly.constant(w) != w + 1
    for c in (3, F(-2, 5), w, Cyc.of(F(1, 3))):
        assert hash(QPoly.constant(c)) == hash(c)
    assert hash(QPoly.zero()) == hash(0)
