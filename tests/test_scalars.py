import cmath
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly
from cybethe.qpoly import QPoly
from cybethe import scalars
from cybethe.scalars import Cyc, _cyc, _traces, cyclotomic_polynomial
from cybethe.serialize import parse_scalar, scalar_str

ORDERS = (1, 2, 3, 4, 8, 12)
# few small entries, so that independent draws are often equal
ENTRIES = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-1, 2),
                           F(3, 4)])


@st.composite
def cycs(draw, order=None):
    order = order or draw(st.sampled_from(ORDERS))
    size = len(cyclotomic_polynomial(order)) - 1
    return Cyc(order, tuple(draw(st.lists(ENTRIES, min_size=size,
                                          max_size=size))))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_sympy():
    # the Moebius product against sympy's as an oracle, including the
    # orders of rad M < M and the largest field `rational_sqrt` reaches
    sympy = pytest.importorskip("sympy")
    for order in [*range(1, 400), 2310, 3196]:
        want = sympy.cyclotomic_poly(order, polys=True).all_coeffs()
        assert cyclotomic_polynomial(order) == tuple(map(int, want[::-1])), \
            order


def test_root_relations():
    i = Cyc.root_of_unity(4)
    assert i * i == -1
    w = Cyc.root_of_unity(3)
    assert w ** 3 == 1
    assert w ** 2 + w + 1 == 0
    z8 = Cyc.root_of_unity(8)
    assert z8 ** 4 == -1


def test_rational_collapse():
    # M = 1 and M = 2 are one-dimensional: plain rationals
    assert Cyc.of(F(2, 3), 1).vec == (F(2, 3),)
    assert Cyc.root_of_unity(2).vec == (F(-1),)
    assert Cyc.root_of_unity(2).is_rational()


def test_inverse_and_division():
    w = Cyc.root_of_unity(5)
    x = 2 + 3 * w - w ** 3
    assert x * x.inverse() == 1
    assert (x / x) == 1
    y = w ** 2 - 1
    assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        Cyc.of(0).inverse()


def test_promotion_compatibility():
    # zeta_2 inside Q(zeta_4), zeta_3 inside Q(zeta_12)
    assert Cyc.root_of_unity(2).promote(4) == Cyc.of(-1)
    w3 = Cyc.root_of_unity(3)
    w12 = Cyc.root_of_unity(12)
    assert w3.promote(12) == w12 ** 4
    # mixed arithmetic promotes automatically
    assert w3 * w12 ** 4 == (w3 * w3).promote(12)


def test_hash_agrees_with_equality():
    w3, i = Cyc.root_of_unity(3), Cyc.root_of_unity(4)
    pairs = [(w3, w3.promote(6)), (i, i.promote(8)),
             (2 * w3 - F(1, 3), (2 * w3 - F(1, 3)).promote(12)),
             (Cyc.of(5), 5), (Cyc.of(F(-7, 3), 8), F(-7, 3))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert len({w3, w3.promote(6), w3.promote(12)}) == 1
    # quasi-polynomials hash their coefficients by value
    p = QPoly({F(1, 2): w3, F(2): i})
    q = QPoly({F(1, 2): w3.promote(6), F(2): i.promote(8)})
    assert p == q and hash(p) == hash(q)
    for c in (5, w3, Cyc.of(0)):
        assert QPoly.constant(c) == c and hash(QPoly.constant(c)) == hash(c)


def test_power_negative():
    w = Cyc.root_of_unity(7)
    assert w ** -1 == w ** 6
    assert (2 * w) ** -2 * (2 * w) ** 2 == 1


def test_str_forms():
    w = Cyc.root_of_unity(8)
    s = str(w ** 2 * F(3, 2) - 1)
    assert "w^2" in s and "3/2" in s
    assert str(Cyc.of(F(-7, 2))) == "-7/2"


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_field_laws(order, data):
    a, b, c = (data.draw(cycs(order)) for _ in range(3))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero() and a + Cyc.of(0, order) == a
    if not a.is_zero():
        assert a * a.inverse() == 1 and (b / a) * a == b


@settings(max_examples=100, deadline=None)
@given(a=cycs(), b=cycs())
def test_mixed_order_commutativity(a, b):
    assert a + b == b + a and a * b == b * a
    assert (a * b).order == (b * a).order == (a + b).order


@settings(max_examples=100, deadline=None)
@given(a=cycs(), b=cycs(), mult=st.sampled_from((1, 2, 3, 6)))
def test_hash_follows_equality(a, b, mult):
    up = a.promote(a.order * mult)
    assert up == a and hash(up) == hash(a)
    detour = a + b - b  # in the field of lcm(a.order, b.order)
    assert detour == a and hash(detour) == hash(a)
    if a == b:
        assert hash(a) == hash(b)
    if a.is_rational():
        q = a.as_fraction()
        assert a == q and hash(a) == hash(q)


@settings(max_examples=100, deadline=None)
@given(a=cycs())
def test_scalar_string_round_trip(a):
    back = parse_scalar(scalar_str(a, a.order), a.order)
    assert back == a and back.order == a.order


# --- the tuple-of-Fraction Cyc, kept as the reference ---------------------

def _frac_reduce(coeffs, M):
    phi = cyclotomic_polynomial(M)
    d = len(phi) - 1
    work = list(coeffs) + [F(0)] * max(0, d - len(coeffs))
    for k in range(len(work) - 1, d - 1, -1):
        c = work[k]
        if c:
            for j in range(d):
                work[k - d + j] -= c * phi[j]
        work[k] = F(0)
    return tuple(work[:d])


class _FracCyc:
    """Element of Q(zeta_M) as a tuple of deg Phi_M Fractions."""

    def __init__(self, order, vec):
        self.order = order
        self.vec = vec

    @staticmethod
    def of(value, order=1):
        if isinstance(value, _FracCyc):
            return value.promote(lcm(value.order, order))
        vec = [F(0)] * (len(cyclotomic_polynomial(order)) - 1)
        vec[0] = F(value)
        return _FracCyc(order, tuple(vec))

    def promote(self, L):
        if L == self.order:
            return self
        step = L // self.order
        coeffs = [F(0)] * ((len(self.vec) - 1) * step + 1)
        for k, c in enumerate(self.vec):
            coeffs[k * step] = c
        return _FracCyc(L, _frac_reduce(coeffs, L))

    def __bool__(self):
        return any(self.vec)

    def is_rational(self):
        return not any(self.vec[1:])

    def as_fraction(self):
        return self.vec[0]

    def _pair(self, other):
        if not isinstance(other, _FracCyc):
            other = _FracCyc.of(other)
        L = lcm(self.order, other.order)
        return self.promote(L), other.promote(L)

    def __add__(self, other):
        a, b = self._pair(other)
        return _FracCyc(a.order, tuple(x + y for x, y in zip(a.vec, b.vec)))

    __radd__ = __add__

    def __neg__(self):
        return _FracCyc(self.order, tuple(-x for x in self.vec))

    def __sub__(self, other):
        a, b = self._pair(other)
        return _FracCyc(a.order, tuple(x - y for x, y in zip(a.vec, b.vec)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return _FracCyc(self.order, tuple(x * F(other) for x in self.vec))
        a, b = self._pair(other)
        prod = [F(0)] * (2 * len(a.vec) - 1)
        for i, x in enumerate(a.vec):
            for j, y in enumerate(b.vec):
                prod[i + j] += x * y
        return _FracCyc(a.order, _frac_reduce(prod, a.order))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError
        if self.is_rational():
            return _FracCyc.of(1 / self.vec[0], self.order)
        r0 = [F(c) for c in cyclotomic_polynomial(self.order)]
        r1, s0, s1 = list(self.vec), [F(0)], [F(1)]

        def deg(p):
            return max((k for k, c in enumerate(p) if c), default=-1)

        while deg(r1) > 0:
            q = [F(0)] * (deg(r0) - deg(r1) + 1)
            rem = list(r0)
            while deg(rem) >= deg(r1):
                k = deg(rem) - deg(r1)
                c = rem[deg(rem)] / r1[deg(r1)]
                q[k] += c
                for j in range(deg(r1) + 1):
                    rem[k + j] -= c * r1[j]
            new_s = list(s0) + [F(0)] * max(0, len(q) + len(s1) - len(s0) - 1)
            for i, qc in enumerate(q):
                for j, sc in enumerate(s1):
                    new_s[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, rem, s1, new_s
        return _FracCyc(self.order,
                        _frac_reduce([c / r1[0] for c in s1], self.order))

    def __truediv__(self, other):
        if isinstance(other, (int, F)):
            return _FracCyc(self.order, tuple(x / F(other) for x in self.vec))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return _FracCyc.of(other, self.order) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _FracCyc.of(1, self.order)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.vec == b.vec

    def __hash__(self):
        trace = sum(q * t for q, t in zip(self.vec, _traces(self.order)))
        return hash(F(trace, len(self.vec)))

    def __complex__(self):
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(c) * z ** k for k, c in enumerate(self.vec))

    def __str__(self):
        if self.is_rational():
            return str(self.vec[0])
        parts = []
        for k in range(len(self.vec) - 1, -1, -1):
            c = self.vec[k]
            if not c:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mon = "w" if k == 1 else f"w^{k}"
                term = mon if abs(c) == 1 else f"{abs(c)}*{mon}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


SCALARS = st.sampled_from([0, 1, -2, 7, F(0), F(3, 4), F(-5, 2), F(1, 6)])


@st.composite
def operands(draw, order=None):
    """A Cyc of an order from ORDERS, the zero of that order a quarter of
    the time."""
    order = order or draw(st.sampled_from(ORDERS))
    if draw(st.integers(0, 3)) == 0:
        return Cyc.of(0, order)
    return draw(cycs(order))


def _same(new, old):
    """Identical to the reference: order, Fractions, string; canonical."""
    assert new.order == old.order
    assert new.vec == old.vec and all(type(x) is F for x in new.vec)
    assert str(new) == str(old)
    assert new.den > 0 and gcd(new.den, *new.num) == 1
    assert len(new.num) == len(cyclotomic_polynomial(new.order)) - 1


@settings(max_examples=300, deadline=None)
@given(a=operands(), uniform=st.booleans(), data=st.data(), q=SCALARS,
       n=st.integers(-3, 4), mult=st.sampled_from((1, 2, 3, 6)))
def test_matches_the_fraction_reference(a, uniform, data, q, n, mult):
    b = data.draw(operands(a.order if uniform else None))
    old_a, old_b = _FracCyc(a.order, a.vec), _FracCyc(b.order, b.vec)
    _same(a, old_a)
    _same(a + b, old_a + old_b)
    _same(a - b, old_a - old_b)
    _same(a * b, old_a * old_b)
    _same(-a, -old_a)
    _same(a + q, old_a + q)
    _same(q + a, q + old_a)
    _same(q - a, q - old_a)
    _same(a * q, old_a * q)
    _same(q * a, q * old_a)
    if q:
        _same(a / q, old_a / q)
    if b:
        _same(a / b, old_a / old_b)
        _same(b.inverse(), old_b.inverse())
        _same(q / b, q / old_b)
    if a or n >= 0:
        _same(a ** n, old_a ** n)
    L = lcm(a.order, b.order) * mult
    _same(a.promote(L), old_a.promote(L))
    assert (a == b) == (old_a == old_b)
    assert (a == q) == (old_a == q)
    assert hash(a) == hash(old_a)
    assert complex(a) == complex(old_a)
    assert a.is_rational() == old_a.is_rational()
    if a.is_rational():
        frac = a.as_fraction()
        assert frac == old_a.as_fraction() and type(frac) is F


@settings(max_examples=100, deadline=None)
@given(a=operands(), scale=st.sampled_from((1, 2, -3, F(1, 4), F(-6, 5))))
def test_constructor_round_trips_and_canonicalizes(a, scale):
    back = Cyc(a.order, a.vec)
    assert (back.order, back.num, back.den) == (a.order, a.num, a.den)
    # ints, Fractions and an unreduced common factor in the entries
    raw = Cyc(a.order, tuple(x * scale if k % 2 else F(x * scale)
                             for k, x in enumerate(a.vec)))
    _same(raw, _FracCyc(a.order, tuple(F(x) * scale for x in a.vec)))
    assert raw == a * scale


def test_division_by_zero_raises():
    w = Cyc.root_of_unity(8)
    for x in (Cyc.of(F(2, 3)), w + 1, Cyc.of(0, 3), Cyc.of(-1, 2)):
        for zero in (0, F(0), Cyc.of(0), Cyc.of(0, 12)):
            with pytest.raises(ZeroDivisionError):
                x / zero
    for zero in (Cyc.of(0), Cyc.of(0, 8)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            1 / zero
        with pytest.raises(ZeroDivisionError):
            zero ** -1
    for order, num in ((1, (3,)), (4, (1, 2)), (4, (0, 0))):
        with pytest.raises(ZeroDivisionError):
            _cyc(order, num, 0)
    # a negative denominator is moved into the numerators
    x = _cyc(4, (2, -4), -6)
    assert (x.num, x.den) == ((-1, 2), 3) and x == Cyc(4, (F(-1, 3), F(2, 3)))


def test_power_refuses_a_non_integer_exponent():
    # an exponent 3/2 once gave -1 for (-1) ** (3/2) and x + 1 for
    # (x + 1) ** (3/2); 7/2 escaped as an unrelated TypeError
    for base in (Cyc.of(-1), Cyc.root_of_unity(8), poly(1, 1)):
        for n in (F(3, 2), F(7, 2), F(2), 2.0):
            with pytest.raises(TypeError, match="non-integer power"):
                base ** n
    assert Cyc.of(-1) ** 3 == -1
    assert poly(1, 1) ** 2 == poly(1, 2, 1)


def _generic_reduce(coeffs, M):
    """Reduction modulo Phi_M through the table of w^k mod Phi_M, the path
    every order took before the degree-2 fields had a closed form."""
    d = len(cyclotomic_polynomial(M)) - 1
    out = list(coeffs[:d]) + [0] * (d - len(coeffs))
    for c, row in zip(coeffs[d:], scalars._rows(M, len(coeffs) - 1)):
        for j, x in row:
            out[j] += c * x
    return tuple(out)


BIG = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))


@settings(max_examples=300, deadline=None)
@given(M=st.sampled_from((3, 4, 6)), a=st.tuples(BIG, BIG),
       b=st.tuples(BIG, BIG), top=BIG)
def test_degree_two_fields_multiply_in_closed_form(M, a, b, top):
    want = _generic_reduce(scalars._poly_mul(a, b), M)
    assert scalars._product(a, b, M) == want
    assert scalars._reduce_mod_phi(scalars._poly_mul(a, b), M) == want
    assert scalars._reduce_mod_phi([*a, top], M) == \
        _generic_reduce([*a, top], M)


@settings(max_examples=200, deadline=None)
@given(M=st.sampled_from((3, 4, 6)), a=st.tuples(BIG, BIG),
       b=st.tuples(BIG, BIG), dens=st.tuples(st.integers(1, 10 ** 30),
                                             st.integers(1, 10 ** 30)))
def test_degree_two_products_and_inverses_match_the_reference(M, a, b, dens):
    x, y = _cyc(M, a, dens[0]), _cyc(M, b, dens[1])
    old_x, old_y = _FracCyc(M, x.vec), _FracCyc(M, y.vec)
    _same(x * y, old_x * old_y)
    _same(y * x, old_y * old_x)
    _same(x * x, old_x * old_x)
    if x:
        _same(x.inverse(), old_x.inverse())
        one = x * x.inverse()
        assert (one.order, one.num, one.den) == (M, (1, 0), 1)
        _same(y / x, old_y / old_x)
