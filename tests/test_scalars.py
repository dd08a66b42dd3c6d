from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybethe.qpoly import QPoly
from cybethe.scalars import Cyc, cyclotomic_polynomial, primitive_root
from cybethe.errors import InputError
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


def test_primitivity_guard():
    with pytest.raises(InputError):
        primitive_root(4, 2)
    assert primitive_root(4, 3) ** 2 == -1


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
    back = parse_scalar(scalar_str(a), a.order)
    assert back == a and back.order == a.order
