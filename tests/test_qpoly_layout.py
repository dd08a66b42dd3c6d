"""Differential tests of the stored integer layout of QPoly.

`RefQPoly` is the earlier dict-of-Cyc quasi-polynomial: exponent keys as
ints or Fractions, one `Cyc` per term, and every operation built from Cyc
arithmetic.  Each operation of `QPoly` must agree with it in value, field
order, term order, key types, text and document bytes.  Products with a
monomial and divisions by one must also agree with the general
convolution kernel and with long division, the paths they took before
they became exponent shifts.
"""

from fractions import Fraction as F
from math import lcm

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from cybethe import qpoly
from cybethe.errors import (AmbiguousNormalization, BranchUndefined,
                            InexactDivision, NoSolution)
from cybethe.qpoly import (QPoly, divide_exact, is_squarefree, qgcd,
                           wronskian_ode_solve, wronskian_table)
from cybethe.scalars import ZERO, Cyc, cyclotomic_polynomial
from cybethe.serialize import dumps, qpoly_doc, qpoly_from_doc


def _exp(e):
    if type(e) is int:
        return e
    e = e if isinstance(e, F) else F(e)
    return e.numerator if e.denominator == 1 else e


def _exp_of(k, D):
    return k // D if k % D == 0 else F(k, D)


class RefQPoly:
    """The dict-of-Cyc quasi-polynomial: one Cyc per term, all of the lcm
    order of the nonzero coefficients, and a sum at the lcm order of its
    operands."""

    def __init__(self, terms):
        clean = {}
        for e, c in sorted(terms.items()):
            c = c if isinstance(c, Cyc) else Cyc.of(c)
            if not c.is_zero():
                clean[_exp(e)] = c
        L = lcm(*(c.order for c in clean.values()))
        self.terms = {e: c.promote(L) for e, c in clean.items()}

    @property
    def degree(self):
        return next(reversed(self.terms), None)

    @property
    def low_exponent(self):
        return next(iter(self.terms), None)

    @property
    def denom(self):
        return lcm(*(e.denominator for e in self.terms))

    def is_zero(self):
        return not self.terms

    def field_order(self):
        for c in self.terms.values():
            return c.order
        return 1

    def coeff(self, e):
        return self.terms.get(e, ZERO)

    def __add__(self, other):
        L = lcm(self.field_order(), other.field_order())
        out = {e: c.promote(L) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c.promote(L)
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return RefQPoly(out)

    def __neg__(self):
        return RefQPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                s = out.get(e1 + e2, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(e1 + e2, None)
                else:
                    out[e1 + e2] = s
        return RefQPoly(out)

    def scale(self, c):
        if c.is_zero():
            return RefQPoly({})
        return RefQPoly({e: v * c for e, v in self.terms.items()})

    def derivative(self):
        return RefQPoly({e - 1: c * e for e, c in self.terms.items()
                         if e != 0})

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.terms[self.degree].inverse())

    def substitute_scale(self, s):
        if any(e.denominator != 1 for e in self.terms):
            if s == Cyc.of(-1):
                return self.negate_argument()
            raise BranchUndefined("fractional support")
        return RefQPoly({e: c * s ** int(e) for e, c in self.terms.items()})

    def negate_argument(self):
        out = {}
        for e, c in self.terms.items():
            if e.denominator == 1:
                out[e] = c if int(e) % 2 == 0 else -c
            elif e.denominator == 2:
                i_unit = Cyc.root_of_unity(4, 1)
                half = e - F(1, 2)
                out[e] = c * (i_unit if int(half) % 2 == 0 else -i_unit)
            else:
                raise BranchUndefined(f"no branch fixed for exponent "
                                      f"denominator {e.denominator}")
        return RefQPoly(out)

    def _dense(self, D):
        low = self.low_exponent
        coeffs = [ZERO] * (int((self.degree - low) * D) + 1)
        for e, c in self.terms.items():
            coeffs[int((e - low) * D)] = c
        return low, coeffs

    def __eq__(self, other):
        return set(self.terms) == set(other.terms) and all(
            self.terms[e] == other.terms[e] for e in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in reversed(self.terms.items()):
            cs = str(c)
            needs_parens = ("+" in cs[1:] or "-" in cs[1:] or "w" in cs)
            if e == 0:
                bits.append(f"({cs})" if needs_parens else cs)
                continue
            xs = "x" if e == 1 else f"x^{e}"
            if cs == "1":
                bits.append(xs)
            elif cs == "-1":
                bits.append(f"-{xs}")
            else:
                bits.append((f"({cs})" if needs_parens else cs) + "*" + xs)
        return " + ".join(bits).replace("+ -", "- ")


def _ref_from_dense(low, coeffs, D):
    base = low.numerator * (D // low.denominator)
    return RefQPoly({_exp_of(base + k, D): c for k, c in enumerate(coeffs)})


def _ref_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    inv_lead = den[-1].inverse()
    q = [ZERO] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + dn] * inv_lead
        if not c.is_zero():
            q[k] = c
            for j, d in enumerate(den):
                num[k + j] = num[k + j] - c * d
    while num and num[-1].is_zero():
        num.pop()
    return q, num


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    inv = a[-1].inverse()
    return [c * inv for c in a]


def _ref_coprime(fc, gc=None):
    """The modular certificate on Cyc lists."""
    L = lcm(*(c.order for c in fc), *(c.order for c in gc or ()))
    p, powers = qpoly._cert_field(L)

    def image(cs):
        out = []
        for c in cs:
            if c.den % p == 0:
                return None
            step = L // c.order
            acc = sum(x * powers[k * step] for k, x in enumerate(c.num) if x)
            out.append(acc * pow(c.den, -1, p) % p)
        return out
    a = image(fc)
    if a is None or not a[-1]:
        return False
    b = [k * x % p for k, x in enumerate(a)][1:] if gc is None else image(gc)
    if b is None or not b[-1]:
        return False
    return qpoly._fp_coprime(a, b, p)


def ref_divide_exact(f, g):
    if f.is_zero():
        return RefQPoly({})
    D = lcm(f.denom, g.denom)
    flow, fc = f._dense(D)
    glow, gc = g._dense(D)
    q, r = _ref_divmod(fc, gc)
    if r:
        raise InexactDivision(f"({f}) is not divisible by ({g})")
    return _ref_from_dense(flow - glow, q, D)


def ref_qgcd(f, g):
    if f.is_zero():
        return g.monic() if not g.is_zero() else RefQPoly({0: 1})
    if g.is_zero():
        return f.monic()
    D = lcm(f.denom, g.denom)
    flow, fc = f._dense(D)
    glow, gc = g._dense(D)
    shared = min(flow, glow)
    lowpow = RefQPoly({shared: 1})
    if _ref_coprime(fc, gc):
        return lowpow
    return (_ref_from_dense(0, _ref_gcd(fc, gc), D) * lowpow).monic()


def ref_is_squarefree(f):
    if f.is_zero():
        return False
    _, fc = f._dense(f.denom)
    if len(fc) <= 1 or _ref_coprime(fc):
        return True
    return len(_ref_gcd(fc, [fc[k] * k for k in range(1, len(fc))])) == 1


def ref_wronskian_table(fs):
    """The same expansion along the last derivative row, as a sum of
    products."""
    derivs = [[f] for f in fs]
    for row in derivs:
        for _ in fs[1:]:
            row.append(row[-1].derivative())
    table = [RefQPoly({0: 1})]
    for mask in range(1, 1 << len(fs)):
        members = [i for i in range(len(fs)) if mask >> i & 1]
        acc = RefQPoly({})
        for pos, i in enumerate(members):
            term = derivs[i][len(members) - 1] * table[mask ^ (1 << i)]
            acc = acc + (term if (len(members) - pos) % 2 else -term)
        table.append(acc)
    return table


def ref_ode_solve(f, w_target, norm):
    kind, pin = norm[0], _exp(norm[1])
    if w_target.is_zero():
        return RefQPoly({}), f
    D = lcm(f.denom, w_target.denom, pin.denominator)
    d = f.degree
    hi = max(w_target.degree - d + 1, d)
    if kind == "coeff_zero":
        if f.low_exponent < 0:
            raise ValueError("negative exponents")
        support = [_exp_of(k, D) for k in range(int(hi * D) + 1)]
    else:
        if (pin - pin.__floor__()) in {e - e.__floor__() for e in f.terms}:
            raise AmbiguousNormalization("pinned class meets f")
        support = [pin + k for k in range(int(max(hi, pin) - pin) + 1)]
    fd = f.terms[d]
    y = {}
    for e in reversed(support):
        if e == d:
            continue
        acc = w_target.coeff(d + e - 1)
        for a, ca in f.terms.items():
            known = y.get(d + e - a)
            if known is not None:
                acc = acc - ca * (d + e - 2 * a) * known
        y[e] = acc / (fd * (e - d))
    particular = RefQPoly(y)
    if f * particular.derivative() - f.derivative() * particular != w_target:
        raise NoSolution("no solution")
    if kind == "coeff_zero":
        fpin = f.coeff(pin)
        if fpin.is_zero():
            raise AmbiguousNormalization("zero at the pin")
        particular = particular - f.scale(particular.coeff(pin) / fpin)
    return particular, f


# --- strategies and the comparison ------------------------------------------

ORDERS = (1, 2, 3, 4, 8, 12)
ENTRIES = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-1, 2), F(1, 3)])


@st.composite
def cycs(draw, order=None):
    order = order or draw(st.sampled_from(ORDERS))
    size = len(cyclotomic_polynomial(order)) - 1
    return Cyc(order, tuple(draw(st.lists(ENTRIES, min_size=size,
                                          max_size=size))))


@st.composite
def term_dicts(draw, top=6):
    """Terms over one order, with exponents in (1/D)Z, D in {1, 2, 3}."""
    denom = draw(st.sampled_from((1, 2, 3)))
    order = draw(st.sampled_from(ORDERS))
    exps = draw(st.lists(st.integers(-2, top), max_size=4, unique=True))
    return {F(k, denom): draw(cycs(order)) for k in exps}


@st.composite
def pairs(draw):
    """Two term dicts; g often cancels some terms of f, in its own order."""
    ft, gt = draw(term_dicts()), draw(term_dicts())
    if draw(st.booleans()):
        other = draw(st.sampled_from(ORDERS))
        for e, c in ft.items():
            if draw(st.booleans()):
                gt[e] = -c.promote(lcm(c.order, other))
    return ft, gt


def both(terms):
    return QPoly(terms), RefQPoly(terms)


def _terms_doc(p):
    """`serialize.qpoly_doc` as it was, written from the `terms` view: the
    reference for the document of a `RefQPoly`, which has no int layout."""
    d = p.denom
    return {"denom": d, "terms": {str(int(e * d)): str(c)
                                  for e, c in p.terms.items()}}


def outcome(p):
    """Value, order, keys with their types, Cyc fields, text and bytes
    written at that order."""
    doc = qpoly_doc(p, p.L) if isinstance(p, QPoly) else _terms_doc(p)
    return (p.field_order(), [(type(e), e) for e in p.terms],
            [(c.order, c.num, c.den) for c in p.terms.values()],
            str(p), dumps(doc))


def run(op, *args):
    """The outcome of op(*args), or its error type and message."""
    try:
        out = op(*args)
    except (BranchUndefined, InexactDivision, NoSolution,
            AmbiguousNormalization, ValueError) as exc:
        return type(exc), str(exc) if type(exc) is InexactDivision else ""
    if isinstance(out, (list, tuple)):
        return [outcome(p) for p in out]
    return out if isinstance(out, bool) else outcome(out)


SCALARS = [Cyc.of(-1), Cyc.of(F(-2, 3)), Cyc.root_of_unity(3),
           Cyc.root_of_unity(4), Cyc.root_of_unity(8, 3) * 2 + 1,
           Cyc.of(-1, 4), Cyc.root_of_unity(12, 5)]


@settings(max_examples=200, deadline=None)
@given(pairs(), term_dicts(top=4), st.sampled_from(SCALARS),
       st.integers(0, 5))
def test_every_operation_matches_the_dict_of_cyc_reference(fg, ht, c, pin):
    (f, rf), (g, rg) = both(fg[0]), both(fg[1])
    h, rh = both(ht)
    checks = [
        (lambda a, b: a + b, (f, g), (rf, rg)),
        (lambda a, b: a - b, (f, g), (rf, rg)),
        (lambda a: -a, (f,), (rf,)),
        (lambda a, b: a * b, (f, g), (rf, rg)),
        (lambda a, b: (a + b) * (a - b), (f, g), (rf, rg)),
        (lambda a: a.scale(c), (f,), (rf,)),
        (lambda a: a.derivative(), (f,), (rf,)),
        (lambda a: a.negate_argument(), (f,), (rf,)),
        (lambda a: a.substitute_scale(c), (f,), (rf,)),
        (lambda a: a.monic(), (f,), (rf,)),
        (lambda a, b: wronskian_table([a, b, a + b * b]), (f, g),
         (rf, rg), lambda a, b: ref_wronskian_table([a, b, a + b * b])),
    ]
    for op, args, ref_args, *ref_op in checks:
        assert run(op, *args) == run(ref_op[0] if ref_op else op,
                                     *ref_args), op
    if not h.is_zero():
        fh, rfh = f * h, rf * rh
        assert run(divide_exact, fh, h) == run(ref_divide_exact, rfh, rh)
        assert run(divide_exact, f, h) == run(ref_divide_exact, rf, rh)
        assert run(qgcd, fh, h) == run(ref_qgcd, rfh, rh)
        assert run(is_squarefree, h * h) == run(ref_is_squarefree, rh * rh)
        assert run(qgcd, f, g) == run(ref_qgcd, rf, rg)
        assert run(is_squarefree, f) == run(ref_is_squarefree, rf)
        w, rw = f * h.derivative() - f.derivative() * h, \
            rf * rh.derivative() - rf.derivative() * rh
        for norm in (("coeff_zero", F(pin, 2)),
                     ("holomorphic_at_zero", F(pin, 6))):
            assert run(wronskian_ode_solve, h, w, norm) == \
                run(ref_ode_solve, rh, rw, norm), norm


def kernel_product(f, g):
    """f * g on the general convolution kernel."""
    if f.is_zero() or g.is_zero():
        return QPoly.zero()
    return qpoly._sum_of_products([(1, f, g)], lcm(f.L, g.L))


def long_divide(f, g):
    """f / g by long division on the dense forms over Q(zeta_L)."""
    if f.is_zero():
        return QPoly.zero()
    L, D = lcm(f.L, g.L), lcm(f.D, g.D)
    flow, (_, fden, fc) = f._dense(D, L)
    glow, (_, gden, gc) = g._dense(D, L)
    q, s = qpoly._exact_quotient(fc, gc, L) or (None, 0)
    if q is None:
        raise InexactDivision(f"({f}) is not divisible by ({g})")
    return QPoly._from_dense(flow - glow, (L, s * fden, [
        qpoly._times_int(x, gden) for x in q]), D)


@st.composite
def monomials(draw):
    """c x^e, e in (1/D)Z for D in {1, 2, 3}, c rational (of order 1 or
    promoted) or not."""
    e = F(draw(st.integers(-3, 6)), draw(st.sampled_from((1, 2, 3))))
    c = draw(st.one_of(
        st.sampled_from([F(1), F(-1), F(3), F(-2, 3)]).map(Cyc.of),
        st.sampled_from([F(1), F(5, 7)]).flatmap(
            lambda q: st.sampled_from(ORDERS).map(lambda M: Cyc.of(q, M))),
        cycs().filter(bool)))
    return {e: c}


@settings(max_examples=200, deadline=None)
@given(term_dicts(), monomials())
def test_monomial_paths_match_the_kernel_and_long_division(ft, mt):
    (f, rf), (m, rm) = both(ft), both(mt)
    product = run(lambda a, b: a * b, rf, rm)
    assert run(lambda a, b: a * b, f, m) == run(kernel_product, f, m) \
        == product
    assert run(lambda a, b: a * b, m, f) == run(kernel_product, m, f) \
        == product
    fm = f * m
    assert run(divide_exact, fm, m) == run(long_divide, fm, m) == \
        run(ref_divide_exact, rf * rm, rm)
    assert divide_exact(fm, m) == f
    assert run(divide_exact, f, m) == run(long_divide, f, m) == \
        run(ref_divide_exact, rf, rm)


def test_substitute_scale_takes_powers_over_the_gaps(monkeypatch):
    # a running product one exponent at a time would make 2^16 products
    w = Cyc.root_of_unity(3)
    f = QPoly({2 ** 16: 1, 0: 1})
    calls = Counter()
    mul = Cyc.__mul__

    def counted(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    out = f.substitute_scale(w)
    assert calls["mul"] <= 20
    monkeypatch.undo()
    assert out == QPoly({2 ** 16: w, 0: 1}) and out.field_order() == 3
    sparse = QPoly({-2: 1, 1: 3, 4: w, 7: F(1, 2), 9: 1})
    s = w * 2 - 1
    assert sparse.substitute_scale(s) == QPoly(
        {e: c * s ** e for e, c in sparse.terms.items()})


def running_product_scale(p, s):
    """f(s x) with s^k from a running product over the exponent gaps, the
    path `substitute_scale` took for every s before roots of unity read a
    table of their powers."""
    cs, steps = [s ** k for k in p.ks[:1]], {1: s}
    for gap in (b - a for a, b in zip(p.ks, p.ks[1:])):
        cs.append(cs[-1] * (steps.get(gap) or steps.setdefault(
            gap, s ** gap)))
    return qpoly._scaled(p, cs)


ROOTS = [Cyc.of(1), Cyc.of(-1), Cyc.of(-1, 2), Cyc.of(-1, 4), Cyc.of(1, 8)] + [
    Cyc.root_of_unity(M, k) * sign for M in (3, 4, 6, 8, 12)
    for k in range(M) for sign in (1, -1)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ROOTS), term_dicts(top=30))
def test_substitute_scale_by_a_root_of_unity_reads_its_power_table(s, terms):
    p = QPoly({e.numerator: c for e, c in terms.items()})  # integer support
    assert run(lambda a: a.substitute_scale(s), p) == \
        run(running_product_scale, p, s)
    assert run(lambda a: a.substitute_scale(s), p) == \
        run(lambda a: a.substitute_scale(s), RefQPoly(p.terms))


def test_powers_of_a_root_of_unity_are_keyed_on_its_layout(monkeypatch):
    # -1 held at orders 1, 2 and 4 compares and hashes alike, but each
    # keeps its own order in f(-x)
    f = QPoly({0: 1, 1: 1, 5: F(1, 2)})
    for order in (1, 2, 4, 1):
        out = f.substitute_scale(Cyc.of(-1, order))
        assert out.field_order() == order and str(out) == "-1/2*x^5 - x + 1"
    # the table is built once per root: later calls make no Cyc products
    w = Cyc.root_of_unity(12, 7)
    f.substitute_scale(w)
    calls = Counter()
    mul = Cyc.__mul__

    def counted(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    out = f.substitute_scale(w)
    assert calls["mul"] == 0
    monkeypatch.undo()
    assert out == running_product_scale(f, w)
    # not a root of unity: the running product, as before
    for s in (Cyc.of(2), Cyc.of(F(1, 2), 3), Cyc.root_of_unity(3) + 1 + 1):
        assert run(lambda a: a.substitute_scale(s), f) == \
            run(running_product_scale, f, s)


@st.composite
def constants(draw):
    """A nonzero constant, or a nonzero monomial off x^0."""
    c = draw(cycs().filter(bool))
    e = draw(st.sampled_from([0, 0, F(-2), F(1, 2), F(-1, 3), F(5)]))
    return {e: c}


@settings(max_examples=200, deadline=None)
@given(term_dicts(), constants())
def test_gcd_with_a_monomial_is_the_shared_power_of_x(ft, ct):
    (f, rf), (c, rc) = both(ft), both(ct)
    assert run(qgcd, f, c) == run(ref_qgcd, rf, rc)
    assert run(qgcd, c, f) == run(ref_qgcd, rc, rf)
    assert run(qgcd, c, c) == run(ref_qgcd, rc, rc)


def test_gcd_with_a_constant_runs_no_certificate(monkeypatch):
    def refuse(*args):
        raise AssertionError("certificate run on a monomial operand")
    monkeypatch.setattr(qpoly, "_certified_coprime", refuse)
    f = QPoly({-2: 1, F(1, 2): Cyc.root_of_unity(3), 4: 3})
    assert qgcd(f, QPoly.constant(Cyc.of(F(2, 3), 4))) == QPoly.x_power(-2)
    assert qgcd(QPoly.constant(7), f).field_order() == 1
    assert qgcd(QPoly({1: 1, 2: 1}), QPoly.x_power(F(1, 2), 5)) == \
        QPoly.x_power(F(1, 2))
    assert qgcd(QPoly({1: 1, 2: 1}), QPoly.one()) == QPoly.one()


def test_monic_keeps_a_poly_whose_leading_coefficient_is_one():
    w = Cyc.root_of_unity(8)
    for p in (QPoly({0: F(1, 2), 3: 1}), QPoly({F(1, 3): w, 2: Cyc.of(1, 8)}),
              QPoly.one(), QPoly({0: 3, 1: Cyc.of(1, 4)})):
        assert p.monic() is p
        assert run(lambda a: a.monic(), p) == \
            run(lambda a: a.monic(), RefQPoly(p.terms))
    for p in (QPoly({0: 1, 3: 2}), QPoly({0: 1, 1: w}),
              QPoly({0: 1, 2: F(1, 2)}), QPoly({0: 1, 2: Cyc.of(-1, 3)})):
        assert p.monic() is not p and p.monic().leading_coeff() == 1
        assert run(lambda a: a.monic(), p) == \
            run(lambda a: a.monic(), RefQPoly(p.terms))


def test_equal_values_in_other_layouts_compare_and_hash_equal():
    i4, i12 = Cyc.root_of_unity(4), Cyc.root_of_unity(12, 3)
    at4 = QPoly({F(1, 2): i4, 2: Cyc.of(F(-3, 5), 4)})
    at12 = QPoly({F(1, 2): i12, 2: Cyc.of(F(-3, 5), 12)})
    assert (at4.field_order(), at12.field_order()) == (4, 12)
    assert at4 == at12 and hash(at4) == hash(at12)
    assert at4 != at12 + QPoly.x_power(5)
    halves = qpoly_from_doc({"denom": 2, "terms": {"2": "1"}})
    whole = qpoly_from_doc({"denom": 1, "terms": {"1": "1"}})
    assert halves == whole == QPoly.x_power(1)
    assert hash(halves) == hash(whole)
    for c in (Cyc.of(F(7, 3)), Cyc.root_of_unity(8, 3) - 2, i12):
        p = QPoly.constant(c)
        assert p == c and c == p and hash(p) == hash(c)
    assert QPoly.zero() == Cyc.of(0) and hash(QPoly.zero()) == hash(Cyc.of(0))
    assert QPoly.constant(Cyc.of(0, 8)) == QPoly.zero()
    for p in (at4, at12, halves):
        assert len({p, QPoly(p.terms)}) == 1


def test_a_sum_is_held_at_the_lcm_order_and_written_by_its_value():
    # the x term cancels at order 12, and the sum stays at order 12 with
    # the x^2 term of f alone: its document is that of i x^2 at order 4
    f = QPoly({1: Cyc.of(1, 4), 2: Cyc.root_of_unity(4)})
    g = QPoly({1: Cyc.of(-1, 3)})
    i_x2 = QPoly({2: Cyc.root_of_unity(4)})
    assert (f + g).field_order() == 12 and f + g == i_x2
    assert qpoly_doc(f + g) == qpoly_doc(i_x2) == \
        {"denom": 1, "terms": {"2": "w"}}
    assert qpoly_doc(-f - g) == {"denom": 1, "terms": {"2": "-w"}}
    both_sides = f + g + QPoly({3: Cyc.root_of_unity(3)})
    assert both_sides.field_order() == 12
    assert (f - f).field_order() == 1 and (f - f).is_zero()


def test_stored_fields_are_canonical():
    w = Cyc.root_of_unity(8)
    p = QPoly({F(4, 2): w * F(2, 6), F(1, 3): F(5, 9), 0: 1})
    assert (p.L, p.D, p.ks, p.den) == (8, 3, [0, 1, 6], 9)
    assert p.nums == [(9, 0, 0, 0), (5, 0, 0, 0), (0, 3, 0, 0)]
    q = QPoly({1: F(1, 2), 3: F(3, 2)})
    assert (q.L, q.D, q.ks, q.den, q.nums) == (1, 1, [1, 3], 2, [1, 3])
    assert (q + q).den == 1 and (q + q).nums == [1, 3]


def test_the_solve_builds_a_cyc_only_to_pin(monkeypatch):
    # on the committed A4 catalog the sweep and its exact check run on the
    # int layout: the holomorphic rule of an L = 2 step builds no Cyc, and
    # the coeff_zero rule of an L = 1 step builds only the pin's 4 (two
    # coefficient reads, an inverse and a product)
    import json
    from cybethe import scalars, serialize
    from cybethe.genengine import _rhs_l1
    from test_catalog_pins import A4_CATALOG, A4_DOC
    inst = serialize.instance_from_doc(A4_DOC)
    build, built, counts = scalars._cyc, [], Counter()

    def counted(*args):
        built.append(args)
        return build(*args)

    for node in json.loads(A4_CATALOG.read_text())["nodes"]:
        y = serialize.tuple_from_doc(node["tuple"], inst.M)
        for i, norm in ((0, ("coeff_zero", y[0].degree)),
                        (1, ("holomorphic_at_zero", inst.gamma(1) + 1))):
            rhs = _rhs_l1(inst, y, i)
            built.clear()
            with monkeypatch.context() as patch:
                for module in (scalars, qpoly):
                    patch.setattr(module, "_cyc", counted)
                wronskian_ode_solve(y[i], rhs, norm)
            counts[norm[0], len(built)] += 1
    assert counts == {("coeff_zero", 4): 40, ("holomorphic_at_zero", 0): 40}
