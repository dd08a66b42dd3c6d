"""Property tests of quasi-polynomial products against the per-term loop."""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from cybethe.errors import (AmbiguousNormalization, BranchUndefined,
                            NoSolution)
from cybethe.qpoly import (QPoly, divide_exact, qgcd, wronskian,
                           wronskian_ode_solve, wronskian_table)
from cybethe.scalars import Cyc, cyclotomic_polynomial
from cybethe.serialize import qpoly_doc, qpoly_from_doc

ORDERS = (1, 2, 3, 4, 8, 12)
# small entries make sums cancel often, which is where orders can differ
NONZERO = [F(1), F(-1), F(2), F(-1, 2), F(1, 3)]
ENTRIES = st.sampled_from([F(0)] + NONZERO)


def reference_product(f, g):
    """The per-term loop: one Cyc product and one Cyc sum per pair."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = e1 + e2
            s = out.get(e, Cyc.of(0)) + c1 * c2
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return QPoly(out)


@st.composite
def cycs(draw, order=None, nonzero=False):
    order = order or draw(st.sampled_from(ORDERS))
    size = len(cyclotomic_polynomial(order)) - 1
    vec = draw(st.lists(ENTRIES, min_size=size, max_size=size))
    if nonzero:
        vec[draw(st.integers(0, size - 1))] = draw(st.sampled_from(NONZERO))
    return Cyc(order, tuple(vec))


@st.composite
def qpolys(draw, mixed=None, nonzero=False):
    """Terms over one order, or (mixed) over orders drawn per term, with
    exponents in (1/D)Z for D in {1, 2, 3}."""
    denom = draw(st.sampled_from((1, 2, 3)))
    exps = draw(st.lists(st.integers(-3, 9), min_size=int(nonzero),
                         max_size=5, unique=True))
    if mixed is None:
        mixed = draw(st.booleans())
    order = None if mixed else draw(st.sampled_from(ORDERS))
    return QPoly({F(k, denom): draw(cycs(order, nonzero and not n))
                  for n, k in enumerate(exps)})


def _same(p, q):
    """Equal terms in the same order, each coefficient with the same
    field order and the same Fraction vector."""
    return list(p.terms) == list(q.terms) and all(
        c.order == q.terms[e].order and c.vec == q.terms[e].vec
        and all(type(x) is F for x in c.vec)
        for e, c in p.terms.items())


@settings(max_examples=300, deadline=None)
@given(qpolys(), qpolys())
def test_product_matches_the_per_term_loop(f, g):
    assert _same(f * g, reference_product(f, g))


@settings(max_examples=150, deadline=None)
@given(qpolys(mixed=False), qpolys(mixed=False), qpolys(mixed=True))
def test_products_chain_like_the_per_term_loop(f, g, h):
    # a product feeds a mixed-order product through its term order too
    fg, ref = f * g, reference_product(f, g)
    assert _same((fg + h) * h, reference_product(ref + h, h))


def test_cancelled_sum_drops_its_term_as_the_loop_does():
    # in (1 + x - x^2)^2 the x^2 sum cancels at the pair (x, x), x^3
    # enters next, and the pair (x^2, 1) refills x^2; the terms stay in
    # ascending order all the same
    for one in (Cyc.of(1), Cyc.of(1, 2), Cyc.root_of_unity(3),
                Cyc.root_of_unity(8, 3)):
        f = QPoly({F(0): one, F(1): one, F(2): -one})
        assert _same(f * f, reference_product(f, f))
        assert list((f * f).terms) == [0, 1, 2, 3, 4]
    # the same pattern where x^2 cancels only modulo Phi_3:
    # 1 * (1 + w) + w * w = 1 + w + w^2
    w = Cyc.root_of_unity(3)
    f = QPoly({F(0): Cyc.of(1, 3), F(1): w, F(2): 1 + w})
    assert _same(f * f, reference_product(f, f))
    assert list((f * f).terms) == [0, 1, 2, 3, 4]


@settings(max_examples=150, deadline=None)
@given(qpolys(), qpolys(nonzero=True))
def test_divide_exact_inverts_the_product(f, g):
    assert divide_exact(f * g, g) == f


@settings(max_examples=200, deadline=None)
@given(cycs(), cycs(), st.sampled_from((1, 2, 3, 5)))
def test_cyc_hash_and_eq_agree_across_promotion(a, b, k):
    wide = a.promote(a.order * k)
    assert wide == a and hash(wide) == hash(a)
    prod = a * b
    assert wide * b == prod and hash(wide * b) == hash(prod)
    assert (a == b) == (a.promote(a.order * b.order) == b)
    if a == b:
        assert hash(a) == hash(b)


def _canonical_key(e):
    """An int exactly when e is integral, else a Fraction with
    denominator > 1."""
    return type(e) is int or (type(e) is F and e.denominator > 1)


def _canonical(p):
    """Canonical keys in ascending order."""
    return all(_canonical_key(e) for e in p.terms) and (
        list(p.terms) == sorted(p.terms)) and (
        p.is_zero() or _canonical_key(p.degree)
        and _canonical_key(p.low_exponent))


@settings(max_examples=150, deadline=None)
@given(qpolys(), qpolys(), qpolys(mixed=False), qpolys(mixed=True),
       qpolys(nonzero=True))
def test_every_operation_keeps_exponent_keys_canonical(f, g, u, m, h):
    # exponents of f lie in [-3, 9]: these sums have disjoint supports
    below, above = QPoly({F(-7, 2): 1}), QPoly.x_power(F(21, 2), 2)
    doc = qpoly_doc(f, f.field_order())
    doc["terms"] = dict(reversed(doc["terms"].items()))
    results = [f, g, f + g, f - g, -f, f * g, u * u, u * h, m * m, m * h,
               f + below, above + f, below + above,
               qpoly_from_doc(doc, f.field_order()),
               f.scale(Cyc.root_of_unity(3)), f.derivative(),
               divide_exact(f * h, h), qgcd(f, h), qgcd(u * h, h)]
    results += f.exponent_classes().values()
    for p in (f, h):
        for D in (p.denom, 6):
            low, coeffs = p._dense(D)
            assert _canonical_key(low)
            back = QPoly._from_dense(low, coeffs, D)
            assert back == p and list(back.terms) == sorted(p.terms)
            results.append(back)
    for p in (f, g):
        try:
            results.append(p.negate_argument())
        except BranchUndefined:
            assert any(e.denominator > 2 for e in p.terms)
    results += wronskian_table([h, f, g])
    w = wronskian([h, g])
    norms = [("holomorphic_at_zero", F(k, 6)) for k in range(6)]
    if h.low_exponent >= 0:
        norms += [("coeff_zero", e) for e in h.terms]
        norms.append(("coeff_zero", F(h.degree)))
    for norm in norms:
        try:
            results += wronskian_ode_solve(h, w, norm)
        except (AmbiguousNormalization, NoSolution):
            pass
    for p in results:
        assert _canonical(p), p.terms


@settings(max_examples=150, deadline=None)
@given(qpolys(mixed=False))
def test_documents_round_trip_keys_and_order(p):
    back = qpoly_from_doc(qpoly_doc(p, p.field_order()), p.field_order())
    assert back == p
    assert list(back.terms) == sorted(p.terms)
    assert [type(e) for e in back.terms] == \
        [type(e) for e in sorted(p.terms)]
    again = qpoly_from_doc(qpoly_doc(back, back.field_order()),
                           back.field_order())
    assert [(type(e), e) for e in again.terms] == \
        [(type(e), e) for e in back.terms]


def test_an_int_and_an_equal_fraction_are_one_key():
    p, q = QPoly({F(3): 1}), QPoly({3: 1})
    assert p == q and hash(p) == hash(q)
    assert [type(e) for e in p.terms] == [int]
    assert type(QPoly.x_power(F(4, 2)).degree) is int
    assert type(QPoly.x_power(F(3, 2)).degree) is F
    assert p.coeff(3) == p.coeff(F(3)) == p.coeff(3.0) == 1
    assert QPoly({F(1, 2): 1}).coeff(F(2, 4)) == 1
    five = QPoly.constant(5)
    assert five == 5 and hash(five) == hash(Cyc.of(5))


@st.composite
def mixed_terms(draw):
    """A terms dict whose coefficients take their own orders, zeros too."""
    denom = draw(st.sampled_from((1, 2)))
    exps = draw(st.lists(st.integers(-2, 8), max_size=5, unique=True))
    return {F(k, denom): draw(cycs()) for k in exps}


def _one_field(p):
    """Every coefficient of p has the order `field_order` reports."""
    return all(c.order == p.field_order() for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(mixed_terms(), mixed_terms(), mixed_terms())
def test_every_operation_keeps_one_coefficient_field(ft, gt, ht):
    f, g = QPoly(ft), QPoly(gt)
    h = QPoly(ht) + QPoly({F(10): Cyc.of(1)})  # above every key of ht
    for terms, p in ((ft, f), (gt, g)):
        assert p.field_order() == lcm(*(c.order for c in terms.values()
                                         if c))
        assert all(p.coeff(e) == c for e, c in terms.items())
    assert (f * g).field_order() == (lcm(f.field_order(), g.field_order())
                                     if f and g else 1)
    results = [f, g, h, f + g, f - g, -f, f * g, f * h, h * h,
               f.scale(Cyc.root_of_unity(3)), f.scale(F(-1, 2)),
               f.derivative(), divide_exact(f * h, h), qgcd(f, h)]
    for p in (f, g):
        try:
            results.append(p.negate_argument())
        except BranchUndefined:
            assert any(e.denominator > 2 for e in p.terms)
    results += wronskian_table([h, f, g])
    w = wronskian([h, g])
    norms = [("holomorphic_at_zero", F(k, 2)) for k in range(2)]
    if h.low_exponent >= 0:
        norms += [("coeff_zero", e) for e in h.terms]
    for norm in norms:
        try:
            results += wronskian_ode_solve(h, w, norm)
        except (AmbiguousNormalization, NoSolution):
            pass
    for p in results:
        assert _one_field(p), p.terms


def _full_sweep_ode_solve(f, w_target, norm):
    """`wronskian_ode_solve` as it was before it skipped the structurally
    zero steps: one `Cyc` step at every exponent of the support."""
    if f.is_zero():
        raise NoSolution("kernel function f must be nonzero")
    kind, pin = norm[0], F(norm[1])
    if w_target.is_zero():
        return QPoly.zero(), f
    D = lcm(f.D, w_target.D, pin.denominator)
    fterms = list(zip(f._lift(f.L, D)[0], f.terms.values()))
    w = dict(zip(w_target._lift(w_target.L, D)[0], w_target.terms.values()))
    d, P = fterms[-1][0], pin.numerator * (D // pin.denominator)
    hi = max(max(w) - d + D, d)
    if kind == "coeff_zero":
        if fterms[0][0] < 0:
            raise ValueError("the coeff_zero rule needs f without negative "
                             "exponents")
        support = range(hi + 1)
    else:
        if P % D in {k % D for k, _ in fterms}:
            raise AmbiguousNormalization("pinned class meets f")
        support = range(P, max(hi, P) + 1, D)
    fd_inv = fterms[-1][1].inverse()
    y = {}
    for e in reversed(support):
        if e == d:
            continue
        acc = w.get(d + e - D, Cyc.of(0)) * D
        for a, ca in fterms:
            known = y.get(d + e - a)
            if known is not None:
                acc = acc - ca * (d + e - 2 * a) * known
        y[e] = acc * fd_inv / (e - d)
    particular = QPoly({F(e, D): c for e, c in y.items()})
    if f * particular.derivative() - f.derivative() * particular != w_target:
        raise NoSolution("Wr(f, Y) = W has no quasi-polynomial solution")
    if kind == "coeff_zero":
        fpin = f.coeff(pin)
        if fpin.is_zero():
            raise AmbiguousNormalization("f vanishes at the pin")
        particular = particular - f.scale(particular.coeff(pin) / fpin)
    return particular, f


def _sweep_outcome(solve, f, w, norm):
    """The error type, or Y's terms with each value and order, and str(Y)."""
    try:
        y, hom = solve(f, w, norm)
    except (NoSolution, AmbiguousNormalization, ValueError) as exc:
        return type(exc).__name__
    assert hom is f
    return [(e, c.order, c.vec) for e, c in y.terms.items()], str(y)


@st.composite
def sparse_qpolys(draw, denom, order, low=0):
    """One to three terms over Q(zeta_order), spread over (1/denom)Z."""
    exps = draw(st.lists(st.integers(low, 24), min_size=1, max_size=3,
                         unique=True))
    return QPoly({F(k, denom): draw(cycs(order, nonzero=True))
                  for k in exps})


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((1, 2, 3, 6)),
       st.sampled_from(("solvable", "inconsistent", "ambiguous")),
       st.sampled_from(("coeff_zero", "holomorphic_at_zero")))
def test_ode_sweep_skips_only_structurally_zero_steps(data, denom, case,
                                                       kind):
    # sparse f and W over orders {1, 2, 3, 4, 8}: most steps of the full
    # sweep land on no term, and the two sweeps must agree on the value,
    # order and text of Y, or on the error
    orders = st.sampled_from((1, 2, 3, 4, 8))
    low = 0 if kind == "coeff_zero" else data.draw(st.sampled_from((0, -2)))
    f = data.draw(sparse_qpolys(denom, data.draw(orders), low))
    g = data.draw(sparse_qpolys(denom, data.draw(orders)))
    w = wronskian([f, g])
    if case == "inconsistent":
        w = w + data.draw(sparse_qpolys(denom, data.draw(orders)))
    f_classes = {e - e.__floor__() for e in f.terms}
    if case == "ambiguous" and kind == "coeff_zero":
        # a pin where f vanishes
        pin = data.draw(st.sampled_from(sorted(
            {F(k, denom) for k in range(-2 * denom, 30)} - set(f.terms))))
    elif case == "ambiguous":
        # a class that meets f
        pin = data.draw(st.sampled_from(sorted(f.terms))) + \
            data.draw(st.integers(-1, 2))
    elif kind == "coeff_zero":
        pin = data.draw(st.sampled_from(sorted(f.terms)))
    else:
        # the class of a term of g where f has none, pinned at or below it
        free = [e for e in g.terms if e - e.__floor__() not in f_classes]
        free = free or [F(k, 6) for k in range(6) if F(k, 6) not in f_classes]
        pin = data.draw(st.sampled_from(sorted(free))) - \
            data.draw(st.integers(0, 2))
    norm = (kind, pin)
    want = _sweep_outcome(_full_sweep_ode_solve, f, w, norm)
    assert _sweep_outcome(wronskian_ode_solve, f, w, norm) == want
    if w.is_zero():
        assert want[1] == "0"
    elif case == "ambiguous":
        assert want == "AmbiguousNormalization"
    elif case == "solvable" and kind == "coeff_zero":
        assert not isinstance(want, str)


def test_ode_sweep_cases_reach_every_outcome():
    # the property above meets solutions and both errors on both rules
    seen = set()
    for denom, kind, g, extra, pin in (
            (1, "coeff_zero", QPoly.x_power(7, 2), None, 0),
            (2, "coeff_zero", QPoly.x_power(F(9, 2)), QPoly.x_power(1), 0),
            (3, "coeff_zero", QPoly.x_power(5), None, F(1, 3)),
            (6, "holomorphic_at_zero", QPoly.x_power(F(13, 6)), None,
             F(1, 6)),
            (2, "holomorphic_at_zero", QPoly.x_power(F(5, 2)),
             QPoly.x_power(F(1, 2)), F(1, 2)),
            (1, "holomorphic_at_zero", QPoly.x_power(3), None, 1)):
        f = QPoly({0: Cyc.root_of_unity(8), 4: Cyc.of(-3)})
        w = wronskian([f, g]) + (extra or QPoly.zero())
        outcome = _sweep_outcome(wronskian_ode_solve, f, w, (kind, pin))
        assert outcome == _sweep_outcome(_full_sweep_ode_solve, f, w,
                                         (kind, pin))
        seen.add((kind, outcome if isinstance(outcome, str) else "solved"))
    assert seen == {(k, o) for k in ("coeff_zero", "holomorphic_at_zero")
                    for o in ("solved", "NoSolution",
                              "AmbiguousNormalization")}
