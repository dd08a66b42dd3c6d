"""Property tests of quasi-polynomial products against the per-term loop."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from cybethe.qpoly import QPoly, divide_exact
from cybethe.scalars import Cyc, cyclotomic_polynomial

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
    # in (1 + x - x^2)^2 the x^2 sum cancels at the pair (1, x), x^3
    # enters next, and the pair (x^2, 1) refills x^2 behind it
    for one in (Cyc.of(1), Cyc.of(1, 2), Cyc.root_of_unity(3),
                Cyc.root_of_unity(8, 3)):
        f = QPoly({F(0): one, F(1): one, F(2): -one})
        assert _same(f * f, reference_product(f, f))
        assert list((f * f).terms) == [0, 1, 3, 2, 4]
    # the same pattern where x^2 cancels only modulo Phi_3:
    # 1 * (1 + w) + w * w = 1 + w + w^2
    w = Cyc.root_of_unity(3)
    f = QPoly({F(0): Cyc.of(1, 3), F(1): w, F(2): 1 + w})
    assert _same(f * f, reference_product(f, f))
    assert list((f * f).terms) == [0, 1, 3, 2, 4]


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
