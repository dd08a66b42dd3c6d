"""Identity suites: exact verification of the structural lemmas on random
exact data (seeded, deterministic)."""

import random
from fractions import Fraction as F

from conftest import poly
from cybethe.cartan import CartanData, DiagramAut, Weight
from cybethe.qpoly import QPoly, wronskian
from cybethe.scalars import Cyc
from oracles import hl_identity_check


def rand_weight(rng, n):
    return Weight([F(rng.randint(-8, 8), rng.randint(1, 3))
                   for _ in range(n)])


def rand_poly(rng, max_deg, min_deg=0):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)]
    return poly(*coeffs)


def test_hl_m2():
    rng = random.Random(101)
    a2 = CartanData.series("A", 2)
    aut = DiagramAut((1, 0))
    omega = Cyc.root_of_unity(2)
    a3 = CartanData.series("A", 3)
    aut3 = DiagramAut((2, 1, 0))
    for _ in range(20):
        assert hl_identity_check(a2, aut, omega, rand_weight(rng, 2))
        assert hl_identity_check(a3, aut3, omega, rand_weight(rng, 3))


def test_hl_m3():
    # order-3 automorphism: triality nodes of D_4
    rng = random.Random(102)
    d4 = CartanData.from_matrix(
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    tri = DiagramAut((2, 1, 3, 0))
    assert tri.order == 3
    omega = Cyc.root_of_unity(3)
    for _ in range(20):
        assert hl_identity_check(d4, tri, omega, rand_weight(rng, 4))


def test_monomial_wronskian():
    # Wr(x^n1, ..., x^nm) = x^(sum n - m(m-1)/2) prod_(j<i) (n_i - n_j)
    rng = random.Random(103)
    for _ in range(20):
        m = rng.randint(1, 4)
        exps = [rng.randint(0, 9) for _ in range(m)]
        got = wronskian([QPoly.x_power(n) for n in exps])
        coeff = F(1)
        for i in range(m):
            for j in range(i):
                coeff *= exps[i] - exps[j]
        total = sum(exps) - F(m * (m - 1), 2)
        want = QPoly.x_power(total, coeff) if coeff else QPoly.zero()
        assert got == want, (exps, got)


def test_composite_wronskian_identity():
    # Wr of the Wronskians omitting f_(s+1), f_s, ..., f_(s-k+1) equals
    # Wr(f_1..f_(s-k)) * Wr(f_1..f_(s+1))^k
    rng = random.Random(104)
    for _ in range(6):
        s = rng.randint(1, 4)
        k = rng.randint(0, s)
        fs = [rand_poly(rng, 3) for _ in range(s + 1)]
        omitted = []
        for j in range(k + 1):
            omit = s - j  # 0-based index of f_(s+1-j)
            omitted.append(wronskian(fs[:omit] + fs[omit + 1:]))
        lhs = wronskian(omitted)
        head = fs[:s - k]
        rhs = (wronskian(head) if head else QPoly.one()) \
            * wronskian(fs) ** k
        assert lhs == rhs, (s, k)


def test_wrlem_identity():
    # if W = Wr(f, g) then f W g'' - f W' g' = g W f'' - g W' f'
    rng = random.Random(105)
    for _ in range(10):
        f = rand_poly(rng, 4, 1)
        g = rand_poly(rng, 4, 1)
        w = wronskian([f, g])
        lhs = f * w * g.derivative().derivative() \
            - f * w.derivative() * g.derivative()
        rhs = g * w * f.derivative().derivative() \
            - g * w.derivative() * f.derivative()
        assert lhs == rhs
