"""Oracles that the tests compare the library against.

Each one computes a quantity of the paper by a route that no command
takes: the operator D(y), whose kernel is the space of a type-A
population (the library proves membership by the space itself), the
bilinear form of any two vectors of a space, a divided Wronskian from a
fresh Wronskian, the orbit-sum identity of the weight at the origin, the
eigenvalues in floating point, the folding of a diagram by walks of sigma
(the library reads each sigma-cycle, made once), and the canonical weight
at the origin by its trace over root vectors (the library has the closed
form).
"""

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import mul

from cybethe import typea
from cybethe.cartan import (CartanData, FoldedData, Weight, inner_product,
                            weight_orbit)
from cybethe.errors import LinkingViolation
from cybethe.numerics import _ip_weight_alpha
from cybethe.qpoly import QPoly, divide_exact, qgcd, wronskian
from cybethe.scalars import Cyc


class RatQP:
    """Reduced ratio of quasi-polynomials; just enough for operator work."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = QPoly.one()
        if den.is_zero():
            raise ZeroDivisionError("rational quasi-polynomial with zero denominator")
        if num.is_zero():
            self.num, self.den = QPoly.zero(), QPoly.one()
            return
        g = qgcd(num, den)
        if not (g.is_monomial() and g.degree == 0):
            num = divide_exact(num, g)
            den = divide_exact(den, g)
        lead = den.leading_coeff()
        self.num = num.scale(lead.inverse())
        self.den = den.scale(lead.inverse())

    @staticmethod
    def of(p):
        return p if isinstance(p, RatQP) else RatQP(p)

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = RatQP.of(other)
        return RatQP(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    def __neg__(self):
        return RatQP(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatQP.of(other))

    def __mul__(self, other):
        other = RatQP.of(other)
        return RatQP(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = RatQP.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational quasi-polynomial")
        return RatQP(self.num * other.den, self.den * other.num)

    def derivative(self):
        return RatQP(self.num.derivative() * self.den
                     - self.num * self.den.derivative(),
                     self.den * self.den)

    def __eq__(self, other):
        other = RatQP.of(other)
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return f"RatQP(({self.num}) / ({self.den}))"


def fundamental_operator(frame, y):
    """Factorization data of the operator D(y): the R+1 logarithmic
    derivative arguments g_i = y_(R+1-i) T~_1 ... T~_(R-i) / y_(R-i),
    leftmost factor first (with y_0 = y_(R+1) = 1)."""
    r = frame.r
    args = []
    for i in range(r + 1):
        hi = QPoly.one() if i == 0 else y[r - i]
        lo = QPoly.one() if i == r else y[r - i - 1]
        acc = RatQP(hi)
        for j in range(r - i):
            acc = acc * RatQP(frame.ttilde[j])
        acc = acc / RatQP(lo)
        args.append(acc)
    return args


def apply_operator(args, u):
    """Apply D = prod (d/dx - log' g_i) to u, right factor first."""
    cur = RatQP(u)
    for g in reversed(args):
        cur = cur.derivative() - (g.derivative() / g) * cur
    return cur


def bform(space, u, v):
    """B(u, v) for arbitrary vectors of the space, read through their
    coordinates over the special basis and the space's Gram matrix."""
    cu, cv = typea._coordinates(space, [u, v])
    return typea._form(cu, typea.gram_matrix(space), cv)


def divided_wronskian(fs, divisors):
    """Wr(fs) divided exactly by the product of `divisors`."""
    return divide_exact(wronskian(fs), reduce(mul, divisors, QPoly.one()))


def hl_identity_check(cartan, aut, omega, lam):
    """Exact check of sum_k (l, s^k l)/(1 - w^k) = (1/2) sum_k (l, s^k l)."""
    orbit = weight_orbit(aut, lam)
    lhs = Cyc.of(0)
    rhs = Fraction(0)
    for k in range(1, len(orbit)):
        val = inner_product(cartan, lam, orbit[k])
        lhs = lhs + Cyc.of(val) / (1 - omega ** k)
        rhs += val
    return lhs == Cyc.of(rhs / 2)


def eigenvalues_numeric(inst, point):
    """E^(i) of the cyclotomic picture evaluated in floating point.

    The root sum runs over all extended roots directly (the double sum
    over fundamental roots and powers of omega enumerates exactly the
    extended root multiset of a cyclotomic point).
    """
    M = inst.M
    omega = complex(inst.omega)
    orbits = [weight_orbit(inst.aut, lam) for lam in inst.site_weights]
    out = []
    for i, zi_exact in enumerate(inst.points):
        zi = complex(zi_exact)
        lam_i = inst.site_weights[i]
        acc = 0j
        for jdx, zj_exact in enumerate(inst.points):
            if jdx == i:
                continue
            zj = complex(zj_exact)
            for s, lam_s in enumerate(orbits[jdx]):
                acc += float(inner_product(inst.cartan, lam_i, lam_s)) \
                    / (zi - omega ** s * zj)
        for (tj, cj) in zip(point.roots, point.colours):
            acc -= _ip_weight_alpha(inst, lam_i, cj) / (zi - tj)
        tail = complex(float(inner_product(inst.cartan, lam_i, inst.lambda0)))
        for s in range(1, M):
            tail += float(inner_product(inst.cartan, lam_i, orbits[i][s])) \
                / (1 - omega ** s)
        acc += tail / zi
        out.append(acc)
    return out


# --- the folding by walks of sigma -----------------------------------------


def walk_orbits(perm):
    """The sigma-orbits of the nodes, each walked from its least node."""
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen:
            continue
        orbit, j = [i], perm[i]
        while j != i:
            orbit.append(j)
            j = perm[j]
        seen.update(orbit)
        out.append(tuple(orbit))
    return out


def walk_order(perm):
    return lcm(*map(len, walk_orbits(perm)))


def walk_power(perm, i, k):
    """sigma^k i by k steps of sigma, k taken modulo the order."""
    k %= walk_order(perm)
    for _ in range(k):
        i = perm[i]
    return i


def walk_inverse(perm, i):
    return perm.index(i)


def walk_orbit_data(cartan, perm):
    """The FoldedData of `cartan.orbit_data`, each linking number summed
    along a walk of sigma from its node."""
    n = cartan.n
    orbit_of = {}
    orbits = []
    for orbit in walk_orbits(perm):
        key = tuple(sorted(orbit))
        orbits.append(key)
        for i in orbit:
            orbit_of[i] = key
    orbits.sort()
    reps = tuple(min(o) for o in orbits)
    m_len = [len(orbit_of[i]) for i in range(n)]
    linking = []
    for i in range(n):
        total = 0
        j = perm[i]
        seen = {i}
        while j not in seen:
            total += cartan.a[j][i]
            seen.add(j)
            j = perm[j]
        linking.append(1 - total)
    for i in range(n):
        if linking[i] > 2:
            raise LinkingViolation(i, linking[i])
    a_fold_rows = []
    for i in reps:
        orbit_i = sorted(set(walk_power(perm, i, k) for k in range(m_len[i])))
        a_fold_rows.append([linking[i] * sum(cartan.a[k][j] for k in orbit_i)
                            for j in reps])
    return FoldedData(reps=reps, orbit_len=tuple(m_len),
                      linking=tuple(linking),
                      a_fold=CartanData.from_matrix(a_fold_rows),
                      orbits=tuple(orbits))


def walk_orbit_reps(a, perm):
    """`ProblemInstance.orbit_reps`, each node and edge orbit walked as a
    set of nodes under sigma until it repeats."""
    def least(*nodes):
        images, cur = [], tuple(sorted(nodes))
        while cur not in images:
            images.append(cur)
            cur = tuple(sorted(perm[v] for v in cur))
        return min(images)
    n = len(a)
    return tuple((i, tuple(j for j in range(i + 1, n)
                           if a[i][j] and least(i, j) == (i, j)))
                 for i in range(n) if least(i) == (i,))


# --- the canonical weight at the origin by its trace ----------------------


def traced_lambda0(rank):
    """L0(a_j^vee) = tr(sigma^-1 ad_{a_j^vee}) / (1 - omega) at M = 2,
    summed over the root vectors E_ab of sl_{rank+1}.

    The involution is sigma(X) = -J X^T J^{-1} with J[k][n-1-k] = (-1)^k,
    so sigma(X)[a][b] = -(-1)^(a+b) X[n-1-b][n-1-a]."""
    size = rank + 1
    pairings = []
    for j in range(rank):
        h = [[Fraction(0)] * size for _ in range(size)]
        # alpha_j^vee = [E_j, F_j] = E_jj - E_(j+1)(j+1)
        h[j][j] = Fraction(1)
        h[j + 1][j + 1] = Fraction(-1)
        total = Fraction(0)
        for a in range(size):
            for b in range(a + 1, size):
                # ad_h E_ab = (h_a - h_b) E_ab
                factor = h[a][a] - h[b][b]
                if not factor:
                    continue
                # sigma(E_ab)[a][b] = -(-1)^(a+b) iff a + b = n - 1, else 0
                if a + b == size - 1:
                    total -= factor * (-1) ** (a + b)
        pairings.append(total / 2)  # 1 - omega = 2 for omega = -1
    return Weight(pairings)
