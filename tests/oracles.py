"""Oracles that the tests compare the library against.

Each one computes a quantity of the paper by a route that no command
takes: the operator D(y), whose kernel is the space of a type-A
population (the library proves membership by the space itself), the
bilinear form of any two vectors of a space, a divided Wronskian from a
fresh Wronskian, the orbit-sum identity of the weight at the origin, and
the eigenvalues in floating point.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

from cybethe import typea
from cybethe.cartan import inner_product, weight_orbit
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
