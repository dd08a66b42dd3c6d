"""Exact scalars in cyclotomic fields Q(zeta_M).

An element is a residue class in Q[w]/Phi_M(w), stored as a coefficient
vector of length deg Phi_M.  For M in {1, 2} the representative has length
one, so arithmetic collapses to plain rational arithmetic.  Scalars of
different orders are promoted to the lcm order on demand; the promotion
w_M -> w_L^(L/M) is the standard embedding Q(zeta_M) -> Q(zeta_L).

All values are immutable.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import cmath

from .errors import InputError


def _poly_divmod(num, den):
    """Divide integer-coefficient polynomial lists (lowest degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    assert all(c == 0 for c in num[len(den) - 1:])
    return out, num[:len(den) - 1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M):
    """Coefficients of Phi_M, lowest degree first, integer entries."""
    if M < 1:
        raise InputError(f"cyclotomic order must be >= 1, got {M}")
    poly = [-1] + [0] * (M - 1) + [1]  # w^M - 1
    for d in range(1, M):
        if M % d == 0:
            q, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not any(rem)
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_deg(M):
    return len(cyclotomic_polynomial(M)) - 1


@lru_cache(maxsize=None)
def _traces(M):
    """Tr(w^k) for k < deg Phi_M, the Ramanujan sums c_M(k).

    w^k is a primitive n-th root of unity, n = M / gcd(k, M); the primitive
    n-th roots sum to minus the subleading coefficient of Phi_n, and the
    trace from Q(zeta_M) is [Q(zeta_M):Q(zeta_n)] times that sum.
    """
    out = []
    for k in range(_phi_deg(M)):
        n = M // gcd(k, M)
        out.append(-cyclotomic_polynomial(n)[-2] * _phi_deg(M) // _phi_deg(n))
    return tuple(out)


def _reduce_mod_phi(coeffs, M):
    """Reduce a Fraction list modulo Phi_M, returning a tuple of length deg."""
    phi = cyclotomic_polynomial(M)
    d = len(phi) - 1
    work = list(coeffs) + [Fraction(0)] * max(0, d - len(coeffs))
    for k in range(len(work) - 1, d - 1, -1):
        c = work[k]
        if c:
            # w^k = -c * (phi - w^d) shifted; phi is monic
            for j in range(d):
                work[k - d + j] -= c * phi[j]
        work[k] = Fraction(0)
    return tuple(work[:d])


class Cyc:
    """Element of Q(zeta_M) with M = self.order."""

    __slots__ = ("order", "vec")

    def __init__(self, order, vec):
        self.order = order
        self.vec = vec  # tuple of Fractions, length = deg Phi_M

    # construction -----------------------------------------------------

    @staticmethod
    def of(value, order=1):
        """Coerce an int / Fraction / Cyc into a Cyc of at least `order`."""
        if isinstance(value, Cyc):
            return value.promote(lcm(value.order, order))
        q = Fraction(value)
        vec = [Fraction(0)] * _phi_deg(order)
        vec[0] = q
        return Cyc(order, tuple(vec))

    @staticmethod
    def root_of_unity(M, k=1):
        """zeta_M^k as an element of Q(zeta_M)."""
        k %= M
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return Cyc(M, _reduce_mod_phi(coeffs, M))

    def promote(self, L):
        if L == self.order:
            return self
        if L % self.order:
            raise InputError(f"cannot promote Q(zeta_{self.order}) into Q(zeta_{L})")
        step = L // self.order
        coeffs = [Fraction(0)] * ((len(self.vec) - 1) * step + 1)
        for k, c in enumerate(self.vec):
            coeffs[k * step] = c
        return Cyc(L, _reduce_mod_phi(coeffs, L))

    # predicates -------------------------------------------------------

    def is_zero(self):
        return not any(self.vec)

    def __bool__(self):
        return any(self.vec)

    def is_rational(self):
        return not any(self.vec[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise InputError(f"{self} is not rational")
        return self.vec[0]

    # arithmetic -------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.of(other)
        L = lcm(self.order, other.order)
        return self.promote(L), other.promote(L)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyc(a.order, tuple(x + y for x, y in zip(a.vec, b.vec)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, tuple(-x for x in self.vec))

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyc(a.order, tuple(x - y for x, y in zip(a.vec, b.vec)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyc(self.order, tuple(x * q for x in self.vec))
        a, b = self._pair(other)
        n = len(a.vec)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(a.vec):
            if x:
                for j, y in enumerate(b.vec):
                    if y:
                        prod[i + j] += x * y
        return Cyc(a.order, _reduce_mod_phi(prod, a.order))

    __rmul__ = __mul__

    def inverse(self):
        """Inverse via the extended Euclidean algorithm in Q[w]."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if self.is_rational():
            return Cyc.of(1 / self.vec[0], self.order)
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.vec)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            for k in range(len(p) - 1, -1, -1):
                if p[k]:
                    return k
            return -1

        while deg(r1) > 0:
            q = [Fraction(0)] * (deg(r0) - deg(r1) + 1)
            rem = list(r0)
            while deg(rem) >= deg(r1):
                k = deg(rem) - deg(r1)
                c = rem[deg(rem)] / r1[deg(r1)]
                q[k] += c
                for j in range(deg(r1) + 1):
                    rem[k + j] -= c * r1[j]
            new_s = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - len(s0) - 1)
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        new_s[i + j] -= qc * sc
            r0, r1 = r1, rem
            s0, s1 = s1, new_s
        d = deg(r1)
        if d < 0:
            raise ZeroDivisionError("zero divisor in cyclotomic field")
        unit = r1[0]
        inv = [c / unit for c in s1]
        return Cyc(self.order, _reduce_mod_phi(inv, self.order))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyc(self.order, tuple(x / q for x in self.vec))
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.of(other, self.order) / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyc.of(1, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.of(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self._pair(other)
        return a.vec == b.vec

    def __hash__(self):
        # Tr(a) / [Q(zeta_M):Q] does not change under promotion, so equal
        # values hash equally across orders; a rational q hashes as q
        trace = sum(q * t for q, t in zip(self.vec, _traces(self.order)) if q)
        return hash(Fraction(trace, len(self.vec)))

    # output -----------------------------------------------------------

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
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Cyc({self.order}, {self})"


def primitive_root(M, power=1):
    """A declared primitive M-th root of unity omega = w^power."""
    if M >= 1 and gcd(power, M) != 1:
        raise InputError(f"w^{power} is not primitive of order {M}")
    return Cyc.root_of_unity(M, power)


ZERO = Cyc.of(0)
ONE = Cyc.of(1)
