"""Exact scalars in cyclotomic fields Q(zeta_M).

An element is a residue class in Q[w]/Phi_M(w), stored as FLINT's fmpq_poly
stores a rational polynomial (Hart, ICMS 2010): a tuple `num` of deg Phi_M
integers over one positive integer `den`, with gcd(den, *num) = 1.  The
form is canonical, so equal values of one order have equal fields, and all
arithmetic runs on ints: sums go over a common denominator, products
convolve the numerators and multiply the denominators, and a product is
reduced modulo Phi_M through a cached table of w^k mod Phi_M.  For M in
{1, 2} the representative has length one, so arithmetic collapses to one
rational sum or product.  The degree-2 fields M in {3, 4, 6} (Q(zeta_6)
= Q(zeta_3), but the two orders stay apart) reduce in closed form, by
w^2 = -1 - w, -1 and w - 1: a product is four int products and no table.
`vec` gives the coefficients as Fractions for output and tests.  Scalars
of different orders are promoted to the lcm order on demand; the
promotion w_M -> w_L^(L/M) is the standard embedding Q(zeta_M) ->
Q(zeta_L).

All values are immutable.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import add, sub
import cmath

from .errors import InputError


def _factor(n):
    """The (prime, exponent) pairs of n >= 1, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M):
    """Coefficients of Phi_M, lowest degree first, integer entries.

    Phi_M(w) = Phi_m(w^(M/m)) for m = rad M, the product of the primes of
    M, and Phi_m = prod_(d | m) (w^d - 1)^mu(m/d) (Arnold & Monagan, Math.
    Comp. 80, 2011).  The product runs on power series truncated at deg
    Phi_m: a factor 1 - w^d is one shift-and-subtract, a divisor by it one
    running sum at stride d, and the signs of the w^d - 1 cancel for m > 1.
    """
    if M < 1:
        raise InputError(f"cyclotomic order must be >= 1, got {M}")
    primes = [p for p, _ in _factor(M)]
    m, deg = prod(primes), prod(p - 1 for p in primes)
    series = [1] + [0] * deg
    for k in range(len(primes) + 1):
        for omitted in combinations(primes, k):
            d = m // prod(omitted)    # mu(m/d) = (-1)^k
            if k % 2:
                for i in range(d, deg + 1):
                    series[i] += series[i - d]
            else:
                for i in range(deg, d - 1, -1):
                    series[i] -= series[i - d]
    if m == 1:
        series = [-c for c in series]    # Phi_1 = w - 1 = -(1 - w)
    out = [0] * (deg * (M // m) + 1)
    out[::M // m] = series
    return tuple(out)


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


_ROWS = {}


def _rows(M, top):
    """Row k - d is w^k mod Phi_M, d <= k <= top, d = deg Phi_M, as the
    (index, int) pairs of its nonzero entries.  Cached per M; products read
    rows up to 2d - 2, and the table grows on demand past that."""
    phi = cyclotomic_polynomial(M)
    d = len(phi) - 1
    rows = _ROWS.setdefault(M, [])
    while len(rows) <= top - d:
        # w^(k+1) = w * w^k, and the w^d it makes is -sum_(j<d) phi_j w^j
        prev = [0] * d
        if rows:
            for j, x in rows[-1]:
                prev[j] = x
        else:
            prev[-1] = 1
        lead = prev[-1]
        step = [0] + prev[:-1]
        if lead:
            step = [x - lead * p for x, p in zip(step, phi)]
        rows.append(tuple((j, x) for j, x in enumerate(step) if x))
    return rows


def _reduce_mod_phi(coeffs, M):
    """Reduce an int list modulo Phi_M, returning a tuple of length deg."""
    d = _phi_deg(M)
    if len(coeffs) <= d:
        return tuple(coeffs) + (0,) * (d - len(coeffs))
    if len(coeffs) == 3 and d == 2:  # a product of two entries
        return _fold_w2(*coeffs, M)
    out = list(coeffs[:d])
    for c, row in zip(coeffs[d:], _rows(M, len(coeffs) - 1)):
        if c:
            for j, x in row:
                out[j] += c * x
    return tuple(out)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _pseudo_divmod(a, b):
    """(f, q, r) with f a = q b + r in Z[w], deg r < deg b and f a power of
    the leading coefficient of b; lists lowest degree first, b trimmed."""
    n, lead = len(b) - 1, b[-1]
    r, q, f = list(a), [0] * (len(a) - n), 1
    for k in range(len(a) - 1 - n, -1, -1):
        c = r.pop()
        f *= lead
        q = [x * lead for x in q]
        q[k] += c
        r = [x * lead for x in r]
        for j in range(n):
            r[k + j] -= c * b[j]
    return f, q, _trim(r)


def _poly_mul(a, b):
    """Product of int coefficient lists, lowest degree first."""
    nz = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                out[i + j] += x * y
    return out


def _fold_w2(a0, a1, a2, M):
    """a0 + a1 w + a2 w^2 in a degree-2 field, M in {3, 4, 6}, where
    w^2 = -1 - w, -1 and w - 1."""
    return a0 - a2, a1 - a2 if M == 3 else a1 + a2 if M == 6 else a1


def _product(a, b, M):
    """The product of two numerator tuples over Q(zeta_M), reduced modulo
    Phi_M; in closed form for the degree-2 fields."""
    if len(a) == 2:
        (a0, a1), (b0, b1) = a, b
        return _fold_w2(a0 * b0, a0 * b1 + a1 * b0, a1 * b1, M)
    return _reduce_mod_phi(_poly_mul(a, b), M)


def _cyc(order, num, den):
    """The Cyc of value sum(num[k] w^k) / den, brought to canonical form."""
    if den != 1:
        if den <= 0:
            if not den:
                raise ZeroDivisionError(
                    "cyclotomic scalar with zero denominator")
            num, den = tuple(-x for x in num), -den
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple(x // g for x in num), den // g
    out = object.__new__(Cyc)
    out.order, out.num, out.den = order, num, den
    return out


def _qstr(n, d):
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _text(num, den):
    """str of the Cyc sum(num[k] w^k) / den, den > 0, whether or not num
    and den share a factor."""
    if not any(num[1:]):
        return _qstr(num[0], den)
    parts = []
    for k in range(len(num) - 1, -1, -1):
        x = num[k]
        if not x:
            continue
        c = _qstr(abs(x), den)
        if k == 0:
            term = c
        else:
            mon = "w" if k == 1 else f"w^{k}"
            term = mon if c == "1" else f"{c}*{mon}"
        if not parts:
            parts.append(term if x > 0 else "-" + term)
        else:
            parts.append(("+ " if x > 0 else "- ") + term)
    return " ".join(parts)


class Cyc:
    """Element of Q(zeta_M), M = self.order: sum(num[k] w^k) / den.

    `num` is a tuple of deg Phi_M ints and `den` a positive int with
    gcd(den, *num) = 1, so equal values of one order have equal fields.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, vec):
        """From a tuple of Fractions or ints of length deg Phi_M."""
        qs = [Fraction(q) for q in vec]
        den = lcm(*(q.denominator for q in qs))
        self.order = order
        self.num = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.den = den  # the lcm of reduced denominators: gcd is already 1

    @property
    def vec(self):
        """The coefficients as a tuple of Fractions (read-only)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # construction -----------------------------------------------------

    @staticmethod
    def of(value, order=1):
        """Coerce an int / Fraction / Cyc into a Cyc of at least `order`."""
        if isinstance(value, Cyc):
            return value.promote(lcm(value.order, order))
        if isinstance(value, int):
            n, d = int(value), 1
        else:
            q = Fraction(value)
            n, d = q.numerator, q.denominator
        return _cyc(order, (n,) + (0,) * (_phi_deg(order) - 1), d)

    @staticmethod
    def root_of_unity(M, k=1):
        """zeta_M^k as an element of Q(zeta_M)."""
        k %= M
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return _cyc(M, _reduce_mod_phi(coeffs, M), 1)

    def promote(self, L):
        if L == self.order:
            return self
        if L % self.order:
            raise InputError(f"cannot promote Q(zeta_{self.order}) into Q(zeta_{L})")
        step = L // self.order
        coeffs = [0] * ((len(self.num) - 1) * step + 1)
        coeffs[::step] = self.num
        return _cyc(L, _reduce_mod_phi(coeffs, L), self.den)

    # predicates -------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise InputError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # arithmetic -------------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, Cyc):
            other = Cyc.of(other)
        L = lcm(self.order, other.order)
        return self.promote(L), other.promote(L)

    def __add__(self, other):
        a, b = self, other
        if not isinstance(b, Cyc) or a.order != b.order:
            a, b = a._pair(b)
        ad, bd = a.den, b.den
        if ad == bd:
            return _cyc(a.order, tuple(map(add, a.num, b.num)), ad)
        return _cyc(a.order, tuple([x * bd + y * ad
                                    for x, y in zip(a.num, b.num)]), ad * bd)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, tuple([-x for x in self.num]), self.den)

    def __sub__(self, other):
        a, b = self, other
        if not isinstance(b, Cyc) or a.order != b.order:
            a, b = a._pair(b)
        ad, bd = a.den, b.den
        if ad == bd:
            return _cyc(a.order, tuple(map(sub, a.num, b.num)), ad)
        return _cyc(a.order, tuple([x * bd - y * ad
                                    for x, y in zip(a.num, b.num)]), ad * bd)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _cyc(self.order, tuple([x * other for x in self.num]),
                        self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return _cyc(self.order, tuple([x * n for x in self.num]),
                        self.den * other.denominator)
        a, b = self, other
        if not isinstance(b, Cyc):
            b = Cyc.of(b)
        if a.order != b.order:
            L = lcm(a.order, b.order)
            # a rational operand of order <= 2 stays one entry
            if len(b.num) == 1:
                a = a.promote(L)
            elif len(a.num) == 1:
                a, b = b.promote(L), a
            else:
                a, b = a.promote(L), b.promote(L)
        if len(b.num) == 1:
            y = b.num[0]
            return _cyc(a.order, tuple([x * y for x in a.num]), a.den * b.den)
        return _cyc(a.order, _product(a.num, b.num, a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse by the extended Euclidean algorithm in Z[w] on primitive
        pseudo-remainders (Knuth, TAOCP vol. 2, 4.6.1)."""
        num, den, order = self.num, self.den, self.order
        if not any(num):
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        if not any(num[1:]):
            return _cyc(order, (den,) + num[1:], num[0])
        # invariant: s_i a = e_i r_i modulo Phi_M, a = sum(num[k] w^k)
        r0, r1 = list(cyclotomic_polynomial(order)), _trim(list(num))
        s0, s1, e0, e1 = [0], [1], 1, 1
        while len(r1) > 1:
            f, q, rem = _pseudo_divmod(r0, r1)
            if not rem:
                raise ZeroDivisionError("zero divisor in cyclotomic field")
            qs = _poly_mul(q, s1)
            s = [f * e1 * x for x in s0] + [0] * max(0, len(qs) - len(s0))
            for k, x in enumerate(qs):
                s[k] -= e0 * x
            g = gcd(*rem)
            e = e0 * e1 * g
            h = gcd(e, gcd(*s))
            r0, r1 = r1, [x // g for x in rem]
            s0, s1 = s1, _trim([x // h for x in s])
            e0, e1 = e1, e // h
        # s_1 a = e_1 r_1, a constant: 1 / (a / den) = den s_1 / (e_1 r_1)
        return _cyc(order, tuple(x * den for x in _reduce_mod_phi(s1, order)),
                    e1 * r1[0])

    def __truediv__(self, other):
        if isinstance(other, int):
            return _cyc(self.order, self.num, self.den * other)
        if isinstance(other, Fraction):
            d = other.denominator
            return _cyc(self.order, tuple([x * d for x in self.num]),
                        self.den * other.numerator)
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.of(other, self.order) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"cyclotomic scalar to the non-integer power {n}")
        if n < 0:
            return self.inverse() ** (-n)
        if n < 2:
            return self if n else Cyc.of(1, self.order)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.of(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = self, other
        if a.order != b.order:
            a, b = a._pair(b)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # Tr(a) / [Q(zeta_M):Q] does not change under promotion, so equal
        # values hash equally across orders; a rational q hashes as q
        trace = sum(x * t for x, t in zip(self.num, _traces(self.order)) if x)
        return hash(Fraction(trace, self.den * len(self.num)))

    # output -----------------------------------------------------------

    def __complex__(self):
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(complex(x / self.den) * z ** k
                   for k, x in enumerate(self.num))

    def __str__(self):
        return _text(self.num, self.den)

    def __repr__(self):
        return f"Cyc({self.order}, {self})"


ZERO = Cyc.of(0)
ONE = Cyc.of(1)
