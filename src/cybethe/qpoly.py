"""Exact quasi-polynomial algebra.

A quasi-polynomial is a finite sum of terms c * x^e with exact cyclotomic
coefficients c and exponents e in (1/D)Z; negative exponents are allowed
in intermediate (Laurent) values, and `is_quasi` reports whether all are
nonnegative.

A QPoly is stored as FLINT's fmpq_poly stores a rational polynomial (Hart,
ICMS 2010), lifted to quasi-polynomials: its field order L, its exponent
denominator D, one common denominator, ascending int exponents k (each
standing for x^(k/D)) and one int numerator per term, a tuple of
deg Phi_L ints when deg Phi_L > 1.  The form is canonical (least D, no
factor shared by the denominator and every numerator entry, no zero
term), so sums, products, derivatives, substitutions, dense forms and
exact division all run on ints.  A `Cyc` is built only when a coefficient
is read: `coeff`, `leading_coeff`, the ascending `terms` view (an
exponent is an int when integral, else a Fraction) and `str`.

L records how the poly was computed, not the smallest field of its
value: a product over Q(zeta_4) and Q(zeta_3) lies in Q(zeta_12) even
when its value is rational.  Sums and products work at the lcm of the
operands' orders, and zero has order 1.  Nothing reads L as the field of
a value: equality compares values, and `serialize` writes each value in
the least field that holds it.  One kernel, `_sum_of_products`, sums
products with int, Fraction or Cyc multipliers as one integer
convolution over one common denominator, reduced modulo Phi_L once per
output term: a product is its one-pair case, `wronskian_table` builds
each minor with one call over all of its pairs, `frame.is_critical_exact`
builds each colour's residue expression with one call, and
`typea._combine` each linear combination sum c_j p_j with one call.  A
product with a monomial c x^e (so a `scale`) and an exact division by one
skip the kernel: an exponent shift and one numerator product per term.

Division, gcd and squarefree tests work through the substitution x = s^D,
which turns everything into dense polynomials over the coefficient field.
A gcd with a monomial (a nonzero constant, say) is x^min(low exponents)
at once.  The Euclidean fallback of the gcd runs on `Cyc` entries, whose
field orders follow each remainder.

f(s x) for a root of unity s of order r reads s^k as s^(k mod r) from one
cached table of its powers, keyed on the exact layout (order, num, den)
of s, never on the `Cyc`: -1 of order 4 equals and hashes as -1 of order
1, but its powers keep order 4.  Other s take a running product.

The Wronskian first-order solver `wronskian_ode_solve` is the primitive
behind every generation step and every `typea.kernel_basis`: it finds Y
with Wr(f, Y) = W by one back-substitution sweep down the exponents of
Y, never by integrating rational functions.  The equations are
triangular in the exponents; the one zero pivot belongs to the kernel
direction Y = f, whose coefficient is set to zero.  The sweep runs on
the numerators of f and W lifted once to one field order and exponent
denominator, each coefficient of Y an int numerator over its own int
denominator; f is monic (a non-monic f is first scaled to one), so each
step divides by an int only.  An exponent that no term of W and no
coefficient of Y already solved reaches is structurally zero and takes
no work.  One kernel call checks the result exactly.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count
from math import gcd, lcm
from operator import sub

from .errors import (AmbiguousNormalization, BranchUndefined, InexactDivision,
                     NoSolution)
from .scalars import (ONE, ZERO, Cyc, _cyc, _phi_deg, _product,
                      _reduce_mod_phi, cyclotomic_polynomial)


def _exponent(k, D):
    """The number k / D: an int when integral, else a Fraction."""
    return k // D if k % D == 0 else Fraction(k, D)


def _nonzero(n):
    """True iff the numerator n, an int or a tuple of ints, is nonzero."""
    return any(n) if type(n) is tuple else n != 0


def _times_int(n, m):
    return n * m if type(n) is int else tuple([x * m for x in n])


def _mul(a, b, L):
    """The product of two numerators over Q(zeta_L)."""
    if L <= 2:
        return a * b
    if not any(b[1:]):
        return tuple([x * b[0] for x in a])
    if not any(a[1:]):
        return tuple([x * a[0] for x in b])
    return _product(a, b, L)


def _lift_nums(nums, M, L):
    """Numerators over Q(zeta_M) as numerators over Q(zeta_L), M | L, by
    w_M -> w_L^(L/M)."""
    if M == L or L <= 2:
        return nums
    if M <= 2:  # a rational n is n + 0 w + ...
        pad = (0,) * (_phi_deg(L) - 1)
        return [(n, *pad) for n in nums]
    pad = (0,) * (L // M - 1)  # w_M^j = w_L^(j L/M)
    return [_reduce_mod_phi([y for x in (n if M > 2 else (n,))
                             for y in (x, *pad)], L) for n in nums]


def _num(c, L):
    """(numerator, den) of the Cyc c in Q(zeta_L)."""
    c = c.promote(L)
    return c.num[0] if L <= 2 else c.num, c.den


def _qp(L, D, den, ks, nums):
    """The QPoly sum (nums[i] / den) x^(ks[i] / D) over Q(zeta_L), for
    ascending ks and nonzero nums, brought to canonical form."""
    if not ks:
        return _ZERO
    g, h = gcd(D, *ks), gcd(den, *(nums if L <= 2 else chain(*nums)))
    h = -h if den < 0 else h
    p = object.__new__(QPoly)
    p.L, p.D, p.den = L, D // g, den // h
    p.ks = ks if g == 1 else [k // g for k in ks]
    p.nums = nums if h == 1 else [n // h if L <= 2 else tuple(
        [x // h for x in n]) for n in nums]
    return p


class QPoly:
    """Immutable quasi-polynomial with ascending exponents and exact
    coefficients in one field, stored as ints (see the module docstring).
    The lists `ks` and `nums` are never changed after construction."""

    __slots__ = ("L", "D", "den", "ks", "nums")

    def __init__(self, terms):
        """From a mapping {exponent: coefficient}; zero coefficients are
        dropped."""
        items = sorted((Fraction(e), Cyc.of(c)) for e, c in terms.items() if c)
        L = self.L = lcm(*(c.order for _, c in items))
        D = self.D = lcm(*(e.denominator for e, _ in items))
        cs = [_num(c, L) for _, c in items]
        den = self.den = lcm(*(d for _, d in cs))
        self.ks = [e.numerator * (D // e.denominator) for e, _ in items]
        self.nums = [_times_int(n, den // d) for n, d in cs]

    # construction -----------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def x_power(e, coeff=1):
        return _monomial(Cyc.of(coeff), Fraction(e))

    @staticmethod
    def constant(c):
        return QPoly({0: c})

    def _lift(self, L, D):
        """(ks, nums) of self at field order L and exponent denominator D."""
        if D == self.D and L == self.L:
            return self.ks, self.nums
        ks = self.ks if D == self.D else [k * (D // self.D) for k in self.ks]
        return ks, _lift_nums(self.nums, self.L, L)

    # structure --------------------------------------------------------

    def is_zero(self):
        return not self.ks

    def __bool__(self):
        return bool(self.ks)

    def _coeff_at(self, i):
        n = self.nums[i]
        return _cyc(self.L, n if self.L > 2 else (n,), self.den)

    @property
    def terms(self):
        """{exponent: Cyc} in ascending exponent order, built on each read."""
        return {_exponent(k, self.D): self._coeff_at(i)
                for i, k in enumerate(self.ks)}

    @property
    def degree(self):
        """Maximal exponent; None for the zero quasi-polynomial."""
        return _exponent(self.ks[-1], self.D) if self.ks else None

    @property
    def low_exponent(self):
        return _exponent(self.ks[0], self.D) if self.ks else None

    @property
    def denom(self):
        """Minimal common exponent denominator of the support."""
        return self.D

    def coeff(self, e):
        e = e if isinstance(e, (int, Fraction)) else Fraction(e)
        k, r = divmod(e.numerator * self.D, e.denominator)
        i = bisect_left(self.ks, k)
        if r == 0 and i < len(self.ks) and self.ks[i] == k:
            return self._coeff_at(i)
        return ZERO

    def leading_coeff(self):
        if not self.ks:
            raise ValueError("zero quasi-polynomial has no leading coefficient")
        return self._coeff_at(-1)

    def is_quasi(self):
        """True iff all exponents are >= 0."""
        return not self.ks or self.ks[0] >= 0

    def is_polynomial(self):
        return self.D == 1 and self.is_quasi()

    def field_order(self):
        """The order L of the one field Q(zeta_L) of the coefficients."""
        return self.L

    def exponent_classes(self):
        """Support split by exponent residue mod 1: {residue: QPoly}."""
        parts = {}
        for i, k in enumerate(self.ks):
            parts.setdefault(k % self.D, []).append(i)
        return {_exponent(r, self.D): _qp(
            self.L, self.D, self.den, [self.ks[i] for i in idx],
            [self.nums[i] for i in idx]) for r, idx in sorted(parts.items())}

    def is_monomial(self):
        return len(self.ks) == 1

    # arithmetic -------------------------------------------------------

    def __add__(self, other):
        """The sum at the lcm of the two field orders."""
        if not isinstance(other, QPoly):
            other = QPoly.constant(other)
        if not (self.ks and other.ks):
            return self or other
        return _sum_of_products([(1, self, _ONE), (1, other, _ONE)],
                                lcm(self.L, other.L))

    __radd__ = __add__

    def __neg__(self):
        return _qp(self.L, self.D, -self.den, self.ks, self.nums)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return self.scale(other)
        if not (self.ks and other.ks):
            return _ZERO
        L = lcm(self.L, other.L)
        if len(self.ks) == 1 or len(other.ks) == 1:
            return _by_monomial(self, other, L)
        return _sum_of_products([(1, self, other)], L)

    def scale(self, c):
        m = _monomial(c if isinstance(c, Cyc) else Cyc.of(c), 0)
        return _by_monomial(self, m, lcm(self.L, m.L)) if m and self else _ZERO

    __rmul__ = scale

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"quasi-polynomial to the non-integer power {n}")
        if n < 0:
            raise ValueError("negative power of a quasi-polynomial")
        if n < 2:
            return self if n else _ONE
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def __eq__(self, other):
        if isinstance(other, (Cyc, int, Fraction)):
            other = QPoly.constant(other)
        elif not isinstance(other, QPoly):
            return NotImplemented
        if self.L == other.L:
            return (self.D, self.den, self.ks, self.nums) == \
                (other.D, other.den, other.ks, other.nums)
        return self.ks == other.ks and (self - other).is_zero()

    def __hash__(self):
        # a constant compares equal to its coefficient, so it hashes as one;
        # the hash of a Cyc does not change under promotion
        if not self.ks or self.ks == [0]:
            return hash(self.coeff(0))
        return hash(tuple(self.terms.items()))

    # calculus and evaluation -------------------------------------------

    def derivative(self):
        D, pick = self.D, [i for i, k in enumerate(self.ks) if k]
        return _qp(self.L, D, self.den * D, [self.ks[i] - D for i in pick],
                   [_times_int(self.nums[i], self.ks[i]) for i in pick])

    def eval_at(self, point):
        """Evaluate at an exact scalar; requires integer exponents >= 0."""
        if not self.is_polynomial():
            raise BranchUndefined("evaluation needs integer exponents >= 0")
        point = point if isinstance(point, Cyc) else Cyc.of(point)
        return sum((c * point ** e for e, c in self.terms.items()), ZERO)

    def is_monic(self):
        """True iff the leading coefficient is 1, read off the ints."""
        if not self.ks:
            return False
        n, den = self.nums[-1], self.den
        return (n == den) if self.L <= 2 else (n[0] == den and not any(n[1:]))

    def monic(self):
        if not self.ks or self.is_monic():
            return self
        return self.scale(self.leading_coeff().inverse())

    def substitute_scale(self, s):
        """f(s*x) for an exact scalar s.

        Integer exponents admit any nonzero s.  On fractional support only
        s = -1 is defined, through the fixed branch of `negate_argument`.
        """
        s = s if isinstance(s, Cyc) else Cyc.of(s)
        if self.D != 1:
            if s == Cyc.of(-1):
                return self.negate_argument()
            raise BranchUndefined(
                "substitute_scale with fractional exponents is only fixed "
                "for s = -1 (branch (-1)^m = e^(i pi m))")
        powers = _root_powers(s.order, s.num, s.den)
        if powers:
            return _scaled(self, [powers[k % len(powers)] for k in self.ks])
        # s^k from one running product over the gaps between exponents
        cs, steps = [s ** k for k in self.ks[:1]], {1: s}
        for gap in map(sub, self.ks[1:], self.ks):
            cs.append(cs[-1] * (steps.get(gap) or steps.setdefault(
                gap, s ** gap)))
        return _scaled(self, cs)

    def negate_argument(self):
        """f(-x) with the branch (-1)^m = e^(i pi m) for m in (1/2)Z.

        For half-integer exponents this adjoins i = zeta_4, promoting the
        coefficient field to Q(zeta_lcm(order, 4)).
        """
        D, i_unit = self.D, Cyc.root_of_unity(4)
        for k in self.ks:
            if D // gcd(k, D) > 2:
                raise BranchUndefined(
                    f"no branch fixed for exponent denominator "
                    f"{D // gcd(k, D)}")
        # x^(k/2) for odd k: (-1)^(k // 2 + 1/2) = i * (-1)^(k // 2)
        return _scaled(self, [(i_unit if k % D else ONE) * (
            1 - 2 * (k // D % 2)) for k in self.ks])

    # dense view through x = s^D ----------------------------------------

    def _dense(self, D=None, L=None):
        """(low, (L, den, nums)) with f = x^low * sum (nums[j] / den) s^j,
        s = x^(1/D): the numerators over Q(zeta_L), zeros in the gaps."""
        D, L = D or self.D, L or self.L
        if not self.ks:
            return 0, (L, 1, [])
        ks, nums = self._lift(L, D)
        out = [0 if L <= 2 else (0,) * _phi_deg(L)] * (ks[-1] - ks[0] + 1)
        for k, n in zip(ks, nums):
            out[k - ks[0]] = n
        return _exponent(ks[0], D), (L, self.den, out)

    @staticmethod
    def _from_dense(low, dense, D):
        """The QPoly x^low * sum (nums[j] / den) s^j, s = x^(1/D), of a
        dense form (L, den, nums)."""
        L, den, nums = dense
        base = low.numerator * (D // low.denominator)
        pick = [j for j, n in enumerate(nums) if _nonzero(n)]
        return _qp(L, D, den, [base + j for j in pick],
                   [nums[j] for j in pick])

    def __str__(self):
        if not self.ks:
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

    def __repr__(self):
        return f"QPoly({self})"


_ZERO = QPoly({})
_ONE = QPoly({0: 1})


@lru_cache(maxsize=64)
def _root_powers(order, num, den):
    """(1, s, ..., s^(r-1)) when s = sum(num[k] w^k) / den in Q(zeta_order)
    is a root of unity of order r, else None.  Keyed on the exact layout,
    never on the Cyc: Cyc(4, -1) == Cyc(1, -1), but their powers keep
    orders 4 and 1.  A root of unity has den 1, and its order divides
    lcm(2, order), so one power tests it."""
    s = _cyc(order, num, 1)
    if den != 1 or s ** lcm(2, order) != 1:
        return None
    powers = [Cyc.of(1, order), s]
    while powers[-1].num != powers[0].num:
        powers.append(powers[-1] * s)
    return tuple(powers[:-1])


def _scaled(p, cs):
    """The sum of c_i t_i over the terms t_i of p and nonzero Cycs c_i, at
    the lcm of their orders."""
    L = lcm(p.L, *(c.order for c in cs))
    cs = [_num(c, L) for c in cs]
    den = lcm(*(d for _, d in cs))
    return _qp(L, p.D, p.den * den, p.ks, [
        _times_int(_mul(n, b, L), den // d)
        for n, (b, d) in zip(_lift_nums(p.nums, p.L, L), cs)])


def _monomial(c, e):
    """The QPoly c x^e of a Cyc c and a rational e, at the order of c."""
    if not c:
        return _ZERO
    n, d = _num(c, c.order)
    return _qp(c.order, e.denominator, d, [e.numerator], [n])


def _by_monomial(f, g, L):
    """f * g over Q(zeta_L) for nonzero f and g, one of them a monomial:
    an exponent shift and one numerator product per term."""
    f, m = (f, g) if len(g.ks) == 1 else (g, f)
    D = lcm(f.D, m.D)
    (fk, fn), ((k,), (c,)) = f._lift(L, D), m._lift(L, D)
    return _qp(L, D, f.den * m.den, [j + k for j in fk],
               [_mul(n, c, L) for n in fn])


def _multiplier(c, L):
    """(numerator, denominator) of the Cyc c: an int numerator when c is
    rational, else c's numerator tuple over Q(zeta_L)."""
    if not any(c.num[1:]):
        return c.num[0], c.den
    return _lift_nums([c.num], c.order, L)[0], c.den


def _sum_of_products(pairs, L):
    """The sum of c * f * g over the (c, f, g) in pairs, c a nonzero int,
    Fraction or Cyc and f, g nonzero QPolys, all of orders dividing L: one
    integer convolution over one common denominator, one reduction modulo
    Phi_L per output term and one QPoly.  An irrational Cyc c multiplies
    the numerators of f once."""
    D = lcm(*[p.D for _, f, g in pairs for p in (f, g)])
    cs = [_multiplier(c, L) if type(c) is Cyc else
          (c.numerator, c.denominator) for c, _, _ in pairs]
    den = lcm(*[f.den * g.den * cd for (_, cd), (_, f, g) in zip(cs, pairs)])
    acc, width = {}, 2 * _phi_deg(L) - 1
    for (cn, cd), (_, f, g) in zip(cs, pairs):
        m = den // (f.den * g.den * cd)
        (fk, fn), (gk, gn) = f._lift(L, D), g._lift(L, D)
        if type(cn) is tuple:
            fn = [_mul(a, cn, L) for a in fn]
        else:
            m *= cn
        if L <= 2:
            gl = list(zip(gk, gn))
            for k1, a in zip(fk, fn):
                a *= m
                for k2, b in gl:
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + a * b
            continue
        gl = [(k2, [(j, y) for j, y in enumerate(b) if y])
              for k2, b in zip(gk, gn)]
        for k1, a in zip(fk, fn):
            a = [(i, x * m) for i, x in enumerate(a) if x]
            for k2, b in gl:
                s = acc.get(k1 + k2)
                if s is None:
                    s = acc[k1 + k2] = [0] * width
                for i, x in a:
                    for j, y in b:
                        s[i + j] += x * y
    if L > 2:
        acc = {k: _reduce_mod_phi(s, L) for k, s in acc.items()}
        ks = sorted([k for k, n in acc.items() if any(n)])
    else:
        ks = sorted([k for k, n in acc.items() if n])
    return _qp(L, D, den, ks, [acc[k] for k in ks])


def proportional(f, g):
    """True iff f = k*g for some nonzero scalar k (zero ~ zero), that is
    f = lc(f) * monic(g): one scale and an equality."""
    if not (f.ks and g.ks):
        return not (f.ks or g.ks)
    return f == g.monic().scale(f.leading_coeff())


# --- dense helpers over the scalar field -------------------------------

def _exact_quotient(num, den, L):
    """(q, s) with s * num = q * den, s a positive int, for dense numerator
    lists over Q(zeta_L) whose last entries are nonzero, by long division
    on ints; None when a remainder is left.  With lead * inv = t for the
    last entry lead of den, each step scales the remainder by t."""
    inv, t = _num(_cyc(L, den[-1] if L > 2 else (den[-1],), 1).inverse(), L)
    r, q, s = list(num), [], 1
    while len(r) >= len(den):
        c = _mul(r.pop(), inv, L)
        if _nonzero(c):
            if t != 1:
                r = [_times_int(x, t) for x in r]
                q, s = [_times_int(x, t) for x in q], s * t
            k = len(r) - len(den) + 1
            for j, d in enumerate(den[:-1]):
                p = _mul(c, d, L)
                r[k + j] = r[k + j] - p if L <= 2 else tuple(
                    map(sub, r[k + j], p))
        q.append(c)
    return None if any(map(_nonzero, r)) else (q[::-1], s)


def _dense_gcd(a, b):
    """Monic gcd, as a list of Cycs, of dense forms (L, den, nums) whose
    last entries are nonzero: the Euclidean algorithm on Cyc entries, ZERO
    at the gaps, so that each entry's field order follows its remainder."""
    a, b = [[_cyc(L, (n,) if L <= 2 else n, den) if _nonzero(n) else ZERO
             for n in nums] for L, den, nums in (a, b)]
    while b:
        num, dn, inv_lead = list(a), len(b) - 1, b[-1].inverse()
        for k in range(len(num) - len(b), -1, -1):
            c = num[k + dn] * inv_lead
            if not c.is_zero():
                for j, d in enumerate(b):
                    num[k + j] = num[k + j] - c * d
        while num and num[-1].is_zero():
            num.pop()
        a, b = b, num
    inv = a[-1].inverse()
    return [c * inv for c in a]


# --- modular coprimality certificate -----------------------------------
#
# f, g over Q(zeta_L) are coprime iff Res(f, g) != 0.  For a prime
# p = 1 (mod L) and a root r of Phi_L mod p, zeta_L -> r is a ring map onto
# F_p on coefficients whose denominators p does not divide.  When p also
# divides neither leading image, it commutes with the resultant, so
# gcd(f mod p, g mod p) = 1 proves Res(f, g) != 0.  Any other outcome proves
# nothing, and the caller runs the exact Euclidean algorithm: only that path
# ever answers "not coprime".  (Brown, JACM 18, 1971; von zur Gathen and
# Gerhard, Modern Computer Algebra, ch. 6.)

def _is_prime(n):
    """Miller-Rabin with the prime bases up to 37, exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _cert_field(L):
    """(p, powers): the largest prime p = 1 (mod L) below 2^61 and the
    powers r^j, j < L, of a root r of Phi_L mod p."""
    p = ((1 << 61) - 2) // L * L + 1
    while not _is_prime(p):
        p -= L
    phi = cyclotomic_polynomial(L)
    for a in count(2):
        # r is an L-th root of unity; it is primitive iff Phi_L(r) = 0
        r = pow(a, (p - 1) // L, p)
        value = 0
        for c in reversed(phi):
            value = (value * r + c) % p
        if value == 0:
            return p, tuple(pow(r, j, p) for j in range(L))


def _image(dense, L, p, powers):
    """Images in F_p of the entries of a dense form (M, den, nums), M | L;
    None if p divides den.  An order-M numerator sum n_k w^k maps to
    sum n_k r^(k L/M) / den."""
    M, den, nums = dense
    if den % p == 0:
        return None
    inv = pow(den, -1, p)
    if M <= 2:
        return [n * inv % p for n in nums]
    return [sum(x * powers[k * L // M] for k, x in enumerate(n) if x) * inv % p
            for n in nums]


def _fp_coprime(a, b, p):
    """True iff gcd(a, b) = 1 in F_p[s]; both leading entries nonzero."""
    while len(b) > 1:
        n = len(b) - 1
        inv = pow(b[-1], -1, p)
        a = list(a)
        for k in range(len(a) - 1 - n, -1, -1):
            c = a[k + n] * inv % p
            if c:
                a[k:k + n] = [(x - c * y) % p for x, y in zip(a[k:k + n], b)]
        a = a[:n]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _certified_coprime(fc, gc=None):
    """True when one prime proves the dense forms fc, gc coprime over
    Q(zeta_L); gc defaults to the derivative of fc.  False proves nothing."""
    L = lcm(fc[0], gc[0] if gc else 1)
    p, powers = _cert_field(L)
    a = _image(fc, L, p, powers)
    if a is None or not a[-1]:
        return False
    b = [k * x % p for k, x in enumerate(a)][1:] if gc is None else \
        _image(gc, L, p, powers)
    return b is not None and b[-1] != 0 and _fp_coprime(a, b, p)


# --- public operations --------------------------------------------------

def divide_exact(f, g):
    """Exact quotient f / g as a Laurent quasi-polynomial.

    Raises InexactDivision when the remainder after x = s^D substitution
    is nonzero.  The result may have negative exponents; the caller checks
    `is_quasi` where that matters.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero quasi-polynomial")
    if f.is_zero():
        return _ZERO
    L, D = lcm(f.L, g.L), lcm(f.D, g.D)
    if g.is_monomial():  # always exact: f times c^-1 x^-e
        return _by_monomial(
            f, _monomial(g.leading_coeff().inverse(), -g.degree), L)
    flow, (_, fden, fc) = f._dense(D, L)
    glow, (_, gden, gc) = g._dense(D, L)
    q, s = _exact_quotient(fc, gc, L) or (None, 0)
    if q is None:
        raise InexactDivision(f"({f}) is not divisible by ({g})")
    return QPoly._from_dense(
        flow - glow, (L, s * fden, [_times_int(x, gden) for x in q]), D)


def qgcd(f, g):
    """Monic gcd computed after the substitution x = s^D.  A monomial
    operand shares only x^min(low exponents) with the other, which is
    returned at once, as the certificate would prove it."""
    if not (f and g):
        return (f or g or _ONE).monic()
    if len(f.ks) == 1 or len(g.ks) == 1:  # a monomial shares only x^low
        return QPoly.x_power(min(f.low_exponent, g.low_exponent))
    D = lcm(f.D, g.D)
    (flow, fc), (glow, gc) = f._dense(D), g._dense(D)
    shared = min(flow, glow)  # common pure power of x
    lowpow = QPoly.x_power(shared)
    if _certified_coprime(fc, gc):
        return lowpow
    core = _dense_gcd(fc, gc)
    return (QPoly({Fraction(k, D): c for k, c in enumerate(core)})
            * lowpow).monic()


def is_squarefree(f):
    """Squarefree test via gcd(f, f') on the dense representative."""
    if f.is_zero():
        return False
    L, den, nums = fc = f._dense()[1]
    return len(nums) <= 1 or _certified_coprime(fc) or len(_dense_gcd(
        fc, (L, den, [_times_int(n, k) for k, n in enumerate(nums)][1:]))) == 1


def wronskian_table(fs):
    """Wr of every subset of fs by bitmask (bit i for f_i), Wr() = 1.

    Expanding along the last derivative row, Wr(S) is the sum over i in S
    of (-1)^#{j in S : j > i} f_i^(|S|-1) Wr(S - {i}), so each minor is
    built once, bottom-up: n (2^(n-1) - 1) products for n functions.  Each
    Wr(S), |S| >= 2, is one `_sum_of_products` call over its nonzero
    pairs.

    Wr(S) is built in Q(zeta_L), L the lcm of the field orders of S, which
    is the order the sum of `__mul__` products gives, by induction on |S|:
    a nonzero Wr(S - {i}) has order lcm over S - {i}, so every pair used
    has order L in its product, and a sum of order-L terms stays order L.
    """
    fs = list(fs)
    derivs = [[f] for f in fs]
    for row in derivs:
        for _ in fs[1:]:
            row.append(row[-1].derivative())
    table, lifted = [_ONE], {}

    def at(p, L):
        """p over Q(zeta_L), lifted once per table: derivs and table keep
        every p alive, so its id is a key."""
        if p.L == L or L <= 2:  # Q(zeta_2) = Q needs no lift
            return p
        if (id(p), L) not in lifted:
            lifted[id(p), L] = _qp(L, p.D, p.den, p.ks,
                                   _lift_nums(p.nums, p.L, L))
        return lifted[id(p), L]

    for mask in range(1, 1 << len(fs)):
        members = [i for i in range(len(fs)) if mask >> i & 1]
        size, L = len(members), lcm(*[fs[i].L for i in members])
        table.append(fs[members[0]] if size == 1 else _sum_of_products([(
            (-1) ** (size - pos + 1), at(derivs[i][size - 1], L),
            at(table[mask ^ (1 << i)], L)) for pos, i in enumerate(members)
            if derivs[i][size - 1].ks and table[mask ^ (1 << i)].ks], L))
    return table


def wronskian(fs):
    """Wronskian determinant Wr(f_1, ..., f_n) from `wronskian_table`."""
    fs = list(fs)
    if not fs:
        raise ValueError("wronskian of an empty list")
    return wronskian_table(fs)[-1]


def wronskian_ode_solve(f, w_target, norm):
    """Solve Wr(f, Y) = W for Y by one back-substitution sweep.

    `norm` selects the canonical member of the affine solution set
    Y_particular + span(f):

      ("coeff_zero", e)         -- the coefficient of x^e in Y is zero;
      ("holomorphic_at_zero", e0) -- Y supported on exponents e0 + Z>=0,
                                   a class disjoint from the support of f.

    With d = deg f, Wr(f, x^e) = sum_a f_a (e - a) x^(a + e - 1), so the
    coefficient of x^(d + e - 1) in Wr(f, Y) is f_d (e - d) y_e plus
    f_a (d + e - 2a) y_(d + e - a) over a < d: only higher exponents of Y.
    Walking the support from the top down fixes one y_e per equation; this
    is (Y/f)' = W/f^2 read one coefficient at a time.  The one zero pivot,
    e = d, is the kernel direction Y = f, and there y_d = 0.  The exact
    check f Y' - f' Y = W, one `_sum_of_products` call, then proves every
    equation the sweep did not use.  The "coeff_zero" walk starts at x^0,
    so it needs f to be a quasi-polynomial; the holomorphic class never
    meets the zero pivot.

    The sweep runs on the int layout of f and W lifted once to their
    common field order and exponent denominator: each y_e is an int
    numerator (a tuple for deg Phi_L > 1) over its own int denominator.
    For a monic f, f_d = 1, so each step divides only by the int e - d.
    A non-monic f is solved as the monic f / f_d against W / f_d, one
    exact scale of each; f is still returned as the kernel.  Only the
    "coeff_zero" pin reads coefficients as `Cyc`s.

    Returns (particular, homogeneous) where homogeneous = f spans the
    kernel.  Raises NoSolution when no Y solves the equation and
    AmbiguousNormalization when the rule does not pin a unique solution.
    """
    if f.is_zero():
        raise NoSolution("kernel function f must be nonzero")
    kind, pin = norm[0], Fraction(norm[1])
    if w_target.is_zero():
        return _ZERO, f

    # exponents as ints over the common denominator D
    D = lcm(f.D, w_target.D, pin.denominator)
    g, w = f, w_target
    if not f.is_monic():  # Wr(f / f_d, Y) = W / f_d
        inv = f.leading_coeff().inverse()
        g, w = f.scale(inv), w_target.scale(inv)
    L = lcm(g.L, w.L)
    (gk, gn), (wk, wn) = g._lift(L, D), w._lift(L, D)
    d, P = gk[-1], pin.numerator * (D // pin.denominator)
    hi = max(wk[-1] - d + D, d)
    if kind == "coeff_zero":
        if gk[0] < 0:
            raise ValueError("the coeff_zero rule needs f without negative "
                             "exponents")
        support = range(hi + 1)
    elif kind == "holomorphic_at_zero":
        if P % D in {k % D for k in gk}:
            raise AmbiguousNormalization(
                "holomorphic normalization needs a pinned exponent class "
                "disjoint from the support of f")
        support = range(P, max(hi, P) + 1, D)
    else:
        raise ValueError(f"unknown normalization rule {kind!r}")

    # D times the equation for x^((d + e - D) / D), on numerators: f_a is
    # gn_a / G, W's term wn / Wd and y_e is y[e] = (numerator, denominator)
    G, Wd, wt = g.den, w.den, dict(zip(wk, wn))
    lower = list(zip(gk[:-1], gn[:-1]))
    zero = 0 if L <= 2 else (0,) * _phi_deg(L)
    y = {}
    for e in reversed(support):
        known = [(n, d + e - 2 * a, y[d + e - a]) for a, n in lower
                 if d + e - a in y]
        t = wt.get(d + e - D)
        if e == d or not known and t is None:
            continue  # y_d = 0 (the kernel direction Y = f), or nothing lands
        q = lcm(Wd if t is not None else 1, *(G * s for _, _, (_, s) in known))
        acc = zero if t is None else _times_int(t, D * (q // Wd))
        for n, m, (yn, s) in known:
            p = _times_int(_mul(n, yn, L), m * (q // (G * s)))
            acc = acc - p if L <= 2 else tuple(map(sub, acc, p))
        if _nonzero(acc):  # y_e = acc / (q (e - d)), reduced
            q *= e - d
            h = gcd(q, *(acc if L > 2 else (acc,)))
            h = -h if q < 0 else h
            y[e] = (acc // h if L <= 2 else tuple([x // h for x in acc]),
                    q // h)
    ks = sorted(y)
    den = lcm(*(s for _, s in y.values()))
    particular = _qp(L, D, den, ks, [_times_int(y[k][0], den // y[k][1])
                                     for k in ks])
    check = [(c, a, b) for c, a, b in ((1, f, particular.derivative()),
                                       (-1, f.derivative(), particular))
             if a and b]
    if not check or _sum_of_products(
            check, lcm(f.L, particular.L)) != w_target:
        raise NoSolution("Wr(f, Y) = W has no quasi-polynomial solution")

    if kind == "coeff_zero":
        fpin = f.coeff(pin)
        if fpin.is_zero():
            raise AmbiguousNormalization(
                f"f has zero coefficient at x^{pin}; cannot pin there")
        particular = particular - f.scale(particular.coeff(pin) / fpin)
    return particular, f
