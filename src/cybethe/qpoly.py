"""Exact quasi-polynomial algebra.

A quasi-polynomial is a finite sum of terms c * x^e with exact cyclotomic
coefficients c and exponents e in (1/D)Z.  Each exponent key of `terms`
has one canonical form, set by `_exp`: a plain int when e is integral,
else a Fraction with denominator > 1.  An int and an equal Fraction hash
and compare equal, so lookups may use either.  Negative exponents are
allowed in intermediate (Laurent) values; `is_quasi` reports whether all
exponents are nonnegative.  Division, gcd and squarefree tests work
through the substitution x = s^D, which turns everything into ordinary
dense polynomials over the coefficient field.  A QPoly keeps its own dense
forms: the first gcd or squarefree test over D builds the form for D, and
later ones read it.

`terms` lists its exponents in ascending order.  `__init__` is the one
place that sets this order: it walks the keys sorted, so every
constructor, sum and product inherits it, and `low_exponent` and `degree`
are the first and last keys.

Every coefficient of a QPoly lies in one field Q(zeta_M): `__init__`
promotes the nonzero coefficients to the lcm of their orders, and
`field_order` is that M.  M records how the poly was computed, not the
smallest field of its value: a product of polys over Q(zeta_4) and
Q(zeta_3) lies in Q(zeta_12) even when its value is rational.

Products use an integer layout, as FLINT's fmpq_poly does.  Each operand
is converted once: exponents are scaled to integers by the common exponent
denominator D, and coefficients become integer vectors in Q(zeta_L), L the
lcm of the two operands' orders, over one common denominator per operand
(plain ints when deg Phi_L = 1), read straight from each `Cyc`'s own
numerators and denominator.  One kernel, `_sum_of_products`, sums signed
products of such layouts as an integer convolution over one common
denominator, reduced modulo Phi_L once per output term; `Cyc` objects are
built only for the result, from ints, and each has order L.  A product is
its one-pair case, and `wronskian_table` builds each minor with one call
over all of its pairs, so no partial sum is ever a QPoly.

The Wronskian first-order solver `wronskian_ode_solve` is the primitive
behind every generation step: it finds Y with Wr(f, Y) = W by one
back-substitution sweep down the exponents of Y, never by integrating
rational functions.  The equations are triangular in the exponents; the
one zero pivot belongs to the kernel direction Y = f, whose coefficient
is set to zero.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import lcm
from operator import itemgetter

from .errors import (AmbiguousNormalization, BranchUndefined, InexactDivision,
                     NoSolution)
from .scalars import (ZERO, Cyc, _cyc, _reduce_mod_phi,
                      cyclotomic_polynomial)


def _exp(e):
    """The canonical exponent key of e: an int when e is integral, else a
    Fraction (denominator > 1).  Both compare and hash as the number e."""
    if type(e) is int:
        return e
    e = e if isinstance(e, Fraction) else Fraction(e)
    return e.numerator if e.denominator == 1 else e


def _exp_of(k, D):
    """The canonical exponent key of k / D for ints k and D > 0."""
    return k // D if k % D == 0 else Fraction(k, D)


class QPoly:
    """Immutable quasi-polynomial with ascending exponents and exact
    coefficients in one field."""

    __slots__ = ("terms", "forms")

    def __init__(self, terms):
        clean = {}
        order, mixed = 0, False
        for e, c in sorted(terms.items(), key=itemgetter(0)):
            if not isinstance(c, Cyc):
                c = Cyc.of(c)
            if not c.is_zero():
                clean[_exp(e)] = c
                if c.order != order:
                    mixed = order != 0
                    order = c.order
        if mixed:
            L = lcm(*(c.order for c in clean.values()))
            clean = {e: c.promote(L) for e, c in clean.items()}
        self.terms = clean

    # construction -----------------------------------------------------

    @staticmethod
    def zero():
        return QPoly({})

    @staticmethod
    def one():
        return QPoly({0: 1})

    @staticmethod
    def x_power(e, coeff=1):
        return QPoly({_exp(e): coeff})

    @staticmethod
    def constant(c):
        return QPoly({0: c})

    @staticmethod
    def from_coeffs(coeffs):
        """Ordinary polynomial from a low-to-high coefficient list."""
        return QPoly(dict(enumerate(coeffs)))

    # structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def degree(self):
        """Maximal exponent; None for the zero quasi-polynomial."""
        return next(reversed(self.terms), None)

    @property
    def low_exponent(self):
        return next(iter(self.terms), None)

    @property
    def denom(self):
        """Minimal common exponent denominator of the support."""
        if not self.terms:
            return 1
        return lcm(*(e.denominator for e in self.terms))

    def coeff(self, e):
        return self.terms.get(e, ZERO)

    def leading_coeff(self):
        if not self.terms:
            raise ValueError("zero quasi-polynomial has no leading coefficient")
        return self.terms[self.degree]

    def is_quasi(self):
        """True iff all exponents are >= 0."""
        return not self.terms or self.low_exponent >= 0

    def is_polynomial(self):
        return all(e >= 0 and e.denominator == 1 for e in self.terms)

    def field_order(self):
        """The order M of the one field Q(zeta_M) of the coefficients."""
        for c in self.terms.values():
            return c.order
        return 1

    def exponent_classes(self):
        """Support split by exponent residue mod 1: {residue: QPoly}."""
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(e - e.__floor__(), {})[e] = c
        return {r: QPoly(t) for r, t in sorted(parts.items())}

    def is_monomial(self):
        return len(self.terms) == 1

    # arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QPoly):
            other = QPoly.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            other = QPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return self.scale(other)
        if not (self.terms and other.terms):
            return QPoly.zero()
        L = lcm(self.field_order(), other.field_order())
        D = lcm(self.denom, other.denom)
        return _sum_of_products(
            [(1, _int_layout(self, L, D), _int_layout(other, L, D))], L, D)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = c if isinstance(c, Cyc) else Cyc.of(c)
        if c.is_zero():
            return QPoly.zero()
        return QPoly({e: v * c for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a quasi-polynomial")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (Cyc, int, Fraction)):
            other = QPoly.constant(other)
        elif not isinstance(other, QPoly):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __hash__(self):
        # a constant compares equal to its coefficient, so it hashes as one
        if not self.terms or set(self.terms) == {0}:
            return hash(self.coeff(0))
        return hash(frozenset(self.terms.items()))

    # calculus and evaluation -------------------------------------------

    def derivative(self):
        return QPoly({e - 1: c * e for e, c in self.terms.items() if e != 0})

    def eval_at(self, point):
        """Evaluate at an exact scalar; requires integer exponents >= 0."""
        if not self.is_polynomial():
            raise BranchUndefined("evaluation needs integer exponents >= 0")
        point = point if isinstance(point, Cyc) else Cyc.of(point)
        acc = ZERO
        for e, c in self.terms.items():
            acc = acc + c * point ** int(e)
        return acc

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading_coeff()
        return self.scale(lead.inverse())

    def substitute_scale(self, s):
        """f(s*x) for an exact scalar s.

        Integer exponents admit any nonzero s.  On fractional support only
        s = -1 is defined, through the fixed branch of `negate_argument`.
        """
        s = s if isinstance(s, Cyc) else Cyc.of(s)
        if any(e.denominator != 1 for e in self.terms):
            if s == Cyc.of(-1):
                return self.negate_argument()
            raise BranchUndefined(
                "substitute_scale with fractional exponents is only fixed "
                "for s = -1 (branch (-1)^m = e^(i pi m))")
        return QPoly({e: c * s ** int(e) for e, c in self.terms.items()})

    def negate_argument(self):
        """f(-x) with the branch (-1)^m = e^(i pi m) for m in (1/2)Z.

        For half-integer exponents this adjoins i = zeta_4, promoting the
        coefficient field to Q(zeta_lcm(order, 4)).
        """
        out = {}
        for e, c in self.terms.items():
            if e.denominator == 1:
                out[e] = c if int(e) % 2 == 0 else -c
            elif e.denominator == 2:
                # (-1)^(k + 1/2) = i * (-1)^k
                i_unit = Cyc.root_of_unity(4, 1)
                half = e - Fraction(1, 2)
                sign = i_unit if int(half) % 2 == 0 else -i_unit
                out[e] = c * sign
            else:
                raise BranchUndefined(
                    f"no branch fixed for exponent denominator {e.denominator}")
        return QPoly(out)

    # dense view through x = s^D ----------------------------------------

    def _dense(self, D=None):
        """(offset, coeff list) with f = x^offset * sum coeffs[k] s^k, s = x^(1/D)."""
        if self.is_zero():
            return 0, []
        D = D or self.denom
        low = self.low_exponent
        size = int((self.degree - low) * D) + 1
        coeffs = [ZERO] * size
        for e, c in self.terms.items():
            coeffs[int((e - low) * D)] = c
        return low, coeffs

    def _dense_kept(self, D):
        """`_dense(D)`, built on the first call for D and kept in `forms`."""
        try:
            forms = self.forms
        except AttributeError:
            forms = self.forms = {}
        if D not in forms:
            forms[D] = self._dense(D)
        return forms[D]

    @staticmethod
    def _from_dense(low, coeffs, D):
        base = low.numerator * (D // low.denominator)
        return QPoly({_exp_of(base + k, D): c for k, c in enumerate(coeffs)})

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

    def __repr__(self):
        return f"QPoly({self})"


def _int_layout(p, L, D):
    """(den, [(k, v)]) with p = sum (v / den) x^(k / D): v is an int when
    deg Phi_L = 1, else the nonzero (index, int) entries of the coefficient
    in Q(zeta_L)."""
    cs = list(p.terms.values())
    if L > 2 and p.field_order() != L:
        cs = [c.promote(L) for c in cs]
    den = lcm(*(c.den for c in cs))
    exps = [e.numerator * (D // e.denominator) for e in p.terms]
    if L <= 2:
        return den, [(k, c.num[0] * (den // c.den))
                     for k, c in zip(exps, cs)]
    return den, [(k, [(j, x * (den // c.den))
                      for j, x in enumerate(c.num) if x])
                 for k, c in zip(exps, cs)]


def _sum_of_products(pairs, L, D):
    """The sum of sign * f * g over the (sign, f, g) in pairs, f and g
    `_int_layout`s at order L and exponent denominator D: one integer
    convolution over one common denominator, one reduction per output term
    and one QPoly, whose `__init__` drops the terms that cancel and sorts
    the rest."""
    den = lcm(*(fden * gden for _, (fden, _), (gden, _) in pairs))
    acc = {}
    if L <= 2:
        for sign, (fden, fl), (gden, gl) in pairs:
            m = sign * (den // (fden * gden))
            for k1, a in fl:
                a *= m
                for k2, b in gl:
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + a * b
        return QPoly({_exp_of(k, D): _cyc(L, (s,), den)
                      for k, s in acc.items()})
    width = 2 * (len(cyclotomic_polynomial(L)) - 1) - 1
    for sign, (fden, fl), (gden, gl) in pairs:
        m = sign * (den // (fden * gden))
        for k1, a in fl:
            if m != 1:
                a = [(i, x * m) for i, x in a]
            for k2, b in gl:
                s = acc.get(k1 + k2)
                if s is None:
                    s = acc[k1 + k2] = [0] * width
                for i, x in a:
                    for j, y in b:
                        s[i + j] += x * y
    return QPoly({_exp_of(k, D): _cyc(L, _reduce_mod_phi(s, L), den)
                  for k, s in acc.items()})


def proportional(f, g):
    """True iff f = k*g for some nonzero scalar k (zero ~ zero)."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    if set(f.terms) != set(g.terms):
        return False
    e0 = next(iter(f.terms))
    k = f.terms[e0] / g.terms[e0]
    return all(f.terms[e] == k * g.terms[e] for e in f.terms)


# --- dense helpers over the scalar field -------------------------------

def _dense_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    while den and den[-1].is_zero():
        den = den[:-1]
        dn -= 1
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
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


def _dense_gcd(a, b):
    """Monic gcd of dense lists whose last entries are nonzero."""
    while b:
        a, b = b, _dense_divmod(a, b)[1]
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


def _image(coeffs, L, p, powers):
    """Images in F_p of Q(zeta_L) coefficients; None if p divides a
    denominator.  An order-m coefficient sum (n_k / den) w^k maps to
    sum n_k r^(k L/m) / den."""
    out = []
    for c in coeffs:
        if c.den % p == 0:
            return None
        step = L // c.order
        acc = sum(x * powers[k * step] for k, x in enumerate(c.num) if x)
        out.append(acc * pow(c.den, -1, p) % p)
    return out


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
    """True when one prime proves the dense lists fc, gc coprime over
    Q(zeta_L); gc defaults to the derivative of fc.  False proves nothing."""
    L = lcm(*(c.order for c in fc), *(c.order for c in gc or ()))
    p, powers = _cert_field(L)
    a = _image(fc, L, p, powers)
    if a is None or not a[-1]:
        return False
    if gc is None:
        b = [k * x % p for k, x in enumerate(a)][1:]
    else:
        b = _image(gc, L, p, powers)
        if b is None:
            return False
    if not b[-1]:
        return False
    return _fp_coprime(a, b, p)


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
        return QPoly.zero()
    D = lcm(f.denom, g.denom)
    flow, fc = f._dense(D)
    glow, gc = g._dense(D)
    q, r = _dense_divmod(fc, gc)
    if r:
        raise InexactDivision(f"({f}) is not divisible by ({g})")
    return QPoly._from_dense(flow - glow, q, D)


def qgcd(f, g):
    """Monic gcd computed after the substitution x = s^D."""
    if f.is_zero():
        return g.monic() if g else QPoly.one()
    if g.is_zero():
        return f.monic()
    D = lcm(f.denom, g.denom)
    flow, fc = f._dense_kept(D)
    glow, gc = g._dense_kept(D)
    # common pure power of x
    shared = min(flow, glow)
    lowpow = QPoly.x_power(shared) if shared else QPoly.one()
    if _certified_coprime(fc, gc):
        return lowpow
    core = _dense_gcd(fc, gc)
    return (QPoly._from_dense(0, core, D) * lowpow).monic()


def is_squarefree(f):
    """Squarefree test via gcd(f, f') on the dense representative."""
    if f.is_zero():
        return False
    _, fc = f._dense_kept(f.denom)
    if len(fc) <= 1 or _certified_coprime(fc):
        return True
    dfc = [fc[k] * k for k in range(1, len(fc))]
    g = _dense_gcd(fc, dfc)
    return len(g) == 1


def wronskian_table(fs):
    """Wr of every subset of fs by bitmask (bit i for f_i), Wr() = 1.

    Expanding along the last derivative row, Wr(S) is the sum over i in S
    of (-1)^#{j in S : j > i} f_i^(|S|-1) Wr(S - {i}), so each minor is
    built once, bottom-up: n (2^(n-1) - 1) products for n functions.  Each
    Wr(S), |S| >= 2, is one `_sum_of_products` call over its nonzero
    pairs, and each derivative and minor is laid out once per field order.

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
    orders = [f.field_order() for f in fs]
    D = lcm(*(f.denom for f in fs))
    layouts = {}  # (id, L) -> layout; derivs and table keep every id alive

    def layout(p, L):
        key = id(p), L
        if key not in layouts:
            layouts[key] = _int_layout(p, L, D)
        return layouts[key]

    table = [QPoly.one()]
    for mask in range(1, 1 << len(fs)):
        members = [i for i in range(len(fs)) if mask >> i & 1]
        size = len(members)
        if size == 1:
            table.append(fs[members[0]])
            continue
        L = lcm(*(orders[i] for i in members))
        pairs = []
        for pos, i in enumerate(members):
            f, minor = derivs[i][size - 1], table[mask ^ (1 << i)]
            if f and minor:
                pairs.append((1 if (size - pos) % 2 else -1,
                              layout(f, L), layout(minor, L)))
        table.append(_sum_of_products(pairs, L, D))
    return table


def wronskian(fs):
    """Wronskian determinant Wr(f_1, ..., f_n) from `wronskian_table`."""
    fs = list(fs)
    if not fs:
        raise ValueError("wronskian of an empty list")
    return wronskian_table(fs)[-1]


def divided_wronskian(fs, divisors):
    """Wr(fs) divided exactly by the product of `divisors`."""
    w = wronskian(fs)
    den = QPoly.one()
    for d in divisors:
        den = den * d
    return divide_exact(w, den)


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
    check f Y' - f' Y = W then proves every equation the sweep did not use.
    The "coeff_zero" walk starts at x^0, so it needs f to be a
    quasi-polynomial; the holomorphic class never meets the zero pivot.

    Returns (particular, homogeneous) where homogeneous = f spans the
    kernel.  Raises NoSolution when no Y solves the equation and
    AmbiguousNormalization when the rule does not pin a unique solution.
    """
    if f.is_zero():
        raise NoSolution("kernel function f must be nonzero")
    kind, pin = norm[0], _exp(norm[1])
    if w_target.is_zero():
        return QPoly.zero(), f

    D = lcm(f.denom, w_target.denom, pin.denominator)
    d = f.degree
    hi = max(w_target.degree - d + 1, d)
    if kind == "coeff_zero":
        if f.low_exponent < 0:
            raise ValueError("the coeff_zero rule needs f without negative "
                             "exponents")
        support = [_exp_of(k, D) for k in range(int(hi * D) + 1)]
    elif kind == "holomorphic_at_zero":
        f_classes = {e - e.__floor__() for e in f.terms}
        if (pin - pin.__floor__()) in f_classes:
            raise AmbiguousNormalization(
                "holomorphic normalization needs a pinned exponent class "
                "disjoint from the support of f")
        support = [pin + k for k in range(int(max(hi, pin) - pin) + 1)]
    else:
        raise ValueError(f"unknown normalization rule {kind!r}")

    fd = f.terms[d]
    y = {}
    for e in reversed(support):
        if e == d:
            continue  # y_d = 0: the kernel direction Y = f
        acc = w_target.coeff(d + e - 1)
        for a, ca in f.terms.items():
            known = y.get(d + e - a)
            if known is not None:
                acc = acc - ca * (d + e - 2 * a) * known
        y[e] = acc / (fd * (e - d))
    particular = QPoly(y)
    if f * particular.derivative() - f.derivative() * particular != w_target:
        raise NoSolution("Wr(f, Y) = W has no quasi-polynomial solution")

    if kind == "coeff_zero":
        fpin = f.coeff(pin)
        if fpin.is_zero():
            raise AmbiguousNormalization(
                f"f has zero coefficient at x^{pin}; cannot pin there")
        c = particular.coeff(pin) / fpin
        particular = particular - f.scale(c)
    return particular, f


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


def log_derivative(p):
    """f'/f as a reduced rational quasi-polynomial."""
    return RatQP(p.derivative(), p)
