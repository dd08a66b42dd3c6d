"""Type-A theory: quasi-polynomial spaces with frame, flags and the beta
map, duality, cyclotomic self-duality, the bilinear form B, Witt bases,
isotropic flags, and the flag flows realizing cyclotomic generation.

Everything is exact.  The bilinear form is B(u, v) = (u, v(-x)) computed
by expanding v(-x) in the dual basis W_k = Wr+(u_1, ..., ^u_k, ..., u_(R+1));
the special basis, the dual-basis expansion and spans all go through the
one exact row reduction `linalg._rref`, never numeric rank.  A square
root of a rational is one quadratic Gauss sum (`rational_sqrt`).

Every divided Wronskian Wr+ is an entry of one `wronskian_table` divided by
a D_k of the frame's divisor chain, which each `TypeAFrame` builds once.
The flag basis, its adapted basis, the Witt basis and every flow image are
bases of one space V = ker D(y), so a `QPSpace` holds the one table that
type A builds, of its special basis u, and `gram_matrix` builds and keeps
the one Gram matrix of V built from polynomials (`_gram` raises
NotSelfDual before it reads the Wronskian constant, so self-duality is
decided there and nowhere else).  Every other basis of V is read through
its coordinates over u (`_coordinates`, which refuses a vector outside V
with InputError).

B is bilinear, so vectors v = E u have the Gram matrix E Gram(u) E^T
exactly, and the Wronskian is multilinear, so their Wr+ are transported
from the table of u by Cauchy-Binet (`_transport`), each entry equal in
value to the entry of a fresh table of v.  `beta`,
`witt_basis` and the check of `kernel_basis` read V this way.  A Witt basis
belongs to a flag, not to the basis that spans it: `witt_basis` adapts
any basis of a decomposable flag to the exponent classes (`_adapt`) and
eliminates on the congruence Gram matrix of the adapted basis; the Witt
vectors are the elimination matrix times that basis, so their Gram matrix
and table come through the product of the two matrices.  A flow image is
exp(cN) times its Witt basis and takes both from it the same way.

A WittBasis is its vectors and their Gram matrix; its anti-diagonal
`constants` are read off the matrix, and the `_wr_plus` of its vectors is
a derived slot.  `apply_flow` returns the image basis as a WittBasis with
the same Gram matrix, which its congruence check proves, and its
transported table, together with beta of the image flag, so a chain of
flows passes each image on as the next input and never builds a table, a
Gram matrix from polynomials, or divides by D_k.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm

from . import linalg
from .cartan import Record, dominant_shifted_rep
from .errors import (InexactDivision, InputError, InternalInvariantError,
                     NoSpecialBasis, NotCyclotomic, NotDecomposable,
                     NotGeneric, NotInRootCone, NotIsotropic, NotSelfDual,
                     UnsupportedType)
from .frame import (BetheTuple, big_lambda, prove_cyclotomic, t_tilde,
                    weight_at_infinity)
from .qpoly import (_ONE, QPoly, _sum_of_products, divide_exact,
                    proportional, qgcd, wronskian_ode_solve, wronskian_table)
from .scalars import ZERO, Cyc, _cyc, _factor, _reduce_mod_phi


# --- frame data -----------------------------------------------------------


class TypeAFrame(Record):
    _fields = ("r", "p", "ttilde", "lam", "lam_inf_tilde", "d", "ddag")
    __slots__ = _fields + ("divisors",)

    def __init__(self, r, p, ttilde, lam, lam_inf_tilde, d, ddag):
        self.r = r              # rank R; spaces have dimension R+1
        self.p = p
        self.ttilde = ttilde    # T~_1 .. T~_R
        self.lam = lam  # Lambda = L0 + sum_s (Lambda_s + sigma Lambda_s)
        self.lam_inf_tilde = lam_inf_tilde  # dominant weight at infinity
        self.d = d              # exponents, strictly ascending Fractions
        self.ddag = ddag        # dual exponents, strictly descending
        # D_0 .. D_(R+1) of `_divisors`: derived, so not a field
        self.divisors = _divisors(ttilde)


class QPSpace(Record):
    """A space with frame, read through its special basis: `wr_plus`, the
    `_wr_plus` of the basis, and `gram`, its Gram matrix once
    `gram_matrix` has built it, are the one table and the one Gram matrix
    from polynomials that type A builds for the space.  Both are derived,
    so not fields."""

    _fields = ("frame", "basis")
    __slots__ = _fields + ("wr_plus", "gram")

    def __init__(self, frame, basis):
        self.frame = frame
        self.basis = basis      # special basis, degrees = frame.d
        self.wr_plus = _wr_plus(frame, basis)
        self.gram = None


class Flag(Record):
    __slots__ = _fields = ("space", "adjusted")

    def __init__(self, space, adjusted):
        self.space = space
        self.adjusted = adjusted    # ordered basis; F_k = span(adjusted[:k])


# The largest rank the type-A pipeline accepts: the Wronskian table of the
# R+1 basis vectors has 2^(R+1) minors, so its time doubles with each rank.
# `typea analyze` of the trivial tuple, one fresh process each on a 2-core
# x86_64 machine, takes 0.15-0.19 s at rank 10, 0.45-0.53 s at rank 12
# and 0.74-0.80 s at rank 13.
MAX_TYPEA_RANK = 12


def require_type_a(inst):
    """Validate the instance is type A with the (possibly trivial) flip,
    of rank at most `MAX_TYPEA_RANK`."""
    r = inst.cartan.n
    if r > MAX_TYPEA_RANK:
        raise InputError(f"type-A theory limits the rank to "
                         f"{MAX_TYPEA_RANK}, got {r}")
    expected = tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                           for j in range(r)) for i in range(r))
    if inst.cartan.a != expected:
        raise UnsupportedType("type-A theory needs an A_R Cartan matrix")
    flip = tuple(r - 1 - i for i in range(r))
    if inst.aut.perm not in (flip, tuple(range(r))):
        raise UnsupportedType("type-A theory needs the diagram flip")
    if inst.aut.perm == flip and r > 1 and inst.omega != Cyc.of(-1):
        raise UnsupportedType("the flip involution needs omega = -1")
    return r


def determine_p(inst):
    """The integer p of the type-A setup, read off the weight at the origin.

    p is the node (1-based, at most (R+1)/2) whose pairing with the origin
    weight is half-odd; when all pairings are integral, p = n for odd rank
    R = 2n-1 with odd middle pairing, else p = 0.
    """
    r = inst.cartan.n
    half_odd = [i for i in range(r) if inst.lambda0[i].denominator == 2]
    if half_odd:
        p = min(half_odd) + 1
        if sorted(half_odd) != sorted({p - 1, r - p}):
            raise InputError("half-odd pairings are not at nodes {p, R+1-p}")
        return p
    if r % 2 == 1:
        mid = inst.lambda0[(r - 1) // 2]
        if mid.denominator == 1 and int(mid) % 2 == 1:
            return (r + 1) // 2
    return 0


def exponents(cartan, lam, lam_inf_tilde):
    """Exponents (d, ddag) of a frame with data (Lambda, Lambda~_inf).

    d_1 = <Lambda - Lambda~_inf, sum_k (R+1-k) alpha_k^vee> / (R+1),
    d_k = d_1 + <Lambda~_inf + rho, alpha_1^vee + ... + alpha_(k-1)^vee>,
    and dually for ddag.  Requires Lambda - Lambda~_inf to be a nonnegative
    integral combination of simple roots.
    """
    r = cartan.n
    diff = lam - lam_inf_tilde
    # the root coefficients k = A^-1 diff, row i of A^-1 being row i of the
    # cached weight form over d_i
    k_coeffs = [sum(g * p for g, p in zip(row, diff)) / d
                for row, d in zip(cartan.weight_gram, cartan.d)]
    if any(k < 0 or k.denominator != 1 for k in k_coeffs):
        raise NotInRootCone(
            f"Lambda - Lambda~_inf = {diff} is not a Z>=0 root combination")
    d1 = sum(Fraction(r - k) * diff[k] for k in range(r)) / (r + 1)
    d = [d1]
    acc = d1
    for k in range(r):
        acc = acc + lam_inf_tilde[k] + 1
        d.append(acc)
    dlast = sum(Fraction(k + 1) * diff[k] for k in range(r)) / (r + 1)
    ddag = [None] * (r + 1)
    ddag[r] = dlast
    acc = dlast
    for k in range(r - 1, -1, -1):
        acc = acc + lam_inf_tilde[k] + 1
        ddag[k] = acc
    if any(d[k] >= d[k + 1] for k in range(r)):
        raise InputError(f"exponents not strictly increasing: {d}")
    return tuple(d), tuple(ddag)


def build_frame(inst, y):
    """TypeAFrame for the kernel space of the tuple y."""
    r = require_type_a(inst)
    ttilde = tuple(t_tilde(inst, i) for i in range(r))
    lam = big_lambda(inst)
    lam_inf, _ = dominant_shifted_rep(inst.cartan, weight_at_infinity(inst, y))
    d, ddag = exponents(inst.cartan, lam, lam_inf)
    p = determine_p(inst)
    ints = [k for k in range(r + 1) if d[k].denominator == 1]
    if p > 0 and ints != list(range(p)) + list(range(r + 1 - p, r + 1)):
        raise InternalInvariantError(
            f"exponent integrality pattern {d} does not match p = {p}")
    return TypeAFrame(r=r, p=p, ttilde=ttilde, lam=lam,
                      lam_inf_tilde=lam_inf, d=d, ddag=ddag)


# --- divided Wronskians ----------------------------------------------------


def _divisors(ttilde):
    """(D_0, ..., D_(R+1)) of T~_1 .. T~_R, D_k = T~_1^(k-1) T~_2^(k-2) ...
    T~_(k-1): Wr+ of k functions is their Wronskian over D_k.  Built once
    per `TypeAFrame`, as D_k = D_(k-1) T~_1 ... T~_(k-1)."""
    out, step = [QPoly.one(), QPoly.one()], QPoly.one()
    for t in ttilde:
        step = step * t
        out.append(out[-1] * step)
    return tuple(out)


def _wr_plus(frame, fs):
    """mask -> Wr+ of the subset of fs with bit i for f_i: the entry of one
    `wronskian_table` of fs divided exactly by D_|S| of `frame.divisors`,
    each mask divided at most once.  Built once per `QPSpace`, of its
    special basis; every other basis is transported from it."""
    table, divisors = wronskian_table(fs), frame.divisors
    return cache(lambda mask: divide_exact(table[mask],
                                           divisors[mask.bit_count()]))


# --- kernel space of a critical tuple ---------------------------------------


def kernel_basis(inst, y):
    """Space and flag recovering the tuple: u_1 = y_1, u_k = y_1^(1..k-1).

    The recursion solves Wr(Y, y_i) = y_(i-1) T~_i y^(i+1..k)_(i+1), i.e.
    Wr(y_i, Y) = -RHS, pinning each solve at the coefficient of
    x^deg(y_i).  Asserts Wr+(u_1..u_k) ~ y_k for k <= R.
    """
    frame = build_frame(inst, y)
    r = frame.r

    def component(i, k):
        # y_i^(i, i+1, ..., k), 0-based nodes i <= k < r
        upper = y[i + 1] if i + 1 < r else QPoly.one()
        if i == k:
            rhs = (y[i - 1] if i >= 1 else QPoly.one()) * frame.ttilde[i] * upper
        else:
            rhs = (y[i - 1] if i >= 1 else QPoly.one()) * frame.ttilde[i] \
                * component(i + 1, k)
        sol, _ = wronskian_ode_solve(y[i], -rhs, ("coeff_zero", y[i].degree))
        return sol

    adjusted = [y[0]]
    for k in range(1, r + 1):
        adjusted.append(component(0, k - 1).monic())
    space = QPSpace(frame=frame, basis=special_basis_from(frame, adjusted))
    wr_plus = _wr_plus_of(space, adjusted[:r])
    for k in range(1, r + 1):
        if not proportional(wr_plus((1 << k) - 1), y[k - 1]):
            raise InternalInvariantError(
                f"Wr+(u_1..u_{k}) is not proportional to y_{k}")
    return space, Flag(space=space, adjusted=tuple(adjusted))


# --- special bases -----------------------------------------------------------


def special_basis_from(frame, vectors):
    """Reduce any basis to the canonical special one: decomposable,
    deg u_k = d_k, monic, fully reduced (no u_k carries another's leading
    exponent), ascending degrees.

    That is the reduced row echelon form of the coefficient matrix of the
    exponent-class pieces of the vectors, exponents descending: the pivot
    columns are the degrees, each pivot of 1 makes its row monic, and the
    reduction clears every other row at a pivot column.
    """
    pieces = [part for v in vectors for part in v.exponent_classes().values()]
    exps = _support(pieces)[::-1]
    rows, pivots = linalg._rref([[p.coeff(e) for e in exps] for p in pieces],
                                len(exps))
    degrees = [exps[c] for c in reversed(pivots)]
    if tuple(degrees) != frame.d:
        raise NoSpecialBasis(
            f"realized degrees {degrees} do not match exponents {frame.d}")
    return tuple(QPoly(dict(zip(exps, row)))
                 for row in reversed(rows[:len(pivots)]))


# --- coefficient-vector helpers ----------------------------------------------


def _support(polys):
    return sorted({e for p in polys for e in p.terms})


def in_span(target, polys):
    """Coefficients of target in span(polys), or None."""
    return _span_coefficients([target], polys)[0]


def _span_coefficients(targets, polys):
    """`in_span` of each target, from one row reduction of the coefficient
    matrix of polys with a right-hand side per target.  A target with a
    term where every poly vanishes lies outside the span and takes no
    column; the others meet the same rows as alone.  Each poly's `terms`
    is read once."""
    cols, rhs = [p.terms for p in polys], [t.terms for t in targets]
    known = {e for col in cols for e in col}
    exps = sorted(known)
    inside = [k for k, t in enumerate(rhs) if known.issuperset(t)]
    matrix = [[col.get(e, ZERO) for col in cols] for e in exps]
    out = [None] * len(targets)
    solved = linalg.solve_many(
        matrix, [[rhs[k].get(e, ZERO) for e in exps] for k in inside])
    for k, coeffs in zip(inside, solved):
        out[k] = coeffs
    return out


# --- duality and the bilinear form -------------------------------------------


def _dual(wr_plus, n):
    """W_i = Wr+(u_1, ..., ^u_i, ..., u_n) from `_wr_plus` of u."""
    return [wr_plus((1 << n) - 1 - (1 << i)) for i in range(n)]


def _constant(wr_plus, n):
    """The constant Wr+(u_1..u_n) from `_wr_plus` of a basis u."""
    top = wr_plus((1 << n) - 1)
    if top.is_zero() or top.degree != 0:
        raise InternalInvariantError(
            f"Wr+ of a basis must be a nonzero constant, got {top}")
    return top.coeff(0)


def gram_matrix(space):
    """G[i][j] = B(u_i, u_j) = (u_i, u_j(-x)) on the special basis, built
    once per space from its table and kept; NotSelfDual when the space is
    not self-dual.

    Expands u_j(-x) = sum_k C_jk W_k; then B(u_i, u_j) equals
    C_ji (-1)^i Wr+(u_1..u_(R+1)) (0-based i).
    """
    if space.gram is None:
        space.gram = _gram(space.basis, space.wr_plus)
    return space.gram


def _gram(basis, wr_plus):
    """`gram_matrix` of basis from `_wr_plus` of basis.  NotSelfDual when
    an image u(-x) leaves the dual space K+ = span(W_1..W_(R+1)), found
    before the constant is read: the one test of cyclotomic self-duality."""
    size = len(basis)
    cmat = _span_coefficients([u.negate_argument() for u in basis],
                              _dual(wr_plus, size))
    if any(coeffs is None for coeffs in cmat):
        raise NotSelfDual(
            "basis vector image under x -> -x leaves the dual space")
    const = _constant(wr_plus, size)
    signed = (const, -const)
    return [[signed[i % 2] * cmat[j][i] for j in range(size)]
            for i in range(size)]


def _form(u, g, v):
    """sum_ab u_a G_ab v_b over the nonzero coordinates of u and v."""
    return sum((x * g[a][b] * y for a, x in enumerate(u) if x
                for b, y in enumerate(v) if y), Cyc.of(0))


def _combine(coeffs, polys):
    """sum_j c_j p_j as one `_sum_of_products` call over the terms with
    c_j and p_j nonzero, each c_j a `Cyc` multiplier of the pair (c_j, 1,
    p_j).  The sum is in Q(zeta_L), L the lcm of the orders of those
    terms' c_j and p_j; a zero sum is zero of order 1."""
    pairs = [(c, _ONE, p) for c, p in zip(coeffs, polys)
             if p.ks and any(c.num)]
    return _sum_of_products(pairs, lcm(*[c.order for c, _, _ in pairs],
                                       *[p.L for _, _, p in pairs]))


def _coordinates(space, vectors):
    """The rows of coordinates of vectors over the special basis u.  Each
    u_j has coefficient 1 at d_j and 0 at every other d_i, so the row of v
    is its coefficients at d_1..d_(R+1), which the exact equality of v with
    their combination proves; InputError when v is not in the space."""
    rows = [[v.coeff(d) for d in space.frame.d] for v in vectors]
    for v, row in zip(vectors, rows):
        if _combine(row, space.basis) != v:
            raise InputError(f"the vector {v} does not lie in the space")
    return rows


def _wr_plus_of(space, vectors):
    """`_wr_plus` of vectors of the space, transported from the table of
    its special basis through their coordinates."""
    return _transport(_coordinates(space, vectors), space.wr_plus)


# --- flags -------------------------------------------------------------------


def beta(space, adjusted):
    """The tuple y_k = Wr+(u_1..u_k), k = 1..R, monic-normalized, for
    vectors u of the space (InputError otherwise), read off the space's
    table through their coordinates."""
    r = space.frame.r
    return _beta(_wr_plus_of(space, adjusted[:r]), r)


def _beta(wr_plus, r):
    """`beta` from `_wr_plus` of a basis whose first r vectors it reads."""
    return [wr_plus((1 << k) - 1).monic() for k in range(1, r + 1)]


def flag_type(space, adjusted):
    """Type Q of a decomposable flag (1-based subset of {1..R+1}): the
    steps k at which the integral part of F_k grows, read off the classes
    of the adapted basis (`_adapt`)."""
    if space.frame.p == 0:
        return frozenset()
    return frozenset(k for k, v in enumerate(_adapt(adjusted), 1)
                     if Fraction(0) in v.exponent_classes())


def _adapt(adjusted):
    """The basis of the same flag whose k-th vector is the part of u_k in
    the one exponent class c_k where F_k grows.  In a decomposable flag
    every other part of u_k lies in F_(k-1), so in the span of the earlier
    adapted vectors of its class; NotDecomposable when not exactly one
    part leaves that span."""
    out, by_class = [], {}
    for k, u in enumerate(adjusted, 1):
        grows = [(c, part) for c, part in u.exponent_classes().items()
                 if in_span(part, by_class.get(c, [])) is None]
        if len(grows) != 1:
            raise NotDecomposable(
                f"F_{k} is not a decomposable subspace of dimension {k}")
        c, part = grows[0]
        by_class.setdefault(c, []).append(part)
        out.append(part)
    return out


def isotropy_check(gram):
    """F_k = F_(R+1-k)^perp for the flag of a basis with Gram matrix `gram`,
    i.e. G[a][b] = 0 whenever a + b <= R - 1 (0-based indices)."""
    size = len(gram)
    return all(gram[a][b].is_zero()
               for a in range(size) for b in range(size - 1 - a))


# --- Witt bases --------------------------------------------------------------


class WittBasis(Record):
    """Witt vectors and their Gram matrix, taken by congruence from the
    Gram matrix of the space's special basis.  The `_wr_plus` of the
    vectors is derived, so not a field: `witt_basis` and `apply_flow` pass
    the one they transported, which beta and the next flow read."""

    _fields = ("vectors", "gram")
    __slots__ = _fields + ("wr_plus",)

    def __init__(self, vectors, gram, wr_plus):
        self.vectors = vectors
        self.gram = gram    # full Gram matrix of `vectors`, anti-diagonal
        self.wr_plus = wr_plus

    @property
    def constants(self):
        """B(r_k, r_(R+2-k)), k = 1..R+1 (1-based): the anti-diagonal of
        `gram`, whose middle entry is the middle vector's for odd R+1."""
        size = len(self.gram)
        return tuple(self.gram[k][size - 1 - k] for k in range(size))


def _b_pattern(p, size):
    """Reduced Witt anti-diagonal target constants b_k (1-based)."""
    out = []
    for k in range(1, size + 1):
        if k <= p:
            out.append(Fraction(-1) if k % 2 == 1 else Fraction(1))
        elif k <= size - p:
            out.append(Fraction(1))
        else:
            out.append(Fraction(-1) if (size - k) % 2 == 1 else Fraction(1))
    return out


def witt_basis(space, adjusted, quadratic_extension=False):
    """Anti-diagonalize B on an isotropic flag basis by a lower-unipotent
    elimination, then rescale paired vectors to the reduced pattern.  The
    middle vector (odd dimension) keeps its recorded constant unless
    quadratic-extension mode can realize the square root inside a
    cyclotomic field.

    `adjusted` may be any basis of a decomposable isotropic flag of the
    space: it is first adapted to the flag's exponent classes (`_adapt`,
    which raises NotDecomposable), so that B is symmetric or antisymmetric
    on each pair of vectors.  The adapted basis has coordinates C over the
    special basis (`_coordinates`, InputError for a vector outside the
    space), so its Gram matrix G is C Gram(u) C^T of the space's
    `gram_matrix`.  The Witt vectors are the rows V of the elimination
    matrix times the adapted basis, so their Gram matrix is the congruence
    V G V^T, which the final check reads, and their table is transported
    from the space's through V C (`_transport`); no table or Gram matrix
    is built from polynomials.
    """
    basis = _adapt(adjusted)
    size = len(basis)
    coords = _coordinates(space, basis)
    g = _congruence(coords, gram_matrix(space))
    if not isotropy_check(g):
        raise NotIsotropic("witt_basis needs an isotropic flag basis: a Gram "
                           "entry below the anti-diagonal is nonzero")
    vecs = [[Cyc.of(1) if i == j else Cyc.of(0) for j in range(size)]
            for i in range(size)]

    def entry(i, j):
        return _form(vecs[i], g, vecs[j])

    for k in range(size):
        for j in range(size - 1, size - 1 - k, -1):
            val = entry(k, j)
            if j == size - 1 - k or val.is_zero():
                continue
            pivot_row = size - 1 - j
            piv = entry(pivot_row, j)
            if piv.is_zero():
                raise InternalInvariantError("vanishing Witt pivot")
            factor = val / piv
            vecs[k] = [x - factor * y for x, y in zip(vecs[k], vecs[pivot_row])]

    # B(vectors[i], vectors[j]) is the congruence entry(i, j): the
    # rescaling scales rows k < size // 2, then the middle row, in place:
    # each entry it reads pairs a row not yet scaled with one it never
    # scales
    target = _b_pattern(space.frame.p, size)
    for k in range(size // 2):
        scale = Cyc.of(target[k]) / entry(k, size - 1 - k)
        vecs[k] = [x * scale for x in vecs[k]]
    # middle vector normalization needs a square root
    if size % 2 == 1 and quadratic_extension:
        mid = size // 2
        scale = _cyclotomic_sqrt(entry(mid, mid)).inverse()
        vecs[mid] = [x * scale for x in vecs[mid]]

    vectors = [_combine(row, basis) for row in vecs]
    gram = tuple(map(tuple, _congruence(vecs, g)))
    for a in range(size):
        for b in range(size):
            if a + b != size - 1 and not gram[a][b].is_zero():
                raise InternalInvariantError(
                    f"Witt Gram not anti-diagonal at ({a},{b})")
    return WittBasis(vectors=tuple(vectors), gram=gram, wr_plus=_transport(
        _mat_mul_c(vecs, coords), space.wr_plus))


def _cyclotomic_sqrt(value):
    """A square root of q * zeta^k for rational q inside a cyclotomic field.

    Every square root of a rational lies in a cyclotomic field: sqrt(2) =
    zeta_8 + zeta_8^-1 and sqrt(p) for odd primes p comes from the Gauss
    sum sum_k (k|p) zeta_p^k, which squares to (-1)^((p-1)/2) p.
    """
    order = value.order
    for k in range(order):
        candidate = value * Cyc.root_of_unity(order, -k)
        if candidate.is_rational():
            q = candidate.as_fraction()
            if q == 0:
                return Cyc.of(0)
            root = rational_sqrt(q)
            if k % 2 == 0:
                return root * Cyc.root_of_unity(order, k // 2)
            return root * Cyc.root_of_unity(2 * order, k)
    raise UnsupportedType(
        f"cannot take an exact square root of the non-monomial value {value}")


def rational_sqrt(q):
    """Exact sqrt of a rational as a cyclotomic scalar, from one Gauss sum.

    Write |q| = s^2 m / den^2 with m squarefree.  The Kronecker character
    chi_D of D = m (m = 1 mod 4) or D = 4m sums to sum_k chi_D(k) zeta_D^k
    = sqrt(D) (Ireland & Rosen, ch. 6), built as one integer vector over
    Q(zeta_D), where the root stays; it gains zeta_4 for q < 0.
    """
    q = Fraction(q)
    if q == 0:
        return Cyc.of(0)
    s, m = 1, 1
    for p, e in _factor(abs(q.numerator) * q.denominator):
        s, m = s * p ** (e // 2), m * p ** (e % 2)
    big = m if m % 4 == 1 else 4 * m
    # chi_D(k) is the Jacobi symbol (D/k) at odd k, and chi_D has period D
    gauss = _cyc(big, _reduce_mod_phi([_jacobi(big, k if k % 2 else k + big)
                                       for k in range(big)], big),
                 1 if big == m else 2)
    root = gauss * Fraction(s, q.denominator)
    return root * Cyc.root_of_unity(4) if q < 0 else root


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0, and 0 for even n."""
    a, t = a % n, n % 2
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


# --- flows -------------------------------------------------------------------


def flow_generator(space, witt, kind, k):
    """Nilpotent matrix N of the lower-triangular generator on the Witt
    basis: new basis vectors are (exp(c N) r)_i = r_i + c (N r)_i + ...

    X_k (k = 1..p-1) couples (k, k+1) and (R+1-k, R+2-k); X_p sends
    r_p -> r_p + c r_(R+2-p).  Y_k / Z_k are the orthogonal-block
    analogues, with the compensating scale taken from the actual
    anti-diagonal constants so that B is preserved exactly.  InputError
    for a generator outside `available_generators`.
    """
    require_generator(space.frame.r, space.frame.p, kind, k)
    size = space.frame.r + 1
    p = space.frame.p
    n_mat = [[Cyc.of(0)] * size for _ in range(size)]
    bt = list(witt.constants)

    def couple(a):
        # 0-based a: r_a += c r_(a+1), r_(size-2-a) -= c s r_(size-1-a)
        b = size - 2 - a
        s = bt[a + 1] / bt[a]
        n_mat[a][a + 1] = Cyc.of(1)
        n_mat[b][b + 1] = n_mat[b][b + 1] - s

    if (kind, k) == ("X", p):
        n_mat[p - 1][size - p] = Cyc.of(1)
    else:
        # on a reduced basis the compensating scale of X_k is +1, matching
        # the two-entry substitution r_k + c r_(k+1), r_(R+1-k) + c r_(R+2-k)
        couple(k - 1 if kind == "X" else p + k - 1)
    return n_mat


def apply_flow(space, witt, generator, c):
    """Apply exp(c * generator) to the Witt flag; returns (image, tuple)
    with the image a WittBasis and the tuple beta of its flag.

    The Gram matrix of the image, the congruence exp(cN) G exp(cN)^T of
    G = `witt.gram`, is asserted equal to G (the transformation lies in
    the B-preserving group) and isotropic, so the image is again a Witt
    basis with `witt.gram`; no Gram matrix is built from polynomials.
    Beta reads the image's table, transported from the table of `witt`
    through exp(cN) (`_transport`), which the image keeps for the next
    flow.
    """
    kind, k = generator
    c = c if isinstance(c, Cyc) else Cyc.of(c)
    size = space.frame.r + 1
    n_mat = flow_generator(space, witt, kind, k)
    # exp(cN) for nilpotent N, exact
    exp = [[Cyc.of(1) if i == j else Cyc.of(0) for j in range(size)]
           for i in range(size)]
    power = [[Cyc.of(1) if i == j else Cyc.of(0) for j in range(size)]
             for i in range(size)]
    fact = 1
    for step in range(1, size + 1):
        power = _mat_mul_c(power, n_mat)
        if all(x.is_zero() for row in power for x in row):
            break
        fact *= step
        coeff = c ** step / fact
        for i in range(size):
            for j in range(size):
                exp[i][j] = exp[i][j] + coeff * power[i][j]
    g_new = _congruence(exp, witt.gram)
    if g_new != [list(r) for r in witt.gram]:
        raise InternalInvariantError(
            f"flow {kind}_{k} does not preserve the bilinear form")
    if not isotropy_check(g_new):
        raise InternalInvariantError("flow output flag is not isotropic")
    new_vectors = [_combine(row, witt.vectors) for row in exp]
    wr_plus = _transport(exp, witt.wr_plus)
    return WittBasis(vectors=tuple(new_vectors), gram=witt.gram,
                     wr_plus=wr_plus), _beta(wr_plus, size - 1)


def _transport(mat, wr_plus):
    """`_wr_plus` of `vectors` v_i = sum_j mat[i][j] w_j from `_wr_plus` of
    w, by Cauchy-Binet: Wr+(v_S) = sum_T det mat[S, T] Wr+(w_T) over
    |T| = |S|, as the Wronskian is multilinear and D_|S| fixed.  w is a
    space's special basis, with rows of coordinates, or the Witt basis of
    a flow, with the rows of exp(cN).

    The compound coefficients of S wedge those of S without its top row
    with that row, bottom-up over masks as `wronskian_table` builds its
    minors, keeping only the nonzero ones.  A mask whose expansion is
    1 * w_S reads that entry unchanged; no table is built or divided."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in mat]

    @cache
    def compound(mask):
        # {T: det mat[S, T]}: w_T ^ w_j = (-1)^#{t in T : t > j} w_(T + j)
        if not mask:
            return {0: Cyc.of(1)}
        top = mask.bit_length() - 1
        out = {}
        for t, coeff in compound(mask ^ (1 << top)).items():
            for j, x in rows[top]:
                if not t >> j & 1:
                    term = x * coeff
                    key = t | 1 << j
                    out[key] = out.get(key, ZERO) + (
                        -term if (t >> j).bit_count() % 2 else term)
        return {t: c for t, c in out.items() if c}

    @cache
    def entry(mask):
        terms = compound(mask)
        if terms.keys() == {mask} and terms[mask] == 1:
            return wr_plus(mask)
        return _combine(terms.values(), [wr_plus(t) for t in terms])
    return entry


def _congruence(mat, g):
    """mat G mat^T: the Gram matrix of v_i = sum_j mat[i][j] w_j from the
    Gram matrix G of w, as B is bilinear."""
    return _mat_mul_c(_mat_mul_c(mat, g), list(zip(*mat)))


def _mat_mul_c(a, b):
    n = len(a)
    out = [[Cyc.of(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


# --- frame condition checks ---------------------------------------------------


def frame_conditions_check(space):
    """Clause-by-clause report of the frame conditions.

    (i)   a special basis with the prescribed exponents exists;
    (ii)  every basis-subset divided Wronskian is an exact quasi-polynomial
          (regular away from 0) and for each size some subset is nonzero
          at every nonzero point (gcd of the quotients is a monomial);
    (iii) expansions at 0 carry only exponents >= 0 with, for each size, a
          witness with nonzero constant coefficient.
    """
    report = {}
    try:
        basis = special_basis_from(space.frame, space.basis)
        report["clause_i"] = {"ok": True,
                              "degrees": [str(u.degree) for u in basis]}
    except NoSpecialBasis as exc:
        report["clause_i"] = {"ok": False, "reason": str(exc)}
    size = len(space.basis)
    ok_ii = True
    ok_iii = True
    detail_ii = []
    detail_iii = []
    for k in range(1, size + 1):
        quotients = []
        for subset in combinations(range(size), k):
            try:
                q = space.wr_plus(sum(1 << i for i in subset))
            except InexactDivision as exc:
                ok_ii = False
                detail_ii.append(f"k={k} subset {subset}: {exc}")
                continue
            quotients.append(q)
            if not q.is_quasi():
                ok_ii = False
                detail_ii.append(
                    f"k={k} subset {subset}: negative exponents in {q}")
        nonzero = [q for q in quotients if not q.is_zero()]
        if not nonzero:
            ok_ii = False
            detail_ii.append(f"k={k}: all divided Wronskians vanish")
            continue
        g = nonzero[0]
        for q in nonzero[1:]:
            g = qgcd(g, q)
        if not g.is_monomial():
            ok_ii = False
            detail_ii.append(f"k={k}: common nonzero root, gcd {g}")
        if not any(not q.coeff(0).is_zero() for q in nonzero):
            ok_iii = False
            detail_iii.append(f"k={k}: no witness with nonzero constant term")
    report["clause_ii"] = {"ok": ok_ii, "detail": detail_ii}
    report["clause_iii"] = {"ok": ok_iii, "detail": detail_iii}
    report["ok"] = all(report[c]["ok"]
                       for c in ("clause_i", "clause_ii", "clause_iii"))
    return report


# --- population description and sampling --------------------------------------


def cyclotomic_population(inst, space, witt, sample_count=0, rng_seed=0):
    """The component dimensions of the seed's kernel space (`kernel_basis`)
    and optionally `sample_count` sampled population members.

    `witt` is the Witt basis of the seed's flag without quadratic
    extension.  Members come from B-preserving lower-triangular flows
    applied to it; every emitted tuple is proven a cyclotomic critical
    point (`frame.prove_cyclotomic`), and a non-generic one is dropped.
    """
    import random as _random
    p = space.frame.p
    size = space.frame.r + 1
    dims = {"sp": 2 * p, "o": size - 2 * p}
    members = []
    rng = _random.Random(rng_seed)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
            Fraction(2), Fraction(1, 3), Fraction(3), Fraction(-1, 2)]
    gens = available_generators(space)
    attempts = 0
    while len(members) < sample_count and attempts < 10 * sample_count + 10:
        attempts += 1
        cur, tup = witt, None
        for kind, k in gens:
            c = rng.choice(pool)
            if c == 0:
                continue
            cur, tup = apply_flow(space, cur, (kind, k), c)
        if tup is None:  # no flow ran
            tup = _beta(cur.wr_plus, size - 1)
        if not all(q.is_polynomial() for q in tup):
            continue
        y = BetheTuple.monic_of(tup)
        try:
            crit, _ = prove_cyclotomic(inst, y)
        except NotGeneric:
            continue
        except NotCyclotomic:
            crit = False
        if not crit:
            raise InternalInvariantError(
                "sampled population member fails verification")
        members.append(y)
    return {"dims": dims,
            "components": f"FL_perp(Sp^{dims['sp']}) x FL_perp(O^{dims['o']})",
            "members": members}


def available_generators(space):
    """The flow generators (kind, k) of the space (`_generators`)."""
    return _generators(space.frame.r, space.frame.p)


def require_generator(r, p, kind, k):
    """InputError unless (kind, k) is a flow generator of a frame of rank r
    and integer p.  A frame reads both off its instance alone
    (`require_type_a`, `determine_p`), so a command can refuse a generator
    before it proves or builds anything."""
    if (kind, k) not in _generators(r, p):
        raise InputError(f"{kind}_{k} is not a flow generator of this space")


def _generators(r, p):
    """X_1 .. X_p, then the Y_k (odd r) or Z_k (even r) of the
    orthogonal block, for a frame of rank r and integer p."""
    size = r + 1
    gens = [("X", k) for k in range(1, p + 1)]
    m0 = size - 2 * p
    if m0 >= 2:
        q_len = m0 // 2
        if r % 2 == 1:
            gens.extend(("Y", k) for k in range(1, q_len))
        else:
            gens.extend(("Z", k) for k in range(1, q_len + 1))
    return gens


# --- flow vs generation cross-check --------------------------------------------


def flow_vs_generation(inst, fold, seed, k, params):
    """Check the flow/generation coincidence on a p = n instance.

    beta(exp(-c X_k) F) must reproduce cyclotomic generation with
    parameter 1/(rho c), where the single exact scale rho absorbs the
    normalization freedom of the Witt basis (the anti-diagonal pattern
    fixes the products of paired scales but not their ratios).  rho is
    computed in closed form from one family slope, reported, and the match
    is then verified exactly at every requested parameter.  X_k is
    refused first unless the instance's frame has it (`require_generator`);
    then the seed is proven a cyclotomic critical point (SeedInvalid), as
    each generated member is proven only on the orbit it moved.
    """
    from .genengine import _checked, _seed_checked, generation_family
    require_generator(require_type_a(inst), determine_p(inst), "X", k)
    _seed_checked(inst, seed)
    space, flag = kernel_basis(inst, seed)
    witt = witt_basis(space, adjusted=flag.adjusted)
    rho = None
    matches = []
    for c in params:
        c = c if isinstance(c, Cyc) else Cyc.of(c)
        if c.is_zero():
            raise InputError("flow comparison needs nonzero parameters")
        _, tup = apply_flow(space, witt, ("X", k), -c)
        flow_tuple = BetheTuple.monic_of(tup)
        if rho is None:
            # X_k moves the orbit {k, R+1-k} (1-based), represented by k-1;
            # its generation family is solved once for every parameter
            idx, base, dir_poly, member = generation_family(
                inst, fold, seed, k - 1)
            rho = _calibrate_rho(flow_tuple[idx], base, dir_poly, c)
        gen_c = Cyc.of(1) / (rho * c)
        gen_tuple, step = member(gen_c)
        _checked(inst, gen_tuple, step)
        matches.append(flow_tuple == gen_tuple)
    return {"rho": rho, "all_match": all(matches), "matches": matches}


def _calibrate_rho(target, base, dir_poly, c):
    """Exact scale rho with generate(1/(rho*c)) = flow(-c)-image.

    The moved generation component is base + c~ * dir before monic
    normalization (`generation_family`); matching the flow component
    T = `target` at the reference parameter means s*T = base + c~*dir for
    some scale s, a linear system in (s, c~).  Then rho = 1/(c~ * c).
    """
    exps = _support([target, dir_poly, base])
    rows = [[target.coeff(e), -dir_poly.coeff(e)] for e in exps]
    sol = linalg.solve(rows, [base.coeff(e) for e in exps])
    if sol is None:
        raise InternalInvariantError(
            "flow image does not lie on the generation family")
    _, c_tilde = sol
    c_tilde = c_tilde if isinstance(c_tilde, Cyc) else Cyc.of(c_tilde)
    if c_tilde.is_zero():
        raise InternalInvariantError("degenerate calibration parameter")
    return (Cyc.of(1) / (c_tilde * c))
