"""Bethe tuples and the exact verification layer.

A ProblemInstance (defined in `cartan`, and importable from here) fixes
the Cartan data, a diagram automorphism sigma of order M with a declared
primitive root omega, marked points z_s with dominant integral weights,
and the sigma-invariant weight at the origin.  On top of that this module
provides:

  * the extended sites (`extended_sites`): the origin with L0, and
    omega^k z_s with sigma^k Lambda_s, the one list that the frame
    polynomials, Lambda and the eigenvalues read,
  * the frame polynomials T_i, the product of (x - z)^<Lambda, a_i^vee>
    over the extended sites off the origin, which `frame_polys` builds
    once per instance and keeps in a derived slot of the instance (not a
    field, like `orbit_reps`), so that no function takes them as an
    argument, and T~_i,
  * exact genericity, cyclotomy and criticality tests for tuples,
  * weight-at-infinity bookkeeping,
  * validation of the conditions on the weight at the origin,
  * exact Gaudin eigenvalues for both the cyclotomic and the extended
    pictures, and the equality between them.

Criticality is tested by residue divisibility: with gamma = <L0, a_i^vee>
and P = T_i prod_{j != i} y_j^{-<alpha_j, alpha_i^vee>}, the tuple is
critical in direction i iff y_i divides (gamma P + x P') y_i' - x P y_i''.
That polynomial identity is exactly the statement that the logarithmic
derivative of x^gamma T_i (x - t)^2 prod y_j^... vanishes at every root t
of y_i, i.e. the Bethe equations hold at all roots simultaneously, without
ever leaving the coefficient field.

The cyclotomic Bethe equations are the extended ones at the orbit
representatives.  A ProblemInstance has M = |sigma|, omega a primitive
M-th root, sigma preserving A and a sigma-invariant L0, and `frame_polys`
builds T_i from the omega-orbits of the points, so T_{sigma i}(omega x) =
e T_i(x) and, for a cyclotomic tuple (y_{sigma i}(omega x) = c y_i(x)),
P_{sigma i}(omega x) = k P_i(x) for constants e, k.  The residue R_i =
(gamma P + x P') y_i' - x P y_i'' then satisfies R_{sigma i}(omega x) =
(k c / omega) R_i(x), so y_{sigma i} | R_{sigma i} iff y_i | R_i.  The roots
of y_{sigma i} and T_{sigma i} are omega times those of y_i and T_i, and
sigma maps edges of A to edges, so squarefreeness, a root at 0, a root
shared with T_i and a root shared with y_j (a_ij != 0) each hold at every
member of a sigma-orbit of nodes or edges when they hold at one.
`prove_cyclotomic` therefore proves a cyclotomic tuple at
`ProblemInstance.orbit_reps` only; it is the one proof of the seed and of
every generated tuple in `genengine`, and of every sampled type-A member.

Given the representative i that a generation step moved, it proves only
what reads the sigma-orbit O of i: off O the tuple is its proven parent's
(`prove_cyclotomic`).  The cyclotomy condition at j reads y_j and
y_{sigma j}, both in O or both off it.  The conditions on y_r alone read
y_r and T_r, and a coprimality condition reads the two ends of its edge;
so at a representative r != i, and on an edge with no end in O, they read
only the parent's components and hold as they held there.  Every skipped
condition holds, so the first failing one of those tested, in the order
of the full proof, is the first failing one of the full proof.  The
residue at r reads y_r and, through P_r, the y_j adjacent to r; at a
representative neither in O nor adjacent to it, it is the parent's and
divides.  At i itself no residue is built: the step's Wronskian equation
implies it (`genengine`).

Nor is a residue built at a representative r adjacent to O when O is
pairwise non-adjacent (a_i,sigma^k i = 0), as after an L = 1 step.  Each
j in O then has its new component y~_j solve Wr(y_j, y~_j) ~ x^gamma_j
T_j prod_k y_k^-a_jk, at i by the step's solve and elsewhere on O by
transport, and y_r divides that right-hand side, as a_jr < 0.  At a root
t of y_r, y_j(t) != 0 by the parent's genericity and y~_j(t) != 0 by the
child's edge (r, j), whose orbit touches O and is tested; so y~_j'/y~_j(t)
= y_j'/y_j(t).  The Bethe equation at t reads each y_k only through
y_k'/y_k(t), so it holds for the child as it held for the parent, and
P~_r(t) != 0 follows from the same coprimality: y_r divides the child's
residue at r.  After an L = 2 step these residues are still built: at r
adjacent to i the step passes through y_i_1, and the argument would also
need gcd(y_i_1, y_r) = 1, a certificate per family that is not made.
`verify` and `eigenvalues` prove every colour (`is_critical_exact`).
"""

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, mul

from .cartan import Weight, inner_product, weight_orbit
# defined in `cartan`, so that reading an instance loads no `frame`
from .cartan import ProblemInstance, canonical_lambda0  # noqa: F401
from .errors import InexactDivision, InputError, NotCyclotomic, NotGeneric
from .qpoly import (QPoly, _sum_of_products, divide_exact, is_squarefree,
                    proportional, qgcd)
from .scalars import Cyc


class BetheTuple:
    """Tuple of monic ordinary polynomials y_i, one per node."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        polys = tuple(polys)
        for y in polys:
            if y.is_zero():
                raise InputError("tuple components must be nonzero")
            if not y.is_polynomial():
                raise InputError("tuple components must be ordinary polynomials")
            if not y.is_monic():
                raise InputError("tuple components must be monic")
        self.polys = polys

    @staticmethod
    def trivial(n):
        return BetheTuple([QPoly.one()] * n)

    @staticmethod
    def monic_of(polys):
        return BetheTuple([p.monic() for p in polys])

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        return isinstance(other, BetheTuple) and all(
            a == b for a, b in zip(self.polys, other.polys)) \
            and len(self) == len(other)

    def degrees(self):
        return tuple(int(y.degree) for y in self.polys)

    def __repr__(self):
        return "BetheTuple(" + "; ".join(str(y) for y in self.polys) + ")"


def frame_polys(inst):
    """(T_1, ..., T_n) of the instance, built on the first call and kept in
    its derived slot, so that every caller reads the same tuple."""
    if inst._frame_polys is None:
        inst._frame_polys = _frame_polys(inst)
    return inst._frame_polys


def _frame_polys(inst):
    """T_i(x) = prod (x - z)^<Lambda, alpha_i^vee> over the extended sites
    (z, Lambda) off the origin (`extended_sites`).  Each exponent
    <sigma^k Lambda_s, alpha_i^vee> is a pairing of Lambda_s, as sigma^k
    only permutes pairings, and `ProblemInstance` proves each Lambda_s
    dominant integral."""
    sites = extended_sites(inst)[1:]
    return tuple(reduce(mul, (QPoly({Fraction(1): 1, Fraction(0): -z})
                              ** int(lam[i]) for _, z, lam in sites if lam[i]),
                        QPoly.one()) for i in range(inst.cartan.n))


def extended_sites(inst):
    """The extended configuration: [(index, z, weight)] with the origin
    first, then omega^k z_s carrying sigma^k Lambda_s for each s and k < M."""
    sites = [(0, Cyc.of(0), inst.lambda0)]
    for z, lam in zip(inst.points, inst.site_weights):
        for k, cur in enumerate(weight_orbit(inst.aut, lam)):
            sites.append((len(sites), inst.omega ** k * z, cur))
    return sites


def t_tilde(inst, i):
    """T~_i = x^<L0, alpha_i^vee> T_i; Laurent when the pairing is negative."""
    return QPoly.x_power(inst.gamma(i)) * frame_polys(inst)[i]


def is_generic(inst, y, reps=None):
    """Genericity of the tuple with respect to the frame polynomials.

    Returns (ok, witness); the witness names the first failing condition.
    The loop runs over `reps`, pairs (i, js) in ascending i as in
    `ProblemInstance.orbit_reps`: the conditions on y_i alone, then y_i
    coprime to y_j for each j in js.  By default every node i comes with
    each later neighbour j.
    """
    t = frame_polys(inst)
    if reps is None:
        a, n = inst.cartan.a, len(y)
        reps = [(i, [j for j in range(i + 1, n) if a[i][j]]) for i in range(n)]
    for i, js in reps:
        yi = y[i]
        if yi.degree == 0:
            continue
        if yi.coeff(0).is_zero():
            return False, f"y_{i} vanishes at the origin"
        if not is_squarefree(yi):
            return False, f"y_{i} is not squarefree"
        g = qgcd(yi, t[i])
        if g.degree != 0:
            return False, f"y_{i} shares a root with T_{i}"
        # each edge once, at its lesser node (the zero pattern of a is
        # symmetric); an edge at a constant y_i shares no root
        for j in js:
            witness = _shared_root(y, i, j)
            if witness:
                return False, witness
    return True, None


def _shared_root(y, i, j):
    """The witness that y_i shares a root with y_j, or None."""
    if y[i].degree and qgcd(y[i], y[j]).degree != 0:
        return f"y_{i} shares a root with y_{j}"
    return None


def interaction_product(inst, y, i):
    """P = T_i prod_{j != i} y_j^{-<alpha_j, alpha_i^vee>} (a polynomial).

    T_i is monic, so it is the constant one when its degree is 0, and then
    the product starts from its first y_j factor."""
    t_i = frame_polys(inst)[i]
    a = inst.cartan.a[i]
    factors = [yj ** -a[j] for j, yj in enumerate(y) if j != i and a[j]]
    if t_i.degree or not factors:
        factors.insert(0, t_i)
    return reduce(mul, factors)


def is_critical_exact(inst, y):
    """Residue-divisibility criticality test of the extended master
    function, at every colour.

    Returns (ok, report) with a per-colour record {divides, witness}, and
    raises NotGeneric naming the first failing genericity condition.
    """
    ok, witness = is_generic(inst, y)
    if not ok:
        raise NotGeneric(witness)
    return _residues(inst, y, range(len(y)))


def prove_cyclotomic(inst, y, moved=None):
    """The proof of a cyclotomic critical point (module docstring):
    NotCyclotomic unless the tuple is cyclotomic, then NotGeneric naming
    the first failing condition at `ProblemInstance.orbit_reps`, which is
    the first of `is_critical_exact`, then (ok, report) with a residue at
    each representative.

    `moved` is an orbit representative i, and then y must differ from a
    proven cyclotomic critical point only on the sigma-orbit O of i, as
    the member of a generation family in direction i does.  Only what
    reads O is proven, since the rest held there and holds again: the
    cyclotomy of each j in O; the conditions on y_i alone and, of the
    edges of `orbit_reps`, those that touch O, in the order of the full
    proof, so the first failing condition is its first; and, unless O is
    pairwise non-adjacent (a_i,sigma^k i = 0, so the step was L = 1 and
    its Wronskian equation implies them), a residue at each other
    representative adjacent to O.  Without `moved`, O is every node.
    """
    orbit = range(len(y)) if moved is None else set(inst.aut.cycles[moved])
    if not _cyclotomic_at(inst, y, orbit):
        raise NotCyclotomic("the tuple is not cyclotomic")
    for r, js in inst.orbit_reps:
        if r in orbit:
            witness = is_generic(inst, y, [(r, js)])[1]
        else:
            witness = next(filter(None, (_shared_root(y, r, j)
                                         for j in js if j in orbit)), None)
        if witness:
            raise NotGeneric(witness)
    a = inst.cartan.a
    if moved is not None and not any(a[moved][j] for j in orbit
                                     if j != moved):
        # O pairwise non-adjacent: an L = 1 step, whose equation implies
        # every residue that reads O (module docstring)
        return True, {}
    # a_rr = 2: a representative in O reads O too
    return _residues(inst, y, [r for r, _ in inst.orbit_reps if r != moved
                               and any(a[r][j] for j in orbit)])


def _residues(inst, y, colours):
    """(ok, report): a residue (`_residue`) per colour."""
    report = {i: _residue(inst, y, i, inst.gamma(i)) for i in colours}
    return all(r["divides"] for r in report.values()), report


def _residue(inst, y, i, gamma):
    """{divides, witness}: whether y_i divides (gamma P + x P') y_i' -
    x P y_i'', with the quotient as the witness."""
    yi = y[i]
    if yi.degree == 0:
        return {"divides": True, "witness": None}
    p, dy = interaction_product(inst, y, i), yi.derivative()
    x = QPoly.x_power(1)
    # (gamma P + x P') y' - x P y'' as one sum of products
    expr = _sum_of_products([c for c in (
        (gamma, p, dy), (1, x * p.derivative(), dy),
        (-1, x * p, dy.derivative())) if all(c)], lcm(p.L, yi.L))
    if expr.is_zero():
        return {"divides": True, "witness": None}
    try:
        return {"divides": True, "witness": divide_exact(expr, yi)}
    except InexactDivision:
        return {"divides": False, "witness": None}


def is_cyclotomic_tuple(inst, y):
    """y_{sigma j}(omega x) proportional to y_j(x) for all j."""
    return _cyclotomic_at(inst, y, range(len(y)))


def _cyclotomic_at(inst, y, nodes):
    """y_{sigma j}(omega x) proportional to y_j(x) for each j in `nodes`."""
    for j in nodes:
        scaled = y[inst.aut(j)].substitute_scale(inst.omega)
        if not proportional(scaled, y[j]):
            return False
    return True


def big_lambda(inst):
    """Lambda = L0 + sum_s sum_(k<M) sigma^k Lambda_s, the sum of the
    weights of all extended sites (`extended_sites`), the origin's L0
    included (for the flip that is L0 + sum_s (Lambda_s + sigma Lambda_s))."""
    return reduce(add, (lam for _, _, lam in extended_sites(inst)))


def weight_at_infinity(inst, y):
    """Lambda_inf = Lambda - sum_j deg(y_j) alpha_j, Lambda = `big_lambda`."""
    total = big_lambda(inst)
    a = inst.cartan.a
    degs = [int(p.degree) for p in y]
    adjust = [sum(a[i][j] * degs[j] for j in range(inst.cartan.n))
              for i in range(inst.cartan.n)]
    return Weight([total[i] - adjust[i] for i in range(inst.cartan.n)])


def validate_lambda0(inst, fold, typea_p=None):
    """Check the admissibility conditions on the weight at the origin.

    For L_i = 1: <L0, a_i^vee> in Z>=0 and <L0, a_i^vee> + 1 = 0 mod M/M_i.
    For L_i = 2: <L0, a_i^vee> in Z + 1/2 with 2<L0, a_i^vee> + 1 >= 0
    (the half-odd strengthening used by the L = 2 generation).  Generation
    refuses a direction by the same rules (`l1_violation`, `l2_violation`).
    With `typea_p` given, also the type-A conditions for that p.
    Report-valued: returns (ok, [violations]).
    """
    violations = []
    for i in range(inst.cartan.n):
        violation = (l1_violation(inst, fold, i) if fold.linking[i] == 1
                     else l2_violation(inst, i))
        if violation:
            violations.append(violation)
    if typea_p is not None:
        violations.extend(_typea_lambda0_violations(inst, typea_p))
    return (not violations), violations


def l1_violation(inst, fold, i):
    """The breach of the L = 1 rule on <L0, a_i^vee> at node i, or None."""
    v = inst.lambda0[i]
    if not (v.denominator == 1 and v >= 0):
        return f"node {i}: L=1 needs <L0,a^vee> in Z>=0, got {v}"
    modulus = inst.M // fold.orbit_len[i]
    if (int(v) + 1) % modulus != 0:
        return (f"node {i}: L=1 needs <L0,a^vee>+1 = 0 mod {modulus}, "
                f"got {v}")
    return None


def l2_violation(inst, i):
    """The breach of the L = 2 rule on <L0, a_i^vee> at node i, or None."""
    v = inst.lambda0[i]
    if v.denominator != 2:
        return f"node {i}: L=2 needs a half-odd pairing, got {v}"
    if 2 * v + 1 < 0:
        return f"node {i}: L=2 needs 2<L0,a^vee>+1 >= 0, got {v}"
    return None


def _typea_lambda0_violations(inst, p):
    r = inst.cartan.n
    n_half = (r + 1) // 2
    lam0 = inst.lambda0
    out = []
    if not (0 <= p <= n_half):
        out.append(f"p = {p} out of range 0..{n_half}")
        return out
    m_i = [2 if inst.aut(i) != i else 1 for i in range(r)]
    for i in range(r):
        if i in (p - 1, r - p):  # 0-based nodes p and R+1-p
            continue
        v = lam0[i]
        lim = Fraction(2, m_i[i])
        if not (v >= 0 and (v / lim).denominator == 1):
            out.append(f"node {i}: type-A needs pairing in {lim}*Z>=0, got {v}")
    if p > 0:
        v = lam0[p - 1]
        if r == 2 * n_half - 1 and p == n_half:
            if not (v.denominator == 1 and v >= 1 and int(v) % 2 == 1):
                out.append(f"node {p - 1}: p=n on odd rank needs odd integer "
                           f">= 1, got {v}")
        else:
            if not (v.denominator == 2 and 2 * v >= -1):
                out.append(f"node {p - 1}: needs half-odd >= -1/2, got {v}")
    return out


# --- eigenvalues ---------------------------------------------------------


def _log_deriv_at(poly, point, pairing):
    """y'(z)/y(z) as an exact scalar, for a term with coefficient
    `pairing`; None at a root of y when the pairing is 0."""
    val = poly.eval_at(point)
    if val.is_zero():
        if not pairing:
            return None
        raise InputError("eigenvalue evaluation hits a Bethe root at a site")
    return poly.derivative().eval_at(point) / val


def eigenvalues(inst, y):
    """Exact Gaudin eigenvalues in both pictures, plus the match verdict.

    E^(i) (cyclotomic picture, one per marked point) and E~ (extended
    picture, one per extended site, origin included).  Root sums are
    evaluated through logarithmic derivatives y'(z)/y(z), which is exactly
    the symmetric-function elimination of the Bethe roots.

    The match verdict asserts E~ at the site carrying sigma^k Lambda_s at
    omega^k z_s equals omega^-k E^(s), and that the origin eigenvalue is
    zero (for M > 1).

    The colour-c term at a site of weight Lambda carries the factor
    (Lambda, alpha_c), and f_c v_Lambda = 0 when <Lambda, alpha_c^vee> = 0:
    no Bethe vector component lowers that site by alpha_c, so the term has
    no pole at the site.  Genericity allows a root of y_c there (T_c has no
    factor at it), and such a term is skipped rather than evaluated.
    """
    cartan = inst.cartan
    cartan.weight_gram  # SingularCartan up front, before any other work
    try:
        ok, _ = is_critical_exact(inst, y)
        warn_not_critical = not ok
    except NotGeneric:
        warn_not_critical = True

    def ip(lam, mu):
        return inner_product(cartan, lam, mu)

    alpha = [Weight.simple_root(cartan, j) for j in range(cartan.n)]
    M, omega = inst.M, inst.omega
    sites = extended_sites(inst)
    # of_point[j]: the sites omega^k z_j, k < M, in the order of the list
    of_point = [sites[1 + j * M:1 + (j + 1) * M]
                for j in range(len(inst.points))]

    cyc = []
    for i, zi in enumerate(inst.points):
        lam_i = inst.site_weights[i]
        acc = Cyc.of(0)
        for j, group in enumerate(of_point):
            if j != i:
                for _, zj, lam in group:
                    acc = acc + Cyc.of(ip(lam_i, lam)) / (zi - zj)
        for c, yc in enumerate(y):
            if yc.degree == 0:
                continue
            for s, cur_alpha in enumerate(weight_orbit(inst.aut, alpha[c])):
                pairing = ip(lam_i, cur_alpha)
                ratio = _log_deriv_at(yc, omega ** (-s) * zi, pairing)
                if ratio is not None:
                    acc = acc - Cyc.of(pairing) * omega ** (-s) * ratio
        tail = Cyc.of(ip(lam_i, inst.lambda0))
        for s, (_, _, lam) in enumerate(of_point[i][1:], 1):
            tail = tail + Cyc.of(ip(lam_i, lam)) / (1 - omega ** s)
        acc = acc + tail / zi
        cyc.append(acc)

    ext = []
    for idx, z, lam in sites:
        acc = Cyc.of(0)
        for jdx, zj, lamj in sites:
            if jdx == idx:
                continue
            acc = acc + Cyc.of(ip(lam, lamj)) / (z - zj)
        for c, yc in enumerate(y):
            if yc.degree == 0:
                continue
            pairing = ip(lam, alpha[c])
            ratio = _log_deriv_at(yc, z, pairing)
            if ratio is not None:
                acc = acc - Cyc.of(pairing) * ratio
        ext.append(acc)

    match = True
    origin_zero = True
    if M > 1:
        origin_zero = ext[0].is_zero()
        match = origin_zero
    pos = 1
    for s in range(len(inst.points)):
        for k in range(M):
            if ext[pos] != omega ** (-k) * cyc[s]:
                match = False
            pos += 1
    return {"cyclotomic": cyc, "extended": ext, "match": match,
            "origin_zero": origin_zero, "not_critical": warn_not_critical}
