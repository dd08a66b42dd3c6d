"""Generalized Cartan matrices, weights, shifted Weyl actions, diagram
automorphisms, the linking condition, folded Cartan data, problem
instances and the canonical type-A weight at the origin.

Node indices are 0-based internally; the JSON/CLI layer converts from the
1-based convention used in input files.  Weights are stored purely by
their coroot pairings <lambda, alpha_i^vee>.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import linalg
from .errors import (InputError, LinkingViolation, NonRegular, NonTerminating,
                     SingularCartan, UnsupportedType)

_REFLECTION_CAP = 10 ** 6  # guards dominant-reduction on non-finite inputs

# The largest rank of Cartan data: the weight form inverts a dense
# rank x rank matrix of rationals, and a series tag such as "A5" builds its
# matrix from the rank alone, so a larger rank is an InputError, raised
# before anything of that size is built.
MAX_RANK = 64


def check_rank(rank):
    """rank, or an InputError when it is outside 1..MAX_RANK."""
    if not 1 <= rank <= MAX_RANK:
        raise InputError(f"rank {rank} is outside 1..{MAX_RANK}")
    return rank


class Record:
    """Value equality, hashing and a repr over the attributes named in
    `_fields`: the base of the package's plain record classes."""

    __slots__ = ()
    _fields = ()

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


def _symmetrizers(a):
    """Coprime positive integers d with diag(d) a symmetric, or None."""
    n = len(a)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] == 0 and a[j][i] == 0:
                    continue
                if (a[i][j] == 0) != (a[j][i] == 0):
                    return None
                if i == j:
                    continue
                want = d[i] * a[i][j] / a[j][i]
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    return None
    mult = lcm(*(x.denominator for x in d))
    ints = [int(x * mult) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


class CartanData(Record):
    """Symmetrizable generalized Cartan matrix with symmetrizers d."""

    # no __slots__: `weight_gram` caches in the instance __dict__
    _fields = ("a", "d")

    def __init__(self, a, d):
        self.a = a
        self.d = d
        n = len(self.a)
        for i in range(n):
            if len(self.a[i]) != n:
                raise InputError("Cartan matrix must be square")
            if self.a[i][i] != 2:
                raise InputError(f"diagonal entry a[{i}][{i}] != 2")
            for j in range(n):
                if i != j and self.a[i][j] > 0:
                    raise InputError(f"off-diagonal a[{i}][{j}] > 0")
                if (self.a[i][j] == 0) != (self.a[j][i] == 0):
                    raise InputError(f"zero pattern not symmetric at ({i},{j})")
        if len(self.d) != n or any(x <= 0 for x in self.d):
            raise InputError("symmetrizers must be positive")
        for i in range(n):
            for j in range(n):
                if self.d[i] * self.a[i][j] != self.d[j] * self.a[j][i]:
                    raise InputError("diag(d) a is not symmetric")

    @property
    def n(self):
        return len(self.a)

    @cached_property
    def weight_gram(self):
        """Gram matrix d_i (a^{-1})_{ij} of the fundamental weights."""
        inv = linalg.invert([[Fraction(x) for x in row] for row in self.a])
        if inv is None:
            raise SingularCartan("singular Cartan matrix has no weight form")
        return tuple(tuple(self.d[i] * x for x in row)
                     for i, row in enumerate(inv))

    @staticmethod
    def from_matrix(rows, d=None):
        check_rank(len(rows))
        a = tuple(tuple(int(x) for x in row) for row in rows)
        if any(len(row) != len(a) for row in a):
            raise InputError(f"Cartan matrix {a} is not square")
        if d is None:
            d = _symmetrizers(a)
            if d is None:
                raise InputError("Cartan matrix is not symmetrizable")
        return CartanData(a=a, d=tuple(int(x) for x in d))

    @staticmethod
    def series(name, rank):
        """Named series; only type A is needed in this artifact."""
        if name.upper() != "A":
            raise InputError(f"unsupported series {name}_{rank}")
        check_rank(rank)
        a = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
              for j in range(rank)] for i in range(rank)]
        return CartanData.from_matrix(a, d=[1] * rank)


class DiagramAut(Record):
    """Permutation of the nodes preserving the Cartan matrix."""

    _fields = ("perm",)  # images, 0-based
    __slots__ = _fields + ("order",)

    def __init__(self, perm):
        if sorted(perm) != list(range(len(perm))):
            raise InputError("not a permutation")
        self.perm = perm
        # the lcm of the cycle lengths: derived, so not a field
        self.order = lcm(*map(len, self.orbits()))

    def __call__(self, i):
        return self.perm[i]

    def inverse(self, i):
        return self.perm.index(i)

    def power(self, i, k):
        k %= self.order
        for _ in range(k):
            i = self.perm[i]
        return i

    def validate_for(self, cartan):
        for i in range(cartan.n):
            for j in range(cartan.n):
                if cartan.a[self.perm[i]][self.perm[j]] != cartan.a[i][j]:
                    raise InputError(
                        f"permutation does not preserve the Cartan matrix "
                        f"at ({i},{j})")

    def orbits(self):
        seen, out = set(), []
        for i in range(len(self.perm)):
            if i in seen:
                continue
            orbit, j = [i], self.perm[i]
            while j != i:
                orbit.append(j)
                j = self.perm[j]
            seen.update(orbit)
            out.append(tuple(orbit))
        return out


class Weight:
    """Weight recorded by its coroot pairings (exact rationals)."""

    __slots__ = ("pairings",)

    def __init__(self, pairings):
        self.pairings = tuple(Fraction(p) for p in pairings)

    def __len__(self):
        return len(self.pairings)

    def __getitem__(self, i):
        return self.pairings[i]

    def __iter__(self):
        return iter(self.pairings)

    def __add__(self, other):
        return Weight(a + b for a, b in zip(self.pairings, other.pairings))

    def __sub__(self, other):
        return Weight(a - b for a, b in zip(self.pairings, other.pairings))

    def __neg__(self):
        return Weight(-a for a in self.pairings)

    def scale(self, k):
        k = Fraction(k)
        return Weight(a * k for a in self.pairings)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.pairings == other.pairings

    def __hash__(self):
        return hash(self.pairings)

    def is_dominant_integral(self):
        return all(p >= 0 and p.denominator == 1 for p in self.pairings)

    def __repr__(self):
        return "Weight(" + ", ".join(str(p) for p in self.pairings) + ")"

    @staticmethod
    def zero(n):
        return Weight([0] * n)

    @staticmethod
    def simple_root(cartan, j):
        """alpha_j as a weight: pairings <alpha_j, alpha_i^vee> = a[i][j]."""
        return Weight([cartan.a[i][j] for i in range(cartan.n)])


class FoldedData(Record):
    """Orbit data and the folded Cartan matrix A^sigma on representatives."""

    __slots__ = _fields = ("reps", "orbit_len", "linking", "a_fold", "orbits")

    def __init__(self, reps, orbit_len, linking, a_fold, orbits):
        self.reps = reps            # chosen orbit representatives, ascending
        self.orbit_len = orbit_len  # M_i for every node i
        self.linking = linking      # L_i for every node i
        self.a_fold = a_fold        # CartanData
        self.orbits = orbits        # full orbits, one per representative


def orbit_data(cartan, aut):
    """Fold the diagram; raises LinkingViolation when some L_i > 2."""
    aut.validate_for(cartan)
    n = cartan.n
    orbit_of = {}
    orbits = []
    for orbit in aut.orbits():
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
        j = aut(i)
        seen = {i}
        while j not in seen:
            total += cartan.a[j][i]
            seen.add(j)
            j = aut(j)
        linking.append(1 - total)
    for i in range(n):
        if linking[i] > 2:
            raise LinkingViolation(i, linking[i])

    a_fold_rows = []
    for i in reps:
        row = []
        orbit_i = sorted(set(aut.power(i, k) for k in range(m_len[i])))
        for j in reps:
            row.append(linking[i] * sum(cartan.a[k][j] for k in orbit_i))
        a_fold_rows.append(row)
    a_fold = CartanData.from_matrix(a_fold_rows)
    return FoldedData(reps=reps, orbit_len=tuple(m_len),
                      linking=tuple(linking), a_fold=a_fold,
                      orbits=tuple(tuple(sorted(o)) for o in orbits))


def sigma_on_weight(aut, weight):
    """(sigma lambda)_i = lambda_(sigma^-1 i)."""
    return Weight([weight[aut.inverse(i)] for i in range(len(weight))])


def weight_orbit(aut, weight):
    """[sigma^k lambda for k < M], M the order of sigma."""
    out = [weight]
    for _ in range(aut.order - 1):
        out.append(sigma_on_weight(aut, out[-1]))
    return out


def shifted_reflect(cartan, i, weight):
    """Shifted reflection s_i . lambda = s_i(lambda + rho) - rho."""
    shift = weight[i] + 1
    return Weight([weight[j] - cartan.a[j][i] * shift for j in range(cartan.n)])


def folded_reflect(cartan, aut, fold, i, weight):
    """Apply s_i^sigma in the shifted action via its reflection word."""
    if i not in fold.reps:
        raise InputError(f"{i} is not an orbit representative")
    m = fold.orbit_len[i]
    li = fold.linking[i]
    chain = [aut.power(i, k) for k in range(m)]
    if li == 1:
        word = chain
    else:
        half = m // 2
        first = chain[:half]
        second = chain[half:]
        word = first + second + first
    out = weight
    for node in reversed(word):
        out = shifted_reflect(cartan, node, out)
    return out


def dominant_shifted_rep(cartan, weight):
    """Dominant representative of the shifted Weyl orbit, with the word used.

    Repeatedly reflects at any node where <lambda + rho, alpha_i^vee> < 0.
    Raises NonRegular on a zero pairing and NonTerminating past the guard.
    """
    current = weight
    word = []
    for _ in range(_REFLECTION_CAP):
        neg = None
        for i in range(cartan.n):
            val = current[i] + 1
            if val == 0:
                raise NonRegular(
                    f"lambda + rho has zero pairing at node {i}: {current}")
            if val < 0:
                neg = i
                break
        if neg is None:
            return current, word
        current = shifted_reflect(cartan, neg, current)
        word.append(neg)
    raise NonTerminating("dominant reduction did not terminate "
                         f"within {_REFLECTION_CAP} reflections")


def inner_product(cartan, lam, mu):
    """Symmetric bilinear form (lambda, mu) on the fundamental-weight span.

    (lambda, mu) = sum_i <lambda, alpha_i^vee> d_i (A^{-1} mu)_i, which is
    the Gram matrix d_i (a^{-1})_{ij} of the fundamental weights.
    """
    gram = cartan.weight_gram
    n = cartan.n
    return sum(Fraction(lam[i]) * gram[i][j] * Fraction(mu[j])
               for i in range(n) for j in range(n))


# --- problem instances and the canonical weight at the origin --------------


def _orbit_reps(a, aut):
    """((i, (j, ...)), ...) in ascending i: the least node i of each
    sigma-orbit of nodes, with each j > i such that a_ij != 0 and (i, j) is
    the lexicographically least member of the sigma-orbit of the edge {i, j}.
    The first node of a least edge is the least of its orbit."""
    def least(*nodes):
        images, cur = [], tuple(sorted(nodes))
        while cur not in images:
            images.append(cur)
            cur = tuple(sorted(aut(v) for v in cur))
        return min(images)
    n = len(a)
    return tuple((i, tuple(j for j in range(i + 1, n)
                           if a[i][j] and least(i, j) == (i, j)))
                 for i in range(n) if least(i) == (i,))


class ProblemInstance(Record):
    _fields = ("cartan", "aut", "omega", "points", "site_weights", "lambda0")
    __slots__ = _fields + ("orbit_reps", "_frame_polys")

    def __init__(self, cartan, aut, omega, points, site_weights, lambda0):
        aut.validate_for(cartan)
        M = aut.order
        if omega ** M != 1:
            raise InputError("omega^M != 1")
        for k in range(1, M):
            if omega ** k == 1:
                raise InputError("omega is not a primitive M-th root")
        if len(points) != len(site_weights):
            raise InputError("points and site weights differ in length")
        for z in points:
            if z.is_zero():
                raise InputError("marked points must be nonzero")
        for s, lam in enumerate(site_weights):
            if len(lam) != cartan.n:
                raise InputError("weight length mismatch")
            if not lam.is_dominant_integral():
                raise InputError(f"site weight {s} is not dominant integral")
        for i, zi in enumerate(points):
            for j, zj in enumerate(points):
                if i < j:
                    for k in range(M):
                        if zi == omega ** k * zj:
                            raise InputError(
                                f"omega-orbits of z_{i} and z_{j} meet")
        if len(lambda0) != cartan.n:
            raise InputError("lambda0 length mismatch")
        if sigma_on_weight(aut, lambda0) != lambda0:
            raise InputError("lambda0 is not sigma-invariant")
        self.cartan = cartan
        self.aut = aut
        self.omega = omega
        self.points = points              # nonzero Cyc scalars z_s
        self.site_weights = site_weights  # a dominant integral Weight each
        self.lambda0 = lambda0
        # `_orbit_reps` of the nodes and edges: derived, so not a field
        self.orbit_reps = _orbit_reps(cartan.a, aut)
        # T_1 .. T_n, built by `frame.frame_polys` on first use: derived
        self._frame_polys = None

    @property
    def M(self):
        return self.aut.order

    def gamma(self, i):
        """<Lambda_0, alpha_i^vee>."""
        return self.lambda0[i]


def canonical_lambda0(rank, M=2):
    """L0(a_j^vee) = tr_n(sigma^-1 ad_{a_j^vee}) / (1 - omega) for type A.

    The involution is realized on sl_{rank+1} as sigma(X) = -J X^T J^{-1}
    with J the anti-diagonal unit matrix with alternating signs,
    J[k][n-1-k] = (-1)^k, so sigma(X)[a][b] = -(-1)^(a+b) X[n-1-b][n-1-a].
    For M = 1 the sum is empty and the weight is zero.
    """
    check_rank(rank)
    if M == 1:
        return Weight.zero(rank)
    if M != 2:
        raise UnsupportedType("canonical lambda0 implemented for M in {1, 2}")
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
