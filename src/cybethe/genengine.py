"""Elementary and cyclotomic generation of critical points.

Generation in direction i replaces y_i by a solution of the first-order
Wronskian equation Wr(y_i, Y) = T~-type product.  Cyclotomic generation
composes elementary steps across a sigma-orbit so that cyclotomic symmetry
survives:

  L_i = 1: one solve at the representative, then symmetry transport
           y_{sigma^k i}(x) = omega^(k deg Y) Y(omega^-k x) across the
           orbit.  The input is proven cyclotomic, so the equation at
           sigma i is the transport of the one at i, and so is its
           pinned solution: no second solve.
  L_i = 2: the three-step sequence at the A_2 block (i, ibar = sigma i):
           a holomorphic solve for y_i^(i), a pinned-coefficient solve
           plus c y_ibar for the middle step, and a final holomorphic
           step that is linear in c: one solve for its c-independent
           piece, and its c-coefficient read off step 1 (below).

A family is a list of moves (`_pencil`).  A move (j, b, e) gives node j
the component b + c e before monic normalization: (i, base, y_i) for
L = 1, and (ibar, base2, y_ibar) then (i, s0, s1), steps 2 and 3, for
L = 2.  One member path (`_family`) writes each move at sigma^k j for
k < orbit_len / L: across the whole orbit for L = 1, and at j alone for
L = 2, whose orbit of length 2 is the block {i, ibar}.

Parameter convention: the emitted tuples are monic; the step-1 result is
monic-normalized before it enters step 2, which makes the A_2 family from
the trivial tuple come out as exactly (x^3 - 3c, x^3 + 3c).

`generation_family` makes every solve of the family at an orbit
representative once and returns its members as arithmetic in c.
`cyclotomic_generate`, `explore_population` and
`typea.flow_vs_generation` prove their input once (`_seed_checked`,
SeedInvalid).  `cyclotomic_generate` proves one member;
`explore_population` runs a bounded, deterministic BFS: one family per
(node, direction), swept over the samples by arithmetic; each new tuple,
after deduplication, gets one proof (`_checked`) and the
weight-at-infinity dichotomy.  Both proofs are `frame.prove_cyclotomic`:
cyclotomy, then genericity and criticality at the orbit representatives;
this module only maps its failures to errors.  A member differs from its
proven parent only on the sigma-orbit of its direction, so `_checked`
proves that orbit only (`frame`).  The weight at infinity Lambda -
sum_j deg(y_j) alpha_j reads nothing of a tuple but its degrees, and the
folded reflection of a direction reads nothing but the direction and
the weight, so the BFS keeps one dict of each, by degree vector and by
(direction, weight), and computes each value once.

Generation already knows part of what the proof or a fresh solve would
compute, in three places, and none of it is computed again:

  * The moved residue.  Let g be the moved component at the step's
    representative i.  It solves Wr(f, g) = W with W = x^gamma P, gamma
    = <L0, a_i^vee> and P = `interaction_product` of the final tuple at
    i, up to constant factors, which the residue test ignores.  For L = 1,
    f is the parent's y_i, and P is the parent's since the orbit of i is
    pairwise non-adjacent (L_i = 1).  For L = 2, f = x^(gamma+1) y_i_1
    and g = s0 + c s1; the step-3 right-hand side is linear in y_ibar_2
    (a_i,ibar = -1), so Wr(f, g) = W by bilinearity, with W built from
    y_ibar_2 = base2 + c y_ibar.  Each solve checks its equation
    exactly, and s1 and a reparametrized family (below) solve theirs by
    construction.
    At a root t of g, f g' = W and, differentiating, f g'' = W'.  If t is
    a simple root, t != 0 and P(t) != 0, then W(t) != 0, so g'(t) != 0
    and g''/g' = W'/W = gamma/t + P'/P at t.  That is the vanishing at t
    of (gamma P + x P') g' - x P g'', whose divisibility by g is
    `frame._residue`.  The genericity pass, which still runs, proves all
    three conditions at every root, so `_checked` divides no residue at
    the representative of the step it is given.
    After an L = 1 step it divides none at the representatives adjacent
    to the moved orbit either: there the step's equation carries the
    Bethe equation over from the parent (`frame`).  Both arguments rest
    on each member solving its step's equation.  A solved pencil does,
    since `wronskian_ode_solve` checks its equation exactly.  A
    reparametrized one (below) solves it by construction, which no solve
    checks, so `explore_population` checks Wr(y_i, base) = W exactly
    once per reparametrized L = 1 family (`_l1_equation_checked`,
    InternalInvariantError), and every member base + c y_i solves it, as
    Wr(y_i, base + c y_i) = Wr(y_i, base).  After an L = 2 step the
    residues adjacent to the block are still built: at r adjacent to i
    the argument would also need gcd(y_i_1, y_r) = 1, one certificate per
    family, not yet made.
  * The c-coefficient of step 3.  Step 1 solves Wr(y_i, lifted) = W_i
    with lifted = lc(lifted) f, so Wr(f, -lc(lifted) y_i) = W_i.  With the
    middle-step component y_ibar, the step-3 equation is that one, so
    s1 = -lc(lifted) y_i: its one solution in the class of x^0 (f lies in
    the class gamma + 1).
  * The family along the incoming direction: its parent's, reparametrized.
    Let N be made at c along the representative i from the family of its
    parent p, whose first move (j, base, d) is (i, base_p, y_i^p) for L = 1
    and (ibar, base2, y_ibar) for L = 2.  Let m = base + c d, lam = lc(m)
    and t = [d]_(x^deg m); N's component at j is m / lam.  N's equation
    there, Wr(m / lam, Y) = W, has the right-hand side W = Wr(d, base) of
    the move's.  For L = 1, W_i(N) = W_i(p) since N differs from p only on
    the pairwise non-adjacent orbit of i.  For L = 2, step 1 at N gives p's
    y_i_1 back: N_i = y_i_3 / mu solves Wr(f, N_i) = (lam / mu)
    x^gamma P_i(N), the step-3 right-hand side being linear in
    y_ibar_2 = lam N_ibar, so -(mu / lam) f solves N's step-1 equation in
    the class gamma + 1 of its pin; then step 2 at N has p's right-hand
    side.  As Wr(m / lam, -lam d) = Wr(d, base), N's solutions are -lam d +
    span(m / lam), and the one with a zero coefficient at x^deg m is
    t m - lam d.  Step 3 at N is linear in the step-2 component with the
    same f, so it maps p's (s0, s1) alike: N's pencil takes each move
    (j, b, e) of p's to (j, t g - lam e, g / lam) with g = b + c e
    (`_reparametrized`).
    So N's member at c' is p's at c - lam^2 / (c' - kappa) with
    kappa = -lam t, up to scale, and at c' = kappa it is p.
    `explore_population` takes the family so, with no solve, and takes N's
    component m / lam at j itself as the new direction of the first move.
    Its pencil, members and steps are the solved ones, and so are the L = 2
    intermediates in value: y_i_step1 is p's own (monic), and y_ibar_step2
    and y_i_step3 are those of the solved pencil, not only proportional to
    them.
"""

from .cartan import Record, folded_reflect
from .errors import (ExceptionalParameter, InputError,
                     InternalInvariantError, NotCyclotomic, NotGeneric,
                     SeedInvalid, UnsupportedType)
from .frame import (BetheTuple, interaction_product, is_generic,
                    l1_violation, l2_violation, prove_cyclotomic,
                    weight_at_infinity)
from .qpoly import QPoly, wronskian, wronskian_ode_solve
from .scalars import Cyc
from .serialize import tuple_doc_json


class GenerationStep(Record):
    __slots__ = _fields = ("direction", "c", "kind", "intermediates")

    def __init__(self, direction, c, kind, intermediates=()):
        self.direction = direction  # orbit representative
        self.c = c                  # a Cyc
        self.kind = kind            # "L1" or "L2"
        self.intermediates = intermediates  # (name, QPoly) pairs for L2


def _rhs_l1(inst, y, i):
    """x^<L0,a_i^vee> T_i prod_{j != i} y_j^{-a_ij}."""
    return QPoly.x_power(inst.gamma(i)) * interaction_product(inst, y, i)


def _l1_base(inst, y, i):
    """Solution of Wr(y_i, Y) = _rhs_l1 pinned to a zero coefficient at
    x^deg y_i: the c-independent part of the family base + c y_i."""
    base, _ = wronskian_ode_solve(y[i], _rhs_l1(inst, y, i),
                                  ("coeff_zero", y[i].degree))
    return base


def elementary_generate_L1(inst, y, i, c):
    """One elementary generation step at node i (integral <L0, a_i^vee>).

    Returns (tuple, base, generic) where `base` is the pinned particular
    solution (zero coefficient at x^deg y_i), the emitted component is
    monic(base + c*y_i), and `generic` flags whether the result passes the
    genericity test for this parameter value.
    """
    gamma = inst.gamma(i)
    if gamma.denominator != 1 or gamma < 0:
        raise InputError(f"elementary L1 step needs <L0,a_{i}^vee> in Z>=0")
    base = _l1_base(inst, y, i)
    new = base + y[i].scale(c)
    if new.is_zero():
        raise ExceptionalParameter(c, f"component y_{i} degenerates to zero")
    polys = list(y)
    polys[i] = new.monic()
    out = BetheTuple(polys)
    ok, _ = is_generic(inst, out)
    return out, base, ok


def _transport(poly, omega, M, k):
    """omega^(k deg) * poly(omega^-k x) for a nonzero ordinary polynomial and
    omega of order M; omega^-k is taken as omega^(M-k), with no inverse,
    and k = 0 gives poly itself."""
    return poly if k == 0 else poly.substitute_scale(
        omega ** (M - k)).scale(omega ** (k * poly.degree % M))


def generation_family(inst, fold, y, i):
    """The generation family at the orbit representative i, with every
    solve made once; InputError for any other index.

    Returns (index, base, direction, member): the family's first move
    (`_pencil`) and `member`.  The component at `index` of each member is
    base + c * direction before monic normalization, and member(c) gives
    (BetheTuple, GenerationStep) by arithmetic alone.  For L = 1 (base,
    direction) is the pinned particular solution and y_i; for L = 2 it is
    the middle-step pair at ibar, which fixes the parameterization of the
    whole step.  `explore_population` builds the same members from the
    same pencil (`_family`), except that along a node's incoming direction
    it takes the pencil from its parent's (`_reparametrized`) and solves
    nothing.
    """
    return _family(inst, fold, y, i, *_pencil(inst, fold, y, i))


def _pencil(inst, fold, y, i):
    """Every solve of the family at the orbit representative i: its pencil
    (moves, y_i_1).  A move (j, b, e) gives node j the component b + c e
    before monic normalization: ((i, base, y_i),) for L = 1, with y_i_1
    None; ((ibar, base2, y_ibar), (i, s0, s1)) for L = 2.  The L = 2 rule
    on <L0, a_i^vee> (`frame.l2_violation`) is checked before any solve.

    For L = 2, a_i,ibar = a_ibar,i = -1 makes the step-2 and step-3
    right-hand sides L = 1 ones with one component replaced, and step 3
    linear in y_ibar_2 = base2 + c y_ibar.  The step-3 pin at 0, in a class
    disjoint from the support of x^(gamma+1) y_i_1, makes its solution
    unique, so y_i_3 = s0 + c s1, and s1 = -lc(lifted) y_i needs no solve
    (module docstring).
    """
    if i not in fold.reps:
        raise InputError(
            f"direction {i + 1} is not an orbit representative")
    if fold.linking[i] == 1:
        base = _l1_base(inst, y, i)
        if not base.is_polynomial():
            raise InputError("tuple components must be ordinary polynomials")
        # off this rule the members need not be cyclotomic
        violation = l1_violation(inst, fold, i)
        if violation:
            raise InputError(violation)
        return ((i, base, y[i]),), None

    if fold.orbit_len[i] != 2:
        raise UnsupportedType("L=2 generation implemented for orbit length 2")
    violation = l2_violation(inst, i)
    if violation:
        raise InputError(violation)
    gamma = inst.gamma(i)
    # supported on gamma + 1 + Z>=0, so y_i_1 is an ordinary polynomial
    lifted, _ = wronskian_ode_solve(y[i], _rhs_l1(inst, y, i),
                                    ("holomorphic_at_zero", gamma + 1))
    y_i_1 = (QPoly.x_power(-(gamma + 1)) * lifted).monic()
    ibar = inst.aut(i)
    rhs = _rhs_l1(inst, _replaced(y, i, y_i_1), ibar)
    base2, _ = wronskian_ode_solve(y[ibar], QPoly.x_power(1 + gamma) * rhs,
                                   ("coeff_zero", y[ibar].degree))
    f = QPoly.x_power(gamma + 1) * y_i_1
    s0, _ = wronskian_ode_solve(f, _rhs_l1(inst, _replaced(y, ibar, base2), i),
                                ("holomorphic_at_zero", 0))
    return ((ibar, base2, y[ibar]),
            (i, s0, y[i].scale(-lifted.leading_coeff()))), y_i_1


# the names a step records for y_i_1 and its moved components, by L
_INTERMEDIATES = {1: (), 2: ("y_i_step1", "y_ibar_step2", "y_i_step3")}


def _family(inst, fold, y, i, moves, y_i_1):
    """(index, base, direction, member) of `generation_family` at the
    tuple y, from the family's pencil (`_pencil`).  Each move writes its
    component at sigma^k j for k < orbit_len / L (module docstring)."""
    span, omega, M = fold.orbit_len[i] // fold.linking[i], inst.omega, inst.M
    writes = [(j, b, e, [(inst.aut.power(j, k), k) for k in range(1, span)])
              for j, b, e in moves]
    kind, names = f"L{fold.linking[i]}", _INTERMEDIATES[fold.linking[i]]

    def member(c):
        polys, moved = list(y), [y_i_1]
        for j, b, e, orbit in writes:
            g = b + e.scale(c)
            if g.is_zero():
                raise ExceptionalParameter(
                    c, f"generated component y_{j} vanishes")
            polys[j] = g
            for jk, k in orbit:
                polys[jk] = _transport(g, omega, M, k)
            moved.append(g)
        return BetheTuple.monic_of(polys), GenerationStep(
            direction=i, c=c, kind=kind,
            intermediates=tuple(zip(names, moved)))
    return (*moves[0], member)


def _reparametrized(pencil, y, c):
    """The pencil of the family along the direction the node y came from,
    made at c from the family of `pencil`: each move (j, b, e) goes to
    (j, t g - lam e, g / lam) with g = b + c e, where lam = lc(m) and t =
    [direction]_(x^deg m) for the first move's component m = base + c
    direction (module docstring).  The first move's new direction is y's
    component m / lam at its node, so an L = 1 pencil takes no inverse.
    No solve."""
    moves, y_i_1 = pencil
    (j, m, direction), *rest = [(j, b + e.scale(c), e) for j, b, e in moves]
    lam, t = m.leading_coeff(), direction.coeff(m.degree)
    return ((j, m.scale(t) - direction.scale(lam), y[j]),) + tuple(
        (k, g.scale(t) - e.scale(lam), g.scale(lam.inverse()))
        for k, g, e in rest), y_i_1


def _l1_equation_checked(inst, y, i, pencil):
    """InternalInvariantError unless the first move (i, base, y_i) of a
    reparametrized L = 1 pencil solves Wr(y_i, base) = `_rhs_l1` exactly.
    Every member base + c y_i then solves it, as Wr(y_i, base + c y_i) =
    Wr(y_i, base), and `_checked` builds no residue (module docstring)."""
    ((_, base, direction),), _ = pencil
    if wronskian([direction, base]) != _rhs_l1(inst, y, i):
        raise InternalInvariantError(
            "reparametrized L1 family does not solve its Wronskian equation")


def _replaced(y, j, p):
    polys = list(y)
    polys[j] = p
    return polys


def _checked(inst, out, step):
    """The one proof of a tuple that `step` generated from a proven
    cyclotomic critical point (`frame.prove_cyclotomic`, moved =
    `step.direction`): only the orbit the step moved, and no residue at
    its representative, nor after an L = 1 step at any representative,
    which the step's Wronskian equation and the genericity pass imply
    (module docstring).  ExceptionalParameter names the first failing
    genericity condition."""
    try:
        critical, _ = prove_cyclotomic(inst, out, moved=step.direction)
    except NotCyclotomic:
        raise InternalInvariantError(
            f"{step.kind} generation lost cyclotomic symmetry") from None
    except NotGeneric as exc:
        raise ExceptionalParameter(step.c, str(exc)) from None
    if not critical:
        raise InternalInvariantError(
            "generated node fails verification: not an exact critical point")


def _seed_checked(inst, seed):
    """SeedInvalid unless the seed is a cyclotomic critical point
    (`frame.prove_cyclotomic`, every representative)."""
    try:
        critical, _ = prove_cyclotomic(inst, seed)
    except NotCyclotomic:
        raise SeedInvalid("seed is not cyclotomic") from None
    except NotGeneric as exc:
        raise SeedInvalid(f"seed not generic: {exc}") from None
    if not critical:
        raise SeedInvalid("seed is not an exact critical point")


def cyclotomic_generate(inst, fold, y, i, c):
    """One cyclotomic generation step at the orbit representative i:
    (BetheTuple, GenerationStep) of the family member at c, proven.  y is
    proven a cyclotomic critical point first (SeedInvalid)."""
    c = c if isinstance(c, Cyc) else Cyc.of(c)
    _seed_checked(inst, y)
    *_, member = generation_family(inst, fold, y, i)
    out, step = member(c)
    _checked(inst, out, step)
    return out, step


class PopulationNode(Record):
    __slots__ = _fields = ("node_id", "tuple_", "parent", "step",
                           "lambda_inf", "flags")

    def __init__(self, node_id, tuple_, parent, step, lambda_inf,
                 flags=None):
        self.node_id = node_id
        self.tuple_ = tuple_
        self.parent = parent    # an int, or None at the seed
        self.step = step        # a GenerationStep, or None at the seed
        self.lambda_inf = lambda_inf
        self.flags = {} if flags is None else flags


class PopulationGraph:
    """BFS nodes indexed by canonical tuple, with `keys[i]` the serialized
    tuple of `nodes[i]`, `skipped`: one (node id, direction as in
    GenerationStep, c, reason) per exceptional sample, and `order`, the
    order M of the instance, which its documents are written for."""

    def __init__(self, order):
        self.nodes, self.skipped, self._index = [], [], {}
        self.order = order

    @property
    def keys(self):
        """The keys of the index, in the order their nodes were added."""
        return list(self._index)

    def find(self, key):
        return self._index.get(key)

    def add(self, node, key):
        """Index `node` under `key`, the canonical serialized tuple."""
        self._index[key] = node.node_id
        self.nodes.append(node)

    def __len__(self):
        return len(self.nodes)


# exceptional samples tolerated per (node, direction) before moving on
RETRY_BUDGET = 4


def explore_population(inst, fold, seed, depth, samples):
    """Bounded BFS over cyclotomic generation directions and parameters.

    Each (node, direction) family is solved once, or, along the direction
    a node came from, reparametrized from its parent's with no solve and,
    for L = 1, checked once against its Wronskian equation (module
    docstring), and swept over the samples.  A node's step and
    `graph.skipped` hold the sample itself, not its image on the parent's
    family.  After deduplication by the canonical serialized monic tuple,
    a new member is proven on the orbit its step moved, and its weight at
    infinity checked against the dichotomy: equal to the parent's or to
    its folded shifted reflection.  Both weights come from two dicts that
    live for one call, by degree vector and by (direction, parent's
    weight), so each is computed once.
    """
    if depth < 0:
        raise InputError(f"population depth must be >= 0, got {depth}")
    samples = [s if isinstance(s, Cyc) else Cyc.of(s) for s in samples]
    if not samples:
        raise InputError("population needs at least one sample parameter")
    _seed_checked(inst, seed)

    graph = PopulationGraph(inst.M)
    root = PopulationNode(node_id=0, tuple_=seed, parent=None, step=None,
                          lambda_inf=weight_at_infinity(inst, seed),
                          flags={"generic": True, "cyclotomic": True,
                                 "critical": True})
    graph.add(root, tuple_doc_json(seed, inst.M))
    # lambda_inf by degree vector, and folded_reflect by (i, lambda_inf)
    weights, reflections = {seed.degrees(): root.lambda_inf}, {}
    # (node, None, or the pencil of the family its parent made it from)
    frontier = [(root, None)]
    for _ in range(depth):
        next_frontier = []
        for node, incoming in frontier:
            for i in fold.reps:
                if incoming is not None and i == node.step.direction:
                    pencil = _reparametrized(incoming, node.tuple_,
                                            node.step.c)
                    if fold.linking[i] == 1:
                        _l1_equation_checked(inst, node.tuple_, i, pencil)
                else:
                    pencil = _pencil(inst, fold, node.tuple_, i)
                *_, member = _family(inst, fold, node.tuple_, i, *pencil)
                key = (i, node.lambda_inf)
                if key not in reflections:
                    reflections[key] = folded_reflect(inst.cartan, inst.aut,
                                                      fold, *key)
                reflected = reflections[key]
                misses = 0
                for c in samples:
                    try:
                        child, step = member(c)
                        key = tuple_doc_json(child, inst.M)
                        if graph.find(key) is not None:
                            continue
                        _checked(inst, child, step)
                    except ExceptionalParameter as exc:
                        graph.skipped.append((node.node_id, i, c, exc.reason))
                        misses += 1
                        if misses > RETRY_BUDGET:
                            break
                        continue
                    degrees = child.degrees()
                    if degrees not in weights:
                        weights[degrees] = weight_at_infinity(inst, child)
                    linf = weights[degrees]
                    new = PopulationNode(
                        node_id=len(graph.nodes), tuple_=child,
                        parent=node.node_id, step=step, lambda_inf=linf,
                        flags={"generic": True, "cyclotomic": True,
                               "critical": True,
                               "edge": _edge(node, linf, reflected)})
                    graph.add(new, key)
                    next_frontier.append((new, pencil))
        frontier = next_frontier
    return graph


def _edge(parent, linf, reflected):
    """The weight-at-infinity dichotomy along an edge whose direction
    reflects the parent's weight at infinity to `reflected`."""
    if linf in (parent.lambda_inf, reflected):
        return "unchanged" if linf == parent.lambda_inf else "reflected"
    raise InternalInvariantError(
        f"weight at infinity {linf} is neither the parent's "
        f"{parent.lambda_inf} nor its folded reflection {reflected}")
