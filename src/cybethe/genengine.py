"""Elementary and cyclotomic generation of critical points.

Generation in direction i replaces y_i by a solution of the first-order
Wronskian equation Wr(y_i, Y) = T~-type product.  Cyclotomic generation
composes elementary steps across a sigma-orbit so that cyclotomic symmetry
survives:

  L_i = 1: one solve at the representative, then symmetry transport
           y_{sigma^k i}(x) = omega^(k deg Y) Y(omega^-k x) across the
           orbit; an assertion cross-checks one transported component
           against an independent solve.
  L_i = 2: the three-step sequence at the A_2 block (i, ibar = sigma i):
           a holomorphic solve for y_i^(i), a pinned-coefficient solve
           plus c y_ibar for the middle step, and a final holomorphic
           solve that carries the parameter c through.

Parameter convention: the emitted tuples are monic; the step-1 result is
monic-normalized before it enters step 2, which makes the A_2 family from
the trivial tuple come out as exactly (x^3 - 3c, x^3 + 3c).

`explore_population` runs a bounded, deterministic BFS over directions and
parameters.  Generation proves each emitted tuple generic and cyclotomic;
the BFS adds the criticality check and the weight-at-infinity dichotomy
along each edge, once per new node.
"""

from dataclasses import dataclass, field

from .cartan import Weight, folded_reflect
from .errors import (ExceptionalParameter, InputError,
                     InternalInvariantError, NoSolution, SeedInvalid,
                     UnsupportedType)
from .frame import (BetheTuple, frame_polys, interaction_product,
                    is_critical_exact, is_cyclotomic_tuple, is_generic,
                    weight_at_infinity)
from .qpoly import QPoly, wronskian_ode_solve
from .scalars import Cyc
from .serialize import tuple_doc_json


@dataclass(frozen=True)
class GenerationStep:
    direction: int          # orbit representative
    c: Cyc
    kind: str               # "L1" or "L2"
    intermediates: tuple = ()   # (name, QPoly) pairs for L2


def _rhs_l1(inst, y, i, t):
    """x^<L0,a_i^vee> T_i prod_{j != i} y_j^{-a_ij}."""
    return QPoly.x_power(inst.gamma(i)) * interaction_product(inst, y, i, t=t)


def _l1_base(inst, y, i, t):
    """Solution of Wr(y_i, Y) = _rhs_l1 pinned to a zero coefficient at
    x^deg y_i: the c-independent part of the family base + c y_i."""
    base, _ = wronskian_ode_solve(y[i], _rhs_l1(inst, y, i, t),
                                  ("coeff_zero", y[i].degree))
    return base


def _l2_bases(inst, y, i, t):
    """c-independent part of the L = 2 step at i: the monic holomorphic
    step-1 solution y_i_1 and the pinned step-2 base2.  The step-2
    right-hand side x^(1+2 gamma) T_ibar y_i_1 prod_{j != i} y_j^(-a_ibar,j)
    is x^(1+gamma) times the L = 1 one at ibar with y_i replaced by y_i_1,
    as a_ibar,i = -1 and gamma is sigma-invariant."""
    gamma = inst.gamma(i)
    lifted, _ = wronskian_ode_solve(y[i], _rhs_l1(inst, y, i, t),
                                    ("holomorphic_at_zero", gamma + 1))
    y_i_1 = QPoly({e - (gamma + 1): v for e, v in lifted.terms.items()})
    if not y_i_1.is_polynomial():
        raise NoSolution("step-1 component is not an ordinary polynomial")
    y_i_1 = y_i_1.monic()
    ibar = inst.aut(i)
    polys = list(y)
    polys[i] = y_i_1
    base2, _ = wronskian_ode_solve(
        y[ibar], QPoly.x_power(1 + gamma) * _rhs_l1(inst, polys, ibar, t),
        ("coeff_zero", y[ibar].degree))
    return y_i_1, base2


def _representative(fold, i):
    """L_i of the orbit representative i; InputError for any other index."""
    if i not in fold.reps:
        raise InputError(
            f"direction {i + 1} is not an orbit representative")
    return fold.linking[i]


def elementary_generate_L1(inst, y, i, c, t=None):
    """One elementary generation step at node i (integral <L0, a_i^vee>).

    Returns (tuple, base, generic) where `base` is the pinned particular
    solution (zero coefficient at x^deg y_i), the emitted component is
    monic(base + c*y_i), and `generic` flags whether the result passes the
    genericity test for this parameter value.
    """
    t = t or frame_polys(inst)
    gamma = inst.gamma(i)
    if gamma.denominator != 1 or gamma < 0:
        raise InputError(f"elementary L1 step needs <L0,a_{i}^vee> in Z>=0")
    base = _l1_base(inst, y, i, t)
    new = base + y[i].scale(c)
    if new.is_zero():
        raise ExceptionalParameter(c, f"component y_{i} degenerates to zero")
    polys = list(y)
    polys[i] = new.monic()
    out = BetheTuple(polys)
    ok, _ = is_generic(inst, out, t=t)
    return out, base, ok


def _transport(poly, omega, k):
    """omega^(k deg) * poly(omega^-k x) for an ordinary polynomial."""
    if poly.is_zero():
        return poly
    deg = poly.degree
    return QPoly({e: c * omega ** (int(k * (deg - e)))
                  for e, c in poly.terms.items()})


def _checked(inst, out, c, kind, t):
    """Prove the generated tuple generic and cyclotomic, or raise."""
    ok, witness = is_generic(inst, out, t=t)
    if not ok:
        raise ExceptionalParameter(c, witness)
    if not is_cyclotomic_tuple(inst, out):
        raise InternalInvariantError(
            f"{kind} generation lost cyclotomic symmetry")
    return out


def cyclotomic_generate_L1(inst, fold, y, i, c, t=None):
    """Cyclotomic generation at an L=1 orbit representative.

    One solve at the representative, then transport across the orbit;
    returns (BetheTuple, GenerationStep).
    """
    t = t or frame_polys(inst)
    if _representative(fold, i) != 1:
        raise InputError(f"node {i} has L = {fold.linking[i]}, expected 1")
    c = c if isinstance(c, Cyc) else Cyc.of(c)
    base = _l1_base(inst, y, i, t)
    member = base + y[i].scale(c)
    if member.is_zero():
        raise ExceptionalParameter(c, "generated component vanishes")

    m_i = fold.orbit_len[i]
    polys = list(y)
    for k in range(m_i):
        node = inst.aut.power(i, k)
        polys[node] = _transport(member, inst.omega, k)
    if m_i > 1:
        ind_base = _l1_base(inst, y, inst.aut(i), t)
        if _transport(base, inst.omega, 1) != ind_base:
            raise InternalInvariantError(
                "transported L1 component disagrees with an independent solve")
    out = _checked(inst, BetheTuple.monic_of(polys), c, "L1", t)
    return out, GenerationStep(direction=i, c=c, kind="L1")


def cyclotomic_generate_L2(inst, fold, y, i, c, t=None):
    """Cyclotomic generation at an L=2 orbit representative.

    Runs the three-step sequence (holomorphic solve, pinned solve + c*y,
    holomorphic solve) on the A_2 block {i, ibar} and assembles the new
    tuple.  Only M_i = 2 occurs for finite and affine diagrams.
    """
    t = t or frame_polys(inst)
    if fold.linking[i] != 2:
        raise InputError(f"node {i} has L = {fold.linking[i]}, expected 2")
    if fold.orbit_len[i] != 2:
        raise UnsupportedType("L=2 generation implemented for orbit length 2")
    c = c if isinstance(c, Cyc) else Cyc.of(c)
    ibar = inst.aut(i)
    gamma = inst.gamma(i)
    if gamma.denominator != 2:
        raise InputError(f"<L0,a_{i}^vee> must be half-odd for an L=2 step")

    y_i_1, base2 = _l2_bases(inst, y, i, t)
    y_ibar_2 = base2 + y[ibar].scale(c)
    if y_ibar_2.is_zero():
        raise ExceptionalParameter(c, "middle step component vanishes")

    # step 3: Wr(x^(gamma+1) y_i_1, Y) = x^gamma T_i y_ibar_2 prod ..., the
    # L = 1 right-hand side at i with y_ibar replaced by y_ibar_2
    polys = list(y)
    polys[ibar] = y_ibar_2
    y_i_3, _ = wronskian_ode_solve(QPoly.x_power(gamma + 1) * y_i_1,
                                   _rhs_l1(inst, polys, i, t),
                                   ("holomorphic_at_zero", 0))
    if not y_i_3.is_polynomial():
        raise NoSolution("step-3 component is not an ordinary polynomial")

    polys[i] = y_i_3
    out = _checked(inst, BetheTuple.monic_of(polys), c, "L2", t)
    return out, GenerationStep(direction=i, c=c, kind="L2", intermediates=(
        ("y_i_step1", y_i_1), ("y_ibar_step2", y_ibar_2),
        ("y_i_step3", y_i_3)))


def cyclotomic_generate(inst, fold, y, i, c, t=None):
    if _representative(fold, i) == 1:
        return cyclotomic_generate_L1(inst, fold, y, i, c, t=t)
    return cyclotomic_generate_L2(inst, fold, y, i, c, t=t)


def generation_family(inst, fold, y, i, t=None):
    """Linear structure of the generated family at the representative i.

    Returns (index, base, direction): before monic normalization the moved
    component at `index` is base + c * direction.  For L = 1 that is the
    pinned particular solution and y_i; for L = 2 it is the middle-step
    pair (the component at ibar), which fixes the parameterization of the
    whole step.
    """
    t = t or frame_polys(inst)
    if _representative(fold, i) == 1:
        return i, _l1_base(inst, y, i, t), y[i]
    ibar = inst.aut(i)
    return ibar, _l2_bases(inst, y, i, t)[1], y[ibar]


@dataclass
class PopulationNode:
    node_id: int
    tuple_: BetheTuple
    parent: int | None
    step: GenerationStep | None
    lambda_inf: Weight
    flags: dict = field(default_factory=dict)


class PopulationGraph:
    """BFS nodes indexed by canonical tuple, and `skipped`: one (node id,
    direction as in GenerationStep, c, reason) per exceptional sample."""

    def __init__(self):
        self.nodes = []
        self.skipped = []
        self._index = {}

    def key(self, y):
        return tuple_doc_json(y)

    def find(self, y):
        return self._index.get(self.key(y))

    def add(self, node):
        self._index[self.key(node.tuple_)] = node.node_id
        self.nodes.append(node)

    def __len__(self):
        return len(self.nodes)


# exceptional samples tolerated per (node, direction) before moving on
RETRY_BUDGET = 4


def explore_population(inst, fold, seed, depth, samples):
    """Bounded BFS over cyclotomic generation directions and parameters.

    Generation proves every emitted tuple generic and cyclotomic; each new
    node is then checked critical and its weight at infinity checked
    against the dichotomy: equal to the parent's or to its folded shifted
    reflection.  Deduplication is by the canonical serialized monic tuple.
    """
    if depth < 0:
        raise InputError(f"population depth must be >= 0, got {depth}")
    samples = [s if isinstance(s, Cyc) else Cyc.of(s) for s in samples]
    if not samples:
        raise InputError("population needs at least one sample parameter")
    t = frame_polys(inst)
    ok, witness = is_generic(inst, seed, t=t)
    if not ok:
        raise SeedInvalid(f"seed not generic: {witness}")
    if not is_cyclotomic_tuple(inst, seed):
        raise SeedInvalid("seed is not cyclotomic")
    crit, _ = is_critical_exact(inst, seed, t=t)
    if not crit:
        raise SeedInvalid("seed is not an exact critical point")

    graph = PopulationGraph()
    root = PopulationNode(node_id=0, tuple_=seed, parent=None, step=None,
                          lambda_inf=weight_at_infinity(inst, seed),
                          flags={"generic": True, "cyclotomic": True,
                                 "critical": True})
    graph.add(root)
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            for i in fold.reps:
                misses = 0
                for c in samples:
                    try:
                        child, step = cyclotomic_generate(
                            inst, fold, node.tuple_, i, c, t=t)
                    except ExceptionalParameter as exc:
                        graph.skipped.append((node.node_id, i, c, exc.reason))
                        misses += 1
                        if misses > RETRY_BUDGET:
                            break
                        continue
                    if graph.find(child) is not None:
                        continue
                    flags = _verify_node(inst, fold, node, child, i, t)
                    new = PopulationNode(
                        node_id=len(graph.nodes), tuple_=child,
                        parent=node.node_id, step=step,
                        lambda_inf=weight_at_infinity(inst, child),
                        flags=flags)
                    graph.add(new)
                    next_frontier.append(new)
        frontier = next_frontier
    return graph


def _verify_node(inst, fold, parent, child, i, t):
    """Flags of a new node.  Generation has already proven it generic and
    cyclotomic, so only criticality and the weight dichotomy are checked."""
    ok_cr, _ = is_critical_exact(inst, child, t=t)
    if not ok_cr:
        raise InternalInvariantError(
            "generated node fails verification: not an exact critical point")
    linf = weight_at_infinity(inst, child)
    reflected = folded_reflect(inst.cartan, inst.aut, fold, i,
                               parent.lambda_inf)
    if linf == parent.lambda_inf:
        edge = "unchanged"
    elif linf == reflected:
        edge = "reflected"
    else:
        raise InternalInvariantError(
            f"weight at infinity {linf} is neither the parent's "
            f"{parent.lambda_inf} nor its folded reflection {reflected}")
    return {"generic": True, "cyclotomic": True, "critical": True,
            "edge": edge}
