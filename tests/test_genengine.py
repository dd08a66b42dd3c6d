from fractions import Fraction as F

import pytest

from conftest import mirrored, poly, shifted_critical
from cybethe import frame, genengine, serialize
from cybethe.cartan import (CartanData, DiagramAut, Weight, folded_reflect,
                            orbit_data, shifted_reflect)
from cybethe.errors import ExceptionalParameter, InputError, SeedInvalid
from cybethe.frame import (BetheTuple, ProblemInstance, is_critical_exact,
                           is_cyclotomic_tuple, is_generic,
                           weight_at_infinity)
from cybethe.genengine import (cyclotomic_generate, elementary_generate_L1,
                               explore_population, generation_family)
from cybethe.qpoly import QPoly, qgcd
from cybethe.scalars import Cyc


def test_elementary_a3(a3):
    inst, _ = a3
    seed = BetheTuple.trivial(3)
    out, base, ok = elementary_generate_L1(inst, seed, 1, F(1, 2))
    # Y' = x, pinned base x^2/2, emitted monic x^2 + 2c
    assert base == QPoly.x_power(2, F(1, 2))
    assert out[1] == poly(1, 0, 1)
    assert ok
    out2, base2, _ = elementary_generate_L1(inst, seed, 0, F(3))
    assert base2 == QPoly.x_power(1)
    assert out2[0] == poly(3, 1)


def test_elementary_degree_formula(a3):
    # deg y^(i)(x;0) = deg y_i + <Lambda_inf, alpha_i^vee> + 1
    inst, fold = a3
    seed = BetheTuple.trivial(3)
    y1, _ = cyclotomic_generate(inst, fold, seed, 0, F(1))
    for y in (seed, y1):
        linf = weight_at_infinity(inst, y)
        for i in range(3):
            if linf[i].denominator != 1 or linf[i] < 0:
                continue
            _, base, _ = elementary_generate_L1(inst, y, i, F(0))
            assert base.degree == y[i].degree + linf[i] + 1


def test_cyclotomic_l1(a3):
    inst, fold = a3
    seed = BetheTuple.trivial(3)
    out, step = cyclotomic_generate(inst, fold, seed, 0, F(2))
    assert out[0] == poly(2, 1) and out[2] == poly(-2, 1)
    assert out[1] == QPoly.one()
    assert step.kind == "L1"
    out2, _ = cyclotomic_generate(inst, fold, seed, 1, F(1))
    assert out2[1] == poly(2, 0, 1)  # even polynomial, forced by cyclotomy
    for y in (out, out2):
        assert is_cyclotomic_tuple(inst, y)
        ok, _ = is_critical_exact(inst, y)
        assert ok


def test_cyclotomic_l2_family(a2):
    inst, fold = a2
    seed = BetheTuple.trivial(2)
    for c in (F(1, 3), F(1), F(-1, 2)):
        out, step = cyclotomic_generate(inst, fold, seed, 0, c)
        assert step.kind == "L2"
        assert out[0] == poly(-3 * c, 0, 0, 1)
        assert out[1] == poly(3 * c, 0, 0, 1)
        assert is_cyclotomic_tuple(inst, out)
        ok, _ = is_critical_exact(inst, out)
        assert ok
        assert weight_at_infinity(inst, out) == Weight([F(-5, 2), F(-5, 2)])
    names = [name for name, _ in step.intermediates]
    assert names == ["y_i_step1", "y_ibar_step2", "y_i_step3"]


def test_l2_degree_formulas(a2, a2_tuple):
    # Prop: deg y^(i)_i = deg y_i + <Linf - L0, a_i>; the middle step base
    # has degree deg y_ibar + <Linf + rho, a_i + a_ibar>
    inst, fold = a2
    for y in (BetheTuple.trivial(2), a2_tuple):
        linf = weight_at_infinity(inst, y)
        _, step = cyclotomic_generate(inst, fold, y, 0, F(5))
        assert step.kind == "L2"
        inter = dict(step.intermediates)
        want1 = y[0].degree + (linf[0] - inst.lambda0[0])
        assert inter["y_i_step1"].degree == want1
        idx, base2, *_ = generation_family(inst, fold, y, 0)
        assert idx == 1
        want2 = y[1].degree + (linf[0] + 1) + (linf[1] + 1)
        assert base2.degree == want2


def test_fee_identity(a2, a2_tuple):
    # y^(i,ibar,i)_ibar(-x; c) = (-1)^deg * y^(i,ibar,i)_i(x; c)
    inst, fold = a2
    for seed in (BetheTuple.trivial(2), a2_tuple):
        out, step = cyclotomic_generate(inst, fold, seed, 0, F(2, 7))
        assert step.kind == "L2"
        d = int(out[0].degree)
        lhs = out[1].negate_argument()
        rhs = out[0].scale((-1) ** d)
        assert lhs == rhs


def test_flem1_mirror(a2):
    # generating in the mirrored order (ibar, i, ibar) and substituting
    # x -> -x reproduces the (i, ibar, i) result with c -> -c
    inst, fold = a2
    seed = BetheTuple.trivial(2)
    for c in (F(1), F(2, 3)):
        direct, _ = cyclotomic_generate(inst, fold, seed, 0, c)
        mirror, step = cyclotomic_generate(inst, mirrored(fold), seed, 1, -c)
        assert (step.kind, step.direction) == ("L2", 1)
        for j in range(2):
            jbar = inst.aut(j)
            got = mirror[j].negate_argument()
            want = direct[jbar].scale((-1) ** int(direct[jbar].degree))
            assert got == want, (j, got, want)


def test_vil_coprimality(a2, a2_tuple):
    # y^(i,ibar,i)_ibar(x;c) and its x -> -x image share no root
    inst, fold = a2
    for seed, cs in ((BetheTuple.trivial(2), (F(1), F(1, 3), F(-2))),
                     (a2_tuple, (F(1), F(-2), F(1, 5)))):
        for c in cs:
            out, _ = cyclotomic_generate(inst, fold, seed, 0, c)
            g = qgcd(out[1], out[1].negate_argument())
            assert g.degree == 0


def test_exceptional_parameter_detected(a2, a2_tuple):
    # c = 1/3 from (x^3-1, x^3+1) gives y_1 = x^3, which has a root at the
    # origin: a genuine member of the finite exceptional set
    from cybethe.errors import ExceptionalParameter
    inst, fold = a2
    with pytest.raises(ExceptionalParameter):
        cyclotomic_generate(inst, fold, a2_tuple, 0, F(1, 3))


def test_nb_shifted_equations(a2, a2_tuple):
    # the L = 2 intermediate satisfies the s_i . L0 - shifted equations
    inst, fold = a2
    _, step = cyclotomic_generate(inst, fold, a2_tuple, 0, F(1))
    inter = dict(step.intermediates)
    intermediate = BetheTuple.monic_of([inter["y_i_step1"], a2_tuple[1]])
    shifted = shifted_reflect(inst.cartan, 0, inst.lambda0)
    ok, _ = shifted_critical(inst, intermediate, shifted)
    assert ok
    # and it fails against the unshifted weight (nontrivially)
    ok_unshifted, _ = is_critical_exact(inst, intermediate)
    assert not ok_unshifted


def test_nb_shifted_equations_nontrivial():
    # with a marked point the step-1 component has positive degree
    from cybethe.cartan import CartanData, DiagramAut, orbit_data
    from cybethe.frame import ProblemInstance
    cartan = CartanData.series("A", 2)
    aut = DiagramAut((1, 0))
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(Cyc.of(1),),
                           site_weights=(Weight([1, 1]),),
                           lambda0=Weight([F(1, 2), F(1, 2)]))
    fold = orbit_data(cartan, aut)
    seed = BetheTuple.trivial(2)
    idx, base, direction, _ = generation_family(inst, fold, seed, 0)
    _, step = cyclotomic_generate(inst, fold, seed, 0, F(1))
    inter = dict(step.intermediates)
    y_step1 = inter["y_i_step1"]
    assert y_step1.degree == 2
    intermediate = BetheTuple.monic_of([y_step1, seed[1]])
    ok_g, _ = is_generic(inst, intermediate)
    assert ok_g
    shifted = shifted_reflect(cartan, 0, inst.lambda0)
    ok, _ = shifted_critical(inst, intermediate, shifted)
    assert ok
    ok_unshifted, _ = is_critical_exact(inst, intermediate)
    assert not ok_unshifted


def test_nblem2_multiplicity(a2, a3, a2_tuple):
    # common roots of y_ibar and the step-1 component must have
    # multiplicity 2; scan the small populations for occurrences
    inst, fold = a2
    encountered = 0
    for seed in (BetheTuple.trivial(2), a2_tuple):
        _, step = cyclotomic_generate(inst, fold, seed, 0, F(1))
        y_step1 = dict(step.intermediates)["y_i_step1"]
        g = qgcd(seed[1], y_step1)
        if g.degree and g.degree > 0:
            encountered += 1
            quot = y_step1
            for _ in range(2):
                from cybethe.qpoly import divide_exact
                quot = divide_exact(quot, g)
            assert quot.is_polynomial()
    assert encountered >= 0  # vacuous unless a collision occurs


def test_l1_commutativity(a3):
    # elementary generation at nodes 1 and 3 of A_3 commutes (orbit {1,3})
    inst, _ = a3
    seed = BetheTuple.trivial(3)
    c1, c3 = F(2), F(-1, 2)
    via_13 = elementary_generate_L1(
        inst, elementary_generate_L1(inst, seed, 0, c1)[0], 2, c3)[0]
    via_31 = elementary_generate_L1(
        inst, elementary_generate_L1(inst, seed, 2, c3)[0], 0, c1)[0]
    assert via_13 == via_31


def test_explore_depth0(a2, a2_tuple):
    inst, fold = a2
    graph = explore_population(inst, fold, a2_tuple, 0, [F(1)])
    assert len(graph.nodes) == 1
    assert graph.nodes[0].tuple_ == a2_tuple


def test_explore_depth1(a2):
    inst, fold = a2
    graph = explore_population(inst, fold, BetheTuple.trivial(2), 1,
                               [F(1, 3), F(1)])
    tuples = {str(n.tuple_) for n in graph.nodes}
    assert tuples == {
        "BetheTuple(1; 1)",
        "BetheTuple(x^3 - 1; x^3 + 1)",
        "BetheTuple(x^3 - 3; x^3 + 3)",
    }


def test_explore_depth2_a3(a3):
    inst, fold = a3
    graph = explore_population(inst, fold, BetheTuple.trivial(3), 2,
                               [F(1), F(2)])
    assert len(graph.nodes) > 5
    for node in graph.nodes:
        assert node.flags.get("critical", True)
        assert node.flags.get("cyclotomic", True)
        # edge dichotomy: recorded flag matches a recomputation
        if node.parent is not None:
            parent = graph.nodes[node.parent]
            reflected = folded_reflect(inst.cartan, inst.aut, fold,
                                       node.step.direction, parent.lambda_inf)
            if node.flags["edge"] == "reflected":
                assert node.lambda_inf == reflected
            else:
                assert node.lambda_inf == parent.lambda_inf


def test_explore_rejects_bad_seed(a2):
    inst, fold = a2
    with pytest.raises(SeedInvalid):
        explore_population(inst, fold,
                           BetheTuple([poly(-1, 1), poly(1, 1)]), 1, [F(1)])


def test_degenerate_direction_keeps_weight(a2, a2_tuple):
    # degree-decreasing direction: weight at infinity unchanged for c != 0
    inst, fold = a2
    linf = weight_at_infinity(inst, a2_tuple)
    out, _ = cyclotomic_generate(inst, fold, a2_tuple, 0, F(1))
    assert weight_at_infinity(inst, out) == linf
    # and c = 0 returns to the reflected weight (the seed of the family)
    out0, _ = cyclotomic_generate(inst, fold, a2_tuple, 0, F(0))
    assert weight_at_infinity(inst, out0) == \
        folded_reflect(inst.cartan, inst.aut, fold, 0, linf)


def test_explore_rejects_bad_bounds(a2, a2_tuple):
    inst, fold = a2
    with pytest.raises(InputError):
        explore_population(inst, fold, a2_tuple, -1, [F(1)])
    with pytest.raises(InputError):
        explore_population(inst, fold, a2_tuple, 1, [])


def test_explore_records_skipped(a2):
    # c = 0 in the L = 2 direction of the trivial A_2 seed gives (x^3, x^3),
    # which vanishes at the origin: exceptional, and kept on the graph
    inst, fold = a2
    graph = explore_population(inst, fold, BetheTuple.trivial(2), 1,
                               [F(0), F(1)])
    assert len(graph.nodes) == 2
    assert len(graph.skipped) == 1
    node_id, direction, c, reason = graph.skipped[0]
    assert (node_id, direction, c) == (0, 0, 0)
    assert "origin" in reason


def test_generation_rejects_non_representatives(a2, a3, a2_tuple):
    for (inst, fold), y in ((a2, a2_tuple), (a3, BetheTuple.trivial(3))):
        for i in (-1, inst.cartan.n, inst.cartan.n + 5):
            with pytest.raises(InputError):
                cyclotomic_generate(inst, fold, y, i, F(1))
    inst, fold = a2
    with pytest.raises(InputError):
        cyclotomic_generate(inst, fold, a2_tuple, 1, F(1))
    with pytest.raises(InputError):
        generation_family(inst, fold, a2_tuple, 1)
    inst, fold = a3
    with pytest.raises(InputError):
        cyclotomic_generate(inst, fold, BetheTuple.trivial(3), 2, F(1))


@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_a_vanishing_move_is_an_exceptional_parameter(a2, a3, kind):
    # hand-built pencils one of whose moves is zero at c = 1 (for L = 2
    # the step-3 move, as (s, -s)): the member is an exceptional parameter
    # naming the node, which the BFS skips, not an InputError
    if kind == "L1":
        (inst, fold), y = a3, BetheTuple.trivial(3)
        moves, y_i_1 = ((0, poly(-1), QPoly.one()),), None
    else:
        (inst, fold), y = a2, BetheTuple.trivial(2)
        (first, (j, s, _)), y_i_1 = genengine._pencil(inst, fold, y, 0)
        moves = (first, (j, s, s.scale(-1)))
    *_, member = genengine._family(inst, fold, y, 0, moves, y_i_1)
    with pytest.raises(ExceptionalParameter) as exc:
        member(Cyc.of(1))
    assert exc.value.reason == "generated component y_0 vanishes"
    assert member(Cyc.of(2))[1].kind == kind


def _single_rep_instance(kind):
    """An instance whose fold has one representative of the given kind."""
    from cybethe.cartan import CartanData, DiagramAut, orbit_data
    from cybethe.frame import ProblemInstance
    if kind == "L1, m_i = 1":   # A_1, M = 1
        cartan, perm, lam0 = CartanData.series("A", 1), (0,), [0]
    elif kind == "L1, m_i = 2":  # A_1 x A_1 with its two nodes swapped
        cartan = CartanData.from_matrix([[2, 0], [0, 2]])
        perm, lam0 = (1, 0), [0, 0]
    else:                        # A_2 with its two nodes swapped
        cartan, perm, lam0 = CartanData.series("A", 2), (1, 0), \
            [F(1, 2), F(1, 2)]
    aut = DiagramAut(perm)
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(aut.order), points=(),
                           site_weights=(), lambda0=Weight(lam0))
    fold = orbit_data(cartan, aut)
    assert len(fold.reps) == 1
    return inst, fold


@pytest.mark.parametrize("kind, solves", [
    ("L1, m_i = 1", 1), ("L1, m_i = 2", 1), ("L2", 3)])
def test_family_solved_once_for_all_samples(kind, solves, monkeypatch):
    # depth 1 from the trivial seed expands one (node, direction) pair, so
    # the number of solves is that of one family, whatever the samples; an
    # L = 1 family solves at its representative only, whatever its orbit
    from cybethe import genengine
    inst, fold = _single_rep_instance(kind)
    calls = []
    solve = genengine.wronskian_ode_solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(genengine, "wronskian_ode_solve", counted)
    samples = [F(1), F(2), F(-1, 2)]
    for k in range(1, len(samples) + 1):
        calls.clear()
        seed = BetheTuple.trivial(inst.cartan.n)
        graph = explore_population(inst, fold, seed, 1, samples[:k])
        assert len(graph.nodes) == 1 + k and not graph.skipped
        assert len(calls) == solves, (kind, k)


# (module, name) of each function `_counted_bfs` counts, patched where the
# BFS and the proof read it
COUNTED = [(frame, "_residue"), (genengine, "wronskian_ode_solve"),
           (genengine, "wronskian"), (frame, "proportional"),
           (frame, "is_squarefree"), (genengine, "folded_reflect")]


def _counted_bfs(doc):
    """The depth-2 BFS of a catalog instance from the trivial seed, with the
    calls counted of each function named in `COUNTED`."""
    from cybethe import serialize
    from test_catalog_pins import SAMPLES
    calls = dict.fromkeys([name for _, name in COUNTED], 0)

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    with pytest.MonkeyPatch.context() as monkeypatch:
        for module, name in COUNTED:
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        inst = serialize.instance_from_doc(doc)
        graph = explore_population(
            inst, orbit_data(inst.cartan, inst.aut),
            BetheTuple.trivial(inst.cartan.n), 2,
            [serialize.parse_scalar(s, inst.M) for s in SAMPLES])
    return graph, calls


def test_bfs_takes_from_generation_what_it_proved():
    # D4 at depth 2 (orbits {1, 3, 4} and {2}, both L = 1): the seed is
    # proven with a residue at each of its 2 orbit representatives and no
    # generated node with any, since every step is L = 1 (41 when each
    # builds one at the representative its step did not move); an L = 1
    # family takes 1 solve, and a depth-1 node solves no family along the
    # direction it came from, but checks its equation with one Wronskian
    from test_catalog_pins import A4_DOC, D4_DOC
    graph, calls = _counted_bfs(D4_DOC)
    assert len(graph) == 40 and len(graph.skipped) == 1
    assert [node.step.direction for node in graph.nodes
            if node.parent == 0] == [0, 0, 0, 1, 1, 1]
    # the seed's 2, then 1 for each depth-1 node (12 when the family
    # along {1, 3, 4} also solves at sigma 1, 21 when every family is
    # solved; 43 residues when the seed is proven at every colour)
    # the seed is tested cyclotomic at its 4 colours and each proven member
    # on its moved orbit only: 19 members (one skipped) along {1, 3, 4} and
    # 21 along {2} (164 when every member is tested at every colour); each
    # member's moved representative is tested squarefree, unless it fails
    # genericity first, as the skipped member does at the origin (57 when
    # every representative is); and of the 7 nodes at depths 0 and 1, each
    # with 2 directions, 6 distinct (direction, weight at infinity) pairs
    # are reflected (14 when each (node, direction) reflects)
    assert calls == {"_residue": 2,
                     "wronskian_ode_solve": 2 + 3 * 1 + 3 * 1,
                     "wronskian": 6,
                     "proportional": 4 + 3 * 19 + 21, "is_squarefree": 39,
                     "folded_reflect": 6}
    # A4 at depth 2 (orbits {1, 4}, L = 1, and {2, 3}, L = 2): an L = 2
    # family takes 3 solves, and a depth-1 node solves only the family
    # along the direction it did not come from (20 when the L = 1 family
    # also solves at sigma 1, 36 when the L = 2 family along the incoming
    # direction is solved, with 4 solves each); the 3 nodes made along
    # {1, 4} check the equation of the family they came from
    graph, calls = _counted_bfs(A4_DOC)
    assert len(graph) == 40 and len(graph.skipped) == 1
    assert [node.step.direction for node in graph.nodes
            if node.parent == 0] == [0, 0, 0, 1, 1, 1]
    assert sum(node.step.kind == "L2" for node in graph.nodes[1:]) == 21
    # a residue at the representative 1 adjacent to {2, 3} for each of the
    # 21 L = 2 members and none for the 18 L = 1 members (41 when each
    # builds one); both orbits have 2 nodes: 2 cyclotomy tests per proven
    # member (164 when every colour is tested), and squarefree tests and
    # reflections as for D4 (57 when every representative is tested, 14
    # when each (node, direction) reflects)
    assert calls == {"_residue": 2 + 21,
                     "wronskian_ode_solve": 1 + 3 + 3 * 3 + 3 * 1,
                     "wronskian": 3,
                     "proportional": 4 + 2 * 40, "is_squarefree": 39,
                     "folded_reflect": 6}


def test_l2_step3_solves_its_wronskian_equation(a2, a2_tuple):
    # Wr(x^(gamma+1) y_i_1, y_i_3) = x^gamma T_i y_ibar_2, the L = 1
    # right-hand side at i with y_ibar replaced by the middle-step component
    from cybethe.frame import ProblemInstance, interaction_product
    from cybethe.qpoly import wronskian
    inst, fold = a2
    nontrivial = ProblemInstance(
        cartan=inst.cartan, aut=inst.aut, omega=inst.omega,
        points=(Cyc.of(1),), site_weights=(Weight([1, 1]),),
        lambda0=inst.lambda0)
    cases = [(inst, a2_tuple, (F(0), F(1), F(-1, 2), F(3, 7))),
             (nontrivial, BetheTuple.trivial(2), (F(1), F(-1, 2), F(3, 7)))]
    for inst, seed, cs in cases:
        gamma = inst.gamma(0)
        for c in cs:
            _, step = cyclotomic_generate(inst, fold, seed, 0, c)
            assert step.kind == "L2"
            inter = dict(step.intermediates)
            f = QPoly.x_power(gamma + 1) * inter["y_i_step1"]
            rhs = QPoly.x_power(gamma) * interaction_product(
                inst, [seed[0], inter["y_ibar_step2"]], 0)
            assert wronskian([f, inter["y_i_step3"]]) == rhs, c
            assert inter["y_ibar_step2"] == \
                generation_family(inst, fold, seed, 0)[1] + seed[1].scale(c)


def test_explore_serializes_each_member_once(a3, monkeypatch):
    # one canonical key per family member plus the root's, with the
    # duplicates among the members included; a member is counted by its
    # one GenerationStep, whether its family was solved or derived
    from cybethe import genengine
    calls, members = [], []
    tuple_doc_json = genengine.tuple_doc_json
    step = genengine.GenerationStep

    def counted(y, M):
        calls.append(1)
        return tuple_doc_json(y, M)

    def counted_step(*args, **kwargs):
        members.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(genengine, "tuple_doc_json", counted)
    monkeypatch.setattr(genengine, "GenerationStep", counted_step)
    inst, fold = a3
    graph = explore_population(inst, fold, BetheTuple.trivial(3), 2,
                               [F(1), F(2), F(-1)])
    assert len(members) > len(graph.nodes) - 1
    assert len(calls) == len(members) + 1


def test_transport_takes_no_inverse(monkeypatch):
    """omega^(k deg) * p(omega^-k x) from omega^(M-k): the same value,
    and the same text in a tuple of an instance of order M, as from
    omega ** -k, with no Cyc.inverse; k = 0 gives p itself."""
    cases = []
    for M, power in ((2, 1), (3, 1), (3, 2), (4, 3), (6, 5), (8, 3)):
        omega = Cyc.root_of_unity(M, power)
        for p in (poly(1, 2, 0, 3), poly(F(1, 2), 0, 1) * QPoly.x_power(
                2, Cyc.root_of_unity(3)), QPoly.x_power(5, F(-2, 7))):
            for k in range(M):
                want = p.substitute_scale(omega ** -k).scale(
                    omega ** (k * p.degree))
                cases.append((p, omega, M, k, want))

    def no_inverse(self):
        raise AssertionError("inverse called")
    monkeypatch.setattr(Cyc, "inverse", no_inverse)
    for p, omega, M, k, want in cases:
        got = genengine._transport(p, omega, M, k)
        assert (got, serialize.tuple_doc([got], M)) == \
            (want, serialize.tuple_doc([want], M)), (p, M, k)
        assert k or got is p


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_the_proof_catches_a_transport_that_breaks_symmetry(name,
                                                            monkeypatch):
    # an L = 1 family solves at its representative only and transports the
    # solution across the orbit ({1, 4} of A4, {1, 3, 4} of D4): a wrong
    # transport is caught by the one proof of every generated tuple
    from cybethe import serialize
    from cybethe.errors import InternalInvariantError
    from test_catalog_pins import A4_DOC, D4_DOC
    inst = serialize.instance_from_doc({"A4": A4_DOC, "D4": D4_DOC}[name])
    fold = orbit_data(inst.cartan, inst.aut)
    seed = BetheTuple.trivial(inst.cartan.n)
    transport = genengine._transport

    def perturbed(p, omega, M, k):
        moved = transport(p, omega, M, k)
        return moved * poly(-2, 1) if k else moved

    monkeypatch.setattr(genengine, "_transport", perturbed)
    with pytest.raises(InternalInvariantError,
                       match="L1 generation lost cyclotomic symmetry"):
        cyclotomic_generate(inst, fold, seed, 0, F(1))
    with pytest.raises(InternalInvariantError,
                       match="L1 generation lost cyclotomic symmetry"):
        explore_population(inst, fold, seed, 1, [F(1)])


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_the_bfs_catches_a_reparametrized_family_off_its_equation(
        name, monkeypatch):
    # a node's family along the direction it came from is derived from its
    # parent's, not solved, and after an L = 1 step `_checked` builds no
    # residue: a wrong base is caught by the family's one equation check.
    # Shifting the base of an L = 1 family by 1 keeps its members
    # cyclotomic, so without that check the BFS raises nothing and emits
    # 34 nodes where the solved families give 40
    from cybethe import serialize
    from cybethe.errors import InternalInvariantError
    from test_catalog_pins import A4_DOC, D4_DOC, SAMPLES
    inst = serialize.instance_from_doc({"A4": A4_DOC, "D4": D4_DOC}[name])
    fold = orbit_data(inst.cartan, inst.aut)
    reparametrized = genengine._reparametrized

    def perturbed(pencil, y, c):
        ((j, base, direction), *rest), y_i_1 = reparametrized(pencil, y, c)
        if y_i_1 is None:
            base = base + poly(1)
        return ((j, base, direction), *rest), y_i_1

    monkeypatch.setattr(genengine, "_reparametrized", perturbed)
    with pytest.raises(InternalInvariantError,
                       match="reparametrized L1 family does not solve"):
        explore_population(inst, fold, BetheTuple.trivial(inst.cartan.n), 2,
                           [serialize.parse_scalar(s, inst.M)
                            for s in SAMPLES])
