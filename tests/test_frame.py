import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_a, identity_aut, poly, shifted_critical
from cybethe import cartan, frame, serialize
from cybethe.cartan import (MAX_RANK, CartanData, DiagramAut, Weight,
                            orbit_data, shifted_reflect, sigma_on_weight)
from cybethe.errors import (InexactDivision, InputError, NotCyclotomic,
                            NotGeneric, UnsupportedType)
from cybethe.frame import (BetheTuple, ProblemInstance, big_lambda,
                           canonical_lambda0, eigenvalues, frame_polys,
                           interaction_product, is_critical_exact,
                           is_cyclotomic_tuple, is_generic, prove_cyclotomic,
                           t_tilde, validate_lambda0, weight_at_infinity)
from cybethe.genengine import (_checked, _transport, cyclotomic_generate,
                               explore_population)
from cybethe.qpoly import QPoly, divide_exact, proportional
from cybethe.scalars import Cyc
from oracles import hl_identity_check, traced_lambda0
from test_catalog_pins import A4_DOC, CATALOGS, D4_DOC, SAMPLES, _verdict


def n1_instance(lambda1=(1, 0), z=1, lambda0=(F(1, 2), F(1, 2))):
    cartan = CartanData.series("A", 2)
    aut = DiagramAut((1, 0))
    return ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(Cyc.of(z),),
                           site_weights=(Weight(list(lambda1)),),
                           lambda0=Weight(list(lambda0)))


def test_frame_polys_empty(a2):
    inst, _ = a2
    t = frame_polys(inst)
    assert all(t[i] == QPoly.one() for i in range(2))


def test_frame_polys_n1():
    inst = n1_instance(lambda0=(0, 0))
    t = frame_polys(inst)
    assert t[0] == poly(-1, 1)
    assert t[1] == poly(1, 1)


def test_frame_polys_are_derived_once_per_instance(monkeypatch):
    inst = serialize.instance_from_doc(A4_MARKED_DOC)
    t = frame_polys(inst)
    assert frame_polys(inst) is t and len(t) == 4
    # not a field: equality, hash and repr ignore it
    twin = serialize.instance_from_doc(A4_MARKED_DOC)
    assert twin == inst and hash(twin) == hash(inst)
    assert repr(twin) == repr(inst) and "frame_polys" not in repr(inst)
    assert frame_polys(twin) == t
    builds = []
    build = frame._frame_polys
    monkeypatch.setattr(frame, "_frame_polys",
                        lambda i: builds.append(1) or build(i))
    fresh = serialize.instance_from_doc(A4_MARKED_DOC)
    graph = explore_population(
        fresh, orbit_data(fresh.cartan, fresh.aut), BetheTuple.trivial(4), 2,
        [serialize.parse_scalar(s, fresh.M) for s in SAMPLES])
    assert len(graph) > 1 and len(builds) == 1


def test_no_function_takes_frame_polynomials():
    import importlib
    import inspect
    import pkgutil
    import cybethe
    for info in pkgutil.iter_modules(cybethe.__path__):
        module = importlib.import_module("cybethe." + info.name)
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                assert "t" not in inspect.signature(obj).parameters, name


def test_t_symmetry():
    # T_{sigma j}(omega x) is proportional to T_j(x), with the exact factor
    # omega^<sum sigma^k Lambda_s, alpha_j^vee>
    inst = n1_instance(lambda1=(2, 1), lambda0=(0, 0))
    t = frame_polys(inst)
    total = Weight.zero(2)
    for lam in inst.site_weights:
        total = total + lam + sigma_on_weight(inst.aut, lam)
    for j in range(2):
        lhs = t[inst.aut(j)].substitute_scale(inst.omega)
        factor = inst.omega ** int(total[j])
        assert lhs == t[j].scale(factor)


def test_t_tilde():
    inst = n1_instance()
    tt = t_tilde(inst, 0)
    assert tt == QPoly.x_power(F(1, 2)) * poly(-1, 1)


def test_genericity(a2):
    inst, _ = a2
    ok, _ = is_generic(inst, BetheTuple.trivial(2))
    assert ok
    ok, _ = is_generic(inst, BetheTuple([poly(-1, 0, 0, 1), poly(1, 0, 0, 1)]))
    assert ok
    bad = BetheTuple([poly(-1, 1), poly(-1, 1)])
    ok, witness = is_generic(inst, bad)
    assert not ok and "shares a root" in witness
    # vanishing at the origin is non-generic
    ok, witness = is_generic(inst, BetheTuple([poly(0, 1), poly(1, 1)]))
    assert not ok and "origin" in witness


def test_criticality_witness(a2, a2_tuple):
    inst, _ = a2
    ok, report = is_critical_exact(inst, a2_tuple)
    assert ok
    assert report[0]["witness"] == QPoly.x_power(2, F(9, 2))
    ok2, _ = is_critical_exact(inst, BetheTuple([poly(-1, 1), poly(1, 1)]))
    assert not ok2
    # trivial tuple is vacuously critical, in both proofs
    for prove in (is_critical_exact, prove_cyclotomic):
        ok3, _ = prove(inst, BetheTuple.trivial(2))
        assert ok3
    with pytest.raises(NotGeneric):
        is_critical_exact(inst, BetheTuple([poly(-1, 1), poly(-1, 1)]))


def _four_product_report(inst, y, shifted=None):
    """(divides, witness) per colour, with the residue expression built as
    four products, two sums and a scale."""
    report = {}
    for i, yi in enumerate(y):
        if yi.degree == 0:
            report[i] = (True, None)
            continue
        gamma = inst.gamma(i) if shifted is None else shifted[i]
        p = interaction_product(inst, y, i)
        x = QPoly.x_power(1)
        expr = (p.scale(gamma) + x * p.derivative()) * yi.derivative() \
            - x * p * yi.derivative().derivative()
        try:
            report[i] = (True, divide_exact(expr, yi) if expr else None)
        except InexactDivision:
            report[i] = (False, None)
    return report


def test_fused_residue_matches_the_four_product_expression():
    cases = []
    for doc in (A4_DOC, D4_DOC):
        inst = serialize.instance_from_doc(doc)
        graph = explore_population(
            inst, orbit_data(inst.cartan, inst.aut),
            BetheTuple.trivial(inst.cartan.n), 2,
            [serialize.parse_scalar(s, inst.M) for s in SAMPLES])
        cases += [(inst, node.tuple_, None) for node in graph.nodes]
    # with a marked point T_i is not one; the L = 2 step-1 tuple solves the
    # equations of the shifted weight at the origin and not the others
    inst = n1_instance(lambda1=(1, 1))
    fold = orbit_data(inst.cartan, inst.aut)
    graph = explore_population(inst, fold, BetheTuple.trivial(2), 2,
                               [F(1), F(2), F(-1, 2)])
    cases += [(inst, node.tuple_, None) for node in graph.nodes]
    _, step = cyclotomic_generate(inst, fold, BetheTuple.trivial(2), 0, F(1))
    assert step.kind == "L2"
    step1 = BetheTuple.monic_of([dict(step.intermediates)["y_i_step1"],
                                 QPoly.one()])
    shifted = shifted_reflect(inst.cartan, 0, inst.lambda0)
    cases += [(inst, step1, shifted), (inst, step1, None)]
    assert len(cases) > 80
    verdicts = set()
    for inst, y, override in cases:
        _, report = is_critical_exact(inst, y) if override is None \
            else shifted_critical(inst, y, override)
        want = _four_product_report(inst, y, override)
        for i, (divides, witness) in want.items():
            got = report[i]["witness"]
            assert report[i]["divides"] == divides
            assert (got is None) == (witness is None)
            if witness is not None:
                assert got == witness and str(got) == str(witness)
                assert got.field_order() == witness.field_order()
            verdicts.add(divides)
    assert verdicts == {True, False}


def test_modes_agree_on_population(a2, a2_tuple):
    inst, _ = a2
    ext, _ = is_critical_exact(inst, a2_tuple)
    cyc, _ = prove_cyclotomic(inst, a2_tuple)
    assert ext is cyc is True


def test_orbit_reps_are_derived_once_per_instance(monkeypatch):
    a4, d4, affine = (serialize.instance_from_doc(CATALOGS[name][0])
                      for name in ("A4", "D4", "A3^(1)"))
    assert a4.orbit_reps == ((0, (1,)), (1, (2,)))
    assert d4.orbit_reps == ((0, (1,)), (1, ()))
    # {0, 1} and {0, 3} are one edge orbit, and so are {1, 2} and {2, 3}
    assert affine.orbit_reps == ((0, (1,)), (1, (2,)), (2, ()))
    # not a field: equality, hash and repr ignore it
    other = serialize.instance_from_doc(A4_DOC)
    other.orbit_reps = ()
    assert other == a4 and hash(other) == hash(a4)
    assert repr(other) == repr(a4) and "orbit_reps" not in repr(a4)

    def recomputed(*args):
        raise AssertionError("orbit_reps recomputed")
    monkeypatch.setattr(cartan, "_orbit_reps", recomputed)
    graph = explore_population(
        d4, orbit_data(d4.cartan, d4.aut), BetheTuple.trivial(4), 2,
        [serialize.parse_scalar(s, d4.M) for s in SAMPLES])
    assert len(graph) == 40


def test_cyclotomic_mode_refuses_what_it_does_not_prove(a2, a2_tuple):
    inst, _ = a2
    # the extended proof takes no mode and no other weight at the origin
    for option in ("mode", "lambda0_override"):
        with pytest.raises(TypeError):
            is_critical_exact(inst, BetheTuple.trivial(2), **{option: None})
    # generic and not critical, but not cyclotomic either: no verdict
    y = BetheTuple([poly(-1, 1), poly(2, 1)])
    assert is_critical_exact(inst, y)[0] is False
    with pytest.raises(NotCyclotomic):
        prove_cyclotomic(inst, y)
    ok, report = prove_cyclotomic(inst, BetheTuple.trivial(2))
    assert ok and list(report) == [0]
    # no residue at the representative a generation step moved
    ok, report = prove_cyclotomic(inst, a2_tuple, moved=0)
    assert ok and report == {}


def _proof_calls(monkeypatch, y, prove):
    """(name, colour) of each `divide_exact` and `is_squarefree` call of
    prove(), the colour being the component of y divided or tested."""
    calls = []
    with monkeypatch.context() as patch:
        for name in ("divide_exact", "is_squarefree"):
            patch.setattr(frame, name, lambda *a, f=getattr(frame, name),
                          n=name: calls.append(
                              (n, [p is a[-1] for p in y].index(True)))
                          or f(*a))
        prove()
    return sorted(calls)


def _residue_colours(monkeypatch, prove):
    """The colour of each residue prove() builds, in call order: the
    residue of colour i reads `interaction_product(inst, y, i)` once."""
    colours = []
    with monkeypatch.context() as patch:
        patch.setattr(frame, "interaction_product",
                      lambda inst, y, i, f=frame.interaction_product:
                      colours.append(i) or f(inst, y, i))
        prove()
    return colours


def test_checked_proves_each_orbit_representative_once(monkeypatch):
    # A4 (orbits {1, 4}, {2, 3}) and D4 ({1, 3, 4}, {2}): the colours 1
    # and 2 of 4, each tested squarefree once and divided once unless its
    # residue is 0 (colour 2 of the D4 node)
    kinds = set()
    for doc, divided in ((A4_DOC, [0, 1, 2, 3]), (D4_DOC, [0, 2, 3])):
        inst = serialize.instance_from_doc(doc)
        graph = explore_population(
            inst, orbit_data(inst.cartan, inst.aut), BetheTuple.trivial(4),
            2, [serialize.parse_scalar(s, inst.M) for s in SAMPLES])
        y = next(node.tuple_ for node in graph.nodes
                 if all(node.tuple_.degrees()))
        full = _proof_calls(monkeypatch, y, lambda: is_critical_exact(inst, y))
        assert full == [("divide_exact", i) for i in divided] + [
            ("is_squarefree", i) for i in range(4)]
        # `_checked` given the node's own step proves only what reads the
        # moved orbit O: the moved representative alone is tested
        # squarefree, and a residue is built and divided only after an
        # L = 2 step, at the other representatives adjacent to O; after an
        # L = 1 step none is; so on every generated node
        for node in graph.nodes[1:]:
            y, step = node.tuple_, node.step
            i = step.direction
            orbit = {inst.aut.power(i, k) for k in range(inst.M)}
            near = [] if step.kind == "L1" else [
                r for r, _ in inst.orbit_reps if r != i and any(
                    inst.cartan.a[r][j] for j in orbit)]
            full = _proof_calls(monkeypatch, y,
                                lambda: is_critical_exact(inst, y))
            checked = _proof_calls(monkeypatch, y,
                                   lambda: _checked(inst, y, step))
            assert checked == [c for c in full if c == ("is_squarefree", i)
                               or c[0] == "divide_exact" and c[1] in near]
            assert (("is_squarefree", i) in checked) == bool(y[i].degree)
            assert _residue_colours(monkeypatch, lambda: _checked(
                inst, y, step)) == [r for r in near if y[r].degree]
            kinds.add((doc["sigma"], step.kind, step.direction))
    assert kinds == {("(1 4)(2 3)", "L1", 0), ("(1 4)(2 3)", "L2", 1),
                     ("(1 3 4)", "L1", 0), ("(1 3 4)", "L1", 1)}


A4_MARKED_DOC = {**A4_DOC, "points": ["1"], "site_weights": [["1", "0", "0",
                                                               "1"]]}
SYMMETRIC = tuple(serialize.instance_from_doc(doc)
                  for doc in (A4_DOC, D4_DOC, A4_MARKED_DOC))
ROOTS = ("1", "-1", "2", "-2", "1/2", "w", "w+1", "2*w")


@lru_cache(maxsize=None)
def _critical_nodes(k):
    inst = SYMMETRIC[k]
    return tuple(node.tuple_ for node in explore_population(
        inst, orbit_data(inst.cartan, inst.aut), BetheTuple.trivial(4), 1,
        [serialize.parse_scalar(s, inst.M) for s in SAMPLES]).nodes)


def _symmetric_tuple(inst, roots):
    """y_r = prod_a (x^e - a) over roots[r] at each orbit representative r,
    e = M / |orbit|, moved across the orbit as y_(sigma^k r) ~ y_r(w^-k x)."""
    polys = [None] * inst.cartan.n
    for r, values in roots.items():
        orbit = [o for o in inst.aut.orbits() if r in o][0]
        e = F(inst.M // len(orbit))
        y = QPoly.one()
        for a in values:
            y = y * QPoly({e: 1, F(0): -a})
        for k in range(len(orbit)):
            polys[inst.aut.power(r, k)] = _transport(
                y, inst.omega, inst.M, k).monic()
    return BetheTuple(polys)


@st.composite
def _symmetric_cases(draw):
    """(instance, kind, tuple): a sigma-symmetric tuple with a forced
    repeated root, root at 0 or root shared along a representative edge,
    a random one, a catalog node, or a tuple whose symmetry is broken."""
    k = draw(st.integers(0, len(SYMMETRIC) - 1))
    inst = SYMMETRIC[k]
    kind = draw(st.sampled_from(("random", "repeated", "origin", "shared",
                                 "critical", "broken")))
    if kind == "critical":
        return inst, kind, draw(st.sampled_from(_critical_nodes(k)))
    values = st.sampled_from(ROOTS).map(
        lambda text: serialize.parse_scalar(text, inst.M))
    reps = dict(inst.orbit_reps)
    roots = {r: draw(st.lists(values, max_size=2)) for r in reps}
    i = draw(st.sampled_from(sorted(reps)))
    if kind == "repeated":
        roots[i] += [draw(values)] * 2
    elif kind == "origin":
        roots[i].append(Cyc.of(0))
    elif kind == "shared":
        i, j = draw(st.sampled_from([(i, j) for i, js in reps.items()
                                     for j in js]))
        rho = draw(values)
        for node in (i, j):
            # node = sigma^m r: the root rho of y_node is w^-m rho at y_r
            r, m = next((r, m) for r in reps for m in range(inst.M)
                        if inst.aut.power(r, m) == node)
            size = len([o for o in inst.aut.orbits() if r in o][0])
            roots[r].append((inst.omega ** (inst.M - m) * rho)
                            ** (inst.M // size))
    y = _symmetric_tuple(inst, roots)
    if kind == "broken":
        j = draw(st.integers(0, inst.cartan.n - 1))
        polys = list(y)
        polys[j] = polys[j] * QPoly({F(1): 1, F(0): -draw(values)})
        y = BetheTuple(polys)
    return inst, kind, y


@settings(max_examples=200, deadline=None)
@given(_symmetric_cases())
def test_cyclotomic_mode_agrees_with_the_extended_test(case):
    inst, kind, y = case
    if kind == "broken":
        assert not is_cyclotomic_tuple(inst, y)
        with pytest.raises(NotCyclotomic):
            prove_cyclotomic(inst, y)
        return
    assert is_cyclotomic_tuple(inst, y)
    want = _verdict(is_critical_exact, inst, y)
    assert _verdict(prove_cyclotomic, inst, y) == want
    if kind in ("repeated", "origin", "shared"):
        assert want[0] == "not generic"
    elif kind == "critical":
        assert want[0] is True


def test_cyclotomic_tuple(a2):
    inst, _ = a2
    assert is_cyclotomic_tuple(inst, BetheTuple.trivial(2))
    assert is_cyclotomic_tuple(
        inst, BetheTuple([poly(-1, 0, 0, 1), poly(1, 0, 0, 1)]))
    assert not is_cyclotomic_tuple(
        inst, BetheTuple([poly(-1, 1), poly(-1, 1)]))


def test_weight_at_infinity(a2, a3, a2_tuple):
    inst2, _ = a2
    assert weight_at_infinity(inst2, BetheTuple.trivial(2)) == inst2.lambda0
    assert weight_at_infinity(inst2, a2_tuple) == Weight([F(-5, 2), F(-5, 2)])
    inst3, _ = a3
    y = BetheTuple([poly(5, 1), QPoly.one(), poly(-5, 1)])
    assert weight_at_infinity(inst3, y) == Weight([-2, 3, -2])
    # sigma-invariance for cyclotomic tuples
    assert is_cyclotomic_tuple(inst3, y)
    linf = weight_at_infinity(inst3, y)
    assert sigma_on_weight(inst3.aut, linf) == linf


def test_big_lambda_is_the_weight_at_infinity_of_the_trivial_tuple(a2):
    inst = n1_instance(lambda1=(1, 0))
    # L0 + Lambda_1 + sigma Lambda_1 = (1/2, 1/2) + (1, 0) + (0, 1)
    assert big_lambda(inst) == Weight([F(3, 2), F(3, 2)])
    assert weight_at_infinity(inst, BetheTuple.trivial(2)) == \
        big_lambda(inst)
    assert big_lambda(a2[0]) == a2[0].lambda0


def test_validate_lambda0(a3, a2):
    inst3, fold3 = a3
    bad = ProblemInstance(cartan=inst3.cartan, aut=inst3.aut,
                          omega=inst3.omega, points=(), site_weights=(),
                          lambda0=Weight([0, 0, 0]))
    ok, violations = validate_lambda0(bad, fold3)
    assert not ok
    assert any("node 1" in v and "mod 2" in v for v in violations)
    ok, violations = validate_lambda0(inst3, fold3)
    assert ok, violations
    inst2, fold2 = a2
    ok, violations = validate_lambda0(inst2, fold2, typea_p=1)
    assert ok, violations


def test_canonical_lambda0(a2, a3):
    assert canonical_lambda0(1, 1) == Weight([0])
    lam2 = canonical_lambda0(2)
    inst2, fold2 = a2
    cand = ProblemInstance(cartan=inst2.cartan, aut=inst2.aut,
                           omega=inst2.omega, points=(), site_weights=(),
                           lambda0=lam2)
    ok, violations = validate_lambda0(cand, fold2, typea_p=1)
    assert ok, violations
    # A_3 canonical weight is the population instance's weight
    inst3, _ = a3
    assert canonical_lambda0(3) == inst3.lambda0
    # sigma-invariance under i -> R+1-i
    for rank in (2, 3, 4, 5):
        lam = canonical_lambda0(rank)
        assert lam.pairings == tuple(reversed(lam.pairings))


def test_canonical_lambda0_is_the_trace_over_root_vectors():
    for rank in range(1, MAX_RANK + 1):
        assert canonical_lambda0(rank) == traced_lambda0(rank)
        assert canonical_lambda0(rank, 1) == Weight.zero(rank)
    with pytest.raises(UnsupportedType):
        canonical_lambda0(3, 3)


def test_hl_identity(a2):
    inst, _ = a2
    rng = random.Random(31)
    for _ in range(5):
        lam = Weight([F(rng.randint(-8, 8), rng.randint(1, 3))
                      for _ in range(2)])
        assert hl_identity_check(inst.cartan, inst.aut, inst.omega, lam)
    # M = 1: both sides are empty sums
    assert hl_identity_check(inst.cartan, identity_aut(2),
                             Cyc.of(1), Weight([1, 2]))


def test_eigenvalues_trivial_weight():
    inst = n1_instance(lambda1=(0, 0), lambda0=(F(1, 2), F(1, 2)))
    res = eigenvalues(inst, BetheTuple.trivial(2))
    assert res["cyclotomic"][0] == Cyc.of(0)


def test_eigenvalues_hl_formula():
    # N = 1, m = 0, M = 2: E^(1) = ((L1, L0) + (L1, sL1)/2) / z1
    from cybethe.cartan import inner_product
    inst = n1_instance(lambda1=(1, 0), z=2)
    res = eigenvalues(inst, BetheTuple.trivial(2))
    lam = inst.site_weights[0]
    want = (inner_product(inst.cartan, lam, inst.lambda0)
            + inner_product(inst.cartan, lam,
                            sigma_on_weight(inst.aut, lam)) / 2) / 2
    assert res["cyclotomic"][0] == Cyc.of(want)
    assert res["match"] and res["origin_zero"]


def test_eigenvalues_match_on_generated():
    inst = n1_instance(lambda1=(1, 1), z=1)
    fold = orbit_data(inst.cartan, inst.aut)
    seed = BetheTuple.trivial(2)
    y, _ = cyclotomic_generate(inst, fold, seed, 0, F(1, 2))
    res = eigenvalues(inst, y)
    assert not res["not_critical"]
    assert res["origin_zero"]
    assert res["match"]


def test_instance_validation():
    cartan = CartanData.series("A", 2)
    aut = DiagramAut((1, 0))
    with pytest.raises(InputError):
        # omega orbits of 1 and -1 intersect
        ProblemInstance(cartan=cartan, aut=aut, omega=Cyc.root_of_unity(2),
                        points=(Cyc.of(1), Cyc.of(-1)),
                        site_weights=(Weight([1, 0]), Weight([0, 1])),
                        lambda0=Weight([0, 0]))
    with pytest.raises(InputError):
        # lambda0 not sigma-invariant
        ProblemInstance(cartan=cartan, aut=aut, omega=Cyc.root_of_unity(2),
                        points=(), site_weights=(), lambda0=Weight([1, 0]))
    with pytest.raises(InputError):
        # non-dominant site weight
        ProblemInstance(cartan=cartan, aut=aut, omega=Cyc.root_of_unity(2),
                        points=(Cyc.of(1),), site_weights=(Weight([-1, 0]),),
                        lambda0=Weight([0, 0]))


def test_eigenvalues_invert_the_cartan_matrix_at_most_once(monkeypatch):
    from cybethe import linalg
    calls = []
    invert = linalg.invert

    def counted(rows):
        calls.append(1)
        return invert(rows)

    monkeypatch.setattr(linalg, "invert", counted)
    inst = n1_instance()
    eigenvalues(inst, BetheTuple.trivial(2))
    assert len(calls) <= 1
    eigenvalues(inst, BetheTuple.trivial(2))
    assert len(calls) <= 1


def test_eigenvalues_reject_singular_cartan_up_front():
    # affine A_2^(1) is singular; no marked points and the trivial tuple
    # leave no inner product to evaluate, yet the call must still fail
    from cybethe.errors import SingularCartan
    cartan = affine_a(2)
    inst = ProblemInstance(cartan=cartan, aut=identity_aut(3),
                           omega=Cyc.of(1), points=(), site_weights=(),
                           lambda0=Weight.zero(3))
    with pytest.raises(SingularCartan):
        eigenvalues(inst, BetheTuple.trivial(3))


def _all_pairs_generic(inst, y):
    """Genericity with every adjacent pair tested in both orders."""
    from cybethe.qpoly import is_squarefree, qgcd
    t = frame_polys(inst)
    a = inst.cartan.a
    for i, yi in enumerate(y):
        if yi.degree == 0:
            continue
        if yi.coeff(0).is_zero():
            return False, f"y_{i} vanishes at the origin"
        if not is_squarefree(yi):
            return False, f"y_{i} is not squarefree"
        if qgcd(yi, t[i]).degree != 0:
            return False, f"y_{i} shares a root with T_{i}"
        for j, yj in enumerate(y):
            if j != i and a[i][j] != 0 and qgcd(yi, yj).degree != 0:
                return False, f"y_{i} shares a root with y_{j}"
    return True, None


def test_genericity_tests_each_adjacent_pair_once(a2, a2_tuple, a3,
                                                  monkeypatch):
    from cybethe import frame
    calls = []
    qgcd = frame.qgcd

    def counted(f, g):
        calls.append(1)
        return qgcd(f, g)

    monkeypatch.setattr(frame, "qgcd", counted)
    inst, _ = a2
    assert is_generic(inst, a2_tuple) == (True, None)
    # T_0, T_1 and the one adjacent pair {0, 1}
    assert len(calls) == 3
    calls.clear()
    inst, _ = a3
    y = BetheTuple([poly(1, 1), poly(2, 0, 1), poly(-1, 1)])
    assert is_generic(inst, y) == (True, None)
    # T_0, T_1, T_2 and the adjacent pairs {0, 1}, {1, 2}
    assert len(calls) == 5


def test_genericity_witnesses_match_the_all_pairs_test(a3):
    inst, _ = a3
    rng = random.Random(5)
    choices = [poly(1), poly(1, 1), poly(-1, 1), poly(2, 0, 1),
               poly(-1, 0, 1), poly(0, 1), poly(1, 2, 1), poly(-2, 1)]
    witnesses = set()
    for _ in range(60):
        y = BetheTuple([rng.choice(choices) for _ in range(3)])
        assert is_generic(inst, y) == _all_pairs_generic(inst, y), y
        witnesses.add(is_generic(inst, y)[1])
    assert "y_0 shares a root with y_1" in witnesses
    assert "y_1 shares a root with y_2" in witnesses


def test_genericity_with_mixed_exponent_denominators(a3):
    inst, _ = a3
    rng = random.Random(11)
    half = [QPoly({F(1, 2): 1, F(0): -1}), QPoly({F(1, 2): 1, F(0): 2}),
            QPoly({F(3, 2): 1, F(0): 1}), QPoly({F(1, 2): 1, F(0): -2})]
    choices = half + [poly(1), poly(-1, 1), poly(-4, 1), poly(1, 0, 1),
                      poly(-1, 0, 1), poly(1, 1)]
    witnesses = set()
    for _ in range(80):
        # a plain list: a BetheTuple holds only ordinary polynomials
        y = [rng.choice(choices) for _ in range(3)]
        assert is_generic(inst, y) == _all_pairs_generic(inst, y), y
        witnesses.add(is_generic(inst, y)[1])
    assert {"y_0 shares a root with y_1", "y_1 shares a root with y_2",
            None} <= witnesses
