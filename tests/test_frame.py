import random
from fractions import Fraction as F

import pytest

from conftest import poly
from cybethe import serialize
from cybethe.cartan import (CartanData, DiagramAut, Weight, orbit_data,
                            shifted_reflect, sigma_on_weight)
from cybethe.errors import InexactDivision, InputError, NotGeneric
from cybethe.frame import (BetheTuple, ProblemInstance, big_lambda,
                           canonical_lambda0, eigenvalues, frame_polys,
                           hl_identity_check, interaction_product,
                           is_critical_exact, is_cyclotomic_tuple,
                           is_generic, t_tilde, validate_lambda0,
                           weight_at_infinity)
from cybethe.genengine import cyclotomic_generate_L2, explore_population
from cybethe.qpoly import QPoly, divide_exact, proportional
from cybethe.scalars import Cyc
from test_catalog_pins import A4_DOC, D4_DOC, SAMPLES


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
    # trivial tuple is vacuously critical, in both modes
    for mode in ("extended", "cyclotomic"):
        ok3, _ = is_critical_exact(inst, BetheTuple.trivial(2), mode=mode)
        assert ok3
    with pytest.raises(NotGeneric):
        is_critical_exact(inst, BetheTuple([poly(-1, 1), poly(-1, 1)]))


def _four_product_report(inst, y, t, lambda0_override=None):
    """(divides, witness) per colour, with the residue expression built as
    four products, two sums and a scale."""
    report = {}
    for i, yi in enumerate(y):
        if yi.degree == 0:
            report[i] = (True, None)
            continue
        gamma = inst.gamma(i) if lambda0_override is None \
            else lambda0_override[i]
        p = interaction_product(inst, y, i, t=t)
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
    _, step = cyclotomic_generate_L2(inst, fold, BetheTuple.trivial(2), 0,
                                     F(1))
    step1 = BetheTuple.monic_of([dict(step.intermediates)["y_i_step1"],
                                 QPoly.one()])
    shifted = shifted_reflect(inst.cartan, 0, inst.lambda0)
    cases += [(inst, step1, shifted), (inst, step1, None)]
    assert len(cases) > 80
    verdicts = set()
    for inst, y, override in cases:
        t = frame_polys(inst)
        _, report = is_critical_exact(inst, y, t=t, lambda0_override=override)
        want = _four_product_report(inst, y, t, override)
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
    ext, _ = is_critical_exact(inst, a2_tuple, mode="extended")
    cyc, _ = is_critical_exact(inst, a2_tuple, mode="cyclotomic")
    assert ext == cyc


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


def test_hl_identity(a2):
    inst, _ = a2
    rng = random.Random(31)
    for _ in range(5):
        lam = Weight([F(rng.randint(-8, 8), rng.randint(1, 3))
                      for _ in range(2)])
        assert hl_identity_check(inst.cartan, inst.aut, inst.omega, lam)
    # M = 1: both sides are empty sums
    assert hl_identity_check(inst.cartan, DiagramAut.identity(2),
                             Cyc.of(1), Weight([1, 2]))


def test_eigenvalues_trivial_weight():
    inst = n1_instance(lambda1=(0, 0), lambda0=(F(1, 2), F(1, 2)))
    res = eigenvalues(inst, BetheTuple.trivial(2), check_critical=False)
    assert res["cyclotomic"][0] == Cyc.of(0)


def test_eigenvalues_hl_formula():
    # N = 1, m = 0, M = 2: E^(1) = ((L1, L0) + (L1, sL1)/2) / z1
    from cybethe.cartan import inner_product
    inst = n1_instance(lambda1=(1, 0), z=2)
    res = eigenvalues(inst, BetheTuple.trivial(2), check_critical=False)
    lam = inst.site_weights[0]
    want = (inner_product(inst.cartan, lam, inst.lambda0)
            + inner_product(inst.cartan, lam,
                            sigma_on_weight(inst.aut, lam)) / 2) / 2
    assert res["cyclotomic"][0] == Cyc.of(want)
    assert res["match"] and res["origin_zero"]


def test_eigenvalues_match_on_generated():
    from cybethe.genengine import cyclotomic_generate
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
    cartan = CartanData.affine_a(2)
    inst = ProblemInstance(cartan=cartan, aut=DiagramAut.identity(3),
                           omega=Cyc.of(1), points=(), site_weights=(),
                           lambda0=Weight.zero(3))
    with pytest.raises(SingularCartan):
        eigenvalues(inst, BetheTuple.trivial(3), check_critical=False)


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
