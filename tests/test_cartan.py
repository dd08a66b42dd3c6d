import random
from fractions import Fraction as F

import pytest

from conftest import affine_a, identity_aut
from cybethe.cartan import (MAX_RANK, CartanData, DiagramAut, Weight,
                            dominant_shifted_rep, folded_reflect,
                            inner_product, orbit_data, shifted_reflect,
                            sigma_on_weight, weight_orbit)
from cybethe.errors import InputError, LinkingViolation, NonRegular


def test_folding_a4_involution():
    fold = orbit_data(CartanData.series("A", 4), DiagramAut((3, 2, 1, 0)))
    assert fold.linking == (1, 2, 2, 1)
    assert fold.reps == (0, 1)
    assert fold.orbit_len == (2, 2, 2, 2)


def test_folding_a3():
    fold = orbit_data(CartanData.series("A", 3), DiagramAut((2, 1, 0)))
    assert fold.a_fold.a == ((2, -2), (-1, 2))


def test_folding_identity():
    cartan = CartanData.series("A", 3)
    fold = orbit_data(cartan, identity_aut(3))
    assert fold.a_fold.a == cartan.a
    assert fold.linking == (1, 1, 1)
    assert fold.orbit_len == (1, 1, 1)


def test_folding_affine_rejected():
    for n in (2, 3, 4):
        cartan = affine_a(n)
        rotation = DiagramAut(tuple((i + 1) % (n + 1) for i in range(n + 1)))
        with pytest.raises(LinkingViolation) as err:
            orbit_data(cartan, rotation)
        # every node lies in one orbit; the cycle contributes both
        # neighbours, L = 3 (equal to 1 + n exactly for n = 2)
        assert err.value.linking == 3
        if n == 2:
            assert err.value.linking == 1 + n


def test_fold_of_fold_idempotent():
    fold = orbit_data(CartanData.series("A", 4), DiagramAut((3, 2, 1, 0)))
    refold = orbit_data(fold.a_fold, identity_aut(2))
    assert refold.a_fold.a == fold.a_fold.a


def test_aut_validation():
    cartan = CartanData.series("A", 3)
    with pytest.raises(InputError):
        DiagramAut((1, 0, 2)).validate_for(cartan)  # breaks the matrix


def test_diagram_aut_derives_its_order_once(a3, monkeypatch):
    import math
    from cybethe import cartan
    from cybethe.frame import BetheTuple
    from cybethe.genengine import explore_population
    aut = DiagramAut((1, 2, 0, 4, 3))
    assert aut.order == 6 and [aut.power(0, k) for k in (1, 2, 7)] == [1, 2, 1]
    assert "order" not in DiagramAut._fields
    assert aut == DiagramAut((1, 2, 0, 4, 3))
    assert hash(aut) == hash(DiagramAut((1, 2, 0, 4, 3)))
    assert repr(aut) == "DiagramAut(perm=(1, 2, 0, 4, 3))"
    assert DiagramAut(()).order == identity_aut(3).order == 1
    # a BFS reads sigma's order (through `power` and `M`) without the lcm
    # of its cycle lengths
    calls = []
    monkeypatch.setattr(cartan, "lcm",
                        lambda *a: calls.append(a) or math.lcm(*a))
    inst, fold = a3
    graph = explore_population(inst, fold, BetheTuple.trivial(3), 2,
                               [F(1), F(2)])
    assert len(graph.nodes) == 19 and calls == []


D4 = CartanData.from_matrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                             [0, -1, 0, 2]])


@pytest.mark.parametrize("cartan, aut", [
    (CartanData.series("A", 4), DiagramAut((3, 2, 1, 0))),   # flip, M = 2
    (D4, DiagramAut((2, 1, 3, 0))),                          # triality, M = 3
])
def test_weight_orbit_lists_the_sigma_powers(cartan, aut):
    aut.validate_for(cartan)
    lam = Weight([1, 2, F(1, 2), 3])
    orbit = weight_orbit(aut, lam)
    assert len(orbit) == aut.order
    for k, entry in enumerate(orbit):
        cur = lam
        for _ in range(k):
            cur = sigma_on_weight(aut, cur)
        assert entry == cur
    assert sigma_on_weight(aut, orbit[-1]) == orbit[0]
    assert len(set(orbit)) == aut.order


def test_sigma_on_weight():
    aut = DiagramAut((2, 1, 0))
    assert sigma_on_weight(aut, Weight([1, 2, 3])) == Weight([3, 2, 1])
    assert sigma_on_weight(identity_aut(3), Weight([1, 2, 3])) \
        == Weight([1, 2, 3])
    fixed = Weight([5, 7, 5])
    assert sigma_on_weight(aut, fixed) == fixed


def test_shifted_reflect():
    a2 = CartanData.series("A", 2)
    assert shifted_reflect(a2, 0, Weight([0, 0])) == Weight([-2, 1])
    # fixed point at pairing -1
    lam = Weight([-1, F(3, 7)])
    assert shifted_reflect(a2, 0, lam) == lam


def test_shifted_reflect_involution():
    rng = random.Random(5)
    a3 = CartanData.series("A", 3)
    for _ in range(20):
        lam = Weight([F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(3)])
        for i in range(3):
            assert shifted_reflect(a3, i, shifted_reflect(a3, i, lam)) == lam


def test_folded_reflect_words(a3, a2):
    inst3, fold3 = a3
    # L = 1 orbit {1, 3}: the folded reflection is s_1 s_3
    lam = Weight([2, -1, F(1, 2)])
    via_word = folded_reflect(inst3.cartan, inst3.aut, fold3, 0, lam)
    direct = shifted_reflect(inst3.cartan, 0,
                             shifted_reflect(inst3.cartan, 2, lam))
    assert via_word == direct
    # sigma = id: folded_reflect is shifted_reflect
    cartan = inst3.cartan
    fold_id = orbit_data(cartan, identity_aut(3))
    for i in range(3):
        assert folded_reflect(cartan, identity_aut(3), fold_id, i, lam) \
            == shifted_reflect(cartan, i, lam)
    # L = 2 word s_1 s_2 s_1 on A_2
    inst2, fold2 = a2
    out = folded_reflect(inst2.cartan, inst2.aut, fold2, 0,
                         Weight([F(1, 2), F(1, 2)]))
    assert out == Weight([F(-5, 2), F(-5, 2)])


def test_folded_reflect_involution_on_invariant_weights(a2, a3):
    for inst, fold in (a2, a3):
        rng = random.Random(17)
        for _ in range(10):
            raw = [F(rng.randint(-8, 8), 2) for _ in range(inst.cartan.n)]
            lam = Weight(raw) + sigma_on_weight(inst.aut, Weight(raw))
            for i in fold.reps:
                twice = folded_reflect(
                    inst.cartan, inst.aut, fold, i,
                    folded_reflect(inst.cartan, inst.aut, fold, i, lam))
                assert twice == lam


def test_dominant_shifted_rep():
    a2 = CartanData.series("A", 2)
    lam = Weight([F(-5, 2), F(-5, 2)])
    dom, word = dominant_shifted_rep(a2, lam)
    assert dom == Weight([F(1, 2), F(1, 2)])
    assert word  # nonempty
    # already dominant: empty word
    dom2, word2 = dominant_shifted_rep(a2, Weight([1, 0]))
    assert dom2 == Weight([1, 0]) and word2 == []
    a1 = CartanData.series("A", 1)
    assert dominant_shifted_rep(a1, Weight([-4]))[0] == Weight([2])
    with pytest.raises(NonRegular):
        dominant_shifted_rep(a1, Weight([-1]))


def test_inner_product():
    a1 = CartanData.series("A", 1)
    assert inner_product(a1, Weight([1]), Weight([1])) == F(1, 2)
    a3 = CartanData.series("A", 3)
    zero = Weight.zero(3)
    assert inner_product(a3, Weight([1, 2, 3]), zero) == 0
    # Gram identity (alpha_i, alpha_j) = d_i a_ij
    for cartan in (CartanData.series("A", 2), CartanData.series("A", 3),
                   CartanData.from_matrix([[2, -2], [-1, 2]])):
        for i in range(cartan.n):
            for j in range(cartan.n):
                ai = Weight.simple_root(cartan, i)
                aj = Weight.simple_root(cartan, j)
                assert inner_product(cartan, ai, aj) == \
                    cartan.d[i] * cartan.a[i][j]


def test_inner_product_symmetry_and_pairing_identity():
    rng = random.Random(23)
    a3 = CartanData.series("A", 3)
    for _ in range(10):
        lam = Weight([F(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(3)])
        mu = Weight([F(rng.randint(-6, 6), rng.randint(1, 3))
                     for _ in range(3)])
        assert inner_product(a3, lam, mu) == inner_product(a3, mu, lam)
        for i in range(3):
            ai = Weight.simple_root(a3, i)
            norm = inner_product(a3, ai, ai)
            assert lam[i] == 2 * inner_product(a3, lam, ai) / norm


def test_symmetrizers_bc():
    # non-simply-laced folded matrix gets coprime positive symmetrizers
    c = CartanData.from_matrix([[2, -2], [-1, 2]])
    assert c.d == (1, 2) or c.d == (2, 1)
    for i in range(2):
        for j in range(2):
            assert c.d[i] * c.a[i][j] == c.d[j] * c.a[j][i]


def test_rank_limit():
    limit = MAX_RANK
    assert CartanData.series("A", limit).n == limit
    for rank in (limit + 1, 10 ** 30, 0):
        with pytest.raises(InputError, match=str(limit)):
            CartanData.series("A", rank)
    identity = [[2 if i == j else 0 for j in range(limit + 1)]
                for i in range(limit + 1)]
    with pytest.raises(InputError, match=str(limit)):
        CartanData.from_matrix(identity)
    assert CartanData.from_matrix([row[:limit] for row in identity[:limit]]) \
        .n == limit


def _records():
    """name -> a call that builds a record from fresh but equal fields."""
    from conftest import poly
    from cybethe import cartan, frame, genengine, numerics, typea
    from cybethe.scalars import Cyc

    def a2():
        return cartan.ProblemInstance(
            cartan=CartanData.series("A", 2), aut=DiagramAut((1, 0)),
            omega=Cyc.of(-1), points=(), site_weights=(),
            lambda0=Weight([F(1, 2), F(1, 2)]))

    def space_and_flag():
        seed = frame.BetheTuple([poly(-1, 0, 0, 1), poly(1, 0, 0, 1)])
        return typea.kernel_basis(a2(), seed)

    def witt():
        space, flag = space_and_flag()
        return typea.witt_basis(space, adjusted=flag.adjusted)

    return {
        "CartanData": lambda: CartanData(a=((2, -1), (-1, 2)), d=(1, 1)),
        "DiagramAut": lambda: DiagramAut((1, 0)),
        "FoldedData": lambda: orbit_data(CartanData.series("A", 4),
                                         DiagramAut((3, 2, 1, 0))),
        "ProblemInstance": a2,
        "GenerationStep": lambda: genengine.GenerationStep(
            direction=0, c=Cyc.of(F(1, 3)), kind="L1"),
        "PopulationNode": lambda: genengine.PopulationNode(
            node_id=1, tuple_=frame.BetheTuple([poly(1)] * 2), parent=0,
            step=None, lambda_inf=Weight([1, 0])),
        "Tolerances": lambda: numerics.Tolerances(fd_step=1e-4),
        "FloatPoint": lambda: numerics.FloatPoint(roots=(1j, -1j),
                                                  colours=(0, 1)),
        "TypeAFrame": lambda: space_and_flag()[0].frame,
        "QPSpace": lambda: space_and_flag()[0],
        "Flag": lambda: space_and_flag()[1],
        "WittBasis": witt,
    }


# the classes that were frozen, and so hashable, before they became plain
_HASHED = ("CartanData", "DiagramAut", "FoldedData", "ProblemInstance",
           "GenerationStep", "Tolerances", "FloatPoint", "TypeAFrame",
           "QPSpace", "Flag")


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_compare_by_value(name):
    build = _records()[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert not hasattr(type(a), "__dataclass_fields__")
    assert a == b and not a != b
    if name in _HASHED:
        assert hash(a) == hash(b)
    assert repr(a).startswith(name + "(")


def test_records_keep_their_keywords_defaults_and_names():
    import cybethe
    from cybethe import cartan, frame, numerics
    from cybethe.genengine import PopulationNode
    records = _records()
    assert numerics.Tolerances() == numerics.DEFAULT_TOL
    assert numerics.Tolerances().fd_step == 1e-5
    assert records["Tolerances"]() != numerics.Tolerances()
    assert records["GenerationStep"]().intermediates == ()
    node = PopulationNode(0, "y", None, None, Weight([0]))
    assert (node.node_id, node.tuple_, node.parent, node.flags) \
        == (0, "y", None, {})
    assert node != PopulationNode(0, "y", None, None, Weight([1]))
    assert len(records["WittBasis"]().vectors) == 3
    # the instance and the canonical weight live in `cartan`
    assert frame.ProblemInstance is cartan.ProblemInstance \
        is cybethe.ProblemInstance
    assert frame.canonical_lambda0 is cartan.canonical_lambda0 \
        is cybethe.canonical_lambda0
    # CartanData caches its weight form in its instance __dict__
    c = records["CartanData"]()
    assert c.weight_gram is c.weight_gram and "weight_gram" in vars(c)
    assert c == records["CartanData"]()


@pytest.mark.parametrize("build, message", [
    (lambda: CartanData(a=((2, 1), (1, 2)), d=(1, 1)),
     r"off-diagonal a\[0\]\[1\] > 0"),
    (lambda: CartanData(a=((2, -1), (-1, 2)), d=(1, 2)),
     r"diag\(d\) a is not symmetric"),
    (lambda: CartanData(a=((2, -1),), d=(1,)), "must be square"),
    (lambda: DiagramAut((0, 0)), "not a permutation"),
    (lambda: _instance(omega=1), "omega is not a primitive M-th root"),
    (lambda: _instance(lambda0=Weight([1, 0])),
     "lambda0 is not sigma-invariant"),
    (lambda: _instance(points=(0,), site_weights=(Weight([0, 0]),)),
     "marked points must be nonzero"),
])
def test_records_refuse_bad_fields(build, message):
    with pytest.raises(InputError, match=message):
        build()


def _instance(**changes):
    from cybethe.cartan import ProblemInstance
    from cybethe.scalars import Cyc
    fields = dict(cartan=CartanData.series("A", 2), aut=DiagramAut((1, 0)),
                  omega=-1, points=(), site_weights=(),
                  lambda0=Weight([F(1, 2), F(1, 2)]))
    fields.update(changes)
    fields["omega"] = Cyc.of(fields["omega"])
    fields["points"] = tuple(Cyc.of(z) for z in fields["points"])
    return ProblemInstance(**fields)
