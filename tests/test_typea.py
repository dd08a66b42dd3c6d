import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_gram, identity_aut, poly, written
from cybethe import qpoly, serialize
from cybethe.cartan import Weight, orbit_data
from cybethe.errors import NotInRootCone, NotIsotropic, NotSelfDual
from cybethe.frame import (BetheTuple, is_critical_exact,
                           is_cyclotomic_tuple)
from cybethe.genengine import explore_population
from cybethe.qpoly import QPoly, proportional
from cybethe.scalars import Cyc
from cybethe.typea import (QPSpace, apply_flow, available_generators,
                           beta, big_lambda, cyclotomic_population,
                           exponents, flag_type, flow_vs_generation,
                           frame_conditions_check, gram_matrix, isotropy_check,
                           kernel_basis, rational_sqrt, _cyclotomic_sqrt,
                           special_basis_from, witt_basis, in_span)
from oracles import (apply_operator, bform, divided_wronskian,
                     fundamental_operator)


A4_CATALOG = Path(__file__).resolve().parents[1] / "perfbench" / "data" / \
    "a4_depth2_catalog.json"
A4_DOC = {"cartan": {"series": "A", "rank": 4}, "sigma": "(1 4)(2 3)",
          "M": 2, "omega": "-1", "lambda0": ["0", "1/2", "1/2", "0"]}


def a2_space(a2, a2_tuple):
    inst, _ = a2
    return kernel_basis(inst, a2_tuple)


def dual_of(space, basis):
    """W_i = Wr+(u_1, ..., ^u_i, ..., u_(R+1)) of a basis of the space."""
    from cybethe import typea
    return typea._dual(typea._wr_plus(space.frame, basis), len(basis))


def quasi_cyclotomic(tup):
    r = len(tup)
    return all(proportional(tup[k].negate_argument(), tup[r - 1 - k])
               for k in range(r))


def test_exponents(a2, a2_tuple):
    inst, _ = a2
    lam = big_lambda(inst)
    d, ddag = exponents(inst.cartan, lam, Weight([F(1, 2), F(1, 2)]))
    assert d[0] == 0
    assert d == (F(0), F(3, 2), F(3))
    assert ddag == (F(3), F(3, 2), F(0))
    # Lambda~_inf = Lambda gives d_1 = 0
    d2, _ = exponents(inst.cartan, lam, lam)
    assert d2[0] == 0
    with pytest.raises(NotInRootCone):
        exponents(inst.cartan, lam, Weight([F(5, 2), F(5, 2)]))


def test_exponent_sum_identity(a2, a3):
    # sum d_i - (R+1)R/2 = <Lambda, sum (R+1-k) alpha_k^vee>
    for inst, fold in (a2, a3):
        r = inst.cartan.n
        lam = big_lambda(inst)
        from cybethe.cartan import dominant_shifted_rep
        lam_inf, _ = dominant_shifted_rep(inst.cartan, inst.lambda0)
        d, _ = exponents(inst.cartan, lam, lam_inf)
        lhs = sum(d) - F((r + 1) * r, 2)
        rhs = sum((r - k) * lam[k] for k in range(r))
        assert lhs == rhs


def test_kernel_basis_a2(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    assert space.frame.p == 1
    assert space.frame.d == (F(0), F(3, 2), F(3))
    assert len(space.basis) == 3
    # beta round trip
    tup = beta(space, flag.adjusted)
    assert tup[0] == a2_tuple[0] and tup[1] == a2_tuple[1]


def test_kernel_basis_trivial(a2):
    inst, _ = a2
    space, flag = kernel_basis(inst, BetheTuple.trivial(2))
    assert [str(u) for u in space.basis] == ["1", "x^3/2", "x^3"]
    tup = beta(space, flag.adjusted)
    assert all(q == QPoly.one() for q in tup)


def test_uwrlem_constant(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    d = space.frame.d
    want = F(1)
    for i in range(3):
        for j in range(i):
            want *= d[i] - d[j]
    # from the space's table and from a fresh divided Wronskian
    assert space.wr_plus(0b111) == QPoly.constant(Cyc.of(want)) == \
        divided_wronskian(space.basis, [space.frame.divisors[3]])


def test_fundamental_operator_kernel(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    args = fundamental_operator(space.frame, list(a2_tuple))
    for u in space.basis:
        assert apply_operator(args, u).is_zero()
    # something outside the kernel does not vanish
    assert not apply_operator(args, QPoly.x_power(1)).is_zero()


def test_fundamental_operator_r1():
    # R = 1: factors (d - log'(T~/y))(d - log' y); kernel contains y_1
    from cybethe.cartan import CartanData
    from cybethe.frame import ProblemInstance
    cartan = CartanData.series("A", 1)
    inst = ProblemInstance(cartan=cartan, aut=identity_aut(1),
                           omega=Cyc.of(1), points=(Cyc.of(1),),
                           site_weights=(Weight([2]),), lambda0=Weight([0]))
    from cybethe.typea import build_frame
    y = BetheTuple([poly(2, 1)])  # x + 2, critical not required here
    frame = build_frame(inst, y)
    args = fundamental_operator(frame, [y[0]])
    assert apply_operator(args, y[0]).is_zero()


def test_frame_conditions_pass(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    report = frame_conditions_check(space)
    assert report["ok"], report


def test_frame_conditions_counterexample(a2, a2_tuple):
    # basis (1, x) with T~_1 = x^2 fails clause (ii): Wr+ = x^-2
    space, _ = a2_space(a2, a2_tuple)
    frame = space.frame.__class__(
        r=1, p=0, ttilde=(QPoly.x_power(2),), lam=space.frame.lam,
        lam_inf_tilde=space.frame.lam_inf_tilde, d=(F(0), F(1)),
        ddag=(F(1), F(0)))
    bad = QPSpace(frame=frame, basis=(QPoly.one(), QPoly.x_power(1)))
    report = frame_conditions_check(bad)
    assert not report["clause_ii"]["ok"]


def test_special_basis_shuffled(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    u = space.basis
    shuffled = (u[2] + u[0].scale(3), u[0], u[1].scale(F(2, 5)))
    rebuilt = special_basis_from(space.frame, shuffled)
    assert [q.degree for q in rebuilt] == list(space.frame.d)
    assert rebuilt == space.basis
    # parity: each special vector is in C[x] or x^(1/2) C[x]
    for q in rebuilt:
        assert len(q.exponent_classes()) == 1


def test_dual_basis(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    w = dual_of(space, space.basis)
    assert [q.degree for q in w] == list(space.frame.ddag)
    # pairing (u_i, W_j) = 0 for i != j, realized as Wr+(u_i, u_.., ^u_j, ..)
    size = len(space.basis)
    for i in range(size):
        for j in range(size):
            rest = [space.basis[k] for k in range(size) if k != j]
            fs = [space.basis[i]] + rest
            val = divided_wronskian(fs, [space.frame.divisors[len(fs)]])
            if i == j:
                assert not val.is_zero()
            else:
                assert val.is_zero()
    # decomposability of the dual basis
    for q in w:
        assert len(q.exponent_classes()) == 1


def test_self_duality(a2, a2_tuple):
    # the Gram matrix is the one test: it refuses a space whose images
    # under x -> -x leave the dual space
    space, _ = a2_space(a2, a2_tuple)
    assert len(gram_matrix(space)) == 3
    # perturbed space: replace x^3 by x^3 + x
    bad = QPSpace(frame=space.frame,
                  basis=(space.basis[0], space.basis[1],
                         space.basis[2] + QPoly.x_power(1)))
    with pytest.raises(NotSelfDual):
        gram_matrix(bad)


def test_self_duality_forces_exponent_symmetry(a2, a2_tuple):
    # d_k + d_(R+2-k) = R + <Lambda, alpha_1 + ... + alpha_R> (cd2lem)
    space, _ = a2_space(a2, a2_tuple)
    d = space.frame.d
    r = space.frame.r
    lam = space.frame.lam
    want = r + sum(lam.pairings)
    for k in range(r + 1):
        assert d[k] + d[r - k] == want


def test_bform_symmetries(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    g = gram_matrix(space)
    p = space.frame.p
    size = space.frame.r + 1
    sp_idx = list(range(p)) + list(range(size - p, size))
    o_idx = list(range(p, size - p))
    for a in sp_idx:
        for b in sp_idx:
            assert g[a][b] == -(g[b][a] * 1), (a, b)
        for b in o_idx:
            assert g[a][b].is_zero() and g[b][a].is_zero()
    for a in o_idx:
        for b in o_idx:
            assert g[a][b] == g[b][a]
    # B(u, u) = 0 on the symplectic part
    for a in sp_idx:
        assert g[a][a].is_zero()
    # bform on arbitrary vectors agrees with the Gram expansion
    u = space.basis[0] + space.basis[2].scale(2)
    v = space.basis[2]
    expect = g[0][2] * 1 + g[2][2] * 2
    assert bform(space, u, v) == expect


def test_witt_basis(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted)
    size = space.frame.r + 1
    for a in range(size):
        for b in range(size):
            if a + b != size - 1:
                assert wb.gram[a][b].is_zero()
    # product of paired constants = (-1)^<Lambda, sum alpha^vee>
    lam = space.frame.lam
    sign = (-1) ** int(sum(lam.pairings))
    for k in range(size):
        if k != size - 1 - k:
            prod = wb.constants[k] * wb.constants[size - 1 - k]
            assert prod == Cyc.of(sign)
    # reduced pattern on the paired entries
    assert wb.constants[0] == Cyc.of(-1)
    assert wb.constants[size - 1] == Cyc.of(1)


def _a5_space():
    from cybethe.cartan import CartanData, DiagramAut
    from cybethe.frame import ProblemInstance
    inst = ProblemInstance(cartan=CartanData.series("A", 5),
                           aut=DiagramAut((4, 3, 2, 1, 0)),
                           omega=Cyc.root_of_unity(2),
                           points=(), site_weights=(),
                           lambda0=Weight([F(1, 2), 0, 0, 0, F(1, 2)]))
    return kernel_basis(inst, BetheTuple.trivial(5))


def test_witt_congruence_matches_gram(a2, a2_tuple):
    # witt_basis rescales by values of the congruence V G V^T on the
    # initial Gram matrix; they must equal the Gram matrix rebuilt from
    # the vectors, whose paired constants are then the reduced pattern
    from cybethe.typea import _b_pattern
    for space, flag in (_a5_space(), kernel_basis(a2[0], a2_tuple)):
        basis = list(flag.adjusted)
        size = len(basis)
        g = fresh_gram(space, basis)
        target = _b_pattern(space.frame.p, size)
        for qe in (False, True):
            wb = witt_basis(space, adjusted=basis, quadratic_extension=qe)
            coeffs = [in_span(v, basis) for v in wb.vectors]
            congruence = [[sum((Cyc.of(1) * va * g[a][b] * vb
                                for a, va in enumerate(ci)
                                for b, vb in enumerate(cj)), Cyc.of(0))
                           for cj in coeffs] for ci in coeffs]
            assert congruence == fresh_gram(space, wb.vectors)
            assert congruence == [list(row) for row in wb.gram]
            assert [wb.constants[k] for k in range(size // 2)] == \
                [Cyc.of(target[k]) for k in range(size // 2)]


def test_witt_quadratic_extension(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    wb = witt_basis(space, space.basis, quadratic_extension=True)
    assert wb.constants[len(wb.vectors) // 2] == Cyc.of(1)


def test_witt_basis_is_its_vectors_and_gram(a2, a2_tuple):
    # the constants are the anti-diagonal of the Gram matrix, and a flow
    # image is a WittBasis with the input's Gram matrix
    import inspect
    from cybethe.typea import WittBasis
    assert WittBasis._fields == ("vectors", "gram")
    assert list(inspect.signature(isotropy_check).parameters) == ["gram"]
    space, flag = a2_space(a2, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted, quadratic_extension=True)
    size = len(wb.vectors)
    assert wb.constants == tuple(wb.gram[k][size - 1 - k]
                                 for k in range(size))
    for gen in available_generators(space):
        image, tup = apply_flow(space, wb, gen, F(1, 3))
        assert type(image) is WittBasis and image.gram is wb.gram
        assert fresh_gram(space, image.vectors) == \
            [list(row) for row in wb.gram]
        assert tup == beta(space, image.vectors)
        assert isotropy_check(image.gram)


def test_cyclotomic_sqrt_of_monomials_inverts_nothing(monkeypatch):
    def no_inverse(self):
        raise AssertionError("inverse called")
    monkeypatch.setattr(Cyc, "inverse", no_inverse)
    for order in (1, 2, 3, 4, 8):
        for k in range(order):
            for q in (F(1), F(-2), F(9, 4), F(-3, 7)):
                value = Cyc.root_of_unity(order, k) * q
                root = _cyclotomic_sqrt(value)
                assert root * root == value, (order, k, q)


def test_rational_sqrt():
    rng = random.Random(2)
    for _ in range(12):
        q = F(rng.randint(1, 50), rng.randint(1, 20))
        s = rational_sqrt(q)
        assert s * s == Cyc.of(q)
    s = rational_sqrt(F(-12))
    assert s * s == Cyc.of(-12)


def _random_flag_basis(space, wb, rng, pool):
    """A random full-flag basis: invertible small-rational mix of the Witt
    vectors (generically not isotropic)."""
    from cybethe import linalg
    size = space.frame.r + 1
    while True:
        g = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
        if linalg.rank(g) == size:
            break
    basis = []
    for i in range(size):
        acc = QPoly.zero()
        for j in range(size):
            if g[i][j]:
                acc = acc + wb.vectors[j].scale(g[i][j])
        basis.append(acc)
    return basis


def test_isotropy_iff_cyclotomic(a2, a2_tuple):
    # Theorem: a full flag is isotropic iff beta of it is cyclotomic;
    # sample >= 100 flags with both classes represented
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted)
    rng = random.Random(41)
    pool = [F(0), F(1), F(-1), F(1, 2), F(2), F(-1, 3)]
    iso_count = aniso_count = 0
    for trial in range(110):
        if trial % 2 == 0:
            basis = _random_flag_basis(space, wb, rng, pool)
        else:
            # B-preserving flow applied to the Witt flag: stays isotropic
            cur = wb
            basis = list(wb.vectors)
            for kind, k in available_generators(space):
                c = rng.choice(pool)
                if c == 0:
                    continue
                cur, _ = apply_flow(space, cur, (kind, k), c)
                basis = list(cur.vectors)
        iso = isotropy_check(fresh_gram(space, basis))
        cyc = quasi_cyclotomic(beta(space, basis))
        assert iso == cyc, (trial, iso, cyc)
        iso_count += iso
        aniso_count += not iso
    assert iso_count >= 10 and aniso_count >= 10


def test_isotropic_implies_decomposable(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted)
    # the Witt flag is isotropic, and flag_type succeeds (decomposable)
    q = flag_type(space, list(wb.vectors))
    assert q == frozenset({1, 3})  # type S for p = 1, R = 2


def test_smallcell_flag_isotropic(a2, a2_tuple):
    space, _ = a2_space(a2, a2_tuple)
    assert isotropy_check(gram_matrix(space))
    q = flag_type(space, list(space.basis))
    assert q == frozenset({1, 3})


def test_qslem_parity(a2, a2_tuple):
    # decomposable flag of type Q: class of y_k follows |S^Q cap {1..k}| mod 2
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    u = space.basis
    s_set = {1, 3}
    sp_vectors = [u[0], u[2]]
    o_vectors = [u[1]]
    for q_set in ({1, 3}, {1, 2}, {2, 3}):
        # interleave the Sp and O vectors into a flag of type Q
        sp, o = iter(sp_vectors), iter(o_vectors)
        adjusted = [next(sp) if k in q_set else next(o)
                    for k in range(1, len(u) + 1)]
        assert flag_type(space, adjusted) == frozenset(q_set)
        tup = beta(space, adjusted)
        sym_diff = (s_set - q_set) | (q_set - s_set)
        for k in range(1, space.frame.r + 1):
            parity = len(sym_diff & set(range(1, k + 1))) % 2
            classes = tup[k - 1].exponent_classes()
            assert len(classes) == 1
            res = next(iter(classes))
            assert (res == F(1, 2)) == (parity == 1)


def test_spanlem_chain(a2, a2_tuple):
    # for cyclotomic beta(F): span(u_1(-x)..u_k(-x)) =
    # span(W_(R+1), ..., W_(R+2-k))
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    u = list(flag.adjusted)
    w = dual_of(space, u)
    size = len(u)
    for k in range(1, size + 1):
        left = [v.negate_argument() for v in u[:k]]
        right = [w[j] for j in range(size - 1, size - 1 - k, -1)]
        for v in left:
            assert in_span(v, right) is not None
        for v in right:
            assert in_span(v, left) is not None


def test_witt_needs_isotropic(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    # starting the flag with the orthogonal-block vector u_2 makes
    # F_1 non-isotropic: B(u_2, u_2) != 0
    skew = [space.basis[1], space.basis[0], space.basis[2]]
    with pytest.raises(NotIsotropic):
        witt_basis(space, adjusted=skew)


def test_flow_identity_at_zero(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted)
    _, tup = apply_flow(space, wb, ("X", 1), 0)
    base = beta(space, wb.vectors)
    assert all(proportional(a, b) for a, b in zip(tup, base))


def test_flow_vs_generation(a2, a2_tuple):
    inst, fold = a2
    res = flow_vs_generation(inst, fold, a2_tuple, 1,
                             [F(1), F(2), F(1, 2), F(-1), F(3)])
    assert res["all_match"]
    assert res["rho"] == Cyc.of(F(27, 2))


def test_flow_vs_generation_a3(a3):
    # p = n = 2 on A_3: X_1 is the two-entry flow along the orbit {1, 3},
    # X_2 the one-entry flow at the fixed node
    from cybethe.genengine import cyclotomic_generate
    inst, fold = a3
    seed, _ = cyclotomic_generate(inst, fold, BetheTuple.trivial(3), 0, F(1))
    for k in (1, 2):
        res = flow_vs_generation(inst, fold, seed, k,
                                 [F(1), F(2), F(-1), F(1, 2), F(5)])
        assert res["all_match"], (k, res)


def test_beta_injective_on_sampled_flags(a2, a2_tuple):
    # distinct flags from the X_1 flow at distinct parameters give
    # pairwise distinct tuples
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted)
    tuples = []
    for c in (F(0), F(1), F(2), F(-1), F(1, 2), F(5)):
        _, tup = apply_flow(space, wb, ("X", 1), c)
        tuples.append(tuple(str(q) for q in tup))
    assert len(set(tuples)) == len(tuples)


def test_cyclotomic_population(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, flag.adjusted)
    res = cyclotomic_population(inst, space, wb, sample_count=6, rng_seed=9)
    assert res["dims"] == {"sp": 2, "o": 1}
    assert len(res["members"]) == 6
    for y in res["members"]:
        ok, _ = is_critical_exact(inst, y)
        assert ok and is_cyclotomic_tuple(inst, y)
    # the identity element reproduces the seed
    tup = BetheTuple.monic_of(beta(space, wb.vectors))
    assert tup == a2_tuple


def test_orthogonal_block_flow_on_a5():
    # p = 1 on A_5 leaves a 4-dimensional orthogonal block, so a Y
    # generator exists; its flow image must be cyclotomic and critical
    from cybethe.cartan import CartanData, DiagramAut, orbit_data
    from cybethe.frame import ProblemInstance
    cartan = CartanData.series("A", 5)
    aut = DiagramAut((4, 3, 2, 1, 0))
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(), site_weights=(),
                           lambda0=Weight([F(1, 2), 0, 0, 0, F(1, 2)]))
    space, flag = kernel_basis(inst, BetheTuple.trivial(5))
    assert space.frame.p == 1
    assert ("Y", 1) in available_generators(space)
    wb = witt_basis(space, adjusted=flag.adjusted)
    _, tup = apply_flow(space, wb, ("Y", 1), F(1, 2))
    y = BetheTuple.monic_of(tup)
    assert is_cyclotomic_tuple(inst, y)
    ok, _ = is_critical_exact(inst, y)
    assert ok


def test_z_flow_on_a4():
    # p = 1 on A_4 leaves a 3-dimensional orthogonal block (odd): Z_1
    from cybethe.cartan import CartanData, DiagramAut
    from cybethe.frame import ProblemInstance
    cartan = CartanData.series("A", 4)
    aut = DiagramAut((3, 2, 1, 0))
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(), site_weights=(),
                           lambda0=Weight([F(1, 2), 0, 0, F(1, 2)]))
    space, flag = kernel_basis(inst, BetheTuple.trivial(4))
    assert space.frame.p == 1
    gens = available_generators(space)
    assert ("Z", 1) in gens
    wb = witt_basis(space, adjusted=flag.adjusted)
    for kind, k in gens:
        _, tup = apply_flow(space, wb, (kind, k), F(1, 3))
        y = BetheTuple.monic_of(tup)
        assert is_cyclotomic_tuple(inst, y)
        ok, _ = is_critical_exact(inst, y)
        assert ok


# A_R with the flip at p = 1: sigma, lambda0, the generators and the
# refused X_0, Y on even rank, Z on odd rank and first index past each block
FLOW_SPACES = {
    "A2": ("(1 2)", ["1/2", "1/2"], [("X", 1)],
           {("X", 0), ("X", 2), ("Y", 1), ("Z", 1)}),
    "A4": ("(1 4)(2 3)", ["1/2", "0", "0", "1/2"], [("X", 1), ("Z", 1)],
           {("X", 0), ("X", 2), ("Y", 1), ("Z", 2)}),
    "A5": ("(1 5)(2 4)", ["1/2", "0", "0", "0", "1/2"], [("X", 1), ("Y", 1)],
           {("X", 0), ("X", 2), ("Y", 2), ("Z", 1)}),
}


@pytest.mark.parametrize("name", FLOW_SPACES)
def test_flow_generators_are_those_listed(tmp_path, capsys, name):
    # `flow_generator` accepts every pair that `available_generators`
    # lists, and `typea flow` refuses the others with one InputError
    from cybethe import cli
    sigma, lambda0, gens, refused = FLOW_SPACES[name]
    doc = {"cartan": {"series": "A", "rank": len(lambda0)}, "sigma": sigma,
           "M": 2, "omega": "-1", "lambda0": lambda0}
    space, flag = kernel_basis(serialize.instance_from_doc(doc),
                               BetheTuple.trivial(len(lambda0)))
    assert space.frame.p == 1 and available_generators(space) == gens
    wb = witt_basis(space, adjusted=flag.adjusted)
    for gen in gens:
        apply_flow(space, wb, gen, F(1, 2))
    instance, tuple_ = tmp_path / "instance.json", tmp_path / "tuple.json"
    instance.write_text(json.dumps(doc))
    tuple_.write_text(json.dumps(
        {"polys": [{"denom": 1, "terms": {"0": "1"}}] * len(lambda0)}))
    for kind, k in sorted(refused):
        assert cli.main(["typea", "flow", "--instance", str(instance),
                         "--tuple", str(tuple_), "--generator", kind,
                         "--k", str(k), "--c", "1"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "InputError", "message":
                         f"{kind}_{k} is not a flow generator of this space"}


def test_classical_limit_m1():
    # trivial automorphism: the engine reduces to the classical theory;
    # kernel recovery and frame conditions hold with p = 0
    from cybethe.cartan import CartanData, orbit_data
    from cybethe.frame import ProblemInstance
    cartan = CartanData.series("A", 2)
    ident = identity_aut(2)
    inst = ProblemInstance(cartan=cartan, aut=ident, omega=Cyc.of(1),
                           points=(Cyc.of(1),),
                           site_weights=(Weight([1, 1]),),
                           lambda0=Weight([0, 0]))
    fold = orbit_data(cartan, ident)
    graph = explore_population(inst, fold, BetheTuple.trivial(2), 1,
                               [F(1), F(2)])
    assert len(graph.nodes) > 2
    for node in graph.nodes:
        ok, _ = is_critical_exact(inst, node.tuple_)
        assert ok
        space, flag = kernel_basis(inst, node.tuple_)
        assert space.frame.p == 0
        assert frame_conditions_check(space)["ok"]
        tup = beta(space, flag.adjusted)
        assert all(a == b for a, b in zip(tup, node.tuple_))


def test_typea_pipeline_on_a3_population(a3):
    inst, fold = a3
    graph = explore_population(inst, fold, BetheTuple.trivial(3), 1,
                               [F(1), F(1, 2)])
    for node in graph.nodes:
        space, flag = kernel_basis(inst, node.tuple_)
        assert space.frame.p == 2
        report = frame_conditions_check(space)
        assert report["ok"], (node.tuple_, report)
        gram_matrix(space)  # NotSelfDual otherwise
        tup = beta(space, flag.adjusted)
        assert all(a == b for a, b in zip(tup, node.tuple_))


@pytest.mark.parametrize("params", [
    [F(1)], [F(1), F(-1, 2)], [F(1), F(2), F(1, 2), F(-1), F(3)]])
def test_flow_vs_generation_solves_one_family(a2, a2_tuple, params,
                                              monkeypatch):
    # the L = 2 family of the A_2 seed takes three solves (its step-3
    # c-coefficient is read off step 1), and every parameter is a member
    # of it
    from cybethe import genengine, qpoly
    calls = []
    solve = qpoly.wronskian_ode_solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(genengine, "wronskian_ode_solve", counted)
    inst, fold = a2
    res = flow_vs_generation(inst, fold, a2_tuple, 1, params)
    assert res["all_match"] and len(res["matches"]) == len(params)
    assert len(calls) == 3


def _ramified_a4(site_weight):
    """A4, sigma = (1 4)(2 3), omega = -1, lambda0 = (0, 1/2, 1/2, 0) and
    one marked point 1: T~_i is no monomial, so every Wr+ divides by a
    general divisor."""
    return serialize.instance_from_doc({
        "cartan": "A4", "sigma": "(1 4)(2 3)", "omega": "-1",
        "points": ["1"], "site_weights": [site_weight],
        "lambda0": ["0", "1/2", "1/2", "0"]})


# node count, sha256 of the beta outputs and sha256 of the flow images at
# c = 1/3 of the depth-2 population, samples {1, 2, -1/2}, recorded before
# the flows and beta shared one Wronskian table and the frame held D_k
RAMIFIED_PINS = {
    ("1", "0", "0", "1"): (
        43, "3f78e8afdf777b178dfc3a621baa7d20f7c6d89525e3c3271731d9149df494dc",
        "6e0fda801826253391cc075412bdb80cd4f0e68fbd2b210ff5368e4dad724fe1"),
    ("0", "1", "1", "0"): (
        40, "bdc85bca2e899c2937688abeb6ea93fded20d56ae0704e91d78d002e1ec49b0b",
        "e7dd87ca1e720af6d00261422ef372db3771d14a49069b7072cd82daca297220"),
}


@pytest.fixture(scope="module")
def ramified():
    """(instance, [(space, flag, Witt basis) per node]) of each pin."""
    out = {}
    for weight in RAMIFIED_PINS:
        inst = _ramified_a4(list(weight))
        graph = explore_population(
            inst, orbit_data(inst.cartan, inst.aut), BetheTuple.trivial(4),
            2, [F(1), F(2), F(-1, 2)])
        nodes = []
        for node in graph.nodes:
            space, flag = kernel_basis(inst, node.tuple_)
            nodes.append((space, flag, witt_basis(
                space, adjusted=flag.adjusted, quadratic_extension=True)))
        out[weight] = inst, nodes
    return out


def _sha256(doc):
    return hashlib.sha256(serialize.dumps(doc).encode()).hexdigest()


def test_ramified_a4_beta_and_flow_image_pins(ramified, monkeypatch):
    from cybethe import typea
    general = []
    divide = typea.divide_exact

    def counted(f, g):
        general.append(not g.is_monomial())
        return divide(f, g)

    monkeypatch.setattr(typea, "divide_exact", counted)
    c = Cyc.of(F(1, 3))
    for weight, (count, beta_pin, image_pin) in RAMIFIED_PINS.items():
        inst, nodes = ramified[weight]
        betas, images = [], []
        for space, flag, _ in nodes:
            # a fresh kernel space and Witt basis: the flows divide entries
            # of the flag basis's table lazily, so the fixture's, shared by
            # other tests, would make the count depend on their order
            tup = beta(space, flag.adjusted)
            space, flag = kernel_basis(inst, BetheTuple.monic_of(tup))
            witt = witt_basis(space, adjusted=flag.adjusted,
                              quadratic_extension=True)
            betas.append(serialize.tuple_doc(tup))
            images.append([serialize.tuple_doc(
                apply_flow(space, witt, gen, c)[1])
                for gen in available_generators(space)])
        assert len(nodes) == count, weight
        assert _sha256(betas) == beta_pin, weight
        assert _sha256(images) == image_pin, weight
    # the pins read Wr+ through general divisions, not only monomial ones
    assert general.count(True) > 1000 and general.count(False) > 100


def test_divisors_match_the_product_rule():
    from cybethe.typea import _divisors, build_frame
    ttilde = (poly(1, 1), QPoly({F(1, 2): 2, F(0): -1}), poly(-3, 0, 1),
              QPoly({F(-1, 2): Cyc.root_of_unity(4), F(1): 1}))
    assert len(_divisors(ttilde)) == 6
    # and the chain a frame with a marked point holds
    frame = build_frame(_ramified_a4(["1", "0", "0", "1"]),
                        BetheTuple.trivial(4))
    assert not all(t.is_monomial() for t in frame.ttilde)
    for tt, divisors in ((ttilde, _divisors(ttilde)),
                         (frame.ttilde, frame.divisors)):
        assert len(divisors) == len(tt) + 2
        for k, got in enumerate(divisors):
            want = QPoly.one()
            for j in range(k - 1):
                want = want * tt[j] ** (k - 1 - j)
            assert got == want, k


def test_divisors_are_built_once_per_frame_and_never_by_a_reader(
        a2, a2_tuple, monkeypatch):
    from cybethe import typea
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    calls, frames = [], []
    build, build_frame = typea._divisors, typea.build_frame

    def counted(ttilde):
        calls.append(len(ttilde))
        return build(ttilde)

    def counted_frame(*args):
        frames.append(1)
        return build_frame(*args)

    monkeypatch.setattr(typea, "_divisors", counted)
    monkeypatch.setattr(typea, "build_frame", counted_frame)
    basis = list(space.basis)
    readers = {"frame_conditions_check": lambda: frame_conditions_check(space),
               "dual_of": lambda: dual_of(space, basis),
               "gram_matrix": lambda: gram_matrix(space),
               "beta": lambda: beta(space, flag.adjusted),
               "kernel_basis": lambda: kernel_basis(inst, a2_tuple)}
    for name, read in readers.items():
        calls.clear()
        frames.clear()
        read()
        # kernel_basis builds one frame, and the frame its divisor chain
        assert calls == [2] * len(frames), name
        assert len(frames) == (name == "kernel_basis"), name
    # the chain is derived data: equality, hash and repr ignore it
    frame = space.frame
    twin = typea.TypeAFrame(*(getattr(frame, f) for f in frame._fields))
    assert twin == frame and hash(twin) == hash(frame)
    assert repr(twin) == repr(frame) and "divisors" not in repr(frame)
    assert twin.divisors == frame.divisors


def _flow_chains(space):
    """Each generator alone at c = 1/3, and one chain of 3 flows through
    the generators in turn."""
    gens = available_generators(space)
    chains = [[(gen, Cyc.of(F(1, 3)))] for gen in gens]
    chains.append([(gens[i % len(gens)], Cyc.of(c))
                   for i, c in enumerate((F(2), F(-1, 2), F(3)))])
    return chains


def _chain_images(space, witt, chain):
    """(image, tuple) after each flow of the chain, from `witt` on."""
    cur = witt
    for gen, c in chain:
        cur, tup = apply_flow(space, cur, gen, c)
        yield cur, tup


def _a4_catalog_spaces():
    """(space, flag) of each node of the A4 catalog."""
    inst = serialize.instance_from_doc(A4_DOC)
    return [kernel_basis(inst, serialize.tuple_from_doc(node["tuple"], inst.M))
            for node in json.loads(A4_CATALOG.read_text())["nodes"]]


def _a4_catalog_nodes(quadratic_extension=True):
    """(space, flag, Witt basis) of each node of the A4 catalog."""
    return [(space, flag, witt_basis(space, adjusted=flag.adjusted,
                                     quadratic_extension=quadratic_extension))
            for space, flag in _a4_catalog_spaces()]


@pytest.fixture(scope="module")
def witt_cases(ramified):
    """(space, flag, Witt basis) of each A4 catalog node and ramified pin
    node, with and without quadratic extension."""
    cases = _a4_catalog_nodes(False) + _a4_catalog_nodes(True)
    for _, nodes in ramified.values():
        cases += nodes + [(space, flag, witt_basis(space,
                                                   adjusted=flag.adjusted))
                          for space, flag, _ in nodes]
    return cases


@pytest.fixture(scope="module")
def flag_nodes(ramified):
    """(space, flag) of each A4 catalog node and ramified pin node."""
    nodes = _a4_catalog_spaces()
    for _, ramified_nodes in ramified.values():
        nodes += [(space, flag) for space, flag, _ in ramified_nodes]
    return nodes


def test_apply_flow_builds_no_table_and_its_prefixes_are_beta(ramified,
                                                             monkeypatch):
    # an image's Wr+ are transported from the input's table, so neither a
    # flow nor a chain of flows builds a Wronskian table, and the tuple is
    # beta of the image in value, field order and text
    from cybethe import typea
    nodes = _a4_catalog_nodes()
    for _, ramified_nodes in ramified.values():
        nodes += ramified_nodes
    tables, table = [], typea.wronskian_table
    flows = 0
    for space, _, witt in nodes:
        for chain in _flow_chains(space):
            with monkeypatch.context() as patch:
                patch.setattr(typea, "wronskian_table",
                              lambda fs: tables.append(1) or table(fs))
                images = list(_chain_images(space, witt, chain))
            assert tables == []
            for image, tup in images:
                want = beta(space, image.vectors)
                assert tup == want
                assert [(p.field_order(), str(p)) for p in tup] == \
                    [(p.field_order(), str(p)) for p in want]
                flows += 1
    assert flows == 5 * len(nodes) > 500


def test_apply_flow_divides_each_mask_once(a2, a2_tuple, monkeypatch):
    # neither the Witt basis nor a flow divides an entry of its own: the
    # masks they read are entries of the lazily divided table of the
    # space's special basis, the one table built, so across the check of
    # kernel_basis, the space's one Gram matrix, the Witt basis and every
    # flow and chain from it each mask is divided at most once, and once
    # all are divided a flow divides nothing.  Once the space and its
    # Gram matrix exist, a Witt basis builds no table and no Gram matrix
    # from polynomials, and a flow neither
    from cybethe import typea
    inst = serialize.instance_from_doc(A4_DOC)
    node = json.loads(A4_CATALOG.read_text())["nodes"][-1]
    cases = [(a2[0], a2_tuple),
             (inst, serialize.tuple_from_doc(node["tuple"], inst.M))]
    table, divide = typea.wronskian_table, typea.divide_exact
    gram = typea._gram
    flows = 0
    for inst, y in cases:
        reads, divided, tables, grams = [], [], [], []

        class Read(list):
            # `_wr_plus` reads table[mask] once per division of the mask
            def __getitem__(self, mask):
                reads.append((id(self), mask))
                return list.__getitem__(self, mask)

        with monkeypatch.context() as patch:
            patch.setattr(typea, "wronskian_table", lambda fs: tables.append(
                Read(table(fs))) or tables[-1])
            patch.setattr(typea, "divide_exact",
                          lambda f, g: divided.append(1) or divide(f, g))
            patch.setattr(typea, "_gram",
                          lambda *a: grams.append(1) or gram(*a))
            # the table of the special basis, read by the check of
            # kernel_basis and by the space's Gram matrix, which the first
            # Witt basis builds, and transported to the Witt vectors
            space, flag = kernel_basis(inst, y)
            assert len(tables) == 1 and grams == []
            witt_basis(space, adjusted=flag.adjusted)
            assert len(tables) == 1 and len(grams) == 1
            witt = witt_basis(space, adjusted=flag.adjusted)
            assert len(tables) == 1 and len(grams) == 1
            for chain in _flow_chains(space):
                for _ in _chain_images(space, witt, chain):
                    flows += 1
            assert len(grams) == 1
            assert len(tables) == 1 and len(divided) == len(reads)
            assert {t for t, _ in reads} == {id(tables[0])}
            masks = [m for _, m in reads]
            assert len(masks) == len(set(masks))
            size = space.frame.r + 1
            for mask in range(1 << size):
                witt.wr_plus(mask)
            del divided[:]
            for chain in _flow_chains(space):
                list(_chain_images(space, witt, chain))
            assert divided == [] and len(tables) == 1
    assert flows > 5


def _assert_fresh_table(space, witt):
    """Every entry of the table `witt` keeps equals the entry of a fresh
    table of its vectors divided by D_k, in value and in text as a section
    of a document."""
    divisors = space.frame.divisors
    direct = qpoly.wronskian_table(witt.vectors)
    want = [qpoly.divide_exact(direct[mask], divisors[mask.bit_count()])
            for mask in range(1, len(direct))]
    got = [witt.wr_plus(mask) for mask in range(1, len(direct))]
    assert got == want and written(got) == written(want)


def _text_of(polys):
    polys = list(polys)
    return polys, written(polys)


def _assert_fresh_prefixes(inst, y, monkeypatch):
    """The Wr+(u_1..u_k) that kernel_basis compares with y_k, and beta,
    monic, equal the entries of a fresh table of the flag basis divided by
    D_k, and the constant Wr+ of the space's table that of a fresh table
    of the special basis, in value and in text as a section."""
    from cybethe import typea
    compared = []
    with monkeypatch.context() as patch:
        patch.setattr(typea, "proportional",
                      lambda f, g: compared.append(f) or proportional(f, g))
        space, flag = kernel_basis(inst, y)
    divisors, size = space.frame.divisors, space.frame.r + 1
    direct = qpoly.wronskian_table(flag.adjusted)
    want = [qpoly.divide_exact(direct[(1 << k) - 1], divisors[k])
            for k in range(1, size)]
    assert _text_of(compared) == _text_of(want)
    assert _text_of(beta(space, flag.adjusted)) == \
        _text_of([p.monic() for p in want])
    top = qpoly.divide_exact(qpoly.wronskian_table(space.basis)[-1],
                             divisors[size])
    got = space.wr_plus((1 << size) - 1)
    assert top.degree == 0 and _text_of([got]) == _text_of([top])
    got, top = got.coeff(0), top.coeff(0)
    assert (got, written(got)) == (top, written(top))


def test_transported_tables_equal_direct_ones(a2, a2_tuple, a3, ramified,
                                              witt_cases, monkeypatch):
    # Cauchy-Binet: every entry of a Witt basis's table, and of an image's,
    # equals the entry of a fresh table of its vectors divided by D_k, in
    # value and in text as a section, along chains of 0 to 3 flows, with and
    # without quadratic extension; so do the prefix entries that beta and
    # kernel_basis read, and the constant Wr+ of the special basis
    from cybethe import typea
    from cybethe.typea import WittBasis
    seeds = [(a2[0], a2_tuple), (a3[0], BetheTuple.trivial(3)),
             (serialize.instance_from_doc({
                 "cartan": "A4", "sigma": "(1 4)(2 3)", "omega": "-1",
                 "lambda0": ["1/2", "0", "0", "1/2"]}), BetheTuple.trivial(4))]
    spaces = [kernel_basis(inst, y) for inst, y in seeds] + [_a5_space()]
    inst = serialize.instance_from_doc(A4_DOC)
    seeds += [(inst, serialize.tuple_from_doc(node["tuple"], inst.M))
              for node in json.loads(A4_CATALOG.read_text())["nodes"]]
    for inst, nodes in ramified.values():
        seeds += [(inst, BetheTuple.monic_of(beta(space, flag.adjusted)))
                  for space, flag, _ in nodes]
    for inst, y in seeds:
        _assert_fresh_prefixes(inst, y, monkeypatch)
    assert len(seeds) > 120
    cases = [(space, flag, witt_basis(space, adjusted=flag.adjusted,
                                      quadratic_extension=qe))
             for space, flag in spaces for qe in (False, True)]
    cases += witt_cases
    kinds = set()
    for space, _, witt in cases:
        _assert_fresh_table(space, witt)
        for chain in _flow_chains(space):
            kinds.update(kind for (kind, _), _ in chain)
            for image, _ in _chain_images(space, witt, chain):
                _assert_fresh_table(space, image)
    assert kinds == {"X", "Y", "Z"} and len(cases) > 250
    # the table is derived: equality, hash and repr ignore it
    space, _, witt = cases[-1]
    bare = WittBasis(vectors=witt.vectors, gram=witt.gram,
                     wr_plus=typea._wr_plus(space.frame, witt.vectors))
    assert bare.wr_plus is not witt.wr_plus
    assert bare == witt and hash(bare) == hash(witt)
    assert repr(bare) == repr(witt) and "wr_plus" not in repr(witt)


def _fresh_transport(space, basis):
    """`typea._transport` from the table of `basis`, a basis of the space,
    replaced by a fresh table of the vectors mat basis."""
    from cybethe import typea

    def transport(mat, wr_plus):
        vectors = [typea._combine(row, basis) for row in mat]
        table = qpoly.wronskian_table(vectors)
        return lambda mask: qpoly.divide_exact(
            table[mask], space.frame.divisors[mask.bit_count()])
    return transport


def test_gram_check_still_decides(monkeypatch):
    # with the compensating entry of a coupling dropped, exp(cN) leaves
    # the group that preserves B: the Gram check, the congruence exp(cN) G
    # exp(cN)^T, refuses half the flows.  It reads no table, so its
    # verdicts are the same with the image's table transported or fresh
    from cybethe import typea
    from cybethe.errors import InternalInvariantError
    generator = typea.flow_generator

    def uncompensated(*args):
        n_mat = generator(*args)
        entries = [(i, j) for i, row in enumerate(n_mat)
                   for j, x in enumerate(row) if x]
        if len(entries) == 2:  # a coupling: keep r_a += c r_(a+1) only
            i, j = entries[-1]
            n_mat[i][j] = Cyc.of(0)
        return n_mat

    monkeypatch.setattr(typea, "flow_generator", uncompensated)
    verdicts = {}
    for space, _, witt in _a4_catalog_nodes(False)[:10]:
        for gen in available_generators(space):
            for path in ("transported", "fresh"):
                with monkeypatch.context() as patch:
                    if path == "fresh":
                        patch.setattr(typea, "_transport", _fresh_transport(
                            space, witt.vectors))
                    try:
                        apply_flow(space, witt, gen, Cyc.of(F(1, 3)))
                        refused = False
                    except InternalInvariantError:
                        refused = True
                verdicts.setdefault(path, []).append(refused)
    assert verdicts["transported"] == verdicts["fresh"]
    assert len(verdicts["fresh"]) == 20 and sum(verdicts["fresh"]) == 10


def test_witt_gram_check_still_decides(monkeypatch):
    # the flag basis sheared to u_k + u_(k-1), within one exponent class
    # only or at every k, spans the same flag but needs elimination steps:
    # adapting the fully sheared basis to the exponent classes strips the
    # parts that cross blocks of B and leaves the one sheared within them.
    # The final Gram check of `witt_basis`, the congruence V G V^T on the
    # adapted basis's Gram matrix, accepts both, and refuses both on every
    # node once the elimination reads each entry off the anti-diagonal as
    # 0 and so takes no step.  It reads no table, so a fresh table of the
    # Witt vectors in place of the transported one changes no verdict.
    # Skipping one step is not enough: B is symmetric or antisymmetric on
    # each block, so the step at the transposed entry repairs it
    from cybethe import typea
    from cybethe.errors import InternalInvariantError
    form = typea._form

    verdicts = {}
    for space, flag, _ in _a4_catalog_nodes(False)[:10]:
        u = flag.adjusted
        within = [u[0]] + [
            u[k] + u[k - 1] if u[k].exponent_classes().keys() ==
            u[k - 1].exponent_classes().keys() else u[k]
            for k in range(1, len(u))]
        across = _sheared(u)
        assert across != within
        for path, sheared in itertools.product(("transported", "fresh"),
                                               (within, across)):
            dropped = []

            def blind(a, g, b):
                # an elimination row is lower triangular: its last nonzero
                # coordinate is its index
                i, j = (max(k for k, x in enumerate(w) if x) for w in (a, b))
                val = form(a, g, b)
                if i + j == len(g) - 1 or val.is_zero():
                    return val
                dropped.append(val)
                return Cyc.of(0)

            with monkeypatch.context() as patch:
                if path == "fresh":
                    patch.setattr(typea, "_transport", _fresh_transport(
                        space, space.basis))
                witt_basis(space, sheared)
                patch.setattr(typea, "_form", blind)
                with pytest.raises(InternalInvariantError) as err:
                    witt_basis(space, sheared)
            assert dropped
            verdicts.setdefault(path, []).append(str(err.value))
    assert verdicts["transported"] == verdicts["fresh"]
    assert len(verdicts["fresh"]) == 20
    assert all(v.startswith("Witt Gram not anti-diagonal")
               for v in verdicts["fresh"])


def _gram_text(g):
    return [list(row) for row in g], written(g)


def test_witt_grams_equal_fresh_ones(witt_cases):
    # a Witt basis's Gram matrix is a congruence of its adapted basis's,
    # and an image keeps its input's: each equals a fresh `gram_matrix` of
    # its vectors in value and in text as a section, with and without
    # quadratic extension, along single flows and chains of 3
    grams = 0
    for space, _, witt in witt_cases:
        for image in [witt] + [image for chain in _flow_chains(space)
                               for image, _ in _chain_images(space, witt,
                                                             chain)]:
            assert _gram_text(image.gram) == \
                _gram_text(fresh_gram(space, image.vectors))
            grams += 1
    assert grams == 6 * len(witt_cases)


def _sheared(u):
    """u_1, then u_k + u_(k-1) for k > 1: a basis of the same flag."""
    return [u[0]] + [u[k] + u[k - 1] for k in range(1, len(u))]


def test_witt_basis_of_a_sheared_flag_basis(flag_nodes):
    # the shear crosses exponent classes, so blocks of B, on every node;
    # the Witt basis of the sheared basis spans the flag of the same beta
    for space, flag in flag_nodes:
        u = flag.adjusted
        assert any(u[k].exponent_classes().keys() !=
                   u[k - 1].exponent_classes().keys()
                   for k in range(1, len(u)))
        witt = witt_basis(space, _sheared(u))
        assert isotropy_check(witt.gram)
        assert beta(space, witt.vectors) == beta(space, u)


RATIONAL_ENTRIES = [F(0), F(1), F(-1), F(1, 2), F(-2), F(3)]
GAUSSIAN_ENTRIES = RATIONAL_ENTRIES + [
    Cyc.root_of_unity(4), Cyc.root_of_unity(4) * F(-1, 2),
    Cyc.root_of_unity(4) + 1]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_witt_basis_depends_only_on_the_flag(flag_nodes, data):
    # a random lower-unitriangular change of the flag basis, over Q or
    # Q(zeta_4), keeps the flag: its Witt basis has the reduced pattern
    # on the anti-diagonal and zeros elsewhere, and beta is unchanged
    from cybethe.typea import _b_pattern
    space, flag = data.draw(st.sampled_from(flag_nodes))
    pool = data.draw(st.sampled_from([RATIONAL_ENTRIES, GAUSSIAN_ENTRIES]))
    u, size = flag.adjusted, len(flag.adjusted)
    basis = [u[i] + sum((u[j].scale(c) for j, c in enumerate(data.draw(
        st.lists(st.sampled_from(pool), min_size=i, max_size=i))) if c),
        QPoly.zero()) for i in range(size)]
    witt = witt_basis(space, basis, quadratic_extension=True)
    pattern = _b_pattern(space.frame.p, size)
    assert witt.gram == tuple(
        tuple(Cyc.of(pattern[a]) if a + b == size - 1 else Cyc.of(0)
              for b in range(size)) for a in range(size))
    assert beta(space, witt.vectors) == beta(space, u)


def test_vectors_outside_the_space_are_refused():
    # u_1 + x^7 does not lie in the space of A4 catalog node 7: beta and
    # witt_basis refuse it as an input error (exit code 2), as bform does,
    # rather than read Wronskians of it or call the space not self-dual
    from cybethe.errors import InputError
    inst = serialize.instance_from_doc(A4_DOC)
    node = json.loads(A4_CATALOG.read_text())["nodes"][7]
    space, flag = kernel_basis(
        inst, serialize.tuple_from_doc(node["tuple"], inst.M))
    u = list(flag.adjusted)
    outside = u[0] + QPoly.x_power(7)
    for read in (beta, witt_basis):
        with pytest.raises(InputError, match="does not lie in the space"):
            read(space, [outside] + u[1:])
    with pytest.raises(InputError, match="does not lie in the space"):
        bform(space, u[1], outside)
    # inside it, B of two flag vectors is their entry of a fresh Gram matrix
    assert bform(space, u[0], u[-1]) == fresh_gram(space, u)[0][-1]


def test_witt_basis_refuses_a_flag_that_is_not_decomposable(flag_nodes):
    # u_1 + u_3 (1-based) has parts in two exponent classes, and F_1 is
    # its span: an input error (exit code 2), not a broken invariant
    from cybethe.errors import InternalInvariantError, NotDecomposable
    assert not issubclass(NotDecomposable, InternalInvariantError)
    for space, flag in flag_nodes:
        u = list(flag.adjusted)
        assert len((u[0] + u[2]).exponent_classes()) == 2
        mixed = [u[0] + u[2]] + u[1:]
        for read in (witt_basis, flag_type):
            with pytest.raises(NotDecomposable, match="F_1 is not"):
                read(space, mixed)


def test_cyclotomic_population_keeps_each_flow_tuple(a2, a2_tuple,
                                                     monkeypatch):
    # one generator, X_1: each sample applies one flow, or none when it
    # draws c = 0 (the third here), and then reads the Witt basis's table;
    # the sampler builds no table
    from cybethe import typea
    calls = []
    for name in ("beta", "apply_flow", "wronskian_table"):
        monkeypatch.setattr(typea, name, lambda *a, f=getattr(typea, name),
                            n=name: calls.append(n) or f(*a))
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    witt = witt_basis(space, flag.adjusted)
    del calls[:]
    res = cyclotomic_population(inst, space, witt, sample_count=5)
    assert len(res["members"]) == 5
    assert calls == ["apply_flow"] * 4


def _in_span_alone(target, polys):
    """Reference: `in_span` as written before `_span_coefficients`, one
    reduction over the support of polys and target together."""
    from cybethe import linalg
    exps = sorted({e for p in list(polys) + [target] for e in p.terms})
    matrix = [[p.coeff(e) for p in polys] for e in exps]
    return linalg.solve(matrix, [target.coeff(e) for e in exps])


def _coefficients(x):
    return x if x is None else [
        (c.order, c.vec) if isinstance(c, Cyc) else c for c in x]


def test_span_coefficients_match_one_reduction_per_target(a2, a2_tuple):
    """Same coefficients and Cyc orders as one `in_span` reduction per
    target, for images under x -> -x, combinations over Q(zeta_4) and
    Q(zeta_3), and targets outside the span on and off its support."""
    from cybethe.typea import _span_coefficients
    rng = random.Random(9)
    units = [Cyc.of(1), Cyc.root_of_unity(4), Cyc.root_of_unity(3, 2)]
    mixed = [poly(0, 1, 1), poly(0, 0, 1, 1).scale(units[1]),
             QPoly({F(1, 2): units[2], F(3): 1})]
    cases = [(dual_of(space, space.basis),
              [u.negate_argument() for u in space.basis])
             for space, _ in (_a5_space(), kernel_basis(a2[0], a2_tuple))]
    cases.append((mixed, [poly(0, 1), poly(0, 1, 0, -1)]))
    outside = 0
    for polys, targets in cases:
        for _ in range(4):
            acc = QPoly.zero()
            for v in polys:
                acc = acc + v.scale(rng.choice(units) * rng.randint(-2, 2))
            targets.append(acc)
        top = max(q.degree for q in polys)
        targets += [targets[0] + QPoly.x_power(top + 1),
                    targets[1] + QPoly.x_power(F(1, 3))]
        got = _span_coefficients(targets, polys)
        want = [_in_span_alone(t, polys) for t in targets]
        assert [_coefficients(x) for x in got] == \
            [_coefficients(x) for x in want]
        assert [_coefficients(in_span(t, polys)) for t in targets] == \
            [_coefficients(x) for x in want]
        outside += sum(x is None for x in got)
    # two off the support per case, and x on the support of `mixed`
    # (x - x^3 lies in its span)
    assert outside == 2 * len(cases) + 1


def test_dual_basis_matrix_is_reduced_once(a2, a2_tuple, monkeypatch):
    from cybethe import linalg
    space, _ = a2_space(a2, a2_tuple)
    calls = []
    reduce_ = linalg._rref

    def counted(rows, cols):
        calls.append(cols)
        return reduce_(rows, cols)

    monkeypatch.setattr(linalg, "_rref", counted)
    # a refused space, as the perturbed one of `test_self_duality`
    bad = QPSpace(frame=space.frame,
                  basis=(space.basis[0], space.basis[1],
                         space.basis[2] + QPoly.x_power(1)))
    with pytest.raises(NotSelfDual):
        gram_matrix(bad)
    gram_matrix(space)
    bform(space, space.basis[0], space.basis[1])
    # one reduction per Gram matrix: bform reads the space's coordinates
    # and its kept Gram matrix
    assert calls == [3, 3]


def _prime_sqrt_reference(p):
    """sqrt(p) as one Gauss sum per prime, the construction `rational_sqrt`
    replaced: zeta_8 + zeta_8^7 for p = 2, else sum_k (k|p) zeta_p^k, which
    is i sqrt(p) for p = 3 mod 4."""
    if p == 2:
        z8 = Cyc.root_of_unity(8, 1)
        return z8 + z8 ** 7
    gauss = Cyc.of(0)
    for k in range(1, p):
        sign = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
        gauss = gauss + Cyc.root_of_unity(p, k) * sign
    return gauss if p % 4 == 1 else gauss * Cyc.root_of_unity(4, -1)


def _rational_sqrt_reference(q):
    """The per-prime product: zeta_4 for q < 0, 1/den, then p^(e//2) and
    one Gauss sum per prime p^e of num * den with e odd."""
    from cybethe.typea import _factor
    q = F(q)
    if q == 0:
        return Cyc.of(0)
    out = Cyc.of(1)
    if q < 0:
        out, q = Cyc.root_of_unity(4, 1), -q
    out = out / q.denominator
    for p, e in _factor(q.numerator * q.denominator):
        out = out * Cyc.of(p ** (e // 2))
        if e % 2:
            out = out * _prime_sqrt_reference(p)
    return out


def _squarefree(m):
    return all(m % (p * p) for p in range(2, int(m ** 0.5) + 1))


def test_rational_sqrt_matches_the_per_prime_product():
    qs = [F(m) for m in range(1, 201) if _squarefree(m)]
    qs += [F(m * s * s, den) for m, s, den in (
        (1, 3, 1), (2, 2, 1), (3, 5, 2), (5, 1, 9), (6, 2, 7), (7, 3, 4),
        (10, 1, 3), (13, 2, 5), (15, 7, 12), (21, 1, 8), (30, 4, 25))]
    qs += [-q for q in qs[::7]] + [F(-1), F(-4, 9), F(-2, 3), F(799)]
    for q in qs:
        got, want = rational_sqrt(q), _rational_sqrt_reference(q)
        assert (got, written(got)) == (want, written(want)), q
        assert got * got == q


def _special_basis_reference(vectors):
    """The leading-term elimination `special_basis_from` replaced: pieces
    in ascending degree, each reduced at its leading exponent against the
    pivots so far, then back-substitution at every lower pivot exponent.
    Returns the basis, in ascending degree, without the degree check."""
    pieces = sorted((part for v in vectors
                     for part in v.exponent_classes().values()),
                    key=lambda q: q.degree)
    by_degree = {}
    for cur in pieces:
        while not cur.is_zero():
            e = cur.degree
            if e not in by_degree:
                by_degree[e] = cur.monic()
                break
            cur = cur - by_degree[e].scale(cur.leading_coeff())
    degrees = sorted(by_degree)
    for e in degrees:
        for lower in degrees:
            if lower >= e:
                break
            c = by_degree[e].coeff(lower)
            if not c.is_zero():
                by_degree[e] = by_degree[e] - by_degree[lower].scale(c)
    return tuple(by_degree[e] for e in degrees)


def _random_cyc(rng, order):
    from cybethe.scalars import _phi_deg
    if rng.random() < 0.3:
        return Cyc.of(F(rng.randint(-4, 4), rng.randint(1, 3)), order)
    return Cyc(order, [F(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(_phi_deg(order))])


def _random_mixed_basis(rng, orders):
    """Vectors over Q(zeta_L), one L per vector, each with terms in both
    exponent classes Z and 1/2 + Z."""
    return [QPoly({e: _random_cyc(rng, order) for e in rng.sample(
        [F(k, 2) for k in range(10)], rng.randint(1, 4))}) for order in orders]


def test_special_basis_matches_the_leading_term_elimination():
    from types import SimpleNamespace
    rng = random.Random(16)
    for trial in range(160):
        order = (1, 3, 4, 8)[trial % 4]
        vectors = _random_mixed_basis(rng, [order] * rng.randint(1, 4))
        want = _special_basis_reference(vectors)
        frame = SimpleNamespace(d=tuple(u.degree for u in want))
        got = special_basis_from(frame, vectors)
        assert [(u, u.field_order(), str(u)) for u in got] == \
            [(u, u.field_order(), str(u)) for u in want], (trial, vectors)
    # across vectors of different orders the values agree as well; the
    # order each vector records follows its own computation (the module
    # docstring of qpoly), which a reduction and an elimination walk
    # differently
    for trial in range(80):
        vectors = _random_mixed_basis(
            rng, [rng.choice((1, 3, 4, 8)) for _ in range(rng.randint(2, 4))])
        want = _special_basis_reference(vectors)
        frame = SimpleNamespace(d=tuple(u.degree for u in want))
        assert special_basis_from(frame, vectors) == want, (trial, vectors)


def test_no_special_basis(a2, a2_tuple):
    from cybethe.errors import NoSpecialBasis
    space, _ = a2_space(a2, a2_tuple)
    u = space.basis
    with pytest.raises(NoSpecialBasis, match="realized degrees"):
        special_basis_from(space.frame, u[:2])
    with pytest.raises(NoSpecialBasis):
        special_basis_from(space.frame, (u[0], u[1], u[2] * QPoly.x_power(1)))
    report = frame_conditions_check(QPSpace(frame=space.frame, basis=u[:2]))
    assert report["clause_i"]["ok"] is False
    assert "do not match exponents" in report["clause_i"]["reason"]
    assert report["ok"] is False


def _sum_of_scales(coeffs, polys):
    """Reference for `typea._combine`: one `scale` per nonzero c_j, the
    scaled terms summed one by one from zero."""
    return sum((p.scale(c) for c, p in zip(coeffs, polys) if c),
               QPoly.zero())


def test_combine_is_the_sum_of_scales():
    # one kernel call gives the value, field order and text of the scales
    # summed one by one, over orders {1, 2, 4, 8}, with zero coefficients,
    # zero polys and terms that cancel to zero of order 1
    from cybethe import typea
    rng, seen = random.Random(38), Counter()

    def draw_cyc(M):
        if rng.random() < 0.15:
            return Cyc.of(0, M)
        return Cyc.of(F(rng.randint(-4, 4), rng.choice((1, 2, 3))), M) + \
            Cyc.root_of_unity(M) * F(rng.randint(-3, 3), rng.choice((1, 5)))

    def draw_poly(M):
        if rng.random() < 0.15:
            return QPoly.zero()
        return QPoly({F(rng.randint(0, 6), rng.choice((1, 2))): draw_cyc(M)
                      for _ in range(rng.randint(1, 4))})

    def outcome(p):
        return p, p.field_order(), str(p), [
            (e, c.order, c.vec) for e, c in p.terms.items()]

    for case in range(300):
        n = rng.randint(0, 5)
        coeffs = [draw_cyc(rng.choice((1, 2, 4, 8))) for _ in range(n)]
        polys = [draw_poly(rng.choice((1, 2, 4, 8))) for _ in range(n)]
        if case % 5 == 4:  # the last term cancels the others
            total = _sum_of_scales(coeffs, polys)
            coeffs.append(Cyc.of(-1, rng.choice((1, 2, 4, 8))))
            polys.append(total)
        want = _sum_of_scales(coeffs, polys)
        assert outcome(typea._combine(coeffs, polys)) == outcome(want), \
            (coeffs, polys)
        seen["zero coefficient"] += any(not c for c in coeffs)
        seen["zero poly"] += any(not p for p in polys)
        seen["cancelled"] += not want and any(c and p for c, p in zip(
            coeffs, polys))
        seen["mixed orders"] += len({p.field_order() for p in polys if p}
                                    | {c.order for c in coeffs if c}) > 1
        seen["order 8"] += want.field_order() == 8
    assert not typea._combine([], []) and \
        typea._combine([], []).field_order() == 1
    assert min(seen.values()) >= 30 and len(seen) == 5, seen
