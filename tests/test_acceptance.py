"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Everything except the numeric cross-check (criterion 9, with
its stated floating-point tolerances) is exact, zero-tolerance.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import affine_a, fresh_gram, mirrored, poly, shifted_critical
from cybethe.cartan import (CartanData, DiagramAut, Weight, folded_reflect,
                            orbit_data, shifted_reflect)
from cybethe.errors import LinkingViolation
from cybethe.frame import (BetheTuple, ProblemInstance, eigenvalues,
                           is_critical_exact, is_cyclotomic_tuple,
                           weight_at_infinity)
from cybethe.genengine import cyclotomic_generate, explore_population
from cybethe.numerics import embed, grad_check, residual_norm
from cybethe.qpoly import QPoly, proportional, wronskian
from cybethe.scalars import Cyc
from cybethe.typea import (apply_flow, available_generators, beta,
                           flow_vs_generation, frame_conditions_check,
                           gram_matrix, isotropy_check, kernel_basis,
                           witt_basis)
from oracles import hl_identity_check


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def a2_population(a2):
    inst, fold = a2
    graph = explore_population(inst, fold, BetheTuple.trivial(2), 1,
                               [F(1, 3), F(1), F(-1, 2)])
    return graph


@pytest.fixture(scope="module")
def a3_population(a3):
    inst, fold = a3
    graph = explore_population(inst, fold, BetheTuple.trivial(3), 2,
                               [F(1), F(2)])
    return graph


def test_criterion_01_folding_table():
    fold4 = orbit_data(CartanData.series("A", 4), DiagramAut((3, 2, 1, 0)))
    assert fold4.linking == (1, 2, 2, 1)
    fold3 = orbit_data(CartanData.series("A", 3), DiagramAut((2, 1, 0)))
    assert fold3.a_fold.a == ((2, -2), (-1, 2))
    n = 2
    with pytest.raises(LinkingViolation) as err:
        orbit_data(affine_a(n),
                   DiagramAut(tuple((i + 1) % (n + 1) for i in range(n + 1))))
    assert err.value.linking == 1 + n
    for n in (3, 4):
        with pytest.raises(LinkingViolation):
            orbit_data(affine_a(n),
                       DiagramAut(tuple((i + 1) % (n + 1)
                                        for i in range(n + 1))))
    report(1, "A_4 linking (1,2,2,1); A_3 fold [[2,-2],[-1,2]]; "
              "affine rotation rejected with L = 1 + n")


def test_criterion_02_a2_generation(a2):
    inst, fold = a2
    seed = BetheTuple.trivial(2)
    reflected = folded_reflect(inst.cartan, inst.aut, fold, 0, inst.lambda0)
    assert reflected == Weight([F(-5, 2), F(-5, 2)])
    for c in (F(1, 3), F(1), F(-1, 2)):
        out, _ = cyclotomic_generate(inst, fold, seed, 0, c)
        assert out[0] == poly(-3 * c, 0, 0, 1)
        assert out[1] == poly(3 * c, 0, 0, 1)
        ok, _ = is_critical_exact(inst, out)
        assert ok
        assert is_cyclotomic_tuple(inst, out)
        assert weight_at_infinity(inst, out) == reflected
    report(2, "cyclotomic generation from (1,1) gives (x^3-3c, x^3+3c); "
              "critical, cyclotomic, Lambda_inf = (-5/2,-5/2), exact")


def test_criterion_03_a3_population(a3, a3_population):
    inst, fold = a3
    graph = a3_population
    assert len(graph.nodes) > 1
    directions = {n.step.direction for n in graph.nodes if n.step}
    assert directions == {0, 1}
    for node in graph.nodes:
        ok, _ = is_critical_exact(inst, node.tuple_)
        assert ok
        assert is_cyclotomic_tuple(inst, node.tuple_)
        # Lambda_inf reachable by the recorded word of folded reflections
        expected = _weight_via_recorded_word(inst, fold, graph, node)
        assert node.lambda_inf == expected
        assert node.lambda_inf == weight_at_infinity(inst, node.tuple_)
    report(3, f"A_3 depth-2 BFS: {len(graph.nodes)} nodes, all exactly "
              "critical and cyclotomic, Lambda_inf follows the folded "
              "shifted-Weyl words")


def _weight_via_recorded_word(inst, fold, graph, node):
    chain = []
    cur = node
    while cur.parent is not None:
        chain.append(cur)
        cur = graph.nodes[cur.parent]
    weight = cur.lambda_inf
    for step_node in reversed(chain):
        if step_node.flags["edge"] == "reflected":
            weight = folded_reflect(inst.cartan, inst.aut, fold,
                                    step_node.step.direction, weight)
    return weight


def test_criterion_04_typea_pipeline(a2, a3, a2_population, a3_population):
    checked = 0
    for (inst, fold), graph in ((a2, a2_population), (a3, a3_population)):
        for node in graph.nodes:
            space, flag = kernel_basis(inst, node.tuple_)
            rep = frame_conditions_check(space)
            assert rep["ok"], (node.tuple_, rep)
            # Wr+ of the special basis equals prod_(j<i) (d_i - d_j)
            d = space.frame.d
            want = F(1)
            for i in range(len(d)):
                for j in range(i):
                    want *= d[i] - d[j]
            assert space.wr_plus((1 << len(d)) - 1) == \
                QPoly.constant(Cyc.of(want))
            # the Gram matrix raises NotSelfDual unless self-dual
            _check_b_symmetries(space)
            # d_k + d_(R+2-k) constant
            r = space.frame.r
            sums = {d[k] + d[r - k] for k in range(r + 1)}
            assert len(sums) == 1
            checked += 1
    report(4, f"frame clauses, Wr+ constant, self-duality, B symmetries "
              f"and exponent symmetry verified on {checked} kernel spaces")


def _check_b_symmetries(space):
    g = gram_matrix(space)
    p = space.frame.p
    size = space.frame.r + 1
    sp_idx = list(range(p)) + list(range(size - p, size))
    o_idx = list(range(p, size - p))
    for a in sp_idx:
        for b in sp_idx:
            assert g[a][b] == -(g[b][a] * 1)
        for b in o_idx:
            assert g[a][b].is_zero() and g[b][a].is_zero()
    for a in o_idx:
        for b in o_idx:
            assert g[a][b] == g[b][a]


def test_criterion_05_isotropy_iff_cyclotomy(a2, a2_tuple):
    inst, _ = a2
    space, flag = kernel_basis(inst, a2_tuple)
    wb = witt_basis(space, adjusted=flag.adjusted)
    rng = random.Random(1009)
    pool = [F(0), F(1), F(-1), F(1, 2), F(2), F(-1, 3), F(3)]
    from cybethe import linalg
    iso_count = aniso_count = 0
    total = 0
    while total < 100:
        if total % 2 == 0:
            while True:
                g = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
                if linalg.rank(g) == 3:
                    break
            basis = []
            for i in range(3):
                acc = QPoly.zero()
                for j in range(3):
                    if g[i][j]:
                        acc = acc + wb.vectors[j].scale(g[i][j])
                basis.append(acc)
        else:
            cur = wb
            basis = list(wb.vectors)
            for kind, k in available_generators(space):
                c = rng.choice(pool)
                if c == 0:
                    continue
                cur, _ = apply_flow(space, cur, (kind, k), c)
                basis = list(cur.vectors)
        total += 1
        iso = isotropy_check(fresh_gram(space, basis))
        tup = beta(space, basis)
        cyc = all(proportional(tup[k].negate_argument(), tup[len(tup) - 1 - k])
                  for k in range(len(tup)))
        assert iso == cyc
        iso_count += iso
        aniso_count += not iso
    assert iso_count > 0 and aniso_count > 0
    report(5, f"isotropy <=> cyclotomy on {total} sampled flags "
              f"({iso_count} isotropic, {aniso_count} not), exact")


def test_criterion_06_flow_generation(a2, a2_tuple):
    inst, fold = a2
    params = [F(1), F(2), F(1, 2), F(-1), F(3), F(-2, 5)]
    res = flow_vs_generation(inst, fold, a2_tuple, 1, params)
    assert res["all_match"] and len(res["matches"]) >= 5
    report(6, f"X_1 flow = cyclotomic generation under c -> 1/c "
              f"(Witt scale rho = {res['rho']}) at {len(params)} parameters, "
              "exact monic tuples")


def test_criterion_07_eigenvalue_match(a2, a3):
    rng = random.Random(2027)
    cases = []
    for n_points in (1, 2):
        for base in (a2, a3):
            inst0, fold = base
            points = [Cyc.of(1), Cyc.of(2)][:n_points]
            weights = []
            for _ in range(n_points):
                raw = [rng.randint(0, 2) for _ in range(inst0.cartan.n)]
                sym = Weight(raw)
                weights.append(sym)
            inst = ProblemInstance(cartan=inst0.cartan, aut=inst0.aut,
                                   omega=inst0.omega, points=tuple(points),
                                   site_weights=tuple(weights),
                                   lambda0=inst0.lambda0)
            cases.append((inst, fold))
    from cybethe.errors import ExceptionalParameter, InputError
    verified = 0
    for inst, fold in cases:
        tuples = [BetheTuple.trivial(inst.cartan.n)]
        for i in fold.reps:
            for c in (F(1), F(1, 2)):
                try:
                    y, _ = cyclotomic_generate(inst, fold, tuples[0], i, c)
                except ExceptionalParameter:
                    continue
                tuples.append(y)
        for y in tuples:
            try:
                res = eigenvalues(inst, y)
            except InputError:
                # a Bethe root landed on a marked point: formulas undefined
                continue
            assert not res["not_critical"]
            assert res["origin_zero"]
            assert res["match"]
            verified += 1
    assert verified >= 8
    report(7, f"E = omega-twisted extended eigenvalues and E~(0) = 0 on "
              f"{verified} critical tuples over A_2/A_3, N in {{1,2}}, exact")


def test_criterion_08_identity_suites(a2):
    rng = random.Random(808)
    inst2, _ = a2
    a3c = CartanData.series("A", 3)
    aut3 = DiagramAut((2, 1, 0))
    d4 = CartanData.from_matrix(
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    tri = DiagramAut((2, 1, 3, 0))
    omega3 = Cyc.root_of_unity(3)
    for _ in range(20):
        lam2 = Weight([F(rng.randint(-8, 8), rng.randint(1, 3))
                       for _ in range(2)])
        assert hl_identity_check(inst2.cartan, inst2.aut, inst2.omega, lam2)
        lam4 = Weight([F(rng.randint(-8, 8), rng.randint(1, 3))
                       for _ in range(4)])
        assert hl_identity_check(d4, tri, omega3, lam4)
    for _ in range(20):
        m = rng.randint(1, 4)
        exps = [rng.randint(0, 9) for _ in range(m)]
        got = wronskian([QPoly.x_power(e) for e in exps])
        coeff = F(1)
        for i in range(m):
            for j in range(i):
                coeff *= exps[i] - exps[j]
        total = sum(exps) - F(m * (m - 1), 2)
        assert got == (QPoly.x_power(total, coeff) if coeff else QPoly.zero())
    for _ in range(6):
        s = rng.randint(1, 4)
        k = rng.randint(0, s)
        fs = [_rand_poly(rng, 3) for _ in range(s + 1)]
        omitted = [wronskian(fs[:s - j] + fs[s - j + 1:])
                   for j in range(k + 1)]
        head = fs[:s - k]
        assert wronskian(omitted) == \
            (wronskian(head) if head else QPoly.one()) * wronskian(fs) ** k
    for _ in range(8):
        f = _rand_poly(rng, 4, 1)
        g = _rand_poly(rng, 4, 1)
        w = wronskian([f, g])
        assert f * w * g.derivative().derivative() \
            - f * w.derivative() * g.derivative() \
            == g * w * f.derivative().derivative() \
            - g * w.derivative() * f.derivative()
    report(8, "hl (M = 2, 3), monomial Wronskians, composite-Wronskian and "
              "Wr-ratio identities: 20+ random exact checks each")


def _rand_poly(rng, max_deg, min_deg=0):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.randint(1, 4)]
    return poly(*coeffs)


def test_criterion_09_numeric_crosscheck(a2, a3, a2_population,
                                         a3_population):
    checked = 0
    for (inst, _), graph in ((a2, a2_population), (a3, a3_population)):
        for node in graph.nodes:
            point = embed(node.tuple_)
            assert residual_norm(inst, point) < 1e-8
            rep = grad_check(inst, point)
            assert rep["max_mismatch"] < 1e-6
            checked += 1
    report(9, f"numeric residual < 1e-8 and FD-vs-analytic gradient "
              f"mismatch < 1e-6 (h = 1e-5) on {checked} corpus tuples")


def test_criterion_10_l2_intermediate(a2, a2_tuple):
    inst, fold = a2
    # Prop nb: the intermediate satisfies the s_i . Lambda0 shifted
    # equations exactly (and fails the unshifted ones)
    _, step = cyclotomic_generate(inst, fold, a2_tuple, 0, F(1))
    assert step.kind == "L2"
    inter = dict(step.intermediates)
    intermediate = BetheTuple.monic_of([inter["y_i_step1"], a2_tuple[1]])
    shifted = shifted_reflect(inst.cartan, 0, inst.lambda0)
    ok, _ = shifted_critical(inst, intermediate, shifted)
    assert ok
    ok_un, _ = is_critical_exact(inst, intermediate)
    assert not ok_un
    # flem1 mirror: regenerate in order (ibar, i, ibar), substitute x -> -x,
    # c -> -c
    seed = BetheTuple.trivial(2)
    for c in (F(1), F(2, 3), F(-1, 2)):
        direct, _ = cyclotomic_generate(inst, fold, seed, 0, c)
        mirror, _ = cyclotomic_generate(inst, mirrored(fold), seed, 1, -c)
        for j in range(2):
            jbar = inst.aut(j)
            got = mirror[j].negate_argument()
            want = direct[jbar].scale((-1) ** int(direct[jbar].degree))
            assert got == want
    report(10, "L = 2 intermediate satisfies the shifted Bethe equations; "
               "mirrored-order generation matches under x -> -x, c -> -c, "
               "exact")


def test_criterion_11_ramified_typea_pipeline():
    # A_2 with one marked point 1 of site weight (1, 0): the type-A
    # pipeline on its depth-2 population, with the beta outputs and the
    # flow images at c = 1/3 pinned by digests recorded before the flows
    # and beta shared one Wronskian table
    import hashlib
    from cybethe import serialize
    inst = serialize.instance_from_doc({
        "cartan": "A2", "sigma": "(1 2)", "omega": "-1", "points": ["1"],
        "site_weights": [["1", "0"]], "lambda0": ["1/2", "1/2"]})
    graph = explore_population(inst, orbit_data(inst.cartan, inst.aut),
                               BetheTuple.trivial(2), 2,
                               [F(1), F(2), F(-1, 2)])
    c = Cyc.of(F(1, 3))
    betas, images = [], []
    for node in graph.nodes:
        space, flag = kernel_basis(inst, node.tuple_)
        assert frame_conditions_check(space)["ok"]
        gram_matrix(space)  # NotSelfDual otherwise
        witt = witt_basis(space, adjusted=flag.adjusted,
                          quadratic_extension=True)
        tup = beta(space, flag.adjusted)
        assert BetheTuple.monic_of(tup) == node.tuple_
        flows = [apply_flow(space, witt, gen, c)[1]
                 for gen in available_generators(space)]
        for image in flows:
            y = BetheTuple.monic_of(image)
            assert is_critical_exact(inst, y)[0] and \
                is_cyclotomic_tuple(inst, y)
        betas.append(serialize.tuple_doc(tup))
        images.append([serialize.tuple_doc(image) for image in flows])

    def digest(doc):
        return hashlib.sha256(serialize.dumps(doc).encode()).hexdigest()

    assert len(graph.nodes) == 13 and sum(map(len, images)) == 13
    assert digest(betas) == \
        "c32caedb481ac19578b85ba6e560af080c106aa07cc28834ace29d2546bad3f2"
    assert digest(images) == \
        "81234cb982ad2962cd56a59a67e197e93d645468101fd9ae1edb0291a365ec28"
    report(11, "frame clauses, self-duality, beta round trip and critical "
               "flow images on the 13 nodes of a ramified A_2 population, "
               "with pinned beta and flow-image digests")
