"""Byte pins of population catalogs and of the type-A CLI outputs.

Generation, verification and deduplication may be reorganised, but the
canonical catalog bytes may not change.  The A4 catalog is compared with
the committed benchmark input; the A3 and D4 catalogs with sha256 digests
recorded before the generation engine was restructured.  The outputs of
the type-A commands on every tuple of the A4 catalog are pinned by one
sha256 recorded before quasi-polynomials kept one coefficient field.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import poly, written
from cybethe import cli, qpoly, serialize
from cybethe.cartan import orbit_data
from cybethe.errors import (ExceptionalParameter, InternalInvariantError,
                            NotGeneric)
from cybethe.frame import (BetheTuple, _residue, eigenvalues,
                           is_critical_exact, is_cyclotomic_tuple,
                           prove_cyclotomic)
from cybethe.genengine import (_checked, _family, _l1_base, _pencil,
                               _reparametrized, _rhs_l1, _transport,
                               explore_population, generation_family)
from cybethe.qpoly import QPoly, wronskian_ode_solve

ROOT = Path(__file__).resolve().parents[1]
A4_CATALOG = ROOT / "perfbench" / "data" / "a4_depth2_catalog.json"
SAMPLES = ("1", "2", "-1/2")

A4_DOC = {
    "cartan": {"series": "A", "rank": 4},
    "sigma": "(1 4)(2 3)",
    "M": 2,
    "omega": "-1",
    "lambda0": ["0", "1/2", "1/2", "0"],
}

D4_DOC = {
    "cartan": {"matrix": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                          [0, -1, 0, 2]]},
    "sigma": "(1 3 4)",
    "M": 3,
    "omega": "w",
    "lambda0": ["0", "2", "0", "0"],
}


def _marked(doc, point, weight):
    return {**doc, "points": [point], "site_weights": [weight]}


D5_DOC = _marked({
    "cartan": {"matrix": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0],
                          [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
                          [0, 0, -1, 0, 2]]},
    "sigma": "(4 5)", "omega": "-1", "lambda0": ["1", "1", "1", "0", "0"],
}, "1", ["1", "0", "0", "1", "1"])

E6_DOC = _marked({
    "cartan": {"matrix": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0],
                          [-1, 0, 2, -1, 0, 0], [0, -1, -1, 2, -1, 0],
                          [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]},
    "sigma": "(1 6)(3 5)", "omega": "-1",
    "lambda0": ["0", "1", "0", "1", "0", "0"],
}, "1", ["1", "1", "0", "0", "0", "1"])

# (instance doc, depth, nodes, sha256 of the catalog, sha256 of
# `graph.skipped` as JSON), samples SAMPLES, all recorded before generated
# nodes were proven at the orbit representatives only
CATALOGS = {
    "A4": (A4_DOC, 2, 40, "0f4c025d221b3b081c2c9282830add35"
           "33533095fa10131c28c2c49b03f3dcf3", "7ada61906a0e5dceb3c73238b5ec6"
           "bd012f5db9d76ed993b9c14c3fa356ef61c"),
    "A3": ({"cartan": "A3", "sigma": "(1 3)", "omega": "-1",
            "lambda0": ["0", "1", "0"]}, 3, 206, "246bc1c371a2aa67ab793a899cd"
           "ff30436c657d251dfc951d0b1a0aa406211ee", "8c045766d1668922a0b78b37"
           "23de2c5345d3afccda1a666229da2cc2e8b3b506"),
    "D4": (D4_DOC, 2, 40, "c8b82643122a4021261574da8c4e35d402d0e9e781d00252a"
           "acf9625cd59e32c", "7ada61906a0e5dceb3c73238b5ec6bd012f5db9d76ed993"
           "b9c14c3fa356ef61c"),
    "A4 (1, 0, 0, 1)": (_marked(A4_DOC, "1", ["1", "0", "0", "1"]), 2, 43,
                        "a7a5712822c8c1f3ebf62a54c967a9479c4ef5c8fa25cee872"
                        "0f192bca9d0543", "4f53cda18c2baa0c0354bb5f9a3ecbe5"
                        "ed12ab4d8e11ba873c2f11161202b945"),
    "A4 (0, 1, 1, 0)": (_marked(A4_DOC, "1", ["0", "1", "1", "0"]), 2, 40,
                        "dab2e97cdd96ec789c25ba992079c866d1f6c6af57254818af"
                        "2042f9cd59d8eb", "7ada61906a0e5dceb3c73238b5ec6bd0"
                        "12f5db9d76ed993b9c14c3fa356ef61c"),
    "D5": (D5_DOC, 2, 126, "2cff59de150e4ba9e901c02623532a708884756ed9e2338b"
           "c197119097fa838b", "58684bcd710eda832eb7cef9206367c387775a309ee9d"
           "c74a0cc387006e6b068"),
    "E6": (E6_DOC, 2, 126, "b0638024df54f1a43e1165802ef666f346d9945472378d8f"
           "438100e2ae63f2f8", "7c8aee53a5bf4e88f6e119c165d06b5c6dd1f7ec6e0ad"
           "8badaba0c85adacb156"),
    "A3^(1)": ({"cartan": {"matrix": [[2, -1, 0, -1], [-1, 2, -1, 0],
                                      [0, -1, 2, -1], [-1, 0, -1, 2]]},
                "sigma": "(2 4)", "omega": "-1",
                "lambda0": ["1", "0", "1", "0"]}, 2, 77, "116721564cedc692a0"
               "177cf4e0c6ec52a05db4ae5cf8c7b5480d2c457f32faa9", "472fb394c2"
               "983ec92031ec1d39bf136bc92a5604afde3d46bba3cf2649208630"),
    "A2^(1)": ({"cartan": {"matrix": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]},
                "sigma": "(2 3)", "omega": "-1",
                "lambda0": ["1", "1/2", "1/2"]}, 2, 42, "9793e76dcc80647dfb45"
               "3b3d1db677b3f4ca55c47714f309ed03add0d8d14fc3", "62a1b195f35161"
               "5b0c203c2b4e5f1bcbfeb745946cea37863c26cb919d122730"),
}


@pytest.fixture(scope="session")
def catalogs():
    """name -> (instance, BFS graph) of every population in CATALOGS."""
    out = {}
    for name, (doc, depth, *_) in CATALOGS.items():
        inst = serialize.instance_from_doc(doc)
        out[name] = inst, _graph(inst, depth)
    return out


def _graph(inst, depth):
    fold = orbit_data(inst.cartan, inst.aut)
    values = [serialize.parse_scalar(s, inst.M) for s in SAMPLES]
    return explore_population(inst, fold, BetheTuple.trivial(inst.cartan.n),
                              depth, values)


def _catalog(inst, depth):
    return serialize.dumps(serialize.catalog_doc(_graph(inst, depth)))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_a4_depth2_matches_committed_catalog():
    inst = serialize.instance_from_doc(A4_DOC)
    assert _catalog(inst, 2) + "\n" == A4_CATALOG.read_text()


def test_a3_depth3_digest(a3):
    inst, _ = a3
    assert inst.lambda0.pairings == (0, 1, 0)
    assert _sha256(_catalog(inst, 3)) == \
        "246bc1c371a2aa67ab793a899cdff30436c657d251dfc951d0b1a0aa406211ee"


def test_d4_depth2_digest():
    inst = serialize.instance_from_doc(D4_DOC)
    assert _sha256(_catalog(inst, 2)) == \
        "c8b82643122a4021261574da8c4e35d402d0e9e781d00252aacf9625cd59e32c"


def test_catalog_and_skipped_digests(catalogs):
    # finite, marked-point and affine populations; the skipped parameters
    # keep their order and the first failing condition as their reason
    for name, (_, _, count, catalog, skipped) in CATALOGS.items():
        _, graph = catalogs[name]
        assert len(graph.nodes) == count, name
        assert _sha256(serialize.dumps(serialize.catalog_doc(graph))) == \
            catalog, name
        assert _sha256(json.dumps([
            [node, i, serialize.scalar_str(c), reason]
            for node, i, c, reason in graph.skipped])) == skipped, name
    reasons = {reason for _, graph in catalogs.values()
               for *_, reason in graph.skipped}
    assert {"y_1 shares a root with y_2", "y_1 is not squarefree"} < reasons


def _verdict(prove, inst, y):
    """("not generic", witness), or the verdict of prove(inst, y) with the
    report at the orbit representatives."""
    try:
        ok, report = prove(inst, y)
    except NotGeneric as exc:
        return "not generic", str(exc)
    return ok, {i: report[i] for i, _ in inst.orbit_reps}


def _same(a, b):
    """Equal values, written alike as a section."""
    return a == b and written(a) == written(b)


def test_generation_implies_what_the_proof_and_the_bfs_skip(catalogs):
    # on every generated node, what `_checked` and `explore_population`
    # take from generation agrees with a fresh computation: the residue at
    # the moved representative divides, and after an L = 1 step so does
    # the residue at every representative adjacent to the moved orbit,
    # which `_checked` no longer builds; the family along the incoming
    # direction, reparametrized from the parent's, is the solved one: the
    # same base and direction, and at 6 samples the same members and steps,
    # with intermediates equal in value and written alike; its member at
    # kappa = -lc(m) [direction]_(x^deg m) is the parent, and along an
    # L = 1 orbit its base transports to the solve at sigma i; every member
    # equals the node outside the sigma-orbits its moves touch, which is
    # what lets `_checked` prove the moved orbit only
    counts = {"L1": 0, "L2": 0, "adjacent": 0, "transported": 0,
              "members": 0}
    for inst, graph in catalogs.values():
        fold = orbit_data(inst.cartan, inst.aut)
        samples = [serialize.parse_scalar(s, inst.M)
                   for s in SAMPLES + ("0", "3", "1/3")]
        for node in graph.nodes[1:]:
            y, step = node.tuple_, node.step
            i = step.direction
            assert _residue(inst, y, i, inst.gamma(i))["divides"]
            counts[step.kind] += 1
            orbit = {inst.aut.power(i, k) for k in range(inst.M)}
            adjacent = [r for r, _ in inst.orbit_reps if r not in orbit
                        and any(inst.cartan.a[r][j] for j in orbit)]
            for r in adjacent if step.kind == "L1" else ():
                assert _residue(inst, y, r, inst.gamma(r))["divides"], \
                    (node.node_id, r)
                counts["adjacent"] += 1
            parent = graph.nodes[node.parent].tuple_
            pencil = _pencil(inst, fold, parent, i)
            want_index, want_base, want_direction, solved = \
                generation_family(inst, fold, y, i)
            index, base, direction, member = _family(
                inst, fold, y, i,
                *_reparametrized(pencil, y, step.c))
            assert index == want_index
            assert _same(base, want_base) and _same(direction, want_direction)
            moved = {inst.aut.power(j, k) for j, *_ in pencil[0]
                     for k in range(inst.M)}
            for c in samples:
                (got, got_step), (want, want_step) = member(c), solved(c)
                assert got_step == want_step, (node.node_id, c)
                assert all(_same(got[r], y[r]) and _same(want[r], y[r])
                           for r in range(len(y)) if r not in moved), \
                    (node.node_id, c)
                assert all(_same(a, b) for a, b in zip(got, want))
                assert written(dict(got_step.intermediates), inst.M) == \
                    written(dict(want_step.intermediates), inst.M)
                counts["members"] += 1
            (_, p_base, p_direction), *_ = pencil[0]
            m = p_base + p_direction.scale(step.c)
            kappa = -m.leading_coeff() * p_direction.coeff(m.degree)
            assert member(kappa)[0] == parent, node.node_id
            if step.kind == "L1" and fold.orbit_len[i] > 1:
                assert _same(_transport(base, inst.omega, inst.M, 1),
                             _l1_base(inst, y, inst.aut(i))), node.node_id
                counts["transported"] += 1
    assert counts == {"L1": 647, "L2": 84, "adjacent": 813,
                      "transported": 299, "members": 731 * 6}


def test_l2_step3_direction_is_the_step1_identity(catalogs):
    # Wr(f, -lc(lifted) y_i) = x^gamma P_i with f = lifted / lc(lifted):
    # the c-coefficient s1 of step 3, whose right-hand side with the
    # middle-step component y_ibar is step 1's, equals the holomorphic
    # solve of its equation on every L = 2 family of the catalogs
    families = 0
    for inst, graph in catalogs.values():
        fold = orbit_data(inst.cartan, inst.aut)
        for i in (i for i in fold.reps if fold.linking[i] == 2):
            for node in graph.nodes:
                y = node.tuple_
                (_, (_, _, s1)), y_i_1 = _pencil(inst, fold, y, i)
                f = QPoly.x_power(inst.gamma(i) + 1) * y_i_1
                solved, _ = wronskian_ode_solve(
                    f, _rhs_l1(inst, y, i), ("holomorphic_at_zero", 0))
                assert _same(s1, solved), node.node_id
                families += 1
    assert families == 165


def test_proof_modes_agree_on_every_node_and_skipped_member(catalogs):
    # the same verdict and report on every node, and the same first witness
    # on every member the BFS skipped as exceptional
    outcomes = set()
    for inst, graph in catalogs.values():
        fold = orbit_data(inst.cartan, inst.aut)
        members = [node.tuple_ for node in graph.nodes]
        for node, i, c, _ in graph.skipped:
            *_, member = generation_family(inst, fold,
                                           graph.nodes[node].tuple_, i)
            members.append(member(c)[0])
        for y in members:
            want = _verdict(is_critical_exact, inst, y)
            assert _verdict(prove_cyclotomic, inst, y) == want
            outcomes.add(want[0])
    assert outcomes == {True, "not generic"}


def _full_verdict(inst, y):
    """The verdict of the full proof of a cyclotomic critical point:
    cyclotomy at every colour, then `is_critical_exact`."""
    if not is_cyclotomic_tuple(inst, y):
        return "not cyclotomic"
    try:
        return is_critical_exact(inst, y)[0]
    except NotGeneric as exc:
        return "not generic", str(exc)


def _checked_verdict(inst, y, step):
    """The verdict of `_checked`, which proves only the moved orbit."""
    try:
        _checked(inst, y, step)
    except ExceptionalParameter as exc:
        return "not generic", exc.reason
    except InternalInvariantError as exc:
        return "not cyclotomic" if "symmetry" in str(exc) else False
    return True


def test_checked_agrees_with_the_full_proof(catalogs):
    # `_checked` proves only what reads the moved orbit O; on every
    # generated node and every member the BFS skipped as exceptional it
    # gives the full proof's verdict and first failing condition, which is
    # the skipped member's reason; on D5, E6 and A3^(1) some generated
    # nodes have a representative neither in O nor adjacent to it, whose
    # residue it does not build
    outcomes, off = set(), {}
    for name, (inst, graph) in catalogs.items():
        fold = orbit_data(inst.cartan, inst.aut)
        cases = [(node.tuple_, node.step, None) for node in graph.nodes[1:]]
        for node, i, c, reason in graph.skipped:
            *_, member = generation_family(inst, fold,
                                           graph.nodes[node].tuple_, i)
            cases.append((*member(c), reason))
        for y, step, reason in cases:
            want = _full_verdict(inst, y)
            assert _checked_verdict(inst, y, step) == want, name
            if reason is not None:
                assert want == ("not generic", reason), name
                continue
            outcomes.add(want)
            orbit = {inst.aut.power(step.direction, k)
                     for k in range(inst.M)}
            if any(not any(inst.cartan.a[r][j] for j in orbit)
                   for r, _ in inst.orbit_reps if r != step.direction):
                off[name] = off.get(name, 0) + 1
    assert outcomes == {True}
    assert off == {"D5": 125, "E6": 125, "A3^(1)": 49}


# the populations of CATALOGS of finite type, where the paper states the
# eigenvalue match: all but the affine A3^(1) and A2^(1)
FINITE_TYPE = [name for name in CATALOGS if not name.endswith("^(1)")]


def test_eigenvalues_match_on_every_d5_and_e6_node(catalogs):
    """The eigenvalue match on every node of every finite-type catalog,
    the D5 and E6 flips with a marked point among them."""
    # 20 D5 and 21 E6 nodes put a root of y_c on the site, in a colour c
    # whose pairing with the site weight is 0
    rooted = 0
    for name in FINITE_TYPE:
        inst, graph = catalogs[name]
        for node in graph.nodes:
            res = eigenvalues(inst, node.tuple_)
            assert res["match"] and res["origin_zero"], (name, node.node_id)
            assert not res["not_critical"], (name, node.node_id)
            if name in ("D5", "E6"):
                (z,) = inst.points
                rooted += any(p.eval_at(z).is_zero() for p in node.tuple_)
    assert rooted == 41


def test_eigenvalues_skip_a_root_on_a_site_of_pairing_zero(tmp_path, capsys):
    instance, tuple_ = tmp_path / "instance.json", tmp_path / "tuple.json"
    instance.write_text(json.dumps(D5_DOC))
    y = BetheTuple([QPoly.one(), poly(-1, 0, 1),
                    *[QPoly.one()] * 3])
    tuple_.write_text(serialize.tuple_doc_json(y))
    args = ["--instance", str(instance), "--tuple", str(tuple_)]
    assert cli.main(["verify"] + args) == 0
    capsys.readouterr()
    assert cli.main(["eigenvalues"] + args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cyclotomic"] == ["25/2"]
    assert out["extended"] == ["0", "25/2", "-25/2"]
    assert out["match"] and out["origin_zero"] and not out["not_critical"]
    # a root on the site in colour 1, whose pairing with the site is 1
    y = BetheTuple([poly(-1, 1), *y.polys[1:]])
    tuple_.write_text(serialize.tuple_doc_json(y))
    assert cli.main(["eigenvalues"] + args) == 2
    assert "hits a Bethe root" in capsys.readouterr().out


def _two_scale_proportional(f, g):
    """`qpoly.proportional` as it was: two scales and an equality."""
    if not (f.ks and g.ks):
        return not (f.ks or g.ks)
    return f.scale(g.leading_coeff()) == g.scale(f.leading_coeff())


def _proportional_form(inst, y):
    """The cyclotomy test on the two-scale form, per j."""
    return all(_two_scale_proportional(
        y[inst.aut(j)].substitute_scale(inst.omega), y[j])
        for j in range(len(y)))


def test_cyclotomy_test_matches_the_proportional_form(a3):
    # every node of the three pinned populations, the node with one
    # coefficient perturbed, and its components scaled off monic
    outcomes = []
    for inst, depth in ((serialize.instance_from_doc(A4_DOC), 2),
                        (a3[0], 3), (serialize.instance_from_doc(D4_DOC), 2)):
        w = inst.omega
        for node in _graph(inst, depth).nodes:
            y = list(node.tuple_.polys)
            cases = [y, [p.scale(w ** j + 2) for j, p in enumerate(y)]]
            for j, p in enumerate(y):
                if p.degree:
                    for bump in (QPoly.one(), QPoly.x_power(p.degree - 1, w)):
                        cases.append(y[:j] + [p + bump] + y[j + 1:])
            for case in cases:
                got = is_cyclotomic_tuple(inst, case)
                assert got == _proportional_form(inst, case)
                outcomes.append(got)
    assert outcomes.count(True) > 300 and outcomes.count(False) > 300


def test_genericity_runs_no_certificate_on_a_constant(monkeypatch):
    # T_i = 1 without marked points, and the neighbours of the first
    # generated nodes are constant: their gcds need no prime
    seen = []
    certify = qpoly._certified_coprime

    def counted(fc, gc=None):
        seen.append(min(len(fc[2]), len(gc[2]) if gc else 2))
        return certify(fc, gc)

    monkeypatch.setattr(qpoly, "_certified_coprime", counted)
    inst = serialize.instance_from_doc(D4_DOC)
    assert len(_graph(inst, 3).nodes) > 20
    assert len(seen) > 100 and min(seen) > 1


# A4 has no Y or Z block (p = 2, R = 4), so those flows pin the error path
TYPEA_COMMANDS = (
    ["typea", "analyze"], ["typea", "analyze", "--quadratic-extension"],
    ["verify"], ["eigenvalues"],
    *(["typea", "flow", "--generator", g, "--c", c]
      for g in "XYZ" for c in ("1", "-1/2")))


def test_typea_cli_outputs_digest(tmp_path, capsys):
    # the outputs differ from those that came before "fields" and
    # "flag_type" by these added keys only, and from those that came before
    # the one refusal of `flow_generator` by the text of the Y and Z errors
    instance, tuple_ = tmp_path / "instance.json", tmp_path / "tuple.json"
    instance.write_text(json.dumps(A4_DOC))
    digest, without_added_keys = hashlib.sha256(), hashlib.sha256()
    for node in json.loads(A4_CATALOG.read_text())["nodes"]:
        tuple_.write_text(json.dumps(node["tuple"]))
        for command in TYPEA_COMMANDS:
            rc = cli.main(command + ["--instance", str(instance),
                                     "--tuple", str(tuple_)])
            out = capsys.readouterr().out
            digest.update(f"{rc}\n{out}".encode())
            doc = {k: v for k, v in json.loads(out).items()
                   if k not in ("fields", "flag_type")}
            without_added_keys.update(
                f"{rc}\n{json.dumps(doc, indent=2, sort_keys=True)}\n"
                .encode())
    assert digest.hexdigest() == \
        "b8dadd04f97b58854111b40501461cf5049f22a5ee823882fa6ce311a185bd62"
    assert without_added_keys.hexdigest() == \
        "d54819ac35ee009363f19f8c47b7a23c667c7ca01a4d1c4124bba86dad066f0e"
