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

from cybethe import cli, qpoly, serialize
from cybethe.cartan import orbit_data
from cybethe.frame import BetheTuple, is_cyclotomic_tuple
from cybethe.genengine import explore_population
from cybethe.qpoly import QPoly

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
    assert len(_graph(inst, 2).nodes) > 20
    assert len(seen) > 100 and min(seen) > 1


# A4 has no Y or Z block (p = 2, R = 4), so those flows pin the error path
TYPEA_COMMANDS = (
    ["typea", "analyze"], ["typea", "analyze", "--quadratic-extension"],
    ["verify"], ["eigenvalues"],
    *(["typea", "flow", "--generator", g, "--c", c]
      for g in "XYZ" for c in ("1", "-1/2")))


def test_typea_cli_outputs_digest(tmp_path, capsys):
    instance, tuple_ = tmp_path / "instance.json", tmp_path / "tuple.json"
    instance.write_text(json.dumps(A4_DOC))
    digest = hashlib.sha256()
    for node in json.loads(A4_CATALOG.read_text())["nodes"]:
        tuple_.write_text(json.dumps(node["tuple"]))
        for command in TYPEA_COMMANDS:
            rc = cli.main(command + ["--instance", str(instance),
                                     "--tuple", str(tuple_)])
            digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == \
        "8f91eba2468a74dc34bf24374b394c606d988085d58eb0bd072dbb0d237554ef"
