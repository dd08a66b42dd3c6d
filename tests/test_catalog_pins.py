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

from cybethe import cli, serialize
from cybethe.cartan import orbit_data
from cybethe.frame import BetheTuple
from cybethe.genengine import explore_population

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


def _catalog(inst, depth):
    fold = orbit_data(inst.cartan, inst.aut)
    values = [serialize.parse_scalar(s, inst.M) for s in SAMPLES]
    graph = explore_population(inst, fold, BetheTuple.trivial(inst.cartan.n),
                               depth, values)
    return serialize.dumps(serialize.catalog_doc(graph))


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
