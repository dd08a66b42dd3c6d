import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly
import cybethe
from cybethe import cartan, cli, serialize
from cybethe.errors import InputError
from cybethe.frame import BetheTuple
from cybethe.qpoly import QPoly
from cybethe.scalars import Cyc, cyclotomic_polynomial


A2_INSTANCE = {
    "cartan": {"series": "A", "rank": 2},
    "sigma": "(1 2)",
    "M": 2,
    "omega": "-1",
    "points": [],
    "site_weights": [],
    "lambda0": ["1/2", "1/2"],
}

A2_TUPLE = {"polys": [
    {"denom": 1, "terms": {"0": "-1", "3": "1"}},
    {"denom": 1, "terms": {"0": "1", "3": "1"}},
]}


@pytest.fixture
def docs(tmp_path):
    inst = tmp_path / "instance.json"
    tup = tmp_path / "tuple.json"
    inst.write_text(json.dumps(A2_INSTANCE))
    tup.write_text(json.dumps(A2_TUPLE))
    return str(inst), str(tup), tmp_path


def test_scalar_round_trip():
    w = Cyc.root_of_unity(8)
    values = [Cyc.of(F(-7, 3)), w ** 2 * F(3, 2) - 1, w ** 3 + w, Cyc.of(0)]
    for v in values:
        s = serialize.scalar_str(v, 8)
        back = serialize.parse_scalar(s, 8)
        assert back == v, (s, back)


def _parse_scalar_reference(text, order=1):
    """Reference: `parse_scalar` with the fallback pattern and the
    `parsed_any` flag it had before they were found never to act."""
    text = serialize._typed(text, str,
                            "an exact scalar must be a string").strip()
    if not text:
        raise InputError("empty scalar string")
    chunks = re.split(r"(?=[+-])(?![^(]*\))", text.replace(" ", ""))
    total = Cyc.of(0, order)
    parsed_any = False
    for chunk in chunks:
        if not chunk:
            continue
        m = serialize._TERM_RE.match(chunk)
        if not m or (m.group(2) is None and "w" not in chunk):
            if re.fullmatch(r"[+-]?\d+(/\d+)?", chunk):
                total = total + Cyc.of(serialize._fraction(chunk), order)
                parsed_any = True
                continue
            raise InputError(f"cannot parse scalar term {chunk!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = serialize._fraction(m.group(2)) if m.group(2) else F(1)
        if "w" in chunk:
            power = int(m.group(3)) if m.group(3) else 1
            if order < 2:
                raise InputError("cyclotomic generator in a rational context")
            total = total + Cyc.root_of_unity(order, power) * (sign * coeff)
        else:
            total = total + Cyc.of(sign * coeff, order)
        parsed_any = True
    if not parsed_any:
        raise InputError(f"cannot parse scalar {text!r}")
    return total


def _parsed(parse, text, order):
    try:
        value = parse(text, order)
    except Exception as exc:
        return type(exc), str(exc)
    return value.order, str(value)


_SCALAR_PIECES = ("0", "1", "7", "12", "/", "2/3", "w", "w^2", "w^5", "+",
                  "-", "*", "^", "(", ")", "x", ".", " ")


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(alphabet="0123456789+-/*w^()x. ", max_size=12),
                 st.lists(st.sampled_from(_SCALAR_PIECES),
                          max_size=8).map("".join)),
       st.sampled_from((1, 2, 4)))
def test_parse_scalar_matches_the_reference(text, order):
    assert _parsed(serialize.parse_scalar, text, order) == \
        _parsed(_parse_scalar_reference, text, order)


def test_qpoly_round_trip():
    p = QPoly({F(1, 2): Cyc.root_of_unity(4), F(3): Cyc.of(F(-2, 5))})
    doc = serialize.qpoly_doc(p)
    assert doc["denom"] == 2
    back = serialize.qpoly_from_doc(doc, 4)
    assert back == p


def test_tuple_round_trip_byte_stable():
    y = BetheTuple([poly(-1, 0, 0, 1), poly(1, 0, 0, 1)])
    blob = serialize.tuple_doc_json(y)
    reparsed = serialize.tuple_from_doc(json.loads(blob))
    assert serialize.tuple_doc_json(reparsed) == blob


def _terms_doc(p):
    """`qpoly_doc` as it was, from the `terms` view and Fraction keys, at
    the order p is held at."""
    d = p.denom
    return {"denom": d, "terms": {str(int(e * d)): serialize.scalar_str(
        c, p.field_order()) for e, c in p.terms.items()}}


def test_qpoly_doc_writes_the_int_layout_as_the_terms_view(monkeypatch):
    # orders 1 .. 12 with shared factors in the numerators, Laurent and
    # fractional exponents, and a term whose numerator shares a factor
    # with the common denominator but not with the other terms
    w3, i = Cyc.root_of_unity(3), Cyc.root_of_unity(4)
    polys = [QPoly.zero(), QPoly.one(), poly(-1, 0, 0, 1),
             QPoly({F(-3, 2): F(2, 3), F(1, 2): F(-4, 9), F(5): 6}),
             QPoly({0: w3 * 2 + 4, F(1, 3): -w3 / 6, 2: Cyc.of(-1, 3)}),
             QPoly({F(1, 2): i, F(3): Cyc.of(F(-2, 5))}),
             QPoly({1: Cyc.root_of_unity(8, 3) * F(3, 4) + 1,
                    7: Cyc.root_of_unity(12, 5) - 2})]
    want = [_terms_doc(p) for p in polys]
    monkeypatch.setattr(QPoly, "terms", property(
        lambda self: pytest.fail("qpoly_doc read the terms view")))
    assert [serialize.qpoly_doc(p) for p in polys] == want
    assert [serialize.dumps(serialize.qpoly_doc(p)) for p in polys] == \
        [serialize.dumps(doc) for doc in want]


def test_catalog_doc_reads_each_tuple_from_its_bfs_key(a3, monkeypatch):
    from cybethe.genengine import explore_population
    inst, fold = a3
    graph = explore_population(inst, fold, BetheTuple.trivial(3), 2,
                               [F(1), F(2)])
    want = [serialize.tuple_doc(node.tuple_) for node in graph.nodes]
    assert graph.keys == [serialize.dumps(doc) for doc in want]
    monkeypatch.setattr(serialize, "tuple_doc", lambda y: pytest.fail(
        "catalog_doc serialized a tuple again"))
    doc = serialize.catalog_doc(graph)
    assert [entry["tuple"] for entry in doc["nodes"]] == want
    assert len(want) == 19


def test_perm_parsing():
    aut = serialize.perm_from_doc("(1 4)(2 3)", 4)
    assert aut.perm == (3, 2, 1, 0)
    aut2 = serialize.perm_from_doc([4, 3, 2, 1], 4)
    assert aut2.perm == (3, 2, 1, 0)
    aut3 = serialize.perm_from_doc("(1 3)", 3)
    assert aut3.perm == (2, 1, 0)


def test_cli_fold(capsys):
    rc = cli.main(["fold", "--cartan", "A4", "--sigma", "(1 4)(2 3)"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["linking"] == [1, 2, 2, 1]
    assert doc["a_fold"] == [[2, -1], [-2, 2]]


def test_cli_verify_green(docs, capsys):
    inst, tup, _ = docs
    rc = cli.main(["verify", "--instance", inst, "--tuple", tup])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["critical"] and doc["cyclotomic"] and doc["generic"]
    assert doc["lambda_infinity"] == ["-5/2", "-5/2"]


def test_cli_verify_red(docs, tmp_path, capsys):
    inst, _, _ = docs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"polys": [
        {"denom": 1, "terms": {"0": "-1", "1": "1"}},
        {"denom": 1, "terms": {"0": "1", "1": "1"}},
    ]}))
    rc = cli.main(["verify", "--instance", inst, "--tuple", str(bad)])
    assert rc == 1


def test_cli_verify_runs_one_genericity_pass(docs, tmp_path, monkeypatch,
                                            capsys):
    from cybethe import frame
    calls = []
    is_generic = frame.is_generic

    def counted(*args, **kwargs):
        calls.append(1)
        return is_generic(*args, **kwargs)

    monkeypatch.setattr(frame, "is_generic", counted)
    monkeypatch.setattr(cli, "is_generic", counted, raising=False)
    inst, tup, _ = docs
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps({"polys": [
        {"denom": 1, "terms": {"0": "-1", "1": "1"}},
        {"denom": 1, "terms": {"0": "-1", "1": "1"}},
    ]}))
    for path, rc_want in ((tup, 0), (str(shared), 1)):
        calls.clear()
        assert cli.main(["verify", "--instance", inst, "--tuple", path]) \
            == rc_want
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
    assert doc["generic"] is False and doc["critical"] is False
    assert doc["witness"] == "y_0 shares a root with y_1"


def test_cli_generate_and_populate_round_trip(docs, capsys):
    inst, tup, tmp = docs
    out = tmp / "gen.json"
    rc = cli.main(["generate", "--instance", inst, "--tuple", tup,
                   "--direction", "1", "--c", "1", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    emitted = serialize.tuple_from_doc(doc["tuple"])
    rc = cli.main(["populate", "--instance", inst, "--tuple", tup,
                   "--depth", "0", "--out", str(tmp / "pop.json")])
    assert rc == 0
    cat = json.loads((tmp / "pop.json").read_text())
    assert len(cat["nodes"]) == 1
    node_tuple = serialize.tuple_from_doc(cat["nodes"][0]["tuple"])
    # round trip: catalog re-serializes identically
    assert serialize.tuple_doc_json(node_tuple) == \
        serialize.dumps(cat["nodes"][0]["tuple"])


def test_cli_populate_depth1_deterministic(docs):
    inst, tup, tmp = docs
    seedfile = tmp / "trivial.json"
    seedfile.write_text(json.dumps({"polys": [
        {"denom": 1, "terms": {"0": "1"}},
        {"denom": 1, "terms": {"0": "1"}}]}))
    out1, out2 = tmp / "p1.json", tmp / "p2.json"
    for out in (out1, out2):
        rc = cli.main(["populate", "--instance", inst, "--tuple",
                       str(seedfile), "--depth", "1",
                       "--samples", "1/3,1", "--out", str(out)])
        assert rc == 0
    assert out1.read_text() == out2.read_text()
    cat = json.loads(out1.read_text())
    assert len(cat["nodes"]) == 3


def test_cli_typea_analyze(docs):
    inst, tup, tmp = docs
    out = tmp / "an.json"
    rc = cli.main(["typea", "analyze", "--instance", inst, "--tuple", tup,
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["self_dual"] is True
    assert doc["frame_report"]["ok"] is True
    assert doc["exponents"] == ["0", "3/2", "3"]
    assert doc["p"] == 1
    assert doc["flag_isotropic"] is True


def test_cli_typea_analyze_reads_self_duality_off_the_b_matrix_table(
        docs, monkeypatch):
    # the kernel space builds the one table, of its special basis: the
    # frame conditions, self-duality, the B matrix, beta and the Witt
    # basis all read it
    from cybethe import typea
    inst, tup, tmp = docs
    space, _ = typea.kernel_basis(serialize.instance_from_doc(A2_INSTANCE),
                                  serialize.tuple_from_doc(A2_TUPLE, 2))
    tables, table = [], typea.wronskian_table
    monkeypatch.setattr(typea, "wronskian_table",
                        lambda fs: tables.append(tuple(fs)) or table(fs))
    assert cli.main(["typea", "analyze", "--instance", inst, "--tuple", tup,
                     "--out", str(tmp / "an.json")]) == 0
    assert tables == [space.basis]


@pytest.mark.parametrize("extra, witt_bases, tables", [
    ([], 1, 1), (["--quadratic-extension"], 2, 1)],
    ids=["plain", "quadratic_extension"])
def test_cli_typea_analyze_samples_members_in_the_command_space(
        docs, monkeypatch, extra, witt_bases, tables):
    # --members reuses the command's kernel space, its self-duality
    # verdict and, without quadratic extension, its Witt basis: the one
    # table of the space, which a Witt basis of the sampler's own reads
    # too; the sample that draws c = 0 and runs no flow reads the Witt
    # table
    from cybethe import typea
    inst, tup, tmp = docs
    calls = []
    for name in ("kernel_basis", "witt_basis", "wronskian_table", "beta"):
        monkeypatch.setattr(typea, name, lambda *a, f=getattr(typea, name),
                            n=name, **k: calls.append(n) or f(*a, **k))
    out = tmp / "members.json"
    assert cli.main(["typea", "analyze", "--instance", inst, "--tuple", tup,
                     "--members", "3", *extra, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["population"]["members"]) == 3
    assert [calls.count(name) for name in (
        "kernel_basis", "witt_basis", "wronskian_table", "beta")] == \
        [1, witt_bases, tables, 1]


@pytest.mark.parametrize("extra", [[], ["--quadratic-extension"]])
def test_cli_typea_analyze_refuses_members_of_a_space_not_self_dual(
        tmp_path, capsys, extra):
    # a marked point without the flip: the kernel space of the trivial
    # tuple is not self-dual, so it has no Witt basis to sample from
    inst, tup = tmp_path / "inst.json", tmp_path / "tup.json"
    inst.write_text(json.dumps({
        "cartan": "A2", "sigma": "()", "omega": "1", "points": ["1"],
        "site_weights": [["1", "0"]], "lambda0": ["0", "0"]}))
    tup.write_text(json.dumps(
        {"polys": [{"denom": 1, "terms": {"0": "1"}}] * 2}))
    args = ["typea", "analyze", "--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(args + extra) == 1
    assert json.loads(capsys.readouterr().out)["self_dual"] is False
    assert cli.main(args + ["--members", "2"] + extra) == 2
    assert _error_record(capsys) == {
        "kind": "NotSelfDual",
        "message": "kernel space of the seed is not self-dual"}


def test_cli_typea_analyze_refuses_a_negative_member_count(docs, capsys):
    # --members -1 printed a population with no members and exited 0; the
    # count is refused before the instance is read
    inst, tup, _ = docs
    for path in (inst, "/does/not/exist"):
        assert cli.main(["typea", "analyze", "--instance", path,
                         "--tuple", tup, "--members", "-1"]) == 2
        assert _error_record(capsys) == {
            "kind": "InputError",
            "message": "--members must be >= 0, got -1"}


def test_cli_typea_flow(docs, capsys):
    inst, tup, _ = docs
    rc = cli.main(["typea", "flow", "--instance", inst, "--tuple", tup,
                   "--k", "1", "--c", "1,2,1/2,-1,3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_match"] is True
    assert doc["rho"] == "27/2"


@pytest.mark.parametrize("generator", ["X", "Y", "Z"])
@pytest.mark.parametrize("c", ["--c=,", "--c=", "--c= "])
def test_cli_typea_flow_refuses_an_empty_parameter_list(docs, capsys,
                                                        generator, c):
    # the X flow returned rho = None and crashed printing it; Y and Z
    # printed an empty list
    inst, tup, _ = docs
    rc = cli.main(["typea", "flow", "--instance", inst, "--tuple", tup,
                   "--k", "1", "--generator", generator, c])
    assert rc == 2
    err = _error_record(capsys)
    assert err == {"kind": "InputError",
                   "message": "flow needs at least one sample parameter"}
    rc = cli.main(["populate", "--instance", inst, "--tuple", tup,
                   "--depth", "1", "--samples", c[4:]])
    assert rc == 2
    assert _error_record(capsys) == {
        "kind": "InputError",
        "message": "population needs at least one sample parameter"}


def test_cli_eigenvalues(docs, capsys):
    inst, tup, _ = docs
    rc = cli.main(["eigenvalues", "--instance", inst, "--tuple", tup])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["origin_zero"] is True and doc["match"] is True


def test_cli_lambda0(capsys):
    rc = cli.main(["lambda0", "--rank", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda0"] == ["0", "1", "0"]


def test_cli_check_numeric(docs, capsys):
    inst, tup, _ = docs
    rc = cli.main(["check-numeric", "--instance", inst, "--tuple", tup])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_residual"] < 1e-8
    assert doc["gradient_mismatch"] < 1e-6


@pytest.mark.parametrize("option", ["--h", "--tol"])
@pytest.mark.parametrize("value", ["0", "=-1", "nan", "inf"])
def test_cli_check_numeric_refuses_an_option_out_of_range(docs, capsys,
                                                           option, value):
    # 0 and nan used to fall back to the default or pass every check, and
    # --tol=-1 failed as IllConditioned at the first root
    inst, tup, _ = docs
    args = [option + value] if value[0] == "=" else [option, value]
    assert cli.main(["check-numeric", "--instance", inst, "--tuple", tup,
                     *args]) == 2
    error = _error_record(capsys)
    assert error["kind"] == "InputError"
    assert error["message"].startswith(option + " must be")


def test_cli_validate(docs, capsys):
    inst, _, _ = docs
    rc = cli.main(["validate", "--instance", inst, "--p", "1"])
    assert rc == 0


def test_cli_input_error(docs, capsys):
    _, tup, _ = docs
    rc = cli.main(["verify", "--instance", "/does/not/exist.json",
                   "--tuple", tup])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "InputError"


def _error_record(capsys):
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["error"]) >= {"kind", "message"}
    return doc["error"]


def test_cli_instance_without_cartan(docs, capsys):
    inst, tup, tmp_path = docs
    bad = tmp_path / "no-cartan.json"
    bad.write_text(json.dumps(
        {k: v for k, v in A2_INSTANCE.items() if k != "cartan"}))
    rc = cli.main(["verify", "--instance", str(bad), "--tuple", tup])
    assert rc == 2
    assert _error_record(capsys)["kind"] == "InputError"
    for doc in ({"polys": [{"denom": 1}]}, {"tuples": []}, [1, 2]):
        with pytest.raises(InputError):
            serialize.tuple_from_doc(doc)


def test_cli_zero_denominator(docs, capsys):
    inst, tup, _ = docs
    rc = cli.main(["generate", "--instance", inst, "--tuple", tup,
                   "--direction", "1", "--c", "1/0"])
    assert rc == 2
    assert _error_record(capsys)["kind"] == "InputError"
    for text in ("1/0", "2 + 3/0*w"):
        with pytest.raises(InputError):
            serialize.parse_scalar(text, 4)
    with pytest.raises(InputError):
        serialize.weight_from_doc(["1/2", "1/0"])


def test_cli_zero_denominator_in_every_scalar_input(docs, capsys):
    inst, tup, tmp_path = docs
    bad = tmp_path / "zero-den-tuple.json"
    bad.write_text(json.dumps({"polys": [
        {"denom": 1, "terms": {"0": "1/0", "3": "1"}}, A2_TUPLE["polys"][1]]}))
    for argv in (["generate", "--instance", inst, "--tuple", tup,
                  "--direction", "1", "--c", "1/0"],
                 ["populate", "--instance", inst, "--tuple", tup,
                  "--samples", "1,1/0"],
                 ["typea", "flow", "--instance", inst, "--tuple", tup,
                  "--c", "1/0"],
                 ["verify", "--instance", inst, "--tuple", str(bad)]):
        assert cli.main(argv) == 2, argv
        assert _error_record(capsys)["kind"] == "InputError"


def test_cli_usage_error_record(docs, capsys):
    inst, tup, _ = docs
    for argv in (["verify", "--instance", inst],
                 ["generate", "--instance", inst, "--tuple", tup,
                  "--direction", "1", "--c"],
                 ["no-such-command"]):
        assert cli.main(argv) == 2
        assert _error_record(capsys)["kind"] == "InputError"


_IMPORT_SURFACE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m in ("numpy", "dataclasses", "inspect")
                  or m.startswith(("numpy.", "cybethe.")))

import cybethe
report = {"import cybethe": loaded()}
import cybethe.cli
report["import cybethe.cli"] = loaded()
io_args = ["--instance", "instance.json", "--tuple", "tuple.json"]
# the modules of one process accumulate: the commands that read no tuple
# come first, and `typea analyze` before the commands that generate
for name, argv in (
        ("fold", ["fold", "--cartan", "A4", "--sigma", "(1 4)(2 3)"]),
        ("lambda0", ["lambda0", "--rank", "3"]),
        ("refused", ["generate", *io_args, "--direction", "1", "--c", "1/x"]),
        ("refused 1/0",
         ["generate", *io_args, "--direction", "1", "--c", "1/0"]),
        ("missing file",
         ["verify", "--instance", "instance.json", "--tuple", "absent.json"]),
        ("validate", ["validate", "--instance", "instance.json", "--p", "1"]),
        ("verify", ["verify", *io_args]),
        ("typea analyze", ["typea", "analyze", *io_args]),
        ("generate", ["generate", *io_args, "--direction", "1", "--c", "1"]),
        ("populate", ["populate", *io_args, "--samples", "1"]),
        ("typea flow", ["typea", "flow", *io_args, "--c", "1"]),
        ("eigenvalues", ["eigenvalues", *io_args]),
        ("check-numeric", ["check-numeric", *io_args])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cybethe.cli.main(argv)
    report[name] = [code, loaded()]
print(json.dumps(report))
"""

_REFUSED = ("refused", "refused 1/0", "missing file")


def test_cli_import_leaves_numpy_unloaded(docs):
    # each command loads the modules it runs: none of them numpy or
    # dataclasses (with its inspect), and a request refused for its input
    # before the tuple loads no quasi-polynomial
    _, _, tmp_path = docs
    src = str(Path(cybethe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SURFACE], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report.pop("import cybethe") == []
    assert "cybethe.typea" not in report.pop("import cybethe.cli")
    for command, (code, modules) in report.items():
        assert code == (2 if command in _REFUSED else 0), command
        assert not any(m.split(".")[0] in ("numpy", "dataclasses", "inspect")
                       for m in modules), command
    for command in ("fold", "lambda0", *_REFUSED):
        modules = report[command][1]
        for module in ("genengine", "typea", "qpoly", "frame"):
            assert "cybethe." + module not in modules, command
    assert "cybethe.genengine" not in report["typea analyze"][1]


def _with(doc, drop=(), **changes):
    return {**{k: v for k, v in doc.items() if k not in drop}, **changes}


_BAD_TUPLE = [{**A2_TUPLE["polys"][0], "denom": "x"}, A2_TUPLE["polys"][1]]
_BAD_KEY = [{"denom": 1, "terms": {"a": "1"}}, A2_TUPLE["polys"][1]]


@pytest.mark.parametrize("command, instance, tuple_", [
    ("verify", A2_INSTANCE, {"polys": _BAD_TUPLE}),
    ("verify", A2_INSTANCE, {"polys": _BAD_KEY}),
    ("verify", _with(A2_INSTANCE, cartan={"series": "A", "rank": "two"}),
     A2_TUPLE),
    ("verify", _with(A2_INSTANCE, M="two"), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, sigma="(1 x)"), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, drop=("omega",), omega_power="z"), A2_TUPLE),
    ("fold", "A2x", None),
    ("fold", json.dumps({"matrix": [[2, "a"], [-1, 2]]}), None),
    ("fold", "{not json", None),
    ("verify", _with(A2_INSTANCE, sigma=5), A2_TUPLE),
    # a JSON float or string is no JSON integer, even when it reads as one
    ("verify", _with(A2_INSTANCE, cartan={"series": "A", "rank": 2.9}),
     A2_TUPLE),
    ("verify", _with(A2_INSTANCE, cartan={"series": "A", "rank": "2"}),
     A2_TUPLE),
    ("verify", A2_INSTANCE, {"polys": [{**A2_TUPLE["polys"][0], "denom": 1.0},
                                       A2_TUPLE["polys"][1]]}),
])
def test_cli_non_integer_document_fields(docs, capsys, command, instance,
                                         tuple_):
    _, _, tmp_path = docs
    if command == "fold":
        argv = ["fold", "--cartan", instance, "--sigma", "(1 2)"]
    else:
        inst, tup = tmp_path / "bad-instance.json", tmp_path / "bad-tuple.json"
        inst.write_text(json.dumps(instance))
        tup.write_text(json.dumps(tuple_))
        argv = [command, "--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(argv) == 2
    assert _error_record(capsys)["kind"] == "InputError"


def _tuple_with_terms(terms):
    return {"polys": [{"denom": 1, "terms": terms}, A2_TUPLE["polys"][1]]}


@pytest.mark.parametrize("command, instance, tuple_", [
    ("verify", _with(A2_INSTANCE, omega=-1), A2_TUPLE),
    ("verify", A2_INSTANCE, _tuple_with_terms({"0": -1, "3": "1"})),
    ("verify", A2_INSTANCE, _tuple_with_terms({"0": "-1", "3": 1.5})),
    ("validate", _with(A2_INSTANCE, lambda0=[0.1, 0.1]), None),
    ("validate", _with(A2_INSTANCE, lambda0=[0.5, 0.5]), None),
    ("validate", _with(A2_INSTANCE, lambda0=[1, 1]), None),
    ("verify", A2_INSTANCE, {"polys": 5}),
    ("verify", A2_INSTANCE, _tuple_with_terms(["1"])),
    # a JSON string iterates like an array, but is none
    ("verify", _with(A2_INSTANCE, lambda0="11"), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, points="12",
                     site_weights=[["0", "0"], ["0", "0"]]), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, points=["1"], site_weights=["00"]),
     A2_TUPLE),
    # so do the cartan entry, its series, its matrix rows and d
    ("verify", _with(A2_INSTANCE, cartan=5), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, cartan={"matrix": [5, 6]}), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, cartan={"series": 5, "rank": 2}), A2_TUPLE),
    ("verify", _with(A2_INSTANCE, cartan={"matrix": [[2, -1], [-1, 2]],
                                          "d": 5}), A2_TUPLE),
    # and a ragged matrix
    ("verify", _with(A2_INSTANCE, cartan={"matrix": [[2], [-1, 2]]}),
     A2_TUPLE),
    # a tuple's "field" is a JSON integer from 1 to MAX_FIELD_ORDER
    *(("verify", A2_INSTANCE, _with(A2_TUPLE, field=field)) for field in (
        0, -4, "4", 2.5, True, serialize.MAX_FIELD_ORDER + 1)),
])
def test_cli_scalars_and_containers_keep_their_json_types(
        docs, capsys, command, instance, tuple_):
    _, _, tmp_path = docs
    inst = tmp_path / "bad-instance.json"
    inst.write_text(json.dumps(instance))
    argv = [command, "--instance", str(inst)]
    if tuple_ is not None:
        tup = tmp_path / "bad-tuple.json"
        tup.write_text(json.dumps(tuple_))
        argv += ["--tuple", str(tup)]
    assert cli.main(argv) == 2
    assert _error_record(capsys)["kind"] == "InputError"


def test_cli_refuses_a_poly_too_wide_for_its_dense_form(docs, capsys):
    # x^(10^9) would make a dense form of 10^9 + 1 entries: the document
    # layer refuses it before any quasi-polynomial is built
    _, _, tmp_path = docs
    inst, tup = tmp_path / "a2.json", tmp_path / "wide.json"
    inst.write_text(json.dumps(A2_INSTANCE))
    tup.write_text(json.dumps(_tuple_with_terms({"0": "-1",
                                                 "1000000000": "1"})))
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--instance", str(inst),
                         "--tuple", str(tup)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 24
    error = _error_record(capsys)
    assert error["kind"] == "InputError"
    assert str(serialize.MAX_DENSE_SPAN) in error["message"]
    # the span counts steps of 1/denom; the limit itself is accepted
    limit = serialize.MAX_DENSE_SPAN
    assert serialize.qpoly_from_doc(
        {"denom": 1, "terms": {"0": "-1", str(limit): "1"}}).degree == limit
    with pytest.raises(InputError, match=str(limit)):
        serialize.qpoly_from_doc(
            {"denom": 2, "terms": {"1": "1", str(limit + 2): "1"}})
    # a zero coefficient adds no dense entry
    assert serialize.qpoly_from_doc(
        {"denom": 1, "terms": {"0": "1", "1000000000": "0"}}) == 1


def test_check_numeric_refuses_a_degree_over_its_limit(docs, capsys):
    # the Aberth iteration would build n x n complex arrays, and the
    # gradient check evaluates the master function 4n times: the refusal
    # comes before numpy builds any array
    from cybethe import numerics  # numpy's import is not the request's
    _, _, tmp_path = docs
    inst, tup = tmp_path / "a2.json", tmp_path / "high.json"
    inst.write_text(json.dumps(A2_INSTANCE))
    limit = numerics.MAX_DEGREE
    args = ["check-numeric", "--instance", str(inst), "--tuple", str(tup)]
    tup.write_text(json.dumps(_tuple_with_terms({"0": "-2",
                                                 str(limit + 1): "1"})))
    tracemalloc.start()
    try:
        code = cli.main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 19
    error = _error_record(capsys)
    assert error["kind"] == "InputError" and str(limit) in error["message"]
    # the limit itself is accepted: the check runs and reports
    tup.write_text(json.dumps(_tuple_with_terms({"0": "-2",
                                                 str(limit): "1"})))
    assert cli.main(args) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert len(report["per_root"]) == limit + 3


def _rank_instance(rank, lambda0_length=None):
    n = rank if lambda0_length is None else lambda0_length
    return {"cartan": {"series": "A", "rank": rank}, "sigma": "()", "M": 1,
            "omega": "1", "points": [], "site_weights": [],
            "lambda0": ["0"] * n}


def test_cli_refuses_a_rank_over_its_limit(tmp_path, capsys):
    # a series tag builds a rank x rank matrix from the rank alone: the
    # refusal comes before it exists
    limit = cartan.MAX_RANK
    inst = tmp_path / "instance.json"
    for rank in (limit + 1, 10 ** 30):
        for argv in (["validate", "--instance", str(inst)],
                     ["fold", "--cartan", f"A{rank}", "--sigma", "()"],
                     ["lambda0", "--rank", str(rank)]):
            inst.write_text(json.dumps(_rank_instance(rank, 2)))
            tracemalloc.start()
            try:
                code = cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and peak < 1 << 19, argv
            error = _error_record(capsys)
            assert error["kind"] == "InputError", argv
            assert str(limit) in error["message"], argv
    # the limit itself is accepted
    inst.write_text(json.dumps(_rank_instance(limit)))
    assert cli.main(["validate", "--instance", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert cli.main(["lambda0", "--rank", str(limit)]) == 0
    assert len(json.loads(capsys.readouterr().out)["lambda0"]) == limit


def test_cli_typea_refuses_a_rank_over_its_limit(tmp_path, capsys,
                                                monkeypatch):
    # the Wronskian table of the R+1 basis vectors has 2^(R+1) minors: the
    # refusal comes before any table is built
    from cybethe import typea
    limit = typea.MAX_TYPEA_RANK
    inst, tup = tmp_path / "instance.json", tmp_path / "tuple.json"
    io_args = ["--instance", str(inst), "--tuple", str(tup)]

    def write(rank):
        inst.write_text(json.dumps(_rank_instance(rank)))
        tup.write_text(json.dumps({"polys": [_ONE] * rank}))

    def no_table(fs):
        raise AssertionError("a Wronskian table was built")

    write(limit + 1)
    with monkeypatch.context() as patch:
        patch.setattr(typea, "wronskian_table", no_table)
        for command in (["typea", "analyze"], ["typea", "flow"]):
            assert cli.main(command + io_args) == 2, command
            error = _error_record(capsys)
            assert error["kind"] == "InputError", command
            assert str(limit) in error["message"], command
    # the limit itself is analysed and reported
    write(limit)
    assert cli.main(["typea", "analyze"] + io_args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frame_report"]["ok"] is True and report["self_dual"]
    assert len(report["basis"]) == limit + 1


def test_cli_check_numeric_refuses_a_value_out_of_the_float_range(
        docs, capsys):
    # the README tuple with "-1" followed by 400 zeros, then a marked point
    # of that size: each is an input error, not an OverflowError
    inst, tup, tmp_path = docs
    huge = "1" + "0" * 400
    big_tuple, big_point = tmp_path / "big.json", tmp_path / "point.json"
    big_tuple.write_text(json.dumps(_tuple_with_terms({"0": "-" + huge,
                                                       "3": "1"})))
    big_point.write_text(json.dumps(_with(
        A2_INSTANCE, points=[huge], site_weights=[["1", "1"]])))
    for instance, tuple_, what in ((inst, big_tuple, "y_0"),
                                   (big_point, tup, "point")):
        assert cli.main(["check-numeric", "--instance", str(instance),
                         "--tuple", str(tuple_)]) == 2
        error = _error_record(capsys)
        assert error["kind"] == "InputError" and what in error["message"]


@pytest.mark.parametrize("changes", [
    {"lambda0": ["0"] * 2},
    {"points": ["1"], "site_weights": [["0"] * 3]},
    {"sigma": [1, 2, 3]},
    {"sigma": "[1, 2, 3]"},
])
def test_cli_checks_lengths_against_the_rank_before_the_matrix(
        tmp_path, capsys, monkeypatch, changes):
    def refuse(*args):
        raise AssertionError("the Cartan matrix was built")

    monkeypatch.setattr(cartan.CartanData, "series", staticmethod(refuse))
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps({**_rank_instance(cartan.MAX_RANK),
                                **changes}))
    assert cli.main(["validate", "--instance", str(inst)]) == 2
    error = _error_record(capsys)
    assert error["kind"] == "InputError"
    assert str(cartan.MAX_RANK) in error["message"]


@pytest.mark.parametrize("extra", [
    ["generate", "--direction", "0", "--c", "1"],
    ["generate", "--direction", "2", "--c", "1"],
    ["generate", "--direction", "9", "--c", "1"],
    ["populate", "--depth", "-1"],
    ["populate", "--samples="],
    ["populate", "--samples=,"],
    ["lambda0", "--rank", "0"],
    ["lambda0", "--rank", "-1"],
])
def test_cli_out_of_range_arguments(docs, capsys, extra):
    inst, tup, _ = docs
    files = [] if extra[0] == "lambda0" else ["--instance", inst,
                                             "--tuple", tup]
    argv = [extra[0]] + files + extra[1:]
    assert cli.main(argv) == 2
    assert _error_record(capsys)["kind"] == "InputError"


def test_cli_populate_depth0_is_root_only(docs, capsys):
    inst, tup, _ = docs
    assert cli.main(["populate", "--instance", inst, "--tuple", tup,
                     "--depth", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [node["id"] for node in doc["nodes"]] == [0]


@pytest.mark.parametrize("extra", [
    ["generate", "--direction", "1", "--c", "-1/2"],
    ["populate", "--samples", "-1/2,2"],
    ["typea", "flow", "--c", "-1,2"],
])
def test_cli_negative_scalar_as_separate_argument(docs, capsys, extra):
    inst, tup, _ = docs
    *head, option, value = extra
    files = ["--instance", inst, "--tuple", tup]
    assert cli.main(head + files + [option, value]) == 0
    separate = capsys.readouterr().out
    assert cli.main(head + files + [f"{option}={value}"]) == 0
    assert capsys.readouterr().out == separate
    assert json.loads(separate)


@pytest.mark.parametrize("sigma", [
    "1 4 2 3", "(1 4)(2 3", "(1 4)(2 3)(1 4)", "[4, 3", "(1 2 1)",
])
def test_cli_fold_rejects_malformed_sigma(capsys, sigma):
    assert cli.main(["fold", "--cartan", "A4", "--sigma", sigma]) == 2
    assert _error_record(capsys)["kind"] == "InputError"


def test_cli_fold_sigma_as_json_array(capsys):
    assert cli.main(["fold", "--cartan", "A4", "--sigma", "(1 4)(2 3)"]) == 0
    cycles = capsys.readouterr().out
    assert cli.main(["fold", "--cartan", "A4", "--sigma", "[4,3,2,1]"]) == 0
    assert capsys.readouterr().out == cycles


def test_perm_identity_and_separators():
    assert serialize.perm_from_doc("()", 3).perm == (0, 1, 2)
    assert serialize.perm_from_doc("(1 4) (2,3)", 4).perm == (3, 2, 1, 0)


def test_readme_quickstart(tmp_path, monkeypatch):
    """Every command of the README's CLI quickstart exits 0 on its own
    documents."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI quickstart.*?```sh\n(.*?)```", readme,
                      re.S).group(1)
    for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block,
                                 re.S | re.M):
        (tmp_path / name).write_text(body)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cybethe ")]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line


A4_INSTANCE = {
    "cartan": {"series": "A", "rank": 4},
    "sigma": "(1 4)(2 3)",
    "M": 2,
    "omega": "-1",
    "points": [],
    "site_weights": [],
    "lambda0": ["0", "1/2", "1/2", "0"],
}
_ONE = {"denom": 1, "terms": {"0": "1"}}


@pytest.mark.parametrize("polys", [[_ONE] * 2, [_ONE] * 5, []],
                         ids=["short", "long", "empty"])
@pytest.mark.parametrize("command", [
    ["verify"],
    ["generate", "--direction", "1", "--c", "1"],
    ["populate", "--depth", "1"],
    ["typea", "analyze"],
    ["typea", "flow"],
    ["eigenvalues"],
    ["check-numeric"],
], ids=lambda argv: argv[-1] if argv[0] == "typea" else argv[0])
def test_cli_tuple_length_must_be_the_rank(tmp_path, capsys, command, polys):
    inst, tup = tmp_path / "a4.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps(A4_INSTANCE))
    tup.write_text(json.dumps({"polys": polys}))
    argv = command + ["--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(argv) == 2
    error = _error_record(capsys)
    assert error["kind"] == "InputError"
    assert f"has {len(polys)} components" in error["message"]


# A3 with the flip, omega = -1, one marked point and a half-odd origin
# weight: the L1 family of the trivial tuple solves to a quasi-polynomial
# (2/7*x^(7/2) - 2/3*x^(3/2) for the first site weight, 2/3*x^(3/2) for
# the second), which no tuple component may be
_A3_POINT = {
    "cartan": {"series": "A", "rank": 3},
    "sigma": "(1 3)",
    "M": 2,
    "omega": "-1",
    "points": ["1"],
    "lambda0": ["1/2", "0", "1/2"],
}


@pytest.mark.parametrize("site_weight", [["1", "0", "1"], ["0", "2", "0"]])
@pytest.mark.parametrize("command", [
    ["populate", "--depth", "2", "--samples", "1,2,-1/2"],
    ["generate", "--direction", "1", "--c", "1"],
], ids=lambda argv: argv[0])
def test_cli_l1_family_off_the_polynomials_is_an_input_error(
        tmp_path, capsys, command, site_weight):
    inst, tup = tmp_path / "a3.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps({**_A3_POINT, "site_weights": [site_weight]}))
    tup.write_text(json.dumps({"polys": [_ONE] * 3}))
    argv = command + ["--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(argv) == 2
    error = _error_record(capsys)
    assert error["kind"] == "InputError"
    assert error["message"] == \
        "tuple components must be ordinary polynomials"


@pytest.mark.parametrize("site_weight", [["1", "0", "1"], ["0", "2", "0"]])
def test_cli_l1_direction_off_the_lambda0_rule_is_an_input_error(
        tmp_path, capsys, site_weight):
    # node 2 has L = 1, and <L0, a_2^vee> + 1 = 1 is odd: its family loses
    # cyclotomic symmetry, so generation refuses the direction, as
    # `validate` refuses the instance
    inst, tup = tmp_path / "a3.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps({**_A3_POINT, "site_weights": [site_weight]}))
    tup.write_text(json.dumps({"polys": [_ONE] * 3}))
    rule = "node 1: L=1 needs <L0,a^vee>+1 = 0 mod 2, got 0"
    assert cli.main(["validate", "--instance", str(inst)]) == 1
    assert rule in json.loads(capsys.readouterr().out)["violations"]
    assert cli.main(["generate", "--instance", str(inst), "--tuple", str(tup),
                     "--direction", "2", "--c", "1"]) == 2
    error = _error_record(capsys)
    assert error["kind"] == "InputError" and error["message"] == rule


@pytest.mark.parametrize("pairing, rule", [
    ("-3/2", "L=2 needs 2<L0,a^vee>+1 >= 0, got -3/2"),
    ("-5/2", "L=2 needs 2<L0,a^vee>+1 >= 0, got -5/2"),
    ("1", "L=2 needs a half-odd pairing, got 1"),
])
@pytest.mark.parametrize("command", [
    ["populate", "--depth", "1", "--samples", "1,2,-1/2"],
    ["generate", "--direction", "1", "--c", "1"],
], ids=lambda argv: argv[0])
def test_cli_l2_direction_off_the_lambda0_rule_is_an_input_error(
        tmp_path, capsys, command, pairing, rule):
    # both nodes of the A2 flip have L = 2: generation refuses the
    # direction before any solve, with the violation `validate` prints
    inst, tup = tmp_path / "a2.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps({**A2_INSTANCE, "lambda0": [pairing] * 2}))
    tup.write_text(json.dumps({"polys": [_ONE] * 2}))
    assert cli.main(["validate", "--instance", str(inst)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        f"node {i}: {rule}" for i in (0, 1)]
    argv = command + ["--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(argv) == 2
    error = _error_record(capsys)
    assert error["kind"] == "InputError"
    assert error["message"] == f"node 0: {rule}"


_A3_FLIP = {"cartan": {"series": "A", "rank": 3}, "sigma": "(1 3)", "M": 2,
            "omega": "-1", "lambda0": ["0", "1", "0"]}


def _linear(root):
    return {"denom": 1, "terms": {"0": str(-root), "1": "1"}}


@pytest.mark.parametrize("instance, polys, message", [
    # generic and critical, but not cyclotomic (`verify` exits 1 on both)
    ("D4", [_linear(1), _ONE, _ONE, _ONE], "seed is not cyclotomic"),
    ("A3", [_linear(-1), _ONE, _ONE], "seed is not cyclotomic"),
    # cyclotomic and generic, but not critical
    ("A2", [_linear(1), _linear(-1)], "seed is not an exact critical point"),
], ids=["D4", "A3", "A2"])
def test_cli_generate_refuses_a_seed_as_populate_does(tmp_path, capsys,
                                                      instance, polys,
                                                      message):
    from test_catalog_pins import D4_DOC
    doc = {"D4": D4_DOC, "A3": _A3_FLIP, "A2": A2_INSTANCE}[instance]
    inst, tup = tmp_path / "instance.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps(doc))
    tup.write_text(json.dumps({"polys": polys}))
    io = ["--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(["verify"] + io) == 1
    capsys.readouterr()
    commands = [["populate", "--depth", "1"]] + [
        ["generate", "--direction", str(d), "--c", "1"]
        for d in range(1, len(polys) + 1)]
    for command in commands:
        assert cli.main(command + io) == 2, command
        assert _error_record(capsys) == {"kind": "SeedInvalid",
                                         "message": message}, command


@pytest.mark.parametrize("polys, message", [
    # cyclotomic and generic, but not critical
    ([_linear(1), _linear(-1)], "seed is not an exact critical point"),
    # cyclotomic, but y_1 = y_2 = x^2 - 1
    ([{"denom": 1, "terms": {"0": "-1", "2": "1"}}] * 2,
     "seed not generic: y_0 shares a root with y_1"),
], ids=["not critical", "not generic"])
def test_cli_typea_flow_refuses_a_seed_as_generate_does(tmp_path, capsys,
                                                        polys, message):
    # the X flow proves each generation member it compares only on the
    # moved orbit, which holds for the member of a proven seed; so it
    # proves the seed first (before, the type-A kernel refused both seeds
    # with NoSolution)
    inst, tup = tmp_path / "instance.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps(A2_INSTANCE))
    tup.write_text(json.dumps({"polys": polys}))
    io = ["--instance", str(inst), "--tuple", str(tup)]
    assert cli.main(["verify"] + io) == 1
    capsys.readouterr()
    assert cli.main(["typea", "flow", "--generator", "X", "--k", "1",
                     "--c", "1"] + io) == 2
    assert _error_record(capsys) == {"kind": "SeedInvalid",
                                     "message": message}


@pytest.mark.parametrize("generator, k", [("X", 0), ("Y", 1)])
def test_cli_typea_flow_refuses_a_generator_before_any_work(
        tmp_path, capsys, monkeypatch, generator, k):
    # on A4 with p = 2 the generators are X_1 and X_2: X_0 and Y_1 are
    # refused with the message `flow_generator` gives, read off the
    # instance before the seed is proven or any kernel space is built
    from cybethe import typea
    from test_catalog_pins import A4_DOC
    monkeypatch.setattr(typea, "kernel_basis",
                        lambda *a: pytest.fail("kernel_basis was called"))
    inst, tup = tmp_path / "instance.json", tmp_path / "tuple.json"
    inst.write_text(json.dumps(A4_DOC))
    tup.write_text(json.dumps(serialize.tuple_doc(BetheTuple.trivial(4), 2)))
    assert cli.main(["typea", "flow", "--generator", generator, "--k",
                     str(k), "--c", "1", "--instance", str(inst),
                     "--tuple", str(tup)]) == 2
    assert _error_record(capsys) == {
        "kind": "InputError",
        "message": f"{generator}_{k} is not a flow generator of this space"}


# --- every scalar written by its value ----------------------------------

def test_a_value_is_written_alike_whatever_its_path():
    # h = (f + g) - f, with f = i x over Q(zeta_4) and g = zeta_3, is held
    # at order 12, where zeta_3 is w^2 - 1; it is written as g is, in the
    # least field that holds it, or in Q(zeta_6) for an instance of order 6
    f, g = QPoly({1: Cyc.root_of_unity(4)}), Cyc.root_of_unity(3)
    h = (f + g) - f
    assert h == g and h.field_order() == 12
    assert serialize.scalar_str(h.coeff(0)) == serialize.scalar_str(g) == "w"
    assert serialize.qpoly_doc(h) == serialize.qpoly_doc(
        QPoly.constant(g)) == {"denom": 1, "terms": {"0": "w"}}
    assert serialize.tuple_doc([h]) == serialize.tuple_doc(
        [QPoly.constant(g)]) == {"field": 3, "polys": [serialize.qpoly_doc(h)]}
    assert serialize.tuple_doc([h], 6) == {
        "polys": [{"denom": 1, "terms": {"0": "w - 1"}}]}


def _conductor_reference(value):
    """The least d | L, d != 2 mod 4, with the value of order L in
    Q(zeta_d): the first d whose power basis, promoted into Q(zeta_L),
    spans the value, by one exact solve each."""
    from cybethe import linalg
    L = value.order
    for d in (d for d in range(1, L + 1) if L % d == 0 and d % 4 != 2):
        basis = [Cyc.root_of_unity(d, j).promote(L).vec
                 for j in range(len(cyclotomic_polynomial(d)) - 1)]
        if linalg.solve([list(row) for row in zip(*basis)],
                        list(value.vec)) is not None:
            return d


def test_a_section_is_written_at_the_conductors_of_its_values():
    # the conductor of a value is the least d with the value in Q(zeta_d),
    # wherever the value is held; a section is written at the lcm of M and
    # its conductors, recorded where that is not M
    from cybethe.typea import rational_sqrt
    rng = random.Random(34)
    for _ in range(300):
        L = rng.randint(1, 40)
        d = rng.choice([d for d in range(1, L + 1) if L % d == 0])
        value = Cyc(d, [F(rng.randint(-3, 3), rng.randint(1, 3))
                        for _ in cyclotomic_polynomial(d)[1:]])
        if rng.random() < 0.3:
            value = value * Cyc.root_of_unity(L, rng.randrange(L))
        held = value.promote(L)
        want = _conductor_reference(held)
        assert serialize._order(1, [held]) == want, held
        text = serialize.scalar_str(held)
        assert serialize.parse_scalar(text, want) == value
        assert text == serialize.scalar_str(value)
    w = Cyc.root_of_unity
    cases = [(Cyc.of(F(-2, 3), 12), 1), (w(12, 3), 4), (w(12, 4), 3),
             (w(12), 12), (w(6), 3), (w(8) + w(8, 7), 8), (w(4, 2), 1),
             (rational_sqrt(21).promote(84), 21), (rational_sqrt(-3), 3),
             (rational_sqrt(2).promote(24) * w(3), 24),
             (rational_sqrt(5).promote(20), 5)]
    for value, conductor in cases:
        for L in (value.order, 2 * value.order):
            held = value.promote(L)
            doc = {}
            serialize.put(doc, "value", [held, Cyc.of(1, 2)], 2)
            S = math.lcm(2, conductor)
            assert doc.get("fields", {}).get("value", 2) == S, value
            assert serialize.parse_scalar(doc["value"][0], S) == value
            text = serialize.scalar_str(held)
            assert text == serialize.scalar_str(value, conductor)
            assert serialize.parse_scalar(text, conductor) == value


def test_a_catalog_records_the_fields_of_its_parameters_and_tuples(a2):
    # with the sample i on A2 (M = 2), the members leave Q: each tuple
    # records its own field, and the parameters theirs once per catalog
    from cybethe.genengine import explore_population
    inst, fold = a2
    i = Cyc.root_of_unity(4)
    graph = explore_population(inst, fold, BetheTuple.trivial(2), 1,
                               [i, F(1)])
    doc = json.loads(serialize.dumps(serialize.catalog_doc(graph)))
    assert doc["fields"] == {"c": 4}
    fields = [entry["tuple"].get("field") for entry in doc["nodes"]]
    assert fields == [None, 4, None]
    for node, entry in zip(graph.nodes[1:], doc["nodes"][1:]):
        assert serialize.parse_scalar(entry["c"], 4) == node.step.c
        assert serialize.tuple_from_doc(entry["tuple"], inst.M) == \
            node.tuple_


def test_a_flow_tuple_reads_back_at_its_recorded_order(tmp_path, capsys):
    # Z_1 on the trivial seed of A4 with lambda0 = (1/2, 0, 0, 1/2) writes
    # a tuple over Q(zeta_4) and records its order; read back at it, that
    # is a generic, critical and cyclotomic tuple (read at M = 2 it would
    # have y_1 = (x - 4/35)^2)
    inst, seed, tup = (tmp_path / name for name in ("i", "s", "t"))
    inst.write_text(json.dumps(A4_HALVES))
    seed.write_text(json.dumps({"polys": [{"denom": 1, "terms": {"0": "1"}}]
                                * 4}))
    assert cli.main(["typea", "flow", "--instance", str(inst), "--tuple",
                     str(seed), "--generator", "Z", "--k", "1",
                     "--c", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fields"] == {"tuples": 4}
    tup.write_text(json.dumps({"polys": doc["tuples"][0]["tuple"],
                               "field": doc["fields"]["tuples"]}))
    assert cli.main(["verify", "--instance", str(inst), "--tuple",
                     str(tup)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generic"] and report["critical"] and report["cyclotomic"]


A4_HALVES = {"cartan": {"series": "A", "rank": 4}, "sigma": "(1 4)(2 3)",
             "M": 2, "omega": "-1", "lambda0": ["1/2", "0", "0", "1/2"]}


def _reads_back(doc, value, order):
    """True when doc, a section written at `order`, reads back as value: a
    scalar string, a quasi-polynomial document, or a list or dict of
    them; other leaves compare as they are."""
    if isinstance(doc, str) and not isinstance(value, str):
        return serialize.parse_scalar(doc, order) == value
    if isinstance(doc, dict) and "terms" in doc:
        return serialize.qpoly_from_doc(doc, order) == value
    if isinstance(doc, dict):
        return doc.keys() == value.keys() and all(
            _reads_back(doc[k], value[k], order) for k in doc)
    if isinstance(doc, list):
        value = list(value)
        return len(doc) == len(value) and all(
            _reads_back(d, v, order) for d, v in zip(doc, value))
    return doc == value


def _sections(command, inst, y):
    """{key: value} of the scalar sections that `command` writes, computed
    in process as the command computes them; None for a command that
    refuses its input."""
    from cybethe.cartan import orbit_data
    from cybethe.errors import CybetheError, NotSelfDual
    from cybethe.frame import eigenvalues, weight_at_infinity
    from cybethe.typea import (apply_flow, beta, cyclotomic_population,
                               flow_vs_generation, gram_matrix, kernel_basis,
                               witt_basis)
    if command == ["verify"]:
        return {"lambda_infinity": weight_at_infinity(inst, y).pairings}
    if command == ["eigenvalues"]:
        res = eigenvalues(inst, y)
        return {"cyclotomic": res["cyclotomic"], "extended": res["extended"]}
    space, flag = kernel_basis(inst, y)
    if command[1] == "analyze":
        out = {"basis": space.basis, "beta_roundtrip": beta(space,
                                                             flag.adjusted)}
        try:
            out["b_matrix_special_basis"] = gram_matrix(space)
        except NotSelfDual:
            return out
        wb = witt_basis(space, flag.adjusted,
                        "--quadratic-extension" in command)
        out["witt"] = {"vectors": wb.vectors, "constants": wb.constants,
                       "gram": wb.gram}
        if "--members" in command:
            out["population"] = cyclotomic_population(
                inst, space, witt_basis(space, flag.adjusted),
                int(command[command.index("--members") + 1]))["members"]
        return out
    kind, cs = command[3], [serialize.parse_scalar(c, inst.M)
                            for c in command[5].split(",")]
    try:
        if kind == "X":
            return {"rho": flow_vs_generation(
                inst, orbit_data(inst.cartan, inst.aut), y, 1, cs)["rho"]}
        wb = witt_basis(space, flag.adjusted)
        return {"tuples": [{"c": c, "tuple": [q.monic() for q in apply_flow(
            space, wb, (kind, 1), c)[1]]} for c in cs]}
    except CybetheError:
        return None


def test_every_scalar_reads_back_at_its_sections_order(tmp_path, capsys):
    # every scalar string of a type-A output, parsed at the order its
    # section records (M where it records none; a tuple document's own
    # "field"; a space's "field" for its basis), is the value computed in
    # process: the type-A commands on the README A2 tuple, also with
    # --members 3, on A4 with lambda0 = (1/2, 0, 0, 1/2), whose Z flows
    # leave Q, and on the 40 A4 catalog nodes
    from test_catalog_pins import A4_CATALOG, A4_DOC, TYPEA_COMMANDS
    trivial = {"polys": [{"denom": 1, "terms": {"0": "1"}}] * 4}
    runs = [(A2_INSTANCE, A2_TUPLE, TYPEA_COMMANDS + (
        ["typea", "analyze", "--members", "3"],
        ["typea", "analyze", "--quadratic-extension", "--members", "3"])),
        (A4_HALVES, trivial, TYPEA_COMMANDS + tuple(
            ["typea", "flow", "--generator", g, "--c", "1,-1/2,2"]
            for g in "YZ"))]
    runs += [(A4_DOC, node["tuple"], TYPEA_COMMANDS)
             for node in json.loads(A4_CATALOG.read_text())["nodes"]]
    inst_path, tuple_path = tmp_path / "instance", tmp_path / "tuple"
    read, orders = 0, set()
    for instance, tuple_, commands in runs:
        inst_path.write_text(json.dumps(instance))
        tuple_path.write_text(json.dumps(tuple_))
        inst = serialize.instance_from_doc(instance)
        y = serialize.tuple_from_doc(tuple_, inst.M)
        for command in commands:
            cli.main(command + ["--instance", str(inst_path), "--tuple",
                                str(tuple_path)])
            doc = json.loads(capsys.readouterr().out)
            sections = _sections(command, inst, y)
            assert ("error" in doc) == (sections is None), command
            for key, value in (sections or {}).items():
                order = doc["field"] if key == "basis" else \
                    doc.get("fields", {}).get(key, inst.M)
                if key == "population":
                    got = [serialize.tuple_from_doc(t, inst.M)
                           for t in doc[key]["members"]]
                    assert got == value and len(got) == 3
                else:
                    assert _reads_back(doc[key], value, order), (command, key)
                orders.add(order)
                read += 1
    assert read > 500 and orders == {2, 4, 8}
