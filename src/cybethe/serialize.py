"""JSON document layer.

All exact scalars travel as strings: rationals as "p/q", cyclotomic values
in the field generator w as e.g. "2/3*w^2 - w + 1" (with the field order
recorded once per document where it is not implied by the instance).
Serialization is canonical within one field: exponent keys sorted
numerically, dict keys emitted in a fixed order, and a scalar printed in
the generator w of its own field Q(zeta_M), so equal values of the same
field order produce identical bytes.  The same value in another field
prints differently: i is "w" in Q(zeta_4) and "w^3" in Q(zeta_12).
"""

import json
import re
from fractions import Fraction
from functools import partial
from math import lcm

from .cartan import (CartanData, DiagramAut, ProblemInstance, Weight,
                     check_rank)
from .errors import InputError
from .scalars import Cyc, _text

# `qpoly` and `frame` are imported where a document first needs them, so
# that `fold`, `lambda0` and reading an instance load neither.


# --- scalars -------------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?(?:w(?:\^(\d+))?)?\s*$")


def _typed(value, kind, what):
    """value when it is an instance of kind, else InputError: a document
    field must arrive as its JSON type."""
    if not isinstance(value, kind):
        raise InputError(f"{what}, got {value!r}")
    return value


def _fraction(text):
    try:
        return Fraction(_typed(text, str, "an exact scalar must be a string"))
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise InputError(f"not a rational number: {text!r}") from None


def _int(value, what):
    """An integer field of a document: a JSON integer, else InputError."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _int_text(text, what):
    """The integer written in the string text, such as an exponent key,
    else InputError."""
    try:
        return int(_typed(text, str, f"{what} must be an integer string"))
    except ValueError:
        raise InputError(f"{what} must be an integer, got {text!r}") from None


def _field(doc, key):
    """doc[key]; a missing key or a document that is no object is an
    InputError."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise InputError(f"document has no {key!r} entry") from None


def scalar_str(value):
    if isinstance(value, Cyc):
        return str(value)
    return str(Fraction(value))


def parse_scalar(text, order=1):
    """Parse "p/q" or a polynomial in w into a Cyc of at least `order`."""
    text = _typed(text, str, "an exact scalar must be a string").strip()
    if not text:
        raise InputError("empty scalar string")
    chunks = re.split(r"(?=[+-])(?![^(]*\))", text.replace(" ", ""))
    total = Cyc.of(0, order)
    for chunk in chunks:
        if not chunk:
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group(2) is None and "w" not in chunk):
            raise InputError(f"cannot parse scalar term {chunk!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = _fraction(m.group(2)) if m.group(2) else Fraction(1)
        if "w" in chunk:
            power = int(m.group(3)) if m.group(3) else 1
            if order < 2:
                raise InputError("cyclotomic generator in a rational context")
            total = total + Cyc.root_of_unity(order, power) * (sign * coeff)
        else:
            total = total + Cyc.of(sign * coeff, order)
    return total


# --- quasi-polynomials ---------------------------------------------------

def qpoly_doc(p):
    """{"denom": D, "terms": {"e*D": scalar string}} with sorted keys,
    written from the integer layout of p without building a `Cyc`."""
    nums = p.nums if p.L > 2 else [(n,) for n in p.nums]
    return {"denom": p.D, "terms": {
        str(k): _text(n, p.den) for k, n in zip(p.ks, nums)}}


# The largest (degree - low exponent) * denom of a quasi-polynomial read
# from a document: gcds and divisions lay out one dense entry per step.
MAX_DENSE_SPAN = 1 << 16


def qpoly_from_doc(doc, order=1):
    d = _int(_field(doc, "denom"), "denom")
    if d == 0:
        raise InputError("denom must be nonzero")
    terms = _typed(_field(doc, "terms"), dict, "terms must be an object")
    from .qpoly import QPoly
    p = QPoly({Fraction(_int_text(k, "exponent key"), d):
               parse_scalar(v, order) for k, v in terms.items()})
    if p and (p.degree - p.low_exponent) * p.denom > MAX_DENSE_SPAN:
        raise InputError(f"quasi-polynomial has (degree - low exponent) * "
                         f"denom over the limit of {MAX_DENSE_SPAN}")
    return p


# --- weights and cartan data ----------------------------------------------

def weight_doc(w):
    return [str(p) for p in w.pairings]


def weight_from_doc(doc, rank=None):
    """The Weight of an array of pairings; with `rank` given, an array of
    another length is an InputError."""
    pairings = _typed(doc, list, "a weight must be an array")
    if rank is not None and len(pairings) != rank:
        raise InputError(f"a weight has {len(pairings)} pairings, but the "
                         f"rank is {rank}")
    return Weight([_fraction(p) for p in pairings])


def _cartan_reader(doc):
    """(rank, build) of a cartan entry: its rank, checked against
    `cartan.MAX_RANK` before anything of that size exists, and the call
    that builds its CartanData."""
    doc = _typed(doc, (str, dict), "cartan must be a string or an object")
    if isinstance(doc, str):
        name, rank = doc[:1], _int_text(doc[1:], "series rank")
    elif "series" in doc:
        name = _typed(doc["series"], str, "series must be a string")
        rank = _int(_field(doc, "rank"), "rank")
    else:
        matrix = _typed(_field(doc, "matrix"), list, "matrix must be an array")
        rank = check_rank(len(matrix))
        rows = [[_int(x, "Cartan matrix entry") for x in _typed(
                    row, list, "a Cartan matrix row must be an array")]
                for row in matrix]
        d = doc.get("d")
        d = None if d is None else [_int(x, "symmetrizer") for x in _typed(
            d, list, "d must be an array")]
        return rank, partial(CartanData.from_matrix, rows, d)
    return check_rank(rank), partial(CartanData.series, name, rank)


def cartan_from_doc(doc):
    return _cartan_reader(doc)[1]()


def perm_from_doc(doc, n):
    """1-based image array, also as a JSON string like "[4, 3, 2, 1]", or
    cycle notation like "(1 4)(2 3)"; "()" is the identity."""
    if isinstance(doc, str) and doc.startswith("["):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputError(f"sigma is not a JSON array: {exc}") from None
    if isinstance(doc, str):
        if not re.fullmatch(r"\s*(\([^()]*\)\s*)*", doc):
            raise InputError(f"sigma {doc!r} is neither cycles like "
                             f"\"(1 4)(2 3)\" nor a JSON image array")
        perm, seen = list(range(n)), set()
        for cycle in re.findall(r"\(([^)]*)\)", doc):
            nodes = [_int_text(x, "sigma node") - 1
                     for x in re.split(r"[,\s]+", cycle.strip()) if x]
            if any(not 0 <= v < n for v in nodes):
                raise InputError(f"cycle {cycle!r} out of range")
            if seen.intersection(nodes) or len(set(nodes)) < len(nodes):
                raise InputError(f"sigma {doc!r} repeats a node")
            seen.update(nodes)
            for a, b in zip(nodes, nodes[1:] + nodes[:1]):
                perm[a] = b
        return DiagramAut(tuple(perm))
    if not isinstance(doc, (list, tuple)):
        raise InputError(
            f"sigma must be cycles or an image array, got {doc!r}")
    images = [_int(v, "sigma image") - 1 for v in doc]
    if len(images) != n or sorted(images) != list(range(n)):
        raise InputError(
            f"sigma must be a 1-based permutation of 1..{n}, got {doc}")
    return DiagramAut(tuple(images))


# --- instances -------------------------------------------------------------

def instance_from_doc(doc):
    # sigma and the weights are checked against the rank before the Cartan
    # matrix is built
    rank, build_cartan = _cartan_reader(_field(doc, "cartan"))
    aut = perm_from_doc(_field(doc, "sigma"), rank)
    site_weights = tuple(weight_from_doc(w, rank) for w in _typed(
        doc.get("site_weights", []), list, "site_weights must be an array"))
    lambda0 = weight_from_doc(doc["lambda0"], rank) if "lambda0" in doc \
        else Weight.zero(rank)
    cartan = build_cartan()
    M = _int(doc.get("M", aut.order), "M")
    if M != aut.order:
        raise InputError(f"declared M = {M} but sigma has order {aut.order}")
    omega_power = _int(doc.get("omega_power", 1), "omega_power")
    if "omega" in doc:
        omega = parse_scalar(doc["omega"], M)
    else:
        omega = Cyc.root_of_unity(M, omega_power)
    points = tuple(parse_scalar(z, M) for z in _typed(
        doc.get("points", []), list, "points must be an array"))
    return ProblemInstance(cartan=cartan, aut=aut, omega=omega,
                           points=points, site_weights=site_weights,
                           lambda0=lambda0)


# --- tuples ----------------------------------------------------------------

def tuple_doc(y):
    return {"polys": [qpoly_doc(p) for p in y]}


def tuple_from_doc(doc, order=1):
    polys = [qpoly_from_doc(p, order) for p in _typed(
        _field(doc, "polys"), (list, tuple), "polys must be an array")]
    from .frame import BetheTuple
    return BetheTuple(polys)


def tuple_doc_json(y):
    return dumps(tuple_doc(y))


# --- population catalogs ----------------------------------------------------

def catalog_doc(graph):
    """Each node's "tuple" is read back from the key the BFS serialized."""
    nodes = []
    for node, key in zip(graph.nodes, graph.keys):
        entry = {
            "id": node.node_id,
            "parent": node.parent,
            "direction": None if node.step is None
            else node.step.direction + 1,
            "c": None if node.step is None else scalar_str(node.step.c),
            "tuple": json.loads(key),
            "lambda_infinity": weight_doc(node.lambda_inf),
            "flags": dict(sorted(node.flags.items())),
        }
        nodes.append(entry)
    return {"nodes": nodes}


# --- spaces -----------------------------------------------------------------

def space_doc(space):
    order = 1
    for u in space.basis:
        order = lcm(order, u.field_order())
    return {
        "field": order,
        "p": space.frame.p,
        "exponents": [str(d) for d in space.frame.d],
        "dual_exponents": [str(d) for d in space.frame.ddag],
        "basis": [qpoly_doc(u) for u in space.basis],
    }


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
