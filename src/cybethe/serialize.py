"""JSON document layer.

All exact scalars travel as strings: rationals as "p/q", cyclotomic values
in the field generator w as e.g. "2/3*w^2 - w + 1".  A scalar is written by
its value, never by the field its computation left it in: each section of
a document (a tuple, a basis, a Witt block, a matrix, a list of
eigenvalues) is written in Q(zeta_S), S = lcm(M, the conductors of its
values), M the instance's order, where the conductor of a value is the
least d with the value in Q(zeta_d) (so d != 2 mod 4).  Equal values
therefore give equal bytes, however they were computed.  Where S != M the
section records S: a tuple document in its own "field" key, which
`tuple_from_doc` reads, and any other section (`put`) under its key in
the document's "fields", such as "fields": {"witt": 8}.  A document whose
values all lie in Q(zeta_M) has neither key.  Serialization is otherwise
canonical: exponent keys sorted numerically and dict keys emitted in a
fixed order.
"""

import json
import re
from fractions import Fraction
from functools import partial
from math import lcm

from .cartan import (CartanData, DiagramAut, ProblemInstance, Weight,
                     check_rank)
from .errors import InputError
from .scalars import Cyc, _cyc, _factor, _reduce_mod_phi, _text

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


# The largest field order that a tuple document may name: each scalar
# there is read as deg Phi_field ints.
MAX_FIELD_ORDER = 1 << 12


def _lowered(L, num, p):
    """The numerator over Q(zeta_e), e = L/p for a prime p, of the value
    whose numerator over Q(zeta_L) is num (ints, as a Cyc holds them), or
    None unless Q(zeta_e) holds the value.

    When p | e, Phi_L(w) = Phi_e(w^p), so Q(zeta_e) is spanned by the w^k
    with p | k.  Otherwise zeta_L = zeta_p^u zeta_e^v with u e + v p = 1
    (mod L), so the value is sum_(j<p) A_j zeta_p^j with A_j in Q(zeta_e):
    sum_(j<p-1) (A_j - A_(p-1)) zeta_p^j on a basis of Q(zeta_L) over
    Q(zeta_e).  It lies in Q(zeta_e) iff A_j = A_(p-1) for 0 < j < p - 1,
    and is then A_0 - A_(p-1).
    """
    e = L // p
    if e % p == 0:
        return None if any(num[k] for k in range(len(num)) if k % p) \
            else num[::p]
    u, v, parts = pow(e, -1, p), pow(p, -1, e), [[0] * e for _ in range(p)]
    for k, x in enumerate(num):
        parts[u * k % p][v * k % e] += x
    low = [_reduce_mod_phi([x - y for x, y in zip(a, parts[-1])], e)
           for a in parts[:-1]]
    return None if any(map(any, low[1:])) else low[0]


def _conductor(L, num):
    """(f, the numerator over Q(zeta_f)) of the value whose numerator over
    Q(zeta_L) is num, for the least f with the value in Q(zeta_f): L
    lowered by one prime at a time while `_lowered` finds the value in the
    smaller field.  The primes lower independently, since the Galois
    group of Q(zeta_L) is the product of their parts."""
    for p, _ in _factor(L):
        while L % p == 0 and (low := _lowered(L, num, p)) is not None:
            L, num = L // p, low
    return L, num


def _order(M, values):
    """The order S = lcm(M, the conductors of values) that a section of
    Cycs, QPolys and rationals is written at.  A value held at an order
    that divides S adds nothing, so a section held in Q(zeta_M) is not
    tested."""
    S = M
    for v in values:
        L = v.order if isinstance(v, Cyc) else getattr(v, "L", 1)
        if L > 2 and S % L:
            S = lcm(S, *(_conductor(L, n)[0] for n in (
                [v.num] if isinstance(v, Cyc) else v.nums)))
    return S


def scalar_str(value, order=None):
    """The text of an exact scalar in the generator w of Q(zeta_order), an
    order that holds the value; by default the value's conductor."""
    value = Cyc.of(value)
    S = order or _order(1, [value])
    if S % value.order:  # held in a field above Q(zeta_S): lower it
        f, num = _conductor(value.order, value.num)
        value = _cyc(f, num, value.den)
    return str(value.promote(S))


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

def qpoly_doc(p, order=None):
    """{"denom": D, "terms": {"e*D": scalar string}} with sorted keys, each
    coefficient written as `scalar_str` writes it at `order`, by default
    the least order that holds every coefficient; written from the
    integer layout of p, without building a `Cyc`, when p is held at that
    order or is rational."""
    S = order or _order(1, [p])
    if p.L > 2 and p.L != S:
        return {"denom": p.D, "terms": {str(k): scalar_str(c, S) for k, c
                                        in zip(p.ks, p.terms.values())}}
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

def tuple_doc(y, M=1):
    """{"polys": [...]} of the tuple y of an instance of order M, with
    "field": S where its section order S is not M."""
    S = _order(M, y)
    field = {} if S == M else {"field": S}
    return {"polys": [qpoly_doc(p, S) for p in y], **field}


def tuple_from_doc(doc, order=1):
    """The BetheTuple of a tuple document, its strings read in Q(zeta_S),
    S = lcm(order, its "field"), a positive JSON integer up to
    `MAX_FIELD_ORDER` (default 1)."""
    polys = _typed(_field(doc, "polys"), (list, tuple),
                   "polys must be an array")
    field = doc.get("field", 1)
    if type(field) is not int or not 0 < field <= MAX_FIELD_ORDER:
        raise InputError(f"field must be an integer from 1 to "
                         f"{MAX_FIELD_ORDER}, got {field!r}")
    from .frame import BetheTuple
    return BetheTuple(qpoly_from_doc(p, lcm(order, field)) for p in polys)


def tuple_doc_json(y, M=1):
    return dumps(tuple_doc(y, M))


def put(doc, key, value, M):
    """Set doc[key] to the section of value, a nest of lists, tuples and
    dicts whose QPolys and exact scalars (Cyc, Fraction) are written at
    the section order S (module docstring), and record S in
    doc["fields"][key] where it is not M.  Other leaves, such as ints and
    strings, are kept as they are."""
    from .qpoly import QPoly

    def walk(v, leaf):
        if isinstance(v, (list, tuple)):
            return [walk(x, leaf) for x in v]
        if isinstance(v, dict):
            return {k: walk(x, leaf) for k, x in v.items()}
        return leaf(v) if isinstance(v, (Cyc, QPoly, Fraction)) else v
    values = []
    walk(value, values.append)
    S = _order(M, values)
    doc[key] = walk(value, lambda v: qpoly_doc(v, S) if isinstance(
        v, QPoly) else scalar_str(v, S))
    if S != M:
        doc.setdefault("fields", {})[key] = S


# --- population catalogs ----------------------------------------------------

def catalog_doc(graph):
    """Each node's "tuple" is read back from the key the BFS serialized;
    the "c" of every node form one section of the catalog, written for
    the instance of order `graph.order`."""
    doc = {}
    put(doc, "c", [None if node.step is None else node.step.c
                   for node in graph.nodes], graph.order)
    doc["nodes"] = [{
        "id": node.node_id,
        "parent": node.parent,
        "direction": None if node.step is None else node.step.direction + 1,
        "c": c,
        "tuple": json.loads(key),
        "lambda_infinity": weight_doc(node.lambda_inf),
        "flags": dict(sorted(node.flags.items())),
    } for node, key, c in zip(graph.nodes, graph.keys, doc.pop("c"))]
    return doc


# --- spaces -----------------------------------------------------------------

def space_doc(space, M):
    """The frame and special basis of a space of an instance of order M;
    "field" is the order its basis is written at."""
    S = _order(M, space.basis)
    return {
        "field": S,
        "p": space.frame.p,
        "exponents": [str(d) for d in space.frame.d],
        "dual_exponents": [str(d) for d in space.frame.ddag],
        "basis": [qpoly_doc(u, S) for u in space.basis],
    }


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
