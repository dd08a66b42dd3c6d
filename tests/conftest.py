from fractions import Fraction as F

import pytest

from cybethe import frame, serialize
from cybethe.cartan import (CartanData, DiagramAut, FoldedData, Weight,
                            orbit_data)
from cybethe.errors import NotGeneric
from cybethe.frame import BetheTuple, ProblemInstance, is_generic
from cybethe.qpoly import QPoly
from cybethe.scalars import Cyc


def poly(*coeffs):
    """Ordinary polynomial from low-to-high coefficients."""
    return QPoly(dict(enumerate(coeffs)))


def affine_a(n):
    """The Cartan data of the affine cycle A_n^(1) on n+1 nodes (n >= 2)."""
    size = n + 1
    return CartanData.from_matrix(
        [[2 if i == j else (-1 if (i - j) % size in (1, size - 1) else 0)
          for j in range(size)] for i in range(size)])


def identity_aut(n):
    """The identity automorphism of a diagram on n nodes."""
    return DiagramAut(tuple(range(n)))


@pytest.fixture(scope="session")
def a2():
    """A_2, sigma = (1 2), M = 2, N = 0, lambda0 = (1/2, 1/2)."""
    cartan = CartanData.series("A", 2)
    aut = DiagramAut((1, 0))
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(), site_weights=(),
                           lambda0=Weight([F(1, 2), F(1, 2)]))
    return inst, orbit_data(cartan, aut)


@pytest.fixture(scope="session")
def a3():
    """A_3, sigma = (1 3), M = 2, N = 0, lambda0 = (0, 1, 0)."""
    cartan = CartanData.series("A", 3)
    aut = DiagramAut((2, 1, 0))
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(), site_weights=(),
                           lambda0=Weight([0, 1, 0]))
    return inst, orbit_data(cartan, aut)


@pytest.fixture(scope="session")
def a2_tuple():
    """Seed critical tuple (x^3 - 1, x^3 + 1) of the A_2 instance."""
    return BetheTuple([poly(-1, 0, 0, 1), poly(1, 0, 0, 1)])


def shifted_critical(inst, y, lambda0):
    """`is_critical_exact` with `lambda0` as the weight at the origin in
    the equations, which need not be sigma-invariant (the shifted
    equations of the L = 2 intermediate tuples): NotGeneric, or (ok,
    report) with the residue of every colour."""
    ok, witness = is_generic(inst, y)
    if not ok:
        raise NotGeneric(witness)
    report = {i: frame._residue(inst, y, i, lambda0[i])
              for i in range(len(y))}
    return all(r["divides"] for r in report.values()), report


def written(value, M=1):
    """The document of value as `serialize.put` writes it as a section of
    an instance of order M: {"value": ...}, with "fields" where the
    section's order is not M."""
    doc = {}
    serialize.put(doc, "value", value, M)
    return doc


def fresh_gram(space, vectors):
    """The Gram matrix of vectors of the space built from polynomials: a
    fresh table of the vectors and `_gram` of it, the reference for a Gram
    matrix taken by congruence."""
    from cybethe import typea
    vectors = list(vectors)
    return typea._gram(vectors, typea._wr_plus(space.frame, vectors))


def mirrored(fold):
    """The fold that represents each orbit by its last node: at the A_2
    block {i, ibar}, generation at ibar runs the L = 2 sequence in the
    order (ibar, i, ibar)."""
    fields = {name: getattr(fold, name) for name in fold._fields}
    return FoldedData(**{**fields,
                         "reps": tuple(orbit[-1] for orbit in fold.orbits)})
