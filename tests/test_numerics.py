import cmath
import random

import pytest

from fractions import Fraction as F

from conftest import poly
from cybethe import numerics
from cybethe.frame import BetheTuple, eigenvalues
from cybethe.numerics import FloatPoint, embed, grad_check, residual_norm
from cybethe.cartan import CartanData, DiagramAut, Weight
from cybethe.frame import ProblemInstance
from cybethe.scalars import Cyc
from oracles import eigenvalues_numeric


def test_embed_cube_roots(a2_tuple):
    pt = embed(a2_tuple)
    assert len(pt.roots) == 6
    got = sorted((z for z, c in zip(pt.roots, pt.colours) if c == 0),
                 key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    want = sorted((cmath.exp(2j * cmath.pi * k / 3) for k in range(3)),
                  key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert all(abs(a - b) < 1e-10 for a, b in zip(got, want))


def test_embed_matches_numpy_roots(a2_tuple):
    np = pytest.importorskip("numpy")
    pt = embed(a2_tuple)
    for i, p in enumerate(a2_tuple):
        got = [z for z, c in zip(pt.roots, pt.colours) if c == i]
        coeffs = numerics._poly_complex_coeffs(p)
        assert _match(got, np.roots(coeffs[::-1])) < 1e-12


def test_embed_trivial_and_pair():
    pt = embed(BetheTuple.trivial(3))
    assert pt.roots == ()
    pt2 = embed(BetheTuple([poly(-1, 0, 1)]))
    assert sorted(round(z.real) for z in pt2.roots) == [-1, 1]


def test_residual_exact_point(a2, a2_tuple):
    inst, _ = a2
    assert residual_norm(inst, embed(a2_tuple)) < 1e-8


def test_residual_empty(a2):
    inst, _ = a2
    assert residual_norm(inst, embed(BetheTuple.trivial(2))) == 0.0


def test_residual_sensitivity(a2, a2_tuple):
    inst, _ = a2
    pt = embed(a2_tuple)
    rng = random.Random(12)
    moved = FloatPoint(
        roots=tuple(z + 1e-2 * complex(rng.random(), rng.random())
                    for z in pt.roots),
        colours=pt.colours)
    assert residual_norm(inst, moved) > 1e-4


def test_grad_check_critical(a2, a2_tuple):
    inst, _ = a2
    rep = grad_check(inst, embed(a2_tuple))
    assert rep["max_mismatch"] < 1e-7
    assert rep["max_gradient"] < 1e-8


def test_grad_check_generic_point(a2):
    inst, _ = a2
    pt = FloatPoint(roots=(0.7 + 0.2j, -1.3 + 0.9j), colours=(0, 1))
    rep = grad_check(inst, pt)
    assert rep["max_mismatch"] < 1e-6
    assert rep["max_gradient"] > 1e-2


def test_grad_check_empty(a2):
    inst, _ = a2
    rep = grad_check(inst, embed(BetheTuple.trivial(2)))
    assert rep["max_mismatch"] == 0.0


def test_numeric_eigenvalues_match_exact():
    cartan = CartanData.series("A", 2)
    aut = DiagramAut((1, 0))
    inst = ProblemInstance(cartan=cartan, aut=aut,
                           omega=Cyc.root_of_unity(2),
                           points=(Cyc.of(1),),
                           site_weights=(Weight([1, 1]),),
                           lambda0=Weight([F(1, 2), F(1, 2)]))
    from cybethe.genengine import cyclotomic_generate
    from cybethe.cartan import orbit_data
    fold = orbit_data(cartan, aut)
    y, _ = cyclotomic_generate(inst, fold, BetheTuple.trivial(2), 0, F(1, 2))
    exact = eigenvalues(inst, y)
    numeric = eigenvalues_numeric(inst, embed(y))
    for ev_exact, ev_num in zip(exact["cyclotomic"], numeric):
        assert abs(complex(ev_exact) - ev_num) < 1e-8


def _coeffs_of_roots(roots):
    """Low-to-high coefficients of prod (x - r)."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0j] + coeffs, coeffs + [0j])]
    return coeffs


def _match(got, want):
    """max over got of the distance to the nearest unused root of want."""
    want = list(want)
    worst = 0.0
    for z in got:
        k = min(range(len(want)), key=lambda j: abs(want[j] - z))
        worst = max(worst, abs(want.pop(k) - z))
    return worst


def test_aberth_roots_match_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    for deg in range(1, numerics.MAX_DEGREE + 1):
        coeffs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                  for _ in range(deg)] + [complex(rng.uniform(.5, 2))]
        got = numerics._aberth_roots(coeffs)
        assert len(got) == deg
        assert _match(got, np.roots(coeffs[::-1])) < 1e-10, deg


def test_aberth_roots_match_numpy_on_clustered_roots():
    np = pytest.importorskip("numpy")
    clusters = []
    for pairs in (1, 2, 4, 8, 16):
        # pairs of roots 1e-4 apart around the unit circle
        centres = [cmath.exp(2j * cmath.pi * (k + .3) / pairs)
                   for k in range(pairs)]
        clusters.append([r for a in centres for r in (a, a * (1 + 1e-4j))])
    # three roots 1e-3 apart, and two far from them
    clusters.append([.5 + 1e-3 * cmath.exp(2j * cmath.pi * k / 3)
                     for k in range(3)] + [-1, 2j])
    for roots in clusters:
        coeffs = _coeffs_of_roots(roots)
        got = numerics._aberth_roots(coeffs)
        assert _match(got, np.roots(coeffs[::-1])) < 1e-10, len(roots)


def test_aberth_roots_of_a_high_binomial():
    roots = numerics._aberth_roots([-2] + [0] * 63 + [1])
    want = [2 ** (1 / 64) * cmath.exp(2j * cmath.pi * k / 64)
            for k in range(64)]
    assert _match(roots, want) < 1e-12
