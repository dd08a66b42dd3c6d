"""Floating-point cross-validation of exact critical points.

Bethe roots are extracted by Aberth simultaneous iteration with a Newton
polish, residuals are the extended Bethe equations evaluated at the roots,
and gradients of the master function are checked against central finite
differences of its real part.  Differentiating Re(Phi) with respect to the
real and imaginary parts of each root recovers the holomorphic derivative
through the Cauchy-Riemann equations while staying on a single-valued
function (Re log = log |.|), so logarithm branches never enter.

Everything runs on Python complex numbers (`cmath`, `math`): degrees are
at most `MAX_DEGREE`.
"""

import cmath
import math

from .cartan import Record, Weight, inner_product
from .errors import (BranchCollision, DivisionNearZero, IllConditioned,
                     InputError)
from .frame import extended_sites


class Tolerances(Record):
    """The two settings of `check-numeric`: the residual bound (`--tol`)
    and the finite-difference step (`--h`)."""

    __slots__ = _fields = ("root_residual", "fd_step")

    def __init__(self, root_residual=1e-8, fd_step=1e-5):
        self.root_residual = root_residual
        self.fd_step = fd_step


DEFAULT_TOL = Tolerances()

# Two points closer than PAIR_MIN make a residual a DivisionNearZero, and
# closer than BRANCH_MIN a logarithm of the master function a
# BranchCollision; a gradient mismatch under FD_TOL passes.
PAIR_MIN = 1e-12
BRANCH_MIN = 1e-10
FD_TOL = 1e-6

# The largest component degree n that `embed` (so `check-numeric`) accepts:
# each Aberth step sums over all n^2 pairs of root estimates, and
# `grad_check` evaluates the master function 4n times, each over all pairs
# of roots.  One component of degree 64 takes about 1 s on one x86_64 core.
MAX_DEGREE = 64


class FloatPoint(Record):
    __slots__ = _fields = ("roots", "colours")

    def __init__(self, roots, colours):
        self.roots = roots      # complex Bethe roots
        self.colours = colours  # node index per root


def _poly_complex_coeffs(p):
    """Low-to-high complex coefficient list of an ordinary polynomial."""
    deg = int(p.degree)
    out = [0j] * (deg + 1)
    for e, c in p.terms.items():
        out[int(e)] = complex(c)
    return out


def _horner(coeffs, z):
    """Value at z of the polynomial given by low-to-high coefficients."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _newton_step(c, dc, z):
    """p(z) / p'(z), or 0 where p'(z) = 0."""
    dv = _horner(dc, z)
    return _horner(c, z) / dv if dv != 0 else 0j


def _aberth_roots(coeffs):
    """All roots of the polynomial given by low-to-high coefficients."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    c = [x / coeffs[-1] for x in coeffs]
    dc = [k * c[k] for k in range(1, deg + 1)]
    radius = 1.0 + max(abs(x) for x in c[:-1])
    # deterministic initialization on a scaled circle, irrational offset
    z = [radius * cmath.exp(2j * math.pi * (k + 0.354) / deg)
         for k in range(deg)]
    for _ in range(200):
        steps = []
        for i, zi in enumerate(z):
            newton = _newton_step(c, dc, zi)
            try:
                repulse = sum(1 / (zi - zj) for j, zj in enumerate(z)
                              if j != i)
            except ZeroDivisionError:
                raise IllConditioned("two root estimates coincide") from None
            denom = 1 - newton * repulse
            steps.append(newton / denom if denom != 0 else newton)
        z = [zi - s for zi, s in zip(z, steps)]
        if max(abs(s) for s in steps) < 1e-14:
            break
    # one Newton polish pass
    for _ in range(3):
        z = [zi - _newton_step(c, dc, zi) for zi in z]
    return z


def embed(y, tol=DEFAULT_TOL):
    """Numerically extract all roots of each component, with colours.  A
    component of degree over `MAX_DEGREE` is an InputError, raised before
    any array is built, and so is a coefficient out of the float range."""
    if max(y.degrees(), default=0) > MAX_DEGREE:
        raise InputError(f"check-numeric limits degrees to {MAX_DEGREE}")
    roots = []
    colours = []
    for i, p in enumerate(y):
        try:
            coeffs = _poly_complex_coeffs(p)
        except OverflowError:
            raise InputError(f"a coefficient of y_{i} is too large for a "
                             f"float") from None
        scale = max(abs(c) for c in coeffs)
        for z in _aberth_roots(coeffs):
            val = _horner(coeffs, z)
            if abs(val) > tol.root_residual * max(scale, 1.0):
                raise IllConditioned(
                    f"root of y_{i} has residual {abs(val):.3e}")
            roots.append(complex(z))
            colours.append(i)
    return FloatPoint(roots=tuple(roots), colours=tuple(colours))


def _site_data(inst):
    """[(z complex, weight)] for the extended configuration."""
    return [(complex(z), lam) for _, z, lam in extended_sites(inst)]


def _ip_weight_alpha(inst, lam, j):
    alpha_j = Weight.simple_root(inst.cartan, j)
    return float(inner_product(inst.cartan, lam, alpha_j))


def _ip_alpha_alpha(inst, i, j):
    return float(inst.cartan.d[i] * inst.cartan.a[i][j])


def residuals(inst, point):
    """LHS of the extended Bethe equations at every root."""
    sites = _site_data(inst)
    out = []
    for j, (tj, cj) in enumerate(zip(point.roots, point.colours)):
        acc = 0j
        for z, lam in sites:
            d = tj - z
            if abs(d) < PAIR_MIN:
                raise DivisionNearZero(
                    f"root {j} collides with a marked point")
            acc += _ip_weight_alpha(inst, lam, cj) / d
        for i, (ti, ci) in enumerate(zip(point.roots, point.colours)):
            if i == j:
                continue
            d = tj - ti
            if abs(d) < PAIR_MIN:
                raise DivisionNearZero(f"roots {i} and {j} collide")
            acc -= _ip_alpha_alpha(inst, cj, ci) / d
        out.append(acc)
    return out


def residual_norm(inst, point, tol=None):
    """max_j |extended Bethe equation j| at the embedded roots.  `tol` is
    accepted and unused: no tolerance of `Tolerances` enters a residual."""
    if not point.roots:
        return 0.0
    return max(abs(r) for r in residuals(inst, point))


def master_value_real(inst, roots, colours):
    """Re of the extended master function (single-valued via log |.|)."""
    sites = _site_data(inst)
    total = 0.0
    for a in range(len(sites)):
        za, la = sites[a]
        for b in range(a + 1, len(sites)):
            zb, lb = sites[b]
            d = za - zb
            if abs(d) < BRANCH_MIN:
                raise BranchCollision("marked points collide")
            total += float(inner_product(inst.cartan, la, lb)) \
                * math.log(abs(d))
    for j, (tj, cj) in enumerate(zip(roots, colours)):
        for z, lam in sites:
            d = tj - z
            if abs(d) < BRANCH_MIN:
                raise BranchCollision("log argument near zero")
            total -= _ip_weight_alpha(inst, lam, cj) * math.log(abs(d))
        for i in range(j + 1, len(roots)):
            d = tj - roots[i]
            if abs(d) < BRANCH_MIN:
                raise BranchCollision("log argument near zero")
            total += _ip_alpha_alpha(inst, cj, colours[i]) * math.log(abs(d))
    return total


def grad_check(inst, point, tol=DEFAULT_TOL):
    """Analytic gradient of the extended master function vs central finite
    differences of step `tol.fd_step` of its real part; reports the maximum
    mismatch and, for critical points, the maximum analytic gradient
    magnitude."""
    h = tol.fd_step
    roots = list(point.roots)
    colours = point.colours
    if not roots:
        return {"max_mismatch": 0.0, "max_gradient": 0.0, "per_root": []}
    analytic = residuals(inst, point)
    per_root = []
    max_mismatch = 0.0
    for j in range(len(roots)):
        def value(shift):
            moved = list(roots)
            moved[j] = moved[j] + shift
            return master_value_real(inst, moved, colours)

        da = (value(h) - value(-h)) / (2 * h)
        db = (value(1j * h) - value(-1j * h)) / (2 * h)
        fd = da - 1j * db
        # d Phi / dt_j = -(extended Bethe LHS at j)
        mismatch = abs(fd + analytic[j])
        per_root.append({"root": roots[j], "analytic": -analytic[j],
                         "fd": fd, "mismatch": mismatch})
        max_mismatch = max(max_mismatch, mismatch)
    return {"max_mismatch": max_mismatch,
            "max_gradient": max(abs(r) for r in analytic),
            "per_root": per_root}
