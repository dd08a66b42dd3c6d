"""Floating-point cross-validation of exact critical points.

Bethe roots are extracted by Aberth simultaneous iteration with a Newton
polish, residuals are the extended Bethe equations evaluated at the roots,
and gradients of the master function are checked against central finite
differences of its real part.  Differentiating Re(Phi) with respect to the
real and imaginary parts of each root recovers the holomorphic derivative
through the Cauchy-Riemann equations while staying on a single-valued
function (Re log = log |.|), so logarithm branches never enter.

Everything runs on Python complex numbers (`cmath`, `math`): degrees are
at most `MAX_DEGREE`, and the Newton systems have one unknown per root.
"""

import cmath
import math

from .cartan import Record, Weight, inner_product, weight_orbit
from .errors import (BranchCollision, DivisionNearZero, IllConditioned,
                     InputError, NoConvergence, SingularJacobian)
from .frame import extended_sites


class Tolerances(Record):
    __slots__ = _fields = ("root_residual", "pair_min", "branch_min",
                           "fd_step", "fd_tol", "newton_tol", "newton_iters")

    def __init__(self, root_residual=1e-8, pair_min=1e-12, branch_min=1e-10,
                 fd_step=1e-5, fd_tol=1e-6, newton_tol=1e-10,
                 newton_iters=50):
        self.root_residual = root_residual
        self.pair_min = pair_min
        self.branch_min = branch_min
        self.fd_step = fd_step
        self.fd_tol = fd_tol
        self.newton_tol = newton_tol
        self.newton_iters = newton_iters


DEFAULT_TOL = Tolerances()

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


def _solve(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting; a
    zero pivot is a SingularJacobian."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[p][k] == 0:
            raise SingularJacobian("singular Jacobian")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for row in rows[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k, n + 1):
                row[j] -= f * pivot[j]
    x = [0j] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = (row[n] - sum(row[j] * x[j] for j in range(k + 1, n))) \
            / row[k]
    return x


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


def residuals(inst, point, tol=DEFAULT_TOL):
    """LHS of the extended Bethe equations at every root."""
    sites = _site_data(inst)
    out = []
    for j, (tj, cj) in enumerate(zip(point.roots, point.colours)):
        acc = 0j
        for z, lam in sites:
            d = tj - z
            if abs(d) < tol.pair_min:
                raise DivisionNearZero(
                    f"root {j} collides with a marked point")
            acc += _ip_weight_alpha(inst, lam, cj) / d
        for i, (ti, ci) in enumerate(zip(point.roots, point.colours)):
            if i == j:
                continue
            d = tj - ti
            if abs(d) < tol.pair_min:
                raise DivisionNearZero(f"roots {i} and {j} collide")
            acc -= _ip_alpha_alpha(inst, cj, ci) / d
        out.append(acc)
    return out


def residual_norm(inst, point, tol=DEFAULT_TOL):
    """max_j |extended Bethe equation j| at the embedded roots."""
    if not point.roots:
        return 0.0
    return max(abs(r) for r in residuals(inst, point, tol))


def _jacobian(inst, point):
    m = len(point.roots)
    sites = _site_data(inst)
    jac = [[0j] * m for _ in range(m)]
    for j, (tj, cj) in enumerate(zip(point.roots, point.colours)):
        diag = 0j
        for z, lam in sites:
            diag -= _ip_weight_alpha(inst, lam, cj) / (tj - z) ** 2
        for i, (ti, ci) in enumerate(zip(point.roots, point.colours)):
            if i == j:
                continue
            val = _ip_alpha_alpha(inst, cj, ci) / (tj - ti) ** 2
            diag += val
            jac[j][i] = -val
        jac[j][j] = diag
    return jac


def newton_refine(inst, point, iters=None, tol=DEFAULT_TOL):
    """Damped Newton iteration on the residual system."""
    iters = iters if iters is not None else tol.newton_iters
    colours = point.colours
    cur = FloatPoint(roots=tuple(complex(t) for t in point.roots),
                     colours=colours)
    norm = residual_norm(inst, cur, tol)
    for _ in range(iters):
        if norm < tol.newton_tol:
            return cur, norm
        step = _solve(_jacobian(inst, cur), residuals(inst, cur, tol))
        if not all(cmath.isfinite(s) for s in step):
            raise SingularJacobian("non-finite Newton step")
        damp = 1.0
        for _ in range(30):
            trial = FloatPoint(
                roots=tuple(t - damp * s for t, s in zip(cur.roots, step)),
                colours=colours)
            try:
                trial_norm = residual_norm(inst, trial, tol)
            except DivisionNearZero:
                damp /= 2
                continue
            if trial_norm < norm:
                break
            damp /= 2
        else:
            raise NoConvergence(f"no descent direction, norm {norm:.3e}")
        cur, norm = trial, trial_norm
    if norm < tol.newton_tol:
        return cur, norm
    raise NoConvergence(f"residual {norm:.3e} after {iters} iterations")


def master_value_real(inst, roots, colours, tol=DEFAULT_TOL):
    """Re of the extended master function (single-valued via log |.|)."""
    sites = _site_data(inst)
    total = 0.0
    for a in range(len(sites)):
        za, la = sites[a]
        for b in range(a + 1, len(sites)):
            zb, lb = sites[b]
            d = za - zb
            if abs(d) < tol.branch_min:
                raise BranchCollision("marked points collide")
            total += float(inner_product(inst.cartan, la, lb)) \
                * math.log(abs(d))
    for j, (tj, cj) in enumerate(zip(roots, colours)):
        for z, lam in sites:
            d = tj - z
            if abs(d) < tol.branch_min:
                raise BranchCollision("log argument near zero")
            total -= _ip_weight_alpha(inst, lam, cj) * math.log(abs(d))
        for i in range(j + 1, len(roots)):
            d = tj - roots[i]
            if abs(d) < tol.branch_min:
                raise BranchCollision("log argument near zero")
            total += _ip_alpha_alpha(inst, cj, colours[i]) * math.log(abs(d))
    return total


def grad_check(inst, point, h=None, tol=DEFAULT_TOL):
    """Analytic gradient of the extended master function vs central finite
    differences of its real part; reports the maximum mismatch and, for
    critical points, the maximum analytic gradient magnitude."""
    h = h if h is not None else tol.fd_step
    roots = list(point.roots)
    colours = point.colours
    if not roots:
        return {"max_mismatch": 0.0, "max_gradient": 0.0, "per_root": []}
    analytic = residuals(inst, point, tol)
    per_root = []
    max_mismatch = 0.0
    for j in range(len(roots)):
        def value(shift):
            moved = list(roots)
            moved[j] = moved[j] + shift
            return master_value_real(inst, moved, colours, tol)

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


def eigenvalues_numeric(inst, point):
    """E^(i) of the cyclotomic picture evaluated in floating point.

    The root sum runs over all extended roots directly (the double sum
    over fundamental roots and powers of omega enumerates exactly the
    extended root multiset of a cyclotomic point).
    """
    M = inst.M
    omega = complex(inst.omega)
    orbits = [weight_orbit(inst.aut, lam) for lam in inst.site_weights]
    out = []
    for i, zi_exact in enumerate(inst.points):
        zi = complex(zi_exact)
        lam_i = inst.site_weights[i]
        acc = 0j
        for jdx, zj_exact in enumerate(inst.points):
            if jdx == i:
                continue
            zj = complex(zj_exact)
            for s, lam_s in enumerate(orbits[jdx]):
                acc += float(inner_product(inst.cartan, lam_i, lam_s)) \
                    / (zi - omega ** s * zj)
        for (tj, cj) in zip(point.roots, point.colours):
            acc -= _ip_weight_alpha(inst, lam_i, cj) / (zi - tj)
        tail = complex(float(inner_product(inst.cartan, lam_i, inst.lambda0)))
        for s in range(1, M):
            tail += float(inner_product(inst.cartan, lam_i, orbits[i][s])) \
                / (1 - omega ** s)
        acc += tail / zi
        out.append(acc)
    return out