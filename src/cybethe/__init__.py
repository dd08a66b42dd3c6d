"""cybethe: exact cyclotomic Bethe critical points.

Construction, verification and cataloguing of solution populations of
cyclotomic Bethe equations: diagram folding, Wronskian-based generation of
new critical points, the type-A theory of cyclotomically self-dual
quasi-polynomial spaces with Witt bases and isotropic flags, and a
floating-point cross-checker for residuals and master-function gradients.

The exports below load their module on first access (PEP 562), so that
`import cybethe` and each CLI command import only what they use.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("CartanData", "DiagramAut", "FoldedData",
                     "ProblemInstance", "Weight", "canonical_lambda0",
                     "dominant_shifted_rep", "folded_reflect",
                     "inner_product", "orbit_data", "shifted_reflect",
                     "sigma_on_weight"), "cartan"),
    **dict.fromkeys(("BetheTuple", "eigenvalues", "frame_polys",
                     "is_critical_exact", "is_cyclotomic_tuple",
                     "is_generic", "prove_cyclotomic", "validate_lambda0",
                     "weight_at_infinity"), "frame"),
    **dict.fromkeys(("cyclotomic_generate", "explore_population"),
                    "genengine"),
    **dict.fromkeys(("QPoly", "divide_exact", "proportional", "qgcd",
                     "wronskian", "wronskian_ode_solve", "wronskian_table"),
                    "qpoly"),
    "Cyc": "scalars",
}
_SUBMODULES = ("cartan", "errors", "frame", "genengine", "linalg", "qpoly",
               "scalars", "serialize")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    if name in _EXPORTS:
        return getattr(import_module("." + _EXPORTS[name], __name__), name)
    # any other name raises, so `from cybethe import cli` still finds the
    # submodule through the import system
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
