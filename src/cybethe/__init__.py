"""cybethe: exact cyclotomic Bethe critical points.

Construction, verification and cataloguing of solution populations of
cyclotomic Bethe equations: diagram folding, Wronskian-based generation of
new critical points, the type-A theory of cyclotomically self-dual
quasi-polynomial spaces with Witt bases and isotropic flags, and a
floating-point cross-checker for residuals and master-function gradients.
"""

from .cartan import (CartanData, DiagramAut, FoldedData, Weight,
                     dominant_shifted_rep, folded_reflect, inner_product,
                     orbit_data, shifted_reflect, sigma_on_weight)
from .frame import (BetheTuple, ProblemInstance, canonical_lambda0,
                    eigenvalues, frame_polys, hl_identity_check,
                    is_critical_exact, is_cyclotomic_tuple, is_generic,
                    validate_lambda0, weight_at_infinity)
from .genengine import (cyclotomic_generate, cyclotomic_generate_L1,
                        cyclotomic_generate_L2, elementary_generate_L1,
                        explore_population)
from .qpoly import (QPoly, divide_exact, divided_wronskian, proportional,
                    qgcd, wronskian, wronskian_ode_solve, wronskian_table)
from .scalars import Cyc

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
