"""Exact local masses of etale algebras over p-adic fields with
prescribed norm subgroups, assembled into Euler-product densities of
S_n number fields (n = 3, 4, 5)."""

__version__ = "0.1.0"

from .density import DensityInterval, GlobalSpec, euler_density, local_mass, tame_local_mass
from .massprime import premass_ell_total
from .massquartic import premass4
from .padic import GuardError, LocalField, quad_extend

__all__ = [
    "DensityInterval",
    "GlobalSpec",
    "GuardError",
    "LocalField",
    "euler_density",
    "local_mass",
    "premass4",
    "premass_ell_total",
    "quad_extend",
    "tame_local_mass",
    "__version__",
]
