"""Modular families of fake elliptic curves.

Given an indefinite rational division quaternion algebra B = (a, b / Q)
with a maximal order O_B, each point tau of the upper half plane yields
an abelian surface C^2 / O_B (tau, 1)^t, and the family glues into a
threefold fibered over a quotient curve.  The package certifies the
construction (orders, polarizations, the factor of automorphy), finds the
CM points where fibers contain elliptic curves, and decides whether a
compact submanifold splits off its conormal direction: fibers never do,
elliptic curves in fibers always do, and among the remaining curves
exactly the etale multisections do.
"""

import importlib

from .config import (Config, ConfigError, default_config, load_config,
                     parse_config)
from .exactlinalg import ComputationError, DEFAULT_PRECISION, QuadExt
from .orders import (NotAnOrder, OrderLattice, SearchExhausted,
                     enumerate_units, is_maximal, is_order,
                     reduced_discriminant, saturate, standard_order)
from .quaternions import (AlgebraParams, AlgebraSplit, QuatElement, embed,
                          hilbert_symbol, is_indefinite_division,
                          ramified_primes)

# loaded on first use, to keep the package import short; cm loads mpmath
_NUMERIC = {
    "cm": ("CMPoint", "NotElliptic", "cm_point", "enumerate_cm_points",
           "fixed_point", "fixed_point_quadratic"),
    "family": ("FamilyGroupElement", "PeriodLattice", "PolarizationData",
               "UpperHalfPoint", "automorphy_factor", "cocycle_check",
               "default_rho", "moebius_act", "riemann_conditions_check",
               "riemann_form"),
    "splitting": ("InconsistentData", "SplittingReport", "classify_candidate",
                  "curve_h0", "dphi_check", "elliptic_family_fiber_h0",
                  "fiber_h0", "verify_sections"),
}
_LAZY = {name: module for module, names in _NUMERIC.items() for name in names}


def __getattr__(name):
    if name in _NUMERIC:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(__getattr__(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AlgebraParams", "AlgebraSplit", "CMPoint", "ComputationError", "Config",
    "ConfigError", "DEFAULT_PRECISION", "FamilyGroupElement",
    "InconsistentData", "NotAnOrder", "NotElliptic", "OrderLattice",
    "PeriodLattice", "PolarizationData", "QuadExt", "QuatElement",
    "SearchExhausted", "SplittingReport", "UpperHalfPoint",
    "automorphy_factor", "classify_candidate", "cm_point", "cocycle_check",
    "curve_h0", "default_config", "default_rho", "dphi_check", "embed",
    "elliptic_family_fiber_h0", "enumerate_cm_points", "enumerate_units",
    "fiber_h0", "fixed_point", "fixed_point_quadratic", "hilbert_symbol",
    "is_indefinite_division", "is_maximal", "is_order", "load_config",
    "moebius_act", "parse_config", "ramified_primes",
    "reduced_discriminant", "riemann_conditions_check", "riemann_form",
    "saturate", "standard_order", "verify_sections",
]
