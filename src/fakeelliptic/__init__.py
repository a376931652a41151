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

# the public names under the module that defines each; `__getattr__` loads
# a module, or a name's module, on first use and binds nothing here, so a
# bare import loads no module and each function keeps one binding
_EXPORTS = {
    "config": ("Config", "ConfigError", "default_config", "load_config",
               "parse_config"),
    "exactlinalg": ("ComputationError", "DEFAULT_PRECISION", "QuadExt",
                    "UpperHalfPoint"),
    "orders": ("NotAnOrder", "OrderLattice", "SearchExhausted",
               "enumerate_units", "is_maximal", "is_order",
               "reduced_discriminant", "saturate", "standard_order"),
    "quaternions": ("AlgebraParams", "AlgebraSplit", "QuatElement", "embed",
                    "hilbert_symbol", "is_indefinite_division",
                    "ramified_primes"),
    "cm": ("CMPoint", "NotElliptic", "cm_point", "enumerate_cm_points"),
    "family": ("FamilyGroupElement", "PeriodLattice", "PolarizationData",
               "automorphy_factor", "cocycle_check", "default_rho",
               "moebius_act", "riemann_conditions_check", "riemann_form"),
    "splitting": ("InconsistentData", "SplittingReport", "classify_candidate",
                  "curve_h0", "dphi_check", "elliptic_family_fiber_h0",
                  "fiber_h0", "verify_sections"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(__getattr__(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
__all__ = sorted(_HOME)
