"""Splitting verdicts by the case rules, with exact bookkeeping.

The classifier settles arbitrary candidate submanifolds by the
trichotomy (fiber / elliptic curve in a fiber / multisection) with exact
Riemann-Hurwitz bookkeeping.  Nothing here is numeric, so the `classify`
command runs without mpmath; `splitting` attaches the numeric
certificates to the same reports.
"""

from .config import complex_pair
from .exactlinalg import ComputationError


class InconsistentData(ComputationError):
    pass


class SplittingReport:
    """Verdict plus the certificate that backs it."""

    __slots__ = ("kind", "verdict", "h0", "certificate", "dphi_value")

    def __init__(self, kind, verdict, h0=None, certificate=None,
                 dphi_value=None):
        self.kind = kind
        self.verdict = verdict
        self.h0 = h0
        self.certificate = certificate if certificate is not None else {}
        self.dphi_value = dphi_value

    def as_dict(self):
        out = {"kind": self.kind, "verdict": self.verdict, "h0": self.h0,
               "certificate": dict(self.certificate)}
        if self.dphi_value is not None:
            out["dphi"] = complex_pair(self.dphi_value)
        return out


CITE_FIBER = ("A fiber never splits: the four lattice equations in "
              "(f1, f2, a1, a2) have nonzero determinant, so the only flat "
              "sections are the constant normal ones.")
CITE_SURFACE = ("A surface that is neither a fiber nor the whole space "
                "cannot split off its conormal direction: the candidates "
                "are ball quotients, which are hyperbolic, or tori, which "
                "admit no surjection onto a curve of genus at least two.")
CITE_ELLIPTIC = ("An elliptic curve in a fiber splits: the restricted "
                 "cotangent bundle has a two-dimensional space of flat "
                 "sections and the differential is surjective on them.")
CITE_ETALE = ("An etale multisection splits: the projection to the base "
              "is unramified, so its differential splits off the pulled "
              "back canonical direction.")
CITE_RATIONAL = "The total space contains no rational curve."
CITE_GENUS = ("A curve contained in a fiber splits only if its canonical "
              "bundle has degree zero, forcing genus one.")
CITE_RAMIFIED = ("A ramified multisection cannot split: the canonical "
                 "degree comparison forces the ramification divisor to "
                 "vanish.")


def classify_candidate(genus, in_fiber, degree_over_C=0, ramification_degree=0,
                       g_C=2):
    """Splitting verdict for a candidate submanifold, by the case rules.

    genus is None for a surface candidate (a fiber when in_fiber is set),
    or the genus of a curve candidate.  Curves not contained in fibers
    are multisections of degree degree_over_C with total ramification
    ramification_degree; the Riemann-Hurwitz identity
    2g - 2 = d (2 g_C - 2) + r is enforced exactly.
    """
    if g_C < 2:
        raise InconsistentData("the base curve has genus at least 2")
    if genus is None:
        if in_fiber:
            return SplittingReport("Fiber", "NonSplit", h0=1,
                                   certificate={"citation": CITE_FIBER})
        return SplittingReport("Other", "NonSplit",
                               certificate={"citation": CITE_SURFACE})
    if genus < 0:
        raise InconsistentData("genus must be nonnegative")
    if genus == 0:
        return SplittingReport("Other", "NonSplit",
                               certificate={"citation": CITE_RATIONAL})
    if in_fiber:
        if degree_over_C != 0 or ramification_degree != 0:
            raise InconsistentData("a curve in a fiber does not cover the base")
        if genus == 1:
            return SplittingReport("EllipticInFiber", "Split", h0=2,
                                   certificate={"citation": CITE_ELLIPTIC})
        return SplittingReport("Other", "NonSplit",
                               certificate={"citation": CITE_GENUS})
    if degree_over_C < 1:
        raise InconsistentData("a multisection covers the base with positive degree")
    if ramification_degree < 0:
        raise InconsistentData("ramification degree must be nonnegative")
    expected = degree_over_C * (2 * g_C - 2) + ramification_degree
    if 2 * genus - 2 != expected:
        raise InconsistentData(
            f"2g-2 = {2 * genus - 2} but the covering data give {expected}")
    if ramification_degree == 0:
        return SplittingReport("EtaleMultisection", "Split",
                               certificate={"citation": CITE_ETALE})
    return SplittingReport("Other", "NonSplit",
                           certificate={"citation": CITE_RAMIFIED})
