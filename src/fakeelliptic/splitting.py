"""Splitting computations: section spaces of restricted flat bundles.

The restriction of the cotangent bundle of the total space to a fiber or
to an elliptic curve in a fiber is flat; its sections are holomorphic
functions satisfying f(z + period) = rho(gen) f(z) for the unipotent
representation rho of the lattice.  Both kinds reduce to finite linear
systems: the 4x4 fiber system whose nonzero determinant certifies
non-splitting, and the single equation tau' f1 = mu_11 f1 + mu_21 f2
providing the extra section that splits an elliptic curve.

The classifier here settles any candidate submanifold by the case rules,
with exact Riemann-Hurwitz bookkeeping.  Only the numeric functions
import mpmath, and only `fiber_rep` imports `family`; the fiber verdict
and the classifier are exact.
"""

import random

from .exactlinalg import (DEFAULT_PRECISION, NONZERO_TOL, ComputationError,
                          QuadComplex, QuadExt, UpperHalfPoint, as_complex,
                          cofactor_det, complex_pair, decimal_str, to_mpf)
from .quaternions import embed, embed_mpf


class InconsistentData(ComputationError):
    pass


class FlatRep:
    """Unipotent lattice representation rho(gen) = [[id, 0], [-v^t, 1]].

    generator_vectors holds one exact vector per generator (entries in
    Q(sqrt a)); periods holds the corresponding lattice periods, n-tuples
    in C^n (n = 2 on a fiber, n = 1 on an elliptic curve).
    """

    __slots__ = ("generator_vectors", "periods")

    def __init__(self, generator_vectors, periods):
        self.generator_vectors, self.periods = generator_vectors, periods

    def rho(self, i, prec=DEFAULT_PRECISION):
        """Numeric rho of generator i."""
        import mpmath
        with mpmath.workprec(prec):
            R = mpmath.eye(3)
            R[2, 0], R[2, 1] = (-to_mpf(v) for v in self.generator_vectors[i])
            return R


def fiber_rep(order, tau, prec=DEFAULT_PRECISION):
    """One vector per order generator: the first column of its embedding."""
    from .family import complex_structure
    return FlatRep([(E[0][0], E[1][0]) for E in order.embedding],
                   [complex_structure(g, tau, prec) for g in order.generators()])


class Section:
    """f = (f1, f2, sum a_i z_i + b) on C^n, the closed form of the flat
    sections on a fiber (n = 2) and on an elliptic curve (n = 1).  The
    fields are kept as given; `value` evaluates f in mpmath."""

    __slots__ = ("f1", "f2", "a", "b")

    def __init__(self, f1, f2, a, b):
        self.f1, self.f2, self.a, self.b = f1, f2, a, b

    def value(self, z):
        import mpmath
        linear = sum(ai * zi for ai, zi in zip(self.a, z))
        return mpmath.matrix([self.f1, self.f2, linear + self.b])


class FiberH0:
    __slots__ = ("h0", "det_witness", "sections", "precision_used")

    def __init__(self, h0, det_witness, sections, precision_used):
        self.h0, self.det_witness = h0, det_witness
        self.sections, self.precision_used = sections, precision_used


def fiber_h0(order, tau, prec=DEFAULT_PRECISION):
    """h^0 of the restricted cotangent bundle on the fiber at tau, exactly.

    The 4x4 system M in (f1, f2, a1, a2) has one row
    (v1, v2, period1, period2) per generator, and h0 = 1 + its nullity.
    M factors as the stacked column matrix S of the embeddings times a
    unit triangular tau-block, so det M = det S = -4ab det(basis)
    (`OrderLattice.embedding_det`), which is nonzero for every lattice:
    the nullity is 0, h0 = 1, and the only section is the constant one.
    det M is taken by cofactors over Q(sqrt a)(i) at the exact tau and
    certified equal to det S; |det M| is the witness.  No verdict reads
    prec: it is only recorded as `precision_used`, which the benchmark's
    fiber observer compares with it.
    """
    t = QuadComplex.of(UpperHalfPoint(tau).tau)
    M = [[E[0][0], E[1][0], t * E[0][0] + E[0][1], t * E[1][0] + E[1][1]]
         for E in order.embedding]
    if cofactor_det(M) != order.embedding_det:
        raise InconsistentData(f"det M(tau) is not det S = {order.embedding_det}")
    return FiberH0(1, abs(order.embedding_det), [Section(0, 0, (0, 0), 1)],
                   prec)


def curve_rep(mu, tau, tau_prime):
    """Generators tau' and 1 of the curve lattice, with their vectors."""
    M = embed(mu)
    rad = mu.params.a
    vectors = [(M[0][0], M[1][0]), (QuadExt(1, 0, rad), QuadExt(0, 0, rad))]
    return FlatRep(vectors, [(as_complex(tau_prime),), (1,)])


class CurveH0:
    __slots__ = ("h0", "sections", "eigen_residual", "dphi")

    def __init__(self, h0, sections, eigen_residual, dphi):
        self.h0, self.sections = h0, sections
        self.eigen_residual, self.dphi = eigen_residual, dphi


def curve_h0(point, prec=DEFAULT_PRECISION):
    """h^0 on an elliptic curve in a fiber, with the section basis.

    The invariance equations reduce to the single equation
    tau' f1 = mu_11 f1 + mu_21 f2, and each solution extends to the
    section (f1, f2, -f1 z).  mu_21 = m - n sqrt(a) never vanishes for an
    elliptic mu, so the solutions form a line: h0 = 2, spanned by the
    constant section and f1 = 1, f2 = (tau' - mu_11) / mu_21.  That f is
    an eigenvector of the transposed embedding with eigenvalue tau'; the
    eigen residual and dphi on it (`dphi_check`) are the certificate.
    """
    import mpmath
    with mpmath.workprec(prec):
        (m11, m12), (m21, m22) = embed_mpf(point.mu)
        tprime = as_complex(point.tau_prime)
        f1 = mpmath.mpc(1)
        f2 = (tprime - m11) / m21
        sections = [Section(0, 0, (0,), 1), Section(f1, f2, (-f1,), 0)]
        vec = mpmath.matrix([f1, f2])
        Mt = mpmath.matrix([[m11, m21], [m12, m22]])
        return CurveH0(2, sections, mpmath.norm(Mt * vec - tprime * vec),
                       dphi_check(sections[1], tprime))


def dphi_check(section, tau_prime):
    """Image of the section under the differential: f1 tau' + f2."""
    return section.f1 * as_complex(tau_prime) + section.f2


def robust_dphi(point, prec=DEFAULT_PRECISION):
    """dphi of the non-constant section at prec bits."""
    return curve_h0(point, prec).dphi


def verify_sections(rep, sections, n_points=20, seed=0, prec=DEFAULT_PRECISION):
    """Max residual of f(z + period) - rho(gen) f(z) over random z.

    Re-verifies membership in the section space directly from the
    functional equation, independently of the solver's reduction.
    """
    import mpmath
    rng = random.Random(seed)
    with mpmath.workprec(prec):
        worst = mpmath.mpf(0)
        for i, period in enumerate(rep.periods):
            R = rep.rho(i, prec)
            for _ in range(n_points):
                z = [mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for _ in period]
                zs = [zi + p for zi, p in zip(z, period)]
                for s in sections:
                    worst = max(worst, mpmath.norm(s.value(zs) - R * s.value(z)))
        return worst


def elliptic_family_fiber_h0(tau, prec=DEFAULT_PRECISION):
    """The degenerate genus-1 analogue of the fiber computation.

    Over the lattice Z tau + Z the representation sends m tau + n to
    [[1, 0], [-m, 1]]; sections (f1, a z + b) satisfy the 2x2 system with
    rows (1, tau) and (0, 1).  The row (1, tau) gives rank >= 1, so h0 is
    1 when the determinant exceeds NONZERO_TOL and 2 otherwise; the
    determinant is 1, so h0 is always 1.
    """
    import mpmath
    with mpmath.workprec(prec):
        t = as_complex(UpperHalfPoint(tau))
        det = mpmath.det(mpmath.matrix([[1, t], [0, 1]]))
        return 1 if abs(det) > to_mpf(NONZERO_TOL) else 2


# ---------------------------------------------------------------------------
# verdicts


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
    2g - 2 = d (2 g_C - 2) + r is enforced exactly.  An argument outside
    its range (genus or a degree below 0, g_C below 2) raises ValueError;
    a combination no candidate has raises InconsistentData.
    """
    if g_C < 2:
        raise ValueError(
            f"the base curve must have genus at least 2, got {g_C}")
    for name, value in (("genus", genus), ("degree_over_C", degree_over_C),
                        ("ramification_degree", ramification_degree)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if genus is None:
        if in_fiber:
            return SplittingReport("Fiber", "NonSplit", h0=1,
                                   certificate={"citation": CITE_FIBER})
        return SplittingReport("Other", "NonSplit",
                               certificate={"citation": CITE_SURFACE})
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
    expected = degree_over_C * (2 * g_C - 2) + ramification_degree
    if 2 * genus - 2 != expected:
        raise InconsistentData(
            f"2g-2 = {2 * genus - 2} but the covering data give {expected}")
    if ramification_degree == 0:
        return SplittingReport("EtaleMultisection", "Split",
                               certificate={"citation": CITE_ETALE})
    return SplittingReport("Other", "NonSplit",
                           certificate={"citation": CITE_RAMIFIED})


def fiber_splitting_report(order, tau):
    result = fiber_h0(order, tau)
    verdict = "NonSplit" if result.h0 == 1 else "Split"
    witness = decimal_str(result.det_witness, 15)  # det M = det S
    cert = {"det_witness": witness, "factored_det": witness,
            "citation": CITE_FIBER}
    return SplittingReport("Fiber", verdict, h0=result.h0, certificate=cert)


def curve_splitting_report(point, prec=DEFAULT_PRECISION):
    """Split: Im dphi = Im tau' (1 + 1/C) > 0 on the non-constant section,
    as C = m - n sqrt(a) > 0 for the oriented mu of a CM point, which for
    an elliptic mu means m > 0 (`cm.cm_point`)."""
    import mpmath
    mu = point.mu
    if mu.m <= 0:
        raise ValueError("mu is not oriented: build the point with cm_point")
    result = curve_h0(point, prec)
    s = result.sections[1]
    cert = {"eigen_residual": mpmath.nstr(result.eigen_residual, 5),
            "citation": CITE_ELLIPTIC,
            "section": {"f1": mpmath.nstr(s.f1, 15),
                        "f2": mpmath.nstr(s.f2, 15),
                        "a": mpmath.nstr(s.a[0], 15)}}
    return SplittingReport("EllipticInFiber", "Split", h0=result.h0,
                           certificate=cert, dphi_value=result.dphi)
