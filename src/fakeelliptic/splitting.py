"""Splitting computations: section spaces of restricted flat bundles.

The restriction of the cotangent bundle of the total space to a fiber or
to an elliptic curve in a fiber is flat; its sections are holomorphic
functions satisfying f(z + period) = rho(gen) f(z) for the unipotent
representation rho of the lattice.  Both kinds reduce to finite linear
systems: the 4x4 fiber system whose nonzero determinant certifies
non-splitting, and the single equation tau' f1 = mu_11 f1 + mu_21 f2
providing the extra section that splits an elliptic curve.

The classifier settles arbitrary candidate submanifolds by the
trichotomy (fiber / elliptic curve in a fiber / multisection) with exact
Riemann-Hurwitz bookkeeping.
"""

import random

import mpmath
from mpmath import mp

from .exactlinalg import (ComputationError, DEFAULT_PRECISION,
                          DEFAULT_TOLERANCE, NONZERO_TOL, QuadExt, escalate,
                          exact_det, numeric_nullspace, to_mpf)
from .family import PeriodLattice, as_complex, complex_structure
from .quaternions import embed


class InconsistentData(ComputationError):
    pass


class FlatRep:
    """Unipotent lattice representation rho(gen) = [[id, 0], [-v^t, 1]].

    generator_vectors holds one exact vector per generator (entries in
    Q(sqrt a)); periods holds the corresponding lattice periods (pairs in
    C^2 for a fiber, scalars for a curve).
    """

    __slots__ = ("kind", "generator_vectors", "periods")

    def __init__(self, kind, generator_vectors, periods):
        self.kind = kind
        self.generator_vectors = generator_vectors
        self.periods = periods

    def rho(self, coeffs, prec=DEFAULT_PRECISION):
        """Numeric rho of the integer combination sum coeffs[i]*gen[i].

        The shape makes rho additive in the vector, so the matrix for a
        combination uses the combined vector directly.
        """
        with mp.workprec(prec):
            v0 = mpmath.mpf(0)
            v1 = mpmath.mpf(0)
            for c, vec in zip(coeffs, self.generator_vectors):
                v0 += c * vec[0].numeric(prec)
                v1 += c * vec[1].numeric(prec)
            R = mpmath.eye(3)
            R[2, 0] = -v0
            R[2, 1] = -v1
            return R


def fiber_rep(order, tau, prec=DEFAULT_PRECISION):
    """One vector per order generator: the first column of its embedding."""
    t = as_complex(tau)
    vectors = []
    periods = []
    for g in order.generators():
        M = embed(g)
        vectors.append((M[0][0], M[1][0]))
        periods.append(complex_structure(g, t, prec))
    return FlatRep("fiber", vectors, periods)


class FiberSection:
    """f = (f1, f2, a1 z1 + a2 z2 + b), the closed form of fiber sections."""

    __slots__ = ("f1", "f2", "a1", "a2", "b")

    def __init__(self, f1, f2, a1, a2, b):
        self.f1, self.f2, self.a1, self.a2, self.b = (
            mpmath.mpc(f1), mpmath.mpc(f2), mpmath.mpc(a1), mpmath.mpc(a2),
            mpmath.mpc(b))

    def value(self, z):
        z1, z2 = mpmath.mpc(z[0]), mpmath.mpc(z[1])
        return mpmath.matrix([self.f1, self.f2,
                              self.a1 * z1 + self.a2 * z2 + self.b])


class FiberH0:
    __slots__ = ("h0", "det_witness", "factored_det", "sections", "matrix",
                 "precision_used")

    def __init__(self, h0, det_witness, factored_det, sections, matrix,
                 precision_used):
        self.h0 = h0
        self.det_witness = det_witness
        self.factored_det = factored_det
        self.sections = sections
        self.matrix = matrix
        self.precision_used = precision_used


def _fiber_system(order, tau, prec):
    """The 4x4 matrix with one row (v1, v2, period1, period2) per generator."""
    lattice = PeriodLattice(order, tau, prec)
    rep = fiber_rep(order, lattice.tau, prec)
    rows = []
    for v, per in zip(rep.generator_vectors, rep.periods):
        rows.append([v[0].numeric(prec), v[1].numeric(prec), per[0], per[1]])
    return mpmath.matrix(rows)


def fiber_h0(order, tau, prec=DEFAULT_PRECISION, tol=None):
    """h^0 of the restricted cotangent bundle on the fiber at tau.

    Assembles the 4x4 system in (f1, f2, a1, a2) with one row
    (v1, v2, period1, period2) per generator; h0 = 1 + its nullity.  The
    determinant modulus is the non-splitting witness; the system factors
    as the stacked column matrix of the embeddings times a unit
    triangular tau-block, so the witness is tau-independent and the
    stacked determinant is computed exactly as a cross-check.
    """
    def system(p):
        M = _fiber_system(order, tau, p)
        return abs(mpmath.det(M)), M

    with mp.workprec(prec):
        tolv = to_mpf(DEFAULT_TOLERANCE if tol is None else tol)
        witness, M, prec = escalate(system, prec)
        null = numeric_nullspace(M, tolv, prec)
        h0 = 1 + len(null)

        stacked = []
        for g in order.generators():
            Eg = embed(g)
            stacked.append([Eg[0][0], Eg[1][0], Eg[0][1], Eg[1][1]])
        factored = exact_det(stacked).numeric(prec)

        sections = [FiberSection(0, 0, 0, 0, 1)]
        for vec in null:
            sections.append(FiberSection(vec[0], vec[1], vec[2], vec[3], 0))
        return FiberH0(h0, witness, abs(factored), sections, M, prec)


def curve_rep(mu, tau, tau_prime, prec=DEFAULT_PRECISION):
    """Generators tau' and 1 of the curve lattice, with their vectors."""
    M = embed(mu)
    rad = mu.params.a
    one = QuadExt(1, 0, rad)
    zero = QuadExt(0, 0, rad)
    return FlatRep("curve",
                   [(M[0][0], M[1][0]), (one, zero)],
                   [as_complex(tau_prime), mpmath.mpc(1)])


class CurveSection:
    """f = (f1, f2, a z + b) on the covering line of the elliptic curve."""

    __slots__ = ("f1", "f2", "a", "b")

    def __init__(self, f1, f2, a, b):
        self.f1, self.f2, self.a, self.b = (mpmath.mpc(f1), mpmath.mpc(f2),
                                            mpmath.mpc(a), mpmath.mpc(b))

    def value(self, z):
        z = mpmath.mpc(z)
        return mpmath.matrix([self.f1, self.f2, self.a * z + self.b])


class CurveH0:
    __slots__ = ("h0", "sections", "eigen_residual")

    def __init__(self, h0, sections, eigen_residual):
        self.h0 = h0
        self.sections = sections
        self.eigen_residual = eigen_residual


def curve_h0(point, prec=DEFAULT_PRECISION):
    """h^0 on an elliptic curve in a fiber, with the section basis.

    The invariance equations reduce to the single equation
    tau' f1 = mu_11 f1 + mu_21 f2, and each solution extends to the
    section (f1, f2, -f1 z).  mu_21 = m - n sqrt(a) never vanishes for an
    elliptic mu, so the solutions form a line: h0 = 2, spanned by the
    constant section and f1 = 1, f2 = (tau' - mu_11) / mu_21.  That f is
    an eigenvector of the transposed embedding with eigenvalue tau'; the
    eigen residual and dphi on it are the certificate.
    """
    with mp.workprec(prec):
        M = embed(point.mu)
        m11 = M[0][0].numeric(prec)
        m21 = M[1][0].numeric(prec)
        tprime = as_complex(point.tau_prime)
        f1 = mpmath.mpc(1)
        f2 = (tprime - m11) / m21
        sections = [CurveSection(0, 0, 0, 1), CurveSection(f1, f2, -f1, 0)]
        vec = mpmath.matrix([f1, f2])
        Mt = mpmath.matrix([[m11, m21],
                            [M[0][1].numeric(prec), M[1][1].numeric(prec)]])
        return CurveH0(2, sections, mpmath.norm(Mt * vec - tprime * vec))


def dphi_check(section, tau_prime):
    """Image of the section under the differential: f1 tau' + f2."""
    return section.f1 * as_complex(tau_prime) + section.f2


def robust_dphi(point, prec=DEFAULT_PRECISION):
    """dphi of the non-constant section, with the near-threshold recheck."""
    def dphi(p):
        section = curve_h0(point, p).sections[1]
        return dphi_check(section, point.tau_prime), None

    return escalate(dphi, prec)[0]


def verify_sections(rep, sections, n_points=20, seed=0, prec=DEFAULT_PRECISION,
                    rng=None):
    """Max residual of f(z + period) - rho(gen) f(z) over random z.

    Re-verifies membership in the section space directly from the
    functional equation, independently of the solver's reduction.
    """
    if rng is None:
        rng = random.Random(seed)
    with mp.workprec(prec):
        worst = mpmath.mpf(0)
        for idx, period in enumerate(rep.periods):
            coeffs = [1 if i == idx else 0 for i in range(len(rep.periods))]
            R = rep.rho(coeffs, prec)
            for _ in range(n_points):
                if rep.kind == "fiber":
                    z = (mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                         mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                    zs = (z[0] + period[0], z[1] + period[1])
                else:
                    z = mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    zs = z + period
                for s in sections:
                    worst = max(worst, mpmath.norm(s.value(zs) - R * s.value(z)))
        return worst


def elliptic_family_fiber_h0(tau, prec=DEFAULT_PRECISION, tol=None):
    """The degenerate genus-1 analogue of the fiber computation.

    Over the lattice Z tau + Z the representation sends m tau + n to
    [[1, 0], [-m, 1]]; sections (f1, a z + b) satisfy the 2x2 system with
    rows (1, tau) and (0, 1), of determinant 1, so h0 is always 1.
    """
    with mp.workprec(prec):
        t = as_complex(tau)
        if not t.imag > 0:
            raise ValueError("tau must lie in the upper half plane")
        tolv = to_mpf(DEFAULT_TOLERANCE if tol is None else tol)
        M = mpmath.matrix([[1, t], [0, 1]])
        null = numeric_nullspace(M, tolv, prec)
        return 1 + len(null)


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
            out["dphi"] = mpmath.nstr(self.dphi_value, 15)
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


def fiber_splitting_report(order, tau, prec=DEFAULT_PRECISION, tol=None):
    result = fiber_h0(order, tau, prec, tol)
    verdict = "NonSplit" if result.h0 == 1 else "Split"
    cert = {"det_witness": mpmath.nstr(result.det_witness, 15),
            "factored_det": mpmath.nstr(result.factored_det, 15),
            "citation": CITE_FIBER}
    return SplittingReport("Fiber", verdict, h0=result.h0, certificate=cert)


def curve_splitting_report(point, prec=DEFAULT_PRECISION):
    result = curve_h0(point, prec)
    dphi = robust_dphi(point, prec)
    with mp.workprec(prec):
        split = abs(dphi) > to_mpf(NONZERO_TOL)
    verdict = "Split" if split else "NonSplit"
    s = result.sections[1]
    cert = {"eigen_residual": mpmath.nstr(result.eigen_residual, 5),
            "citation": CITE_ELLIPTIC,
            "section": {"f1": mpmath.nstr(s.f1, 15),
                        "f2": mpmath.nstr(s.f2, 15),
                        "a": mpmath.nstr(s.a, 15)}}
    return SplittingReport("EllipticInFiber", verdict, h0=result.h0,
                           certificate=cert, dphi_value=dphi)


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
