"""Splitting computations: section spaces of restricted flat bundles.

The restriction of the cotangent bundle of the total space to a fiber or
to an elliptic curve in a fiber is flat; its sections are holomorphic
functions satisfying f(z + period) = rho(gen) f(z) for the unipotent
representation rho of the lattice.  Both kinds reduce to finite linear
systems: the 4x4 fiber system whose nonzero determinant certifies
non-splitting, and the single equation tau' f1 = mu_11 f1 + mu_21 f2
providing the extra section that splits an elliptic curve.

The exact classifier and the report type live in `classify`, which
needs no mpmath; they are re-exported here.  Only the numeric functions
import mpmath; the fiber verdict is exact.
"""

import random

# the exact verdicts and citations, re-exported
from .classify import (CITE_ELLIPTIC, CITE_ETALE, CITE_FIBER,  # noqa: F401
                       CITE_GENUS, CITE_RAMIFIED, CITE_RATIONAL, CITE_SURFACE,
                       InconsistentData, SplittingReport, classify_candidate)
from .exactlinalg import (DEFAULT_PRECISION, NONZERO_TOL, QuadComplex,
                          QuadExt, cofactor_det, decimal_str, to_mpf)
from .family import (UpperHalfPoint, _mpf_matrix, as_complex,
                     complex_structure)
from .quaternions import embed


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
        import mpmath
        with mpmath.workprec(prec):
            R = mpmath.eye(3)
            for c, vec in zip(coeffs, self.generator_vectors):
                R[2, 0] -= c * to_mpf(vec[0])
                R[2, 1] -= c * to_mpf(vec[1])
            return R


def fiber_rep(order, tau, prec=DEFAULT_PRECISION):
    """One vector per order generator: the first column of its embedding."""
    return FlatRep("fiber", [(E[0][0], E[1][0]) for E in order.embedding],
                   [complex_structure(g, tau, prec) for g in order.generators()])


class FiberSection:
    """f = (f1, f2, a1 z1 + a2 z2 + b), the closed form of fiber sections,
    with integer coefficients; `value` evaluates it in mpmath."""

    __slots__ = ("f1", "f2", "a1", "a2", "b")

    def __init__(self, f1, f2, a1, a2, b):
        self.f1, self.f2, self.a1, self.a2, self.b = f1, f2, a1, a2, b

    def value(self, z):
        import mpmath
        z1, z2 = mpmath.mpc(z[0]), mpmath.mpc(z[1])
        return mpmath.matrix([self.f1, self.f2,
                              self.a1 * z1 + self.a2 * z2 + self.b])


class FiberH0:
    __slots__ = ("h0", "det_witness", "factored_det", "sections",
                 "precision_used")

    def __init__(self, h0, det_witness, factored_det, sections,
                 precision_used):
        self.h0 = h0
        self.det_witness = det_witness
        self.factored_det = factored_det
        self.sections = sections
        self.precision_used = precision_used


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
    witness = abs(order.embedding_det)
    return FiberH0(1, witness, witness, [FiberSection(0, 0, 0, 0, 1)], prec)


def curve_rep(mu, tau, tau_prime):
    """Generators tau' and 1 of the curve lattice, with their vectors."""
    import mpmath
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
        import mpmath
        self.f1, self.f2, self.a, self.b = (mpmath.mpc(f1), mpmath.mpc(f2),
                                            mpmath.mpc(a), mpmath.mpc(b))

    def value(self, z):
        import mpmath
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
    import mpmath
    with mpmath.workprec(prec):
        (m11, m12), (m21, m22) = _mpf_matrix(embed(point.mu))
        tprime = as_complex(point.tau_prime)
        f1 = mpmath.mpc(1)
        f2 = (tprime - m11) / m21
        sections = [CurveSection(0, 0, 0, 1), CurveSection(f1, f2, -f1, 0)]
        vec = mpmath.matrix([f1, f2])
        Mt = mpmath.matrix([[m11, m21], [m12, m22]])
        return CurveH0(2, sections, mpmath.norm(Mt * vec - tprime * vec))


def dphi_check(section, tau_prime):
    """Image of the section under the differential: f1 tau' + f2."""
    return section.f1 * as_complex(tau_prime) + section.f2


def robust_dphi(point, prec=DEFAULT_PRECISION):
    """dphi of the non-constant section at prec bits."""
    import mpmath
    with mpmath.workprec(prec):
        return dphi_check(curve_h0(point, prec).sections[1], point.tau_prime)


def verify_sections(rep, sections, n_points=20, seed=0, prec=DEFAULT_PRECISION):
    """Max residual of f(z + period) - rho(gen) f(z) over random z.

    Re-verifies membership in the section space directly from the
    functional equation, independently of the solver's reduction.
    """
    import mpmath
    rng = random.Random(seed)
    with mpmath.workprec(prec):
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
        t = as_complex(tau)
        if not t.imag > 0:
            raise ValueError("tau must lie in the upper half plane")
        det = mpmath.det(mpmath.matrix([[1, t], [0, 1]]))
        return 1 if abs(det) > to_mpf(NONZERO_TOL) else 2


# ---------------------------------------------------------------------------
# verdicts


def fiber_splitting_report(order, tau):
    result = fiber_h0(order, tau)
    verdict = "NonSplit" if result.h0 == 1 else "Split"
    cert = {"det_witness": decimal_str(result.det_witness, 15),
            "factored_det": decimal_str(result.factored_det, 15),
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
    with mpmath.workprec(prec):
        dphi = dphi_check(s, point.tau_prime)
    cert = {"eigen_residual": mpmath.nstr(result.eigen_residual, 5),
            "citation": CITE_ELLIPTIC,
            "section": {"f1": mpmath.nstr(s.f1, 15),
                        "f2": mpmath.nstr(s.f2, 15),
                        "a": mpmath.nstr(s.a, 15)}}
    return SplittingReport("EllipticInFiber", "Split", h0=result.h0,
                           certificate=cert, dphi_value=dphi)
