"""The modular family over the upper half plane.

For tau in H_1 the order O_B maps to a lattice O_B * (tau, 1)^t in C^2,
giving an abelian surface A_tau.  This module carries the complex
structure, the polarization form E(m1, m2) = trd(rho * m1 * conj(m2)) and
its Riemann conditions, the Moebius action of norm-1 units together with
the lattice isogeny identity, and the 3x3 factor of automorphy of the
total space, with its cocycle and determinant identities.
"""

from fractions import Fraction
import math

import mpmath
from mpmath import mp

from .exactlinalg import (ComputationError, DEFAULT_PRECISION,
                          DEFAULT_TOLERANCE, IDENTITY_TOL, to_mpf,
                          tolerance_at)
from .quaternions import QuatElement, embed


class DegenerateLattice(ComputationError):
    """The four period vectors failed the real-rank-4 condition."""


def as_complex(tau):
    """tau as an mpc without re-rounding values that already are one.

    mpmath constructors round to the ambient precision even for existing
    mpmath numbers, so conversions must skip them to keep high-precision
    inputs intact outside workprec blocks.
    """
    if isinstance(tau, UpperHalfPoint):
        return tau.tau
    if isinstance(tau, mpmath.mpc):
        return tau
    return mpmath.mpc(tau)


class UpperHalfPoint:
    """A point tau with Im > 0, optionally carrying its exact quadratic."""

    __slots__ = ("tau", "quad")

    def __init__(self, tau, quad=None):
        tau = as_complex(tau)
        if not tau.imag > 0:
            raise ValueError("point not in the upper half plane")
        self.tau = tau
        self.quad = quad  # (c2, c1, c0) QuadExt coefficients, or None

    def __repr__(self):
        return f"UpperHalfPoint({mpmath.nstr(self.tau, 12)})"


def _tolerance(tol, default, prec):
    """tol as an mpf; None means the default as far as prec bits resolve it."""
    return to_mpf(tolerance_at(default, prec) if tol is None else tol)


def complex_structure(m, tau, prec=DEFAULT_PRECISION):
    """m_tau = embed(m) * (tau, 1)^t in C^2; for a unit, the second
    coordinate is its automorphy denominator j = c tau + d."""
    with mp.workprec(prec):
        return _apply(_numeric(embed(m), prec), as_complex(tau))


def _numeric(E, prec):
    """A 2x2 matrix over Q(sqrt a) with mpf entries at prec bits."""
    return [[x.numeric(prec) for x in row] for row in E]


def _apply(N, tau):
    """N (tau, 1)^t for a numeric 2x2 matrix N."""
    return (N[0][0] * tau + N[0][1], N[1][0] * tau + N[1][1])


class PeriodLattice:
    """The four generator images in C^2; enforces the rank-4 condition.

    Column j of the real period matrix P is a 4x4 matrix in tau, of
    determinant +-(Im tau)^2, times the row (E00, E10, E01, E11) of the
    embedded generator j, so |det P| = |det S| (Im tau)^2 for the stacked
    matrix S of those rows.  Im tau > 0 holds for every UpperHalfPoint,
    so the condition is the exact embedding_det = det S != 0 in
    Q(sqrt a), which the order computes once (`OrderLattice.embedding_det`).
    """

    def __init__(self, order, tau, prec=DEFAULT_PRECISION):
        if not isinstance(tau, UpperHalfPoint):
            tau = UpperHalfPoint(tau)
        self.embedding_det = order.embedding_det
        if self.embedding_det == 0:
            raise DegenerateLattice("period vectors are not R-independent")
        self.order = order
        self.tau = tau
        self.prec = prec
        with mp.workprec(prec):
            self.vectors = [_apply(_numeric(E, prec), tau.tau)
                            for E in order.embedding]

    def real_matrix(self):
        return _real_matrix(self.vectors)


def _real_matrix(vectors):
    """4x4 real matrix, column j = (Re v1, Im v1, Re v2, Im v2) of vector j."""
    P = mpmath.zeros(4, 4)
    for j, (v1, v2) in enumerate(vectors):
        P[0, j] = v1.real
        P[1, j] = v1.imag
        P[2, j] = v2.real
        P[3, j] = v2.imag
    return P


def riemann_form(rho, m1, m2):
    """E(m1, m2) = trd(rho * m1 * conj(m2)), an exact rational."""
    return (rho * m1 * m2.conj()).trd()


def _form_gram(rho, order, scale):
    """scale * E on the pairs of order basis elements."""
    gens = order.generators()
    return [[scale * riemann_form(rho, gi, gj) for gj in gens] for gi in gens]


class PolarizationData:
    """A pure quaternion rho with rho^2 < 0, and the integrality scale.

    The Gram matrix of scale * E on an order basis is kept for the last
    order it was asked for (`gram`), so a suite over many taus forms it
    once.
    """

    __slots__ = ("rho", "scale", "_gram")

    def __init__(self, rho, scale=Fraction(1)):
        if rho.k != 0:
            raise ValueError("rho must be a pure quaternion (conj(rho) = -rho)")
        if rho.nrd() <= 0:
            raise ValueError("rho^2 must be negative")
        self.rho = rho
        self.scale = Fraction(scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self._gram = (None, None)

    @classmethod
    def with_minimal_scale(cls, rho, order):
        """Scale = lcm of the denominators of E on the order basis pairs."""
        form = _form_gram(rho, order, 1)
        pol = cls(rho, math.lcm(*(v.denominator for row in form for v in row)))
        pol._gram = (order, [[pol.scale * v for v in row] for row in form])
        return pol

    def gram(self, order):
        """scale * E on the pairs of order basis elements (exact)."""
        if self._gram[0] is not order:
            self._gram = (order, _form_gram(self.rho, order, self.scale))
        return self._gram[1]


def default_rho(params):
    """rho = y: works in every algebra of the normal form (y^2 = b < 0)."""
    return QuatElement(params, 0, 0, 1, 0)


# multiplication by i on C^2 = R^4 in the coordinates of `_real_matrix`
_J_STANDARD = mpmath.matrix([[0, -1, 0, 0], [1, 0, 0, 0],
                             [0, 0, 0, -1], [0, 0, 1, 0]])


def riemann_conditions_check(lattice, pol, prec=DEFAULT_PRECISION, tol=None):
    """The three Riemann conditions for scale*E at the lattice's tau.

    (i)  scale*E is integral on all pairs of order basis elements (exact);
    (ii) E(J m1, J m2) = E(m1, m2) for the complex structure J of tau;
    (iii) the Hermitian form H(u, v) = E(u, Jv) + i E(u, v) is positive
          definite (both leading minors of its 2x2 Gram matrix positive).

    Returns a report dict with per-condition verdicts and witnesses.
    """
    with mp.workprec(prec):
        tol = _tolerance(tol, DEFAULT_TOLERANCE, prec)
        report = {"conditions": {}, "all_pass": True}

        values = pol.gram(lattice.order)
        bad = [(i, j) for i in range(4) for j in range(4)
               if values[i][j].denominator != 1]
        report["conditions"]["integral"] = {
            "pass": not bad,
            "witness": None if not bad else
            {"pair": bad[0], "value": str(values[bad[0][0]][bad[0][1]])},
            "gram": [[str(v) for v in row] for row in values],
        }

        # J on lattice coordinates: the pullback of multiplication by i
        P = lattice.real_matrix()
        Pi = P ** -1
        J = Pi * _J_STANDARD * P
        E4 = mpmath.matrix([[to_mpf(v) for v in row] for row in values])
        compat = mpmath.mnorm(J.T * E4 * J - E4)
        scaleref = mpmath.mnorm(E4) + 1
        report["conditions"]["j_compatible"] = {
            "pass": compat < tol * scaleref,
            "witness": {"residual": mpmath.nstr(compat, 8)},
        }

        # Hermitian Gram on the standard basis of C^2 pulled back to
        # lattice coordinates.
        basis_real = [mpmath.matrix([1, 0, 0, 0]), mpmath.matrix([0, 0, 1, 0])]
        vs = [Pi * e for e in basis_real]

        def Eval(u, v):
            return (u.T * E4 * v)[0, 0]

        G = mpmath.zeros(2, 2)
        for i in range(2):
            for j in range(2):
                G[i, j] = Eval(vs[i], J * vs[j]) + 1j * Eval(vs[i], vs[j])
        herm = mpmath.mnorm(G - G.transpose_conj())
        minor1 = G[0, 0].real
        minor2 = (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real
        pos = herm < tol * (mpmath.mnorm(G) + 1) and minor1 > tol and minor2 > tol
        report["conditions"]["positive_definite"] = {
            "pass": bool(pos),
            "witness": {"leading_minors": [mpmath.nstr(minor1, 10),
                                           mpmath.nstr(minor2, 10)],
                        "hermitian_residual": mpmath.nstr(herm, 8)},
        }

        report["all_pass"] = all(c["pass"] for c in report["conditions"].values())
        return report


# ---------------------------------------------------------------------------
# Moebius action and isogenies


def moebius_act(gamma, tau, prec=DEFAULT_PRECISION):
    """(a tau + b)/(c tau + d) for the embedded matrix of a norm-1 unit."""
    if gamma.nrd() != 1:
        raise ValueError("Moebius action needs det 1 (reduced norm 1)")
    with mp.workprec(prec):
        num, den = complex_structure(gamma, tau, prec)
        return num / den


def isogeny_lattice_check(gamma, tau, order, prec=DEFAULT_PRECISION, tol=None):
    """Lattice identity O_{B, gamma(tau)} = 1/(c tau + d) * O_{B, tau}.

    Both change-of-basis matrices are solved numerically and checked for
    integrality; together with unit determinant this certifies equality.
    """
    with mp.workprec(prec):
        tol = _tolerance(tol, DEFAULT_TOLERANCE, prec)
        tau = as_complex(tau)
        j = complex_structure(gamma, tau, prec)[1]
        tprime = moebius_act(gamma, tau, prec)
        gens = [_numeric(E, prec) for E in order.embedding]
        left = _real_matrix([_apply(N, tprime) for N in gens])
        right = _real_matrix([(v1 / j, v2 / j)
                              for v1, v2 in (_apply(N, tau) for N in gens)])

        for A, B in ((left, right), (right, left)):
            C = B ** -1 * A
            for i in range(4):
                for k in range(4):
                    if abs(C[i, k] - mpmath.nint(C[i, k])) > tol:
                        return False
        return True


# ---------------------------------------------------------------------------
# the group of the family and its factor of automorphy


class FamilyGroupElement:
    """(lambda, gamma): the block matrix [[id, lambda], [0, gamma]].

    lambda runs over the order, gamma over norm-1 units.  The product of
    the block matrices gives the group law
    (l1, g1) * (l2, g2) = (l2 + l1 g2, g1 g2).
    """

    __slots__ = ("lam", "gamma")

    def __init__(self, lam, gamma):
        if gamma.nrd() != 1:
            raise ValueError("gamma must have reduced norm 1")
        self.lam = lam
        self.gamma = gamma

    @classmethod
    def identity(cls, params):
        return cls(QuatElement(params, 0), QuatElement(params, 1))

    def __mul__(self, other):
        return FamilyGroupElement(other.lam + self.lam * other.gamma,
                                  self.gamma * other.gamma)

    def inverse(self):
        gi = self.gamma.inverse()
        return FamilyGroupElement(-(self.lam * gi), gi)

    def act(self, z, tau, prec=DEFAULT_PRECISION):
        """((z + lambda_tau)/(c tau + d), gamma(tau))."""
        with mp.workprec(prec):
            num, j = complex_structure(self.gamma, tau, prec)
            lt = complex_structure(self.lam, tau, prec)
            z1 = (as_complex(z[0]) + lt[0]) / j
            z2 = (as_complex(z[1]) + lt[1]) / j
            return (z1, z2), num / j


def automorphy_factor(g, z, tau, prec=DEFAULT_PRECISION):
    """The 3x3 factor defining the tangent bundle of the total space.

    This is the derivative of the projective action of the block matrix
    [[id, lambda], [0, gamma]] at (z, tau):

        1/j * [[id_2, (l_1 - c (z + lambda_tau)/j)], [0, 1/j]]

    with j = c tau + d and l_1 the first column of the embedded lambda.
    Its determinant is j^-4.
    """
    with mp.workprec(prec):
        tau = as_complex(tau)
        c, d = _numeric(embed(g.gamma), prec)[1]
        j = c * tau + d
        L = _numeric(embed(g.lam), prec)
        lt = _apply(L, tau)
        A = mpmath.zeros(3, 3)
        A[0, 0] = 1 / j
        A[1, 1] = 1 / j
        A[2, 2] = 1 / j ** 2
        A[0, 2] = (L[0][0] - c * (as_complex(z[0]) + lt[0]) / j) / j
        A[1, 2] = (L[1][0] - c * (as_complex(z[1]) + lt[1]) / j) / j
        return A


def cocycle_check(g1, g2, z, tau, prec=DEFAULT_PRECISION, tol=None):
    """a(g1 g2, x) = a(g1, g2 x) * a(g2, x) at x = (z, tau)."""
    with mp.workprec(prec):
        tol = _tolerance(tol, IDENTITY_TOL, prec)
        left = automorphy_factor(g1 * g2, z, tau, prec)
        z2, t2 = g2.act(z, tau, prec)
        right = automorphy_factor(g1, z2, t2, prec) * automorphy_factor(g2, z, tau, prec)
        return mpmath.mnorm(left - right) < tol


def canonical_degree_check(g, z, tau, prec=DEFAULT_PRECISION, tol=None):
    """det a(g, (z, tau)) = (c tau + d)^-4: the canonical bundle identity."""
    with mp.workprec(prec):
        tol = _tolerance(tol, IDENTITY_TOL, prec)
        A = automorphy_factor(g, z, tau, prec)
        j = complex_structure(g.gamma, tau, prec)[1]
        return abs(mpmath.det(A) - j ** -4) < tol


# ---------------------------------------------------------------------------
# randomized property suites (used by the CLI `suite` command and tests)


def random_order_element(order, rng, box=3):
    coords = [rng.randint(-box, box) for _ in range(4)]
    return order.element_from(coords)


def random_tau(rng):
    return mpmath.mpc(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))


def random_group_element(order, units, rng, box=3):
    lam = random_order_element(order, rng, box)
    gamma = rng.choice([u.element for u in units])
    return FamilyGroupElement(lam, gamma)
