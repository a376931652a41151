"""CM points: fixed points of elliptic elements of the order.

An element mu is elliptic when it is projectively nontrivial, nrd(mu) > 0
and trd(mu)^2 < 4 nrd(mu); it then fixes a unique tau in the upper half
plane, and mu_tau = tau' * (tau, 1)^t for the eigenvalue tau' = C tau + D.
The fiber over such a tau is isogenous to a product of elliptic curves.
"""

import itertools
import math

import mpmath
from mpmath import mp

from .exactlinalg import (ComputationError, DEFAULT_PRECISION,
                          precision_tolerance, solve_quadratic)
from .family import UpperHalfPoint, as_complex, complex_structure
from .orders import _coords_str
from .quaternions import embed


class NotElliptic(ComputationError):
    pass


class EigenMismatch(ComputationError):
    pass


def is_elliptic(mu):
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    if mu.is_scalar():
        return False
    nrd = mu.nrd()
    return nrd > 0 and mu.trd() ** 2 < 4 * nrd


def fixed_point_quadratic(mu):
    """Exact coefficients (c2, c1, c0) of C T^2 + (D - A) T - B over Q(sqrt a)."""
    M = embed(mu)
    return M[1][0], M[1][1] - M[0][0], -M[0][1]


def fixed_point(mu, prec=DEFAULT_PRECISION):
    """The unique fixed point of mu in the upper half plane."""
    if not is_elliptic(mu):
        raise NotElliptic(f"{mu!r} has no fixed point in the upper half plane")
    c2, c1, c0 = fixed_point_quadratic(mu)
    # c2 = m - n*sqrt(a) is nonzero: otherwise mu is triangular with real
    # eigenvalues, contradicting trd^2 < 4 nrd
    r1, _ = solve_quadratic(c2, c1, c0, prec)
    return UpperHalfPoint(r1, quad=(c2, c1, c0))


def eigenvalue_tau_prime(mu, tau, prec=DEFAULT_PRECISION):
    """tau' with mu_tau = tau' * (tau, 1)^t, i.e. tau' = C tau + D.

    The second coordinate holds by the definition of tau'; the first,
    A tau + B = tau' tau, is verified relative to 1 + |tau'|, at the
    tolerance 2^-(prec/2) that the working precision resolves.
    """
    with mp.workprec(prec):
        t = as_complex(tau)
        v1, tprime = complex_structure(mu, t, prec)
        r1 = v1 - tprime * t
        if abs(r1) > precision_tolerance(prec) * (1 + abs(tprime)):
            raise EigenMismatch(f"residual {mpmath.nstr(abs(r1), 5)}")
        return tprime


class CMPoint:
    """mu, its fixed point (with exact quadratic), and the eigenvalue tau'."""

    __slots__ = ("mu", "tau", "tau_prime", "char_poly", "coords")

    def __init__(self, mu, tau, tau_prime, coords=None):
        self.mu = mu
        self.tau = tau
        self.tau_prime = tau_prime
        # tau' is a root of T^2 - trd(mu) T + nrd(mu)
        self.char_poly = (mu.trd(), mu.nrd())
        self.coords = coords

    def quad_key(self):
        """Monic exact quadratic of tau over Q(sqrt a): the dedup key."""
        c2, c1, c0 = self.tau.quad
        return (c1 / c2, c0 / c2)

    def __repr__(self):
        return (f"CMPoint(mu={_coords_str(self.mu.coords())}, "
                f"tau={mpmath.nstr(self.tau.tau, 10)}, "
                f"tau_prime={mpmath.nstr(self.tau_prime, 10)})")


def cm_point(mu, prec=DEFAULT_PRECISION, coords=None):
    """Build the CM point of mu, normalizing the sign so Im(tau') > 0.

    mu and -mu have the same fixed point with conjugate eigenvalues, and
    Im tau' = C Im tau, so the sign with C = m - n sqrt(a) > 0 is kept.
    """
    if not _upper_orientation(mu.m, mu.n, mu.params.a):
        mu = -mu
        coords = tuple(-c for c in coords) if coords is not None else None
    tau = fixed_point(mu, prec)
    return CMPoint(mu, tau, eigenvalue_tau_prime(mu, tau, prec), coords)


def in_window(tau, window):
    if window is None:
        return True
    re_min, re_max, im_min, im_max = window
    t = as_complex(tau)
    return re_min <= t.real <= re_max and im_min <= t.imag <= im_max


def _upper_orientation(M, N, a):
    """Whether M - N sqrt(a) > 0, for rationals M, N not both zero and a
    no rational square."""
    if M >= 0 and N <= 0:
        return True
    if M <= 0 and N >= 0:
        return False
    # equal signs: compare M^2 with a N^2, never equal as a is no square
    return (M > 0) == (M * M > a * N * N)


def enumerate_cm_points(order, height, window=None, prec=DEFAULT_PRECISION):
    """All CM points of elliptic elements with coordinates in [-height, height]^4.

    Deduplicated by the exact monic quadratic of tau; for each point the
    representative mu with the smallest coordinate norm is kept
    (lexicographic coordinates break ties), with the sign that puts tau'
    in the upper half plane.

    The box is scanned on the integer form (a', b', D, B') of the order
    (`OrderLattice.form`): the trace-zero part mu0 of mu = sum c_i g_i is
    (L x' + M y' + N x'y') / D with integers (L, M, N) = sum c_i B'_i.
    The fixed-point quadratic of mu is linear in mu0 and free of its
    scalar part, so all elements whose primitive (L, M, N) agree up to
    sign fix the same point; mu is elliptic iff trd^2 - 4 nrd =
    -4 nrd(mu0) < 0, i.e. -a' L^2 - b' M^2 + a' b' N^2 > 0; and Im tau'
    has the sign of C = m - n sqrt a, which is that of M - N sqrt a'.
    The loop keeps the minimal (sum c^2, c) per oriented primitive
    (L, M, N), and `cm_point` runs once per elliptic class, on the
    minimum of the orientation with C > 0.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    a, b, _, B = order.form
    rows = [row[1:] for row in B]
    best = {}
    for c in itertools.product(range(-height, height + 1), repeat=4):
        L = M = N = 0
        for ci, (l, m, n) in zip(c, rows):
            L += ci * l
            M += ci * m
            N += ci * n
        g = math.gcd(L, M, N)
        if g == 0:
            continue  # scalar
        key = (L // g, M // g, N // g)
        rank = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3], c)
        if key not in best or rank < best[key]:
            best[key] = rank
    pts = []
    for (L, M, N), (_, coords) in best.items():
        if a * (b * N * N - L * L) - b * M * M <= 0:
            continue  # not elliptic
        if not _upper_orientation(M, N, a):
            continue  # the class is visited from its other orientation
        pt = cm_point(order.element_from(coords), prec, coords)
        if in_window(pt.tau, window):
            pts.append(pt)
    pts.sort(key=lambda p: (sum(c * c for c in p.coords), p.coords))
    return pts
