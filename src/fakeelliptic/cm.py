"""CM points: fixed points of elliptic elements of the order.

An element mu is elliptic when trd(mu)^2 < 4 nrd(mu)
(`quaternions.is_elliptic`); it then fixes a unique tau in the upper half
plane, and mu_tau = tau' * (tau, 1)^t for the eigenvalue tau' = C tau + D.
The fiber over such a tau is isogenous to a product of elliptic curves.
"""

import itertools
import math

from .exactlinalg import (ComputationError, DEFAULT_PRECISION, QuadComplex,
                          precision_tolerance, solve_quadratic)
from .family import UpperHalfPoint, as_complex, complex_structure
from .orders import _coords_str
from .quaternions import embed, is_elliptic


class NotElliptic(ComputationError):
    pass


class EigenMismatch(ComputationError):
    pass


def fixed_point_quadratic(mu):
    """Exact coefficients (c2, c1, c0) of C T^2 + (D - A) T - B over Q(sqrt a)."""
    M = embed(mu)
    return M[1][0], M[1][1] - M[0][0], -M[0][1]


def fixed_point(mu, prec=DEFAULT_PRECISION, nrd=None):
    """The unique fixed point of mu in the upper half plane."""
    if not is_elliptic(mu, nrd):
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
    import mpmath
    with mpmath.workprec(prec):
        t = as_complex(tau)
        v1, tprime = complex_structure(mu, t, prec)
        r1 = v1 - tprime * t
        if abs(r1) > precision_tolerance(prec) * (1 + abs(tprime)):
            raise EigenMismatch(f"residual {mpmath.nstr(abs(r1), 5)}")
        return tprime


class CMPoint:
    """mu, its fixed point (with exact quadratic), and the eigenvalue tau'."""

    __slots__ = ("mu", "tau", "tau_prime", "char_poly", "coords")

    def __init__(self, mu, tau, tau_prime, coords=None, nrd=None):
        self.mu = mu
        self.tau = tau
        self.tau_prime = tau_prime
        # tau' is a root of T^2 - trd(mu) T + nrd(mu)
        self.char_poly = (mu.trd(), mu.nrd() if nrd is None else nrd)
        self.coords = coords

    def __repr__(self):
        import mpmath
        return (f"CMPoint(mu={_coords_str(self.mu.coords())}, "
                f"tau={mpmath.nstr(self.tau.tau, 10)}, "
                f"tau_prime={mpmath.nstr(self.tau_prime, 10)})")


def cm_point(mu, prec=DEFAULT_PRECISION, coords=None):
    """Build the CM point of mu, normalizing the sign so Im(tau') > 0.

    mu and -mu have the same fixed point with conjugate eigenvalues, and
    Im tau' = C Im tau, so the sign with C = m - n sqrt(a) > 0 is kept.
    For elliptic mu that is the sign with m > 0: with a > 0 > b,
    -b m^2 > a l^2 - a b n^2 >= -a b n^2 forces m^2 > a n^2.  A mu that
    is not elliptic keeps its sign, so NotElliptic names the mu given.
    """
    nrd = mu.nrd()  # = nrd(-mu)
    if mu.m <= 0 and is_elliptic(mu, nrd):
        mu = -mu
        coords = tuple(-c for c in coords) if coords is not None else None
    tau = fixed_point(mu, prec, nrd)
    return CMPoint(mu, tau, eigenvalue_tau_prime(mu, tau, prec), coords, nrd)


def in_window(tau, window):
    """Whether the rounded tau lies in the closed window (re_min, re_max,
    im_min, im_max) of rationals, compared exactly as a dyadic value."""
    if window is None:
        return True
    re_min, re_max, im_min, im_max = window
    t = QuadComplex.of(as_complex(tau))
    return re_min <= t.real <= re_max and im_min <= t.imag <= im_max


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
    has the sign of C = m - n sqrt a, which for elliptic mu is that of M
    (`cm_point`).
    The loop (partial sums over c0, c1, c2, then c3) keeps the minimal
    (sum c^2, c) per oriented primitive (L, M, N), and `cm_point` runs
    once per elliptic class, on the minimum of the orientation with C > 0.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    a, b, _, B = order.form
    (l0, m0, n0), (l1, m1, n1), (l2, m2, n2), (l3, m3, n3) = (r[1:] for r in B)
    box = range(-height, height + 1)
    best = {}
    for c0, c1, c2 in itertools.product(box, repeat=3):
        L0 = c0 * l0 + c1 * l1 + c2 * l2
        M0 = c0 * m0 + c1 * m1 + c2 * m2
        N0 = c0 * n0 + c1 * n1 + c2 * n2
        s0 = c0 * c0 + c1 * c1 + c2 * c2
        for c3 in box:
            L, M, N = L0 + c3 * l3, M0 + c3 * m3, N0 + c3 * n3
            g = math.gcd(L, M, N)
            if g == 0:
                continue  # scalar
            key = (L // g, M // g, N // g)
            # c runs in lexicographic order: on a tie the first c is least
            norm, old = s0 + c3 * c3, best.get(key)
            if old is None or norm < old[0]:
                best[key] = (norm, (c0, c1, c2, c3))
    pts = []
    for (L, M, N), (_, coords) in best.items():
        if a * (b * N * N - L * L) - b * M * M <= 0:
            continue  # not elliptic
        if M <= 0:
            continue  # the class is visited from its other orientation
        pt = cm_point(order.element_from(coords), prec, coords)
        if in_window(pt.tau, window):
            pts.append(pt)
    pts.sort(key=lambda p: (sum(c * c for c in p.coords), p.coords))
    return pts
