"""CM points: fixed points of elliptic elements of the order.

An element mu is elliptic when trd(mu)^2 < 4 nrd(mu)
(`quaternions.is_elliptic`); it then fixes a unique tau in the upper half
plane (an `exactlinalg.UpperHalfPoint`; `cm` loads no `family`), and
mu_tau = tau' * (tau, 1)^t for the eigenvalue tau' = C tau + D.  The
fiber over such a tau is isogenous to a product of elliptic curves.
"""

from fractions import Fraction
import itertools
import math

from .exactlinalg import (ComputationError, DEFAULT_PRECISION, QuadComplex,
                          UpperHalfPoint, as_complex, precision_tolerance,
                          solve_quadratic)
from .orders import _coords_str
from .quaternions import embed, embed_mpf, is_elliptic


class NotElliptic(ComputationError):
    pass


class EigenMismatch(ComputationError):
    pass


class CMPoint:
    """mu, its fixed point, the eigenvalue tau', and the exact quadratic
    (C, D - A, -B) of tau over Q(sqrt a)."""

    __slots__ = ("mu", "tau", "tau_prime", "char_poly", "coords", "quad")

    def __init__(self, mu, tau, tau_prime, coords=None, nrd=None, quad=None):
        self.mu = mu
        self.tau = tau
        self.tau_prime = tau_prime
        # tau' is a root of T^2 - trd(mu) T + nrd(mu)
        self.char_poly = (mu.trd(), mu.nrd() if nrd is None else nrd)
        self.coords = coords
        self.quad = quad

    def __repr__(self):
        import mpmath
        return (f"CMPoint(mu={_coords_str(self.mu.coords())}, "
                f"tau={mpmath.nstr(self.tau.tau, 10)}, "
                f"tau_prime={mpmath.nstr(self.tau_prime, 10)})")


def cm_point(mu, prec=DEFAULT_PRECISION, coords=None, nrd=None):
    """The CM point of an elliptic mu, with the sign that puts tau' = C tau + D
    in the upper half plane.

    mu and -mu have the same fixed point with conjugate eigenvalues, and
    Im tau' = C Im tau, so the sign with C = m - n sqrt(a) > 0 is kept.
    For elliptic mu that is the sign with m > 0: with a > 0 > b,
    -b m^2 > a l^2 - a b n^2 >= -a b n^2 forces m^2 > a n^2.  C is then
    nonzero, so tau is the upper root of C T^2 + (D - A) T - B, and
    A tau + B = tau' tau is verified relative to 1 + |tau'|, at the
    tolerance 2^-(prec/2) that the working precision resolves.

    A caller that has proved mu elliptic passes its nrd, as
    `enumerate_cm_points` does from its integer scan; without it, mu's
    norm is computed here and a mu that is not elliptic is refused.  mu
    is embedded once, exactly, for `quad`, and rounded by `embed_mpf`.
    """
    import mpmath
    if nrd is None:
        nrd = mu.nrd()  # = nrd(-mu)
        if not is_elliptic(mu, nrd):
            raise NotElliptic(f"{mu!r} has no fixed point in the upper "
                              "half plane")
    if mu.m <= 0:
        mu = -mu
        coords = tuple(-c for c in coords) if coords is not None else None
    E = embed(mu)
    quad = (E[1][0], E[1][1] - E[0][0], -E[0][1])
    with mpmath.workprec(prec):
        (A, B), (C, D) = embed_mpf(mu)
        # D - A = -2 l sqrt(a) is exact, so it is rounded once
        tau, _ = solve_quadratic(C, quad[1], -B, prec)
        tau_prime = C * tau + D
        r1 = A * tau + B - tau_prime * tau
        if abs(r1) > precision_tolerance(prec) * (1 + abs(tau_prime)):
            raise EigenMismatch(f"residual {mpmath.nstr(abs(r1), 5)}")
    return CMPoint(mu, UpperHalfPoint(tau), tau_prime, coords, nrd, quad)


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
    The loop (partial sums over c0, c1, c2, then c3) skips the elements
    that are not elliptic (scalars among them) or have M <= 0, and keeps
    the minimal (sum c^2, c) per primitive (L, M, N), so `cm_point` runs
    once per elliptic class, on the minimum of the orientation with C > 0,
    with the nrd (v0^2 + Q) / D^2 that the scan proved positive, for
    v0 = (c B')_0 and Q = -a' L^2 - b' M^2 + a' b' N^2.  When g0 is a
    scalar ((L, M, N) = 0 on the first row, as in every saturated order),
    c0 moves no class and c0 = 0 has the least (sum c^2, c), so only
    c0 = 0 is scanned.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    a, b, D, B = order.form
    (l0, m0, n0), (l1, m1, n1), (l2, m2, n2), (l3, m3, n3) = (r[1:] for r in B)
    box = range(-height, height + 1)
    first = (0,) if l0 == m0 == n0 == 0 else box
    best = {}
    for c0, c1, c2 in itertools.product(first, box, box):
        L0 = c0 * l0 + c1 * l1 + c2 * l2
        M0 = c0 * m0 + c1 * m1 + c2 * m2
        N0 = c0 * n0 + c1 * n1 + c2 * n2
        s0 = c0 * c0 + c1 * c1 + c2 * c2
        for c3 in box:
            L, M, N = L0 + c3 * l3, M0 + c3 * m3, N0 + c3 * n3
            if M <= 0 or (Q := a * (b * N * N - L * L) - b * M * M) <= 0:
                continue
            g = math.gcd(L, M, N)
            key = (L // g, M // g, N // g)
            # c runs in lexicographic order: on a tie the first c is least
            norm, old = s0 + c3 * c3, best.get(key)
            if old is None or norm < old[0]:
                best[key] = (norm, (c0, c1, c2, c3), Q)
    pts = []
    for _, coords, Q in best.values():
        v0 = sum(c * row[0] for c, row in zip(coords, B))
        pt = cm_point(order.element_from(coords), prec, coords,
                      Fraction(v0 * v0 + Q, D * D))
        if in_window(pt.tau, window):
            pts.append(pt)
    pts.sort(key=lambda p: (sum(c * c for c in p.coords), p.coords))
    return pts
