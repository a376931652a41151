import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from fakeelliptic import cm
from fakeelliptic.cm import (EigenMismatch, NotElliptic, cm_point,
                             enumerate_cm_points, eigenvalue_tau_prime,
                             fixed_point, fixed_point_quadratic, in_window,
                             is_elliptic)
from fakeelliptic.family import moebius_act
from fakeelliptic.exactlinalg import QuadExt
from fakeelliptic.orders import enumerate_units, saturate, standard_order
from fakeelliptic.quaternions import AlgebraParams, QuatElement, embed
from oracles import (enumerate_cm_points_bruteforce, fixes_tau_numeric,
                     normalize_isogeny, reference_roots)

I = mpmath.mpc(0, 1)
EPS = mpmath.mpf(10) ** -30


def test_is_elliptic(params):
    y = QuatElement(params, 0, 0, 1)
    x = QuatElement(params, 0, 1)
    assert is_elliptic(y)
    assert not is_elliptic(x)  # nrd = -3
    assert not is_elliptic(QuatElement(params, 5))  # projectively trivial
    assert not is_elliptic(QuatElement(params, 5, 1))  # trd^2 >= 4 nrd
    with pytest.raises(ValueError):
        is_elliptic(QuatElement(params, 0))


def test_fixed_point_pinned(params):
    y = QuatElement(params, 0, 0, 1)
    assert abs(fixed_point(y, 128).tau - I) < EPS
    mu = QuatElement(params, 0, 1, 2)  # x + 2y, embeds to [[s3, -2], [2, -s3]]
    assert mu.trd() == 0 and mu.nrd() == 1
    with mp.workprec(160):
        want = (mpmath.sqrt(3) + I) / 2
        assert abs(fixed_point(mu, 128).tau - want) < EPS
    # 1 + y commutes with y and fixes the same point
    assert abs(fixed_point(QuatElement(params, 1, 0, 1), 128).tau - I) < EPS


def test_fixed_point_quadratic_is_exact(params):
    mu = QuatElement(params, 0, 1, 2)
    c2, c1, c0 = fixed_point_quadratic(mu)
    M = embed(mu)
    assert c2 == M[1][0] and c1 == M[1][1] - M[0][0] and c0 == -M[0][1]
    r1, _ = reference_roots(c2, c1, c0, 128)
    assert abs(fixed_point(mu, 128).tau - r1) < EPS


def test_fixed_point_requires_elliptic(params):
    with pytest.raises(NotElliptic):
        fixed_point(QuatElement(params, 0, 1))
    with pytest.raises(NotElliptic):
        fixed_point(QuatElement(params, 5))


def test_eigenvalue_pinned(params):
    y = QuatElement(params, 0, 0, 1)
    assert abs(eigenvalue_tau_prime(y, fixed_point(y, 128), 128) - I) < EPS
    mu = QuatElement(params, 0, 1, 2)
    assert abs(eigenvalue_tau_prime(mu, fixed_point(mu, 128), 128) - I) < EPS
    w = QuatElement(params, 1, 0, 1)
    tp = eigenvalue_tau_prime(w, fixed_point(w, 128), 128)
    assert abs(tp - (1 + I)) < EPS
    # char poly T^2 - 2T + 2 of 1 + y vanishes at tau'
    assert abs(tp * tp - 2 * tp + 2) < EPS


def test_eigenvalue_rejects_wrong_point(params):
    y = QuatElement(params, 0, 0, 1)
    with pytest.raises(EigenMismatch):
        eigenvalue_tau_prime(y, mpmath.mpc(0, 2), 128)


def test_cm_point_sign_normalization(params):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(-y, 128, coords=(0, 0, -1, 0))
    assert pt.mu == y
    assert pt.coords == (0, 0, 1, 0)
    assert pt.tau_prime.imag > 0
    assert pt.char_poly == (0, 1)


@pytest.mark.parametrize("ab", [(3, -1), (5, -2), (7, -57)])
def test_cm_point_orients_either_sign_with_one_fixed_point(ab, monkeypatch):
    params = AlgebraParams(*ab)
    m = math.isqrt(int(params.a)) + 1  # m^2 > a: -b (m^2 - a) > 0, elliptic
    fixed = cm.fixed_point
    calls = []
    monkeypatch.setattr(cm, "fixed_point", lambda mu, prec, nrd=None:
                        calls.append(mu) or fixed(mu, prec, nrd))
    # C = m - n sqrt a is 1, m - sqrt a and m + sqrt a, each with both signs
    for coords in ((0, 0, 1, 0), (1, 0, m, 1), (0, 0, m, -1)):
        mu = QuatElement(params, *coords)
        # oracle: the sign whose numeric eigenvalue lies in the upper half plane
        upper = [s for s in (mu, -mu)
                 if eigenvalue_tau_prime(s, fixed(s, 128), 128).imag > 0]
        assert len(upper) == 1
        for start in (mu, -mu):
            calls.clear()
            pt = cm_point(start, 128, coords=start.coords())
            assert len(calls) == 1
            assert pt.mu == upper[0] and pt.coords == upper[0].coords()
            assert pt.tau_prime.imag > 0


def test_orientation_is_the_sign_of_m(max_order, rational_lattices):
    # elliptic mu, a > 0 > b: -b m^2 > a l^2 - a b n^2 >= -a b n^2, so
    # m^2 > a n^2 and C = m - n sqrt(a) has the sign of m
    for order in (max_order, rational_lattices[0]):
        a = order.params.a
        pts = enumerate_cm_points(order, 2, None, 128)
        assert pts
        for pt in pts:
            assert pt.mu.m > 0 and pt.mu.m ** 2 > a * pt.mu.n ** 2
        for c in itertools.product(range(-2, 3), repeat=4):
            mu = order.element_from(c)
            if not mu.is_zero() and is_elliptic(mu):
                assert mu.m ** 2 > a * mu.n ** 2
                assert QuadExt(mu.m, -mu.n, a).sign() == (1 if mu.m > 0 else -1)


def test_cm_point_eigenvector_relation(params, max_order):
    rng = random.Random(31)
    pts = enumerate_cm_points(max_order, 2, prec=128)
    for pt in pts:
        M = embed(pt.mu)
        t = pt.tau.tau
        with mp.workprec(160):
            for row in (0, 1):
                lhs = M[row][0].numeric(128) * t + M[row][1].numeric(128)
                rhs = pt.tau_prime * (t if row == 0 else 1)
                assert abs(lhs - rhs) < mpmath.mpf(10) ** -25
            # tau' is a root of the exact characteristic polynomial
            trd, nrd = pt.char_poly
            tp = pt.tau_prime
            assert abs(tp * tp - int(trd) * tp + int(nrd)) < mpmath.mpf(10) ** -25


def test_normalize_isogeny_pinned(params, max_order):
    y = QuatElement(params, 0, 0, 1)
    mu = QuatElement(params, 0, 1, 2)
    assert normalize_isogeny(QuatElement(params, 1), mu, max_order) == mu
    assert normalize_isogeny(QuatElement(params, 2), 2 * y, max_order) == y
    assert normalize_isogeny(y, y * mu, max_order) == mu
    with pytest.raises(ValueError):
        normalize_isogeny(QuatElement(params, 0), mu, max_order)


def test_normalize_isogeny_clears_denominators(params, max_order):
    # lam = 3 gives lam^-1 mu = mu/3, so the minimal cover is n = 3
    y = QuatElement(params, 0, 0, 1)
    lam = QuatElement(params, 3)
    assert normalize_isogeny(lam, y, max_order) == y
    assert normalize_isogeny(lam, 3 * y, max_order) == y


def test_cm_point_repr(max_order):
    pt = enumerate_cm_points(max_order, 1)[0]
    assert repr(pt) == ("CMPoint(mu=(0, 0, 1, 0), tau=(0.0 + 1.0j), "
                        "tau_prime=(0.0 + 1.0j))")


def test_enumerate_counts(max_order):
    assert len(enumerate_cm_points(max_order, 1, prec=128)) == 3
    assert len(enumerate_cm_points(max_order, 2, prec=128)) == 11
    pts = enumerate_cm_points(max_order, 3, prec=128)
    assert len(pts) == 29
    assert [p.coords for p in pts[:6]] == [
        (0, 0, 1, 0), (0, 0, 1, 1), (0, -1, 1, 1),
        (0, -1, 2, 0), (0, 0, 2, -1), (0, 0, 2, 1)]


def test_enumerate_finds_pinned_taus(max_order):
    pts = enumerate_cm_points(max_order, 3, prec=128)
    taus = [p.tau.tau for p in pts]
    with mp.workprec(160):
        want_i = min(abs(t - I) for t in taus)
        want_w = min(abs(t - (mpmath.sqrt(3) + I) / 2) for t in taus)
        assert want_i < EPS and want_w < EPS
    keys = {p.quad_key() for p in pts}
    assert len(keys) == len(pts)  # deduplicated by exact quadratic


def test_enumerate_computes_each_reduced_norm_once(max_order, monkeypatch):
    # fixed_point's ellipticity test and char_poly share one nrd per point
    calls = []
    nrd = QuatElement.nrd
    monkeypatch.setattr(QuatElement, "nrd",
                        lambda mu: calls.append(mu) or nrd(mu))
    pts = enumerate_cm_points(max_order, 4, prec=128)
    assert len(pts) == 60 and len(calls) == 60
    monkeypatch.undo()
    assert all(p.char_poly == (p.mu.trd(), p.mu.nrd()) for p in pts)


def test_enumerate_skips_scalars(max_order):
    for pt in enumerate_cm_points(max_order, 2, prec=128):
        assert not pt.mu.is_scalar()
        assert is_elliptic(pt.mu)


def test_enumerate_window(max_order):
    all_pts = enumerate_cm_points(max_order, 1, prec=128)
    half = Fraction(1, 2)
    boxed = enumerate_cm_points(max_order, 1, prec=128,
                                window=(-half, half, half, 3 * half))
    assert {p.quad_key() for p in boxed} <= {p.quad_key() for p in all_pts}
    assert any(abs(p.tau.tau - I) < EPS for p in boxed)
    assert enumerate_cm_points(max_order, 1, window=(5, 6, 5, 6), prec=128) == []
    with pytest.raises(ValueError):
        enumerate_cm_points(max_order, 0, prec=128)


def test_in_window_is_closed():
    assert in_window(mpmath.mpc(1, 1), (1, 2, 1, 2))
    assert not in_window(mpmath.mpc(0.99, 1), (1, 2, 1, 2))
    assert in_window(mpmath.mpc(1, 1), None)


def test_in_window_compares_the_rounded_tau_exactly():
    # the double 0.3 lies below the edge 3/10, an mpc of exactly 1/2 on it
    tenths = (Fraction(-1), Fraction(1), Fraction(3, 10), Fraction(1))
    assert not in_window(mpmath.mpc(0, 0.3), tenths)
    assert in_window(mpmath.mpc(0, 0.5), (-1, 1, Fraction(1, 2), 1))
    assert in_window(mpmath.mpc(0, 1.0000000000000002), (0, 0, 1, 2))
    assert not in_window(mpmath.mpc(0, 1.0000000000000002), (0, 0, 0, 1))


def test_conjugation_consistency(params, max_order):
    units = [u.element for u in enumerate_units(max_order, 1)]
    pts = enumerate_cm_points(max_order, 1, prec=128)
    rng = random.Random(33)
    for pt in pts:
        g = rng.choice(units)
        conj_mu = g * pt.mu * g.inverse()
        lhs = fixed_point(conj_mu, 128).tau
        rhs = moebius_act(g, pt.tau.tau, 128)
        assert abs(lhs - rhs) < mpmath.mpf(10) ** -25


def test_grid_equivalence_with_brute_force(max_order):
    # at every enumerated tau some boxed mu fixes it; at a generic tau none does
    pts = enumerate_cm_points(max_order, 2, prec=128)
    box = []
    for coeffs in itertools.product(range(-2, 3), repeat=4):
        q = max_order.element_from(coeffs)
        if not q.is_zero() and not q.is_scalar() and is_elliptic(q):
            box.append(q)
    for pt in pts:
        assert any(fixes_tau_numeric(mu, pt.tau.tau, 128) for mu in box)
    generic = mpmath.mpc("0.31", "0.93")
    assert not any(fixes_tau_numeric(mu, generic, 128) for mu in box)


def test_class_shares_quad_key(max_order):
    # mu, -mu, mu + k and 2 mu have one fixed point: the class dedup of
    # enumerate_cm_points rests on this
    for pt in enumerate_cm_points(max_order, 2, prec=128):
        mu = pt.mu
        key = pt.quad_key()
        for other in (-mu, mu + 3, mu * 2):
            assert cm_point(other, 128).quad_key() == key
            c2, c1, c0 = fixed_point_quadratic(other)
            assert (c1 / c2, c0 / c2) == key


def _point_fields(pt):
    c2, c1, c0 = pt.tau.quad
    return (pt.coords, pt.mu.coords(), pt.tau.tau, pt.tau_prime, pt.char_poly,
            tuple((c.u, c.v, c.rad) for c in (c2, c1, c0)))


# the window edges Re = 0, Im = 1/2 and Im = 1 pass through CM points of
# (3, -1), such as i and (sqrt 3 + i) / 2
ORACLE_CASES = [((3, -1), h, w) for h in (1, 2, 3)
                for w in (None, (0, Fraction(3, 2), Fraction(1, 2), 1))]
ORACLE_CASES += [(ab, h, None) for ab in ((3, -7), (2, -5), (7, -57), (13, -10))
                 for h in (1, 2)]
# one larger scan: 2401 box elements and 23 points, about 1 s with the oracle
ORACLE_CASES += [((3, -7), 3, None)]


def _case_id(case):
    (a, b), h, window = case
    return f"{a},{b}-h{h}" + ("-window" if window else "")


@pytest.mark.parametrize("ab,height,window", ORACLE_CASES,
                         ids=[_case_id(c) for c in ORACLE_CASES])
def test_enumerate_matches_bruteforce(ab, height, window):
    order = saturate(standard_order(AlgebraParams(*ab)))
    got = enumerate_cm_points(order, height, window, 128)
    want = enumerate_cm_points_bruteforce(order, height, window, 128)
    assert [_point_fields(p) for p in got] == [_point_fields(p) for p in want]


def test_enumerate_matches_bruteforce_on_rational_lattices(rational_lattices):
    # the integer form scales x and y, so (L, M, N), a' and b' differ from
    # the (1, x, y, xy) coordinates
    for L in rational_lattices:
        got = enumerate_cm_points(L, 2, None, 128)
        want = enumerate_cm_points_bruteforce(L, 2, None, 128)
        assert got
        assert [_point_fields(p) for p in got] == [_point_fields(p) for p in want]
