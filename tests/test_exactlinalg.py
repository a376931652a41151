import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from fakeelliptic import exactlinalg
from fakeelliptic.exactlinalg import (DEFAULT_TOLERANCE, IDENTITY_TOL,
                                      QuadExt, exact_det, exact_rank,
                                      exact_solve, fraction_sqrt,
                                      numeric_svd, precision_tolerance,
                                      resolution, solve_quadratic, to_mpf,
                                      tolerance_at)
from fakeelliptic.quaternions import AlgebraParams, QuatElement, embed
from oracles import (exact_nullspace, laplace_det, numeric_nullspace,
                     rank_by_minors, reference_roots)


def frows(vals):
    return [[Fraction(v) for v in row] for row in vals]


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(4)) == 2
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(0)) == 0
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None


def test_quadext_arithmetic():
    s = QuadExt(0, 1, 3)
    assert s * s == 3
    assert (1 + s) * (2 - s) == QuadExt(-1, 1, 3)
    assert s.conjugate() == -s
    assert (s - s).is_zero()
    assert s / s == 1
    assert (1 / s) * s == 1
    assert QuadExt(2, 1, 3).inverse() * QuadExt(2, 1, 3) == 1


def test_quadext_validation():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(1, 1, -3)
    with pytest.raises(ValueError):
        QuadExt(0, 1, 3) + QuadExt(0, 1, 5)
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, 3).inverse()


def test_quadext_arithmetic_reuses_the_checked_radicand(monkeypatch):
    params = AlgebraParams(3, -1)
    mu = QuatElement(params, 1, 2, 3, 4)
    nu = QuatElement(params, 0, 1, 2, Fraction(1, 2))
    M, N, want = embed(mu), embed(nu), embed(mu * nu)
    calls = []
    monkeypatch.setattr(exactlinalg, "fraction_sqrt",
                        lambda r: calls.append(r))
    prod = [[M[i][0] * N[0][j] + M[i][1] * N[1][j] for j in range(2)]
            for i in range(2)]
    det = exact_det(M)
    quotient = (1 - M[0][0]) / M[1][0] - 2
    assert calls == []
    assert prod == want
    assert det == mu.nrd()
    assert quotient * M[1][0] == 1 - M[0][0] - 2 * M[1][0]


def test_quadext_numeric():
    s = QuadExt(1, Fraction(2, 7), 3)
    with mp.workprec(128):
        want = 1 + mpmath.mpf(2) / 7 * mpmath.sqrt(3)
        assert abs(s.numeric(128) - want) < mpmath.mpf(2) ** -120


def test_exact_rank_pinned():
    eye = frows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    assert exact_rank(eye) == 4
    assert exact_rank(frows([[0] * 3] * 3)) == 0
    assert exact_rank(frows([[1, 0, 1, 0], [0, 1, 0, 1]])) == 2


def test_exact_rank_matches_minor_oracle():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(4)]
                for _ in range(rng.randint(1, 4))]
        assert exact_rank(rows) == rank_by_minors(rows)


def test_exact_rank_quadext_matches_minor_oracle():
    rng = random.Random(13)
    for _ in range(12):
        rows = [[QuadExt(rng.randint(-2, 2), rng.randint(-2, 2), 3)
                 for _ in range(3)]
                for _ in range(3)]
        assert exact_rank(rows) == rank_by_minors(rows)


def test_exact_det_matches_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        assert exact_det(rows) == laplace_det(rows)
    for _ in range(8):
        rows = [[QuadExt(rng.randint(-2, 2), rng.randint(-2, 2), 3)
                 for _ in range(3)] for _ in range(3)]
        assert exact_det(rows) == laplace_det(rows)


def test_exact_det_shape_check():
    with pytest.raises(ValueError):
        exact_det(frows([[1, 2, 3], [4, 5, 6]]))


def test_exact_nullspace_membership():
    rows = frows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = exact_nullspace(rows)
    assert len(basis) == 3 - exact_rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0
    assert exact_nullspace(frows([[1, 0], [0, 1]])) == []


def test_exact_solve():
    rows = frows([[2, 1], [1, -1]])
    x = exact_solve(rows, [Fraction(5), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    # inconsistent
    assert exact_solve(frows([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]) is None
    # underdetermined
    assert exact_solve(frows([[1, 1], [2, 2]]), [Fraction(1), Fraction(2)]) is None


def test_numeric_svd_reconstructs():
    with mp.workprec(128):
        rng = random.Random(23)
        A = mpmath.matrix([[mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(3)] for _ in range(3)])
        sigma, V = numeric_svd(A, 128)
        assert all(sigma[i] >= sigma[i + 1] for i in range(len(sigma) - 1))


def test_numeric_nullspace_identity_empty():
    with mp.workprec(128):
        assert numeric_nullspace(mpmath.eye(3), mpmath.mpf(10) ** -20, 128) == []


def test_numeric_nullspace_rank_one_complex():
    # second row is i times the first; the kernel line is spanned by (1, i)
    with mp.workprec(128):
        M = mpmath.matrix([[1, 1j], [1j, -1]])
        basis = numeric_nullspace(M, mpmath.mpf(10) ** -20, 128)
        assert len(basis) == 1
        v = basis[0]
        assert abs(v[1] / v[0] - 1j) < mpmath.mpf(10) ** -30
        assert mpmath.norm(M * v) < mpmath.mpf(10) ** -30


def test_numeric_nullspace_zero_matrix():
    with mp.workprec(128):
        basis = numeric_nullspace(mpmath.zeros(2, 2), mpmath.mpf(10) ** -20, 128)
        assert len(basis) == 2


def test_numeric_nullspace_wide_matrix():
    with mp.workprec(128):
        M = mpmath.matrix([[1, 0, 1j]])
        basis = numeric_nullspace(M, mpmath.mpf(10) ** -20, 128)
        assert len(basis) == 2
        for v in basis:
            assert mpmath.norm(M * v) < mpmath.mpf(10) ** -30


def test_solve_quadratic_pinned():
    with mp.workprec(128):
        eps = mpmath.mpf(10) ** -30
        r1, r2 = solve_quadratic(Fraction(1), Fraction(0), Fraction(1))
        assert abs(r1 - 1j) < eps and abs(r2 + 1j) < eps
        s3 = QuadExt(0, 1, 3)
        r1, r2 = solve_quadratic(QuadExt(1, 0, 3), -s3, QuadExt(1, 0, 3))
        want = (mpmath.sqrt(3) + 1j) / 2
        assert abs(r1 - want) < eps
        assert abs(r2 - mpmath.conj(want)) < eps
        # two real roots: larger real part first
        r1, r2 = solve_quadratic(Fraction(2), Fraction(0), Fraction(-8))
        assert abs(r1 - 2) < eps and abs(r2 + 2) < eps


def test_solve_quadratic_matches_formula_oracle():
    rng = random.Random(29)
    with mp.workprec(128):
        eps = mpmath.mpf(10) ** -30
        for _ in range(20):
            c2 = QuadExt(rng.randint(-3, 3), rng.randint(-3, 3), 3)
            if c2.is_zero():
                continue
            c1 = QuadExt(rng.randint(-3, 3), rng.randint(-3, 3), 3)
            c0 = QuadExt(rng.randint(-3, 3), rng.randint(-3, 3), 3)
            r1, r2 = solve_quadratic(c2, c1, c0, 128)
            w1, w2 = reference_roots(c2, c1, c0, 128)
            assert abs(r1 - w1) < eps
            assert abs(r2 - w2) < eps


def test_solve_quadratic_zero_leading():
    with pytest.raises(ZeroDivisionError):
        solve_quadratic(Fraction(0), Fraction(1), Fraction(1))


@pytest.mark.parametrize("prec", [16, 24, 53, 64, 100, 128, 192, 256, 512])
def test_to_mpf_matches_replaced_expressions(prec):
    with mp.workprec(prec):
        # the tolerance literals it replaced
        for k in (12, 20):
            assert to_mpf(Fraction(1, 10 ** k)) == mpmath.mpf(10) ** -k
        for x in (Fraction(3, 7), Fraction(-22, 9), Fraction(10 ** 30 + 1, 3)):
            assert to_mpf(x) == mpmath.mpf(x.numerator) / x.denominator
        assert to_mpf(-5) == mpmath.mpf(-5)
        with mp.workprec(2 * prec):
            wide = mpmath.mpf(1) / 3
        # an mpf is rounded to the ambient precision, like mpmath.mpf(x)
        assert to_mpf(wide) == mpmath.mpf(wide) != wide
        q = QuadExt(Fraction(1, 3), Fraction(-2, 7), 3)
        s = mpmath.sqrt(mpmath.mpf(3) / 1)
        assert q.numeric(prec) == (mpmath.mpf(1) / 3
                                   + (mpmath.mpf(-2) / 7) * s)


def test_precision_tolerance_halves_the_bits():
    assert precision_tolerance(128) == mpmath.mpf(2) ** -64
    assert precision_tolerance(64) == mpmath.mpf(2) ** -32
    with mp.workprec(64):
        assert mpmath.mpf(10) ** -20 < precision_tolerance(64)


def test_tolerance_at_keeps_what_the_precision_resolves():
    assert resolution(128) == Fraction(1, 2 ** 96)
    for tol in (DEFAULT_TOLERANCE, IDENTITY_TOL):
        for prec in (128, 192, 256):
            assert tolerance_at(tol, prec) is tol
    assert tolerance_at(IDENTITY_TOL, 54) is IDENTITY_TOL
    assert tolerance_at(IDENTITY_TOL, 53) == Fraction(1, 2 ** 27)
    for prec in (16, 33, 64, 89):
        with mp.workprec(prec):
            assert (to_mpf(tolerance_at(DEFAULT_TOLERANCE, prec))
                    == precision_tolerance(prec))

