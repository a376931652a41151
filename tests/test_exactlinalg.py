import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp, mp

from fakeelliptic import exactlinalg
from fakeelliptic.exactlinalg import (QuadComplex, QuadExt, UpperHalfPoint,
                                      as_complex, cofactor_det, complex_pair,
                                      complex_str, decimal_str, dy_add, dy_div, dy_mul,
                                      dy_sqrt, dy_sub, dyadic, dyadic_mpf,
                                      exact_det, exact_rank, exact_solve,
                                      fraction_sqrt, numeric_svd,
                                      precision_tolerance, solve_quadratic,
                                      to_mpf)
from fakeelliptic.quaternions import AlgebraParams, QuatElement, embed
from oracles import (QuadRef, exact_nullspace, laplace_det, numeric_nullspace,
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


def test_a_rational_meets_any_radicand():
    # 2 over sqrt 3 and 2 over sqrt 5 are both the rational 2
    assert QuadExt(2, 0, 3) == QuadExt(2, 0, 5) == 2
    assert QuadExt(2, 0, 3) + QuadExt(2, 0, 5) == 4
    assert QuadExt(2, 0, 3) * QuadExt(1, 1, 5) == QuadExt(2, 2, 5)
    assert QuadExt(1, 1, 5) + QuadExt(2, 0, 3) == QuadExt(3, 1, 5)
    assert QuadComplex(QuadExt(1, 0, 3), 1) - QuadExt(1, 1, 5) \
        == QuadComplex(QuadExt(0, -1, 5), 1)
    assert QuadExt(1, 1, 3) != QuadExt(1, 1, 5)
    assert QuadExt(1, 0, 3) != QuadExt(1, 1, 5)
    with pytest.raises(ValueError, match="mixed radicands"):
        QuadExt(1, 1, 3) + QuadExt(1, 1, 5)


def test_quadext_sign_matches_the_numeric_value():
    rng = random.Random(3)
    assert QuadExt(0, 0, 3).sign() == 0
    # 7 - 4 sqrt 3 = 0.0718 and 26 - 15 sqrt 3 = 0.0192: close to 0
    assert QuadExt(7, -4, 3).sign() == 1 and QuadExt(-26, 15, 3).sign() == -1
    for _ in range(200):
        rad = Fraction(rng.choice([2, 3, 5, 7, 13]), rng.choice([1, 4, 9]))
        q = QuadExt(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                    Fraction(rng.randint(-40, 40), rng.randint(1, 9)), rad)
        value = q.numeric(128)
        assert q.sign() == (value > 0) - (value < 0)


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


def test_exact_det_edge_cases():
    empty = exact_det([])
    assert empty == 1 and isinstance(empty, Fraction)
    # a singular matrix over Q(sqrt 3) has the zero of its entries' type
    row = [QuadExt(1, 1, 3), QuadExt(2, 0, 3), QuadExt(0, 1, 3)]
    zero = exact_det([row, [2 * x for x in row], [QuadExt(1, 0, 3)] * 3])
    assert isinstance(zero, QuadExt) and zero == 0
    # the second pivot needs a row swap, which negates the product
    rows = frows([[1, 2, 3], [2, 4, 7], [1, 3, 3]])
    assert exact_det(rows) == laplace_det(rows) == -1


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
    # overdetermined 3x2: consistent, then inconsistent in the last row
    rows = frows([[1, 1], [1, -1], [2, 0]])
    assert exact_solve(rows, frows([[3, 1, 4]])[0]) == [2, 1]
    assert exact_solve(rows, frows([[3, 1, 5]])[0]) is None


def test_numeric_svd_reconstructs():
    with mp.workprec(128):
        rng = random.Random(23)
        A = mpmath.matrix([[mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(3)] for _ in range(3)])
        sigma, V = numeric_svd(A, 128)
        assert all(sigma[i] >= sigma[i + 1] for i in range(len(sigma) - 1))


def test_numeric_svd_rounds_exact_entries_through_the_conversion_home():
    # a QuadExt entry goes through to_mpf, a QuadComplex one through mpc
    with mp.workprec(128):
        eps = mpmath.mpf(2) ** -120
        sigma, _ = numeric_svd([[QuadExt(1, 1, 3), 0], [0, 1]], 128)
        want, _ = numeric_svd(mpmath.matrix([[1 + mpmath.sqrt(3), 0],
                                             [0, 1]]), 128)
        assert len(sigma) == 2
        assert max(abs(s - w) for s, w in zip(sigma, want)) < eps
        # |sqrt 3 + i| = 2
        sigma, _ = numeric_svd([[QuadComplex(QuadExt(0, 1, 3), 1), 0],
                                [0, Fraction(1, 2)]], 128)
        assert abs(sigma[0] - 2) < eps and abs(sigma[1] - 0.5) < eps


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


def _roots(*coefficients):
    """The roots of `solve_quadratic`, exact dyadic values, as mpcs."""
    r1, r2 = solve_quadratic(*coefficients)
    assert all(QuadComplex.of(as_complex(r)) == r for r in (r1, r2))
    return as_complex(r1), as_complex(r2)


def test_solve_quadratic_pinned():
    with mp.workprec(128):
        eps = mpmath.mpf(10) ** -30
        r1, r2 = _roots(Fraction(1), Fraction(0), Fraction(1))
        assert abs(r1 - 1j) < eps and abs(r2 + 1j) < eps
        s3 = QuadExt(0, 1, 3)
        r1, r2 = _roots(QuadExt(1, 0, 3), -s3, QuadExt(1, 0, 3))
        want = (mpmath.sqrt(3) + 1j) / 2
        assert abs(r1 - want) < eps
        assert abs(r2 - mpmath.conj(want)) < eps
        # two real roots: larger real part first
        r1, r2 = _roots(Fraction(2), Fraction(0), Fraction(-8))
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
            r1, r2 = _roots(c2, c1, c0, 128)
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
    # an exact power of two, so the same at any working precision
    assert precision_tolerance(128) == Fraction(1, 2 ** 64)
    assert precision_tolerance(64) == mpmath.mpf(2) ** -32
    assert precision_tolerance(65) == Fraction(1, 2 ** 33)
    assert Fraction(1, 10 ** 20) < precision_tolerance(64)



# decimal_str against mpmath.nstr, the oracle: seeded, no example database
SEEDED = settings(derandomize=True, database=None, deadline=None,
                  max_examples=300)
DIGITS = st.sampled_from([5, 10, 15, 20])


@SEEDED
@given(st.floats(allow_nan=False, allow_infinity=False), DIGITS)
@example(1e200, 5)
@example(-1e200, 20)
@example(1e-200, 10)
@example(-1e-200, 15)
@example(0.0, 5)
@example(6.0, 15)
@example(99999.5, 5)
@example(0.3, 20)
@example(2.0 ** -1074, 20)
def test_decimal_str_of_a_double_matches_mpmath(x, n):
    assert decimal_str(Fraction(x), n) == mpmath.nstr(mpmath.mpf(x), n)
    assert decimal_str(_pair(mpmath.mpf(x)), n) == mpmath.nstr(mpmath.mpf(x), n)


def _pair(x):
    """The dyadic pair (m, e) of an mpf."""
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


@SEEDED
@given(st.fractions(max_denominator=10 ** 30), DIGITS)
@example(Fraction(1, 3), 20)
@example(Fraction(-2, 7) * 10 ** 40, 10)
@example(Fraction(123455, 10 ** 6), 5)
def test_decimal_str_of_a_rational_matches_mpmath(x, n):
    with mp.workprec(512):
        assert decimal_str(x, n) == mpmath.nstr(to_mpf(x), n)


@pytest.mark.parametrize("text", ["1e5000", "-1.5e5000", "9.99999999999e5000",
                                  "1e-5000", "2.5e100000"])
def test_decimal_str_beyond_2_to_the_3500_matches_mpmath(text):
    # a power of ten comes out first: no int prints beyond Python's limit
    assert decimal_str(Fraction(text), 10) == mpmath.nstr(mpmath.mpf(text), 10)
    x = mpmath.mpf(text)
    assert decimal_str(_pair(x), 10) == mpmath.nstr(x, 10)


@SEEDED
@given(st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 9),
       st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 9),
       st.sampled_from([2, 3, 5, 7, 13, 57, Fraction(3, 4)]), DIGITS)
@example(Fraction(0), Fraction(0), 3, 5)
@example(Fraction(6), Fraction(0), 3, 10)
@example(Fraction(-1), Fraction(1, 2), 3, 15)  # -1 + sqrt(3)/2 < 0
def test_decimal_str_of_a_quadext_matches_mpmath_at_512_bits(u, v, rad, n):
    q = QuadExt(u, v, rad)
    assert decimal_str(q, n) == mpmath.nstr(q.numeric(512), n)


@pytest.mark.parametrize("n", [1, 5, 15, 20])
def test_decimal_str_of_a_rational_quadext_matches_its_fraction(n):
    # rb = 0 and ra / d unreduced, as arithmetic leaves them; +-2^-j, with
    # 5^j of n + 1 digits, is a tie at n digits that a floor one too low
    # rounds down
    rng = random.Random(n)
    j = next(j for j in range(100) if len(str(5 ** j)) == n + 1)
    ties = [(6, 1), (1, 2 ** j), (-1, 2 ** j)]
    for i in range(300):
        k = rng.choice([1, 2, 3, 10, 2 ** 70])
        num, den = ties[i] if i < len(ties) else (
            rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30)),
            rng.randint(1, 10 ** rng.randint(0, 30)))
        rad = Fraction(rng.choice([2, 3, 5, 57, Fraction(3, 4)]))
        q = exactlinalg._complex(k * num, 0, 0, 0, k * den, rad,
                                 rad.numerator * rad.denominator)
        assert isinstance(q, QuadExt) and q.rb == 0
        assert decimal_str(q, n) == decimal_str(Fraction(num, den), n)


def _dyadic(rng):
    return Fraction(rng.randint(-2 ** 12, 2 ** 12), 2 ** rng.randint(0, 8))


def test_quadcomplex_matches_python_complex_on_dyadic_values():
    # 13-bit parts within 8 binary places: complex() is exact on them
    rng = random.Random(61)
    for _ in range(200):
        p, q = (QuadComplex(_dyadic(rng), _dyadic(rng)) for _ in range(2))
        cp, cq = (complex(float(z.real), float(z.imag)) for z in (p, q))
        r = _dyadic(rng)
        for got, want in ((p + q, cp + cq), (p - q, cp - cq), (p * q, cp * cq),
                          (p + r, cp + float(r)), (r + p, float(r) + cp),
                          (p - r, cp - float(r)), (p * r, cp * float(r)),
                          (r * p, float(r) * cp), (-1 * p, -cp)):
            assert (got.real, got.imag) == (Fraction(want.real),
                                             Fraction(want.imag))
        assert p == QuadComplex.of(cp) and p != p + QuadComplex(0, 1)
        assert QuadComplex(r) == r and QuadComplex(r, 1) != r


def test_quadcomplex_over_a_quadratic_field():
    s = QuadExt(0, 1, 3)  # sqrt(3)
    z = QuadComplex(1 + s, 2 * s)
    w = z * z  # (1 + s)^2 - 12 + 2 (1 + s) 2 s i
    assert w == QuadComplex(QuadExt(-8, 2, 3), QuadExt(12, 4, 3))
    assert z * s == QuadComplex(s + 3, 6) and s * z == z * s
    assert (z - z) == 0 and z + QuadExt(1, 0, 3) == QuadComplex(2 + s, 2 * s)
    assert s + z == z + s and s - z == -(z - s) == QuadComplex(-1, -2 * s)
    assert 1 + s == QuadComplex(1 + s) and QuadComplex(1 + s) == 1 + s


def test_quadext_is_the_real_case_of_quadcomplex():
    assert issubclass(QuadExt, QuadComplex)
    inherited = {"_sum", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__neg__", "__mul__", "__rmul__", "__eq__"}
    assert not inherited & set(vars(QuadExt)) and "numeric" in vars(QuadExt)
    # a real product of complex values with a radicand is a QuadExt
    s = QuadExt(0, 1, 3)
    six = QuadComplex(s, s) * QuadComplex(s, -s)
    assert type(six) is QuadExt and six == 6 and six.sign() == 1
    assert type(QuadComplex(2, 1) * QuadComplex(2, -1)) is QuadComplex
    # a value with v = 0 hashes as the rational it equals
    assert QuadExt(2, 0, 3) == 2 and len({QuadExt(2, 0, 3), Fraction(2)}) == 1
    # the complex consumers take a QuadExt as a real complex value
    x = QuadExt(1, 1, 3)
    assert complex_pair(x) == {"re": "2.7320508075688772935", "im": "0.0"}
    assert mpmath.mpc(x).real == to_mpf(x) and mpmath.mpc(x).imag == 0
    with pytest.raises(ValueError, match="upper half plane"):
        UpperHalfPoint(x)


def test_quadcomplex_converts_both_ways():
    z = QuadComplex.of(mpmath.mpc(0.25, -3))
    assert (z.real, z.imag) == (Fraction(1, 4), -3)
    assert QuadComplex.of(0.5 + 2j) == QuadComplex(Fraction(1, 2), 2)
    with mp.workprec(16):
        assert mpmath.mpc(QuadComplex(Fraction(1, 3), 1)) == mpmath.mpc(
            to_mpf(Fraction(1, 3)), 1)
    assert QuadComplex.of(mpmath.mpc(0.1)) == Fraction(0.1)
    for bad in (complex("nan"), complex("inf"), mpmath.mpc("nan", 1)):
        with pytest.raises((ValueError, OverflowError)):
            QuadComplex.of(bad)


def test_quadcomplex_of_takes_an_mpf():
    assert QuadComplex.of(mpmath.mpf("0.5")) == Fraction(1, 2)
    assert QuadComplex.of(mpmath.mpf(0)) == 0
    with mp.workprec(16):
        third = QuadComplex.of(to_mpf(Fraction(1, 3)))
    assert third.imag == 0 and third.real == Fraction(43691, 2 ** 17)
    # mpmath reads an infinity's tuple as the rational 0
    for bad in (mpmath.mpf("inf"), mpmath.mpf("-inf"), mpmath.mpf("nan"),
                mpmath.mpc("inf", 1), mpmath.mpc(1, "-inf")):
        with pytest.raises(ValueError, match="not a finite number"):
            QuadComplex.of(bad)


@pytest.mark.parametrize("prec", [16, 128, 256])
def test_to_mpf_rounds_a_quadext_as_numeric_does(prec):
    values = [QuadExt(0, Fraction(1, 2), 3), QuadExt(Fraction(-7, 3), 5, 57),
              QuadExt(1, Fraction(2, 7), Fraction(3, 4))]
    with mp.workprec(prec):
        for q in values:
            assert to_mpf(q)._mpf_ == q.numeric(prec)._mpf_


def test_exact_cm_point_rounds_through_mpc():
    # (sqrt 3 + i)/2 with a QuadExt real part, through the _mpc_ hook
    tau = QuadComplex(QuadExt(0, Fraction(1, 2), 3), Fraction(1, 2))
    with mp.workprec(160):
        z = mpmath.mpc(tau)
        assert z.real == mpmath.sqrt(3) / 2 and z.imag == mpmath.mpf(0.5)
        assert (z.real._mpf_, z.imag._mpf_) == tau._mpc_
        back = QuadComplex.of(z)
        assert back.imag == Fraction(1, 2) and to_mpf(back.real) == z.real


def test_cofactor_det_matches_elimination():
    rng = random.Random(18)
    s = QuadExt(0, 1, 3)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            ints = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert cofactor_det(ints) == exact_det(frows(ints))
            quad = [[x + rng.randint(-2, 2) * s for x in row] for row in ints]
            assert cofactor_det(quad) == exact_det(quad)


# the integer kernel against the reduced-Fraction reference `QuadRef`
RADICANDS = st.sampled_from([2, 3, 5, 7, 13, 57, Fraction(3, 4),
                             Fraction(2, 9), Fraction(5, 3)])
# small rationals, doubles (exact denominators up to 2^1074) and 2^-52 steps
PARTS = st.one_of(
    st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 9),
    st.floats(-4, 4, allow_nan=False).map(Fraction),
    st.integers(-2 ** 60, 2 ** 60).map(lambda n: Fraction(n, 2 ** 52)))
KERNEL = settings(SEEDED, max_examples=150)


def _unreduced(x):
    """x with numerators and denominator scaled by 6: the same value."""
    return x * Fraction(1, 6) * 6


def _same(got, want):
    return (got.u, got.v, got.rad) == (want.u, want.v, want.rad)


@KERNEL
@given(PARTS, PARTS, PARTS, PARTS, PARTS, RADICANDS)
@example(Fraction(1, 2 ** 52), Fraction(3), Fraction(1, 2 ** 52), Fraction(3),
         Fraction(5), 3)
@example(Fraction(7), Fraction(-4), Fraction(0), Fraction(0), Fraction(0), 3)
@example(Fraction(-1, 3), Fraction(0), Fraction(1, 2), Fraction(1, 7),
         Fraction(-1, 3), Fraction(3, 4))
@example(1 + Fraction(1, 2 ** 100), Fraction(0), Fraction(1), Fraction(0),
         Fraction(1), 2)  # x = r + 2^-100
def test_quadext_kernel_matches_the_fraction_reference(u1, v1, u2, v2, r, rad):
    x, y = _unreduced(QuadExt(u1, v1, rad)), QuadExt(u2, v2, rad) * r
    X, Y = QuadRef(u1, v1, rad), QuadRef(u2, v2, rad) * r
    R = QuadRef(r, 0, rad)
    cases = [(x + y, X + Y), (x - y, X - Y), (x * y, X * Y), (-x, -X),
             (x + r, X + r), (r + x, X + r), (x - r, X - r), (r - x, R - X),
             (x * r, X * r), (r * x, X * r),
             (x.conjugate(), QuadRef(u1, -v1, rad))]
    if not X == 0:
        cases += [(x.inverse(), X.inverse()), (y / x, Y * X.inverse()),
                  (r / x, X.inverse() * r)]
    if r != 0:
        cases.append((x / r, X * (1 / r)))
    for got, want in cases:
        assert type(got) is QuadExt
        assert _same(got, want) and got.sign() == want.sign()
    assert (x == y) == (X == Y) and (x == r) == (X == R)
    assert x == QuadExt(u1, v1, rad) and x != x + QuadExt(0, 1, rad)
    want = hash(X.u) if X.v == 0 else hash((X.u, X.v, X.rad))
    assert hash(x) == want == hash(QuadExt(u1, v1, rad))
    assert x.sign() == X.sign() and x.is_zero() == (X == 0)


@KERNEL
@given(PARTS, PARTS, RADICANDS, DIGITS)
@example(Fraction(1, 2 ** 52), Fraction(-1, 2 ** 52), 2, 20)
@example(Fraction(26), Fraction(-15), 3, 15)  # 26 - 15 sqrt 3 = 0.019
def test_quadext_decimal_str_matches_the_reference_at_512_bits(u, v, rad, n):
    x = _unreduced(QuadExt(u, v, rad))
    assert decimal_str(x, n) == mpmath.nstr(QuadRef(u, v, rad).numeric(512), n)


@pytest.mark.parametrize("prec", [128, 256])
def test_quadext_numeric_is_bit_identical_to_the_reduced_formula(prec):
    # the mpf of u + v sqrt(rad) from the reduced u and v, bit for bit: the
    # window-edge CM points and the curve digests rest on these bits
    rng = random.Random(prec)
    params = AlgebraParams(3, -1)
    values = [e for mu in (QuatElement(params, 0, 1, 2, 0),
                           QuatElement(params, Fraction(1, 2), Fraction(1, 2),
                                       Fraction(3, 2), Fraction(1, 2)))
              for row in embed(mu) for e in row]
    for _ in range(40):
        rad = rng.choice([2, 3, 57, Fraction(3, 4), Fraction(2, 9)])
        values.append(QuadExt(Fraction(rng.uniform(-9, 9)),
                              Fraction(rng.randint(-99, 99), 7), rad))
    for q in values:
        x = _unreduced(q) * 3 - q * 2
        assert (x.ra, x.d) != (q.ra, q.d)
        ref = QuadRef(q.u, q.v, q.rad).numeric(prec)
        assert x.numeric(prec)._mpf_ == q.numeric(prec)._mpf_ == ref._mpf_


@KERNEL
@given(st.lists(PARTS, min_size=8, max_size=8), RADICANDS)
@example([Fraction(1, 3), Fraction(2), 1 + Fraction(1, 2 ** 100), Fraction(0),
          Fraction(1, 3), Fraction(1), Fraction(2), Fraction(0)], 3)
def test_quadcomplex_kernel_matches_the_fraction_reference(parts, rad):
    a, b, c, e, p, q, r, s = parts
    z = QuadComplex(QuadExt(a, b, rad), QuadExt(c, e, rad))
    w = _unreduced(QuadComplex(p, q)) + QuadComplex(QuadExt(0, r, rad),
                                                    QuadExt(0, s, rad))
    Zr, Zi = QuadRef(a, b, rad), QuadRef(c, e, rad)
    Wr, Wi = QuadRef(p, r, rad), QuadRef(q, s, rad)
    for got, (re, im) in ((z + w, (Zr + Wr, Zi + Wi)),
                          (z - w, (Zr - Wr, Zi - Wi)),
                          (w - z, (Wr - Zr, Wi - Zi)),
                          (z * w, (Zr * Wr - Zi * Wi, Zr * Wi + Zi * Wr)),
                          (z * p, (Zr * p, Zi * p)), (p - z, (-Zr + p, -Zi))):
        assert _same(got.real, re) and _same(got.imag, im)
    assert (z == w) == (Zr == Wr and Zi == Wi)
    assert QuadComplex(z) == z
    assert QuadComplex(z, w) == z + w * QuadComplex(0, 1)
    assert z == QuadComplex(Zr.u + QuadExt(0, b, rad), QuadExt(c, e, rad))
    rational = QuadComplex(p, q)
    assert rational.rad is None and (rational.real, rational.imag) == (p, q)
    assert _unreduced(rational) == rational
    if (float(p), float(q)) == (p, q):
        assert QuadComplex.of(complex(float(p), float(q))) == rational


# ---------------------------------------------------------------------------
# the rounding kernel against mpmath's libmpf, the oracle, rounding to
# nearest ('n'): seeded, no example database

PRECISIONS = st.integers(2, 4096)
# mantissas narrower and far wider than the precision, zero and both signs
MANTISSAS = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                      st.integers(-2 ** 5000, 2 ** 5000))
DYADICS = st.tuples(MANTISSAS, st.integers(-400, 400))


def _mp(x, prec):
    """A dyadic pair rounded by mpmath: its operand for prec bits."""
    return libmp.from_man_exp(x[0], x[1], prec, "n")


def _bits(x):
    return dyadic_mpf(x)._mpf_


@KERNEL
@given(DYADICS, DYADICS, PRECISIONS)
@example((0, 0), (0, 5), 2)
@example((0, 7), (-3, -2), 53)
@example((1, 0), (-1, -4200), 4096)  # just below a power of two
@example((3, 0), (1, -2000), 2)  # an addend far below the last bit
@example((-5, 3), (5, 3), 16)  # an exact zero
def test_kernel_operations_match_mpmath(x, y, prec):
    x, y = dyadic(x, prec), dyadic(y, prec)
    X, Y = _mp(x, prec), _mp(y, prec)
    assert _bits(x) == X and _bits(y) == Y
    assert _bits(dy_add(x, y, prec)) == libmp.mpf_add(X, Y, prec, "n")
    assert _bits(dy_sub(x, y, prec)) == libmp.mpf_sub(X, Y, prec, "n")
    assert _bits(dy_mul(x, y, prec)) == libmp.mpf_mul(X, Y, prec, "n")
    if y[0]:
        assert _bits(dy_div(x, y, prec)) == libmp.mpf_div(X, Y, prec, "n")
    else:
        with pytest.raises(ZeroDivisionError):
            dy_div(x, y, prec)
    z = (abs(x[0]), x[1])
    assert _bits(dy_sqrt(z, prec)) == libmp.mpf_sqrt(_mp(z, prec), prec, "n")


@pytest.mark.parametrize("prec", [2, 3, 16, 53, 128, 4096])
def test_kernel_rounds_exact_ties_to_even(prec):
    # 2 q + 1 for q of prec bits lies halfway between 2 q and 2 q + 2: it
    # rounds to q or q + 1, whichever is even, times 2, up or down
    for q in (2 ** (prec - 1), 2 ** (prec - 1) + 1, 2 ** prec - 1):
        want = q + (q & 1)
        for sign in (1, -1):
            tie = sign * (2 * q + 1)
            assert dyadic((tie, -7), prec) == (sign * want, -6)
            got = dy_add((sign * 2 * q, 0), (sign, 0), prec)
            assert got == (sign * want, 1)
            assert _bits(got) == libmp.from_int(tie, prec, "n")
    # past the half rounds away, short of it rounds back
    q = 2 ** (prec - 1)
    for m in (4 * q + 3, 4 * q + 1, -(4 * q + 3), -(4 * q + 1)):
        assert _bits(dyadic((m, -2), prec)) == libmp.from_man_exp(m, -2, prec,
                                                                  "n")
    assert dyadic((4 * q + 3, -2), prec) == (q + 1, 0)
    assert dyadic((4 * q + 1, -2), prec) == (q, 0)


@pytest.mark.parametrize("prec", [2, 5, 16, 53, 128, 1000])
def test_kernel_square_roots_of_squares_and_near_squares(prec):
    rng = random.Random(prec)
    for _ in range(60):
        k = rng.randint(1, 2 ** rng.choice([3, prec, 2 * prec]))
        for m in (k * k, k * k - 1, k * k + 1):
            for e in (0, -2 * rng.randint(0, 40), 1, -3):
                x = (m, e)
                assert _bits(dy_sqrt(dyadic(x, prec), prec)) == libmp.mpf_sqrt(
                    _mp(x, prec), prec, "n")
    assert _bits(dy_sqrt((0, 9), prec)) == libmp.fzero
    with pytest.raises(ValueError, match="negative"):
        dy_sqrt((-1, 0), prec)


@KERNEL
@given(st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200),
       PRECISIONS)
@example(0, 3, 2)
@example(-(2 ** 17 + 1), 3, 16)
def test_kernel_converts_ints_and_fractions_as_mpmath(num, den, prec):
    # an int rounds once; a Fraction as `mpf(num) / den`, twice
    assert _bits(dyadic(num, prec)) == libmp.from_int(num, prec, "n")
    x = Fraction(num, den)
    with mp.workprec(prec):
        want = mpmath.mpf(x.numerator) / x.denominator
        assert _bits(dyadic(x, prec)) == want._mpf_
        assert to_mpf(x)._mpf_ == want._mpf_
        assert _bits(dyadic(mpmath.mpf(x.numerator), prec)) == (
            mpmath.mpf(x.numerator)._mpf_)


def test_kernel_rounds_a_fraction_twice_at_16_bits():
    # numerators above 2^16: mpf(num) is rounded before the division, so
    # some quotients differ from the correctly rounded num / den
    rng = random.Random(16)
    twice = 0
    with mp.workprec(16):
        for _ in range(2000):
            x = Fraction(rng.randint(2 ** 16, 2 ** 40), rng.randint(3, 2 ** 12))
            want = (mpmath.mpf(x.numerator) / x.denominator)._mpf_
            assert _bits(dyadic(x, 16)) == want
            twice += want != libmp.from_rational(x.numerator, x.denominator,
                                                 16, "n")
    assert twice > 0


@KERNEL
@given(PARTS, PARTS, RADICANDS, PRECISIONS)
@example(Fraction(0), Fraction(0), 3, 2)
@example(Fraction(-1), Fraction(1, 2), 3, 16)  # -1 + sqrt(3)/2 < 0
@example(Fraction(1, 3), Fraction(-2, 7), Fraction(3, 4), 4096)
def test_kernel_converts_a_quadext_as_mpmath(u, v, rad, prec):
    # u + v sqrt(rad) as the old `numeric` formed it, each step in mpmath
    q = QuadExt(u, v, rad)
    with mp.workprec(prec):
        f = [mpmath.mpf(c.numerator) / c.denominator for c in (q.u, q.v, q.rad)]
        want = f[0] + f[1] * mpmath.sqrt(f[2])
        assert _bits(dyadic(q, prec)) == want._mpf_
        assert q.numeric(prec)._mpf_ == to_mpf(q)._mpf_ == want._mpf_


@pytest.mark.parametrize("bits", [128, 256])
def test_dyadic_values_cross_to_mpmath_with_their_own_bits(bits):
    # at 53 ambient bits a dyadic QuadComplex keeps the bits of the mpc it
    # came from, through `as_complex` and `mpmath.mpc`; a value that is
    # not dyadic is rounded at the ambient precision, as `to_mpf` rounds
    with mp.workprec(bits):
        z = mpmath.mpc(1) / 3 + mpmath.sqrt(mpmath.mpf(2)) * 1j
    assert mp.prec == 53
    exact = QuadComplex.of(z)
    assert as_complex(exact)._mpc_ == mpmath.mpc(exact)._mpc_ == z._mpc_
    assert exact._mpc_ == z._mpc_ and QuadComplex.of(as_complex(exact)) == exact
    third = QuadComplex(Fraction(1, 3), 1)
    assert mpmath.mpc(third)._mpc_ == (to_mpf(Fraction(1, 3))._mpf_,
                                       mpmath.mpf(1)._mpf_)


@SEEDED
@given(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6,
                                                        allow_nan=False),
       DIGITS)
@example(0.0, 0.0, 5)
@example(-0.5, -2.0 ** -60, 10)
@example(1.0, 3.0, 12)
def test_complex_str_matches_mpmath(re, im, n):
    z = mpmath.mpc(re, im)
    assert complex_str(z, n) == complex_str(QuadComplex.of(z), n) == (
        mpmath.nstr(z, n))


def test_kernel_refuses_what_it_cannot_round():
    for bad in ("x", 1j, QuadComplex(0, 1)):
        with pytest.raises(TypeError, match="cannot round"):
            dyadic(bad, 53)
