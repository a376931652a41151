"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the code paths under test: determinants
by cofactor expansion instead of elimination, Hilbert symbols by brute-force
solubility instead of the Legendre-symbol formulas, unit counts by symbolic
2x2 determinants instead of the norm form, quadratic roots by the explicit
formula instead of the library solver, saturation by the plain
q^4 coset search instead of the integer-screened one, units and CM
points by building every box element as a `QuatElement` instead of
scanning integer forms, and the curve section space by an SVD nullspace
instead of the closed form.
"""

import itertools
import math
from fractions import Fraction

import mpmath
from mpmath import mp

from fakeelliptic.cm import cm_point, in_window, is_elliptic
from fakeelliptic.exactlinalg import (DEFAULT_PRECISION, exact_rank,
                                      numeric_nullspace)
from fakeelliptic.family import as_complex
from fakeelliptic.orders import (OrderLattice, UnitSample, is_order,
                                 reduced_discriminant)
from fakeelliptic.quaternions import QuatElement, _factorize, embed, ramified_primes
from fakeelliptic.splitting import CurveH0, CurveSection


def squarefree_part(r):
    """Squarefree integer in the square class of the nonzero rational r."""
    r = Fraction(r)
    n = r.numerator * r.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def hilbert_solvable(a, b, p):
    """Brute-force Hilbert symbol at a finite prime p.

    Tests whether a X^2 + b Y^2 = Z^2 has a primitive solution over
    Z/p^k, with k = 3 at p = 2, k = 2 at odd p dividing a squarefree
    part, k = 1 otherwise.  When p divides both parts, b is first
    replaced by -a*b (-a is the norm of sqrt(a), so the symbol is
    unchanged), which removes p from one argument and keeps the needed
    modulus within p^3.  Returns +1 or -1.
    """
    a = squarefree_part(a)
    b = squarefree_part(b)
    if a % p == 0 and b % p == 0:
        b = squarefree_part(-a * b)
    if p == 2:
        k = 3
    elif a % p == 0 or b % p == 0:
        k = 2
    else:
        k = 1
    q = p ** k
    squares = {}
    for z in range(q):
        squares.setdefault(z * z % q, z % p != 0)
    for x in range(q):
        for y in range(q):
            val = (a * x * x + b * y * y) % q
            if val not in squares:
                continue
            if x % p != 0 or y % p != 0 or squares[val]:
                return 1
    return -1


def hilbert_solvable_real(a, b):
    """The symbol at the real place: -1 iff both arguments are negative."""
    return -1 if a < 0 and b < 0 else 1


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * laplace_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def _entry_is_zero(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def rank_by_minors(rows):
    """Exact rank as the largest size of a nonvanishing square minor."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for size in range(min(nr, nc), 0, -1):
        for ri in itertools.combinations(range(nr), size):
            for ci in itertools.combinations(range(nc), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not _entry_is_zero(laplace_det(sub)):
                    return size
    return 0


def _quad_to_mpc(c, prec):
    with mp.workprec(prec):
        if hasattr(c, "u"):
            u = mpmath.mpf(c.u.numerator) / c.u.denominator
            v = mpmath.mpf(c.v.numerator) / c.v.denominator
            return mpmath.mpc(u + v * mpmath.sqrt(c.rad))
        c = Fraction(c)
        return mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)


def reference_roots(c2, c1, c0, prec=128):
    """Quadratic roots straight from the formula, larger Im first."""
    with mp.workprec(prec):
        A = _quad_to_mpc(c2, prec)
        B = _quad_to_mpc(c1, prec)
        C = _quad_to_mpc(c0, prec)
        disc = mpmath.sqrt(B * B - 4 * A * C)
        r1 = (-B + disc) / (2 * A)
        r2 = (-B - disc) / (2 * A)
        if (r2.imag, r2.real) > (r1.imag, r1.real):
            r1, r2 = r2, r1
        return r1, r2


def mat2_mul(P, Q):
    return [[P[0][0] * Q[0][0] + P[0][1] * Q[1][0], P[0][0] * Q[0][1] + P[0][1] * Q[1][1]],
            [P[1][0] * Q[0][0] + P[1][1] * Q[1][0], P[1][0] * Q[0][1] + P[1][1] * Q[1][1]]]


def mat2_trace(P):
    return P[0][0] + P[1][1]


def mat2_det(P):
    return P[0][0] * P[1][1] - P[0][1] * P[1][0]


def embed_det(q):
    """det of the embedded 2x2 matrix, symbolically over Q(sqrt a)."""
    M = embed(q)
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def count_units_by_embedding(order, height):
    """Box count of elements whose embedded matrix has determinant 1."""
    count = 0
    for coeffs in itertools.product(range(-height, height + 1), repeat=4):
        q = order.element_from(coeffs)
        d = embed_det(q)
        if d.v == 0 and d.u == 1:
            count += 1
    return count


def riemann_form_by_matrices(rho, m1, m2):
    """E(m1, m2) as the symbolic trace of embed(rho m1 m2')."""
    A = embed(rho)
    B = embed(m1)
    M = embed(m2)
    # conjugate of a quaternion embeds to the adjugate matrix
    Cadj = [[M[1][1], -M[0][1]], [-M[1][0], M[0][0]]]
    AB = [[A[0][0] * B[0][0] + A[0][1] * B[1][0],
           A[0][0] * B[0][1] + A[0][1] * B[1][1]],
          [A[1][0] * B[0][0] + A[1][1] * B[1][0],
           A[1][0] * B[0][1] + A[1][1] * B[1][1]]]
    t = (AB[0][0] * Cadj[0][0] + AB[0][1] * Cadj[1][0]
         + AB[1][0] * Cadj[0][1] + AB[1][1] * Cadj[1][1])
    assert t.v == 0
    return t.u


def fixes_tau_numeric(mu, tau, prec=128, tol=None):
    """Whether embed(mu) fixes tau as a Moebius map, checked numerically."""
    with mp.workprec(prec):
        if tol is None:
            tol = mpmath.mpf(10) ** -20
        M = embed(mu)
        A = M[0][0].numeric(prec)
        B = M[0][1].numeric(prec)
        C = M[1][0].numeric(prec)
        D = M[1][1].numeric(prec)
        return abs(C * tau * tau + (D - A) * tau - B) < tol


def adjoin_coset_bruteforce(L, q, disc):
    """First enlargement of L by an integral v/q, trying all q^4 residues.

    Every candidate is built as a `QuatElement` with `Fraction`
    coordinates and tested for integrality directly.
    """
    gens = L.generators()
    for coeffs in itertools.product(range(q), repeat=4):
        if all(c == 0 for c in coeffs):
            continue
        j = max(i for i, c in enumerate(coeffs) if c != 0)
        # scale the representative so the replaced coordinate is 1 mod q
        inv = pow(coeffs[j], -1, q)
        scaled = [(c * inv) % q for c in coeffs]
        v = QuatElement(L.params, 0)
        for c, g in zip(scaled, gens):
            v = v + g * Fraction(c, q)
        if v.trd().denominator != 1 or v.nrd().denominator != 1:
            continue
        rows = [list(r) for r in L.basis]
        rows[j] = [Fraction(x) for x in v.coords()]
        if exact_rank(rows) != 4:
            continue
        candidate = OrderLattice(L.params, rows)
        ok, _ = is_order(candidate)
        if ok and reduced_discriminant(candidate) < disc:
            return candidate
    return None


def saturate_bruteforce(L):
    """Saturation driven by `adjoin_coset_bruteforce`.

    Returns the chain of lattices from L to the maximal order, each paired
    with the prime q whose coset search produced the next one (None for
    the last).
    """
    target = math.prod(ramified_primes(L.params))
    chain = []
    current = L
    while True:
        disc = reduced_discriminant(current)
        if disc == target:
            chain.append((current, None))
            return chain
        enlarged = None
        for q in sorted(_factorize(disc // target)):
            enlarged = adjoin_coset_bruteforce(current, q, disc)
            if enlarged is not None:
                break
        assert enlarged is not None, f"no enlargement below {disc}"
        chain.append((current, q))
        current = enlarged


def enumerate_units_bruteforce(L, height):
    """All elements with basis coordinates in [-height, height]^4 and nrd = 1.

    Every box element is built as a `QuatElement` and its norm computed
    with `Fraction` arithmetic.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    gens = L.generators()
    out = []
    for coeffs in itertools.product(range(-height, height + 1), repeat=4):
        q = QuatElement(L.params, 0)
        for c, g in zip(coeffs, gens):
            q = q + g * c
        if q.nrd() == 1:
            out.append(UnitSample(q, coeffs))
    out.sort(key=lambda u: u.coords)
    return out


def congruence_filter_bruteforce(units, N, L):
    """Units congruent to 1 modulo N, one exact solve per unit."""
    kept = []
    for u in units:
        delta = L.coords_of(u.element - QuatElement(L.params, 1))
        if delta is not None and all(c.denominator == 1 and c.numerator % N == 0
                                     for c in delta):
            kept.append(u)
    return kept


def enumerate_cm_points_bruteforce(order, height, window=None,
                                   prec=DEFAULT_PRECISION):
    """All CM points of elliptic elements with coordinates in [-height, height]^4.

    Every box element is built as a `QuatElement`, and `cm_point` runs on
    each elliptic one; points are deduplicated by the exact monic
    quadratic of tau, keeping the smallest (sum c^2, c).
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    gens = order.generators()
    found = {}
    for coeffs in itertools.product(range(-height, height + 1), repeat=4):
        mu = QuatElement(order.params, 0)
        for c, g in zip(coeffs, gens):
            mu = mu + g * c
        if mu.is_zero() or mu.is_scalar():
            continue
        if not is_elliptic(mu):
            continue
        pt = cm_point(mu, prec, coords=coeffs)
        if not in_window(pt.tau, window):
            continue
        key = pt.quad_key()
        rank = (sum(c * c for c in pt.coords), pt.coords)
        if key not in found or rank < found[key][0]:
            found[key] = (rank, pt)
    pts = [pt for _, pt in found.values()]
    pts.sort(key=lambda p: (sum(c * c for c in p.coords), p.coords))
    return pts


def curve_h0_svd(point, prec=DEFAULT_PRECISION, tol=None):
    """h^0 on the elliptic curve of a CM point from the SVD nullspace of the
    1x2 system (mu_11 - tau', mu_21), zero-padded to 2x2.

    Sections and the eigen residual are built the same way as by the
    closed form, once per nullspace vector.
    """
    with mp.workprec(prec):
        tolv = mpmath.mpf(10) ** -20 if tol is None else mpmath.mpf(tol)
        M = embed(point.mu)
        m11 = M[0][0].numeric(prec)
        m21 = M[1][0].numeric(prec)
        tprime = as_complex(point.tau_prime)
        system = mpmath.matrix([[m11 - tprime, m21]])
        null = numeric_nullspace(system, tolv, prec)
        h0 = 1 + len(null)
        sections = [CurveSection(0, 0, 0, 1)]
        residual = mpmath.mpf(0)
        for _ in null:
            f1 = mpmath.mpc(1)
            f2 = (tprime - m11) / m21
            sections.append(CurveSection(f1, f2, -f1, 0))
            vec = mpmath.matrix([f1, f2])
            Mt = mpmath.matrix([[m11, m21],
                                [M[0][1].numeric(prec), M[1][1].numeric(prec)]])
            residual = max(residual, mpmath.norm(Mt * vec - tprime * vec))
        return CurveH0(h0, sections, residual)
