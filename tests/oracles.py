"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the code paths under test: determinants
by cofactor expansion instead of elimination, Hilbert symbols by brute-force
solubility instead of the Legendre-symbol formulas, unit counts by symbolic
2x2 determinants instead of the norm form, quadratic roots by the explicit
formula instead of the library solver, the fixed-point quadratic of a CM
point from its coordinates instead of the embedding and its root by
`mpmath.polyroots`, saturation by the plain
q^4 coset search instead of the integer-screened one, units and CM
points by building every box element as a `QuatElement` instead of
scanning integer forms, the curve section space by an SVD nullspace
instead of the closed form, the period lattice rank condition by an SVD
of the real period matrix instead of the exact embedding determinant,
the order certificate, discriminant and membership by `Fraction`
quaternion products and solves instead of divisibility on the integer
form of the lattice, the stacked embedding determinant by elimination
over Q(sqrt a) instead of -4ab det(basis), the Riemann, isogeny and
cocycle checks recomputed from scratch on every call instead of from the
embedding, Gram matrix and square roots that the order, the polarization
and `QuadExt` keep, and Q(sqrt a) on reduced `Fraction` parts
(`QuadRef`) instead of integer numerators over a common denominator.

`normalize_isogeny`, `exact_nullspace`, `numeric_nullspace`,
`period_vectors` and `fiber_system_numeric` are helpers that the package
itself does not call; they live here beside their tests.
"""

import itertools
import math
from fractions import Fraction

import mpmath
from mpmath import mp

from fakeelliptic.cm import cm_point, in_window, is_elliptic
from fakeelliptic.exactlinalg import (DEFAULT_PRECISION, _to_ap_matrix,
                                      exact_det, exact_rank, exact_rref,
                                      exact_solve, fraction_sqrt, numeric_svd,
                                      precision_tolerance)
from fakeelliptic.family import PeriodLattice, as_complex
from fakeelliptic.orders import NotAnOrder, OrderLattice, UnitSample
from fakeelliptic.quaternions import QuatElement, _factorize, embed, ramified_primes
from fakeelliptic.splitting import CurveH0, Section

# residual tolerance of the numeric cocycle and canonical-degree oracles
IDENTITY_TOL = Fraction(1, 10 ** 12)


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


class QuadRef:
    """u + v sqrt(rad) on reduced `Fraction` parts: the reference for the
    integer kernel `QuadExt`.  The sign compares u^2 with rad v^2 when u
    and v differ in sign, instead of reading u |u| + rad v |v|."""

    __slots__ = ("u", "v", "rad")

    def __init__(self, u, v, rad):
        self.u, self.v, self.rad = Fraction(u), Fraction(v), Fraction(rad)

    def _lift(self, other):
        if isinstance(other, QuadRef):
            return other
        return QuadRef(other, 0, self.rad)

    def __add__(self, other):
        o = self._lift(other)
        return QuadRef(self.u + o.u, self.v + o.v, self.rad)

    def __neg__(self):
        return QuadRef(-self.u, -self.v, self.rad)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        o = self._lift(other)
        return QuadRef(self.u * o.u + self.rad * self.v * o.v,
                       self.u * o.v + self.v * o.u, self.rad)

    def inverse(self):
        nm = self.u * self.u - self.rad * self.v * self.v
        return QuadRef(self.u / nm, -self.v / nm, self.rad)

    def __eq__(self, other):
        o = self._lift(other)
        return (self.u, self.v, self.rad) == (o.u, o.v, o.rad)

    def sign(self):
        su, sv = ((x > 0) - (x < 0) for x in (self.u, self.v))
        if su == sv or sv == 0:
            return su
        if su == 0:
            return sv
        u2, rv2 = self.u * self.u, self.rad * self.v * self.v
        return su if u2 > rv2 else sv

    def numeric(self, prec):
        """u + v sqrt(rad) by the steps `QuadExt.numeric` documents."""
        with mp.workprec(prec):
            return (mpmath.mpf(self.u.numerator) / self.u.denominator
                    + mpmath.mpf(self.v.numerator) / self.v.denominator
                    * mpmath.sqrt(mpmath.mpf(self.rad.numerator)
                                  / self.rad.denominator))


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


def rank_by_minors(rows):
    """Exact rank as the largest size of a nonvanishing square minor."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    for size in range(min(nr, nc), 0, -1):
        for ri in itertools.combinations(range(nr), size):
            for ci in itertools.combinations(range(nc), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if laplace_det(sub) != 0:
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
    gens = order.generators()
    count = 0
    for coeffs in itertools.product(range(-height, height + 1), repeat=4):
        q = QuatElement(order.params, 0)
        for c, g in zip(coeffs, gens):
            q = q + g * Fraction(c)
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
        ok, _ = is_order_fraction(candidate)
        if ok and reduced_discriminant_fraction(candidate) < disc:
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
        disc = reduced_discriminant_fraction(current)
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
        delta = coords_by_solve(L, u.element - QuatElement(L.params, 1))
        if delta is not None and all(c.denominator == 1 and c.numerator % N == 0
                                     for c in delta):
            kept.append(u)
    return kept


def fixed_point_quadratic(mu):
    """(C, D - A, -B) over Q(sqrt a) for the embedding [[A, B], [C, D]] of
    mu = k + l x + m y + n xy, written out from its coordinates:
    C = m - n sqrt a, D - A = -2 l sqrt a and -B = -b (m + n sqrt a)."""
    a, b = mu.params.a, mu.params.b
    _, l, m, n = mu.coords()
    return QuadRef(m, -n, a), QuadRef(0, -2 * l, a), QuadRef(-b * m, -b * n, a)


def quad_key(mu):
    """The monic exact quadratic (c1/c2, c0/c2) over Q(sqrt a) of the
    fixed point of mu, as (u, v) pairs; it identifies the CM point."""
    c2, c1, c0 = fixed_point_quadratic(mu)
    inv = c2.inverse()
    return tuple((c.u, c.v) for c in (c1 * inv, c0 * inv))


def fixed_point_ref(mu, prec=128):
    """(tau, tau') for elliptic mu: tau the upper root of the exact
    fixed-point quadratic by `mpmath.polyroots`, and tau' = C tau + D from
    freshly converted C = m - n sqrt a and D = k - l sqrt a, all at
    prec + 64 bits."""
    k, l, m, n = mu.coords()
    a, work = mu.params.a, prec + 64
    with mp.workprec(work):
        coeffs = [_numeric_fresh(c, work) for c in fixed_point_quadratic(mu)]
        tau = max(mpmath.polyroots(coeffs), key=lambda r: mpmath.im(r))
        C, D = (_numeric_fresh(QuadRef(u, v, a), work)
                for u, v in ((m, -n), (k, -l)))
        return tau, C * tau + D


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
        if mu.is_zero():
            continue
        if not is_elliptic(mu):
            continue
        pt = cm_point(mu, prec, coords=coeffs)
        if not in_window(pt.tau, window):
            continue
        key = quad_key(pt.mu)
        rank = (sum(c * c for c in pt.coords), pt.coords)
        if key not in found or rank < found[key][0]:
            found[key] = (rank, pt)
    pts = [pt for _, pt in found.values()]
    pts.sort(key=lambda p: (sum(c * c for c in p.coords), p.coords))
    return pts


def numeric_nullspace(m, tol, prec=DEFAULT_PRECISION):
    """Orthonormal basis of the right nullspace at relative tolerance tol."""
    with mp.workprec(prec):
        A = _to_ap_matrix(m)
        ncols = A.cols
        sigma, V = numeric_svd(A, prec)
        smax = max(sigma) if sigma else mpmath.mpf(0)
        basis = []
        for i in range(ncols):
            s = sigma[i] if i < len(sigma) else mpmath.mpf(0)
            if smax < tol or s < tol * smax:
                vec = mpmath.matrix([mpmath.conj(V[i, j]) for j in range(ncols)])
                basis.append(vec)
        return basis


def period_vectors(lattice, prec):
    """The generator images embed(g) (tau, 1)^t in C^2 at prec bits."""
    return [_periods_fresh(g, lattice.tau.tau, prec)
            for g in lattice.order.generators()]


def fiber_system_numeric(order, tau, prec):
    """The period lattice at tau and the numeric 4x4 fiber system, one row
    (v1, v2, period1, period2) per generator, v the first column of its
    embedding: the matrix whose determinant `splitting.fiber_h0` takes
    exactly."""
    lattice = PeriodLattice(order, tau)
    with mp.workprec(prec):
        rows = [[_numeric_fresh(E[0][0], prec), _numeric_fresh(E[1][0], prec),
                 *per] for E, per in zip(order.embedding,
                                         period_vectors(lattice, prec))]
        return lattice, mpmath.matrix(rows)


def period_rank_svd(lattice, prec=DEFAULT_PRECISION, tol=None):
    """The real-rank-4 condition by an SVD of the real period matrix:
    sigma_min >= tol * sigma_max, with tol = 2^-(prec/2) by default."""
    with mp.workprec(prec):
        if tol is None:
            tol = precision_tolerance(prec)
        _, S, _ = mpmath.svd_r(real_period_matrix(period_vectors(lattice,
                                                                prec)))
        smax = max(S[i] for i in range(4))
        return smax != 0 and min(S[i] for i in range(4)) >= tol * smax


def curve_h0_svd(point, prec=DEFAULT_PRECISION, tol=None):
    """h^0 on the elliptic curve of a CM point from the SVD nullspace of the
    1x2 system (mu_11 - tau', mu_21), zero-padded to 2x2.

    Sections, the eigen residual and dphi = f1 tau' + f2 are built the
    same way as by the closed form, once per nullspace vector.
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
        sections = [Section(0, 0, (0,), 1)]
        residual, dphi = mpmath.mpf(0), None
        for _ in null:
            f1 = mpmath.mpc(1)
            f2 = (tprime - m11) / m21
            sections.append(Section(f1, f2, (-f1,), 0))
            vec = mpmath.matrix([f1, f2])
            Mt = mpmath.matrix([[m11, m21],
                                [M[0][1].numeric(prec), M[1][1].numeric(prec)]])
            residual = max(residual, mpmath.norm(Mt * vec - tprime * vec))
            dphi = f1 * tprime + f2
        return CurveH0(h0, sections, residual, dphi)


def _coords_str(q):
    """(0, 1/2, 0, 0): readable (1, x, y, xy) coordinates for messages."""
    return "(" + ", ".join(str(c) for c in q.coords()) + ")"


def coords_by_solve(L, q):
    """Coordinates of q in the basis of L by an exact `Fraction` solve of
    the transposed basis system, or None."""
    cols = [[L.basis[j][i] for j in range(4)] for i in range(4)]
    return exact_solve(cols, list(q.coords()))


def contains_by_solve(L, q):
    sol = coords_by_solve(L, q)
    return sol is not None and all(c.denominator == 1 for c in sol)


def stacked_embedding_det(L):
    """det S by elimination over Q(sqrt a), for S the stacked rows
    (E00, E10, E01, E11) of the embedded generators of L."""
    return exact_det([[E[0][0], E[1][0], E[0][1], E[1][1]]
                      for E in (embed(g) for g in L.generators())])


def is_order_fraction(L):
    """Closure certificate: returns (bool, list of violated conditions)."""
    problems = []
    one = QuatElement(L.params, 1)
    if not contains_by_solve(L, one):
        problems.append("1 is not in the lattice")
    gens = L.generators()
    for g in gens:
        if g.trd().denominator != 1 or g.nrd().denominator != 1:
            problems.append(f"generator {_coords_str(g)} is not integral")
    for gi, gj in itertools.product(gens, gens):
        if not contains_by_solve(L, gi * gj):
            problems.append(f"product {_coords_str(gi)} * {_coords_str(gj)} "
                            "leaves the lattice")
    return not problems, problems


def gram_fraction(L):
    """Trace pairing trd(e_i * conj(e_j)); nrd(sum s_i e_i) = s^T G s / 2."""
    gens = L.generators()
    return [[(gi * gj.conj()).trd() for gj in gens] for gi in gens]


def reduced_discriminant_fraction(L):
    """sqrt|det| of the Gram matrix trd(e_i * conj(e_j)) over the basis."""
    ok, problems = is_order_fraction(L)
    if not ok:
        raise NotAnOrder("; ".join(problems))
    d = abs(exact_det(gram_fraction(L)))
    root = fraction_sqrt(Fraction(d))
    if root is None or root.denominator != 1:
        raise NotAnOrder("discriminant Gram determinant is not a perfect square")
    return int(root)


def normalize_isogeny(lam, mu, order):
    """mu' = n * lam^-1 * mu with n minimal positive making mu' integral.

    Replaces the pair (lam, mu) of the covering relation by (id, mu'),
    at the cost of passing to the n-fold cover of the elliptic curve.
    """
    if lam.is_zero():
        raise ValueError("lam must be nonzero")
    v = lam.inverse() * mu
    coords = coords_by_solve(order, v)
    if coords is None:
        raise ValueError("lam^-1 * mu does not lie in the span of the order")
    n = math.lcm(*(c.denominator for c in coords))
    return v * n


def exact_nullspace(rows):
    """Basis of the right nullspace, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots, _ = exact_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    zero = 0 * rows[0][0]
    one = zero + 1
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the lattice and automorphy checks, recomputed from scratch on every call:
# no embedding, Gram matrix, square root or inverse is kept between calls


def _numeric_fresh(q, prec):
    with mp.workprec(prec):
        return (mpmath.mpf(q.u.numerator) / q.u.denominator
                + mpmath.mpf(q.v.numerator) / q.v.denominator
                * mpmath.sqrt(mpmath.mpf(q.rad.numerator) / q.rad.denominator))


def _periods_fresh(m, tau, prec):
    E = embed(m)
    with mp.workprec(prec):
        tau = mpmath.mpc(tau)  # an exact tau is rounded to prec bits
        return (_numeric_fresh(E[0][0], prec) * tau + _numeric_fresh(E[0][1], prec),
                _numeric_fresh(E[1][0], prec) * tau + _numeric_fresh(E[1][1], prec))


def real_period_matrix(vectors):
    P = mpmath.zeros(4, 4)
    for j, (v1, v2) in enumerate(vectors):
        P[0, j], P[1, j], P[2, j], P[3, j] = v1.real, v1.imag, v2.real, v2.imag
    return P


def riemann_conditions_fresh(order, rho, scale, tau, prec, tol):
    """`family.riemann_conditions_check` on the lattice of order at tau,
    with the Gram matrix formed and P inverted anew for each use."""
    J_std = mpmath.matrix([[0, -1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, -1], [0, 0, 1, 0]])
    with mp.workprec(prec):
        tol = mpmath.mpf(tol.numerator) / tol.denominator
        gens = order.generators()
        values = [[scale * (rho * gi * gj.conj()).trd() for gj in gens]
                  for gi in gens]
        bad = [(i, j) for i in range(4) for j in range(4)
               if values[i][j].denominator != 1]
        conditions = {"integral": {
            "pass": not bad,
            "witness": None if not bad else
            {"pair": bad[0], "value": str(values[bad[0][0]][bad[0][1]])},
            "gram": [[str(v) for v in row] for row in values]}}
        P = real_period_matrix([_periods_fresh(g, tau, prec) for g in gens])
        J = P ** -1 * J_std * P
        E4 = mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator
                             for v in row] for row in values])
        compat = mpmath.mnorm(J.T * E4 * J - E4)
        conditions["j_compatible"] = {
            "pass": compat < tol * (mpmath.mnorm(E4) + 1),
            "witness": {"residual": mpmath.nstr(compat, 8)}}
        P = real_period_matrix([_periods_fresh(g, tau, prec) for g in gens])
        vs = [P ** -1 * mpmath.matrix(e) for e in ([1, 0, 0, 0], [0, 0, 1, 0])]
        G = mpmath.zeros(2, 2)
        for i in range(2):
            for j in range(2):
                G[i, j] = ((vs[i].T * E4 * (J * vs[j]))[0, 0]
                           + 1j * (vs[i].T * E4 * vs[j])[0, 0])
        herm = mpmath.mnorm(G - G.transpose_conj())
        minor1 = G[0, 0].real
        minor2 = (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real
        pos = herm < tol * (mpmath.mnorm(G) + 1) and minor1 > tol and minor2 > tol
        conditions["positive_definite"] = {
            "pass": bool(pos),
            "witness": {"leading_minors": [mpmath.nstr(minor1, 10),
                                           mpmath.nstr(minor2, 10)],
                        "hermitian_residual": mpmath.nstr(herm, 8)}}
        return {"conditions": conditions,
                "all_pass": all(c["pass"] for c in conditions.values())}


def isogeny_deviation_fresh(gamma, tau, order, prec):
    """max |C - nint(C)| over both change-of-basis matrices between the
    lattice at gamma(tau) and 1/(c tau + d) times the lattice at tau."""
    with mp.workprec(prec):
        num, j = _periods_fresh(gamma, tau, prec)
        tprime = num / j
        gens = order.generators()
        left = real_period_matrix([_periods_fresh(g, tprime, prec) for g in gens])
        right = real_period_matrix([tuple(v / j for v in _periods_fresh(g, tau, prec))
                                    for g in gens])
        return max(abs(C[i, k] - mpmath.nint(C[i, k]))
                   for A, B in ((left, right), (right, left))
                   for C in (B ** -1 * A,) for i in range(4) for k in range(4))


def automorphy_factor_fresh(g, z, tau, prec):
    """The 3x3 factor of `family.automorphy_factor`, entry by entry."""
    with mp.workprec(prec):
        c = _numeric_fresh(embed(g.gamma)[1][0], prec)
        j = _periods_fresh(g.gamma, tau, prec)[1]
        L = embed(g.lam)
        l1 = (_numeric_fresh(L[0][0], prec), _numeric_fresh(L[1][0], prec))
        lt = _periods_fresh(g.lam, tau, prec)
        A = mpmath.zeros(3, 3)
        A[0, 0] = A[1, 1] = 1 / j
        A[2, 2] = 1 / j ** 2
        for r in range(2):
            A[r, 2] = (l1[r] - c * (z[r] + lt[r]) / j) / j
        return A


def cocycle_residual_fresh(g1, g2, z, tau, prec):
    """mnorm(L - R) / (1 + mnorm(L)) for L = a(g1 g2, x) and
    R = a(g1, g2 x) a(g2, x), at x = (z, tau)."""
    with mp.workprec(prec):
        num, j = _periods_fresh(g2.gamma, tau, prec)
        lt = _periods_fresh(g2.lam, tau, prec)
        z2 = ((z[0] + lt[0]) / j, (z[1] + lt[1]) / j)
        left = automorphy_factor_fresh(g1 * g2, z, tau, prec)
        right = (automorphy_factor_fresh(g1, z2, num / j, prec)
                 * automorphy_factor_fresh(g2, z, tau, prec))
        return mpmath.mnorm(left - right) / (1 + mpmath.mnorm(left))


def canonical_residual_fresh(g, z, tau, prec):
    """|det a(g, x) - j^-4| / (1 + |j^-4|) at x = (z, tau), j = c tau + d."""
    with mp.workprec(prec):
        canonical = _periods_fresh(g.gamma, tau, prec)[1] ** -4
        det = mpmath.det(automorphy_factor_fresh(g, z, tau, prec))
        return abs(det - canonical) / (1 + abs(canonical))
