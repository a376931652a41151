"""Exact and high-precision linear algebra kernel.

Exact scalars are ``fractions.Fraction`` and :class:`QuadExt` (elements
u + v*sqrt(a) of a real quadratic field).  Lattice ranks, membership and
determinants are decided on integer forms (`orders.OrderLattice`); the
elimination kernels `exact_rank`, `exact_det` and `exact_solve` stay
here as references for the tests and the benchmark's tracer.

Numeric work (periods, witnesses, CM points) runs on mpmath at a
configurable binary precision, 128 bits by default.  The numeric
policies live here once: the conversion of exact scalars to mpf and the
default tolerances (the splitting verdicts are exact and need none).  The
numeric functions import mpmath where they run, so the exact commands
never load it.
"""

from fractions import Fraction
import functools
import math

DEFAULT_PRECISION = 128

# residual tolerance of the lattice checks
DEFAULT_TOLERANCE = Fraction(1, 10 ** 20)
# residual tolerance of the automorphy identities (cocycle, canonical degree)
IDENTITY_TOL = Fraction(1, 10 ** 12)
# "nonzero" threshold of the genus-1 comparison `elliptic_family_fiber_h0`
NONZERO_TOL = Fraction(1, 10 ** 12)


class ComputationError(Exception):
    """Base for every failure a computation can certify about its input."""


class NonConvergence(ComputationError):
    """Numeric decomposition failed at the configured precision."""


def to_mpf(x):
    """A Fraction, int or mpf as an mpf at the ambient precision."""
    import mpmath
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _half_bits(prec):
    return Fraction(1, 2 ** ((prec + 1) // 2))


def precision_tolerance(prec):
    """2^-(prec/2): a residual that prec-bit arithmetic resolves from zero."""
    return to_mpf(_half_bits(prec))


def resolution(prec):
    """2^-(3 prec/4): the finest residual tolerance prec bits resolve.

    The residuals of the lattice and automorphy identities stay below
    2^20 units in the last place from 16 to 256 bits; a tolerance must
    keep a quarter of the bits above that unit.  The config's tolerance
    (1e-20) is resolved from 90 bits on, IDENTITY_TOL from 54.
    """
    return Fraction(1, 2 ** (3 * prec // 4))


def tolerance_at(tol, prec):
    """tol where prec bits resolve it, else 2^-(prec/2) (exact): the
    default tolerance of every residual check at that precision."""
    return tol if tol >= resolution(prec) else _half_bits(prec)


def fraction_sqrt(r):
    """Exact square root of a nonnegative Fraction, or None."""
    if r < 0:
        return None
    ns = math.isqrt(r.numerator)
    ds = math.isqrt(r.denominator)
    if ns * ns == r.numerator and ds * ds == r.denominator:
        return Fraction(ns, ds)
    return None


class QuadExt:
    """u + v*sqrt(rad) with u, v rational and rad a fixed nonsquare > 0."""

    __slots__ = ("u", "v", "rad")

    def __init__(self, u, v, rad):
        rad = Fraction(rad)
        if rad <= 0 or fraction_sqrt(rad) is not None:
            raise ValueError("radicand must be positive and not a rational square")
        self.u, self.v, self.rad = Fraction(u), Fraction(v), rad

    @classmethod
    def _over(cls, u, v, rad):
        """u + v*sqrt(rad) for Fractions u, v and a radicand already checked."""
        q = cls.__new__(cls)
        q.u, q.v, q.rad = u, v, rad
        return q

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.rad != self.rad:
                raise ValueError("mixed radicands")
            return other
        return QuadExt._over(Fraction(other), Fraction(0), self.rad)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadExt._over(self.u + o.u, self.v + o.v, self.rad)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._over(-self.u, -self.v, self.rad)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadExt._over(self.u * o.u + self.rad * self.v * o.v,
                             self.u * o.v + self.v * o.u, self.rad)

    __rmul__ = __mul__

    def inverse(self):
        nm = self.u * self.u - self.rad * self.v * self.v
        if nm == 0:
            raise ZeroDivisionError("zero element of the quadratic field")
        return QuadExt._over(self.u / nm, -self.v / nm, self.rad)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def conjugate(self):
        return QuadExt._over(self.u, -self.v, self.rad)

    def is_zero(self):
        return self.u == 0 and self.v == 0

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.rad == other.rad and self.u == other.u and self.v == other.v
        return self.v == 0 and self.u == other

    def __hash__(self):
        return hash((self.u, self.v, self.rad))

    def numeric(self, prec=DEFAULT_PRECISION):
        import mpmath
        with mpmath.workprec(prec):
            return to_mpf(self.u) + to_mpf(self.v) * _sqrt(self.rad, prec)

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.rad}))"


@functools.lru_cache(maxsize=64)
def _sqrt(rad, prec):
    """sqrt(rad) as an mpf at prec bits, computed once per pair."""
    import mpmath
    with mpmath.workprec(prec):
        return mpmath.sqrt(to_mpf(rad))


def _zero_like(x):
    if isinstance(x, QuadExt):
        return QuadExt._over(Fraction(0), Fraction(0), x.rad)
    return Fraction(0)


def _is_zero(x):
    if isinstance(x, QuadExt):
        return x.is_zero()
    return x == 0


def exact_rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not _is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and not _is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def exact_rank(rows):
    return len(exact_rref(rows)[1])


def exact_det(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    det = None
    sign = 1
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not _is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            return _zero_like(m[0][0])
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        det = piv if det is None else det * piv
        for i in range(c + 1, n):
            if not _is_zero(m[i][c]):
                f = m[i][c] / piv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    if sign < 0:
        det = -det
    return det


def exact_solve(rows, rhs):
    """Solve A x = rhs exactly; None if inconsistent or underdetermined."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    rref, pivots = exact_rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:  # pivot in the rhs column
        return None
    if len(pivots) < ncols:
        return None
    zero = _zero_like(rows[0][0])
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][ncols]
    return x


# ---------------------------------------------------------------------------
# numeric kernel


def _to_ap_matrix(rows):
    import mpmath
    if isinstance(rows, mpmath.matrix):
        return rows.copy()
    return mpmath.matrix([[mpmath.mpmathify(x) for x in r] for r in rows])


def numeric_svd(m, prec=DEFAULT_PRECISION):
    """Full SVD rows of a complex matrix, zero-padding to square shape.

    Returns (sigma list, V) with the input equal to U*diag(sigma)*V; the
    rows of V beyond the numeric rank span the row-space complement, so
    their conjugates give the right nullspace.  The package decides its
    ranks exactly; this is the kernel of the tests' SVD oracles.
    """
    import mpmath
    with mpmath.workprec(prec):
        A = _to_ap_matrix(m)
        if A.rows < A.cols:
            P = mpmath.zeros(A.cols, A.cols)
            for i in range(A.rows):
                for j in range(A.cols):
                    P[i, j] = A[i, j]
            A = P
        try:
            _, S, V = mpmath.svd_c(A)
        except Exception as exc:  # pragma: no cover - mpmath failure path
            raise NonConvergence(str(exc)) from exc
        return [S[i] for i in range(S.rows)], V


def solve_quadratic(c2, c1, c0, prec=DEFAULT_PRECISION):
    """Both roots of c2*T^2 + c1*T + c0 (QuadExt or Fraction coefficients).

    Deterministic order: larger imaginary part first, ties broken by
    larger real part.
    """
    import mpmath
    with mpmath.workprec(prec):
        A, B, C = (c.numeric(prec) if isinstance(c, QuadExt) else to_mpf(c)
                   for c in (c2, c1, c0))
        if A == 0:
            raise ZeroDivisionError("leading coefficient is zero")
        disc = B * B - 4 * A * C
        sq = mpmath.sqrt(mpmath.mpc(disc))
        r1 = (-B + sq) / (2 * A)
        r2 = (-B - sq) / (2 * A)
        if (r1.imag, r1.real) < (r2.imag, r2.real):
            r1, r2 = r2, r1
        return r1, r2
