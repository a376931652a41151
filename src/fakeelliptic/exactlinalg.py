"""Exact and high-precision linear algebra kernel.

Exact scalars are ``fractions.Fraction``, :class:`QuadExt` (u + v*sqrt(a)
in a real quadratic field) and :class:`QuadComplex` (over Q(sqrt a)(i)).
Lattice ranks, membership and determinants are decided on integer forms
(`orders.OrderLattice`); the elimination kernels `exact_rank`,
`exact_det` and `exact_solve` stay here as references for the tests and
the benchmark's tracer.

Numeric work (CM points, curve sections) runs on mpmath at a
configurable binary precision, 128 bits by default.  The numeric
policies live here once: the conversions between exact scalars and mpf,
their decimal form (`decimal_str`) and the default tolerances (no fiber
or suite verdict needs one).  The numeric functions import mpmath where
they run, so the exact commands never load it.
"""

from fractions import Fraction
import functools
import math

DEFAULT_PRECISION = 128

# the config's default `tolerance`; no verdict reads it
DEFAULT_TOLERANCE = Fraction(1, 10 ** 20)
# residual tolerance of the tests' numeric cocycle oracle; no verdict reads it
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
        if isinstance(other, QuadComplex):
            return NotImplemented
        o = self._coerce(other)
        return QuadExt._over(self.u + o.u, self.v + o.v, self.rad)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._over(-self.u, -self.v, self.rad)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, QuadComplex):
            return NotImplemented
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

    def sign(self):
        """-1, 0 or 1, exactly: t -> t |t| is increasing, so u + v sqrt(rad)
        has the sign of u |u| + rad v |v|."""
        s = self.u * abs(self.u) + self.rad * self.v * abs(self.v)
        return (s > 0) - (s < 0)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.rad == other.rad and self.u == other.u and self.v == other.v
        if isinstance(other, QuadComplex):
            return NotImplemented
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


class QuadComplex:
    """real + i imag, each a Fraction or a QuadExt of one radicand.  With
    rational parts, `mpmath.mpc(z)` rounds z through the `_mpc_` hook."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=Fraction(0)):
        self.real, self.imag = real, imag

    @classmethod
    def of(cls, z):
        """z itself, or the exact value of an mpc (dyadic), a complex or a
        real number; a nan or an infinity raises ValueError or OverflowError."""
        if isinstance(z, cls):
            return z
        if hasattr(z, "_mpc_"):
            from mpmath.libmp import to_rational
            return cls(*(Fraction(*to_rational(x)) for x in z._mpc_))
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other):
        o = other if isinstance(other, QuadComplex) else QuadComplex(other)
        return QuadComplex(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __neg__(self):
        return QuadComplex(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, QuadComplex):
            return QuadComplex(self.real * other, self.imag * other)
        return QuadComplex(self.real * other.real - self.imag * other.imag,
                           self.real * other.imag + self.imag * other.real)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = other if isinstance(other, QuadComplex) else QuadComplex(other)
        return self.real == o.real and self.imag == o.imag

    @property
    def _mpc_(self):
        return (to_mpf(self.real)._mpf_, to_mpf(self.imag)._mpf_)


def _floor_scaled(x, k):
    """floor(x 2^k) for a Fraction or a QuadExt x with v != 0, exactly.

    With x 2^k = (A + B sqrt(R)) / d in integers (R = num(rad) den(rad)),
    B sqrt(R) is irrational, so A + B sqrt(R) lies strictly between the
    integers A + floor(B sqrt(R)) and the next, and the floor of x 2^k is
    (A + floor(B sqrt(R))) // d, with floor(B sqrt(R)) from math.isqrt.
    """
    x = x * Fraction(2) ** k
    if not isinstance(x, QuadExt):
        return math.floor(x)
    w = x.v / x.rad.denominator  # v sqrt(rad) = w sqrt(R)
    d = math.lcm(x.u.denominator, w.denominator)
    A, B = int(x.u * d), int(w * d)
    root = math.isqrt(B * B * x.rad.numerator * x.rad.denominator)
    return (A + (root if B > 0 else -root - 1)) // d


def decimal_str(x, n):
    """`mpmath.nstr(x, n)` for an exact x (int, Fraction or QuadExt), n >= 1.

    The steps of mpmath's `to_str` on x itself: truncate to a binary fixed
    point of (n + 3) log2(10) + 10 significant bits, take its decimal
    floor, round half up at n digits.  So a dyadic x within 2^+-3500
    (a double, an mpf) prints exactly as its mpf does."""
    if isinstance(x, QuadExt) and x.v == 0:
        x = x.u
    if x == 0:
        return "0.0"
    negative = (x.sign() if isinstance(x, QuadExt) else x) < 0
    x = -x if negative else x
    k = 0
    while (f := _floor_scaled(x, k)) == 0:
        k += 64
    fixprec = max(int((n + 3) * math.log(10, 2)) + 10 - f.bit_length() + k, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = str(_floor_scaled(x, fixprec) * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    head = str(int(digits[:n]) + (digits[n:n + 1] >= "5"))
    if len(head) > len(digits[:n]):  # 99..9 rounded up to 100..0
        head, exponent = head[:-1], exponent + 1
    split = 1
    if min(-(n // 3), -5) < exponent < n:
        split, head = max(exponent, 0) + 1, "0" * max(-exponent, 0) + head
        exponent = 0
    text = (head[:split] + "." + head[split:]).rstrip("0")
    exp = f"e{exponent:+d}" if exponent else ""
    return "-" * negative + text + ("0" if text.endswith(".") else "") + exp


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
