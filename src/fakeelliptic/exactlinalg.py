"""Exact and high-precision linear algebra kernel.

Exact scalars are ``fractions.Fraction``, :class:`QuadExt` (u + v*sqrt(a)
in a real quadratic field) and :class:`QuadComplex` (over Q(sqrt a)(i)).
`QuadExt` and `QuadComplex` hold integer numerators over one common
denominator, (A + B sqrt(R)) / d with R = num(a) den(a), and take no gcd
in arithmetic: == cross-multiplies, `sign` reads the numerators, and only
the rational parts (`QuadExt.u`, `.v`, `QuadComplex.real`, `.imag`), hash
and the printers reduce.  Lattice ranks, membership and determinants are
decided on integer forms (`orders.OrderLattice`); the elimination kernels
`exact_rank`, `exact_det` and `exact_solve` stay here as references for
the tests and the benchmark's tracer.

Numeric work (CM points, curve sections) runs on mpmath at a
binary precision that each numeric function takes as `prec`, 128 bits
by default.  The numeric policies live here once: one conversion each
way between exact scalars and mpmath (`to_mpf`, `QuadComplex.of`) and
their decimal form (`decimal_str`); no fiber or suite verdict reads a
tolerance.  The numeric functions import mpmath where they run, so the
exact commands never load it.
"""

from fractions import Fraction
import functools
import math

DEFAULT_PRECISION = 128

# "nonzero" threshold of the genus-1 comparison `elliptic_family_fiber_h0`
NONZERO_TOL = Fraction(1, 10 ** 12)


class ComputationError(Exception):
    """Base for every failure a computation can certify about its input."""


class NonConvergence(ComputationError):
    """Numeric decomposition failed at the configured precision."""


def to_mpf(x):
    """An int, Fraction, QuadExt or mpf as an mpf at the ambient precision:
    the one conversion of exact values to mpmath."""
    import mpmath
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    if isinstance(x, QuadExt):
        return x.numeric(mpmath.mp.prec)
    return mpmath.mpf(x)


def precision_tolerance(prec):
    """2^-(prec/2): a residual that prec-bit arithmetic resolves from zero."""
    return to_mpf(Fraction(1, 2 ** ((prec + 1) // 2)))


def fraction_sqrt(r):
    """Exact square root of a nonnegative Fraction, or None."""
    if r < 0:
        return None
    ns = math.isqrt(r.numerator)
    ds = math.isqrt(r.denominator)
    if ns * ns == r.numerator and ds * ds == r.denominator:
        return Fraction(ns, ds)
    return None


def _ratio(x):
    """(numerator, denominator > 0) of an int, a Fraction or a float, or
    None for any other type."""
    if isinstance(x, float):
        return x.as_integer_ratio()
    try:
        return x.numerator, x.denominator
    except AttributeError:
        return None


def _quad(A, B, d, rad, R):
    """(A + B sqrt(R)) / d over the radicand rad, for integers with d > 0."""
    q = object.__new__(QuadExt)
    q.A, q.B, q.d, q.rad, q.R = A, B, d, rad, R
    return q


class QuadExt:
    """u + v*sqrt(rad) with u, v rational and rad a fixed nonsquare > 0.

    The value is held as (A + B sqrt(R)) / d in integers, with d > 0 and
    R = num(rad) den(rad), so v = B den(rad) / d.  Arithmetic never takes
    a gcd: numerators over one denominator add, others cross-multiply.
    == cross-multiplies and `sign` reads A and B; only `u`, `v`, hash
    and the printers reduce.
    """

    __slots__ = ("A", "B", "d", "rad", "R")

    def __init__(self, u, v, rad):
        rad = Fraction(rad)
        if rad <= 0 or fraction_sqrt(rad) is not None:
            raise ValueError("radicand must be positive and not a rational square")
        q = QuadExt._over(Fraction(u), Fraction(v), rad)
        self.A, self.B, self.d, self.rad, self.R = q.A, q.B, q.d, rad, q.R

    @classmethod
    def _over(cls, u, v, rad):
        """u + v*sqrt(rad) for rationals u, v and a radicand already checked:
        v sqrt(rad) = (v / den(rad)) sqrt(R), over the lcm of denominators."""
        ud, vd = u.denominator, v.denominator * rad.denominator
        d = ud if ud == vd else ud * vd // math.gcd(ud, vd)
        return _quad(u.numerator * (d // ud), v.numerator * (d // vd), d,
                     rad, rad.numerator * rad.denominator)

    @property
    def u(self):
        return Fraction(self.A, self.d)

    @property
    def v(self):
        return Fraction(self.B * self.rad.denominator, self.d)

    def _check(self, other):
        if other.rad is not self.rad and other.rad != self.rad:
            raise ValueError("mixed radicands")

    def _sum(self, other, k):
        """self + k other for k = 1 or -1."""
        if isinstance(other, QuadExt):
            self._check(other)
            d, e = self.d, other.d
            if d == e:
                return _quad(self.A + k * other.A, self.B + k * other.B, d,
                             self.rad, self.R)
            return _quad(self.A * e + k * other.A * d,
                         self.B * e + k * other.B * d, d * e, self.rad, self.R)
        r = _ratio(other)
        if r is None:
            return NotImplemented
        n, m = r
        return _quad(self.A * m + k * n * self.d, self.B * m, self.d * m,
                     self.rad, self.R)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return _quad(-self.A, -self.B, self.d, self.rad, self.R)

    def __mul__(self, other):
        if isinstance(other, QuadExt):
            self._check(other)
            A, B, R = self.A, self.B, self.R
            return _quad(A * other.A + R * B * other.B,
                         A * other.B + B * other.A, self.d * other.d,
                         self.rad, R)
        r = _ratio(other)
        if r is None:
            return NotImplemented
        n, m = r
        return _quad(self.A * n, self.B * n, self.d * m, self.rad, self.R)

    __rmul__ = __mul__

    def inverse(self):
        """d (A - B sqrt(R)) / (A^2 - R B^2)."""
        A, B, d = self.A, self.B, self.d
        nm = A * A - self.R * B * B
        if nm == 0:
            raise ZeroDivisionError("zero element of the quadratic field")
        s = 1 if nm > 0 else -1
        return _quad(s * A * d, -s * B * d, s * nm, self.rad, self.R)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other.inverse()
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return self * Fraction(r[1], r[0])

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        return _quad(self.A, -self.B, self.d, self.rad, self.R)

    def is_zero(self):
        return self.A == 0 and self.B == 0

    def sign(self):
        """-1, 0 or 1, exactly: t -> t |t| is increasing and d > 0, so the
        value has the sign of A |A| + R B |B|."""
        A, B = self.A, self.B
        s = A * abs(A) + self.R * B * abs(B)
        return (s > 0) - (s < 0)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return ((other.rad is self.rad or other.rad == self.rad)
                    and self.A * other.d == other.A * self.d
                    and self.B * other.d == other.B * self.d)
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return self.B == 0 and self.A * r[1] == r[0] * self.d

    def __hash__(self):
        return hash((self.u, self.v, self.rad))

    def numeric(self, prec=DEFAULT_PRECISION):
        """The mpf of u + v sqrt(rad) at prec bits, from the reduced u, v."""
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


def _complex(ra, rb, ia, ib, d, rad, R):
    z = object.__new__(QuadComplex)
    z.ra, z.rb, z.ia, z.ib, z.d, z.rad, z.R = ra, rb, ia, ib, d, rad, R
    return z


def _lift(x):
    """x as a QuadComplex: a QuadComplex, a QuadExt or a rational (a float
    exactly); None for any other type."""
    if isinstance(x, QuadComplex):
        return x
    if isinstance(x, QuadExt):
        return _complex(x.A, x.B, 0, 0, x.d, x.rad, x.R)
    r = _ratio(x)
    return None if r is None else _complex(r[0], 0, 0, 0, r[1], None, 0)


def _radicand(x, y):
    """(rad, R) of a result of x and y; a rational value has rad None."""
    if x.rad is y.rad or y.rad is None:
        return x.rad, x.R
    if x.rad is None or x.rad == y.rad:
        return y.rad, y.R
    raise ValueError("mixed radicands")


class QuadComplex:
    """real + i imag, each part rational or in Q(sqrt rad) for one radicand.

    Held like `QuadExt`, over one denominator: real = (ra + rb sqrt(R)) / d
    and imag = (ia + ib sqrt(R)) / d.  With rational parts rad is None,
    R = 0, and `mpmath.mpc(z)` rounds z through the `_mpc_` hook.
    """

    __slots__ = ("ra", "rb", "ia", "ib", "d", "rad", "R")

    def __init__(self, real, imag=0):
        """real + i imag, over the lcm of the parts' denominators."""
        re, im = (_lift(x) or _lift(Fraction(x)) for x in (real, imag))
        self.rad, self.R = _radicand(re, im)
        d, e = re.d, im.d
        self.d = d if d == e else d * e // math.gcd(d, e)
        s, t = self.d // d, self.d // e
        self.ra, self.rb = re.ra * s - im.ia * t, re.rb * s - im.ib * t
        self.ia, self.ib = re.ia * s + im.ra * t, re.ib * s + im.rb * t

    @classmethod
    def of(cls, z):
        """z itself, or the exact value of an mpc or an mpf (dyadic), a
        complex or a real number: the one conversion of mpmath and Python
        numbers to exact values.  A nan or an infinity raises ValueError
        or OverflowError."""
        if isinstance(z, cls):
            return z
        if not (hasattr(z, "_mpc_") or hasattr(z, "_mpf_")):
            return cls(z.real, z.imag)
        from mpmath.libmp import to_rational
        parts = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_,)
        if any(x[3] < 0 for x in parts):  # bc < 0: a nan or an infinity
            raise ValueError("not a finite number")
        return cls(*(Fraction(*to_rational(x)) for x in parts))

    def _part(self, A, B):
        if self.rad is None:
            return Fraction(A, self.d)
        return _quad(A, B, self.d, self.rad, self.R)

    @property
    def real(self):
        return self._part(self.ra, self.rb)

    @property
    def imag(self):
        return self._part(self.ia, self.ib)

    def _sum(self, other, k):
        """self + k other for k = 1 or -1."""
        o = _lift(other)
        if o is None:
            return NotImplemented
        rad, R = _radicand(self, o)
        d, e = self.d, o.d
        if d == e:
            return _complex(self.ra + k * o.ra, self.rb + k * o.rb,
                            self.ia + k * o.ia, self.ib + k * o.ib, d, rad, R)
        return _complex(self.ra * e + k * o.ra * d, self.rb * e + k * o.rb * d,
                        self.ia * e + k * o.ia * d, self.ib * e + k * o.ib * d,
                        d * e, rad, R)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __neg__(self):
        return _complex(-self.ra, -self.rb, -self.ia, -self.ib, self.d,
                        self.rad, self.R)

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        rad, R = _radicand(self, o)
        a, b, c, e = self.ra, self.rb, self.ia, self.ib
        p, q, r, s = o.ra, o.rb, o.ia, o.ib
        return _complex(a * p - c * r + R * (b * q - e * s),
                        a * q + b * p - c * s - e * r,
                        a * r + c * p + R * (b * s + e * q),
                        a * s + b * r + c * q + e * p, self.d * o.d, rad, R)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        if (self.rad is not o.rad and self.rad is not None
                and o.rad is not None and self.rad != o.rad):
            return False
        d, e = self.d, o.d
        return (self.ra * e == o.ra * d and self.rb * e == o.rb * d
                and self.ia * e == o.ia * d and self.ib * e == o.ib * d)

    @property
    def _mpc_(self):
        return (to_mpf(self.real)._mpf_, to_mpf(self.imag)._mpf_)


def _floor_scaled(x, k):
    """floor(x 2^k), k >= 0, exactly, for a rational or a QuadExt with B != 0.

    With x = (A + B sqrt(R)) / d, B sqrt(R) is irrational, so A + B sqrt(R)
    lies strictly between the integers A + floor(B sqrt(R)) and the next,
    and the floor of x 2^k is (2^k A + floor(2^k B sqrt(R))) // d, the
    root from math.isqrt.
    """
    if not isinstance(x, QuadExt):
        return (x.numerator << k) // x.denominator
    A, B = x.A << k, x.B << k
    root = math.isqrt(B * B * x.R)
    return (A + (root if B > 0 else -root - 1)) // x.d


def decimal_str(x, n):
    """`mpmath.nstr(x, n)` for an exact x (int, Fraction or QuadExt), n >= 1.

    The steps of mpmath's `to_str` on x itself: truncate to a binary fixed
    point of (n + 3) log2(10) + 10 significant bits, take its decimal
    floor, round half up at n digits.  So a dyadic x within 2^+-3500
    (a double, an mpf) prints exactly as its mpf does.  From 2^3500 up, a
    power of ten comes out of x first, as in `to_str`."""
    if isinstance(x, QuadExt) and x.B == 0:
        x = x.u
    if x == 0:
        return "0.0"
    negative = (x.sign() if isinstance(x, QuadExt) else x) < 0
    x = -x if negative else x
    k = 0
    while (f := _floor_scaled(x, k)) == 0:
        k += 64
    shift = 0
    if f.bit_length() > 3500:
        shift = int(f.bit_length() * math.log10(2)) - 100
        x = x / 10 ** shift
        f = _floor_scaled(x, 0)
    fixprec = max(int((n + 3) * math.log(10, 2)) + 10 - f.bit_length() + k, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = str(_floor_scaled(x, fixprec) * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1 + shift
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


def cofactor_det(m):
    """Determinant by cofactors along the first row, without division, so
    over any ring: integers, Q(sqrt a), Q(sqrt a)(i)."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    det = None
    for j, x in enumerate(m[0]):
        t = x * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        det = t if det is None else det - t if j % 2 else det + t
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
        A, B, C = (to_mpf(c) for c in (c2, c1, c0))
        if A == 0:
            raise ZeroDivisionError("leading coefficient is zero")
        disc = B * B - 4 * A * C
        sq = mpmath.sqrt(mpmath.mpc(disc))
        r1 = (-B + sq) / (2 * A)
        r2 = (-B - sq) / (2 * A)
        if (r1.imag, r1.real) < (r2.imag, r2.real):
            r1, r2 = r2, r1
        return r1, r2
