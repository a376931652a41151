"""Exact and high-precision linear algebra kernel.

Exact scalars are ``fractions.Fraction`` and the one kernel of
Q(sqrt a)(i), :class:`QuadComplex`: integer numerators over one common
denominator, (ra + rb sqrt(R)) / d + i (ia + ib sqrt(R)) / d with
R = num(a) den(a), and no gcd in arithmetic: == cross-multiplies, and only
the rational parts, hash and the printers reduce.  :class:`QuadExt`
(u + v*sqrt(a) in a real quadratic field) is its real case, ia = ib = 0:
it inherits the ring operations, any real result with a radicand is one,
and it adds division and the exact `sign`.  Lattice ranks, membership
and determinants are decided on integer forms (`orders.OrderLattice`);
`exact_rank`, `exact_det` and `exact_solve`, references for the tests and
the benchmark's tracer, read `exact_rref`, the one elimination, which
also returns the product of its pivots, signed by its row swaps.

Numeric work (CM points, curve sections) runs on mpmath at a
binary precision that each numeric function takes as `prec`, 128 bits
by default.  The numeric policies live here once: one conversion each
way between exact scalars and mpmath (`to_mpf`, `QuadComplex.of`; an
embedded quaternion is rounded by `quaternions.embed_mpf`), the decimal
form (`decimal_str`, `complex_pair`), and the upper half plane
(`UpperHalfPoint`, `as_complex`); no fiber or suite verdict reads a
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


@functools.lru_cache(maxsize=16)
def precision_tolerance(prec):
    """2^-(prec/2): a residual that prec-bit arithmetic resolves from zero;
    a power of two, so exact at any precision and computed once per prec."""
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


def _complex(ra, rb, ia, ib, d, rad, R):
    """(ra + rb sqrt(R)) / d + i (ia + ib sqrt(R)) / d, for integers with
    d > 0: a `QuadExt` when the value is real and has a radicand."""
    real = rad is not None and ia == 0 and ib == 0
    z = object.__new__(QuadExt if real else QuadComplex)
    z.ra, z.rb, z.ia, z.ib, z.d, z.rad, z.R = ra, rb, ia, ib, d, rad, R
    return z


def _mp_parts(z):
    """The `_mpf_` tuples of an mpc or an mpf, or None for any other value
    (a `QuadComplex` among them); a nan or an infinity raises ValueError."""
    if isinstance(z, QuadComplex):
        return None
    if hasattr(z, "_mpc_"):
        parts = z._mpc_
    elif hasattr(z, "_mpf_"):
        parts = (z._mpf_,)
    else:
        return None
    if any(x[3] < 0 for x in parts):  # bc < 0: a nan or an infinity
        raise ValueError("not a finite number")
    return parts


def _lift(x):
    """x as a QuadComplex: a QuadComplex (a QuadExt among them) or a
    rational (a float exactly); None for any other type."""
    if isinstance(x, QuadComplex):
        return x
    r = _ratio(x)
    return None if r is None else _complex(r[0], 0, 0, 0, r[1], None, 0)


def _radicand(x, y):
    """(rad, R) of a result of x and y; a rational meets any radicand."""
    if x.rad is y.rad or y.rad is None:
        return x.rad, x.R
    if x.rad is None or x.rad == y.rad or x.rb == x.ib == 0:
        return y.rad, y.R
    if y.rb == y.ib == 0:
        return x.rad, x.R
    raise ValueError("mixed radicands")


class QuadComplex:
    """real + i imag, each part rational or in Q(sqrt rad) for one radicand.

    Held as real = (ra + rb sqrt(R)) / d and imag = (ia + ib sqrt(R)) / d
    with R = num(rad) den(rad); numerators over one denominator add,
    others cross-multiply.  A real result with a radicand is a `QuadExt`.
    With rational parts rad is None, R = 0, and `mpmath.mpc(z)` rounds z
    through the `_mpc_` hook.
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

    @staticmethod
    def of(z):
        """z itself, or the exact value of an mpc or an mpf (dyadic), a
        complex or a real number: the one conversion of mpmath and Python
        numbers to exact values.  A nan or an infinity raises ValueError
        or OverflowError."""
        if isinstance(z, QuadComplex):
            return z
        if (parts := _mp_parts(z)) is None:
            return QuadComplex(z.real, z.imag)
        from mpmath.libmp import to_rational
        return QuadComplex(*(Fraction(*to_rational(x)) for x in parts))

    def _part(self, A, B):
        if self.rad is None:
            return Fraction(A, self.d)
        return _complex(A, B, 0, 0, self.d, self.rad, self.R)

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
        try:
            _radicand(self, o)
        except ValueError:
            return False
        d, e = self.d, o.d
        return (self.ra * e == o.ra * d and self.rb * e == o.rb * d
                and self.ia * e == o.ia * d and self.ib * e == o.ib * d)

    @property
    def _mpc_(self):
        return (to_mpf(self.real)._mpf_, to_mpf(self.imag)._mpf_)


class QuadExt(QuadComplex):
    """u + v*sqrt(rad) with u, v rational and rad a fixed nonsquare > 0.

    The real case of `QuadComplex`, (ra + rb sqrt(R)) / d with ia = ib = 0,
    so v = rb den(rad) / d; it adds what is real only: inverse, division,
    the Galois conjugate, `sign` (read from ra and rb), hash and `numeric`.
    """

    __slots__ = ()

    def __init__(self, u, v, rad):
        rad = Fraction(rad)
        if rad <= 0 or fraction_sqrt(rad) is not None:
            raise ValueError("radicand must be positive and not a rational square")
        q = QuadExt._over(Fraction(u), Fraction(v), rad)
        self.ra, self.rb, self.ia, self.ib = q.ra, q.rb, 0, 0
        self.d, self.rad, self.R = q.d, rad, q.R

    @staticmethod
    def _over(u, v, rad):
        """u + v*sqrt(rad) for rationals u, v and a radicand already checked:
        v sqrt(rad) = (v / den(rad)) sqrt(R), over the lcm of denominators."""
        ud, vd = u.denominator, v.denominator * rad.denominator
        d = ud if ud == vd else ud * vd // math.gcd(ud, vd)
        return _complex(u.numerator * (d // ud), v.numerator * (d // vd), 0,
                        0, d, rad, rad.numerator * rad.denominator)

    @property
    def u(self):
        return Fraction(self.ra, self.d)

    @property
    def v(self):
        return Fraction(self.rb * self.rad.denominator, self.d)

    def inverse(self):
        """d (ra - rb sqrt(R)) / (ra^2 - R rb^2)."""
        A, B, d = self.ra, self.rb, self.d
        nm = A * A - self.R * B * B
        if nm == 0:
            raise ZeroDivisionError("zero element of the quadratic field")
        s = 1 if nm > 0 else -1
        return _complex(s * A * d, -s * B * d, 0, 0, s * nm, self.rad, self.R)

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
        return _complex(self.ra, -self.rb, 0, 0, self.d, self.rad, self.R)

    def is_zero(self):
        return self.ra == 0 and self.rb == 0

    def sign(self):
        """-1, 0 or 1, exactly: t -> t |t| is increasing and d > 0, so the
        value has the sign of ra |ra| + R rb |rb|."""
        A, B = self.ra, self.rb
        s = A * abs(A) + self.R * B * abs(B)
        return (s > 0) - (s < 0)

    def __hash__(self):
        """A rational value (v = 0) hashes as its u, which it equals."""
        if self.rb == 0:
            return hash(self.u)
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


def _floor_scaled(x, k):
    """floor(x 2^k), k >= 0, exactly, for a rational or a QuadExt.

    With x = (ra + rb sqrt(R)) / d and rb != 0, rb sqrt(R) is irrational, so
    ra + rb sqrt(R) lies strictly between the integers ra + floor(rb sqrt(R))
    and the next, and the floor of x 2^k is (2^k ra + floor(2^k rb sqrt(R)))
    // d, the root from math.isqrt; rb = 0 gives root 0.
    """
    if not isinstance(x, QuadExt):
        return (x.numerator << k) // x.denominator
    A, B = x.ra << k, x.rb << k
    root = math.isqrt(B * B * x.R)
    return (A + (root if B >= 0 else -root - 1)) // x.d


def decimal_str(x, n):
    """`mpmath.nstr(x, n)` for an exact x (int, Fraction or QuadExt), n >= 1.

    The steps of mpmath's `to_str` on x itself: truncate to a binary fixed
    point of (n + 3) log2(10) + 10 significant bits, take its decimal
    floor, round half up at n digits.  So a dyadic x within 2^+-3500
    (a double, an mpf) prints exactly as its mpf does.  From 2^3500 up, a
    power of ten comes out of x first, as in `to_str`."""
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


def complex_pair(z):
    """{re, im} pair of 20-digit decimal strings, the report form of
    complex values: an mpc or an mpf printed by `mpmath.nstr`, whose text
    `decimal_str` gives for its exact value too, and any other value
    through `QuadComplex.of`."""
    if _mp_parts(z) is not None:
        import mpmath
        return {"re": mpmath.nstr(z.real, 20), "im": mpmath.nstr(z.imag, 20)}
    z = QuadComplex.of(z)
    return {"re": decimal_str(z.real, 20), "im": decimal_str(z.imag, 20)}


def exact_rref(rows):
    """Reduced row echelon form, the one elimination here: (rows, pivot
    columns, the product of the pivots negated once per row swap)."""
    m = [list(r) for r in rows]
    pivots, det = [], Fraction(1)
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], det = m[pr], m[r], -det
        inv = m[r][c]
        det, m[r] = det * inv, [x / inv for x in m[r]]
        for i, row in enumerate(m):
            if i != r and (f := row[c]) != 0:
                m[i] = [a - f * b for a, b in zip(row, m[r])]
        pivots.append(c)
    return m, pivots, det


def exact_rank(rows):
    return len(exact_rref(rows)[1])


def exact_det(rows):
    """det from the pivots of `exact_rref`: 1 for the empty matrix, a zero
    of the entries' type for a singular one."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, det = exact_rref(rows)
    return det if len(pivots) == n else 0 * rows[0][0]


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
    """Solve A x = rhs exactly: the last column of the reduced rows once each
    column of A, and no other, holds a pivot; None otherwise."""
    ncols = len(rows[0])
    rref, pivots, _ = exact_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):
        return None
    return [row[ncols] for row in rref[:ncols]]


# ---------------------------------------------------------------------------
# numeric kernel


def _to_ap_matrix(rows):
    """rows as an mpmath matrix: exact reals through `to_mpf`, anything
    else (an mpc, a complex, a `QuadComplex`) through `mpmath.mpc`."""
    import mpmath
    if isinstance(rows, mpmath.matrix):
        return rows.copy()
    return mpmath.matrix([[to_mpf(x) if isinstance(x, (int, Fraction, QuadExt))
                           else mpmath.mpc(x) for x in r] for r in rows])


def as_complex(tau):
    """tau as an mpc without re-rounding values that already are one.

    mpmath constructors round to the ambient precision even for existing
    mpmath numbers, so conversions must skip them to keep high-precision
    inputs intact outside workprec blocks.  An exact tau is rounded.
    """
    import mpmath
    if isinstance(tau, UpperHalfPoint):
        tau = tau.tau
    if isinstance(tau, mpmath.mpc):
        return tau
    return mpmath.mpc(tau)


class UpperHalfPoint:
    """A point tau with Im > 0; a `QuadComplex` tau stays exact, any other
    becomes an mpc."""

    __slots__ = ("tau",)

    def __init__(self, tau):
        if not isinstance(tau, QuadComplex):
            tau = as_complex(tau)
        im = tau.imag
        if not (im.sign() if isinstance(im, QuadExt) else im) > 0:
            raise ValueError("point not in the upper half plane")
        self.tau = tau

    def __repr__(self):
        import mpmath
        return f"UpperHalfPoint({mpmath.nstr(as_complex(self.tau), 12)})"


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
    """Both roots of c2*T^2 + c1*T + c0, for exact coefficients (int,
    Fraction or QuadExt) or mpfs, each converted by `to_mpf`.

    Deterministic order: larger imaginary part first, ties broken by
    larger real part.
    """
    import mpmath
    with mpmath.workprec(prec):
        A, B, C = (to_mpf(c) for c in (c2, c1, c0))
        if A == 0:
            raise ZeroDivisionError("leading coefficient is zero")
        disc = B * B - 4 * A * C
        # -B and 2 A are exact, so each is formed once
        minus_b, two_a = -B, 2 * A
        sq = mpmath.sqrt(mpmath.mpc(disc))
        r1 = (minus_b + sq) / two_a
        r2 = (minus_b - sq) / two_a
        if (r1.imag, r1.real) < (r2.imag, r2.real):
            r1, r2 = r2, r1
        return r1, r2
