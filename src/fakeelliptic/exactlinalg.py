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

Numeric work runs at a binary precision that each numeric function
takes as `prec`, 128 bits by default.  The numeric policies live here
once: the rounding kernel (`dyadic` and the `dy_*` operations on pairs
(m, e) = m 2^e, which round as mpmath does), one conversion each way
between exact scalars and mpmath (`to_mpf`, `QuadComplex.of`; an embedded
quaternion is rounded by `quaternions.embed_dyadic`), the decimal form
(`decimal_str`, `complex_pair`, `complex_str`), and the upper half plane
(`UpperHalfPoint`, `as_complex`); no fiber or suite verdict reads a
tolerance.  CM points are computed on the kernel (`solve_quadratic`,
`cm.cm_point`) as exact dyadic values; the curve sections run on mpmath,
which the numeric functions import where they run, so `cm enumerate` and
the exact commands never load it.
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
    """An int, Fraction, QuadExt or mpf as an mpf at the ambient precision,
    rounded by the kernel (`dyadic`): the one conversion of exact values to
    mpmath."""
    import mpmath
    if isinstance(x, QuadExt):
        return x.numeric(mpmath.mp.prec)
    return dyadic_mpf(dyadic(x, mpmath.mp.prec))


def precision_tolerance(prec):
    """2^-(prec/2) as a Fraction: a residual that prec-bit arithmetic
    resolves from zero."""
    return Fraction(1, 1 << (prec + 1) // 2)


# ---------------------------------------------------------------------------
# rounding kernel
#
# A dyadic value is a pair (m, e) of ints, the number m 2^e.  Each operation
# rounds its exact result to prec bits, to nearest with ties to even, as
# mpmath's `mpf_add`, `mpf_mul`, `mpf_div` and `mpf_sqrt` round theirs; a
# correctly rounded result is unique, so a chain of these operations in
# mpmath's order gives mpmath's bits.  `_round` is the one rounding of the
# package: `to_mpf`, `QuadExt.numeric`, `quaternions.embed_dyadic` and the
# CM points (`solve_quadratic`, `cm.cm_point`) round through it, and mpmath
# receives their results exactly (`dyadic_mpf`, `QuadComplex._mpc_`).


def _round(m, e, prec):
    """m 2^e to prec bits, to nearest with ties to even."""
    a = m if m >= 0 else -m
    n = a.bit_length() - prec
    if n <= 0:
        return m, e
    q = a >> n
    # above the half, or on it with an odd q
    if a >> (n - 1) & 1 and (q & 1 or a & ((1 << (n - 1)) - 1)):
        q += 1
    return (q if m >= 0 else -q), e + n


def dy_add(x, y, prec):
    (m, e), (n, f) = x, y
    # a zero shifts nothing to its exponent
    if not n:
        return _round(m, e, prec)
    if not m:
        return _round(n, f, prec)
    if e > f:
        return _round((m << (e - f)) + n, f, prec)
    return _round(m + (n << (f - e)), e, prec)


def dy_sub(x, y, prec):
    return dy_add(x, (-y[0], y[1]), prec)


def dy_mul(x, y, prec):
    return _round(x[0] * y[0], x[1] + y[1], prec)


def dy_div(x, y, prec):
    """x / y: a quotient of at least prec + 4 bits, its last bit set when
    the division leaves a remainder, then rounded once."""
    (m, e), (n, f) = x, y
    if not n:
        raise ZeroDivisionError("dyadic division by zero")
    extra = max(prec - m.bit_length() + n.bit_length() + 5, 5)
    q, r = divmod(abs(m) << extra, abs(n))
    if r:
        q, extra = q << 1 | 1, extra + 1
    return _round(q if (m < 0) == (n < 0) else -q, e - f - extra, prec)


def dy_sqrt(x, prec):
    """sqrt(x) for x >= 0: a root of at least prec + 2 bits, its last bit
    set when the root is inexact, then rounded once."""
    m, e = x
    if m < 0:
        raise ValueError("square root of a negative number")
    if e & 1:
        m, e = m << 1, e - 1
    shift = max(2 * prec - m.bit_length() + 4, 4)
    shift += shift & 1
    root = math.isqrt(m << shift)
    if root * root != m << shift:
        root, shift = root << 1 | 1, shift + 2
    return _round(root, (e - shift) // 2, prec)


def dyadic(x, prec):
    """x rounded to prec bits, as a dyadic pair: the one conversion into the
    kernel.  An int or an mpf is rounded once; a Fraction or a float as
    mpmath's `mpf(num) / den`, twice; a QuadExt as `to_mpf(u) + to_mpf(v)
    sqrt(rad)`, each step rounded; a dyadic pair to prec bits."""
    if isinstance(x, tuple):
        return _round(x[0], x[1], prec)
    if isinstance(x, QuadExt):
        v = dy_mul(dyadic(x.v, prec), _sqrt(x.rad, prec), prec)
        return dy_add(dyadic(x.u, prec), v, prec)
    r = _ratio(x)
    if r is None:
        if (parts := _mp_parts(x)) is None:
            raise TypeError(f"cannot round {x!r}")
        sign, man, exp, _ = parts[0]
        return _round(-man if sign else man, exp, prec)
    num = _round(r[0], 0, prec)
    return num if r[1] == 1 else dy_div(num, (r[1], 0), prec)


def _mpf_tuple(m, e):
    """mpmath's normalized (sign, man, exp, bc) of m 2^e: man odd."""
    if not m:
        return (0, 0, 0, 0)
    a = m if m > 0 else -m
    zeros = (a & -a).bit_length() - 1
    a >>= zeros
    return (int(m < 0), a, e + zeros, a.bit_length())


def dyadic_mpf(x):
    """The mpf of a dyadic pair, exactly: mpmath rounds nothing."""
    import mpmath
    return mpmath.mp.make_mpf(_mpf_tuple(*x))


def dyadic_complex(re, im=(0, 0)):
    """re + i im for dyadic pairs, exactly: a QuadComplex over 2^k."""
    (m, e), (n, f) = re, im
    k = max(-e, -f, 0)
    return _complex(m << (e + k), 0, n << (f + k), 0, 1 << k, None, 0)


def dyadic_parts(z):
    """The (re, im) pairs of a QuadComplex with rational parts over a power
    of two, such as `dyadic_complex` builds; None for any other value."""
    if z.rb or z.ib or z.d & (z.d - 1):
        return None
    k = 1 - z.d.bit_length()
    return (z.ra, k), (z.ia, k)


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
    With rational parts rad is None and R = 0.  `mpmath.mpc(z)` reads z
    through the `_mpc_` hook: a dyadic z exactly, any other z rounded.
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
        return dyadic_complex(*((-m if s else m, e) for s, m, e, _ in parts))

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
        """The parts as mpf tuples: a dyadic value's own bits at any ambient
        precision, any other value rounded by `to_mpf`."""
        if (parts := dyadic_parts(self)) is not None:
            return tuple(_mpf_tuple(*p) for p in parts)
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
        """The mpf of u + v sqrt(rad) at prec bits, from the reduced u, v,
        as `dyadic` rounds it."""
        return dyadic_mpf(dyadic(self, prec))

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.rad}))"


@functools.lru_cache(maxsize=64)
def _sqrt(rad, prec):
    """sqrt(rad) at prec bits as a dyadic pair, from rad as `dyadic` rounds
    it, computed once per pair."""
    return dy_sqrt(dyadic(rad, prec), prec)


def _floor_scaled(x, k):
    """floor(x 2^k), k >= 0, exactly, for a rational, a QuadExt or a dyadic
    pair (m, e), which shifts.

    With x = (ra + rb sqrt(R)) / d and rb != 0, rb sqrt(R) is irrational, so
    ra + rb sqrt(R) lies strictly between the integers ra + floor(rb sqrt(R))
    and the next, and the floor of x 2^k is (2^k ra + floor(2^k rb sqrt(R)))
    // d, the root from math.isqrt; rb = 0 gives root 0.
    """
    if isinstance(x, tuple):
        m, e = x
        return m << e + k if e + k >= 0 else m >> -(e + k)
    if not isinstance(x, QuadExt):
        return (x.numerator << k) // x.denominator
    A, B = x.ra << k, x.rb << k
    root = math.isqrt(B * B * x.R)
    return (A + (root if B >= 0 else -root - 1)) // x.d


def decimal_str(x, n):
    """`mpmath.nstr(x, n)` for an exact x (int, Fraction, QuadExt or a
    dyadic pair (m, e), read without a gcd however wide), n >= 1.

    The steps of mpmath's `to_str` on x itself: truncate to a binary fixed
    point of (n + 3) log2(10) + 10 significant bits, take its decimal
    floor, round half up at n digits.  So a dyadic x within 2^+-3500
    (a double, an mpf) prints exactly as its mpf does.  From 2^3500 up, a
    power of ten comes out of x first, as in `to_str`."""
    if (x[0] if isinstance(x, tuple) else x) == 0:
        return "0.0"
    if isinstance(x, tuple):
        negative, x = x[0] < 0, (abs(x[0]), x[1])
    else:
        negative = (x.sign() if isinstance(x, QuadExt) else x) < 0
        x = -x if negative else x
    k = 0
    while (f := _floor_scaled(x, k)) == 0:
        k += 64
    shift = 0
    if f.bit_length() > 3500:
        shift = int(f.bit_length() * math.log10(2)) - 100
        if isinstance(x, tuple):
            x = Fraction(x[0]) * Fraction(2) ** x[1]
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


def _decimal_parts(z, n):
    """The real and imaginary parts of any value `QuadComplex.of` takes as
    `decimal_str` prints them at n digits: a dyadic value (an mpc, a CM
    point) from its pairs, with no gcd however wide."""
    z = QuadComplex.of(z)
    return [decimal_str(x, n) for x in dyadic_parts(z) or (z.real, z.imag)]


def complex_pair(z):
    """{re, im} pair of 20-digit decimal strings, the report form of
    complex values; an mpc prints as `mpmath.nstr` prints it."""
    re, im = _decimal_parts(z, 20)
    return {"re": re, "im": im}


def complex_str(z, n):
    """`mpmath.nstr` of a complex value at n digits, (re + imj)."""
    re, im = _decimal_parts(z, n)
    return f"({re} - {im[1:]}j)" if im.startswith("-") else f"({re} + {im}j)"


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
    inputs intact outside workprec blocks.  An exact tau keeps its bits
    when it is dyadic and is rounded by `to_mpf` otherwise (`_mpc_`).
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
        if isinstance(tau, QuadComplex):
            # the sign of Im tau as `QuadExt.sign` reads it, with no gcd
            ia, ib = tau.ia, tau.ib
            upper = ia * abs(ia) + tau.R * ib * abs(ib) > 0
        else:
            tau = as_complex(tau)
            upper = tau.imag > 0
        if not upper:
            raise ValueError("point not in the upper half plane")
        self.tau = tau

    def __repr__(self):
        return f"UpperHalfPoint({complex_str(self.tau, 12)})"


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
    """Both roots of c2*T^2 + c1*T + c0 as exact dyadic `QuadComplex`
    values, for coefficients that `dyadic` rounds to prec bits (int,
    Fraction, QuadExt, an mpf or a dyadic pair).

    The quadratic formula in mpmath's order of operations, each step
    rounded by the kernel, so the roots carry the bits of mpmath's mpc
    arithmetic at prec bits.  Deterministic order: larger imaginary part
    first, ties broken by larger real part.
    """
    A, B, C = (dyadic(c, prec) for c in (c2, c1, c0))
    if not A[0]:
        raise ZeroDivisionError("leading coefficient is zero")
    disc = dy_sub(dy_mul(B, B, prec), dy_mul((4 * A[0], A[1]), C, prec), prec)
    # as `mpc_sqrt` takes it, a negative disc has the root i sqrt(-disc)
    root = dy_sqrt((abs(disc[0]), disc[1]), prec)
    re, im = ((0, 0), root) if disc[0] < 0 else (root, (0, 0))
    # -B and 2 A are exact
    minus_b, two_a = (-B[0], B[1]), (A[0], A[1] + 1)
    r1 = dyadic_complex(dy_div(dy_add(minus_b, re, prec), two_a, prec),
                        dy_div(im, two_a, prec))
    r2 = dyadic_complex(dy_div(dy_sub(minus_b, re, prec), two_a, prec),
                        dy_div((-im[0], im[1]), two_a, prec))
    # rounding is monotone, so r1 >= r2 in (imag, real) iff 2 A > 0
    return (r1, r2) if A[0] > 0 else (r2, r1)
