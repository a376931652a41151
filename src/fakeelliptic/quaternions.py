"""Rational quaternion algebras B = (a, b / Q) in the normal form a > 0, b < 0.

Elements are written over the basis (1, x, y, xy) with x^2 = a, y^2 = b,
xy = -yx.  The involution, reduced trace/norm, the fixed embedding into
2x2 matrices over Q(sqrt(a)), and the local invariants (Hilbert symbols,
ramified primes) live here.
"""

from fractions import Fraction
import functools
import itertools
import math

from .exactlinalg import (ComputationError, QuadExt, _sqrt, fraction_sqrt,
                          to_mpf)


class AlgebraSplit(ComputationError):
    """Raised where a construction requires a division algebra."""


class AlgebraParams:
    """The pair (a, b) with a > 0 not a rational square and b < 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = Fraction(a)
        b = Fraction(b)
        if a <= 0:
            raise ValueError("a must be positive")
        if fraction_sqrt(a) is not None:
            raise ValueError("a must not be a rational square")
        if b >= 0:
            raise ValueError("b must be negative")
        self.a = a
        self.b = b

    def __eq__(self, other):
        return isinstance(other, AlgebraParams) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"AlgebraParams({self.a}, {self.b})"

    def squarefree(self):
        """The same algebra with a and b replaced by the squarefree
        integers of their square classes, the presentation that
        `orders.saturate` expects."""
        return AlgebraParams(_squarefree(self.a), _squarefree(self.b))


class QuatElement:
    """k + l*x + m*y + n*xy with rational coordinates."""

    __slots__ = ("params", "k", "l", "m", "n")

    def __init__(self, params, k, l=0, m=0, n=0):
        self.params = params
        self.k = Fraction(k)
        self.l = Fraction(l)
        self.m = Fraction(m)
        self.n = Fraction(n)

    def coords(self):
        return (self.k, self.l, self.m, self.n)

    def _coerce(self, other):
        if isinstance(other, QuatElement):
            if other.params != self.params:
                raise ValueError("elements of different algebras")
            return other
        return QuatElement(self.params, Fraction(other))

    def __add__(self, other):
        o = self._coerce(other)
        return QuatElement(self.params, self.k + o.k, self.l + o.l,
                           self.m + o.m, self.n + o.n)

    __radd__ = __add__

    def __neg__(self):
        return QuatElement(self.params, -self.k, -self.l, -self.m, -self.n)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, QuatElement):
            c = Fraction(other)
            return QuatElement(self.params, c * self.k, c * self.l, c * self.m, c * self.n)
        o = self._coerce(other)
        return QuatElement(self.params, *_product(
            self.coords(), o.coords(), self.params.a, self.params.b))

    def __rmul__(self, other):
        # scalars commute
        return self * other

    def __eq__(self, other):
        if isinstance(other, QuatElement):
            return self.params == other.params and self.coords() == other.coords()
        return self.coords() == (Fraction(other), 0, 0, 0)

    def __hash__(self):
        return hash((self.params, self.coords()))

    def is_zero(self):
        return self.coords() == (0, 0, 0, 0)

    def conj(self):
        return QuatElement(self.params, self.k, -self.l, -self.m, -self.n)

    def trd(self):
        return 2 * self.k

    def nrd(self):
        a, b = self.params.a, self.params.b
        return (self.k ** 2 - a * self.l ** 2 - b * self.m ** 2
                + a * b * self.n ** 2)

    def inverse(self):
        nm = self.nrd()
        if nm == 0:
            raise ZeroDivisionError("element of reduced norm zero")
        return self.conj() * (Fraction(1) / nm)

    def __repr__(self):
        return f"QuatElement({self.k}, {self.l}, {self.m}, {self.n})"


def is_elliptic(mu, nrd=None):
    """trd(mu)^2 < 4 nrd(mu), so mu is no scalar (trd^2 = 4 nrd) and
    nrd(mu) > 0; nrd, where given, is nrd(mu), computed by the caller."""
    if mu.is_zero():
        raise ValueError("mu must be nonzero")
    return mu.trd() ** 2 < 4 * (mu.nrd() if nrd is None else nrd)


def _product(u, v, a, b):
    """The multiplication table: coordinates of u v over (1, x, y, xy)
    for x^2 = a and y^2 = b, on rational or integer coordinates."""
    k1, l1, m1, n1 = u
    k2, l2, m2, n2 = v
    return (k1 * k2 + a * l1 * l2 + b * m1 * m2 - a * b * n1 * n2,
            k1 * l2 + l1 * k2 + b * (n1 * m2 - m1 * n2),
            k1 * m2 + m1 * k2 + a * (l1 * n2 - n1 * l2),
            k1 * n2 + l1 * m2 - m1 * l2 + n1 * k2)


def embed(q):
    """The fixed embedding into M_2(Q(sqrt a)).

    x maps to diag(sqrt a, -sqrt a) and y to [[0, b], [1, 0]]; a general
    element lands on [[k + l*sqrt a, b*(m + n*sqrt a)], [m - n*sqrt a, k - l*sqrt a]].
    """
    a, b = q.params.a, q.params.b
    k, l, m, n = q.coords()
    # AlgebraParams has checked that a is no rational square
    return [[QuadExt._over(k, l, a), QuadExt._over(m, n, a) * b],
            [QuadExt._over(m, -n, a), QuadExt._over(k, -l, a)]]


def embed_mpf(q):
    """`embed(q)` rounded at the ambient precision, the one rounding of an
    embedding: each entry u + v sqrt(a) as `to_mpf` rounds it, with each
    coordinate converted once.  Rounding to nearest commutes with negation,
    so the entries share the terms l sqrt(a) and n sqrt(a)."""
    import mpmath
    a, b = q.params.a, q.params.b
    k, l, m, n = q.coords()
    root = _sqrt(a, mpmath.mp.prec)
    K, M, ls, ns = to_mpf(k), to_mpf(m), to_mpf(l) * root, to_mpf(n) * root
    return [[K + ls, to_mpf(b * m) + to_mpf(b * n) * root], [M - ns, K - ls]]


# ---------------------------------------------------------------------------
# local invariants

INFINITE_PLACE = "oo"


# the largest integer `_factorize` accepts: Pollard rho splits a composite
# in about p^(1/2) steps for its least prime factor p <= n^(1/2), so every
# accepted n factors in about 2^16 steps
FACTOR_LIMIT = 2 ** 64
# trial division runs below this bound, which settles every n < 10^6
_TRIAL_BOUND = 1000
# Miller-Rabin with these bases is exact below 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _factorize(n):
    """Factorization of a positive integer n <= FACTOR_LIMIT; {prime: exponent}.

    Trial division by d < 1000, then Miller-Rabin and Pollard rho on
    what is left; all of its prime factors exceed the last trial divisor d,
    so a part below d^2 is prime.
    """
    n = int(n)
    if n > FACTOR_LIMIT:
        raise ValueError(f"cannot factor {n}: integers above 2^64 are out "
                         "of range")
    out = {}
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < d * d or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            parts += [f, m // f]
    return out


def _is_prime(n):
    """Deterministic Miller-Rabin for odd n > 37 below 3.3 * 10^24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    """A proper factor of the odd composite n: Pollard rho with Floyd's
    cycle search on x -> x^2 + c, for c = 1, 2, ... until one succeeds."""
    for c in itertools.count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


@functools.lru_cache(maxsize=128)
def _squarefree(r):
    """Squarefree integer in the square class of the nonzero rational r."""
    sign = -1 if r < 0 else 1
    out = 1
    # |r| and num * den share a square class; num and den are coprime
    for n in (abs(r.numerator), r.denominator):
        for p, e in _factorize(n).items():
            if e % 2:
                out *= p
    return sign * out


def _legendre(u, p):
    """Legendre symbol (u/p) for p-unit integer u, odd prime p."""
    s = pow(u % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else int(s)


def _val_unit(n, p):
    """(v_p(n), unit) for a nonzero integer n; the unit keeps n's sign."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, p):
    """Local Hilbert symbol (a, b)_p in {+1, -1}.

    p is an odd prime, 2, or the infinite place "oo".  Computed by the
    standard explicit formulas after reducing a and b to squarefree
    integers (the symbol only depends on square classes).
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("symbol needs nonzero arguments")
    sa, sb = _squarefree(a), _squarefree(b)
    if p == INFINITE_PLACE:
        return -1 if (sa < 0 and sb < 0) else 1
    p = int(p)
    alpha, u = _val_unit(sa, p)
    beta, v = _val_unit(sb, p)
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_v = ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if e % 2 else 1
    e = alpha * beta * ((p - 1) // 2)
    s = (-1) ** (e % 2)
    if beta % 2:
        s *= _legendre(u, p)
    if alpha % 2:
        s *= _legendre(v, p)
    return s


def symbol_support(a, b):
    """Finite places where the symbol can be nontrivial: p | 2*num*den of a and b."""
    a = Fraction(a)
    b = Fraction(b)
    primes = {2}
    for n in (a.numerator, a.denominator, b.numerator, b.denominator):
        primes.update(_factorize(abs(n)))
    return sorted(primes)


def ramified_primes(params):
    """Finite primes where B = (a, b / Q) ramifies, computed on each call."""
    return [p for p in symbol_support(params.a, params.b)
            if hilbert_symbol(params.a, params.b, p) == -1]


def is_indefinite_division(params):
    """True iff B is a division algebra: `bool(ramified_primes(params))`,
    since a > 0 makes (a, b)_oo = 1 and B split at the infinite place."""
    return bool(ramified_primes(params))
