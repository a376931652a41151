"""Lattices and orders in a quaternion algebra.

An order is a rank-4 lattice that contains 1, is closed under
multiplication, and consists of integral elements (reduced trace and norm
in Z).  Maximality is certified by the reduced discriminant against the
product of the ramified primes, and reached from the standard order
Z<1, x, y, xy> by saturation.
"""

from fractions import Fraction
import functools
import itertools
import math

from .exactlinalg import ComputationError
from .quaternions import (AlgebraSplit, QuatElement, _factorize, _product,
                          embed, ramified_primes)


# the largest gap prime that `saturate` searches.  On a division algebra
# the search over coset lines ends in milliseconds: on (3,-p), whose gap 2p
# holds p, (3,-1489) takes 4 ms in process and 0.1 s as an `order
# saturate` child, and (3,-11953), above the bound, 35 ms.  The bound
# still guards the library's saturation of a split algebra, which the CLI
# refuses first and which still grows like q^2: (3,-1499) takes 1.2 s
# (Python 3.11, one CPU of a 2-vCPU Xeon VM)
MAX_GAP_PRIME = 1500


class NotAnOrder(ComputationError):
    pass


class SearchExhausted(ComputationError):
    """Saturation found no enlargement; carries the best order reached."""

    def __init__(self, message, order):
        super().__init__(message)
        self.order = order


class OrderLattice:
    """Rank-4 lattice given by four generator rows in (1,x,y,xy) coordinates.

    Every exact question about the lattice reads its integer form
    `form` = (a', b', D, B') and `adjugate` = (adj(B'), det(B')), built
    once here; the rank is 4 iff det(B') != 0.  The `Fraction` basis
    follows from the form on first read, also for the rows given here.
    """

    def __init__(self, params, basis):
        basis = [[Fraction(x) for x in row] for row in basis]
        if len(basis) != 4 or any(len(r) != 4 for r in basis):
            raise ValueError("basis must be 4x4")
        self._set_form(params, _integer_form(params, basis))

    @classmethod
    def from_form(cls, params, form):
        """The lattice whose integer form is `form`, as `_integer_form`
        gives it: D is the least denominator of the scaled rows."""
        L = cls.__new__(cls)
        L._set_form(params, form)
        return L

    def _set_form(self, params, form):
        self.params = params
        self.form = form
        self.adjugate = _adjugate(form[3])
        if self.adjugate[1] == 0:
            raise ValueError("basis is not of full rank")

    @functools.cached_property
    def basis(self):
        """The generator rows B'_i / D with the scaling of x', y' undone."""
        _, _, D, B = self.form
        return [_unscaled(self.params, row, D) for row in B]

    def generators(self):
        return [QuatElement(self.params, *row) for row in self.basis]

    @functools.cached_property
    def embedding(self):
        """embed(g) of each generator: 2x2 matrices over Q(sqrt a)."""
        return [embed(g) for g in self.generators()]

    @functools.cached_property
    def right_multiplication(self):
        """(N, den): R(e) = N_e / den for e = 1, x, y, xy, in integers with
        den > 0.  Row i of R(e) is `coords_of(g_i e)`, so R(q) = sum of
        q_e R(e) is right multiplication by q on the basis.

        On the integer form D g_i e = B'_i e' / s_e, for e' = 1, x', y',
        x'y' and s_e = 1, den(a), den(b), den(a) den(b), so row i of R(e)
        is (B'_i e') adj(B') / (s_e det(B')), over the common denominator
        den(a) den(b) det(B') reduced by one gcd.
        """
        a, b, _, B = self.form
        adj, det = self.adjugate
        ad, bd = self.params.a.denominator, self.params.b.denominator
        sign = 1 if det > 0 else -1
        mats = []
        for e, s in (((1, 0, 0, 0), ad * bd), ((0, 1, 0, 0), bd),
                     ((0, 0, 1, 0), ad), ((0, 0, 0, 1), 1)):
            rows = [_product(row, e, a, b) for row in B]
            mats.append([[sign * s * sum(x * r[c] for x, r in zip(v, adj))
                          for c in range(4)] for v in rows])
        den = sign * det * ad * bd
        g = math.gcd(den, *(x for N in mats for row in N for x in row))
        return [[[x // g for x in row] for row in N] for N in mats], den // g

    @property
    def embedding_det(self):
        """det S, for S the stacked rows (E00, E10, E01, E11) of `embedding`.

        S is the basis times a map of determinant -4ab, so det S =
        -4ab det(basis) = -4 a'b' det(B') / D^4, a nonzero rational; for
        an order |det S| is its reduced discriminant.
        """
        a, b, D, _ = self.form
        return Fraction(-4 * a * b * self.adjugate[1], D ** 4)

    def coords_of(self, q):
        """Coordinates of q in the lattice basis: q' adj(B') / det(B'), for
        q' the coordinates of D q over (1, x', y', x'y')."""
        adj, det = self.adjugate
        v = [x * self.form[2] for x in _scaled(self.params, q.coords())]
        return [sum(x * row[c] for x, row in zip(v, adj)) / det
                for c in range(4)]

    def element_from(self, coords):
        """sum c_i g_i (c integer or `Fraction`): `_unscaled` of v = c B'."""
        _, _, D, B = self.form
        return QuatElement(self.params, *_unscaled(
            self.params, [sum(c * row[k] for c, row in zip(coords, B))
                          for k in range(4)], D))

    def contains(self, q):
        return all(c.denominator == 1 for c in self.coords_of(q))

    def __eq__(self, other):
        if not isinstance(other, OrderLattice):
            return NotImplemented
        return (self.params == other.params
                and all(self.contains(g) for g in other.generators())
                and all(other.contains(g) for g in self.generators()))


def standard_order(params):
    """Z<1, x, y, xy>."""
    identity = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    return OrderLattice.from_form(params, _integer_form(params, identity))


def _coords_str(coords):
    """(0, 1/2, 0, 0): readable (1, x, y, xy) coordinates for messages."""
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _scaled(params, coords):
    """(1, x, y, xy) coordinates over (1, x', y', x'y'), for x' = den(a) x
    and y' = den(b) y."""
    ad, bd = params.a.denominator, params.b.denominator
    k, l, m, n = coords
    return k, l / ad, m / bd, n / (ad * bd)


def _unscaled(params, v, D):
    """The (1, x, y, xy) coordinates of v / D for v over (1, x', y', x'y'),
    undoing `_scaled`: (v0, v1 den a, v2 den b, v3 den a den b) / D."""
    ad, bd = params.a.denominator, params.b.denominator
    return [Fraction(x * s, D) for x, s in zip(v, (1, ad, bd, ad * bd))]


def _integer_form(params, basis):
    """(a', b', D, B'): the basis in machine integers.

    Over x' = den(a) x and y' = den(b) y, whose squares a' and b' are
    integers, the basis coordinates are scaled to integer rows
    B' = D * basis by the lcm D of their denominators.  So the products
    B'_i B'_j = D^2 g_i g_j are integer vectors, and v lies in the
    lattice iff v adj(B') = 0 mod det(B').
    """
    a, b = params.a, params.b
    rows = [_scaled(params, row) for row in basis]
    D = math.lcm(*(x.denominator for row in rows for x in row))
    return (a.numerator * a.denominator, b.numerator * b.denominator, D,
            [[int(x * D) for x in row] for row in rows])


def _gram(a, b, B, C=None):
    """D^2 trd(g_i conj(g_j)): the trace pairing on `_integer_form` rows,
    of the rows of B with those of C (default B)."""
    return [[2 * (u[0] * v[0] - a * u[1] * v[1] - b * u[2] * v[2]
                  + a * b * u[3] * v[3]) for v in (B if C is None else C)]
            for u in B]


def _adjugate(m):
    """(adj(m), det(m)) of a 4x4 integer matrix, m adj(m) = det(m) I.

    Each 3x3 cofactor expands into the 2x2 minors of rows 0, 1 (s_k) or
    of rows 2, 3 (c_k) on the column pairs 01, 02, 03, 12, 13, 23, so
    twelve minors serve all sixteen: a call takes about 2 us against
    49 us for sixteen 3x3 determinants (Python 3.11 on a 2-vCPU VM).
    """
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s0 = a00 * a11 - a10 * a01
    s1 = a00 * a12 - a10 * a02
    s2 = a00 * a13 - a10 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c0 = a20 * a31 - a30 * a21
    c1 = a20 * a32 - a30 * a22
    c2 = a20 * a33 - a30 * a23
    c3 = a21 * a32 - a31 * a22
    c4 = a21 * a33 - a31 * a23
    c5 = a22 * a33 - a32 * a23
    adj = [[a11 * c5 - a12 * c4 + a13 * c3, -a01 * c5 + a02 * c4 - a03 * c3,
            a31 * s5 - a32 * s4 + a33 * s3, -a21 * s5 + a22 * s4 - a23 * s3],
           [-a10 * c5 + a12 * c2 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1,
            -a30 * s5 + a32 * s2 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1],
           [a10 * c4 - a11 * c2 + a13 * c0, -a00 * c4 + a01 * c2 - a03 * c0,
            a30 * s4 - a31 * s2 + a33 * s0, -a20 * s4 + a21 * s2 - a23 * s0],
           [-a10 * c3 + a11 * c1 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0,
            -a30 * s3 + a31 * s1 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0]]
    return adj, s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0


# the messages of `is_order`, indexed by the length of a `_violations` entry
_PROBLEMS = ("1 is not in the lattice", "generator {} is not integral",
             "product {} * {} leaves the lattice")


def _violations(L):
    """The conditions of `is_order` that L fails, lazily and in order: ()
    when 1 is not in L, (i,) when g_i is not integral, (i, j) when g_i g_j
    leaves L.

    Decided by divisibility on the integer form of L: with A = adj(B')
    and d = det(B'), 1 is in L iff D A_0 = 0 mod d, g_i g_j is iff
    (B'_i B'_j) A = 0 mod D d, trd(g_i) = 2 B'_i0 / D and
    nrd(g_i) = (k^2 - a' l^2 - b' m^2 + a'b' n^2) / D^2 on B'_i = (k, l, m, n).
    """
    a, b, D, B = L.form
    adj, det = L.adjugate
    if any(D * x % det for x in adj[0]):
        yield ()
    for i, (k, l, m, n) in enumerate(B):
        if 2 * k % D or (k * k - a * l * l - b * m * m
                         + a * b * n * n) % (D * D):
            yield (i,)
    (u0, u1, u2, u3), (v0, v1, v2, v3), (w0, w1, w2, w3), \
        (z0, z1, z2, z3) = adj
    mod = D * det
    for (i, gi), (j, gj) in itertools.product(enumerate(B), repeat=2):
        p0, p1, p2, p3 = _product(gi, gj, a, b)
        if ((p0 * u0 + p1 * v0 + p2 * w0 + p3 * z0) % mod
                or (p0 * u1 + p1 * v1 + p2 * w1 + p3 * z1) % mod
                or (p0 * u2 + p1 * v2 + p2 * w2 + p3 * z2) % mod
                or (p0 * u3 + p1 * v3 + p2 * w3 + p3 * z3) % mod):
            yield (i, j)


def is_order(L):
    """Closure certificate: returns (bool, list of violated conditions).
    Each call checks L afresh, so an order is certified where it is read."""
    problems = [_PROBLEMS[len(v)].format(*(_coords_str(L.basis[i]) for i in v))
                for v in _violations(L)]
    return not problems, problems


def certified(L):
    """L if `is_order` certifies it on this call; otherwise NotAnOrder
    lists its problems."""
    ok, problems = is_order(L)
    if not ok:
        raise NotAnOrder("; ".join(problems))
    return L


def reduced_discriminant(L):
    """sqrt|det| of the Gram matrix trd(e_i * conj(e_j)) over the basis.

    The Gram matrix is B diag(2, -2a, -2b, 2ab) B^T, so its determinant
    is (4 a b det B)^2 and the root is |`embedding_det`|.  It is an
    integer once `is_order` passes, since the Gram matrix of an order is.
    """
    return int(abs(certified(L).embedding_det))


def maximal_discriminant(params):
    """Product of the ramified primes: the reduced discriminant of a maximal order."""
    ram = ramified_primes(params)
    if not ram:
        raise AlgebraSplit("the algebra is split; the family needs a division algebra")
    return math.prod(ram)


def is_maximal(L):
    return reduced_discriminant(L) == maximal_discriminant(L.params)


def saturate(L):
    """Grow L to a maximal order by adjoining integral coset elements v/q.

    The index of L in any maximal order equals disc(L)/disc(B), so the
    adjoined denominators q run over primes of that gap.  The replaced
    basis row is the last one with a nonzero coset coefficient (the
    representative is scaled so that coefficient is 1 mod q), which keeps
    the leading generators, in particular 1, in place.

    Each pass returns the first coset, in `itertools.product(range(q),
    repeat=4)` order, that passes the exact checks; the search visits
    each line of cosets once.  Trace and norm integrality are screened in
    machine integers first; only survivors are built, from the integer
    form of L, and checked as `is_order` checks them.  That check only
    chooses the enlargement; the order returned is certified by the
    `is_order` run of `reduced_discriminant` where it is read.

    L.params must be squarefree integers (`AlgebraParams.squarefree`, as
    `Config.algebra()` builds them).  In other presentations of the same
    algebra, such as (5, -18) for (5, -2), this one-coset-at-a-time
    search can stop short of a maximal order and raise SearchExhausted.
    Each pass divides disc by a prime, so the loop ends.  A gap prime
    above MAX_GAP_PRIME raises SearchExhausted before any search.
    """
    disc = reduced_discriminant(L)
    target = math.prod(ramified_primes(L.params))
    if (q := max(_factorize(disc // target), default=0)) > MAX_GAP_PRIME:
        raise SearchExhausted(f"the gap prime {q} is above {MAX_GAP_PRIME}, "
                              "the largest the coset search takes", L)
    current = L
    while disc != target:
        for q in sorted(_factorize(disc // target)):
            enlarged = _adjoin_coset(current, q, disc)
            if enlarged is not None:
                break
        else:
            raise SearchExhausted(
                f"no integral enlargement below discriminant {disc}", current)
        current, disc = enlarged
    return current


def _integral_cosets(L, q):
    """(j, s) for each line of v = sum(s_i g_i)/q with trd(v), nrd(v) in Z.

    A coset vector c != 0 mod q and its multiples give the same v, up to
    a unit mod q, so c runs over the vectors whose first nonzero
    coordinate is 1, in lexicographic order: (0,0,0,1), (0,0,1,.),
    (0,1,.,.), (1,.,.,.), the order in which `itertools.product(range(q),
    repeat=4)` first meets each line.  j is the last nonzero index of c
    and s = c / c_j mod q.  L is a certified order: trd(g_i) and the Gram
    matrix are integral.
    """
    a, b, D, B = L.form
    t0, t1, t2, t3 = (2 * row[0] // D for row in B)
    (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), \
        (_, _, _, g33) = [[x // (D * D) for x in row]
                          for row in _gram(a, b, B)]
    t3_inv = pow(t3, -1, q) if t3 % q else None
    mod = 2 * q * q
    heads = itertools.chain(
        [(0, 0, 0), (0, 0, 1)], ((0, 1, c2) for c2 in range(q)),
        ((1, c1, c2) for c1 in range(q) for c2 in range(q)))
    for c0, c1, c2 in heads:
        # trd(v) in Z <=> sum c_i t_i = 0 mod q, which fixes c3 if t3 is
        # a unit; after (0, 0, 0) only c3 = 1 starts a line
        partial = (c0 * t0 + c1 * t1 + c2 * t2) % q
        if not (c0 or c1 or c2):
            tails = (1,) if t3_inv is None else ()
        elif t3_inv is not None:
            tails = ((-partial * t3_inv) % q,)
        else:
            tails = () if partial else range(q)
        for c3 in tails:
            j = 3 if c3 else 2 if c2 else 1 if c1 else 0
            # scale the representative so the replaced coordinate is 1 mod q
            inv = pow((c0, c1, c2, c3)[j], -1, q)
            s0, s1, s2, s3 = s = [c0 * inv % q, c1 * inv % q, c2 * inv % q,
                                  c3 * inv % q]
            # nrd(v) in Z <=> s^T G s = 0 mod 2 q^2
            if (g00 * s0 * s0 + g11 * s1 * s1 + g22 * s2 * s2 + g33 * s3 * s3
                    + 2 * (g01 * s0 * s1 + g02 * s0 * s2 + g03 * s0 * s3
                           + g12 * s1 * s2 + g13 * s1 * s3
                           + g23 * s2 * s3)) % mod == 0:
                yield j, s


def _adjoin_coset(L, q, disc):
    """First enlargement (order, disc) of L by an integral v/q, or None.

    Each v = sum(s_i g_i)/q from `_integral_cosets` is integral and has
    s_j = 1, so replacing g_j by v gives a lattice containing L with index
    q.  Over the denominator D q its integer rows are q B'_i and
    sum s_i B'_i for row j, reduced by their common gcd with D q as in
    `_integer_form`.  A candidate is dropped at its first violated
    condition; the first with none, of discriminant disc/q, is the
    enlargement.  Its reader certifies it by `is_order`.
    """
    a, b, D, B = L.form
    for j, s in _integral_cosets(L, q):
        rows = [[q * x for x in row] for row in B]
        rows[j] = [sum(c * row[k] for c, row in zip(s, B)) for k in range(4)]
        g = math.gcd(D * q, *(x for row in rows for x in row))
        candidate = OrderLattice.from_form(L.params, (
            a, b, D * q // g, [[x // g for x in row] for row in rows]))
        if next(_violations(candidate), None) is None:
            return candidate, disc // q
    return None


class UnitSample:
    """A lattice element of nrd 1 (proved by the caller), elliptic or not,
    at basis coordinates `coords`; `element` is built on its first read."""

    __slots__ = ("lattice", "coords", "is_elliptic", "_element")

    def __init__(self, lattice, coords, is_elliptic, element=None):
        self.lattice = lattice
        self.coords = tuple(coords)
        self.is_elliptic = is_elliptic
        self._element = element

    @property
    def element(self):
        if self._element is None:
            self._element = self.lattice.element_from(self.coords)
        return self._element

    def __repr__(self):
        return f"UnitSample({self.element!r}, elliptic={self.is_elliptic})"


def enumerate_units(L, height):
    """All elements with basis coordinates in [-height, height]^4 and nrd = 1.

    nrd(sum c_i g_i) = c^T G c / 2 for the trace pairing G, so the box is
    screened in machine integers on G' = D^2 G of `_gram`, which is
    integral also when L is no order: nrd = 1 iff c^T G' c = 2 D^2.  A unit
    is elliptic iff trd^2 < 4, i.e. |k| < 1 for k = v0 / D and
    v0 = (c B')_0.  The units come in `itertools.product` order, which
    sorts them by coordinates, and build no element until it is read.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    a, b, D, B = L.form
    G, target = _gram(a, b, B), 2 * D * D
    k0, k1, k2, k3 = (row[0] for row in B)
    box = range(-height, height + 1)
    out = []
    for c0, c1, c2 in itertools.product(box, repeat=3):
        # the form in c3: G33 c3^2 + 2 lin c3 + head
        head = (G[0][0] * c0 * c0 + G[1][1] * c1 * c1 + G[2][2] * c2 * c2
                + 2 * (G[0][1] * c0 * c1 + G[0][2] * c0 * c2
                       + G[1][2] * c1 * c2))
        lin = G[0][3] * c0 + G[1][3] * c1 + G[2][3] * c2
        for c3 in box:
            if head + (2 * lin + G[3][3] * c3) * c3 == target:
                v0 = c0 * k0 + c1 * k1 + c2 * k2 + c3 * k3
                out.append(UnitSample(L, (c0, c1, c2, c3), abs(v0) < D))
    return out


def congruence_filter(units, N, L):
    """Units congruent to 1 modulo N >= 1 in the lattice basis (N >= 3 for
    torsion-freeness).

    The units carry their coordinates in the basis of L, as
    `enumerate_units(L, height)` returns them; u = 1 mod N L iff those
    coordinates agree with the coordinates of 1 modulo N.
    """
    if N < 1:
        raise ValueError(f"the congruence modulus must be at least 1, got {N}")
    one = L.coords_of(QuatElement(L.params, 1))
    if any(c.denominator != 1 for c in one):
        return []  # 1 is not in L, so no u - 1 is
    return [u for u in units
            if all((c - o.numerator) % N == 0 for c, o in zip(u.coords, one))]
