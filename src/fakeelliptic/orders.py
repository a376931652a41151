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
                          embed, is_elliptic, ramified_primes)


# the largest gap prime that `saturate` searches.  On (3,-p), whose gap 2p
# holds p, the search grows like p^2: as `order saturate` children,
# (3,-1093) takes 5.1-5.9 s and (3,-1489), the largest such p below the
# bound, 8.6-12.8 s; (3,-11953) would take ten minutes (Python 3.11, Xeon)
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
    once here; the rank is 4 iff det(B') != 0.
    """

    def __init__(self, params, basis):
        basis = [[Fraction(x) for x in row] for row in basis]
        if len(basis) != 4 or any(len(r) != 4 for r in basis):
            raise ValueError("basis must be 4x4")
        self.params = params
        self.basis = basis
        self.form = _integer_form(params, basis)
        self.adjugate = _adjugate(self.form[3])
        if self.adjugate[1] == 0:
            raise ValueError("basis is not of full rank")

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
        """sum c_i g_i (c integer or `Fraction`) from v = c B': undoing
        `_scaled`, it is (v0, v1 den a, v2 den b, v3 den a den b) / D."""
        _, _, D, B = self.form
        ad, bd = self.params.a.denominator, self.params.b.denominator
        return QuatElement(self.params, *(
            Fraction(sum(c * row[k] for c, row in zip(coords, B)) * s, D)
            for k, s in enumerate((1, ad, bd, ad * bd))))

    def contains(self, q):
        return all(c.denominator == 1 for c in self.coords_of(q))

    def __eq__(self, other):
        if not isinstance(other, OrderLattice):
            return NotImplemented
        return (self.params == other.params
                and all(self.contains(g) for g in other.generators())
                and all(other.contains(g) for g in self.generators()))


def standard_order(params):
    return OrderLattice(params, [[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])


def _coords_str(coords):
    """(0, 1/2, 0, 0): readable (1, x, y, xy) coordinates for messages."""
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _scaled(params, coords):
    """(1, x, y, xy) coordinates over (1, x', y', x'y'), for x' = den(a) x
    and y' = den(b) y."""
    ad, bd = params.a.denominator, params.b.denominator
    k, l, m, n = coords
    return k, l / ad, m / bd, n / (ad * bd)


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
    """(adj(m), det(m)) of a 4x4 integer matrix, by 3x3 cofactors written
    out: with `exactlinalg.cofactor_det` a call takes 122 us against 51,
    and saturating the standard order of (7, -57) 3.5 ms against 3.0
    (Python 3.11 on a 2-vCPU VM)."""
    def cofactor(i, j):
        (p, q, r), (s, t, u), (v, w, z) = [
            [x for c, x in enumerate(row) if c != j]
            for k, row in enumerate(m) if k != i]
        return (-1) ** (i + j) * (p * (t * z - u * w) - q * (s * z - u * v)
                                  + r * (s * w - t * v))
    adj = [[cofactor(j, i) for j in range(4)] for i in range(4)]
    return adj, sum(m[0][j] * adj[j][0] for j in range(4))


def is_order(L):
    """Closure certificate: returns (bool, list of violated conditions).

    Decided by divisibility on the integer form of L: with A = adj(B')
    and d = det(B'), 1 is in L iff D A_0 = 0 mod d, g_i g_j is iff
    (B'_i B'_j) A = 0 mod D d, trd(g_i) = 2 B'_i0 / D and
    nrd(g_i) = G'_ii / 2 D^2 on G' = `_gram`.
    """
    a, b, D, B = L.form
    adj, det = L.adjugate
    G = _gram(a, b, B)
    problems = []
    if any(D * x % det for x in adj[0]):
        problems.append("1 is not in the lattice")
    for i, row in enumerate(L.basis):
        if 2 * B[i][0] % D or G[i][i] % (2 * D * D):
            problems.append(f"generator {_coords_str(row)} is not integral")
    for (gi, ri), (gj, rj) in itertools.product(zip(B, L.basis), repeat=2):
        p = _product(gi, gj, a, b)
        if any(sum(p[k] * adj[k][c] for k in range(4)) % (D * det)
               for c in range(4)):
            problems.append(f"product {_coords_str(ri)} * {_coords_str(rj)} "
                            "leaves the lattice")
    return not problems, problems


def certified(L):
    """L once `is_order` passes; otherwise NotAnOrder lists its problems."""
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
    repeat=4)` order, that passes the exact checks.  Trace and norm
    integrality are screened in machine integers first; only survivors
    are built with `Fraction` coordinates and certified by `is_order`,
    once per lattice.

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
    """(j, s) for each v = sum(s_i g_i)/q with trd(v), nrd(v) in Z.

    c runs in `itertools.product` order, j is its last nonzero index and
    s = c / c_j mod q.  L is a certified order: trd(g_i) and the Gram
    matrix are integral.
    """
    a, b, D, B = L.form
    t = [2 * row[0] // D for row in B]
    G = [[x // (D * D) for x in row] for row in _gram(a, b, B)]
    t3_inv = pow(t[3], -1, q) if t[3] % q else None
    for c0, c1, c2 in itertools.product(range(q), repeat=3):
        # trd(v) in Z <=> sum c_i t_i = 0 mod q, which fixes c3 if t3 is a unit
        partial = (c0 * t[0] + c1 * t[1] + c2 * t[2]) % q
        if t3_inv is not None:
            tails = ((-partial * t3_inv) % q,)
        else:
            tails = () if partial else range(q)
        for c3 in tails:
            c = (c0, c1, c2, c3)
            if not any(c):
                continue
            j = max(i for i, ci in enumerate(c) if ci)
            # scale the representative so the replaced coordinate is 1 mod q
            inv = pow(c[j], -1, q)
            s = [(ci * inv) % q for ci in c]
            # nrd(v) in Z <=> s^T G s = 0 mod 2 q^2
            form = sum(G[a][b] * s[a] * s[b] for a in range(4) for b in range(4))
            if form % (2 * q * q) == 0:
                yield j, s


def _adjoin_coset(L, q, disc):
    """First enlargement (order, disc) of L by an integral v/q, or None.

    Each v = sum(s_i g_i)/q from `_integral_cosets` is integral and has
    s_j = 1, so replacing g_j by v gives a lattice containing L with index
    q: once `is_order` certifies it, its discriminant is disc/q.
    """
    for j, s in _integral_cosets(L, q):
        rows = [list(r) for r in L.basis]
        rows[j] = [sum(c * row[k] for c, row in zip(s, L.basis)) / q
                   for k in range(4)]
        candidate = OrderLattice(L.params, rows)
        if is_order(candidate)[0]:
            return candidate, disc // q
    return None


class UnitSample:
    """An element of nrd 1 (proved by the caller), elliptic or not."""

    __slots__ = ("element", "is_elliptic", "coords")

    def __init__(self, element, coords):
        self.element = element
        self.coords = tuple(coords)
        self.is_elliptic = is_elliptic(element, 1)

    def __repr__(self):
        return f"UnitSample({self.element!r}, elliptic={self.is_elliptic})"


def enumerate_units(L, height):
    """All elements with basis coordinates in [-height, height]^4 and nrd = 1.

    nrd(sum c_i g_i) = c^T G c / 2 for the trace pairing G, so the box is
    screened in machine integers on G' = D^2 G of `_gram`, which is
    integral also when L is no order: nrd = 1 iff c^T G' c = 2 D^2.  Only
    the units are built, by `element_from` and with no second norm, in
    `itertools.product` order, which sorts them by coordinates.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    a, b, D, B = L.form
    G, target = _gram(a, b, B), 2 * D * D
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
                coords = (c0, c1, c2, c3)
                out.append(UnitSample(L.element_from(coords), coords))
    return out


def congruence_filter(units, N, L):
    """Units congruent to 1 modulo N in the lattice basis (N >= 3 for torsion-freeness).

    The units carry their coordinates in the basis of L, as
    `enumerate_units(L, height)` returns them; u = 1 mod N L iff those
    coordinates agree with the coordinates of 1 modulo N.
    """
    if N == 0:
        raise ValueError("the congruence modulus must be nonzero")
    one = L.coords_of(QuatElement(L.params, 1))
    if any(c.denominator != 1 for c in one):
        return []  # 1 is not in L, so no u - 1 is
    return [u for u in units
            if all((c - o.numerator) % N == 0 for c, o in zip(u.coords, one))]
