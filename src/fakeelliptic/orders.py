"""Lattices and orders in a quaternion algebra.

An order is a rank-4 lattice that contains 1, is closed under
multiplication, and consists of integral elements (reduced trace and norm
in Z).  Maximality is certified by the reduced discriminant against the
product of the ramified primes, and reached from the standard order
Z<1, x, y, xy> by saturation.
"""

from fractions import Fraction
import itertools
import math

from .exactlinalg import (ComputationError, exact_det, exact_rank, exact_solve,
                          fraction_sqrt)
from .quaternions import AlgebraSplit, QuatElement, _factorize, ramified_primes


class NotAnOrder(ComputationError):
    pass


class SearchExhausted(ComputationError):
    """Saturation found no enlargement; carries the best order reached."""

    def __init__(self, message, order):
        super().__init__(message)
        self.order = order


class OrderLattice:
    """Rank-4 lattice given by four generator rows in (1,x,y,xy) coordinates."""

    def __init__(self, params, basis):
        basis = [[Fraction(x) for x in row] for row in basis]
        if len(basis) != 4 or any(len(r) != 4 for r in basis):
            raise ValueError("basis must be 4x4")
        if exact_rank(basis) != 4:
            raise ValueError("basis is not of full rank")
        self.params = params
        self.basis = basis

    def generators(self):
        return [QuatElement(self.params, *row) for row in self.basis]

    def coords_of(self, q):
        """Coordinates of q in the lattice basis, or None."""
        cols = [[self.basis[j][i] for j in range(4)] for i in range(4)]
        return exact_solve(cols, list(q.coords()))

    def element_from(self, coords):
        q = QuatElement(self.params, 0)
        for c, g in zip(coords, self.generators()):
            q = q + g * Fraction(c)
        return q

    def contains(self, q):
        sol = self.coords_of(q)
        return sol is not None and all(c.denominator == 1 for c in sol)

    def __eq__(self, other):
        if not isinstance(other, OrderLattice):
            return NotImplemented
        return (self.params == other.params
                and all(self.contains(g) for g in other.generators())
                and all(other.contains(g) for g in self.generators()))


def standard_order(params):
    return OrderLattice(params, [[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])


def _coords_str(q):
    """(0, 1/2, 0, 0): readable (1, x, y, xy) coordinates for messages."""
    return "(" + ", ".join(str(c) for c in q.coords()) + ")"


def is_order(L):
    """Closure certificate: returns (bool, list of violated conditions)."""
    problems = []
    one = QuatElement(L.params, 1)
    if not L.contains(one):
        problems.append("1 is not in the lattice")
    gens = L.generators()
    for g in gens:
        if g.trd().denominator != 1 or g.nrd().denominator != 1:
            problems.append(f"generator {_coords_str(g)} is not integral")
    for gi, gj in itertools.product(gens, gens):
        if not L.contains(gi * gj):
            problems.append(f"product {_coords_str(gi)} * {_coords_str(gj)} "
                            "leaves the lattice")
    return not problems, problems


def _gram(L):
    """Trace pairing trd(e_i * conj(e_j)); nrd(sum s_i e_i) = s^T G s / 2."""
    gens = L.generators()
    return [[(gi * gj.conj()).trd() for gj in gens] for gi in gens]


def reduced_discriminant(L):
    """sqrt|det| of the Gram matrix trd(e_i * conj(e_j)) over the basis."""
    ok, problems = is_order(L)
    if not ok:
        raise NotAnOrder("; ".join(problems))
    d = abs(exact_det(_gram(L)))
    root = fraction_sqrt(Fraction(d))
    if root is None or root.denominator != 1:
        raise NotAnOrder("discriminant Gram determinant is not a perfect square")
    return int(root)


def maximal_discriminant(params):
    """Product of the ramified primes: the reduced discriminant of a maximal order."""
    ram = ramified_primes(params)
    if not ram:
        raise AlgebraSplit("the algebra is split; the family needs a division algebra")
    return math.prod(ram)


def is_maximal(L):
    return reduced_discriminant(L) == maximal_discriminant(L.params)


def saturate(L, max_passes=64):
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
    """
    disc = reduced_discriminant(L)
    target = math.prod(ramified_primes(L.params))
    current = L
    for _ in range(max_passes):
        if disc == target:
            return current
        enlarged = None
        for q in sorted(_factorize(disc // target)):
            enlarged = _adjoin_coset(current, q, disc)
            if enlarged is not None:
                break
        if enlarged is None:
            raise SearchExhausted(
                f"no integral enlargement below discriminant {disc}", current)
        current, disc = enlarged
    raise SearchExhausted("saturation did not terminate", current)


def _integral_cosets(L, q):
    """(j, s) for each v = sum(s_i g_i)/q with trd(v), nrd(v) in Z.

    c runs in `itertools.product` order, j is its last nonzero index and
    s = c / c_j mod q.  L is a certified order: trd(g_i) and the Gram
    matrix are integral.
    """
    t = [int(2 * row[0]) for row in L.basis]
    G = [[int(x) for x in row] for row in _gram(L)]
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
    """First enlargement (order, disc) of L by an integral v/q, or None."""
    gens = L.generators()
    for j, s in _integral_cosets(L, q):
        v = QuatElement(L.params, 0)
        for c, g in zip(s, gens):
            v = v + g * Fraction(c, q)
        if v.trd().denominator != 1 or v.nrd().denominator != 1:
            continue
        rows = [list(r) for r in L.basis]
        rows[j] = [Fraction(x) for x in v.coords()]
        if exact_rank(rows) != 4:
            continue
        candidate = OrderLattice(L.params, rows)
        try:
            candidate_disc = reduced_discriminant(candidate)
        except NotAnOrder:
            continue
        if candidate_disc < disc:
            return candidate, candidate_disc
    return None


class UnitSample:
    """A lattice element of reduced norm 1, tagged elliptic when trd^2 < 4."""

    __slots__ = ("element", "norm", "is_elliptic", "coords")

    def __init__(self, element, coords):
        self.element = element
        self.coords = tuple(coords)
        self.norm = element.nrd()
        self.is_elliptic = element.trd() ** 2 < 4 * self.norm

    def __repr__(self):
        return f"UnitSample({self.element!r}, elliptic={self.is_elliptic})"


def enumerate_units(L, height):
    """All elements with basis coordinates in [-height, height]^4 and nrd = 1.

    nrd(sum c_i g_i) = c^T G c / 2 for the trace pairing G = `_gram(L)`, so
    the box is screened in machine integers on G' = den * G, with den
    clearing the denominators of G (there are none when L is an order):
    nrd = 1 iff c^T G' c = 2 den.  Only the units are built as elements,
    in `itertools.product` order, which sorts them by coordinates.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    G = _gram(L)
    den = math.lcm(*(x.denominator for row in G for x in row))
    G = [[int(x * den) for x in row] for row in G]
    box = range(-height, height + 1)
    out = []
    for c0, c1, c2 in itertools.product(box, repeat=3):
        # the form in c3: G33 c3^2 + 2 lin c3 + head
        head = (G[0][0] * c0 * c0 + G[1][1] * c1 * c1 + G[2][2] * c2 * c2
                + 2 * (G[0][1] * c0 * c1 + G[0][2] * c0 * c2
                       + G[1][2] * c1 * c2))
        lin = G[0][3] * c0 + G[1][3] * c1 + G[2][3] * c2
        for c3 in box:
            if head + (2 * lin + G[3][3] * c3) * c3 == 2 * den:
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
