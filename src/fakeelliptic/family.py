"""The modular family over the upper half plane.

For tau in H_1 the order O_B maps to a lattice O_B * (tau, 1)^t in C^2,
giving an abelian surface A_tau.  This module carries the complex
structure, the polarization form E(m1, m2) = trd(rho * m1 * conj(m2)) and
its Riemann conditions, the Moebius action of norm-1 units together with
the lattice isogeny identity, and the 3x3 factor of automorphy of the
total space, with its cocycle and determinant identities.  The checks
decide over Q(sqrt a)(i); only the numeric functions import mpmath.
"""

from fractions import Fraction
import math

from .exactlinalg import (DEFAULT_PRECISION, QuadComplex, QuadExt, _complex,
                          cofactor_det, decimal_str, to_mpf)
from .orders import _gram, _integer_form
from .quaternions import QuatElement, _product, embed


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
    """A point tau with Im > 0, optionally carrying its exact quadratic;
    a `QuadComplex` tau stays exact, any other becomes an mpc."""

    __slots__ = ("tau", "quad")

    def __init__(self, tau, quad=None):
        if not isinstance(tau, QuadComplex):
            tau = as_complex(tau)
        im = tau.imag
        if not (im.sign() if isinstance(im, QuadExt) else im) > 0:
            raise ValueError("point not in the upper half plane")
        self.tau = tau
        self.quad = quad  # (c2, c1, c0) QuadExt coefficients, or None

    def __repr__(self):
        import mpmath
        return f"UpperHalfPoint({mpmath.nstr(as_complex(self.tau), 12)})"


def complex_structure(m, tau, prec=DEFAULT_PRECISION):
    """m_tau = embed(m) * (tau, 1)^t in C^2; for a unit, the second
    coordinate is its automorphy denominator j = c tau + d."""
    import mpmath
    with mpmath.workprec(prec):
        return _apply(_mpf_matrix(embed(m)), as_complex(tau))


def _mpf_matrix(E):
    """A 2x2 matrix over Q(sqrt a) as mpfs at the ambient precision."""
    return [[to_mpf(x) for x in row] for row in E]


def _apply(N, tau):
    """N (tau, 1)^t for a numeric 2x2 matrix N."""
    return (N[0][0] * tau + N[0][1], N[1][0] * tau + N[1][1])


class PeriodLattice:
    """The four generator images in C^2, a lattice of real rank 4.

    Column j of the real period matrix P is a 4x4 matrix in tau, of
    determinant +-(Im tau)^2, times the row (E00, E10, E01, E11) of the
    embedded generator j, so |det P| = |det S| (Im tau)^2 for the stacked
    matrix S of those rows.  det S = -4ab det(basis)
    (`OrderLattice.embedding_det`) is nonzero for every lattice, and
    Im tau > 0 for every UpperHalfPoint, so the rank is always 4, and
    no check needs the vectors themselves.
    """

    def __init__(self, order, tau):
        if not isinstance(tau, UpperHalfPoint):
            tau = UpperHalfPoint(tau)
        self.order = order
        self.tau = tau


def riemann_form(rho, m1, m2):
    """E(m1, m2) = trd(rho * m1 * conj(m2)), an exact rational."""
    return (rho * m1 * m2.conj()).trd()


def _form_numerators(rho, order):
    """(c, M): E(g_i, g_j) = c_ij / M in integers, from the integer form.

    Over (1, x', y', x'y') the generators are g_i = B'_i / D and rho is
    r / den(r) (`orders._integer_form`), so E(g_i, g_j) = trd(rho g_i
    conj(g_j)) is the trace pairing of r B'_i with B'_j over den(r) D^2.
    """
    a, b, D, B = order.form
    _, _, rd, (r,) = _integer_form(order.params, [rho.coords()])
    return _gram(a, b, [_product(r, g, a, b) for g in B], B), rd * D * D


def _forms(order, c, M, scale):
    """(order, G, (G R(e)^T for e = x, y, xy), F, det G) for G = scale c / M.

    G is kept as `Fraction`s for the report; the products G R(e)^T are
    integer matrices over their common denominator F.
    """
    num = [[scale.numerator * x for x in row] for row in c]
    den = scale.denominator * M
    common = math.gcd(den, *(x for row in num for x in row))
    num, den = [[x // common for x in row] for row in num], den // common
    mats, rden = order.right_multiplication
    products = tuple([[sum(g * r for g, r in zip(row, col)) for col in N]
                      for row in num] for N in mats[1:])
    return (order, [[Fraction(x, den) for x in row] for row in num],
            products, den * rden, Fraction(cofactor_det(num), den ** 4))


class PolarizationData:
    """A pure quaternion rho with rho^2 < 0, and the integrality scale.

    The Gram matrix G of scale * E on an order basis, the products
    G R(e)^T and det G are kept for the last order they were asked for,
    so a suite over many taus forms them once.
    """

    __slots__ = ("rho", "scale", "_forms")

    def __init__(self, rho, scale=Fraction(1)):
        if rho.k != 0:
            raise ValueError("rho must be a pure quaternion (conj(rho) = -rho)")
        if rho.nrd() <= 0:
            raise ValueError("rho^2 must be negative")
        self.rho = rho
        self.scale = Fraction(scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self._forms = (None,)

    @classmethod
    def with_minimal_scale(cls, rho, order):
        """Scale = lcm of the denominators of E on the order basis pairs:
        M / gcd(M, c) for E = c / M (`_form_numerators`)."""
        c, M = _form_numerators(rho, order)
        pol = cls(rho, M // math.gcd(M, *(x for row in c for x in row)))
        pol._forms = _forms(order, c, M, pol.scale)
        return pol

    def complex_forms(self, order):
        """(G, (G R(x)^T, G R(y)^T, G R(xy)^T), F, det G) for the Gram
        matrix G of scale * E on the pairs of order basis elements (exact):
        the products are integer matrices over their denominator F > 0."""
        if self._forms[0] is not order:
            self._forms = _forms(order, *_form_numerators(self.rho, order),
                                 self.scale)
        return self._forms[1:]


def default_rho(params):
    """rho = y: works in every algebra of the normal form (y^2 = b < 0)."""
    return QuatElement(params, 0, 0, 1, 0)


def _k_tau(tau, params):
    """Integers (l, m, n, K), K > 0, with k_tau = sqrt(a) (l x + n xy) + m y
    over K for the exact value s + i t of tau: embed(k_tau) = K_tau =
    [[s, -|tau|^2], [1, -s]] / t has K_tau (tau, 1)^t = i (tau, 1)^t, so
    right multiplication by k_tau is the complex structure at tau.

    That is l = s / (a t), m = (1 - r) / 2t and n = -(1 + r) / 2at for
    r = |tau|^2 / b; with s = S/e, t = T/e, a = a1/a2, b = b1/b2 and
    N = S^2 + T^2 they share the denominator K = -2 a1 b1 T e.  A tau
    with a part outside Q raises ValueError.
    """
    tau = QuadComplex.of(tau)
    if tau.rb or tau.ib:
        raise ValueError("k_tau needs a tau with rational parts")
    S, T, e = tau.ra, tau.ia, tau.d
    a1, a2 = params.a.numerator, params.a.denominator
    b1, b2 = params.b.numerator, params.b.denominator
    N = S * S + T * T
    return (-2 * S * a2 * e * b1, (N * b2 - e * e * b1) * a1,
            (N * b2 + e * e * b1) * a2, -2 * a1 * b1 * T * e)


def riemann_conditions_check(lattice, pol):
    """The three Riemann conditions for scale*E at the lattice's tau, exact.

    (i)  scale*E is integral on all pairs of order basis elements;
    (ii) E(J m1, J m2) = E(m1, m2) for J, right multiplication by k_tau:
         as E(m1 k, m2 k) = nrd(k) E(m1, m2), iff nrd(k_tau) = 1, and then
         S = G R(k_tau)^T, the Gram matrix of E(u, Jv), is symmetric;
    (iii) H(u, v) = E(u, Jv) + i E(u, v) is positive definite: the leading
          minors of S, sign tests in Q(sqrt a), are positive (Sylvester);
          the last is det S = det G nrd(k_tau)^2.

    S is an integer matrix over Z[sqrt(R)] (R = num(a) den(a)) over one
    denominator, from the integer forms of `_k_tau` and `complex_forms`.
    Returns per-condition verdicts and witnesses; minors print exactly
    rounded to 10 digits.  A tau with a part outside Q, such as an exact
    CM point, raises ValueError.
    """
    order = lattice.order
    a, b = order.params.a, order.params.b
    report = {"conditions": {}, "all_pass": True}

    values, (gx, gy, gxy), F, det_g = pol.complex_forms(order)
    bad = [(i, j) for i in range(4) for j in range(4)
           if values[i][j].denominator != 1]
    report["conditions"]["integral"] = {
        "pass": not bad,
        "witness": None if not bad else
        {"pair": bad[0], "value": str(values[bad[0][0]][bad[0][1]])},
        "gram": [[str(v) for v in row] for row in values],
    }

    l, m, n, K = _k_tau(lattice.tau.tau, order.params)
    # sqrt(a) = sqrt(R) / den(a)
    q, R = a.denominator, a.numerator * a.denominator
    S = [[_complex(q * m * vy, l * vx + n * vxy, 0, 0, K * F * q, a, R)
          for vx, vy, vxy in zip(*rows)] for rows in zip(gx, gy, gxy)]
    # nrd(k_tau) = a^2 (b n^2 - l^2) - b m^2 over K^2
    a1, b1, b2 = a.numerator, b.numerator, b.denominator
    nrd = Fraction(a1 * a1 * (b1 * n * n - b2 * l * l) - b1 * q * q * m * m,
                   q * q * b2 * K * K)
    asym = next((S[i][j] - S[j][i] for i in range(4) for j in range(i)
                 if S[i][j] != S[j][i]), 0)
    report["conditions"]["j_compatible"] = {
        "pass": nrd == 1 and asym == 0,
        "witness": {"residual": str(nrd - 1)},
    }

    minors = [cofactor_det([row[:k] for row in S[:k]]) for k in (1, 2, 3)]
    minors.append(QuadExt._over(det_g * nrd * nrd, Fraction(0), a))
    report["conditions"]["positive_definite"] = {
        "pass": asym == 0 and all(d.sign() > 0 for d in minors),
        "witness": {"leading_minors": [decimal_str(d, 10) for d in minors],
                    "hermitian_residual": str(asym)},
    }

    report["all_pass"] = all(c["pass"] for c in report["conditions"].values())
    return report


# ---------------------------------------------------------------------------
# Moebius action and isogenies


def _norm_one(gamma):
    if gamma.nrd() != 1:
        raise ValueError("gamma must have reduced norm 1")
    return gamma


def moebius_act(gamma, tau, prec=DEFAULT_PRECISION):
    """(a tau + b)/(c tau + d) for the embedded matrix of a norm-1 unit."""
    import mpmath
    with mpmath.workprec(prec):
        num, den = complex_structure(_norm_one(gamma), tau, prec)
        return num / den


def isogeny_lattice_check(gamma, tau, order):
    """Lattice identity O_{B, gamma(tau)} = 1/(c tau + d) * O_{B, tau}.

    embed(gamma) (tau, 1)^t = j (gamma(tau), 1)^t for j = c tau + d, so
    the lattice at gamma(tau) is (O gamma)_tau / j: the identity holds at
    every tau iff O gamma = O.  R(gamma) = sum of gamma_e R(e)
    (`OrderLattice.right_multiplication`) has det nrd(gamma)^2 = 1, so
    O gamma = O iff R(gamma) is integral: with gamma_e = c_e / e and
    R(e) = N_e / den in integers, iff e den divides sum of c_e N_e.
    """
    coords = _norm_one(gamma).coords()
    e = math.lcm(*(c.denominator for c in coords))
    cs = [c.numerator * (e // c.denominator) for c in coords]
    mats, den = order.right_multiplication
    return all(sum(c * N[i][k] for c, N in zip(cs, mats)) % (e * den) == 0
               for i in range(4) for k in range(4))


# ---------------------------------------------------------------------------
# the group of the family and its factor of automorphy


class FamilyGroupElement:
    """(lambda, gamma): the block matrix [[id, lambda], [0, gamma]].

    lambda runs over the order, gamma over norm-1 units.  The product of
    the block matrices gives the group law
    (l1, g1) * (l2, g2) = (l2 + l1 g2, g1 g2).
    """

    __slots__ = ("lam", "gamma")

    def __init__(self, lam, gamma):
        self.lam = lam
        self.gamma = _norm_one(gamma)

    @classmethod
    def identity(cls, params):
        return cls(QuatElement(params, 0), QuatElement(params, 1))

    def __mul__(self, other):
        return FamilyGroupElement(other.lam + self.lam * other.gamma,
                                  self.gamma * other.gamma)

    def inverse(self):
        gi = self.gamma.inverse()
        return FamilyGroupElement(-(self.lam * gi), gi)

    def act(self, z, tau, prec=DEFAULT_PRECISION):
        """((z + lambda_tau)/(c tau + d), gamma(tau))."""
        import mpmath
        with mpmath.workprec(prec):
            tau = as_complex(tau)
            num, j = complex_structure(self.gamma, tau, prec)
            lt = complex_structure(self.lam, tau, prec)
            return (tuple((as_complex(w) + v) / j for w, v in zip(z, lt)),
                    num / j)


def automorphy_factor(g, z, tau, prec=DEFAULT_PRECISION):
    """The 3x3 factor defining the tangent bundle of the total space.

    This is the derivative of the projective action of the block matrix
    [[id, lambda], [0, gamma]] at (z, tau):

        1/j * [[id_2, (l_1 - c (z + lambda_tau)/j)], [0, 1/j]]

    with j = c tau + d and l_1 the first column of the embedded lambda.
    It is upper triangular, with exact zeros below the diagonal, so its
    determinant is j^-4.
    """
    import mpmath
    with mpmath.workprec(prec):
        tau = as_complex(tau)
        L = _mpf_matrix(embed(g.lam))
        c, d = _mpf_matrix(embed(g.gamma))[1]
        j = c * tau + d
        lt = _apply(L, tau)
        A = mpmath.zeros(3, 3)
        A[0, 0] = 1 / j
        A[1, 1] = 1 / j
        A[2, 2] = 1 / j ** 2
        A[0, 2] = (L[0][0] - c * (as_complex(z[0]) + lt[0]) / j) / j
        A[1, 2] = (L[1][0] - c * (as_complex(z[1]) + lt[1]) / j) / j
        return A


def cocycle_check(g1, g2, z, tau):
    """a(g1 g2, x) = a(g1, g2 x) * a(g2, x) at x = (z, tau), exactly.

    With embed(gamma) = [[A, B], [C, D]], L = embed(lambda) and
    j = C tau + D, a(g, x) = (1/j) [[1, 0, w_1], [0, 1, w_2], [0, 0, 1/j]]
    where j w_k = (L_k0 D - C L_k1) - C z_k (`automorphy_factor`).  For
    j1' = j(g1) at gamma2(tau), j1' j2 = C1 (A2 tau + B2) + D1 j2, and the
    identity holds iff j1' j2 = j12 and, for k = 1, 2,

        j2 (j12 w_k(g12)) = j1' j2 (j2 w_k(g2)) + (L1_k0 D1 - C1 L1_k1) j2
                            - C1 (z_k + L2_k0 tau + L2_k1),

    equalities over Q(sqrt a)(i) without division, decided on the exact
    values of z and tau (dyadic for an mpc).
    """
    tau = QuadComplex.of(tau)
    z = [QuadComplex.of(w) for w in z]
    (G1, L1), (G2, L2), (G12, L12) = ((embed(g.gamma), embed(g.lam))
                                      for g in (g1, g2, g1 * g2))

    def jw(G, L, k):
        """j w_k for the embeddings G of gamma and L of lambda."""
        (_, _), (C, D) = G
        return (L[k][0] * D - C * L[k][1]) - C * z[k]

    (A2, B2), (C2, D2) = G2
    (_, _), (C1, D1) = G1
    j2 = C2 * tau + D2
    j12 = G12[1][0] * tau + G12[1][1]
    j1j2 = C1 * (A2 * tau + B2) + D1 * j2
    return j1j2 == j12 and all(
        j2 * jw(G12, L12, k) == j1j2 * jw(G2, L2, k)
        + (L1[k][0] * D1 - C1 * L1[k][1]) * j2
        - C1 * (z[k] + L2[k][0] * tau + L2[k][1]) for k in (0, 1))


def canonical_degree_check(g, z, tau):
    """det a(g, (z, tau)) = (c tau + d)^-4: the canonical bundle identity.

    a(g, x) is upper triangular with diagonal (1/j, 1/j, 1/j^2)
    (`automorphy_factor`), so det a = j^-4 wherever j = c tau + d != 0,
    and nrd(gamma) = 1 forces (c, d) != (0, 0): this cannot fail, and the
    unit test of the factor's triangular shape is what guards the identity.
    z and tau are not read.
    """
    return not all(x.is_zero() for x in embed(g.gamma)[1])


# ---------------------------------------------------------------------------
# randomized property suites (used by the CLI `suite` command and tests)


def random_order_element(order, rng):
    return order.element_from([rng.randint(-3, 3) for _ in range(4)])


def random_complex(rng, im=(-2, 2)):
    """Uniform doubles in [-2, 2] and im, as an exact QuadComplex."""
    return QuadComplex(rng.uniform(-2, 2), rng.uniform(*im))


def random_tau(rng):
    return random_complex(rng, (0.2, 3.0))


def random_group_element(order, units, rng):
    lam = random_order_element(order, rng)
    gamma = rng.choice([u.element for u in units])
    return FamilyGroupElement(lam, gamma)
