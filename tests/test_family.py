import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from fakeelliptic import family
from fakeelliptic.family import (FamilyGroupElement,
                                 PeriodLattice, PolarizationData,
                                 automorphy_factor,
                                 canonical_degree_check, cocycle_check,
                                 complex_structure, default_rho,
                                 isogeny_lattice_check, moebius_act,
                                 random_group_element, random_order_element,
                                 random_tau, riemann_conditions_check,
                                 riemann_form)
from fakeelliptic import AlgebraParams, Config, saturate, standard_order
from fakeelliptic.config import DEFAULT_TOLERANCE
from fakeelliptic.exactlinalg import (UpperHalfPoint, as_complex, exact_det,
                                      to_mpf)
from fakeelliptic.orders import enumerate_units
from fakeelliptic.quaternions import QuatElement
from oracles import (IDENTITY_TOL, automorphy_factor_fresh,
                     canonical_residual_fresh, cocycle_residual_fresh,
                     fiber_system_numeric, isogeny_deviation_fresh,
                     laplace_det, numeric_nullspace, period_rank_svd,
                     period_vectors, real_period_matrix,
                     reduced_discriminant_fraction, riemann_conditions_fresh,
                     riemann_form_by_matrices, stacked_embedding_det)

I = mpmath.mpc(0, 1)
EPS = mpmath.mpf(10) ** -30


def test_upper_half_point_rejects_lower_plane():
    UpperHalfPoint(mpmath.mpc(0, 1))
    with pytest.raises(ValueError):
        UpperHalfPoint(mpmath.mpc(0, -1))
    with pytest.raises(ValueError):
        UpperHalfPoint(mpmath.mpc(2, 0))


# the CM point (sqrt 3 + i) / 2 of (3, -1), written exactly
CM_TAU = family.QuadComplex(family.QuadExt(0, Fraction(1, 2), 3),
                            Fraction(1, 2))


def test_upper_half_point_decides_an_exact_cm_tau():
    assert UpperHalfPoint(CM_TAU).tau == CM_TAU
    # Im = sqrt 3 / 2 - 1 < 0 and Im = 1 - sqrt 3 / 2 > 0, by sign tests
    root = family.QuadExt(0, Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="upper half plane"):
        UpperHalfPoint(family.QuadComplex(0, root - 1))
    assert UpperHalfPoint(family.QuadComplex(0, 1 - root)).tau.imag == 1 - root


def test_an_exact_cm_tau_rounds_to_an_mpc():
    # the QuadExt real part reaches mpmath through to_mpf
    with mp.workprec(160):
        want = mpmath.mpc(mpmath.sqrt(3) / 2, 0.5)
        assert mpmath.mpc(CM_TAU) == as_complex(CM_TAU) == want
        assert as_complex(UpperHalfPoint(CM_TAU)) == want
    assert repr(UpperHalfPoint(CM_TAU)) == (
        "UpperHalfPoint((0.866025403784 + 0.5j))")


def test_k_tau_refuses_a_tau_with_irrational_parts(params, max_order):
    # it read only the rational numerators, so (sqrt 3 + i)/2 gave k_tau(i/2)
    with pytest.raises(ValueError, match="rational parts"):
        family._k_tau(CM_TAU, params)
    pol = PolarizationData.with_minimal_scale(default_rho(params), max_order)
    with pytest.raises(ValueError, match="rational parts"):
        riemann_conditions_check(PeriodLattice(max_order, CM_TAU), pol)
    half_i = family.QuadComplex(0, Fraction(1, 2))
    assert riemann_conditions_check(PeriodLattice(max_order, half_i),
                                    pol)["all_pass"]


def test_complex_structure_pinned(params):
    one = QuatElement(params, 1)
    x = QuatElement(params, 0, 1)
    y = QuatElement(params, 0, 0, 1)
    v = complex_structure(one, I, 128)
    assert abs(v[0] - I) < EPS and abs(v[1] - 1) < EPS
    v = complex_structure(y, I, 128)
    assert abs(v[0] + 1) < EPS and abs(v[1] - I) < EPS
    v = complex_structure(x, I, 128)
    with mp.workprec(160):
        s3 = mpmath.sqrt(3)
        assert abs(v[0] - s3 * I) < EPS and abs(v[1] + s3) < EPS


def test_period_lattice_rank_four(max_order):
    rng = random.Random(1)
    for _ in range(20):
        PeriodLattice(max_order, random_tau(rng))


@pytest.mark.parametrize("ab", [(3, -1), (3, -7), (2, -5), (7, -57),
                                (13, -10)])
@pytest.mark.parametrize("maximal", [False, True])
def test_exact_rank_condition_matches_svd_oracle(ab, maximal):
    params = AlgebraParams(*ab)
    order = standard_order(params)
    if maximal:
        order = saturate(order)
    disc = reduced_discriminant_fraction(order)
    assert disc == 4 * abs(params.a * params.b * exact_det(order.basis))
    det_s = order.embedding_det
    assert det_s == stacked_embedding_det(order) and abs(det_s) == disc
    taus = (I, mpmath.mpc(0.3, 2.5), mpmath.mpc(-1.7, 0.01))
    for prec in (64, 128, 256):
        with mp.workprec(prec):
            tol = to_mpf(DEFAULT_TOLERANCE)
            for tau in taus:
                lattice, M = fiber_system_numeric(order, tau, prec)
                assert period_rank_svd(lattice, prec)
                assert numeric_nullspace(M, tol, prec) == []
                P = real_period_matrix(period_vectors(lattice, prec))
                det_p = abs(mpmath.det(P))
                assert (abs(det_p - disc * lattice.tau.tau.imag ** 2)
                        < mpmath.mpf(2) ** -(prec // 2))


def test_riemann_form_pinned(params):
    rho = default_rho(params)
    one = QuatElement(params, 1)
    x = QuatElement(params, 0, 1)
    assert riemann_form(rho, one, rho) == 2
    assert riemann_form(rho, one, x) == 0
    rng = random.Random(2)
    for _ in range(10):
        m = QuatElement(params, *[rng.randint(-4, 4) for _ in range(4)])
        assert riemann_form(rho, m, m) == 0


def test_riemann_form_alternating_and_matches_oracle(params):
    rho = default_rho(params)
    rng = random.Random(4)
    for _ in range(15):
        m1 = QuatElement(params, *[rng.randint(-3, 3) for _ in range(4)])
        m2 = QuatElement(params, *[rng.randint(-3, 3) for _ in range(4)])
        e = riemann_form(rho, m1, m2)
        assert e == -riemann_form(rho, m2, m1)
        assert e == riemann_form_by_matrices(rho, m1, m2)


def test_riemann_gram_on_maximal_order(params, max_order):
    rho = default_rho(params)
    gens = max_order.generators()
    gram = [[riemann_form(rho, gi, gj) for gj in gens] for gi in gens]
    assert gram == [[0, 0, 2, 1], [0, 0, 0, 3],
                    [-2, 0, 0, -1], [-1, -3, 1, 0]]
    # nondegenerate: exact determinant 36, the square of the Pfaffian
    assert laplace_det([[Fraction(v) for v in row] for row in gram]) == 36


def test_riemann_form_unit_invariance(params, max_order):
    rho = default_rho(params)
    units = [u.element for u in enumerate_units(max_order, 1)]
    rng = random.Random(6)
    for _ in range(50):
        m1 = QuatElement(params, *[rng.randint(-3, 3) for _ in range(4)])
        m2 = QuatElement(params, *[rng.randint(-3, 3) for _ in range(4)])
        g = rng.choice(units)
        assert riemann_form(rho, m1 * g, m2 * g) == riemann_form(rho, m1, m2)


def test_polarization_validation(params):
    x = QuatElement(params, 0, 1)
    with pytest.raises(ValueError):
        PolarizationData(x)  # x^2 = 3 > 0
    with pytest.raises(ValueError):
        PolarizationData(QuatElement(params, 1, 0, 1))  # not pure
    with pytest.raises(ValueError):
        PolarizationData(default_rho(params), 0)


def test_minimal_scale_is_one(params, max_order):
    pol = PolarizationData.with_minimal_scale(default_rho(params), max_order)
    assert pol.scale == 1


def test_riemann_conditions_pass(params, max_order):
    pol = PolarizationData.with_minimal_scale(default_rho(params), max_order)
    lattice = PeriodLattice(max_order, mpmath.mpc(0, 1))
    report = riemann_conditions_check(lattice, pol)
    assert report["all_pass"]
    conds = report["conditions"]
    assert conds["integral"]["pass"]
    assert conds["j_compatible"]["pass"]
    assert conds["positive_definite"]["pass"]
    minors = conds["positive_definite"]["witness"]["leading_minors"]
    assert all(mpmath.mpf(v) > 0 for v in minors)
    rng = random.Random(8)
    for _ in range(5):
        lattice = PeriodLattice(max_order, random_tau(rng))
        assert riemann_conditions_check(lattice, pol)["all_pass"]


def test_riemann_integrality_fails_for_small_scale(params, max_order):
    pol = PolarizationData(default_rho(params), Fraction(1, 2))
    lattice = PeriodLattice(max_order, mpmath.mpc(0, 1))
    report = riemann_conditions_check(lattice, pol)
    assert not report["all_pass"]
    cond = report["conditions"]["integral"]
    assert not cond["pass"]
    assert cond["witness"]["pair"] is not None


def test_moebius_pinned(params):
    one = QuatElement(params, 1)
    y = QuatElement(params, 0, 0, 1)
    tau = mpmath.mpc(0.3, 1.7)
    assert abs(moebius_act(one, tau, 128) - tau) < EPS
    assert abs(moebius_act(y, I, 128) - I) < EPS
    assert abs(moebius_act(y, mpmath.mpc(0, 2), 128) - mpmath.mpc(0, 0.5)) < EPS
    with pytest.raises(ValueError):
        moebius_act(QuatElement(params, 2), I, 128)  # nrd 4


def test_moebius_group_action(params, max_order):
    units = [u.element for u in enumerate_units(max_order, 1)]
    rng = random.Random(10)
    for _ in range(20):
        g1, g2 = rng.choice(units), rng.choice(units)
        tau = random_tau(rng)
        lhs = moebius_act(g1, moebius_act(g2, tau, 128), 128)
        rhs = moebius_act(g1 * g2, tau, 128)
        assert abs(lhs - rhs) < mpmath.mpf(10) ** -25


def test_isogeny_lattice_pinned(params, max_order):
    one = QuatElement(params, 1)
    y = QuatElement(params, 0, 0, 1)
    assert isogeny_lattice_check(one, I, max_order)
    # tau = i is the fixed point of y: the lattice returns to itself scaled by 1/i
    assert isogeny_lattice_check(y, I, max_order)
    # nrd 1, but 3/5 + 4/5 y is no element of the order
    assert not isogeny_lattice_check(QuatElement(params, Fraction(3, 5), 0,
                                                 Fraction(4, 5), 0),
                                     I, max_order)
    with pytest.raises(ValueError):
        isogeny_lattice_check(QuatElement(params, 2), I, max_order)


def test_isogeny_lattice_random(params, max_order):
    units = [u.element for u in enumerate_units(max_order, 1)]
    rng = random.Random(12)
    for _ in range(10):
        g = rng.choice(units)
        assert isogeny_lattice_check(g, random_tau(rng), max_order)


def test_group_element_validation(params):
    with pytest.raises(ValueError):
        FamilyGroupElement(QuatElement(params, 0), QuatElement(params, 2))


def test_group_law_matches_action(params, max_order):
    units = enumerate_units(max_order, 1)
    rng = random.Random(14)
    for _ in range(10):
        g1 = random_group_element(max_order, units, rng)
        g2 = random_group_element(max_order, units, rng)
        z = (mpmath.mpc(0.2, 0.1), mpmath.mpc(-0.4, 0.3))
        tau = random_tau(rng)
        z12, t12 = (g1 * g2).act(z, tau, 128)
        zz, tt = g2.act(z, tau, 128)
        z1, t1 = g1.act(zz, tt, 128)
        assert abs(t12 - t1) < mpmath.mpf(10) ** -25
        assert abs(z12[0] - z1[0]) < mpmath.mpf(10) ** -25
        assert abs(z12[1] - z1[1]) < mpmath.mpf(10) ** -25
        # inverse composes to the identity action
        gi = g1.inverse()
        zb, tb = gi.act(*g1.act(z, tau, 128), 128)
        assert abs(tb - tau) < mpmath.mpf(10) ** -25
        assert abs(zb[0] - z[0]) < mpmath.mpf(10) ** -25


def test_automorphy_factor_identity(params):
    e = FamilyGroupElement.identity(params)
    z = (mpmath.mpc(0.3, 0.2), mpmath.mpc(-0.1, 0.5))
    A = automorphy_factor(e, z, mpmath.mpc(0.1, 1.1), 128)
    assert mpmath.mnorm(A - mpmath.eye(3)) < EPS


def test_automorphy_factor_rotation_pinned(params):
    # lambda = 0, gamma = y at tau = i: j = i, so the diagonal is
    # (1/i, 1/i, -1) and the last column reduces to -z/i^2 = z
    y = QuatElement(params, 0, 0, 1)
    g = FamilyGroupElement(QuatElement(params, 0), y)
    z = (mpmath.mpc(0.7, -0.2), mpmath.mpc(0.1, 0.4))
    A = automorphy_factor(g, z, I, 128)
    assert abs(A[0, 0] + I) < EPS
    assert abs(A[1, 1] + I) < EPS
    assert abs(A[2, 2] + 1) < EPS
    assert abs(A[0, 2] - z[0]) < EPS
    assert abs(A[1, 2] - z[1]) < EPS
    for i, j in ((0, 1), (1, 0), (2, 0), (2, 1)):
        assert abs(A[i, j]) < EPS


def test_automorphy_determinant(params, max_order):
    units = enumerate_units(max_order, 1)
    rng = random.Random(16)
    for _ in range(10):
        g = random_group_element(max_order, units, rng)
        z = (mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        assert canonical_degree_check(g, z, random_tau(rng))


def test_cocycle_trivial_cases(params, max_order):
    units = enumerate_units(max_order, 1)
    rng = random.Random(18)
    e = FamilyGroupElement.identity(params)
    g = random_group_element(max_order, units, rng)
    z = (mpmath.mpc(0.2, 0.3), mpmath.mpc(0.4, -0.1))
    tau = mpmath.mpc(0.5, 1.3)
    assert cocycle_check(g, e, z, tau)
    assert cocycle_check(e, g, z, tau)
    assert cocycle_check(g, g.inverse(), z, tau)


def test_cocycle_random_pairs(params, max_order):
    units = enumerate_units(max_order, 1)
    rng = random.Random(20)
    for _ in range(30):
        g1 = random_group_element(max_order, units, rng)
        g2 = random_group_element(max_order, units, rng)
        z = (mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        tau = random_tau(rng)
        assert cocycle_check(g1, g2, z, tau)
        assert canonical_degree_check(g1, z, tau)


def test_random_order_element_lies_in_order(max_order):
    rng = random.Random(22)
    for _ in range(10):
        q = random_order_element(max_order, rng)
        assert max_order.contains(q)


@pytest.mark.parametrize("ab", [(3, -1), (3, -7), (7, -57), (13, -10)])
@pytest.mark.parametrize("prec", [64, 128, 256])
def test_checks_match_fresh_recomputation(ab, prec):
    # the cocycle is decided exactly; the oracle recomputes the factors
    # numerically per call, and its residual stays at rounding level
    cfg = Config(a=ab[0], b=ab[1], precision=prec)
    order = cfg.build_order()
    units = enumerate_units(order, 1)
    rng = random.Random(sum(ab) + prec)
    with mp.workprec(prec):
        for _ in range(2):
            g1 = random_group_element(order, units, rng)
            g2 = random_group_element(order, units, rng)
            tau = random_tau(rng)
            z = (mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            assert cocycle_check(g1, g2, z, tau)
            res = cocycle_residual_fresh(g1, g2, z, tau, prec)
            assert res < mpmath.mpf(2) ** (8 - prec)
            A = automorphy_factor(g1, z, tau, prec)
            assert A == automorphy_factor_fresh(g1, z, tau, prec)


def test_exact_cocycle_detects_a_wrong_group_law(params, max_order,
                                                 monkeypatch):
    # rational, non-dyadic z and tau; the identity fails once the
    # translation part l1 gamma2 of the product is dropped
    units = enumerate_units(max_order, 1)
    rng = random.Random(26)
    z = (family.QuadComplex(Fraction(1, 3), Fraction(1, 5)),
         family.QuadComplex(Fraction(-1, 2), 2))
    tau = family.QuadComplex(Fraction(1, 7), Fraction(3, 2))
    pairs = [(random_group_element(max_order, units, rng),
              random_group_element(max_order, units, rng)) for _ in range(5)]
    assert all(cocycle_check(g1, g2, z, tau) for g1, g2 in pairs)
    assert sum(not g1.lam.is_zero() for g1, _ in pairs) >= 3
    monkeypatch.setattr(FamilyGroupElement, "__mul__", lambda g, h:
                        FamilyGroupElement(h.lam, g.gamma * h.gamma))
    assert not any(cocycle_check(g1, g2, z, tau) for g1, g2 in pairs
                   if not g1.lam.is_zero())


def test_exact_cocycle_sees_z_move_by_two_to_the_minus_60(max_order,
                                                         monkeypatch):
    # a group law whose product translates by lambda + 2^-60: its point
    # z + lambda_tau moves by 2^-60 (tau, 1), and the identity fails by
    # that much, below what a double comparison resolves
    units = enumerate_units(max_order, 1)
    rng = random.Random(27)
    cases = [(random_group_element(max_order, units, rng),
              random_group_element(max_order, units, rng),
              (family.random_complex(rng), family.random_complex(rng)),
              random_tau(rng)) for _ in range(5)]
    assert all(cocycle_check(*case) for case in cases)
    law, eps = FamilyGroupElement.__mul__, Fraction(1, 2 ** 60)
    monkeypatch.setattr(FamilyGroupElement, "__mul__", lambda g, h:
                        FamilyGroupElement(law(g, h).lam + eps,
                                           g.gamma * h.gamma))
    assert not any(cocycle_check(*case) for case in cases)


def test_exact_riemann_check_sees_tau_move_by_two_to_the_minus_60(
        params, max_order, monkeypatch):
    # k_tau with its xy coordinate read at tau + 2^-60 i: nrd(k_tau) = 1
    # and the symmetry of S fail by about 2^-60 (2^-120 at |tau| = 1)
    pol = PolarizationData.with_minimal_scale(default_rho(params), max_order)
    rng = random.Random(28)
    taus = [family.QuadComplex(0, 1)] + [random_tau(rng) for _ in range(3)]
    assert all(riemann_conditions_check(PeriodLattice(max_order, tau), pol)
               ["all_pass"] for tau in taus)
    k_tau, step = family._k_tau, family.QuadComplex(0, Fraction(1, 2 ** 60))

    def mixed(tau, params):
        l, m, _, k = k_tau(tau, params)
        _, _, n, k_moved = k_tau(tau + step, params)
        return l * k_moved, m * k_moved, n * k, k * k_moved
    monkeypatch.setattr(family, "_k_tau", mixed)
    for tau in taus:
        report = riemann_conditions_check(PeriodLattice(max_order, tau), pol)
        cond = report["conditions"]["j_compatible"]
        assert not cond["pass"] and not report["all_pass"]
        assert cond["witness"]["residual"] != "0"


EXACT_ALGEBRAS = [(3, -1), (3, -7), (7, -57), (13, -10), (2, -5)]


def _off_order_units(params):
    """Elements k + m y of reduced norm 1 with trd = 2k not integral, so
    in no order: k^2 + |b| m^2 = 1 at the rational point t = 1/2."""
    nb = -params.b
    return [QuatElement(params, s * (4 - nb) / (4 + nb), 0, 4 / (4 + nb), 0)
            for s in (1, -1)]


@pytest.mark.parametrize("ab", EXACT_ALGEBRAS)
@pytest.mark.parametrize("prec", [16, 24, 64, 256])
def test_exact_riemann_verdicts_match_the_numeric_oracle(ab, prec):
    # the oracle inverts P at 256 bits and compares residuals with 1e-20;
    # rho = -y makes E(u, Ju) negative, scale 1/2 makes E non-integral
    cfg = Config(a=ab[0], b=ab[1], precision=prec)
    order = cfg.build_order()
    y = default_rho(order.params)
    base = cfg.polarization(order)
    pols = [base, PolarizationData(-y, base.scale),
            PolarizationData(y, base.scale / 2)]
    rng = random.Random(sum(ab) * prec)
    verdicts = set()
    for tau in (I, mpmath.mpc(-1.62, 0.28)) + tuple(random_tau(rng)
                                                   for _ in range(2)):
        with mp.workprec(prec):
            tau = mpmath.mpc(tau)  # the check sees tau rounded to prec bits
        for pol in pols:
            got = riemann_conditions_check(PeriodLattice(order, tau), pol)
            want = riemann_conditions_fresh(order, pol.rho, pol.scale, tau,
                                            256, DEFAULT_TOLERANCE)
            flags = {k: v["pass"] for k, v in got["conditions"].items()}
            assert flags == {k: v["pass"]
                             for k, v in want["conditions"].items()}
            assert got["all_pass"] == want["all_pass"]
            assert got["conditions"]["j_compatible"]["witness"] == {
                "residual": "0"}
            verdicts.add(tuple(flags.values()))
    assert {(True, True, True), (True, True, False)} <= verdicts


@pytest.mark.parametrize("ab", EXACT_ALGEBRAS)
@pytest.mark.parametrize("prec", [16, 64, 256])
def test_exact_isogeny_verdicts_match_the_numeric_oracle(ab, prec):
    cfg = Config(a=ab[0], b=ab[1], precision=prec)
    order = cfg.build_order()
    rng = random.Random(sum(ab) + prec)
    units = enumerate_units(order, 1)
    gammas = [u.element for u in rng.sample(units, min(3, len(units)))]
    gammas += _off_order_units(order.params)
    with mp.workprec(256):
        small = mpmath.mpf(2) ** -64
    for gamma in gammas:
        with mp.workprec(prec):
            tau = random_tau(rng)
        dev = isogeny_deviation_fresh(gamma, tau, order, 256)
        assert isogeny_lattice_check(gamma, tau, order) == (dev < small)
        assert (dev < small) == order.contains(gamma)


@pytest.mark.parametrize("ab", EXACT_ALGEBRAS)
def test_complex_structure_is_right_multiplication_by_k_tau(ab):
    # J = P^-1 J_std P on order coordinates is R(k_tau)^T, det S = det G
    cfg = Config(a=ab[0], b=ab[1])
    order = cfg.build_order()
    pol = cfg.polarization(order)
    # G R(e)^T and R(e) are integer matrices over the denominators F, den
    _, (gx, gy, gxy), F, det_g = pol.complex_forms(order)
    mats, den = order.right_multiplication
    assert det_g == laplace_det(pol.complex_forms(order)[0]) and det_g > 0
    J_std = mpmath.matrix([[0, -1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, -1], [0, 0, 1, 0]])
    a, b = order.params.a, order.params.b
    for tau in (I, mpmath.mpc(0.3, 2.5), mpmath.mpc(-1.62, 0.28),
                mpmath.mpc(-1.7, 0.01)):
        *lmn, k_den = family._k_tau(tau, order.params)
        l, m, n = (Fraction(v, k_den) for v in lmn)
        # embed(k_tau) = K_tau is rational, with K^2 = -1 and det K = 1
        K = [[a * l, b * (m + a * n)], [m - a * n, -a * l]]
        assert [[sum(K[i][t] * K[t][j] for t in range(2)) for j in range(2)]
                for i in range(2)] == [[-1, 0], [0, -1]]
        assert a * a * (b * n * n - l * l) - b * m * m == 1  # nrd(k_tau)
        lattice = PeriodLattice(order, tau)
        with mp.workprec(256):
            s = mpmath.sqrt(to_mpf(a))
            R = mpmath.matrix([[s * (to_mpf(l) * rx + to_mpf(n) * rxy)
                                + to_mpf(m) * ry
                                for rx, ry, rxy in zip(*rows)]
                               for rows in zip(*mats[1:])]) / den
            P = real_period_matrix(period_vectors(lattice, 256))
            assert mpmath.mnorm(R.T - P ** -1 * J_std * P) < mpmath.mpf(2) ** -200
        S = [[family.QuadExt._over(m * vy / F, (l * vx + n * vxy) / F, a)
              for vx, vy, vxy in zip(*rows)] for rows in zip(gx, gy, gxy)]
        assert family.cofactor_det(S) == det_g
        report = riemann_conditions_check(lattice, pol)
        minors = report["conditions"]["positive_definite"]["witness"][
            "leading_minors"]
        assert len(minors) == 4 and mpmath.mpf(minors[3]) == det_g


def test_canonical_degree_rests_on_the_triangular_factor(params, max_order):
    # the check reads only j; the factor must be upper triangular with
    # diagonal (1/j, 1/j, 1/j^2), and det = j^-4 up to rounding
    units = enumerate_units(max_order, 1)
    rng = random.Random(24)
    for prec in (16, 53, 128):
        for _ in range(10):
            g = random_group_element(max_order, units, rng)
            z = (mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            tau = random_tau(rng)
            A = automorphy_factor(g, z, tau, prec)
            with mp.workprec(prec):
                j = complex_structure(g.gamma, tau, prec)[1]
                assert [A[1, 0], A[2, 0], A[2, 1], A[0, 1]] == [0, 0, 0, 0]
                assert A[0, 0] == A[1, 1] == 1 / j and A[2, 2] == 1 / j ** 2
            assert canonical_degree_check(g, z, tau)
            assert (canonical_residual_fresh(g, z, tau, 256)
                    < to_mpf(IDENTITY_TOL))


def test_polarization_gram_follows_the_order(params, std_order, max_order):
    pol = PolarizationData.with_minimal_scale(default_rho(params), max_order)
    for order in (max_order, std_order, max_order):
        gens = order.generators()
        assert pol.complex_forms(order)[0] == [
            [pol.scale * riemann_form(pol.rho, gi, gj) for gj in gens]
            for gi in gens]
