import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from fakeelliptic.family import (FamilyGroupElement,
                                 PeriodLattice, PolarizationData,
                                 UpperHalfPoint, automorphy_factor,
                                 canonical_degree_check, cocycle_check,
                                 complex_structure, default_rho,
                                 isogeny_lattice_check, moebius_act,
                                 random_group_element, random_order_element,
                                 random_tau, riemann_conditions_check,
                                 riemann_form)
from fakeelliptic import AlgebraParams, Config, saturate, standard_order
from fakeelliptic.exactlinalg import DEFAULT_TOLERANCE, exact_det, to_mpf
from fakeelliptic.orders import enumerate_units
from fakeelliptic.quaternions import QuatElement
from fakeelliptic.splitting import _fiber_system
from oracles import (automorphy_factor_fresh, canonical_residual_fresh,
                     cocycle_residual_fresh, isogeny_deviation_fresh,
                     laplace_det, numeric_nullspace, period_rank_svd,
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
        PeriodLattice(max_order, random_tau(rng), 128)


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
                lattice, M = _fiber_system(order, tau, prec)
                assert period_rank_svd(lattice, prec)
                assert numeric_nullspace(M, tol, prec) == []
                det_p = abs(mpmath.det(lattice.real_matrix()))
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
    lattice = PeriodLattice(max_order, mpmath.mpc(0, 1), 128)
    report = riemann_conditions_check(lattice, pol, 128)
    assert report["all_pass"]
    conds = report["conditions"]
    assert conds["integral"]["pass"]
    assert conds["j_compatible"]["pass"]
    assert conds["positive_definite"]["pass"]
    minors = conds["positive_definite"]["witness"]["leading_minors"]
    assert all(mpmath.mpf(v) > 0 for v in minors)
    rng = random.Random(8)
    for _ in range(5):
        lattice = PeriodLattice(max_order, random_tau(rng), 128)
        assert riemann_conditions_check(lattice, pol, 128)["all_pass"]


def test_riemann_integrality_fails_for_small_scale(params, max_order):
    pol = PolarizationData(default_rho(params), Fraction(1, 2))
    lattice = PeriodLattice(max_order, mpmath.mpc(0, 1), 128)
    report = riemann_conditions_check(lattice, pol, 128)
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
    assert isogeny_lattice_check(one, I, max_order, 128)
    # tau = i is the fixed point of y: the lattice returns to itself scaled by 1/i
    assert isogeny_lattice_check(y, I, max_order, 128)


def test_isogeny_lattice_random(params, max_order):
    units = [u.element for u in enumerate_units(max_order, 1)]
    rng = random.Random(12)
    for _ in range(10):
        g = rng.choice(units)
        assert isogeny_lattice_check(g, random_tau(rng), max_order, 128)


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
        assert canonical_degree_check(g, z, random_tau(rng), 128)


def test_cocycle_trivial_cases(params, max_order):
    units = enumerate_units(max_order, 1)
    rng = random.Random(18)
    e = FamilyGroupElement.identity(params)
    g = random_group_element(max_order, units, rng)
    z = (mpmath.mpc(0.2, 0.3), mpmath.mpc(0.4, -0.1))
    tau = mpmath.mpc(0.5, 1.3)
    assert cocycle_check(g, e, z, tau, 128)
    assert cocycle_check(e, g, z, tau, 128)
    assert cocycle_check(g, g.inverse(), z, tau, 128)


def test_cocycle_random_pairs(params, max_order):
    units = enumerate_units(max_order, 1)
    rng = random.Random(20)
    for _ in range(30):
        g1 = random_group_element(max_order, units, rng)
        g2 = random_group_element(max_order, units, rng)
        z = (mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        tau = random_tau(rng)
        assert cocycle_check(g1, g2, z, tau, 128)
        assert canonical_degree_check(g1, z, tau, 128)


def test_random_order_element_lies_in_order(max_order):
    rng = random.Random(22)
    for _ in range(10):
        q = random_order_element(max_order, rng)
        assert max_order.contains(q)


@pytest.mark.parametrize("ab", [(3, -1), (3, -7), (7, -57), (13, -10)])
@pytest.mark.parametrize("prec", [64, 128, 256])
def test_checks_match_fresh_recomputation(ab, prec):
    # the order keeps its embedding, the polarization its Gram matrix and
    # QuadExt its square roots; the oracles recompute all of it per call
    cfg = Config(a=ab[0], b=ab[1], precision=prec)
    order = cfg.build_order()
    pol = cfg.polarization(order)
    units = enumerate_units(order, 1)
    rng = random.Random(sum(ab) + prec)
    for tol in (cfg.tolerance, DEFAULT_TOLERANCE):
        for _ in range(2):
            tau = random_tau(rng)
            lattice = PeriodLattice(order, tau, prec)
            assert (riemann_conditions_check(lattice, pol, prec, tol)
                    == riemann_conditions_fresh(order, pol.rho, pol.scale,
                                                tau, prec, tol))
    with mp.workprec(prec):
        slack = 1 + mpmath.mpf(2) ** (8 - prec)
        for _ in range(2):
            # the verdicts flip exactly at the oracle's residuals
            gamma = rng.choice(units).element
            tau = random_tau(rng)
            dev = isogeny_deviation_fresh(gamma, tau, order, prec)
            assert isogeny_lattice_check(gamma, tau, order, prec, dev)
            if dev:
                assert not isogeny_lattice_check(gamma, tau, order, prec,
                                                 dev / slack)
            g1 = random_group_element(order, units, rng)
            g2 = random_group_element(order, units, rng)
            z = (mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                 mpmath.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            res = cocycle_residual_fresh(g1, g2, z, tau, prec)
            assert not cocycle_check(g1, g2, z, tau, prec, res)
            assert cocycle_check(g1, g2, z, tau, prec,
                                 res * slack if res else slack - 1)
            res = canonical_residual_fresh(g1, z, tau, prec)
            assert not canonical_degree_check(g1, z, tau, prec, res)
            assert canonical_degree_check(g1, z, tau, prec,
                                          res * slack if res else slack - 1)
            A = automorphy_factor(g1, z, tau, prec)
            assert A == automorphy_factor_fresh(g1, z, tau, prec)


def test_polarization_gram_follows_the_order(params, std_order, max_order):
    pol = PolarizationData.with_minimal_scale(default_rho(params), max_order)
    for order in (max_order, std_order, max_order):
        gens = order.generators()
        assert pol.gram(order) == [
            [pol.scale * riemann_form(pol.rho, gi, gj) for gj in gens]
            for gi in gens]
