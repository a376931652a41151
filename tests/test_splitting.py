import json
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from fakeelliptic import exactlinalg, family, splitting
from fakeelliptic.cm import CMPoint, cm_point
from fakeelliptic.family import random_tau
from fakeelliptic.quaternions import QuatElement, embed
from fakeelliptic.splitting import (FlatRep, InconsistentData, Section,
                                    classify_candidate, curve_h0, curve_rep,
                                    curve_splitting_report, dphi_check,
                                    elliptic_family_fiber_h0, fiber_h0,
                                    fiber_rep, fiber_splitting_report,
                                    robust_dphi, verify_sections)
from fakeelliptic import (AlgebraParams, enumerate_cm_points, saturate,
                          standard_order)
from fakeelliptic.cli import main
from oracles import curve_h0_svd, laplace_det

I = mpmath.mpc(0, 1)
EPS = mpmath.mpf(10) ** -30


def test_fiber_h0_at_i(max_order):
    res = fiber_h0(max_order, I, 128)
    assert res.h0 == 1
    assert res.det_witness == 6
    assert len(res.sections) == 1  # constants only


def test_fiber_witness_tau_independent(max_order):
    rng = random.Random(41)
    for _ in range(8):
        res = fiber_h0(max_order, random_tau(rng), 128)
        assert res.h0 == 1
        assert res.det_witness == 6


def test_fiber_factored_det_matches_cofactor_oracle(max_order):
    stacked = []
    for g in max_order.generators():
        Eg = embed(g)
        stacked.append([Eg[0][0], Eg[1][0], Eg[0][1], Eg[1][1]])
    det = laplace_det(stacked)
    assert det.v == 0 and abs(det.u) == 6


def test_fiber_h0_certifies_det_m_against_det_s(max_order):
    # any rational tau works, and the exact det M(tau) is compared with
    # det S: a lattice that claims another det S is refused
    tau = exactlinalg.QuadComplex(Fraction(1, 3), Fraction(2, 7))
    assert fiber_h0(max_order, tau).det_witness == 6

    class WrongDet:
        embedding = max_order.embedding
        embedding_det = -max_order.embedding_det
    with pytest.raises(InconsistentData, match="det M"):
        fiber_h0(WrongDet(), tau)


def test_fiber_h0_at_an_exact_cm_tau(max_order):
    # (sqrt 3 + i)/2 is a CM point of (3, -1); det M(tau) is taken over
    # Q(sqrt 3)(i) and certified equal to det S
    tau = exactlinalg.QuadComplex(exactlinalg.QuadExt(0, Fraction(1, 2), 3),
                                  Fraction(1, 2))
    res = fiber_h0(max_order, tau)
    assert res.h0 == 1
    assert res.det_witness == abs(max_order.embedding_det) == 6
    assert fiber_splitting_report(max_order, tau).verdict == "NonSplit"
    # the periods round the exact tau at the given precision
    rep = fiber_rep(max_order, tau, 160)
    with mp.workprec(160):
        t = mpmath.mpc(mpmath.sqrt(3) / 2, 0.5)
        assert rep.periods == [family.complex_structure(g, t, 160)
                               for g in max_order.generators()]
    assert verify_sections(rep, res.sections, n_points=5, prec=160) < 1e-20


def test_fiber_report(max_order):
    report = fiber_splitting_report(max_order, I)
    assert report.kind == "Fiber"
    assert report.verdict == "NonSplit"
    assert report.h0 == 1
    d = report.as_dict()
    assert d["verdict"] == "NonSplit"
    assert "citation" in d["certificate"]


def test_curve_h0_pinned_y(params, max_order):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(y, 128, coords=(0, 0, 1, 0))
    res = curve_h0(pt, 128)
    assert res.h0 == 2
    assert res.eigen_residual < mpmath.mpf(10) ** -20
    s = res.sections[1]
    assert abs(s.f1 - 1) < EPS
    assert abs(s.f2 - I) < EPS
    assert abs(s.a[0] + 1) < EPS  # linear part -f1 * z
    assert abs(dphi_check(s, pt.tau_prime) - 2 * I) < EPS


def test_curve_h0_pinned_x_plus_2y(params):
    mu = QuatElement(params, 0, 1, 2)
    pt = cm_point(mu, 128, coords=(0, 1, 2, 0))
    res = curve_h0(pt, 128)
    assert res.h0 == 2
    s = res.sections[1]
    with mp.workprec(160):
        s3 = mpmath.sqrt(3)
        assert abs(s.f2 - (I - s3) / 2) < EPS
        # dphi = tau' - conj(tau): 2i + i - sqrt(3), halved
        assert abs(dphi_check(s, pt.tau_prime) - (-s3 / 2 + 1.5 * I)) < EPS


def test_curve_h0_pinned_one_plus_y(params):
    mu = QuatElement(params, 1, 0, 1)
    pt = cm_point(mu, 128, coords=(1, 0, 1, 0))
    res = curve_h0(pt, 128)
    assert res.h0 == 2
    assert abs(pt.tau_prime - (1 + I)) < EPS
    assert abs(dphi_check(res.sections[1], pt.tau_prime) - (1 + 2 * I)) < EPS


def test_curve_f2_is_minus_conjugate_tau(max_order):
    from fakeelliptic.cm import enumerate_cm_points
    for pt in enumerate_cm_points(max_order, 2, prec=128):
        res = curve_h0(pt, 128)
        f2 = res.sections[1].f2
        with mp.workprec(160):
            assert abs(f2 + mpmath.conj(pt.tau.tau)) < mpmath.mpf(10) ** -25
            dphi = dphi_check(res.sections[1], pt.tau_prime)
            assert abs(dphi - (pt.tau_prime - mpmath.conj(pt.tau.tau))) < mpmath.mpf(10) ** -25
            assert abs(dphi) > mpmath.mpf(10) ** -12


def _section_values(res):
    return [(s.f1, s.f2, s.a, s.b) for s in res.sections]


@pytest.mark.parametrize("ab,height", [((3, -1), 3), ((3, -7), 2)])
@pytest.mark.parametrize("prec", [128, 256])
def test_curve_h0_closed_form_matches_svd_oracle(ab, height, prec, monkeypatch):
    order = saturate(standard_order(AlgebraParams(*ab)))
    pts = enumerate_cm_points(order, height, prec=prec)
    assert pts
    with monkeypatch.context() as m:
        # the closed form runs no decomposition at all
        for name in ("svd", "svd_c", "svd_r"):
            m.setattr(mpmath, name, None)
        closed = [curve_h0(pt, prec) for pt in pts]
    for pt, res in zip(pts, closed):
        ref = curve_h0_svd(pt, prec)
        assert res.h0 == ref.h0 == 2
        assert _section_values(res) == _section_values(ref)
        assert res.eigen_residual == ref.eigen_residual


def test_fiber_path_runs_no_svd(max_order, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fiber path runs no SVD")

    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nprecision = 128\n")
    for name in ("svd", "svd_c", "svd_r"):
        monkeypatch.setattr(mpmath, name, refuse)
    tau = mpmath.mpc(0.3, 2.5)
    assert fiber_h0(max_order, tau, 128).h0 == 1
    assert fiber_splitting_report(max_order, tau).verdict == "NonSplit"
    assert elliptic_family_fiber_h0(tau, 128) == 1
    assert main(["suite", "riemann", "--trials", "2", str(cfg)]) == 0
    capsys.readouterr()


def test_robust_dphi_matches_direct(params):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(y, 128, coords=(0, 0, 1, 0))
    assert abs(robust_dphi(pt, 128) - 2 * I) < EPS


def test_section_functional_equation(params, max_order):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(y, 128, coords=(0, 0, 1, 0))
    res = curve_h0(pt, 128)
    rep = curve_rep(pt.mu, pt.tau, pt.tau_prime)
    worst = verify_sections(rep, res.sections, n_points=20, seed=0, prec=128)
    assert worst < mpmath.mpf(10) ** -20


def test_verify_sections_rejects_wrong_section(params):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(y, 128, coords=(0, 0, 1, 0))
    rep = curve_rep(pt.mu, pt.tau, pt.tau_prime)
    bogus = Section(1, 0.25, (-1,), 0)
    worst = verify_sections(rep, [bogus], n_points=5, seed=0, prec=128)
    assert worst > mpmath.mpf(10) ** -6


def test_fibers_and_curves_share_one_section_model(params, max_order):
    # Section(f1, f2, a, b) is f = (f1, f2, sum a_i z_i + b) on C^n, with
    # n = 2 on a fiber and n = 1 on a curve; every period is an n-tuple
    assert list(Section(1, 2, (1, 10), 5).value((2, 3))) == [1, 2, 37]
    res = fiber_h0(max_order, I, 128)
    assert [(s.f1, s.f2, s.a, s.b)
            for s in res.sections] == [(0, 0, (0, 0), 1)]
    assert all(len(p) == 2 for p in fiber_rep(max_order, I, 128).periods)
    pt = cm_point(QuatElement(params, 0, 0, 1), 128)
    assert [len(s.a) for s in curve_h0(pt, 128).sections] == [1, 1]
    rep = curve_rep(pt.mu, pt.tau, pt.tau_prime)
    assert FlatRep.__slots__ == ("generator_vectors", "periods")
    assert rep.periods == [(pt.tau_prime,), (1,)]
    # rho(i) is rho of generator i: for the generator 1, v = (1, 0)
    assert rep.rho(1) == mpmath.matrix([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])


def test_fiber_sections_verify(max_order):
    res = fiber_h0(max_order, I, 128)
    rep = fiber_rep(max_order, I, 128)
    worst = verify_sections(rep, res.sections, n_points=10, seed=1, prec=128)
    assert worst < mpmath.mpf(10) ** -20


def test_curve_report(params):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(y, 128, coords=(0, 0, 1, 0))
    report = curve_splitting_report(pt, 128)
    assert report.kind == "EllipticInFiber"
    assert report.verdict == "Split"
    assert report.h0 == 2
    assert abs(report.dphi_value - 2 * I) < EPS
    d = report.as_dict()
    assert d["verdict"] == "Split"
    assert d["h0"] == 2
    assert d["dphi"] == {"re": "0.0", "im": "2.0"}


@pytest.mark.parametrize("coords", ["0,0,1,0", "0,1,2,0", "1,0,1,0",
                                    "1/2,1/2,3/2,1/2"])
def test_report_dphi_is_the_cli_dphi(params, max_order, capsys, coords):
    assert main(["curve", "split", "--mu", coords]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    mu = QuatElement(params, *(Fraction(c) for c in coords.split(",")))
    report = curve_splitting_report(cm_point(mu, 128), 128)
    assert report.as_dict()["dphi"] == results["dphi"]


def test_curve_verdict_does_not_read_the_threshold(params, monkeypatch):
    # |dphi| < 3 here, far below the patched threshold
    monkeypatch.setattr(splitting, "NONZERO_TOL", Fraction(10 ** 6))
    monkeypatch.setattr(exactlinalg, "NONZERO_TOL", Fraction(10 ** 6))
    for coords in ((0, 0, 1, 0), (0, 1, 2, 0), (1, 0, 1, 0)):
        pt = cm_point(QuatElement(params, *coords), 128, coords=coords)
        report = curve_splitting_report(pt, 128)
        assert report.verdict == "Split"
        assert report.dphi_value.imag > 0


def test_curve_report_needs_an_oriented_point(params):
    y = QuatElement(params, 0, 0, 1)
    pt = cm_point(y, 128)
    # -y fixes the same tau with eigenvalue -tau', in the lower half plane
    with pytest.raises(ValueError):
        curve_splitting_report(CMPoint(-y, pt.tau, -pt.tau_prime), 128)


def test_fiber_h0_builds_no_numeric_lattice(max_order, monkeypatch):
    built = []
    init = family.PeriodLattice.__init__
    monkeypatch.setattr(family.PeriodLattice, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    # the witness 6 lies far below the patched threshold
    monkeypatch.setattr(exactlinalg, "NONZERO_TOL", Fraction(10 ** 6))
    for prec in (64, 128, 256):
        res = fiber_h0(max_order, I, prec)
        assert built == []
        assert res.precision_used == prec
        assert res.h0 == 1


def test_elliptic_family_fiber_h0():
    rng = random.Random(43)
    assert elliptic_family_fiber_h0(I, 128) == 1
    for _ in range(10):
        assert elliptic_family_fiber_h0(random_tau(rng), 128) == 1
    with pytest.raises(ValueError, match="^point not in the upper half plane$"):
        elliptic_family_fiber_h0(mpmath.mpc(0, -1), 128)


def test_classify_whole_fiber():
    report = classify_candidate(None, in_fiber=True)
    assert report.kind == "Fiber"
    assert report.verdict == "NonSplit"
    assert report.h0 == 1


def test_classify_elliptic_curve_in_fiber():
    report = classify_candidate(1, in_fiber=True)
    assert report.kind == "EllipticInFiber"
    assert report.verdict == "Split"
    assert report.h0 == 2


def test_classify_rational_curve():
    report = classify_candidate(0, in_fiber=False)
    assert report.verdict == "NonSplit"
    assert report.kind == "Other"


def test_classify_etale_multisection():
    # 2g - 2 = d(2g_C - 2) with d = 2, g_C = 2 forces g = 3
    report = classify_candidate(3, in_fiber=False, degree_over_C=2,
                                ramification_degree=0, g_C=2)
    assert report.kind == "EtaleMultisection"
    assert report.verdict == "Split"


def test_classify_ramified_multisection():
    # Riemann-Hurwitz: 2g - 2 = d(2g_C - 2) + r
    report = classify_candidate(4, in_fiber=False, degree_over_C=2,
                                ramification_degree=2, g_C=2)
    assert report.kind == "Other"
    assert report.verdict == "NonSplit"


def test_classify_names_the_base_genus_it_refuses(capsys):
    with pytest.raises(InconsistentData,
                       match="^the base curve must have genus at least 2, "
                             "got 1$"):
        classify_candidate(3, in_fiber=False, degree_over_C=1, g_C=1)
    assert main(["classify", "--gc", "1", "--genus", "3",
                 "--degree", "1"]) == 1
    assert capsys.readouterr().err == (
        "computation error: InconsistentData: the base curve must have "
        "genus at least 2, got 1\n")


def test_classify_rejects_inconsistent_data():
    with pytest.raises(InconsistentData):
        classify_candidate(2, in_fiber=False, degree_over_C=2, g_C=2)
    with pytest.raises(InconsistentData):
        classify_candidate(1, in_fiber=True, degree_over_C=2, g_C=2)
    with pytest.raises(InconsistentData):
        classify_candidate(3, in_fiber=False, degree_over_C=0, g_C=2)
    with pytest.raises(InconsistentData):
        classify_candidate(3, in_fiber=False, degree_over_C=2,
                           ramification_degree=-1, g_C=2)
    with pytest.raises(InconsistentData):
        classify_candidate(2, in_fiber=False, degree_over_C=1, g_C=1)
    with pytest.raises(InconsistentData):
        classify_candidate(-1, in_fiber=False)
