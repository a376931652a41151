import cProfile
import inspect
import io
import json
import os
import pstats
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import fakeelliptic
from fakeelliptic import cli, exactlinalg, orders
from fakeelliptic.cli import main
from fakeelliptic.config import default_config

SRC = os.pathsep.join(filter(None, [
    str(Path(fakeelliptic.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH")]))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_algebra_check(capsys):
    code, report, _ = run(capsys, "algebra", "check")
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "algebra check"
    r = report["results"]
    assert r["ramified"] == [2, 3]
    assert r["division"] is True
    assert r["indefinite"] is True
    assert report["citations"]
    assert "seconds" in report["timings"]


def test_order_commands(capsys):
    code, report, _ = run(capsys, "order", "disc")
    assert code == 0
    assert report["results"]["reduced_discriminant"] == "6"

    code, report, _ = run(capsys, "order", "maximal")
    assert code == 0
    assert report["results"]["maximal"] is True
    assert report["results"]["target"] == "6"

    code, report, _ = run(capsys, "order", "saturate")
    assert code == 0
    assert report["results"]["disc_before"] == "12"
    assert report["results"]["disc_after"] == "6"

    code, report, _ = run(capsys, "order", "verify")
    assert code == 0
    assert report["results"]["is_order"] is True
    assert report["results"]["problems"] == []


def test_units(capsys):
    code, report, _ = run(capsys, "units", "--height", "1",
                          "--congruence", "2")
    assert code == 0
    r = report["results"]
    assert r["count"] == 20
    assert r["kept"] == [[-1, 0, 0, 0], [1, 0, 0, 0]]
    assert r["kept_count"] == 2
    assert all(len(u["coords"]) == 4 for u in r["units"])


@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_units_refuses_a_congruence_below_one(capsys, modulus):
    # -3 was echoed and filtered mod 3; each is refused before the scan
    code, report, err = run(capsys, "units", "--height", "1",
                            "--congruence", modulus)
    assert code == 2 and report is None
    assert err == f"invalid input: --congruence must be at least 1, got {modulus}\n"
    code, report, _ = run(capsys, "units", "--height", "1", "--congruence=1")
    assert code == 0 and report["results"]["kept_count"] == 20


def test_cm_enumerate(capsys):
    code, report, _ = run(capsys, "cm", "enumerate", "--height", "1")
    assert code == 0
    r = report["results"]
    assert r["count"] == 3
    first = r["points"][0]
    assert first["coords"] == [0, 0, 1, 0]
    assert first["tau"] == {"re": "0.0", "im": "1.0"}
    assert first["tau_prime"] == {"re": "0.0", "im": "1.0"}
    assert first["char_poly"] == {"trd": "0", "nrd": "1"}
    assert first["quadratic"]["sqrt"] == "3"

    code, report, _ = run(capsys, "cm", "enumerate", "--height", "1",
                          "--window", "5,6,5,6")
    assert code == 0
    assert report["results"]["count"] == 0

    # a reversed or nan range is rejected, not read as an empty window
    for window in ("1,0,0,1", "0,1,1,0.5", "nan,1,0,1"):
        code, report, err = run(capsys, "cm", "enumerate", "--height", "1",
                                f"--window={window}")
        assert code == 2 and report is None
        assert err.startswith("invalid input: --window")


@pytest.mark.parametrize("prec", ["16", "128"])
def test_cm_window_is_read_exactly(tmp_path, capsys, prec):
    # the edges are decimals, echoed as written at every precision
    cfg = tmp_path / "prec.cfg"
    cfg.write_text(f"precision = {prec}\n")
    code, report, _ = run(capsys, "cm", "enumerate", "--height", "2",
                          "--window=-1.5,1.5,0.3,2", str(cfg))
    assert code == 0
    assert report["results"]["window"] == ["-1.5", "1.5", "0.3", "2.0"]
    code, report, _ = run(capsys, "cm", "enumerate", "--height", "1",
                          "--window=-1e5000,1e5000,1e-5000,2", str(cfg))
    assert code == 0 and report["results"]["count"] == 3
    assert report["results"]["window"] == ["-1.0e+5000", "1.0e+5000",
                                           "1.0e-5000", "2.0"]
    for window in ("0,1,1", "0,1,inf,2", "0,1,1/0,2"):
        code, report, err = run(capsys, "cm", "enumerate", "--height", "1",
                                f"--window={window}")
        assert code == 2 and report is None
        assert err.startswith("invalid input: --window: expected")
    code, report, err = run(capsys, "curve", "split", "--mu=0,0,1")
    assert code == 2 and report is None
    assert err == "invalid input: --mu: expected 4 comma-separated values\n"


def test_fiber_h0(capsys):
    code, report, _ = run(capsys, "fiber", "h0", "--tau", "i")
    assert code == 0
    r = report["results"]
    assert r["h0"] == 1
    assert r["verdict"] == "NonSplit"
    assert r["certificate"]["det_witness"] == "6.0"
    assert r["tau"] == {"re": "0.0", "im": "1.0"}


@pytest.mark.parametrize("prec", ["64", "128", "256"])
@pytest.mark.parametrize("tau", ["0.3+1e-25i", "0.3+1e-200i"])
def test_fiber_h0_near_the_real_axis(tmp_path, capsys, prec, tau):
    # the rank condition is exact, so no Im tau > 0 is too small for it
    cfg = tmp_path / "prec.cfg"
    cfg.write_text(f"precision = {prec}\n")
    code, report, err = run(capsys, "fiber", "h0", "--tau=" + tau, str(cfg))
    assert code == 0, err
    r = report["results"]
    assert r["h0"] == 1
    assert r["certificate"]["det_witness"] == "6.0"
    assert r["certificate"]["factored_det"] == "6.0"


def test_fiber_h0_rejects_lower_half_plane(capsys):
    code, report, err = run(capsys, "fiber", "h0", "--tau=-i")
    assert code == 2
    assert report is None
    assert "invalid input" in err


def test_curve_split(capsys):
    code, report, _ = run(capsys, "curve", "split", "--mu", "0,0,1,0")
    assert code == 0
    r = report["results"]
    assert r["verdict"] == "Split"
    assert r["h0"] == 2
    assert r["dphi"] == {"re": "0.0", "im": "2.0"}
    assert r["tau"] == {"re": "0.0", "im": "1.0"}
    assert r["certificate"]["section"]["f1"] == "(1.0 + 0.0j)"
    assert r["certificate"]["section"]["f2"] == "(0.0 + 1.0j)"


def test_curve_split_rejects_non_elliptic(capsys):
    code, report, err = run(capsys, "curve", "split", "--mu", "0,1,0,0")
    assert code == 1
    assert report is None
    assert "computation error" in err


def test_curve_split_requires_order_membership(capsys):
    code, report, err = run(capsys, "curve", "split", "--mu", "1/3,0,1,0")
    assert code == 1
    assert "does not lie" in err


def test_classify(capsys):
    code, report, _ = run(capsys, "classify", "--genus", "3", "--degree", "2")
    assert code == 0
    assert report["results"]["kind"] == "EtaleMultisection"
    assert report["results"]["verdict"] == "Split"

    code, report, _ = run(capsys, "classify", "--in-fiber")
    assert code == 0
    assert report["results"]["kind"] == "Fiber"
    assert report["results"]["verdict"] == "NonSplit"

    code, report, err = run(capsys, "classify", "--genus", "2", "--degree", "2")
    assert code == 1
    assert "covering data" in err


def test_suite_all(capsys):
    code, report, _ = run(capsys, "suite", "all", "--trials", "2")
    assert code == 0
    r = report["results"]
    assert r["pass"] is True
    assert set(r["suites"]) == {"riemann", "cocycle", "isogeny"}
    assert report["command"] == "suite all"


# each suite and the check of the invariant it tests
_SUITE_CHECKS = {"riemann": "riemann_conditions_check",
                 "cocycle": "cocycle_check",
                 "isogeny": "isogeny_lattice_check"}


@pytest.mark.parametrize("suite", list(_SUITE_CHECKS))
def test_a_failing_invariant_fails_its_suite(monkeypatch, capsys, suite):
    from fakeelliptic import family
    check = getattr(family, _SUITE_CHECKS[suite])

    def failing(*args):
        if suite != "riemann":
            return False
        rep = check(*args)
        rep["conditions"]["integral"]["pass"] = rep["all_pass"] = False
        return rep

    monkeypatch.setattr(family, _SUITE_CHECKS[suite], failing)
    for name in (suite, "all"):
        code, report, err = run(capsys, "suite", name, "--trials", "2")
        assert code == 1, err
        r = report["results"]
        assert r["pass"] is False
        assert ({s: out["pass"] for s, out in r["suites"].items()}
                == {s: s != suite for s in (_SUITE_CHECKS if name == "all"
                                            else [suite])})
        failures = r["suites"][suite]["failures"]
        if suite != "riemann":
            assert failures == 2
            continue
        # tau = i and one per trial
        assert len(failures) == 3
        for f in failures:
            assert set(f) == {"tau", "conditions"}
            assert set(f["tau"]) == {"re", "im"}
            assert f["conditions"] == {"integral": False,
                                       "j_compatible": True,
                                       "positive_definite": True}


def test_suite_accepts_config_after_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nprecision = 128\nseed = 5\n")
    reports = []
    for argv in (("suite", "all", "--trials", "1", str(cfg)),
                 ("suite", "all", str(cfg), "--trials", "1")):
        code, report, err = run(capsys, *argv)
        assert code == 0, err
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["command"] == "suite all"
    assert reports[0]["inputs"]["name"] == "all"
    assert reports[0]["inputs"]["trials"] == 1


def test_config_file_and_out(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nprecision = 64\nseed = 5\n")
    out = tmp_path / "report.json"
    code = main(["fiber", "h0", "--tau", "i", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["inputs"]["config"]["precision"] == "64"
    assert report["results"]["h0"] == 1
    # stdout stays quiet when --out is used
    assert capsys.readouterr().out == ""


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, report, err = run(capsys, "algebra", "check", str(cfg))
    assert code == 2
    assert "config error" in err
    code, report, err = run(capsys, "algebra", "check",
                            str(tmp_path / "absent.cfg"))
    assert code == 2


@pytest.mark.parametrize("target", ["absent/report.json", "."])
def test_unwritable_out_exits_two(tmp_path, capsys, target):
    out = tmp_path / target
    code, report, err = run(capsys, "order", "disc", "--out", str(out))
    assert code == 2 and report is None
    reason = "Is a directory" if out.is_dir() else "No such file or directory"
    assert err == f"invalid input: cannot write --out {out}: {reason}\n"


def test_precision_above_the_ceiling_exits_two(tmp_path, capsys):
    # rejected while the config is read, before any computation starts
    cfg = tmp_path / "prec.cfg"
    cfg.write_text("precision = 20000000\n")
    code, report, err = run(capsys, "fiber", "h0", "--tau=i", str(cfg))
    assert code == 2 and report is None
    assert err == ("config error: line 1: precision must be at most 4096 "
                   "bits\n")


def test_order_commands_certify_the_lattice_they_report(tmp_path, capsys,
                                                        monkeypatch):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("algebra.a = 7\nalgebra.b = -57\n")
    # one log of is_order runs and saturate returns, in the order they happen
    events = []
    is_order, saturate = orders.is_order, orders.saturate

    def logged_saturate(L):
        result = saturate(L)
        events.append(("saturate", result))
        return result

    monkeypatch.setattr(orders, "is_order", lambda L: (
        events.append(("is_order", L)) or is_order(L)))
    monkeypatch.setattr(orders, "saturate", logged_saturate)
    monkeypatch.setattr("fakeelliptic.config.saturate", logged_saturate)
    basis = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
             ["1/2", "1/2", "49/114", "1/114"]]
    want = {
        "saturate": {"disc_before": "1596", "disc_after": "14",
                     "maximal": True, "basis": basis},
        "maximal": {"maximal": True, "reduced_discriminant": "14",
                    "target": "14"},
        "disc": {"reduced_discriminant": "14", "basis": basis},
        "verify": {"is_order": True, "problems": [], "basis": basis},
    }
    for action, results in want.items():
        events.clear()
        code, report, _ = run(capsys, "order", action, str(cfg))
        assert code == 0
        assert report["results"] == results
        # the saturated order, which `order maximal` judges without
        # printing its basis, is certified by an is_order run of its own
        # after the search has returned it
        kinds = [kind for kind, _ in events]
        assert kinds.count("saturate") == 1
        last = max(i for i, kind in enumerate(kinds) if kind == "is_order")
        assert kinds.index("saturate") < last
        checked = events[last][1]
        assert [[str(c) for c in row] for row in checked.basis] == basis


@pytest.mark.parametrize("action", ["saturate", "maximal"])
def test_order_commands_reject_split_algebra(tmp_path, capsys, action):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -2\n")
    code, report, err = run(capsys, "order", action, str(cfg))
    assert code == 1 and report is None
    assert "AlgebraSplit" in err


# every command that saturates the configured order
SATURATING = {
    "saturate": ["order", "saturate"], "maximal": ["order", "maximal"],
    "disc": ["order", "disc"], "verify": ["order", "verify"],
    "units": ["units", "--height", "1"],
    "cm": ["cm", "enumerate", "--height", "1"],
    "fiber": ["fiber", "h0", "--tau", "i"],
    "curve": ["curve", "split", "--mu", "0,0,1,0"],
    "suite": ["suite", "all", "--trials", "2"],
}
NON_ORDER = ("order = explicit\n"
             "order.basis.1 = 1, 0, 0, 0\norder.basis.2 = 0, 1/2, 0, 0\n"
             "order.basis.3 = 0, 0, 1, 0\norder.basis.4 = 0, 0, 0, 1\n")


@pytest.mark.parametrize("order, action", [
    *(pytest.param("", a, id=f"standard-{a}") for a in SATURATING),
    *(pytest.param(NON_ORDER, a, id=f"explicit-non-order-{a}")
      for a in ("saturate", "maximal"))])
def test_order_commands_refuse_a_split_algebra_before_the_search(
        tmp_path, capsys, action, order):
    # saturating the standard order of (10009, -1) runs for more than 10 s;
    # the split algebra is refused first, even ahead of a non-order basis
    cfg = tmp_path / "split.cfg"
    cfg.write_text("algebra.a = 10009\nalgebra.b = -1\n" + order)
    start = time.perf_counter()
    code, report, err = run(capsys, *SATURATING[action], str(cfg))
    assert time.perf_counter() - start < 2
    assert code == 1 and report is None
    assert err == ("computation error: AlgebraSplit: the algebra is split; "
                   "the family needs a division algebra\n")


@pytest.mark.parametrize("ab, before", [((3, -1), "12"), ((12, -9), "432")])
def test_order_saturate_from_an_explicit_order(tmp_path, capsys, ab, before):
    # the identity rows: Z<1, x, y, xy>, saturated in the given presentation
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text(f"algebra.a = {ab[0]}\nalgebra.b = {ab[1]}\n"
                   "order = explicit\n"
                   "order.basis.1 = 1, 0, 0, 0\norder.basis.2 = 0, 1, 0, 0\n"
                   "order.basis.3 = 0, 0, 1, 0\norder.basis.4 = 0, 0, 0, 1\n")
    code, report, err = run(capsys, "order", "saturate", str(cfg))
    assert code == 0, err
    results = report["results"]
    assert (results["disc_before"], results["disc_after"]) == (before, "6")
    assert results["maximal"] is True


def test_low_precision_cm_and_curve_commands(tmp_path, capsys):
    # the eigenvector check follows the precision: 64 bits cannot resolve 1e-20
    cfg = tmp_path / "p64.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nprecision = 64\n")
    code, report, err = run(capsys, "cm", "enumerate", "--height", "3", str(cfg))
    assert code == 0, err
    assert report["results"]["count"] == 29  # the count at 128 bits
    code, report, err = run(capsys, "curve", "split", "--mu=1/2,1/2,3/2,1/2",
                            str(cfg))
    assert code == 0, err
    assert report["results"]["verdict"] == "Split"


NON_ORDER_CONFIG = ("algebra.a = 3/2\nalgebra.b = -1\norder = explicit\n"
                    "order.basis.1 = 1, 0, 0, 0\norder.basis.2 = 0, 1, 0, 0\n"
                    "order.basis.3 = 0, 0, 1, 0\norder.basis.4 = 0, 0, 0, 1\n")


def test_non_order_message_is_readable(tmp_path, capsys):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text(NON_ORDER_CONFIG)
    code, report, err = run(capsys, "order", "disc", str(cfg))
    assert code == 1
    assert "NotAnOrder" in err
    assert "generator (0, 1, 0, 0) is not integral" in err
    assert "product (0, 1, 0, 0) * (0, 1, 0, 0) leaves the lattice" in err
    assert "Fraction(" not in err


# an order of (3, -1) (reduced discriminant 12) with no norm-one unit in
# the height-1 box of its basis coordinates
UNITLESS_BOX_CONFIG = ("algebra.a = 3\nalgebra.b = -1\norder = explicit\n"
                       "order.basis.1 = 19, 3, -6, 0\n"
                       "order.basis.2 = 3, 1, -3, 0\n"
                       "order.basis.3 = 3, 0, 1, 0\n"
                       "order.basis.4 = 0, 3, -9, 1\n")


@pytest.mark.parametrize("name", ["cocycle", "isogeny", "all"])
def test_suite_without_a_height_one_unit_exits_one(tmp_path, capsys, name):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text(UNITLESS_BOX_CONFIG)
    code, report, err = run(capsys, "order", "disc", str(cfg))
    assert code == 0, err
    assert report["results"]["reduced_discriminant"] == "12"
    code, report, err = run(capsys, "suite", name, "--trials", "2", str(cfg))
    assert code == 1 and report is None
    assert err == ("computation error: ComputationError: the box [-1, 1]^4 "
                   "of basis coordinates holds no norm-one unit\n")
    # the Riemann suite draws no unit
    code, report, err = run(capsys, "suite", "riemann", "--trials", "2",
                            str(cfg))
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ("units", "--height", "1"), ("cm", "enumerate", "--height", "1"),
    ("fiber", "h0", "--tau", "i"), ("curve", "split", "--mu=0,0,1,0"),
    ("order", "saturate"), ("order", "maximal")])
def test_every_command_certifies_an_explicit_basis(tmp_path, capsys, argv):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text(NON_ORDER_CONFIG)
    code, report, err = run(capsys, *argv, str(cfg))
    assert code == 1 and report is None
    assert "NotAnOrder" in err
    assert "generator (0, 1, 0, 0) is not integral" in err
    assert "Fraction(" not in err


def test_order_verify_reports_an_explicit_non_order(tmp_path, capsys):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text(NON_ORDER_CONFIG)
    code, report, err = run(capsys, "order", "verify", str(cfg))
    assert code == 0, err
    assert report["results"]["is_order"] is False
    problems = report["results"]["problems"]
    assert problems[:2] == ["generator (0, 1, 0, 0) is not integral",
                            "generator (0, 0, 0, 1) is not integral"]
    assert "product (0, 1, 0, 0) * (0, 1, 0, 0) leaves the lattice" in problems


def test_suite_at_64_bits_echoes_the_default_tolerance(tmp_path, capsys):
    # 1e-20 is finer than 64 bits resolve; it made riemann and isogeny
    # fail while they compared residuals, and the verdicts are exact now
    cfg = tmp_path / "p64.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nprecision = 64\nseed = 5\n")
    code, report, err = run(capsys, "suite", "all", str(cfg), "--trials", "1")
    assert code == 0, err
    assert report["results"]["pass"] is True
    assert report["inputs"]["config"]["tolerance"] == "1/100000000000000000000"


def test_a_tolerance_finer_than_the_precision_is_echoed(tmp_path, capsys):
    cfg = tmp_path / "p64.cfg"
    cfg.write_text("precision = 64\ntolerance = 1/10000000000000000000000\n")
    code, report, err = run(capsys, "suite", "all", str(cfg), "--trials", "1")
    assert code == 0, err
    assert report["results"]["pass"] is True
    assert report["inputs"]["config"]["tolerance"] == \
        "1/10000000000000000000000"
    cfg.write_text("tolerance = 0\n")
    code, report, err = run(capsys, "suite", "all", str(cfg), "--trials", "1")
    assert code == 2 and report is None
    assert "tolerance must be positive" in err


@pytest.mark.parametrize("prec", [16, 32, 48])
def test_cocycle_suite_at_low_precision(tmp_path, capsys, prec):
    # the numeric cocycle failed here at IDENTITY_TOL below 54 bits
    cfg = tmp_path / "low.cfg"
    cfg.write_text(f"algebra.a = 3\nalgebra.b = -1\nprecision = {prec}\n")
    code, report, err = run(capsys, "suite", "cocycle", str(cfg),
                            "--trials", "10")
    assert code == 0, err
    assert report["results"]["suites"]["cocycle"]["failures"] == 0


def test_suites_build_tau_independent_data_once(monkeypatch, capsys):
    from fakeelliptic import family
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    count(family, "_form_numerators")
    count(exactlinalg, "exact_det")
    count(orders, "enumerate_units")
    for trials in (1, 4):
        counts.clear()
        code, report, _ = run(capsys, "suite", "riemann", "--trials",
                              str(trials))
        assert code == 0
        assert report["results"]["suites"]["riemann"]["trials"] == trials + 1
        # one Gram matrix of E per command, from the order's integer form;
        # det S is read off it, with no elimination
        assert counts == {"_form_numerators": 1}
        assert counts["exact_det"] == 0
    counts.clear()
    code, report, _ = run(capsys, "suite", "all", "--trials", "2")
    assert code == 0
    # cocycle and isogeny share one enumeration of the height-1 units
    assert counts == {"_form_numerators": 1, "enumerate_units": 1}


def test_exact_commands_convert_nothing_to_mpf(monkeypatch, capsys):
    # the cocycle, Riemann and fiber verdicts and their witnesses are
    # computed over Q(sqrt a)(i), so no embedding entry is rounded
    numeric = exactlinalg.QuadExt.numeric
    calls = Counter()

    def counted(self, *args):
        calls["numeric"] += 1
        return numeric(self, *args)
    monkeypatch.setattr(exactlinalg.QuadExt, "numeric", counted)
    for argv in (("suite", "cocycle", "--trials", "10"),
                 ("suite", "riemann", "--trials", "10"),
                 ("suite", "isogeny", "--trials", "10"),
                 ("fiber", "h0", "--tau=i")):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    assert calls["numeric"] == 0


def test_suites_stay_off_fraction_arithmetic(capsys):
    # the suites compute on the integer kernel of Q(sqrt a)(i); on
    # Fraction parts `suite all --trials 10` made 8,148 Fraction products,
    # and about 700 are left, in the quaternion group law and norms
    profile = cProfile.Profile()
    profile.enable()
    code, _, _ = run(capsys, "suite", "all", "--trials", "10")
    profile.disable()
    assert code == 0
    products = sum(calls for (path, _, name), (_, calls, *_)
                   in pstats.Stats(profile).stats.items()
                   if name == "_mul" and path.endswith("fractions.py"))
    assert 0 < products < 1000


@pytest.mark.parametrize("ab,seed", [((7, -57), s) for s in range(5)]
                         + [((2, -5), 1)])
def test_suites_pass_at_16_bits(tmp_path, capsys, ab, seed):
    # j_compatible failed here while it compared rounded residuals of
    # P^-1; the Riemann and isogeny verdicts are exact now
    cfg = tmp_path / "p16.cfg"
    cfg.write_text(f"algebra.a = {ab[0]}\nalgebra.b = {ab[1]}\n"
                   f"precision = 16\nseed = {seed}\n")
    code, report, err = run(capsys, "suite", "all", str(cfg), "--trials", "10")
    assert code == 0, err
    assert report["results"]["pass"] is True


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_suite_rejects_fewer_than_one_trial(capsys, trials):
    code, report, err = run(capsys, "suite", "all", "--trials", trials)
    assert code == 2 and report is None
    assert f"--trials must be at least 1, got {trials}" in err


def test_suite_caps_its_trials(capsys, monkeypatch):
    code, report, err = run(capsys, "suite", "isogeny", "--trials",
                            str(cli.MAX_TRIALS))
    assert code == 0, err
    assert report["results"]["suites"]["isogeny"]["trials"] == cli.MAX_TRIALS
    # refused in one line, before the order is built
    monkeypatch.setattr(fakeelliptic.Config, "build_order",
                        lambda *args, **kwargs: pytest.fail("order built"))
    above = cli.MAX_TRIALS + 1
    code, report, err = run(capsys, "suite", "all", "--trials", str(above))
    assert code == 2 and report is None
    assert err == (f"invalid input: --trials {above} is above "
                   f"{cli.MAX_TRIALS}\n")


@pytest.mark.parametrize("argv", [("fiber", "h0", "--tau=0.3,1"),
                                  ("fiber", "h0", "--tau=0.25+1.5i"),
                                  ("suite", "all", "--trials", "10")])
def test_precision_reaches_no_exact_report(tmp_path, capsys, argv):
    reports = []
    for prec in (16, 4096):
        cfg = tmp_path / f"p{prec}.cfg"
        cfg.write_text(f"precision = {prec}\n")
        code, report, err = run(capsys, *argv[:2], str(cfg), *argv[2:])
        assert code == 0, err
        assert report["inputs"]["config"].pop("precision") == str(prec)
        del report["timings"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_exact_checks_take_no_precision():
    from fakeelliptic import family, splitting
    for fn, params in (
            (family.PeriodLattice, ["order", "tau"]),
            (family.riemann_conditions_check, ["lattice", "pol"]),
            (family.cocycle_check, ["g1", "g2", "z", "tau"]),
            (family.canonical_degree_check, ["g", "z", "tau"]),
            (splitting.curve_rep, ["mu", "tau", "tau_prime"]),
            (splitting.fiber_splitting_report, ["order", "tau"])):
        assert list(inspect.signature(fn).parameters) == params, fn


def test_closed_stdout_exits_quietly():
    # the reader is gone before the report is written
    with subprocess.Popen(
            [sys.executable, "-m", "fakeelliptic.cli", "cm", "enumerate",
             "--height", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC)) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_reader_gone_mid_report_exits_quietly():
    # the 430 KB report of `units --height 16` outgrows the pipe buffer, so
    # the child is still writing when the reader closes after 16 bytes
    with subprocess.Popen(
            [sys.executable, "-c", "from fakeelliptic.cli import run; run()",
             "units", "--height", "16"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC)) \
            as proc:
        assert len(proc.stdout.read(16)) == 16
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def _child(*argv):
    """`python -m fakeelliptic.cli`, which ends through `cli.run`."""
    return subprocess.run(
        [sys.executable, "-m", "fakeelliptic.cli", *argv], capture_output=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=SRC))


def test_order_saturate_refuses_a_gap_prime_above_the_bound(tmp_path):
    # the gap of (3,-11953) is 2 * 11953, whose coset search would run for
    # about ten minutes: the child exits 1 at once and names the prime
    cfg = tmp_path / "large-gap.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -11953\n")
    start = time.perf_counter()
    proc = _child("order", "saturate", str(cfg))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"SearchExhausted" in proc.stderr and b"11953" in proc.stderr


def test_order_saturate_reaches_a_large_gap_prime_quickly(tmp_path):
    # the gap of (3,-1489) is 2 * 1489: the search over each coset line
    # once ends in milliseconds, where a walk over all q^3 trace-screened
    # coset vectors took 9-13 s
    cfg = tmp_path / "gap-1489.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1489\n")
    start = time.perf_counter()
    proc = _child("order", "saturate", str(cfg))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["disc_before"] == "17868" and results["disc_after"] == "6"


def test_child_writes_a_complete_report_through_a_pipe():
    proc = _child("cm", "enumerate", "--height", "3")
    assert proc.returncode == 0 and proc.stderr == b""
    # larger than the stdio buffer, so os._exit follows a partial write
    assert len(proc.stdout) > io.DEFAULT_BUFFER_SIZE
    report = json.loads(proc.stdout)
    assert report["results"]["count"] == 29


def test_child_writes_a_complete_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    proc = _child("cm", "enumerate", "--height", "3", "--out", str(out))
    assert proc.returncode == 0 and proc.stdout == proc.stderr == b""
    assert main(["cm", "enumerate", "--height", "3"]) == 0
    want = json.loads(capsys.readouterr().out)
    got = json.loads(out.read_text())
    assert got["results"] == want["results"]


def test_child_exit_codes_carry_their_messages(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    proc = _child("algebra", "check", str(cfg))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"config error: line 1: unknown key 'frobnicate'\n"
    proc = _child("curve", "split", "--mu=1,0,0,0")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (b"computation error: NotElliptic: QuatElement(1, "
                           b"0, 0, 0) has no fixed point in the upper half "
                           b"plane\n")


def test_console_script_ends_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"fakeelliptic": "fakeelliptic.cli:run"}


class _Exit(Exception):
    pass


def _run_in_process(monkeypatch, main_result):
    """cli.run with `main` replaced and `os._exit` raising its code."""
    def exit_(code):
        raise _Exit(code)
    monkeypatch.setattr(cli, "main", main_result)
    monkeypatch.setattr(cli.os, "_exit", exit_)
    with pytest.raises(_Exit) as info:
        cli.run()
    return info.value.args[0]


def test_run_exits_with_the_code_of_main(monkeypatch):
    for code in (0, 1, 2):
        assert _run_in_process(monkeypatch, lambda: code) == code


def test_run_never_exits_zero_after_a_failed_flush(monkeypatch):
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")
    monkeypatch.setattr(sys, "stdout", Full())
    assert _run_in_process(monkeypatch, lambda: 0) == 1
    assert _run_in_process(monkeypatch, lambda: 2) == 2


def test_run_leaves_exceptions_to_the_interpreter(monkeypatch):
    def usage_error():
        raise SystemExit(2)
    monkeypatch.setattr(cli, "main", usage_error)
    monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail("_exit"))
    with pytest.raises(SystemExit):
        cli.run()


def test_low_precision_cocycle_suite_on_a_large_automorphy_factor(
        tmp_path, capsys):
    # a sampled group element has |j^-4| = 3.3e5, whose absolute
    # canonical-degree residual 1.2e-4 exceeded the 32-bit tolerance 2^-16
    cfg = tmp_path / "b37.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -7\nprecision = 32\n"
                   "seed = 0\n")
    code, report, err = run(capsys, "suite", "cocycle", str(cfg),
                            "--trials", "10")
    assert code == 0, err
    assert report["results"]["suites"]["cocycle"]["failures"] == 0


def test_large_algebra_parameter_is_factored(tmp_path):
    # trial division ran for minutes on this prime
    cfg = tmp_path / "big.cfg"
    cfg.write_text("algebra.a = 1000000000000000003\nalgebra.b = -1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fakeelliptic.cli", "algebra", "check",
         str(cfg)], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    ram = json.loads(proc.stdout)["results"]["ramified"]
    assert set(ram) <= {2, 1000000000000000003}


def test_parameter_beyond_the_factoring_bound_exits_two(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"algebra.a = {2 ** 64 + 1}\nalgebra.b = -1\n")
    code, report, err = run(capsys, "algebra", "check", str(cfg))
    assert code == 2 and report is None
    assert f"cannot factor {2 ** 64 + 1}: integers above 2^64" in err


@pytest.mark.parametrize("argv,code", [
    ([], 2), (["nosuch"], 2), (["order"], 2),
    (["order", "disc", "--bogus"], 2), (["units"], 2),
    (["suite", "all", "--trials", "x"], 2), (["--help"], 0),
    (["cm", "--help"], 0), (["--he"], 0),
    (["order", "disc", "--bogus", "-h"], 0)])
def test_a_bad_command_line_prints_usage_and_help_exits_zero(argv, code,
                                                             capsys):
    # an unknown option is refused only after the whole line is read, so
    # a later -h still prints help
    assert main(argv) == code
    out = capsys.readouterr()
    if code:
        assert out.out == ""
        usage, error = out.err.splitlines()
        assert usage.startswith("usage: fakeelliptic")
        assert error.startswith("error: ")
    else:
        assert out.err == "" and out.out.startswith("usage: fakeelliptic")


def _help_names(capsys, *argv):
    """The first column of the rows that `argv` prints as help."""
    assert main(list(argv)) == 0
    text = capsys.readouterr().out
    rows = text.split("\n\n", 2)[2].splitlines()
    return [row.split()[0] for row in rows]


def test_help_lists_the_commands_and_options_of_the_table(capsys):
    words = list(cli._COMMANDS)
    assert _help_names(capsys, "-h") == list(dict.fromkeys(
        w[0] for w in words))
    assert _help_names(capsys, "suite", "--help") == [
        "riemann", "cocycle", "isogeny", "all"]
    assert _help_names(capsys, "order", "-h") == [
        "verify", "disc", "maximal", "saturate"]
    for leaf in words:
        flags = list(cli._COMMANDS[leaf][2])
        assert _help_names(capsys, *leaf, "-h") == flags + ["config"]
        assert flags[-2:] == ["--out", "--help"]
    # anywhere among the options, and as a unique prefix of --help
    assert main(["classify", "--genus", "3", "--hel"]) == 0
    out = capsys.readouterr().out
    assert "--ramification RAMIFICATION" in out and "  --in-fiber " in out


def _report(capsys, *argv):
    code, report, err = run(capsys, *argv)
    assert code == 0, err
    del report["timings"]
    return report


def test_every_spelling_of_an_option_gives_the_same_report(tmp_path,
                                                           capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nseed = 5\n")
    path = str(cfg)
    want = _report(capsys, "units", "--height", "2", path)
    for argv in (["units", "--height=2", path], ["units", "--hei", "2", path],
                 ["units", "--heig=2", path], ["units", path, "--height", "2"],
                 ["units", "--height", "2", "--", path]):
        assert _report(capsys, *argv) == want, argv
    assert want["inputs"]["height"] == 2
    assert want["inputs"]["config"]["seed"] == "5"
    want = _report(capsys, "classify", "--genus", "1", "--in-fiber")
    assert _report(capsys, "classify", "--in-f", "--gen=1") == want


@pytest.mark.parametrize("argv,error", [
    (["units", "--he", "1"], "ambiguous option --he: --height, --help"),
    (["classify", "--g", "1"], "ambiguous option --g: --genus, --gc"),
    (["fiber", "h0"], "required: --tau"),
    (["units", "--height", "x"], "--height: invalid int value 'x'"),
    (["units", "--height"], "--height expects a value"),
    (["classify", "--in-fiber=yes"], "--in-fiber takes no value"),
    (["order", "disc", "a.cfg", "b.cfg"], "unrecognized arguments: b.cfg"),
])
def test_a_misused_option_exits_two(argv, error, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    usage, line = out.err.splitlines()
    assert usage.startswith("usage: fakeelliptic ") and out.out == ""
    assert line == "error: " + error


def test_the_token_after_an_option_is_its_value(capsys):
    want = _report(capsys, "fiber", "h0", "--tau=-0.5+i")
    assert _report(capsys, "fiber", "h0", "--tau", "-0.5+i") == want
    assert want["results"]["tau"]["re"].startswith("-0.5")
    # after `--`, a token that starts with a minus sign is the config path
    code, report, err = run(capsys, "order", "disc", "--", "-no.cfg")
    assert code == 2 and report is None
    assert err.startswith("config error: cannot read -no.cfg")


@pytest.mark.parametrize("tau", ["nan+1i", "1+nani", "inf,1", "0.5,nan",
                                 "1e400i"])
def test_fiber_h0_rejects_a_non_finite_tau(tau, capsys):
    code, report, err = run(capsys, "fiber", "h0", "--tau=" + tau)
    assert code == 2 and report is None
    assert err.startswith("invalid input: cannot parse complex value")
    assert err.count("\n") == 1


def test_fiber_h0_names_an_imaginary_part_that_underflows(capsys):
    # complex() reads 1e-400 as 0.0; the re,im form keeps it exact
    code, report, err = run(capsys, "fiber", "h0", "--tau=0.3+1e-400i")
    assert code == 2 and report is None and err.count("\n") == 1
    assert "underflows to 0" in err and "re,im" in err
    code, report, err = run(capsys, "fiber", "h0", "--tau=0.3,1e-400")
    assert code == 0 and report["results"]["h0"] == 1
    code, _, err = run(capsys, "fiber", "h0", "--tau=0.3+0i")
    assert code == 2 and "underflow" not in err


@pytest.mark.parametrize("words", [("units",), ("cm", "enumerate")])
def test_height_above_the_cap_exits_two_before_any_scan(monkeypatch, capsys,
                                                        words):
    from fakeelliptic import cm, config

    def scan(*args, **kwargs):
        raise AssertionError("no order or box may be built")
    for owner, name in ((config.Config, "build_order"),
                        (orders, "enumerate_units"),
                        (cm, "enumerate_cm_points")):
        monkeypatch.setattr(owner, name, scan)
    assert cli.MAX_HEIGHT >= 8
    code, report, err = run(capsys, *words, "--height",
                            str(cli.MAX_HEIGHT + 1))
    assert code == 2 and report is None
    assert err == (f"invalid input: --height {cli.MAX_HEIGHT + 1} is above "
                   f"{cli.MAX_HEIGHT}: the box would hold "
                   f"{(2 * cli.MAX_HEIGHT + 3) ** 4:,} vectors\n")


def test_non_integer_precision_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "prec.cfg"
    cfg.write_text("seed = 1\nprecision = abc\n")
    code, report, err = run(capsys, "classify", str(cfg))
    assert code == 2 and report is None
    assert err == ("config error: line 2: precision must be an integer, "
                   "got 'abc'\n")


@pytest.mark.parametrize("config,err", [
    ("precision = 8\n", "line 1: precision must be at least 16 bits"),
    ("tolerance = 0\n", "line 1: tolerance must be positive"),
    ("tolerance = -1/2\n", "line 1: tolerance must be positive"),
    ("precision = 128\nseed = 1" + "0" * 5000 + "\n",
     "line 2: seed has more than 4300 digits"),
    # each key once, on line 2 after a comment line
    *[("# a comment\n" + line, "line 2: " + err) for line, err in [
        ("algebra.a = 3x\n", "expected an exact rational, got '3x'"),
        ("algebra.b = 1/0\n", "expected an exact rational, got '1/0'"),
        ("order = biggest\n",
         "order must be one of ('saturate-from-standard', 'explicit')"),
        ("order.basis.3 = 0, 0, 1\norder.basis.1 = 1, 0, 0, 0\n"
         "order.basis.2 = 0, 1, 0, 0\norder.basis.4 = 0, 0, 0, 1\n",
         "expected 4 comma-separated values"),
        ("polarization.rho = 0, 0, y, 0\n",
         "expected an exact rational, got 'y'"),
        ("precision = 8\n", "precision must be at least 16 bits"),
        ("tolerance = -1\n", "tolerance must be positive"),
        ("seed = 1.5\n", "seed must be an integer, got '1.5'")]],
], ids=["precision", "tolerance-zero", "tolerance-negative", "seed-digits",
        "key-algebra.a", "key-algebra.b", "key-order", "key-order.basis.3",
        "key-polarization.rho", "key-precision", "key-tolerance", "key-seed"])
def test_every_config_value_error_names_its_line(tmp_path, capsys, config,
                                                 err):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(config)
    code, report, got = run(capsys, "classify", str(cfg))
    assert code == 2 and report is None
    assert got == f"config error: {err}\n"


@pytest.mark.parametrize("argv,config,err", [
    (["fiber", "h0", "--tau=0,1e1000000"], None,
     "invalid input: cannot parse complex value '0,1e1000000': the exponent "
     "of '1e1000000' lies beyond +-10000\n"),
    (["cm", "enumerate", "--height", "1", "--window=0,1,0,1e1000000"], None,
     "invalid input: --window: the exponent of '1e1000000' lies beyond "
     "+-10000\n"),
    (["algebra", "check"], "algebra.a = 1e1000000\n",
     "config error: line 1: the exponent of '1e1000000' lies beyond "
     "+-10000\n"),
])
def test_a_decimal_exponent_beyond_the_bound_exits_two(tmp_path, capsys,
                                                       argv, config, err):
    # unbounded, Fraction("1e1000000") alone takes 0.6 s to build
    if config is not None:
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        argv = argv + [str(cfg)]
    start = time.perf_counter()
    code, report, got = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and report is None and got == err


_LONG_NUMBER = "1" * 5000 + "x"


@pytest.mark.parametrize("argv,config", [
    (["algebra", "check"], "seed = " + "x" * 10000 + "\n"),
    (["algebra", "check"], "k" * 10000 + " = 1\n"),
    (["algebra", "check"], ("k" * 10000 + " = 1\n") * 2),
    (["algebra", "check"], "algebra.a = " + _LONG_NUMBER + "\n"),
    (["fiber", "h0", "--tau=" + _LONG_NUMBER], None),
    (["cm", "enumerate", "--height", "1", "--window=" + _LONG_NUMBER + ",1,0,1"],
     None),
    (["curve", "split", "--mu=" + _LONG_NUMBER + ",0,1,0"], None),
], ids=["seed", "unknown-key", "duplicate-key", "algebra-a", "tau", "window",
        "mu"])
def test_malformed_long_text_is_echoed_as_a_short_prefix(tmp_path, capsys,
                                                         argv, config):
    if config is not None:
        cfg = tmp_path / "long.cfg"
        cfg.write_text(config)
        argv = argv + [str(cfg)]
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err.count("\n") == 1 and len(err) < 200, err[:300]


def _basis_with_huge_row(i):
    rows = ["1, 0, 0, 0", "0, 1, 0, 0", "0, 0, 1, 0", "0, 0, 0, 1"]
    rows[i - 1] = "1e5000, 0, 0, 0"
    return "".join(f"order.basis.{j} = {r}\n" for j, r in enumerate(rows, 1))


_DIGITS = "a numerator or denominator has more than 4300 digits\n"


@pytest.mark.parametrize("argv,config,err", [
    (["classify"], "tolerance = 1e-5000\n", "config error: line 1: " + _DIGITS),
    (["classify"], "algebra.a = 1e10000\n", "config error: line 1: " + _DIGITS),
    *[(["order", "verify"], _basis_with_huge_row(i),
       f"config error: line {i}: " + _DIGITS) for i in (1, 2, 3, 4)],
    (["suite", "riemann", "--trials", "1"],
     "polarization.rho = 0, 0, 1e5000, 0\n", "config error: line 1: " + _DIGITS),
    (["curve", "split", "--mu=1e5000,0,1,0"], None,
     "invalid input: --mu: " + _DIGITS),
], ids=["tolerance", "algebra.a", "order.basis.1", "order.basis.2",
        "order.basis.3", "order.basis.4", "polarization.rho", "mu"])
def test_a_value_too_long_to_echo_exits_two(tmp_path, capsys, argv, config,
                                            err):
    # reports echo these values with str(), which Python refuses for an int
    # beyond 4300 digits
    if config is not None:
        cfg = tmp_path / "long.cfg"
        cfg.write_text(config)
        argv = argv + [str(cfg)]
    code, report, got = run(capsys, *argv)
    assert code == 2 and report is None and got == err


@pytest.mark.parametrize("argv,want", [
    (["algebra", "check"], {}),
    (["order", "disc"], {}),
    (["units", "--height", "1", "--congruence", "2"],
     {"height": 1, "congruence": 2}),
    (["cm", "enumerate", "--height", "1", "--window=-1,1,0.5,2"],
     {"height": 1, "window": "-1,1,0.5,2"}),
    (["fiber", "h0", "--tau", "i"], {"tau": "i"}),
    (["curve", "split", "--mu", "0,0,1,0"], {"mu": "0,0,1,0"}),
    (["classify"],
     {"in_fiber": False, "degree": 0, "ramification": 0, "gc": 2}),
    (["classify", "--genus", "3", "--degree", "2"],
     {"genus": 3, "in_fiber": False, "degree": 2, "ramification": 0,
      "gc": 2}),
    (["suite", "riemann", "--trials", "1"], {"name": "riemann", "trials": 1}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_inputs_echo_each_given_option_and_the_config(tmp_path, capsys,
                                                      argv, want):
    # --out, the config path and the dispatch fields are not inputs
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    inputs = json.loads(out.read_text())["inputs"]
    assert inputs.pop("config") == default_config().as_dict()
    assert inputs == want


def test_full_stdout_exits_one_with_one_line(monkeypatch, capsys):
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")
    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["classify"]) == 1
    assert capsys.readouterr().err == (
        "cannot write the report: No space left on device\n")


@pytest.mark.parametrize("value", [
    '"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001d11e", "\udcff",
    "a\nb\tc\rd\be\f", "", "plain text", "caf\xe9 \U0001f600 \udcff \"x\"",
    {}, [], {"a": {}}, [[]], {"a": [{}, []], "b": {"c": []}},
    -0.0, 1e300, 10 ** 30, float("nan"), float("inf"), float("-inf"),
    [True, 1, False, 0, None], (1, (2, "t")), {"k": [1.5, {"z": None}]},
    {"n": -7, "s": "\u00e9", "t": True, "l": [10 ** 20, "q\"", [], 0.5]},
], ids=repr)
def test_the_report_writer_writes_what_json_writes(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {1: "a"}, {"a": {1, 2}}, b"x",
    # repr(object()) holds an address, so this case gets a fixed id
    pytest.param([object()], id="[object()]")], ids=repr)
def test_the_report_writer_refuses_any_other_type(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_a_non_ascii_option_is_echoed_as_json_writes_it(tmp_path,
                                                         monkeypatch, capsys):
    # Fraction reads Arabic-Indic digits; the report escapes them
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(
        perf_counter=lambda: 0.0))
    argv = ["cm", "enumerate", "--height", "1", "--window=١,٢,٠,٣"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["inputs"]["window"] == "١,٢,٠,٣"
    assert '"window": "\\u0661,\\u0662,\\u0660,\\u0663"' in text
    assert text == json.dumps(report, indent=2) + "\n"
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == text
