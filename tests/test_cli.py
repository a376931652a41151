import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fakeelliptic
from fakeelliptic import exactlinalg, orders
from fakeelliptic.cli import main

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
def test_fiber_h0_near_the_real_axis(monkeypatch, capsys, prec, tau):
    # the rank condition is exact, so no Im tau > 0 is too small for it
    monkeypatch.setenv("FAKEELLIPTIC_PRECISION", prec)
    code, report, err = run(capsys, "fiber", "h0", "--tau=" + tau)
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


def test_env_precision_reaches_report(monkeypatch, capsys):
    monkeypatch.setenv("FAKEELLIPTIC_PRECISION", "192")
    code, report, _ = run(capsys, "algebra", "check")
    assert code == 0
    assert report["inputs"]["config"]["precision"] == "192"


def test_order_commands_certify_each_lattice_once(tmp_path, capsys,
                                                  monkeypatch):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("algebra.a = 7\nalgebra.b = -57\n")
    calls = []
    is_order = orders.is_order
    monkeypatch.setattr(orders, "is_order",
                        lambda L: calls.append(L) or is_order(L))
    code, report, _ = run(capsys, "order", "saturate", str(cfg))
    assert code == 0
    assert report["results"]["disc_before"] == "1596"
    assert report["results"]["disc_after"] == "14"
    assert report["results"]["maximal"] is True
    # the start lattice, then the start and the three enlargements in saturate
    assert len(calls) == 5
    calls.clear()
    code, report, _ = run(capsys, "order", "maximal", str(cfg))
    assert code == 0
    assert report["results"] == {"maximal": True, "reduced_discriminant": "14",
                                 "target": "14"}
    # four in saturate, one for the discriminant
    assert len(calls) == 5


@pytest.mark.parametrize("action", ["saturate", "maximal"])
def test_order_commands_reject_split_algebra(tmp_path, capsys, action):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -2\n")
    code, report, err = run(capsys, "order", action, str(cfg))
    assert code == 1 and report is None
    assert "AlgebraSplit" in err


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


@pytest.mark.parametrize("argv", [
    ("units", "--height", "1"), ("cm", "enumerate", "--height", "1"),
    ("fiber", "h0", "--tau", "i"), ("curve", "split", "--mu=0,0,1,0")])
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


def test_suite_at_64_bits_derives_its_tolerance(tmp_path, capsys):
    # 1e-20 is finer than 64 bits resolve; it made riemann and isogeny fail
    cfg = tmp_path / "p64.cfg"
    cfg.write_text("algebra.a = 3\nalgebra.b = -1\nprecision = 64\nseed = 5\n")
    code, report, err = run(capsys, "suite", "all", str(cfg), "--trials", "1")
    assert code == 0, err
    assert report["results"]["pass"] is True
    assert report["inputs"]["config"]["tolerance"] == "1/4294967296"


def test_unresolvable_tolerance_exits_two(tmp_path, capsys):
    cfg = tmp_path / "p64.cfg"
    cfg.write_text("precision = 64\ntolerance = 1/100000000000000000000\n")
    code, report, err = run(capsys, "suite", "all", str(cfg), "--trials", "1")
    assert code == 2 and report is None
    assert "finer than 64-bit arithmetic resolves" in err


@pytest.mark.parametrize("prec", [16, 32, 48])
def test_cocycle_suite_at_low_precision(tmp_path, capsys, prec):
    # IDENTITY_TOL = 1e-12 is not resolved below 54 bits
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

    count(family, "riemann_form")
    count(exactlinalg, "exact_det")
    count(orders, "enumerate_units")
    for trials in (1, 4):
        counts.clear()
        code, report, _ = run(capsys, "suite", "riemann", "--trials",
                              str(trials))
        assert code == 0
        assert report["results"]["suites"]["riemann"]["trials"] == trials + 1
        # one Gram matrix of E (16 pairs) per command; det S is read off
        # the order's integer form, with no elimination
        assert counts == {"riemann_form": 16}
        assert counts["exact_det"] == 0
    counts.clear()
    code, report, _ = run(capsys, "suite", "all", "--trials", "2")
    assert code == 0
    # cocycle and isogeny share one enumeration of the height-1 units
    assert counts == {"riemann_form": 16, "enumerate_units": 1}


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
