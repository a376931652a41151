import json

import pytest

from fakeelliptic import orders
from fakeelliptic.cli import main


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


def test_non_order_message_is_readable(tmp_path, capsys):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text("algebra.a = 3/2\nalgebra.b = -1\norder = explicit\n"
                   "order.basis.1 = 1, 0, 0, 0\norder.basis.2 = 0, 1, 0, 0\n"
                   "order.basis.3 = 0, 0, 1, 0\norder.basis.4 = 0, 0, 0, 1\n")
    code, report, err = run(capsys, "order", "disc", str(cfg))
    assert code == 1
    assert "NotAnOrder" in err
    assert "generator (0, 1, 0, 0) is not integral" in err
    assert "product (0, 1, 0, 0) * (0, 1, 0, 0) leaves the lattice" in err
    assert "Fraction(" not in err
