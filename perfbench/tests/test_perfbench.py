"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    keys = [c.key for c in workloads.generate(name, 7).commands]
    assert keys == [c.key for c in workloads.generate(name, 7).commands]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_differs_across_seeds(name):
    passes = {tuple(c.key for c in workloads.generate(name, s).commands)
              for s in range(5)}
    assert len(passes) == 5


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_generated_command_has_a_reference_digest(name):
    digests = checks.load_digests()
    for seed in range(20):
        wl = workloads.generate(name, seed)
        for cmd in wl.commands + wl.setup:
            assert cmd.key in digests, cmd.key


def test_seed_changes_inputs_not_pass_shape():
    for name in workloads.WORKLOADS:
        shapes = {tuple(sorted(c.kind for c in workloads.generate(name, s)
                               .commands)) for s in range(10)}
        assert len(shapes) == 1, name


def test_reference_kernel_never_imports_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import refkernel; "
            "refkernel.run(2); "
            "print(sorted(m for m in sys.modules if 'fakeelliptic' in m))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH)],
                         capture_output=True, text=True, check=True,
                         env=run.child_env(), timeout=60)
    assert out.stdout.strip() == "[]"


def test_reference_kernel_is_deterministic():
    assert refkernel.run(3) == refkernel.run(3)
    assert refkernel.run(3) != refkernel.run(3, start=1)


def test_normalisation_is_identity_at_r0():
    for raw, units in ((1.0, 10), (3.25, 550), (0.123, 7)):
        assert math.isclose(run.normalise(raw, run.R0 * units, units), raw)
    # a machine twice as slow on the kernel shrinks the time by 2**sensitivity
    assert math.isclose(run.normalise(4.0, 2 * run.R0 * 10, 10),
                        4.0 / 2 ** run.SENSITIVITY)


def test_child_env_is_hermetic(monkeypatch):
    monkeypatch.setenv("FAKEELLIPTIC_PRECISION", "40")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.child_env()
    assert "FAKEELLIPTIC_PRECISION" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(run.SRC)


def test_configs_state_their_precision():
    for cfg in {c.config for c in workloads.universe()}:
        assert f"precision = {cfg[1]}\n" in workloads.config_text(cfg)


def test_ramified_primes_match_the_oracle():
    from oracles import hilbert_solvable
    for (a, b), ram in workloads.RAMIFIED.items():
        n, primes = 2 * abs(a * b), []
        for p in range(2, n + 1):
            if n % p == 0:
                primes.append(p)
                while n % p == 0:
                    n //= p
        assert tuple(p for p in primes if hilbert_solvable(a, b, p) == -1) \
            == ram


@pytest.fixture(scope="module")
def inprocess():
    from fakeelliptic import cli
    with tempfile.TemporaryDirectory() as tmp:
        yield run.Runner(Path(tmp), checks.load_digests()), cli


def _saturate_cmd():
    # (7, -34): maximal discriminant 2 * 17, reached by one cheap coset step
    return workloads.Command(("order", "saturate"), ((7, -34), 128))


def test_report_checks_accept_the_program(inprocess):
    runner, cli = inprocess
    report = runner.run_inprocess(_saturate_cmd(), cli)
    assert report is not None and runner.failed == 0
    assert checks.check_report(_saturate_cmd(), report, runner.digests) == []


@pytest.mark.parametrize("field, value", [
    ("disc_after", "68"), ("maximal", False), ("disc_before", "34")])
def test_report_checks_reject_a_doctored_saturation(inprocess, field, value):
    runner, cli = inprocess
    report = runner.run_inprocess(_saturate_cmd(), cli)
    report["results"][field] = value
    problems = checks.check_report(_saturate_cmd(), report, runner.digests)
    assert "report differs from the recorded reference" in problems
    assert len(problems) >= 2, "semantic check missed the change"


def test_report_checks_reject_a_doctored_count():
    cmd = workloads.Command(("units",), ((3, -1), 128),
                            ("--height", "4", "--congruence", "3"))
    units = [[s * c for c in v] for v in ((1, 0, 0, 0), (0, 1, 0, 0))
             for s in (1, -1)]
    report = {"schema": 1, "command": "units", "results": {
        "height": 4, "count": len(units), "kept": [[1, 0, 0, 0]],
        "kept_count": 1, "congruence": 3,
        "units": [{"coords": u, "elliptic": False} for u in units]}}
    problems = checks.check_report(cmd, report, checks.load_digests())
    assert any("expected 232" in p for p in problems)


def test_report_checks_ignore_timings(inprocess):
    runner, cli = inprocess
    report = runner.run_inprocess(_saturate_cmd(), cli)
    report["timings"]["seconds"] = 123.0
    assert checks.check_report(_saturate_cmd(), report, runner.digests) == []


def test_tracer_counts_repeat_and_bindings_are_restored(inprocess):
    runner, cli = inprocess
    cmds = [_saturate_cmd(),
            workloads.Command(("fiber", "h0"), ((3, -1), 128), ("--tau=i",))]
    targets = tracer.SPAN_TARGETS + tracer.COUNT_TARGETS
    before = [b[2] for b in tracer.bindings_of(targets)]
    counts = []
    for _ in range(2):
        with tracer.Tracer() as t:
            t.install(targets, "count")
            for cmd in cmds:
                runner.run_inprocess(cmd, cli)
        counts.append(dict(t.counts))
    assert counts[0] == counts[1]
    assert counts[0]["orders.saturate"] >= 1
    assert counts[0]["splitting.fiber_h0"] == 1
    assert [b[2] for b in tracer.bindings_of(targets)] == before
    assert runner.failed == 0


def test_span_self_time_excludes_children():
    t = tracer.Tracer()
    t.spans[:] = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                  ["inner", 5.0, 7.0, 0], ["leaf", 2.0, 3.0, 1]]
    totals = t.span_totals()
    assert totals["outer"] == (10.0, 5.0, 1)
    assert totals["inner"] == (5.0, 4.0, 2)
    assert t.children_named("outer", "inner") == [2]


def test_tracer_metric_names():
    assert tracer.metric_name("quaternions", "QuatElement.__mul__") == \
        "quaternions.QuatElement.mul"
    assert tracer.metric_name("family", "PeriodLattice.__init__") == \
        "family.PeriodLattice"
    assert tracer.metric_name("config", "Config.build_order") == \
        "config.build_order"


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bench / "expected_digests.json").write_text(
        (BENCH / "expected_digests.json").read_text())
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "certify", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
