"""Drift-normalised end-to-end benchmark of the fakeelliptic command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

A closed loop with one client: each command of a pass runs as a fresh
`python -m fakeelliptic.cli` child and the next starts only after the
previous one exits, so at most two processes run at once, both pinned to
one CPU.  Around each child the benchmark times slices of a fixed stdlib
reference kernel (`refkernel.py`); each child's wall time is rescaled by
(R0 / reference seconds per unit measured around it) ** SENSITIVITY,
which cancels most of the drift in the speed of a shared machine.  Every
report is checked against its recorded digest and the mathematics it
must satisfy.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
commands in process through `fakeelliptic.cli.main` with the wrappers of
`tracer.py` installed and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 1 when any command
failed or any report was wrong.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import refkernel
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"

# Seconds per reference-kernel unit on the nominal machine (2-vCPU VM,
# Python 3.11.7).  A normalised time reads as seconds on a machine where
# one unit takes R0.
R0 = 0.002

# How strongly the children's wall time follows the kernel's: part of a
# child's time (process creation, page-cache reads) slows less than pure
# computation when the CPU is busy.  Log-log slope of raw pass time on
# reference time across runs on the nominal machine: 0.90 enumerate, 0.89
# certify, 1.07 saturate (correlation 0.94-0.99); one value, their mean,
# serves all workloads.
SENSITIVITY = 0.95

# a run makes at least this many measured cycles, however long they take
MIN_CYCLES = 3

# no command of any workload takes more than a few seconds
CHILD_TIMEOUT_S = 60

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_ratio", "ratio"))

# per-layer metrics: (name, unit); see README.md for what each one moves
PER_LAYER = (
    ("cli.start_s", "s"), ("cli.import_s", "s"),
    ("config.build_order_s", "s"), ("config.build_order.calls", "count"),
    ("orders.saturate_s", "s"), ("orders.saturate_self_s", "s"),
    ("orders.is_order.calls", "count"),
    ("orders.reduced_discriminant.calls", "count"),
    ("orders.enumerate_units_s", "s"), ("orders.units_per_box_element", "ratio"),
    ("orders.congruence_filter_s", "s"),
    ("cm.enumerate_cm_points_s", "s"), ("cm.enumerate_cm_points_self_s", "s"),
    ("cm.cm_point.calls", "count"), ("cm.is_elliptic.calls", "count"),
    ("cm.points_per_cm_point", "ratio"),
    ("quaternions.QuatElement.mul.calls", "count"),
    ("quaternions.QuatElement.nrd.calls", "count"),
    ("quaternions.embed.calls", "count"),
    ("quaternions.hilbert_symbol.calls", "count"),
    ("quaternions.ramified_primes_s", "s"),
    ("exactlinalg.exact_rank.calls", "count"),
    ("exactlinalg.exact_det.calls", "count"),
    ("exactlinalg.exact_solve.calls", "count"),
    ("exactlinalg.exact_solve_s", "s"),
    ("exactlinalg.QuadExt.numeric.calls", "count"),
    ("exactlinalg.solve_quadratic_s", "s"),
    ("exactlinalg.numeric_svd.calls", "count"),
    ("exactlinalg.numeric_svd_s", "s"),
    ("family.PeriodLattice.calls", "count"),
    ("family.riemann_conditions_check_s", "s"),
    ("family.isogeny_lattice_check_s", "s"),
    ("family.cocycle_check_s", "s"),
    ("family.automorphy_factor.calls", "count"),
    ("splitting.fiber_h0_s", "s"), ("splitting.fiber_h0.escalations", "count"),
    ("splitting.curve_h0_s", "s"), ("splitting.robust_dphi_s", "s"),
    ("splitting.robust_dphi.escalations", "count"),
    ("harness.ref_s", "s"), ("harness.raw_pass_s", "s"),
    ("harness.children_cpu_s", "s"), ("trace.overhead_ratio", "ratio"),
)


def normalise(raw_s, ref_s, ref_units):
    """Rescale raw seconds to a machine where one reference unit takes R0."""
    return raw_s * (R0 * ref_units / ref_s) ** SENSITIVITY


def child_env():
    """Hermetic environment: the checkout's sources, a fixed hash seed, and
    nothing that changes the program's behaviour (such as
    FAKEELLIPTIC_PRECISION, which can silently lower the precision)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "FAKEELLIPTIC"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs and checks commands; counts attempts and failures."""

    def __init__(self, workdir, digests):
        self.workdir = workdir
        self.digests = digests
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def config_path(self, config):
        path = self.workdir / f"{workloads.config_name(config)}.cfg"
        if not path.exists():
            path.write_text(workloads.config_text(config), encoding="utf-8")
        return str(path)

    def _record(self, cmd, rc, report, stderr=""):
        self.attempted += 1
        if rc != 0 or report is None:
            problems = [f"exit {rc}: {stderr.strip()[-300:]}"]
        else:
            problems = checks.check_report(cmd, report, self.digests)
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.key}: {'; '.join(problems)}")
        return not problems

    def run_child(self, cmd):
        """Run one command as a fresh process; returns (wall_s, report)."""
        argv = [sys.executable, "-m", "fakeelliptic.cli",
                *cmd.argv(self.config_path(cmd.config))]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._record(cmd, "timeout", None, f"over {CHILD_TIMEOUT_S} s")
            return time.perf_counter() - start, None
        wall = time.perf_counter() - start
        try:
            report = json.loads(proc.stdout) if proc.returncode == 0 else None
        except json.JSONDecodeError:
            report = None
        self._record(cmd, proc.returncode, report, proc.stderr)
        return wall, report

    def run_inprocess(self, cmd, cli):
        """Run one command through cli.main in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd.argv(self.config_path(cmd.config)))
        try:
            report = json.loads(buf.getvalue()) if rc == 0 else None
        except json.JSONDecodeError:
            report = None
        self._record(cmd, rc, report)
        return report


def cpu_of_children():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _ref_slice(units, index):
    t0 = time.perf_counter()
    refkernel.run(units, start=index * units)
    return time.perf_counter() - t0


def run_pass(runner, cmds, ref_units):
    """One pass: reference slices before, between and after the children.

    Each child's wall time is normalised by the mean of the two slices
    around it, the closest measure of the speed it ran at.  Returns the
    normalised and raw child seconds, reference seconds, children's CPU
    seconds and the start-up seconds outside the reports' own timings.
    """
    cpu0 = cpu_of_children()
    slices = [_ref_slice(ref_units, 0)]
    norm = raw = start_s = 0.0
    for i, cmd in enumerate(cmds, start=1):
        wall, report = runner.run_child(cmd)
        slices.append(_ref_slice(ref_units, i))
        norm += normalise(wall, (slices[-2] + slices[-1]) / 2, ref_units)
        raw += wall
        if report is not None:
            start_s += wall - report["timings"]["seconds"]
    return {"norm": norm, "raw": raw, "ref": sum(slices),
            "cpu": cpu_of_children() - cpu0, "start": start_s}


def _time_left(start, cycles, seconds):
    """Whether one more cycle of the mean length so far ends closer to
    `seconds` than stopping now does."""
    elapsed = time.perf_counter() - start
    return cycles == 0 or elapsed + elapsed / cycles / 2 < seconds


def measure_end_to_end(runner, wl, seconds):
    """Warm-up pass, then cycles of (pass, set-up round) for `seconds`."""
    run_pass(runner, wl.commands, wl.ref_units)
    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < MIN_CYCLES or _time_left(start, len(passes), seconds):
        passes.append(run_pass(runner, wl.commands, wl.ref_units))
        setups.append(run_pass(runner, wl.setup, wl.ref_units))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pass_s = [p["norm"] for p in passes]
    raw_s = [p["raw"] for p in passes]
    print(f"# {wl.name}: {len(passes)} passes; pass_s median "
          f"{statistics.median(pass_s):.4f} s (raw {statistics.median(raw_s):.4f}"
          f" s, min {min(pass_s):.4f}, max {max(pass_s):.4f}); ref per pass "
          f"{statistics.median(p['ref'] for p in passes):.4f} s")
    return {
        "pass_s": statistics.median(pass_s),
        "setup_s": statistics.median(p["norm"] for p in setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "success_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


def _median_time(fn, n):
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds(env):
    """Median `import fakeelliptic.cli` minus median bare interpreter start."""
    def start(code):
        return lambda: subprocess.run([sys.executable, "-c", code], env=env,
                                      cwd=ROOT, check=True, timeout=60)
    bare = _median_time(start("pass"), 5)
    full = _median_time(start("import fakeelliptic.cli"), 5)
    return full - bare


def _inprocess_pass(runner, cmds, cli):
    for cmd in cmds:
        runner.run_inprocess(cmd, cli)


def _paired_pass(runner, cmds, cli, spans):
    """Each command untraced and then at once with span wrappers, so both
    runs see nearly the same machine speed; returns (untraced, traced) s."""
    plain = traced = 0.0
    for cmd in cmds:
        t0 = time.perf_counter()
        runner.run_inprocess(cmd, cli)
        plain += time.perf_counter() - t0
        with spans:
            spans.install(tracer.SPAN_TARGETS, "span")
            t0 = time.perf_counter()
            runner.run_inprocess(cmd, cli)
            traced += time.perf_counter() - t0
    return plain, traced


def measure_layers(runner, wl, seconds):
    """Per-layer metrics from subprocess passes and traced in-process passes.

    The warm-up passes count against `seconds`, so a run with slow passes
    makes only the one measured cycle it needs.
    """
    start = time.perf_counter()
    run_pass(runner, wl.commands, wl.ref_units)
    import_s = import_seconds(runner.env)
    sys.path.insert(0, str(SRC))
    from fakeelliptic import cli

    all_targets = tracer.SPAN_TARGETS + tracer.COUNT_TARGETS
    before = tracer.bindings_of(all_targets)
    _inprocess_pass(runner, wl.commands, cli)
    subs, pairs, totals = [], [], []
    while _time_left(start, len(pairs), seconds):
        subs.append(run_pass(runner, wl.commands, wl.ref_units))
        spans = tracer.Tracer()
        pairs.append(_paired_pass(runner, wl.commands, cli, spans))
        totals.append(spans.span_totals())
    with tracer.Tracer() as counter:
        counter.install(all_targets, "count")
        _inprocess_pass(runner, wl.commands, cli)
    after = tracer.bindings_of(all_targets)
    if [b[2] for b in before] != [b[2] for b in after]:
        raise RuntimeError("tracer left a wrapped binding behind")

    with open(OUT / f"spans-{wl.name}.json", "w", encoding="utf-8") as fh:
        json.dump(spans.dump(), fh)

    def span(name, which=0):
        return statistics.median(t.get(name, (0.0, 0.0, 0))[which]
                                 for t in totals)

    calls = counter.counts
    extra = spans.extra
    m = {
        "cli.start_s": statistics.median(p["start"] for p in subs),
        "cli.import_s": import_s,
        "orders.units_per_box_element": (
            extra["orders.units_found"] / extra["orders.box_elements"]
            if extra["orders.box_elements"] else 0.0),
        "cm.points_per_cm_point": (
            extra["cm.points_found"] / calls["cm.cm_point"]
            if calls["cm.cm_point"] else 0.0),
        "splitting.fiber_h0.escalations":
            extra["splitting.fiber_h0.escalations"],
        "splitting.robust_dphi.escalations": sum(
            1 for n in spans.children_named("splitting.robust_dphi",
                                            "splitting.curve_h0") if n == 2),
        "harness.ref_s": statistics.median(p["ref"] for p in subs),
        "harness.raw_pass_s": statistics.median(p["raw"] for p in subs),
        "harness.children_cpu_s": statistics.median(p["cpu"] for p in subs),
        "trace.overhead_ratio": statistics.median(t / p for p, t in pairs),
    }
    for name, unit in PER_LAYER:
        if name in m:
            continue
        if name.endswith(".calls"):
            m[name] = calls[name[:-len(".calls")]]
        elif name.endswith("_self_s"):
            m[name] = span(name[:-len("_self_s")], 1)
        elif name.endswith("_s"):
            m[name] = span(name[:-len("_s")], 0)
    print(f"# {wl.name}: {len(pairs)} traced passes; overhead "
          f"{m['trace.overhead_ratio']:.3f}; spans written to "
          f"{OUT / f'spans-{wl.name}.json'}")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fakeelliptic" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("FAKEELLIPTIC_PRECISION", None)

    # The reference slices measure the speed of the CPU they run on; the
    # children inherit this affinity, so they run on that same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(workdir, checks.load_digests())
        if args.trace:
            values = measure_layers(runner, wl, args.seconds)
            units = dict(PER_LAYER)
        else:
            values = measure_end_to_end(runner, wl, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.problems:
        print(f"# FAILED {line}", file=sys.stderr)
    print(f"# {wl.name} seed {args.seed}: attempted {runner.attempted}, "
          f"failed {runner.failed}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
