"""Every report the benchmark can produce keeps its recorded digest.

Each command of `perfbench/workloads.universe()` runs in process through
`cli.main`, and `checks.digest` of its report (everything but `timings`)
is compared with `perfbench/expected_digests.json`; its text must be what
`json.dumps(report, indent=2)` writes.  The benchmark's sources are
exec'd instead of imported, so nothing is written beside them; the
configs go to a temporary directory.
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

from fakeelliptic import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(name)
    mod.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         mod.__dict__)
    return mod


def test_every_report_matches_its_recorded_digest(tmp_path, monkeypatch):
    workloads = _load("workloads")
    # checks.py imports workloads by its plain name
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    checks = _load("checks")
    expected = checks.load_digests()
    commands = workloads.universe()
    assert sorted(c.key for c in commands) == sorted(expected)
    moved, rewritten = [], []
    for cmd in commands:
        path = tmp_path / f"{workloads.config_name(cmd.config)}.cfg"
        if not path.exists():
            path.write_text(workloads.config_text(cmd.config))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(cmd.argv(str(path)))
        text = out.getvalue()
        report = json.loads(text) if code == 0 else None
        got = checks.digest(report) if code == 0 else code
        if got != expected[cmd.key]:
            moved.append(cmd.key)
        # the text itself, not only its digest, is what json would write
        if code == 0 and text != json.dumps(report, indent=2) + "\n":
            rewritten.append(cmd.key)
    assert moved == []
    assert rewritten == []
