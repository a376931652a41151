"""The exact commands run without loading mpmath; only `cm enumerate` and
`curve split` load it.

Each check runs in a fresh interpreter, since the test session itself
has long imported mpmath.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fakeelliptic

SRC = str(Path(fakeelliptic.__file__).resolve().parents[1])

EXACT_COMMANDS = (
    ["algebra", "check"], ["order", "verify"], ["order", "disc"],
    ["order", "maximal"], ["order", "saturate"], ["units", "--height", "1"],
    ["classify"], ["classify", "--in-fiber"], ["classify", "--genus", "0"],
    ["classify", "--genus", "1", "--in-fiber"],
    ["classify", "--genus", "3", "--in-fiber"],
    ["classify", "--genus", "3", "--degree", "2"],
    ["classify", "--genus", "4", "--degree", "2", "--ramification", "2"],
    ["fiber", "h0", "--tau", "i"], ["fiber", "h0", "--tau=0.3,1"],
    ["suite", "riemann", "--trials", "2"], ["suite", "cocycle", "--trials", "2"],
    ["suite", "isogeny", "--trials", "2"], ["suite", "all", "--trials", "2"],
)
NUMERIC_COMMANDS = (["cm", "enumerate", "--height", "1"],
                    ["curve", "split", "--mu", "0,0,1,0"])


def _python(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_exact_commands_never_load_mpmath():
    out = _python(f"""
import contextlib, io, sys
from fakeelliptic import cli
for argv in {EXACT_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "mpmath" not in sys.modules, argv
print("ok")
""")
    assert out.split() == ["ok"]


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS)
def test_numeric_commands_load_mpmath(argv):
    out = _python(f"""
import contextlib, io, sys
from fakeelliptic import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print("mpmath" in sys.modules)
""")
    assert out.split() == ["True"]


def test_a_bad_window_or_mu_exits_before_loading_mpmath():
    out = _python("""
import contextlib, io, sys
from fakeelliptic import cli
argvs = [["cm", "enumerate", "--height", "1", "--window=" + window]
         for window in ("1,0,0,1", "0,1,1,0.5", "nan,1,0,1", "0,1")]
for argv in argvs + [["curve", "split", "--mu=0,0,1"]]:
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 2, argv
print("mpmath" in sys.modules)
""")
    assert out.split() == ["False"]


def test_package_loads_numeric_modules_on_first_use():
    out = _python("""
import sys
import pytest

import fakeelliptic
print("mpmath" in sys.modules)
from fakeelliptic.splitting import fiber_h0, elliptic_family_fiber_h0
print(fakeelliptic.fiber_h0 is fiber_h0, "mpmath" in sys.modules)
elliptic_family_fiber_h0(1j)
print("mpmath" in sys.modules)
""")
    assert out.split() == ["False", "True", "False", "True"]


def test_every_exported_name_resolves():
    for name in fakeelliptic.__all__:
        assert getattr(fakeelliptic, name) is not None, name
    assert fakeelliptic.family.__name__ == "fakeelliptic.family"
    with pytest.raises(AttributeError, match="no_such_name"):
        fakeelliptic.no_such_name
