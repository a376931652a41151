"""The exact commands run without loading mpmath; only `cm enumerate` and
`curve split` load it.  No command loads argparse, gettext, locale or
json, and no module compiles a regex at import.

Each check runs in a fresh interpreter, since the test session itself
has long imported mpmath.
"""

import ast
import inspect
import os
import re
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


# imports the package and cli, then defines run(argv): cli.main(argv) must
# exit 0 without loading argparse, nor gettext and locale, which argparse's
# import and message lookups load, nor json: cli writes the report itself
_RUN = """
import contextlib, io, sys
from fakeelliptic import cli
loaded = set(sys.modules)

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "argparse" not in sys.modules, argv
    assert not {"gettext", "locale"} & (set(sys.modules) - loaded), argv
    assert not {"json", "_json"} & set(sys.modules), argv
"""


def test_exact_commands_never_load_mpmath():
    out = _python(_RUN + f"""
for argv in {EXACT_COMMANDS!r}:
    run(argv)
    assert "mpmath" not in sys.modules, argv
print("ok")
""")
    assert out.split() == ["ok"]


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS)
def test_numeric_commands_load_mpmath(argv):
    out = _python(_RUN + f"""
run({argv!r})
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

def loaded():
    return {m.split(".")[1] for m in sys.modules
            if m.startswith("fakeelliptic.")}

import fakeelliptic
print(loaded() == set(), "mpmath" in sys.modules)
from fakeelliptic import saturate
print("orders" in loaded() and not {"cm", "family", "splitting"} & loaded())
from fakeelliptic import classify_candidate as exported
from fakeelliptic.splitting import (classify_candidate, fiber_h0,
                                    elliptic_family_fiber_h0)
print(fakeelliptic.fiber_h0 is fiber_h0, exported is classify_candidate,
      "mpmath" in sys.modules)
elliptic_family_fiber_h0(1j)
print("mpmath" in sys.modules)
""")
    assert out.split() == ["True", "False", "True", "True", "True", "False",
                           "True"]


def test_cm_loads_mpmath_at_its_first_numeric_call():
    out = _python("""
import sys
from fakeelliptic import AlgebraParams, cm_point, standard_order
from fakeelliptic.cm import enumerate_cm_points
print("mpmath" in sys.modules)
enumerate_cm_points(standard_order(AlgebraParams(3, -1)), 1)
print("mpmath" in sys.modules)
""")
    assert out.split() == ["False", "True"]


def test_every_exported_name_resolves():
    # each class or function is exported from the module that defines it,
    # never from a module that re-exports it
    for name in fakeelliptic.__all__:
        value = getattr(fakeelliptic, name)
        assert value is not None, name
        if inspect.isclass(value) or inspect.isfunction(value):
            home = fakeelliptic._HOME[name]
            assert value.__module__ == f"fakeelliptic.{home}", name
    assert fakeelliptic.family.__name__ == "fakeelliptic.family"
    with pytest.raises(AttributeError, match="no_such_name"):
        fakeelliptic.no_such_name


def _scoped_nodes(tree):
    """(node, name of its innermost enclosing function or None)."""
    stack = [(tree, None)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _run_at_import(statements):
    """The statements that run when their module is imported: all but the
    bodies of functions."""
    for node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from _run_at_import(getattr(node, field, ()))


def test_conversion_and_import_rules_hold_in_the_source():
    # `.numeric(` is called only by `exactlinalg.to_mpf`, the one way from
    # an exact value to an mpf, and no module imports mpmath at module
    # level: each imports it in its numeric functions; nor does any compile
    # a regex at import, which every command would pay for
    numeric_calls, mpmath_imports, compiles = [], [], []
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        for node in _run_at_import(tree.body):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n and n.split(".")[0] == "mpmath" for n in names):
                mpmath_imports.append(path.stem)
            # the expressions of the statement, not the statements it holds
            compiles += [path.stem for child in ast.iter_child_nodes(node)
                         if not isinstance(child, ast.stmt)
                         for call in ast.walk(child)
                         if isinstance(call, ast.Call)
                         and ast.unparse(call.func) == "re.compile"]
        if not re.search(r"numeric\s*\(", text):
            continue  # no call to walk for
        for node, scope in _scoped_nodes(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "numeric"):
                numeric_calls.append((path.stem, scope))
    assert numeric_calls == [("exactlinalg", "to_mpf")]
    assert mpmath_imports == []
    assert compiles == []


def test_the_source_parses_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      Path(SRC).parent.joinpath("pyproject.toml").read_text())
    assert floor.groups() == ("3", "10")
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
