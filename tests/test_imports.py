"""The exact commands run without loading mpmath; only `cm enumerate` and
`curve split` load it.  No command loads argparse, gettext, locale or
json, only the suites load `family`, and no module compiles a regex at
import.  The package modules import each other in layers.  Only the
process entry `cli.run` turns the cyclic garbage collector off.

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
    # the suites come last: they load `family`, which no command before
    # them may load
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
# import and message lookups load, nor json: cli writes the report itself;
# only a suite may load `family`, and `classify` loads no `cm` either
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
    if argv[0] != "suite":
        assert "fakeelliptic.family" not in sys.modules, argv
    if argv[0] == "classify":
        assert "fakeelliptic.cm" not in sys.modules, argv
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


def test_only_the_process_entry_turns_the_collector_off():
    # importing cli and calling main keep the cyclic collector for tests
    # and library callers; run(), which ends the process, turns it off
    out = _python("""
import contextlib, gc, io, os, sys
from fakeelliptic import cli
print(gc.isenabled())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["cm", "enumerate", "--height", "1"]) == 0
print(gc.isenabled())
exit_ = os._exit

def report_exit(code):
    print(gc.isenabled(), code, flush=True)
    exit_(code)
os._exit = report_exit
sys.argv = ["fakeelliptic", "classify", "--out", os.devnull]
cli.run()
""")
    assert out.split() == ["True", "True", "False", "0"]


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


def test_the_embedding_is_rounded_in_one_place():
    # `quaternions.embed_mpf` is the one rounding of an embedding: only it
    # and `QuadExt.numeric` read the cached `_sqrt`, `cm` reads no private
    # name of `exactlinalg`, and no module keeps a second matrix rounding
    # (`_mpf_matrix`) or precision idiom (`_at`)
    sqrt_users, cm_private, retired = set(), [], []
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                if path.stem == "cm" and node.module == "exactlinalg":
                    cm_private += [n for n in names if n.startswith("_")]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            if "_sqrt" in names:
                sqrt_users.add(path.stem)
            retired += [(path.stem, n) for n in names
                        if n in ("_mpf_matrix", "_at")]
    assert sqrt_users <= {"exactlinalg", "quaternions"}
    assert cm_private == []
    assert retired == []


def test_orders_and_algebras_hold_no_cached_certificate():
    # an order is certified by the `is_order` run where it is read and the
    # ramified set is recomputed from (a, b): no module writes a verdict
    # (`is_certified`) or the ramified set (`_ramified`) onto an object
    from fakeelliptic.quaternions import AlgebraParams
    assert AlgebraParams.__slots__ == ("a", "b")
    cached = ("is_certified", "_ramified")
    writes, mentions = [], []
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        text = path.read_text()
        mentions += [(path.stem, n) for n in cached if n in text]
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                writes += [(path.stem, t.attr) for target in targets
                           for t in ast.walk(target)
                           if isinstance(t, ast.Attribute)
                           and t.attr in cached]
    assert writes == []
    assert mentions == []


# module -> the package modules it may import at module level: each layer
# imports only the layers below it, so `family` is loaded only by the
# suites and the functions that import it where they run
_LAYERS = {
    "__init__": set(),
    "exactlinalg": set(),
    "quaternions": {"exactlinalg"},
    "orders": {"exactlinalg", "quaternions"},
    **dict.fromkeys(("family", "cm", "splitting"),
                    {"exactlinalg", "quaternions", "orders"}),
    "config": {"exactlinalg", "orders", "quaternions"},
    "cli": {"config", "exactlinalg", "orders", "quaternions"},
}


def _package_imports(tree):
    """The package modules that `from . import m` and `from .m import x`
    statements run at import time name."""
    found = set()
    for node in _run_at_import(tree.body):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= ({node.module} if node.module
                      else {a.name for a in node.names})
    return found


def test_modules_import_each_other_in_layers():
    edges = {path.stem: _package_imports(ast.parse(path.read_text()))
             for path in Path(SRC, "fakeelliptic").glob("*.py")}
    assert set(edges) == set(_LAYERS)
    stray = {m: e - _LAYERS[m] for m, e in edges.items()}
    assert {m: e for m, e in stray.items() if e} == {}


def test_the_source_parses_at_the_python_floor():
    # pyproject.toml declares requires-python >= 3.10
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      Path(SRC).parent.joinpath("pyproject.toml").read_text())
    assert floor.groups() == ("3", "10")
    # the 3.10 grammar refuses what 3.11 added, such as except*
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
