"""The exact commands run without loading mpmath; only `curve split` loads
it, and `cm enumerate` computes its points on the rounding kernel.  No
command loads argparse, gettext, locale or json, only the suites load
`family`, and no module compiles a regex at import.  The package modules
import each other in layers.  Only the process entry `cli.run` turns the
cyclic garbage collector off.

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
    ["cm", "enumerate", "--height", "1"],
    ["cm", "enumerate", "--height", "2", "--window=-1,1,0.5,2"],
    # the suites come last: they load `family`, which no command before
    # them may load
    ["suite", "riemann", "--trials", "2"], ["suite", "cocycle", "--trials", "2"],
    ["suite", "isogeny", "--trials", "2"], ["suite", "all", "--trials", "2"],
)
# the `--mu=` form, and an element with a scalar part, which fixes the
# same point as its pure part
NUMERIC_COMMANDS = (["curve", "split", "--mu=1,0,1,0"],
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


def test_cm_never_loads_mpmath():
    # the points, their window test, their reprs and the eigen check's
    # message are exact: the kernel rounds, `decimal_str` prints
    out = _python("""
import sys
from fractions import Fraction
from fakeelliptic import AlgebraParams, QuatElement, cm_point, standard_order
from fakeelliptic.cm import enumerate_cm_points
order = standard_order(AlgebraParams(3, -1))
pts = enumerate_cm_points(order, 2, (-1, 1, Fraction(1, 2), 2), 256)
repr(pts), repr(pts[0].tau)
cm_point(QuatElement(order.params, 0, 1, 2), 16)
print(len(pts), "mpmath" in sys.modules)
""")
    assert out.split() == ["3", "False"]


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


def _names(node):
    """The names a node binds or reads: imported, plain, attribute or
    function names."""
    if isinstance(node, ast.ImportFrom):
        return [a.name for a in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    return []


def test_the_embedding_is_rounded_in_one_place():
    # `quaternions.embed_dyadic` is the one rounding of an embedding, on the
    # kernel: besides the kernel only it reads the cached `_sqrt`, and
    # `embed_mpf` is its exact view; `cm` reads no private name of
    # `exactlinalg`, and no module keeps a second matrix rounding
    # (`_mpf_matrix`) or precision idiom (`_at`)
    sqrt_users, cm_private, retired, views = set(), [], [], set()
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node, scope in _scoped_nodes(tree):
            names = _names(node)
            if (path.stem == "cm" and isinstance(node, ast.ImportFrom)
                    and node.module == "exactlinalg"):
                cm_private += [n for n in names if n.startswith("_")]
            if "_sqrt" in names and not isinstance(node, ast.FunctionDef):
                sqrt_users.add(path.stem if path.stem == "exactlinalg"
                               else (path.stem, scope))
            if scope == "embed_mpf" and isinstance(node, ast.Call):
                views.add(ast.unparse(node.func))
            retired += [(path.stem, n) for n in names
                        if n in ("_mpf_matrix", "_at")]
    assert sqrt_users == {"exactlinalg", ("quaternions", None),
                          ("quaternions", "embed_dyadic")}
    assert views == {"dyadic_mpf", "embed_dyadic"}
    assert cm_private == []
    assert retired == []


# mpmath's raw parts: only the kernel builds an mpf or an mpc from them
_RAW = {"_mpf_", "_mpc_", "make_mpf", "make_mpc", "libmp", "from_man_exp",
        "normalize", "to_rational"}


def test_only_exactlinalg_defines_rounding():
    # `exactlinalg._round` is the one rounding: it is defined once, only
    # the kernel in `exactlinalg` calls it, and only `exactlinalg` reads or
    # builds mpmath's raw parts.  Elsewhere mpmath takes no exact value by
    # hand: `mpmath.mpf` and `mpmath.mpc` get number literals and random
    # sample draws only, and `mpmath.sqrt` is not called
    defined, callers, raw, by_hand = [], set(), set(), []
    for path in sorted(Path(SRC, "fakeelliptic").glob("*.py")):
        for node, scope in _scoped_nodes(ast.parse(path.read_text())):
            names = _names(node)
            if isinstance(node, ast.FunctionDef) and node.name == "_round":
                defined.append(path.stem)
            elif "_round" in names:
                callers.add(path.stem)
            if path.stem == "exactlinalg" or isinstance(node, ast.FunctionDef):
                continue
            raw |= _RAW & set(names)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "mpmath.mpf", "mpmath.mpc", "mpmath.sqrt"):
                by_hand += [(path.stem, ast.unparse(node))
                            for arg in node.args
                            if not isinstance(arg, ast.Constant)
                            and not ast.unparse(arg).startswith("rng.uniform(")]
    assert defined == ["exactlinalg"] and callers == {"exactlinalg"}
    assert raw == set()
    assert by_hand == []


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
