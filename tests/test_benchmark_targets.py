"""The benchmark's tracer wraps package functions by name from outside.

`perfbench/tracer.py` is loaded read-only here, so that a rename in the
package that would silently blind `run.py --trace 1` fails tier-1 instead.
"""

import inspect
import types
from pathlib import Path

from fakeelliptic import splitting
from fakeelliptic.cm import cm_point
from fakeelliptic.quaternions import QuatElement

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # exec the source instead of importing, so nothing is written beside it
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         mod.__dict__)
    return mod


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    modules = tracer._package_modules()
    for mod_name, path in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS:
        owner, attr, _ = tracer._resolve(modules, mod_name, path)
        assert callable(owner.__dict__[attr]), (mod_name, path)


def test_fiber_escalation_observer_inputs():
    # the escalation count compares FiberH0.precision_used with fiber_h0's prec
    assert "prec" in inspect.signature(splitting.fiber_h0).parameters
    assert "precision_used" in splitting.FiberH0.__slots__


def test_robust_dphi_calls_curve_h0_once_per_precision(params, monkeypatch):
    # the dphi escalation count is the number of curve_h0 calls inside it
    pt = cm_point(QuatElement(params, 0, 0, 1), 128, coords=(0, 0, 1, 0))
    precs = []
    curve_h0 = splitting.curve_h0
    monkeypatch.setattr(splitting, "curve_h0",
                        lambda point, prec: precs.append(prec) or curve_h0(point, prec))
    splitting.robust_dphi(pt, 128)
    assert precs == [128]
