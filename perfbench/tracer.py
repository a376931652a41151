"""Outside-in tracer: wrappers installed on the package's public functions.

The program carries no instrumentation, so the benchmark wraps the
layer entry points from outside.  A function imported by name into other
modules (`from .orders import saturate`) is bound in several module
namespaces; every binding of the same object is replaced, so calls
through any of them are seen, and every binding is restored afterwards.

Two kinds of wrapper run in separate passes:

* span wrappers on coarse entry points record (name, start, end, parent)
  in memory, so the cost of a wrapper stays out of the self time of the
  layers around it;
* count-only wrappers go on everything, hot kernel entry points included
  (`QuatElement.__mul__` runs millions of times a pass), and only count.
"""

import importlib
import inspect
import pkgutil
import time
from collections import Counter

# (module, attribute path) of the coarse entry points that get spans
SPAN_TARGETS = (
    ("config", "Config.build_order"),
    ("orders", "saturate"), ("orders", "is_order"),
    ("orders", "reduced_discriminant"), ("orders", "enumerate_units"),
    ("orders", "congruence_filter"),
    ("cm", "enumerate_cm_points"), ("cm", "cm_point"),
    ("quaternions", "ramified_primes"),
    ("exactlinalg", "exact_solve"), ("exactlinalg", "solve_quadratic"),
    ("exactlinalg", "numeric_svd"),
    ("family", "riemann_conditions_check"),
    ("family", "isogeny_lattice_check"), ("family", "cocycle_check"),
    ("splitting", "fiber_h0"), ("splitting", "curve_h0"),
    ("splitting", "robust_dphi"),
)

# hot kernel entry points: counted, never timed
COUNT_TARGETS = (
    ("quaternions", "QuatElement.__mul__"), ("quaternions", "QuatElement.nrd"),
    ("quaternions", "embed"), ("quaternions", "hilbert_symbol"),
    ("exactlinalg", "QuadExt.numeric"), ("exactlinalg", "exact_rank"),
    ("exactlinalg", "exact_det"), ("cm", "is_elliptic"),
    ("family", "PeriodLattice.__init__"), ("family", "automorphy_factor"),
)

PACKAGE = "fakeelliptic"

# the config layer is named after its one entry point, not its class
_NAMES = {("config", "Config.build_order"): "config.build_order"}


def metric_name(module, path):
    """`QuatElement.__mul__` -> `quaternions.QuatElement.mul`."""
    if (module, path) in _NAMES:
        return _NAMES[module, path]
    parts = [p.strip("_") for p in path.split(".")]
    if parts[-1] == "init":
        parts.pop()
    return ".".join([module] + parts)


def _observe_units(ba, result, extra):
    extra["orders.box_elements"] += (2 * ba.arguments["height"] + 1) ** 4
    extra["orders.units_found"] += len(result)


def _observe_cm(ba, result, extra):
    extra["cm.points_found"] += len(result)


def _observe_fiber(ba, result, extra):
    if result.precision_used > ba.arguments["prec"]:
        extra["splitting.fiber_h0.escalations"] += 1


# derived counts read from arguments and results of span-wrapped calls
OBSERVERS = {
    "orders.enumerate_units": _observe_units,
    "cm.enumerate_cm_points": _observe_cm,
    "splitting.fiber_h0": _observe_fiber,
}


class Tracer:
    """Installs wrappers on the package, collects spans and counts."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.extra = Counter()
        self._stack = []
        self._patches = []    # (owner, attribute, original)

    # -- wrappers

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(name)
        sig = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                observe(ba, result, self.extra)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation

    def install(self, targets, kind):
        """Wrap every binding of each target; kind is "span" or "count"."""
        modules = _package_modules()
        make = self._span_wrapper if kind == "span" else self._count_wrapper
        for mod_name, path in targets:
            owner, attr, is_method = _resolve(modules, mod_name, path)
            original = owner.__dict__[attr]
            wrapped = make(metric_name(mod_name, path), original)
            self._patch(owner, attr, original, wrapped)
            if not is_method:
                # other modules that imported the function by name
                for mod in modules.values():
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self):
        """Put every original binding back; returns the number restored."""
        n = len(self._patches)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis

    def span_totals(self):
        """Per name: (inclusive seconds, self seconds, calls).

        Self time is a span's duration minus the time its direct child
        spans cover; children of one span never overlap because the
        program is single-threaded.  Inclusive time counts only spans with
        no ancestor of the same name, so recursion is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, parent) in enumerate(spans):
            incl, self_s, calls = totals.get(name, (0.0, 0.0, 0))
            dur = end - start
            if not _has_ancestor_named(spans, parent, name):
                incl += dur
            totals[name] = (incl, self_s + dur - child_time[i], calls + 1)
        return totals

    def children_named(self, parent_name, child_name):
        """For each span called parent_name, how many direct children are
        called child_name."""
        per_parent = {i: 0 for i, s in enumerate(self.spans)
                      if s[0] == parent_name}
        for name, _, _, parent in self.spans:
            if name == child_name and parent in per_parent:
                per_parent[parent] += 1
        return list(per_parent.values())

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def _has_ancestor_named(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _package_modules():
    """Short name -> module for the package and all its submodules."""
    pkg = importlib.import_module(PACKAGE)
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return mods


def _resolve(modules, mod_name, path):
    """(owner, attribute, whether the owner is a class) of a target."""
    owner = modules[mod_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, bool(outer)


def bindings_of(targets):
    """Current objects bound at each target and at every alias of it."""
    modules = _package_modules()
    seen = []
    for mod_name, path in targets:
        owner, attr, is_method = _resolve(modules, mod_name, path)
        seen.append((owner, attr, owner.__dict__[attr]))
        if not is_method:
            for mod in modules.values():
                if mod is not owner and attr in mod.__dict__:
                    seen.append((mod, attr, mod.__dict__[attr]))
    return seen
