"""Command line front end: dispatch, JSON reports, property suites.

Every command emits one JSON report (schema 1) with the echoed inputs,
typed results, the mathematical statement each result instantiates, and
wall-clock timings.  Exit code 0 means the computation ran; the suite
commands additionally exit nonzero when an invariant fails.  `_dumps`
writes the report as `json.dumps(report, indent=2)` would, byte for
byte, so no command loads json.

Only `cm enumerate` and `curve split` compute numerically: their
handlers import `cm` and `splitting` themselves, after reading their
options, and pass the configured precision to each numeric function.
`cm enumerate` rounds on the kernel of `exactlinalg` and loads no
mpmath; `curve split` loads it for its sections.  Every other command,
`fiber h0` and the suites included, is exact and reads no precision.

`main` reads argv, and writes help and usage errors, from one table of
commands and options, `_COMMANDS`; no command loads argparse, gettext or
locale.
"""

import functools
import gc
import os
import random
import sys
import time
import types

from . import orders, quaternions
from .config import (ConfigError, _echoable, _fraction_list, default_config,
                     load_config, parse_complex)
from .exactlinalg import (ComputationError, QuadComplex, complex_pair,
                          decimal_str)

CITE_ALGEBRA = ("A quaternion algebra over Q is a division algebra exactly "
                "when some place ramifies, and the ramified set is finite of "
                "even size; the modular family needs an indefinite division "
                "algebra.")
CITE_DISC = ("The reduced discriminant of an order is the square root of "
             "the determinant of the trace pairing Gram matrix; for a "
             "maximal order it equals the product of the finite ramified "
             "primes.")
CITE_UNITS = ("Norm-one units act on the upper half plane through the "
              "fixed embedding; the subgroup congruent to 1 modulo N at "
              "least 3 acts freely.")
CITE_CM = ("An order element with positive reduced norm and trd^2 < 4 nrd "
           "fixes a unique point of the upper half plane, and the fiber "
           "there is isogenous to a product of an elliptic curve with "
           "itself.")
CITE_RIEMANN = ("Some rational multiple of E(m1, m2) = trd(rho m1 conj(m2)) "
                "is a polarization of every fiber: integral on the lattice, "
                "compatible with the complex structure, and positive.")
CITE_COCYCLE = ("The factor of automorphy satisfies the cocycle identity "
                "a(g1 g2, x) = a(g1, g2 x) a(g2, x), so it glues the "
                "cotangent directions into a bundle on the quotient; its "
                "determinant (c tau + d)^-4 is the canonical factor.")
CITE_ISOGENY = ("For a norm-one unit gamma, the period lattice at "
                "gamma(tau) is (c tau + d)^-1 times the lattice at tau, so "
                "the fibers over equivalent points are isomorphic.")


# the largest --height of `units` and `cm enumerate`, whose box holds
# (2h+1)^4 vectors: at height 16 on (3, -1) the `units` child takes 0.18 s
# and 17 MB and the `cm enumerate` child 0.7 s and 42 MB; on (13, -38), the
# slowest benchmark algebra (12,163 points, a 9.1 MB report), its child
# takes 2.9-3.2 s and 112 MB at 128 bits and 10-12 s and 111 MB at 4096
# (Python 3.11, one CPU of a 2-vCPU Xeon VM)
MAX_HEIGHT = 16
# the largest `suite --trials`: the Riemann suite holds trials + 1 taus;
# `suite all --trials 2000` takes 1.9 s and 16 MB on (3, -1) (same VM)
MAX_TRIALS = 2000

# ---------------------------------------------------------------------------
# command handlers: (args, cfg) -> (results, citations, ok)


def _cmd_algebra_check(args, cfg):
    params = cfg.algebra()
    ram = quaternions.ramified_primes(params)
    results = {
        "a": str(params.a),
        "b": str(params.b),
        "ramified": ram,
        "division": bool(ram),
        "indefinite": quaternions.hilbert_symbol(
            params.a, params.b, quaternions.INFINITE_PLACE) == 1,
    }
    return results, [CITE_ALGEBRA], True


def _basis_strings(order):
    return [[str(c) for c in row] for row in order.basis]


def _cmd_order_verify(args, cfg):
    order = cfg.build_order(certify=False)
    ok, problems = orders.is_order(order)
    return ({"is_order": ok, "problems": problems,
             "basis": _basis_strings(order)}, [CITE_DISC], True)


def _cmd_order_disc(args, cfg):
    order = cfg.build_order()
    return ({"reduced_discriminant": str(orders.reduced_discriminant(order)),
             "basis": _basis_strings(order)}, [CITE_DISC], True)


def _cmd_order_maximal(args, cfg):
    order = cfg.build_order(certify=False)
    # a split algebra is refused ahead of an explicit basis that is not an
    # order: AlgebraSplit before NotAnOrder, which reduced_discriminant raises
    target = orders.maximal_discriminant(order.params)
    disc = orders.reduced_discriminant(order)
    return ({"maximal": disc == target, "reduced_discriminant": str(disc),
             "target": str(target)}, [CITE_DISC], True)


def _cmd_order_saturate(args, cfg):
    params = cfg.algebra()
    # refuse a split algebra first: the search may not end on it
    orders.maximal_discriminant(params)
    if cfg.order_mode == "explicit":
        start = cfg.build_order()
    else:
        start = orders.standard_order(params)
    disc_before = orders.reduced_discriminant(start)
    # saturate stops at disc = prod(ram); reading it certifies the result
    result = orders.saturate(start)
    return ({"disc_before": str(disc_before),
             "disc_after": str(orders.reduced_discriminant(result)),
             "maximal": True, "basis": _basis_strings(result)},
            [CITE_DISC], True)


def _check_height(height):
    if height > MAX_HEIGHT:
        raise ValueError(f"--height {height} is above {MAX_HEIGHT}: the box "
                         f"would hold {(2 * height + 1) ** 4:,} vectors")


def _cmd_units(args, cfg):
    _check_height(args.height)
    if args.congruence is not None and args.congruence < 1:
        raise ValueError(f"--congruence must be at least 1, got "
                         f"{args.congruence}")
    order = cfg.build_order()
    units = orders.enumerate_units(order, args.height)
    results = {"height": args.height, "count": len(units),
               "units": [{"coords": list(u.coords),
                          "elliptic": u.is_elliptic} for u in units]}
    if args.congruence is not None:
        kept = orders.congruence_filter(units, args.congruence, order)
        results["congruence"] = args.congruence
        results["kept"] = [list(u.coords) for u in kept]
        results["kept_count"] = len(kept)
    return results, [CITE_UNITS], True


def _quad_pair(q):
    return [str(q.u), str(q.v)]


def _four_values(option, text, printed=False):
    """The comma-separated values of --window or --mu, read exactly."""
    try:
        values = _fraction_list(text, 4)
        return tuple(map(_echoable, values)) if printed else values
    except ConfigError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _cmd_cm_enumerate(args, cfg):
    _check_height(args.height)
    window = None
    if args.window is not None:
        window = _four_values("--window", args.window)
        if not (window[0] <= window[1] and window[2] <= window[3]):
            raise ValueError("--window needs re_min <= re_max, im_min <= im_max")
    from . import cm as cm_points
    order = cfg.build_order()
    pts = cm_points.enumerate_cm_points(order, args.height, window,
                                        cfg.precision)
    entries = []
    for pt in pts:
        c2, c1, c0 = pt.quad
        entries.append({
            "coords": list(pt.coords),
            "mu": [str(c) for c in pt.mu.coords()],
            "tau": complex_pair(pt.tau.tau),
            "tau_prime": complex_pair(pt.tau_prime),
            "char_poly": {"trd": str(pt.char_poly[0]),
                          "nrd": str(pt.char_poly[1])},
            "quadratic": {"sqrt": str(order.params.a),
                          "c2": _quad_pair(c2), "c1": _quad_pair(c1),
                          "c0": _quad_pair(c0)},
        })
    results = {"height": args.height, "count": len(pts), "points": entries}
    if window is not None:
        results["window"] = [decimal_str(w, 10) for w in window]
    return results, [CITE_CM], True


def _cmd_fiber_h0(args, cfg):
    from . import splitting
    order = cfg.build_order()
    tau = parse_complex(args.tau)
    report = splitting.fiber_splitting_report(order, tau)
    results = report.as_dict()
    results["tau"] = complex_pair(tau)
    return results, [splitting.CITE_FIBER], True


def _cmd_curve_split(args, cfg):
    coords = _four_values("--mu", args.mu, printed=True)
    from . import cm as cm_points, splitting
    order = cfg.build_order()
    mu = quaternions.QuatElement(order.params, *coords)
    if not order.contains(mu):
        raise ComputationError("mu does not lie in the configured order")
    pt = cm_points.cm_point(mu, cfg.precision)
    report = splitting.curve_splitting_report(pt, cfg.precision)
    results = report.as_dict()
    results["mu"] = [str(c) for c in pt.mu.coords()]
    results["tau"] = complex_pair(pt.tau.tau)
    results["tau_prime"] = complex_pair(pt.tau_prime)
    return results, [splitting.CITE_ELLIPTIC, CITE_CM], True


def _cmd_classify(args, cfg):
    from .splitting import classify_candidate
    report = classify_candidate(args.genus, args.in_fiber, args.degree,
                                args.ramification, args.gc)
    return report.as_dict(), [report.certificate.get("citation", "")], True


# suite runners: (cfg, order, trials, units) -> results, where units()
# returns the height-1 units of the order, enumerated once per command


def _suite_riemann(cfg, order, trials, units):
    from . import family
    pol = cfg.polarization(order)
    rng = random.Random(cfg.seed)
    failures = []
    taus = [QuadComplex(0, 1)] + [family.random_tau(rng) for _ in range(trials)]
    for tau in taus:
        lattice = family.PeriodLattice(order, tau)
        rep = family.riemann_conditions_check(lattice, pol)
        if not rep["all_pass"]:
            failures.append({"tau": complex_pair(tau),
                             "conditions": {k: v["pass"] for k, v in
                                            rep["conditions"].items()}})
    return {"trials": len(taus), "scale": str(pol.scale),
            "failures": failures}


def _suite_cocycle(cfg, order, trials, units):
    from . import family
    rng = random.Random(cfg.seed + 1)
    failures = 0
    for _ in range(trials):
        g1 = family.random_group_element(order, units(), rng)
        g2 = family.random_group_element(order, units(), rng)
        tau = family.random_tau(rng)
        z = (family.random_complex(rng), family.random_complex(rng))
        # the canonical degree holds by construction (canonical_degree_check)
        if not family.cocycle_check(g1, g2, z, tau):
            failures += 1
    return {"trials": trials, "failures": failures}


def _suite_isogeny(cfg, order, trials, units):
    from . import family
    rng = random.Random(cfg.seed + 2)
    failures = 0
    for _ in range(trials):
        gamma = rng.choice([u.element for u in units()])
        tau = family.random_tau(rng)
        if not family.isogeny_lattice_check(gamma, tau, order):
            failures += 1
    return {"trials": trials, "failures": failures}


_SUITES = {"riemann": (_suite_riemann, CITE_RIEMANN),
           "cocycle": (_suite_cocycle, CITE_COCYCLE),
           "isogeny": (_suite_isogeny, CITE_ISOGENY)}


def _cmd_suite(args, cfg):
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials {args.trials} is above {MAX_TRIALS}")
    order = cfg.build_order()

    @functools.cache
    def units():
        if found := orders.enumerate_units(order, 1):
            return found
        raise ComputationError("the box [-1, 1]^4 of basis coordinates "
                               "holds no norm-one unit")

    names = list(_SUITES) if args.name == "all" else [args.name]
    results = {"suites": {}}
    citations = []
    ok = True
    for name in names:
        run, cite = _SUITES[name]
        out = run(cfg, order, args.trials, units)
        failed = out["failures"] if isinstance(out["failures"], int) \
            else len(out["failures"])
        out["pass"] = failed == 0
        ok = ok and failed == 0
        results["suites"][name] = out
        citations.append(cite)
    results["pass"] = ok
    return results, citations, ok


# ---------------------------------------------------------------------------
# the command table, its parser and dispatch

# flag -> (kind, default, required, help); kind int, str, or bool for a flag
# that takes no value
_OPTIONS = {
    "--height": (int, None, True, "half-width of the coordinate box"),
    "--congruence": (int, None, False, "keep units congruent to 1 modulo N"),
    "--window": (str, None, False,
                 "re_min,re_max,im_min,im_max rectangle filter"),
    "--tau": (str, None, True, 'upper half plane point, e.g. "i" or "0.5+2i"'),
    "--mu": (str, None, True,
             'order element "k,l,m,n" in (1,x,y,xy) coordinates'),
    "--genus": (int, None, False, "curve genus; omit for a surface candidate"),
    "--in-fiber": (bool, False, False, "the curve lies in one fiber"),
    "--degree": (int, 0, False, "degree over the base curve"),
    "--ramification": (int, 0, False,
                       "total ramification degree over the base"),
    "--gc": (int, 2, False, "genus of the base curve"),
    "--trials": (int, 20, False, "random trials per suite"),
    "--out": (str, None, False,
              "write the JSON report to this file instead of stdout"),
    "--help": (bool, False, False, "show this help (-h too)"),
}
_ABOUT = {(): "Modular families of fake elliptic curves: orders, CM points, "
              "and splitting certificates.",
          ("algebra",): "local invariants of (a, b / Q)",
          ("order",): "order certification and saturation",
          ("cm",): "CM points of elliptic order elements",
          ("fiber",): "section space on a fiber",
          ("curve",): "elliptic curves in fibers",
          ("suite",): "randomized property suites"}


def _leaf(handler, help_, *flags, **fixed):
    """A command: its handler, help, options and the attributes it fixes."""
    return handler, help_, (*flags, "--out", "--help"), fixed


# command words -> _leaf; every command also takes one optional config path
_COMMANDS = {
    ("algebra", "check"): _leaf(_cmd_algebra_check,
                                "ramified primes and division test"),
    ("order", "verify"): _leaf(_cmd_order_verify, "check the order axioms"),
    ("order", "disc"): _leaf(_cmd_order_disc, "reduced discriminant"),
    ("order", "maximal"): _leaf(_cmd_order_maximal,
                                "compare disc to the ramified product"),
    ("order", "saturate"): _leaf(_cmd_order_saturate,
                                 "grow to a maximal order"),
    ("units",): _leaf(_cmd_units, "norm-one units in a coordinate box",
                      "--height", "--congruence"),
    ("cm", "enumerate"): _leaf(_cmd_cm_enumerate, "all CM points up to a "
                               "height", "--height", "--window"),
    ("fiber", "h0"): _leaf(_cmd_fiber_h0, "h^0 of the restricted cotangent "
                           "bundle", "--tau"),
    ("curve", "split"): _leaf(_cmd_curve_split, "splitting certificate for "
                              "the curve of mu", "--mu"),
    ("classify",): _leaf(_cmd_classify, "verdict for a candidate "
                         "submanifold", "--genus", "--in-fiber", "--degree",
                         "--ramification", "--gc"),
    **{("suite", name): _leaf(_cmd_suite, f"property suite: {name}",
                              "--trials", name=name)
       for name in (*_SUITES, "all")},
}


class _Usage(Exception):
    """A bad command line: (the words read so far, the error)."""


def _below(words):
    """The commands and groups one word below the group `words`."""
    return list(dict.fromkeys(c[:len(words) + 1] for c in _COMMANDS
                              if c[:len(words)] == words))


def _flag(words, name, flags):
    """The one flag that `name` (-h for --help) spells or begins, or None."""
    name = "--help" if name == "-h" else name
    found = [f for f in flags if name[2:] and f.startswith(name)]
    if len(found) > 1:
        raise _Usage(words, f"ambiguous option {name}: {', '.join(found)}")
    return found[0] if found else None


def _parse(argv):
    """argv read against _COMMANDS: (words, handler, args), where handler is
    None when -h or --help asks for the help of `words`.  The command words
    come first, then the options and the config path in any order.  The
    value of an option is its `=` part or else the next token, whatever it
    starts with; each token after `--` is a path."""
    words, tokens = (), iter(argv)
    while words not in _COMMANDS:
        tok = next(tokens, None)
        if _flag(words, tok or "", ("--help",)):
            return words, None, None
        if words + (tok,) not in _below(words):
            raise _Usage(words, "a command is required" if tok is None
                         else f"{tok!r} is not a command")
        words += (tok,)
    handler, _, flags, fixed = _COMMANDS[words]
    values = {f: _OPTIONS[f][1] for f in flags if f != "--help"}
    paths, unknown = [], []
    for tok in tokens:
        if tok == "--":
            paths += tokens
            break
        name, eq, value = tok.partition("=")
        if (flag := _flag(words, name, flags)) is None:
            # a token starting with "-" names an option; "-" alone is a path
            if tok.startswith("-") and tok != "-":
                unknown.append(tok)
            else:
                paths.append(tok)
            continue
        kind = _OPTIONS[flag][0]
        if kind is bool and eq:
            raise _Usage(words, f"{flag} takes no value")
        if flag == "--help":
            return words, None, None
        if kind is not bool and not eq:
            if (value := next(tokens, None)) is None:
                raise _Usage(words, f"{flag} expects a value")
        try:
            values[flag] = True if kind is bool else kind(value)
        except ValueError:
            raise _Usage(words, f"{flag}: invalid {kind.__name__} value "
                         f"{value!r}") from None
    if missing := [f for f in flags if _OPTIONS[f][2] and values[f] is None]:
        raise _Usage(words, "required: " + ", ".join(missing))
    if unknown or paths[1:]:
        raise _Usage(words, "unrecognized arguments: "
                     + " ".join(unknown + paths[1:]))
    return words, handler, types.SimpleNamespace(
        **{f[2:].replace("-", "_"): v for f, v in values.items()},
        **fixed, config=(paths or [None])[0])


def _help(words):
    """The usage line of `words`, its help, and each command or option below
    it with its help."""
    entry = _COMMANDS.get(words)
    if entry:
        rows = [(f if _OPTIONS[f][0] is bool else f"{f} {f[2:].upper()}",
                 _OPTIONS[f][3] + " (required)" * _OPTIONS[f][2])
                for f in entry[2]] + [("config", "configuration file "
                                       "(defaults to the (3,-1) example)")]
    else:
        rows = [(w[-1], _ABOUT.get(w) or _COMMANDS[w][1])
                for w in _below(words)]
    usage = ("[options] [config]" if entry else
             "{" + ",".join(r[0] for r in rows) + "} ...")
    return [" ".join(("usage: fakeelliptic", *words, usage)), "",
            entry[1] if entry else _ABOUT[words], ""] + [
        f"  {a:<28} {b}" for a, b in rows]


# the two-character escapes of json.dumps, and its spelling of the values
# whose repr differs: None, the bools and the floats that are not finite
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
            "\t": "\\t", "\b": "\\b", "\f": "\\f"}
_NAMES = {"None": "null", "True": "true", "False": "false", "nan": "NaN",
          "inf": "Infinity", "-inf": "-Infinity"}


def _escape(c):
    """json's escape of c: a short one, or \\uXXXX for each UTF-16 code
    unit of c (a surrogate pair beyond the BMP)."""
    units = c.encode("utf-16-be", "surrogatepass").hex(" ", 2)
    return _ESCAPES.get(c) or "\\u" + units.replace(" ", "\\u")


def _string(s):
    """s as json.dumps writes it: quoted, in ASCII."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(c if " " <= c <= "~" and c not in _ESCAPES
                         else _escape(c) for c in s) + '"'


def _dumps(value, indent="\n"):
    """The text json.dumps(value, indent=2) writes for a report value: a dict
    with str keys, a list or tuple, str, int, float, bool or None; `indent`
    is the line break and indentation of the enclosing container."""
    if isinstance(value, str):
        return _string(value)
    if value is None or isinstance(value, (int, float)):
        text = repr(value)
        return _NAMES.get(text, text)
    inner = indent + "  "
    # str and int items, most of a report, are written here without a call
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        items = [f"{_string(k)}: " + (_string(v) if type(v) is str else
                                      repr(v) if type(v) is int else
                                      _dumps(v, inner))
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_string(v) if type(v) is str else repr(v) if type(v) is int
                 else _dumps(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"not a report value: {value!r:.60}")
    if not items:
        return brackets
    return brackets[0] + inner + f",{inner}".join(items) + indent + brackets[1]


def _emit(report, out_path):
    text = _dumps(report)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: "
                             f"{exc.strerror or exc}") from None
    else:
        print(text)
        sys.stdout.flush()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        words, handler, args = _parse(argv)
    except _Usage as exc:
        print(f"{_help(exc.args[0])[0]}\nerror: {exc.args[1]}",
              file=sys.stderr)
        return 2
    if handler is None:
        print("\n".join(_help(words)))
        return 0
    try:
        cfg = load_config(args.config) if args.config else default_config()
        inputs = {"config": cfg.as_dict()}
        # each option but --out in table order, then a suite's name;
        # None is left out
        inputs.update((k, v) for k, v in vars(args).items()
                      if v is not None and k not in ("config", "out"))
        start = time.perf_counter()
        results, citations, ok = handler(args, cfg)
        elapsed = time.perf_counter() - start
        report = {"schema": 1, "command": " ".join(words), "inputs": inputs,
                  "results": results, "citations": citations,
                  "timings": {"seconds": round(elapsed, 6)}}
        _emit(report, args.out)
    except BrokenPipeError:
        # the reader is gone: spare the interpreter's last flush a retry
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # stdout: --out errors are ValueErrors
        print(f"cannot write the report: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    return 0 if ok else 1


def run():
    """Entry point: `main()` with the cyclic garbage collector off, flush,
    then exit without interpreter teardown.

    The process handles one command and ends, which frees its cycles, so
    collecting them on the way costs time and saves little memory; `main`
    itself leaves the collector alone for tests and library callers.  An
    exception escaping `main` exits the normal way, so its traceback
    prints; a failed final flush never exits 0.
    """
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
