"""Report checks: a digest against the recorded reference, plus semantics.

The digest covers the whole report except `timings`, so any change in a
verdict, count, witness or printed digit is caught.  The semantic checks
restate what the mathematics requires, independently of the recording:
a maximal order reaches the product of the ramified primes, fibers never
split, elliptic curves in fibers split, suites pass, and the worked
example (3, -1) has its known CM-point and unit counts.
"""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import RAMIFIED

DIGESTS_PATH = Path(__file__).resolve().parent / "expected_digests.json"

# (3, -1) with its maximal order: CM points and norm-one units per height
CM_COUNTS = {1: 3, 2: 11, 3: 29, 4: 60}
UNIT_COUNTS = {2: 64, 3: 144, 4: 232}
WORKED_EXAMPLE = (3, -1)


def digest(report):
    """sha256 of the canonical JSON of the report without `timings`."""
    body = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _option(cmd, name):
    """Value of `--name v` or `--name=v` in the command's options."""
    opts = cmd.options
    for i, opt in enumerate(opts):
        if opt == name:
            return opts[i + 1]
        if opt.startswith(name + "="):
            return opt.split("=", 1)[1]
    return None


def _nonzero(text):
    return float(text) != 0.0


def _complex_nonzero(pair):
    return float(pair["re"]) != 0.0 or float(pair["im"]) != 0.0


def _check_cm(cmd, res, problems):
    height = int(_option(cmd, "--height"))
    window = _option(cmd, "--window")
    points = res["points"]
    if res["count"] != len(points):
        problems.append("count disagrees with the listed points")
    for pt in points:
        trd = Fraction(pt["char_poly"]["trd"])
        nrd = Fraction(pt["char_poly"]["nrd"])
        if not trd * trd < 4 * nrd:
            problems.append(f"point {pt['coords']} is not elliptic")
        if not float(pt["tau"]["im"]) > 0:
            problems.append(f"point {pt['coords']} is off the upper half plane")
    if window is not None:
        re_min, re_max, im_min, im_max = (float(w) for w in window.split(","))
        for pt in points:
            re, im = float(pt["tau"]["re"]), float(pt["tau"]["im"])
            if not (re_min <= re <= re_max and im_min <= im <= im_max):
                problems.append(f"point {pt['coords']} lies outside the window")
    if cmd.config[0] == WORKED_EXAMPLE and height in CM_COUNTS:
        expected = CM_COUNTS[height]
        if window is None and res["count"] != expected:
            problems.append(f"{res['count']} CM points at height {height}, "
                            f"expected {expected}")
        if window is not None and res["count"] > expected:
            problems.append("window holds more points than the whole box")
    if res["count"] < 1:
        problems.append("no CM point found")


def _check_units(cmd, res, problems):
    height = int(_option(cmd, "--height"))
    coords = [tuple(u["coords"]) for u in res["units"]]
    if res["count"] != len(coords):
        problems.append("count disagrees with the listed units")
    # u is a unit exactly when -u is; 1 and -1 are always present
    if set(coords) != {tuple(-c for c in u) for u in coords}:
        problems.append("unit set is not closed under negation")
    if res["count"] < 2:
        problems.append("fewer than two units")
    if cmd.config[0] == WORKED_EXAMPLE and height in UNIT_COUNTS \
            and res["count"] != UNIT_COUNTS[height]:
        problems.append(f"{res['count']} units at height {height}, "
                        f"expected {UNIT_COUNTS[height]}")
    if "kept" in res:
        if not {tuple(k) for k in res["kept"]} <= set(coords):
            problems.append("congruence filter kept a non-unit")
        if res["kept_count"] != len(res["kept"]) or res["kept_count"] < 1:
            problems.append("congruence filter count is wrong")


def _check_fiber(cmd, res, problems):
    if res["verdict"] != "NonSplit" or res["h0"] != 1:
        problems.append(f"fiber verdict {res['verdict']} h0={res['h0']}, "
                        "expected NonSplit with h0 = 1")
    if not _nonzero(res["certificate"]["det_witness"]):
        problems.append("fiber witness is zero")


def _check_curve(cmd, res, problems):
    if res["verdict"] != "Split" or res["h0"] != 2:
        problems.append(f"curve verdict {res['verdict']} h0={res['h0']}, "
                        "expected Split with h0 = 2")
    if not _complex_nonzero(res["dphi"]):
        problems.append("dphi is zero")


def _check_classify(cmd, res, problems):
    if res["verdict"] != cmd.expect:
        problems.append(f"classify verdict {res['verdict']}, "
                        f"expected {cmd.expect}")


def _check_suite(cmd, res, problems):
    if res["pass"] is not True or not all(
            s["pass"] is True for s in res["suites"].values()):
        problems.append("property suite failed")
    if sorted(res["suites"]) != ["cocycle", "isogeny", "riemann"]:
        problems.append("suite all did not run all three suites")


def _target(cmd):
    return math.prod(RAMIFIED[cmd.config[0]])


def _check_algebra(cmd, res, problems):
    if tuple(res["ramified"]) != RAMIFIED[cmd.config[0]]:
        problems.append(f"ramified {res['ramified']}, "
                        f"expected {list(RAMIFIED[cmd.config[0]])}")
    if not (res["division"] is True and res["indefinite"] is True):
        problems.append("algebra is not an indefinite division algebra")


def _check_saturate(cmd, res, problems):
    if int(res["disc_after"]) != _target(cmd) or res["maximal"] is not True:
        problems.append(f"disc_after {res['disc_after']}, maximal "
                        f"{res['maximal']}; expected {_target(cmd)} and maximal")
    if not int(res["disc_before"]) > int(res["disc_after"]):
        problems.append("saturation did not enlarge the standard order")


def _check_maximal(cmd, res, problems):
    if res["maximal"] is not True or int(res["reduced_discriminant"]) != \
            _target(cmd) or int(res["target"]) != _target(cmd):
        problems.append("order is not certified maximal at the ramified "
                        "product")


def _check_verify(cmd, res, problems):
    if res["is_order"] is not True or res["problems"]:
        problems.append("closure certificate failed")


def _check_disc(cmd, res, problems):
    if int(res["reduced_discriminant"]) != _target(cmd):
        problems.append(f"discriminant {res['reduced_discriminant']}, "
                        f"expected {_target(cmd)}")


SEMANTIC = {
    "cm enumerate": _check_cm, "units": _check_units,
    "fiber h0": _check_fiber, "curve split": _check_curve,
    "classify": _check_classify, "suite all": _check_suite,
    "algebra check": _check_algebra, "order saturate": _check_saturate,
    "order maximal": _check_maximal, "order verify": _check_verify,
    "order disc": _check_disc,
}


def check_report(cmd, report, digests):
    """Problems found in one report; an empty list means it is correct."""
    problems = []
    if report.get("schema") != 1 or report.get("command") != cmd.kind:
        return [f"report for {report.get('command')!r}, expected {cmd.kind!r}"]
    expected = digests.get(cmd.key)
    if expected is None:
        problems.append("no reference digest recorded for this command")
    elif digest(report) != expected:
        problems.append("report differs from the recorded reference")
    try:
        SEMANTIC[cmd.kind](cmd, report["results"], problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed results: {type(exc).__name__}: {exc}")
    return problems
