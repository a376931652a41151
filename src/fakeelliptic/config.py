"""Run configuration: a plain key-value text format with exact rationals.

Rationals are written as strings ("3", "-1", "3/2") so that exactness
survives serialization; complex values entering through the command line
use "re+im i" notation, parse to exact values and serialize to {re, im}
pairs of decimal strings.  Unknown keys and malformed values fail with
the line number.  `family` is imported only where it is used, and mpmath
not at all, so that the exact commands never load them.
"""

import os
import re
from fractions import Fraction

from .exactlinalg import DEFAULT_PRECISION, QuadComplex, decimal_str
from .orders import NotAnOrder, OrderLattice, is_order, saturate, standard_order
from .quaternions import AlgebraParams, QuatElement

PRECISION_ENV = "FAKEELLIPTIC_PRECISION"
# bits, read only by `cm enumerate` and `curve split`: on (3, -1) the 60
# CM points at height 4 take 0.09 s at 4096 bits and 5.6 s at 65536
MAX_PRECISION = 4096
# the default `tolerance`, echoed in every report; no verdict reads it
DEFAULT_TOLERANCE = Fraction(1, 10 ** 20)

DEFAULT_CONFIG_TEXT = """\
# the worked example: B = (3, -1 / Q) with its maximal order
algebra.a = 3
algebra.b = -1
order = saturate-from-standard
# rho = y, the default polarization direction
polarization.rho = 0, 0, 1, 0
# precision defaults to 128 bits, or the FAKEELLIPTIC_PRECISION variable;
# tolerance to 1/100000000000000000000 (echoed; no verdict reads it)
seed = 0
"""

_ORDER_MODES = ("saturate-from-standard", "explicit")


class ConfigError(Exception):
    """Malformed configuration, located by line number where possible."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _fraction(text, line=None):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected an exact rational, got {text.strip()!r}",
                          line) from None


def _integer(text, name, line=None):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {text!r}",
                          line) from None


def _fraction_list(text, count, line=None):
    parts = [p for p in text.split(",")]
    if len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated values", line)
    return tuple(_fraction(p, line) for p in parts)


# the imaginary term of "a+bi" notation, unsigned, as complex() reads it
_IMAG_TERM = re.compile(r"((?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)j$")


def parse_complex(text):
    """Exact complex scalar from "1+2i", "i", "2i", "-0.5", or "re,im":
    the doubles `complex()` reads, or the decimals re and im exactly.
    A nonzero imaginary term that underflows to the double 0 is refused."""
    s = text.strip().lower().replace(" ", "")
    try:
        if "," in s:
            return QuadComplex(*(Fraction(p) for p in s.split(",", 1)))
        s = s.replace("i", "j")
        z = QuadComplex.of(complex(s))
    except (ValueError, OverflowError):
        raise ValueError(f"cannot parse complex value {text!r}") from None
    term = _IMAG_TERM.search(s)
    if z.ia == 0 and term and Fraction(term.group(1)) != 0:
        raise ValueError(f"the imaginary part of {text!r} underflows to 0 as "
                         "a double; write the value as re,im (as in "
                         "0.3,1e-400), which reads both decimals exactly")
    return z


def complex_pair(z):
    """{re, im} pair of 20-digit decimal strings, the report form of
    complex values (exact, or an mpc printed as `mpmath.nstr` does)."""
    z = QuadComplex.of(z)
    return {"re": decimal_str(z.real, 20), "im": decimal_str(z.imag, 20)}


class Config:
    __slots__ = ("a", "b", "order_mode", "order_basis", "rho_coords",
                 "precision", "tolerance", "seed")

    def __init__(self, a=Fraction(3), b=Fraction(-1),
                 order_mode="saturate-from-standard", order_basis=None,
                 rho_coords=None, precision=None, tolerance=None, seed=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        if order_mode not in _ORDER_MODES:
            raise ConfigError(f"order must be one of {_ORDER_MODES}")
        if order_mode == "explicit" and order_basis is None:
            raise ConfigError("explicit order needs the four basis rows")
        self.order_mode = order_mode
        self.order_basis = order_basis
        self.rho_coords = rho_coords
        if precision is None:
            env = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
            precision = _integer(env, PRECISION_ENV)
        if precision < 16:
            raise ConfigError("precision must be at least 16 bits")
        if precision > MAX_PRECISION:
            raise ConfigError(f"precision must be at most {MAX_PRECISION} bits")
        self.precision = precision
        self.tolerance = Fraction(DEFAULT_TOLERANCE if tolerance is None
                                  else tolerance)
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        self.seed = int(seed)

    # -- certified object builders

    def algebra(self):
        """The algebra (a, b / Q) the order lives in.

        From the standard order, (a, b) are first replaced by the squarefree
        integers of their square classes: the algebra is the same, and
        Z<1, x, y, xy> is then an order whose saturation reaches a maximal
        one.  An explicit basis is written in the coordinates of the given
        (a, b), so those stay as they are.  `as_dict` echoes the input.
        """
        try:
            params = AlgebraParams(self.a, self.b)
            if self.order_mode == "saturate-from-standard":
                params = params.squarefree()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return params

    def build_order(self, certify=True):
        """The configured order; an explicit basis is certified by `is_order`.

        certify=False returns an explicit lattice as it is, for the
        certifier itself (`order verify`).
        """
        params = self.algebra()
        if self.order_mode == "saturate-from-standard":
            return saturate(standard_order(params))
        order = OrderLattice(params, [list(row) for row in self.order_basis])
        if certify:
            ok, problems = is_order(order)
            if not ok:
                raise NotAnOrder("; ".join(problems))
        return order

    def polarization(self, order):
        from .family import PolarizationData, default_rho
        params = order.params
        if self.rho_coords is None:
            rho = default_rho(params)
        else:
            rho = QuatElement(params, *self.rho_coords)
        return PolarizationData.with_minimal_scale(rho, order)

    # -- serialization

    def as_dict(self):
        """String-valued mapping; parses back to an equivalent Config."""
        out = {"algebra.a": str(self.a), "algebra.b": str(self.b),
               "order": self.order_mode,
               "precision": str(self.precision),
               "tolerance": str(self.tolerance),
               "seed": str(self.seed)}
        if self.order_basis is not None:
            for i, row in enumerate(self.order_basis, start=1):
                out[f"order.basis.{i}"] = ", ".join(str(c) for c in row)
        if self.rho_coords is not None:
            out["polarization.rho"] = ", ".join(str(c) for c in self.rho_coords)
        return out

    def dumps(self):
        return "".join(f"{k} = {v}\n" for k, v in self.as_dict().items())

    def __eq__(self, other):
        if not isinstance(other, Config):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


def parse_config(text):
    """Parse key-value configuration text; errors carry the line number."""
    seen = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        seen[key] = value
        lines[key] = lineno

    def take(key, default=None):
        return seen.pop(key, default)

    kwargs = {}
    if (v := take("algebra.a")) is not None:
        kwargs["a"] = _fraction(v, lines["algebra.a"])
    if (v := take("algebra.b")) is not None:
        kwargs["b"] = _fraction(v, lines["algebra.b"])

    basis_rows = {}
    for i in (1, 2, 3, 4):
        key = f"order.basis.{i}"
        if (v := take(key)) is not None:
            basis_rows[i] = _fraction_list(v, 4, lines[key])
    mode = take("order")
    if basis_rows:
        if sorted(basis_rows) != [1, 2, 3, 4]:
            missing = [i for i in (1, 2, 3, 4) if i not in basis_rows]
            raise ConfigError(f"order.basis rows missing: {missing}")
        if mode not in (None, "explicit"):
            raise ConfigError(
                "order.basis rows require order = explicit",
                lines.get("order"))
        kwargs["order_mode"] = "explicit"
        kwargs["order_basis"] = tuple(basis_rows[i] for i in (1, 2, 3, 4))
    elif mode is not None:
        if mode not in _ORDER_MODES:
            raise ConfigError(f"order must be one of {_ORDER_MODES}",
                              lines["order"])
        if mode == "explicit":
            raise ConfigError("explicit order needs the four basis rows",
                              lines["order"])
        kwargs["order_mode"] = mode

    if (v := take("polarization.rho")) is not None:
        kwargs["rho_coords"] = _fraction_list(v, 4, lines["polarization.rho"])
    if (v := take("precision")) is not None:
        kwargs["precision"] = _integer(v, "precision", lines["precision"])
    if (v := take("tolerance")) is not None:
        kwargs["tolerance"] = _fraction(v, lines["tolerance"])
    if (v := take("seed")) is not None:
        kwargs["seed"] = _integer(v, "seed", lines["seed"])

    if seen:
        key = next(iter(seen))
        raise ConfigError(f"unknown key {key!r}", lines[key])
    return Config(**kwargs)


def config_from_dict(d):
    """Inverse of Config.as_dict."""
    return parse_config("".join(f"{k} = {v}\n" for k, v in d.items()))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text)


def default_config():
    return parse_config(DEFAULT_CONFIG_TEXT)
