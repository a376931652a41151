"""Run configuration: a plain key-value text format with exact rationals.

Rationals are written as strings ("3", "-1", "3/2") so that exactness
survives serialization; complex values entering through the command line
use "re+im i" notation, parse to exact values and serialize to {re, im}
pairs of decimal strings.  Every exact value is read by `_fraction`,
which refuses a decimal exponent beyond MAX_EXPONENT; `_echoable`, which
`_fraction` and `Config(...)` call, refuses a config rational or `--mu`
coordinate (echoed as a fraction) beyond MAX_DIGITS digits.  The working
precision comes only from the `precision` key, 128 bits by default.
Unknown keys, malformed values and values out of range fail with the
line number.  `family` is imported only where it is used, and mpmath not
at all, so that the exact commands never load them.
"""

import operator
import re
from fractions import Fraction

from .exactlinalg import DEFAULT_PRECISION, QuadComplex, decimal_str
from .orders import (OrderLattice, certified, maximal_discriminant, saturate,
                     standard_order)
from .quaternions import AlgebraParams, QuatElement

# bits, read only by `cm enumerate` and `curve split`: on (3, -1) the 60
# CM points at height 4 take 0.09 s at 4096 bits and 5.6 s at 65536
MAX_PRECISION = 4096
# the largest decimal exponent read; on a 2-vCPU VM, Fraction("1e10000")
# takes 0.3 ms and Fraction("1e1000000") 0.6 s
MAX_EXPONENT = 10000
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)$", re.IGNORECASE)
# the most digits in a numerator or denominator that a report echoes with
# `str`: Python's default int-to-str limit
MAX_DIGITS = 4300
_DIGITS_BOUND = 10 ** MAX_DIGITS
# the most characters of a user's text that an error message echoes
MAX_ECHO = 32
# the default `tolerance`, echoed in every report; no verdict reads it
DEFAULT_TOLERANCE = Fraction(1, 10 ** 20)

DEFAULT_CONFIG_TEXT = """\
# the worked example: B = (3, -1 / Q) with its maximal order
algebra.a = 3
algebra.b = -1
order = saturate-from-standard
# rho = y, the default polarization direction
polarization.rho = 0, 0, 1, 0
# precision defaults to 128 bits and tolerance to
# 1/100000000000000000000 (echoed; no verdict reads it)
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


def _shown(text):
    """repr(text) for an error message: beyond MAX_ECHO, a prefix and length."""
    if len(text) <= MAX_ECHO:
        return repr(text)
    return f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


def _fraction(text, line=None, printed=False):
    """The exact rational of a decimal or "p/q" text, the one reader of
    every exact value typed by a user; a decimal exponent beyond
    MAX_EXPONENT is refused before `Fraction` builds its power of ten.
    A value the report echoes with `str` (printed) is refused beyond
    MAX_DIGITS digits in its numerator or denominator."""
    text = text.strip()
    try:
        exp = _EXPONENT.search(text)
        if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
            raise ConfigError(f"the exponent of {_shown(text)} lies beyond "
                              f"+-{MAX_EXPONENT}", line)
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected an exact rational, got {_shown(text)}",
                          line) from None
    return _echoable(x, line) if printed else x


def _echoable(x, line=None):
    """x, refused beyond MAX_DIGITS digits in numerator or denominator."""
    if max(abs(x.numerator), x.denominator) >= _DIGITS_BOUND:
        raise ConfigError(f"a numerator or denominator has more than "
                          f"{MAX_DIGITS} digits", line)
    return x


def _integer(value, name, line=None):
    """An int, or the text of a decimal integer; a float or Fraction is
    refused, not truncated."""
    text = isinstance(value, str)
    if text and sum(c.isdigit() for c in value) > MAX_DIGITS:
        # int() refuses it too
        raise ConfigError(f"{name} has more than {MAX_DIGITS} digits", line)
    try:
        return int(value) if text else int(operator.index(value))
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got "
                          f"{_shown(str(value))}", line) from None


def _precision(bits, line=None):
    if bits < 16:
        raise ConfigError("precision must be at least 16 bits", line)
    if bits > MAX_PRECISION:
        raise ConfigError(f"precision must be at most {MAX_PRECISION} bits",
                          line)
    return bits


def _tolerance(x, line=None):
    if x <= 0:
        raise ConfigError("tolerance must be positive", line)
    return x


def _order_mode(mode, basis, line=None):
    if mode not in _ORDER_MODES:
        raise ConfigError(f"order must be one of {_ORDER_MODES}", line)
    if mode == "explicit" and basis is None:
        raise ConfigError("explicit order needs the four basis rows", line)
    return mode


def _fraction_list(text, count, line=None, printed=False):
    parts = [p for p in text.split(",")]
    if len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated values", line)
    return tuple(_fraction(p, line, printed) for p in parts)


# the imaginary term of "a+bi" notation, unsigned, as complex() reads it
_IMAG_TERM = re.compile(r"((?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)j$")


def parse_complex(text):
    """Exact complex scalar from "1+2i", "i", "2i", "-0.5", or "re,im":
    the doubles `complex()` reads, or the decimals re and im exactly.
    A nonzero imaginary term that underflows to the double 0 is refused."""
    s = text.strip().lower().replace(" ", "")
    try:
        if "," in s:
            return QuadComplex(*(_fraction(p) for p in s.split(",", 1)))
        s = s.replace("i", "j")
        z = QuadComplex.of(complex(s))
        term = _IMAG_TERM.search(s)
        underflow = z.ia == 0 and term and _fraction(term.group(1)) != 0
    except ConfigError as exc:
        raise ValueError(f"cannot parse complex value {_shown(text)}: "
                         f"{exc}") from None
    except (ValueError, OverflowError):
        raise ValueError(
            f"cannot parse complex value {_shown(text)}") from None
    if underflow:
        raise ValueError(f"the imaginary part of {_shown(text)} underflows to "
                         "0 as a double; write the value as re,im (as in "
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
                 rho_coords=None, precision=DEFAULT_PRECISION, tolerance=None,
                 seed=0):
        self.a = _echoable(Fraction(a))
        self.b = _echoable(Fraction(b))
        self.order_mode = _order_mode(order_mode, order_basis)
        for row in (*(order_basis or ()), rho_coords or ()):
            for c in row:
                _echoable(Fraction(c))
        self.order_basis = order_basis
        self.rho_coords = rho_coords
        self.precision = _precision(_integer(precision, "precision"))
        tolerance = DEFAULT_TOLERANCE if tolerance is None else tolerance
        self.tolerance = _tolerance(_echoable(Fraction(tolerance)))
        self.seed = _integer(seed, "seed")

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
            # refuse a split algebra first: its saturation may not end
            maximal_discriminant(params)
            return saturate(standard_order(params))
        order = OrderLattice(params, [list(row) for row in self.order_basis])
        return certified(order) if certify else order

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
            raise ConfigError(f"duplicate key {_shown(key)}", lineno)
        seen[key] = value
        lines[key] = lineno

    def take(key, default=None):
        return seen.pop(key, default)

    kwargs = {}
    if (v := take("algebra.a")) is not None:
        kwargs["a"] = _fraction(v, lines["algebra.a"], printed=True)
    if (v := take("algebra.b")) is not None:
        kwargs["b"] = _fraction(v, lines["algebra.b"], printed=True)

    basis_rows = {}
    for i in (1, 2, 3, 4):
        key = f"order.basis.{i}"
        if (v := take(key)) is not None:
            basis_rows[i] = _fraction_list(v, 4, lines[key], printed=True)
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
        kwargs["order_mode"] = _order_mode(mode, None, lines["order"])

    if (v := take("polarization.rho")) is not None:
        kwargs["rho_coords"] = _fraction_list(v, 4, lines["polarization.rho"],
                                             printed=True)
    if (v := take("precision")) is not None:
        line = lines["precision"]
        kwargs["precision"] = _precision(_integer(v, "precision", line), line)
    if (v := take("tolerance")) is not None:
        line = lines["tolerance"]
        kwargs["tolerance"] = _tolerance(_fraction(v, line, printed=True), line)
    if (v := take("seed")) is not None:
        kwargs["seed"] = _integer(v, "seed", lines["seed"])

    if seen:
        key = next(iter(seen))
        raise ConfigError(f"unknown key {_shown(key)}", lines[key])
    return Config(**kwargs)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return parse_config(text)


def default_config():
    return parse_config(DEFAULT_CONFIG_TEXT)
