"""Run configuration: a plain key-value text format with exact rationals.

Rationals are written as strings ("3", "-1", "3/2") so that exactness
survives serialization; complex values entering through the command line
use "re+im i" notation and parse to exact values.  `Config(...)` reads
and checks each value, its text too, once: every exact value through
`_fraction`, which refuses a decimal exponent beyond MAX_EXPONENT, and
every config rational or `--mu` coordinate (echoed as a fraction) through
`_echoable`, which refuses one beyond MAX_DIGITS digits.  `parse_config`
reads the `key = value` lines, checks the keys and adds its line to each
error.  Only `Config.polarization` imports `family`, and nothing here
imports mpmath, so that the exact commands never load them.
"""

import operator
import re
from fractions import Fraction

from .exactlinalg import DEFAULT_PRECISION, QuadComplex
from .orders import (OrderLattice, certified, maximal_discriminant, saturate,
                     standard_order)
from .quaternions import AlgebraParams, QuatElement

# bits, read only by `cm enumerate` and `curve split`: on (3, -1) the 60
# CM points at height 4 take 0.09 s at 4096 bits and 5.6 s at 65536
MAX_PRECISION = 4096
# the largest decimal exponent read; on a 2-vCPU VM, Fraction("1e10000")
# takes 0.3 ms and Fraction("1e1000000") 0.6 s
MAX_EXPONENT = 10000
# compiled by `re` at its first use, like _IMAG_TERM, not at import
_EXPONENT = r"e([-+]?\d[\d_]*)$"
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
# the `Config` argument of each config key but `order` and `order.basis.i`
_ARGUMENTS = {"algebra.a": "a", "algebra.b": "b",
              "polarization.rho": "rho_coords", "precision": "precision",
              "tolerance": "tolerance", "seed": "seed"}


class ConfigError(Exception):
    """Malformed configuration, located by config key or line number."""

    def __init__(self, message, line=None, key=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key


def _shown(text):
    """repr(text) for an error message: beyond MAX_ECHO, a prefix and length."""
    if len(text) <= MAX_ECHO:
        return repr(text)
    return f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


def _fraction(value):
    """The exact rational of a number or of a decimal or "p/q" text, the one
    reader of every exact value given by a user; a decimal exponent beyond
    MAX_EXPONENT is refused before `Fraction` builds its power of ten."""
    if not isinstance(value, str):
        return Fraction(value)
    text = value.strip()
    try:
        exp = ("e" in text or "E" in text) and re.search(
            _EXPONENT, text, re.IGNORECASE)
        if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
            raise ConfigError(f"the exponent of {_shown(text)} lies beyond "
                              f"+-{MAX_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected an exact rational, got {_shown(text)}"
                          ) from None


def _echoable(x):
    """x, refused beyond MAX_DIGITS digits in numerator or denominator."""
    if max(abs(x.numerator), x.denominator) >= _DIGITS_BOUND:
        raise ConfigError(f"a numerator or denominator has more than "
                          f"{MAX_DIGITS} digits")
    return x


def _integer(value, name):
    """The int of config key `name`, or of its decimal text, of at most
    MAX_DIGITS digits; a float or Fraction is refused, not truncated."""
    text = isinstance(value, str)
    # int() refuses such text too, so its digits are counted first
    long = text and sum(c.isdigit() for c in value) > MAX_DIGITS
    if not long:
        try:
            value = int(value) if text else int(operator.index(value))
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be an integer, got "
                              f"{_shown(str(value))}", key=name) from None
    if long or abs(value) >= _DIGITS_BOUND:
        raise ConfigError(f"{name} has more than {MAX_DIGITS} digits",
                          key=name)
    return value


def _fraction_list(value, count):
    """count exact rationals, from a sequence or comma-separated text."""
    parts = value.split(",") if isinstance(value, str) else tuple(value)
    if len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated values")
    return tuple(map(_fraction, parts))


def _exact(key, value, count=None):
    """The config rational of a value or its text, or `count` of them; each
    is echoed, so bounded by `_echoable`.  A ConfigError names the key."""
    try:
        if count is None:
            return _echoable(_fraction(value))
        return tuple(map(_echoable, _fraction_list(value, count)))
    except ConfigError as exc:
        exc.key = key
        raise


# the imaginary term of "a+bi" notation, unsigned, as complex() reads it
_IMAG_TERM = r"((?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)j$"


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
        term = re.search(_IMAG_TERM, s)
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


class Config:
    """A run configuration.  Each argument is a value or its config text,
    read and checked here once; a ConfigError names the argument's key."""
    __slots__ = ("a", "b", "order_basis", "rho_coords", "precision",
                 "tolerance", "seed")

    def __init__(self, a=Fraction(3), b=Fraction(-1), order_basis=None,
                 rho_coords=None, precision=DEFAULT_PRECISION, tolerance=None,
                 seed=0):
        self.a = _exact("algebra.a", a)
        self.b = _exact("algebra.b", b)
        if order_basis is not None:
            # every row given is read before the missing ones are named
            rows = [row if row is None else _exact(f"order.basis.{i}", row, 4)
                    for i, row in enumerate(order_basis, start=1)]
            if len(rows) > 4:
                raise ConfigError(f"a basis has four rows, got {len(rows)}",
                                  key="order.basis.5")
            missing = [i for i in (1, 2, 3, 4)
                       if i > len(rows) or rows[i - 1] is None]
            if missing:
                raise ConfigError(f"order.basis rows missing: {missing}")
            order_basis = tuple(rows)
        self.order_basis = order_basis
        if rho_coords is not None:
            rho_coords = _exact("polarization.rho", rho_coords, 4)
        self.rho_coords = rho_coords
        self.precision = bits = _integer(precision, "precision")
        if not 16 <= bits <= MAX_PRECISION:
            bound = "at least 16" if bits < 16 else f"at most {MAX_PRECISION}"
            raise ConfigError(f"precision must be {bound} bits",
                              key="precision")
        self.tolerance = _exact("tolerance", DEFAULT_TOLERANCE
                                if tolerance is None else tolerance)
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive", key="tolerance")
        self.seed = _integer(seed, "seed")

    @property
    def order_mode(self):
        """"explicit" exactly when `order_basis` is given."""
        return _ORDER_MODES[self.order_basis is not None]

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
        certifier itself (`order verify`) and for `order maximal`, which
        refuses a split algebra before it certifies.
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
        rho = (default_rho(order.params) if self.rho_coords is None
               else QuatElement(order.params, *self.rho_coords))
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
    seen, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"duplicate key {_shown(key)}", lineno)
        seen[key] = value
        lines[key] = lineno

    kwargs = {arg: seen.pop(key) for key, arg in _ARGUMENTS.items()
              if key in seen}
    rows = [seen.pop(f"order.basis.{i}", None) for i in (1, 2, 3, 4)]
    if rows != [None] * 4:
        kwargs["order_basis"] = rows
    try:
        cfg = Config(**kwargs)
    except ConfigError as exc:
        raise ConfigError(str(exc), lines.get(exc.key), exc.key) from None
    mode, line = seen.pop("order", cfg.order_mode), lines.get("order")
    if cfg.order_basis is not None and mode != "explicit":
        raise ConfigError("order.basis rows require order = explicit", line)
    if mode not in _ORDER_MODES:
        raise ConfigError(f"order must be one of {_ORDER_MODES}", line)
    if mode != cfg.order_mode:
        raise ConfigError("explicit order needs the four basis rows", line)
    if seen:
        key = next(iter(seen))
        raise ConfigError(f"unknown key {_shown(key)}", lines[key])
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {path}: not UTF-8 text") from None
    return parse_config(text)


def default_config():
    return parse_config(DEFAULT_CONFIG_TEXT)
