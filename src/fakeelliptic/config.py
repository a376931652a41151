"""Run configuration: a plain key-value text format with exact rationals.

Rationals are written as strings ("3", "-1", "3/2") so that exactness
survives serialization; complex values entering through the command line
use "re+im i" notation and serialize to {re, im} pairs of decimal
strings.  Unknown keys and malformed values fail with the line number.
mpmath and `family` are imported only where they are used, so that the
exact commands never load them.
"""

import os
from fractions import Fraction

from .exactlinalg import (DEFAULT_PRECISION, DEFAULT_TOLERANCE, resolution,
                          tolerance_at)
from .orders import NotAnOrder, OrderLattice, is_order, saturate, standard_order
from .quaternions import AlgebraParams, QuatElement

PRECISION_ENV = "FAKEELLIPTIC_PRECISION"

DEFAULT_CONFIG_TEXT = """\
# the worked example: B = (3, -1 / Q) with its maximal order
algebra.a = 3
algebra.b = -1
order = saturate-from-standard
# rho = y, the default polarization direction
polarization.rho = 0, 0, 1, 0
# precision defaults to 128 bits, or the FAKEELLIPTIC_PRECISION variable;
# tolerance to 1/100000000000000000000 where the precision resolves it
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


def _fraction_list(text, count, line=None):
    parts = [p for p in text.split(",")]
    if len(parts) != count:
        raise ConfigError(f"expected {count} comma-separated values", line)
    return tuple(_fraction(p, line) for p in parts)


def parse_complex(text):
    """Complex scalar from "1+2i", "i", "2i", "-0.5", or "re,im" notation."""
    import mpmath
    s = text.strip().lower().replace(" ", "")
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return mpmath.mpc(mpmath.mpf(re_s), mpmath.mpf(im_s))
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex value {text!r}") from None
    return mpmath.mpc(z.real, z.imag)


def complex_pair(z):
    """{re, im} pair of 20-digit decimal strings, the report form of
    complex values."""
    import mpmath
    z = mpmath.mpc(z)
    return {"re": mpmath.nstr(z.real, 20), "im": mpmath.nstr(z.imag, 20)}


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
            precision = int(os.environ.get(PRECISION_ENV, DEFAULT_PRECISION))
        if precision < 16:
            raise ConfigError("precision must be at least 16 bits")
        self.precision = precision
        if tolerance is None:
            tolerance = tolerance_at(DEFAULT_TOLERANCE, precision)
        self.tolerance = Fraction(tolerance)
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if self.tolerance < resolution(precision):
            raise ConfigError(
                f"tolerance {self.tolerance} is finer than {precision}-bit "
                f"arithmetic resolves (2^-{3 * precision // 4}); raise the "
                "precision or leave the tolerance to its default")
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
        try:
            kwargs["precision"] = int(v)
        except ValueError:
            raise ConfigError(f"precision must be an integer, got {v!r}",
                              lines["precision"]) from None
    if (v := take("tolerance")) is not None:
        kwargs["tolerance"] = _fraction(v, lines["tolerance"])
    if (v := take("seed")) is not None:
        try:
            kwargs["seed"] = int(v)
        except ValueError:
            raise ConfigError(f"seed must be an integer, got {v!r}",
                              lines["seed"]) from None

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
