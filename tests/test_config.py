import inspect
import math
from fractions import Fraction

import mpmath
import pytest

from fakeelliptic import config
from fakeelliptic.config import (Config, ConfigError, DEFAULT_CONFIG_TEXT,
                                 DEFAULT_TOLERANCE, MAX_EXPONENT,
                                 MAX_DIGITS, MAX_PRECISION, _fraction,
                                 default_config, load_config, parse_complex,
                                 parse_config)
from fakeelliptic.exactlinalg import complex_pair
from fakeelliptic.orders import (NotAnOrder, is_order, reduced_discriminant,
                                 saturate, standard_order)
from fakeelliptic.quaternions import (AlgebraParams, AlgebraSplit,
                                      ramified_primes)


def test_default_config():
    cfg = default_config()
    assert cfg.a == 3 and cfg.b == -1
    assert cfg.order_mode == "saturate-from-standard"
    assert cfg.rho_coords == (0, 0, 1, 0)
    assert cfg.precision == 128
    assert cfg.tolerance == Fraction(1, 10 ** 20)
    assert cfg.seed == 0


def test_round_trip():
    cfg = default_config()
    assert parse_config(cfg.dumps()) == cfg
    cfg = Config(precision=200, seed=-7)
    assert parse_config(cfg.dumps()) == cfg
    assert {"precision = 200", "seed = -7"} <= set(cfg.dumps().splitlines())
    # the order mode follows from the basis rows, so an explicit order
    # dumps text that parses back to it
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for cfg in (Config(a=3, b=-1, order_basis=rows),
                Config(a=3, b=-1, order_basis=rows,
                       rho_coords=(0, Fraction(1, 2), 1, 0))):
        assert cfg.order_mode == "explicit"
        assert "order = explicit" in cfg.dumps().splitlines()
        assert parse_config(cfg.dumps()) == cfg
        assert parse_config(cfg.dumps()).build_order() == cfg.build_order()


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("algebra.a = 3\nalgebra.a = 5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("frobnicate = 1\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="exact rational"):
        parse_config("algebra.a = 3.5x\n")
    with pytest.raises(ConfigError, match="comma-separated"):
        parse_config("polarization.rho = 1, 2, 3\n")


def test_parse_order_modes():
    cfg = parse_config("order = saturate-from-standard\n")
    assert cfg.order_mode == "saturate-from-standard"
    with pytest.raises(ConfigError, match="one of"):
        parse_config("order = biggest\n")
    with pytest.raises(ConfigError, match="four basis rows"):
        parse_config("order = explicit\n")
    with pytest.raises(ConfigError, match="missing"):
        parse_config("order.basis.1 = 1, 0, 0, 0\n")
    with pytest.raises(ConfigError, match="require order = explicit"):
        parse_config("order = saturate-from-standard\n"
                     "order.basis.1 = 1, 0, 0, 0\n"
                     "order.basis.2 = 0, 1, 0, 0\n"
                     "order.basis.3 = 0, 0, 1, 0\n"
                     "order.basis.4 = 0, 0, 0, 1\n")


def test_explicit_order_builds():
    cfg = parse_config("order = explicit\n"
                       "order.basis.1 = 1, 0, 0, 0\n"
                       "order.basis.2 = 0, 1, 0, 0\n"
                       "order.basis.3 = 0, 0, 1, 0\n"
                       "order.basis.4 = 0, 0, 0, 1\n")
    order = cfg.build_order()
    assert order == standard_order(cfg.algebra())
    assert reduced_discriminant(order) == 12


def test_explicit_basis_is_certified():
    # over a = 3/2 the standard rows span no order: nrd(x) = -3/2
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    cfg = Config(a=Fraction(3, 2), b=-1, order_basis=rows)
    with pytest.raises(NotAnOrder, match=r"generator \(0, 1, 0, 0\) is not"):
        cfg.build_order()
    lattice = cfg.build_order(certify=False)
    assert lattice.basis == [[Fraction(c) for c in row] for row in rows]
    assert not is_order(lattice)[0]


def test_a_fifth_basis_row_is_refused():
    # dumps() would write order.basis.5, which parse_config refuses
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ConfigError, match="^a basis has four rows, got 5$"
                       ) as exc:
        Config(a=3, b=-1, order_basis=rows + ((1, 1, 1, 1),))
    assert exc.value.key == "order.basis.5"
    # each given row is read first
    for bad in ((0, 0, "x", 0), (0, 0, 0)):
        with pytest.raises(ConfigError) as exc:
            Config(a=3, b=-1, order_basis=rows + (bad,))
        assert exc.value.key == "order.basis.5"
        assert "four rows" not in str(exc.value)


def test_validation_in_constructor():
    # the range rules parse_config applies with the key's line
    with pytest.raises(ConfigError,
                       match="^precision must be at least 16 bits$"):
        Config(precision=8)
    with pytest.raises(ConfigError, match="^tolerance must be positive$"):
        Config(tolerance=0)
    # a square a only fails when the algebra is built
    cfg = Config(a=4)
    with pytest.raises(ConfigError, match="square"):
        cfg.algebra()
    # and keeps its message through the squarefree normalization
    for kwargs, message in (({"a": Fraction(9, 4)}, "square"),
                            ({"a": 0}, "positive"), ({"b": 0}, "negative")):
        with pytest.raises(ConfigError, match=message):
            Config(**kwargs).algebra()


def test_every_exact_reader_bounds_the_exponent():
    # Fraction("1e1000000") takes 0.6 s to build its power of ten, so
    # exponents beyond MAX_EXPONENT are refused before it is built
    assert MAX_EXPONENT == 10000
    assert _fraction("1e10000") == 10 ** 10000
    assert _fraction(" 1E-10_000 ") == Fraction(1, 10 ** 10000)
    for text in ("1e10001", "-2.5E-1_000_000"):
        with pytest.raises(ConfigError, match="lies beyond"):
            _fraction(text)
    for text in ("0,1e10001", "1e-20000,1", "0.3+1e-20000i"):
        with pytest.raises(ValueError, match="cannot parse complex value "
                           ".* lies beyond"):
            parse_complex(text)
    for line in ("algebra.b = -1e20000", "order.basis.1 = 1, 0, 0, 1e20000",
                 "polarization.rho = 0, 0, 1e20000, 0",
                 "tolerance = 1e-20000"):
        with pytest.raises(ConfigError, match="line 2: the exponent"):
            parse_config("seed = 1\n" + line + "\n")
    # Config reads text values with the same reader; Fraction("1e3000000")
    # alone would take seconds
    for kwargs in ({"tolerance": "1e3000000"}, {"a": "1e20000"}):
        with pytest.raises(ConfigError, match="lies beyond"):
            Config(**kwargs)


_HUGE = Fraction(1, 10 ** 5000)
_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@pytest.mark.parametrize("kwargs", [
    {"a": 1 / _HUGE},
    {"b": -_HUGE},
    {"tolerance": _HUGE},
    {"order_basis": (_ROWS[0], _ROWS[1], (0, 0, _HUGE, 0), _ROWS[3])},
    {"rho_coords": (0, 0, 1 / _HUGE, 0)},
], ids=["a", "b", "tolerance", "order_basis", "rho_coords"])
def test_config_refuses_a_value_too_long_to_echo(kwargs):
    # the bound parse_config applies holds for a Config built directly
    with pytest.raises(ConfigError,
                       match="^a numerator or denominator has more than "
                             "4300 digits$"):
        Config(**kwargs)


def test_config_dumps_exactly_the_keys_parse_config_reads():
    # a new field goes into Config, as_dict and parse_config together
    params = inspect.signature(Config).parameters
    assert "order_mode" not in params
    assert set(params) == set(Config.__slots__) == {
        *config._ARGUMENTS.values(), "order_basis"}
    cfg = Config(a=2, b=-5, order_basis=_ROWS, rho_coords=(0, 1, 0, 0),
                 precision=64, tolerance=Fraction(1, 7), seed=3)
    default = Config()
    assert all(getattr(cfg, f) != getattr(default, f) for f in params)
    assert set(cfg.as_dict()) == {*config._ARGUMENTS, "order",
                                  *(f"order.basis.{i}" for i in range(1, 5))}
    assert parse_config(cfg.dumps()) == cfg
    with pytest.raises(ConfigError, match="line 1: unknown key 'order_mode'"):
        parse_config("order_mode = explicit\n")


def test_config_takes_a_value_just_short_of_the_bound():
    cfg = Config(tolerance=Fraction(1, 10 ** 4299), rho_coords=(0, 0, 1, 0))
    assert parse_config(cfg.dumps()) == cfg


@pytest.mark.parametrize("key", ["seed", "precision"])
def test_an_integer_beyond_the_digit_bound_is_not_echoed(key):
    # int() refuses it for its length; the message names the key, not text
    for digits in ("1" + "0" * MAX_DIGITS, "-" + "9" * 5000,
                   "0" * (MAX_DIGITS + 1)):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{key} = {digits}\n")
        assert str(exc.value) == (f"line 1: {key} has more than "
                                  f"{MAX_DIGITS} digits")
    assert parse_config("seed = " + "9" * MAX_DIGITS + "\n").seed == \
        10 ** MAX_DIGITS - 1


def test_an_int_seed_beyond_the_digit_bound_is_refused():
    # as the same seed is refused as text, so dumps() never meets an int
    # that str() refuses
    for seed in (10 ** MAX_DIGITS, -10 ** MAX_DIGITS):
        with pytest.raises(ConfigError) as exc:
            Config(seed=seed)
        assert str(exc.value) == f"seed has more than {MAX_DIGITS} digits"
    cfg = Config(seed=10 ** (MAX_DIGITS - 1))  # MAX_DIGITS digits
    assert parse_config(cfg.dumps()) == cfg


@pytest.mark.parametrize("key, value", [("precision", 100.5), ("seed", 1.5),
                                        ("seed", Fraction(3, 2))])
def test_a_non_integer_precision_or_seed_is_refused(key, value):
    # not truncated, and refused as the text of a config file is
    message = f"{key} must be an integer, got '{value}'"
    with pytest.raises(ConfigError) as exc:
        Config(**{key: value})
    assert str(exc.value) == message
    with pytest.raises(ConfigError) as exc:
        parse_config(f"{key} = {value}\n")
    assert str(exc.value) == "line 1: " + message


def test_precision_has_a_ceiling():
    assert Config(precision=MAX_PRECISION).precision == 4096
    for build in (lambda: Config(precision=MAX_PRECISION + 1),
                  lambda: parse_config("precision = 20000000\n")):
        with pytest.raises(ConfigError,
                           match="precision must be at most 4096 bits"):
            build()


def _parts(z):
    return z.real, z.imag


def test_parse_complex():
    # "a+bi" reads the doubles complex() reads, "re, im" exact decimals
    assert _parts(parse_complex("i")) == (0, 1)
    assert _parts(parse_complex("0.5+2i")) == (Fraction(1, 2), 2)
    assert _parts(parse_complex("-0.5")) == (Fraction(-1, 2), 0)
    assert _parts(parse_complex("2i")) == (0, 2)
    assert _parts(parse_complex("0.3+0.1i")) == (Fraction(0.3), Fraction(0.1))
    assert _parts(parse_complex("1, 2")) == (1, 2)
    assert _parts(parse_complex("0.3,1e-25")) == (Fraction(3, 10),
                                                  Fraction(1, 10 ** 25))
    for text in ("one plus i", "nan+1i", "inf,1", "1,nan", "1e400i", "1,2i"):
        with pytest.raises(ValueError, match="cannot parse complex value"):
            parse_complex(text)


def test_complex_pair():
    pair = complex_pair(mpmath.mpc(0, 2))
    assert pair == {"re": "0.0", "im": "2.0"}
    # a double prints as its mpf; a decimal as itself
    assert complex_pair(parse_complex("0.3+1i")) == {
        "re": mpmath.nstr(mpmath.mpf(0.3), 20), "im": "1.0"}
    assert complex_pair(parse_complex("0.3,1")) == {"re": "0.3", "im": "1.0"}
    assert complex_pair(mpmath.mpf("0.5")) == {"re": "0.5", "im": "0.0"}


def test_polarization_defaults_to_y(max_order):
    cfg = Config()
    pol = cfg.polarization(max_order)
    assert pol.rho.coords() == (0, 0, 1, 0)
    assert pol.scale == 1


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
    p = tmp_path / "ok.cfg"
    p.write_text(DEFAULT_CONFIG_TEXT)
    assert load_config(p) == default_config()


def test_load_config_names_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_bytes(b"\xff\xfe" + DEFAULT_CONFIG_TEXT.encode())
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert str(exc.value) == f"cannot read {p}: not UTF-8 text"


@pytest.mark.parametrize("a,b", [(2, -9), (5, -18), (18, -7),
                                 (Fraction(3, 2), -1)])
def test_standard_order_of_non_squarefree_parameters(a, b):
    # 9 | a or b used to end in SearchExhausted, a = 3/2 in NotAnOrder; the
    # squarefree representatives give the same algebra; (2, -9) and (18, -7)
    # are the split algebras (2, -1) and (2, -7), which the config refuses,
    # while the library still saturates them
    cfg = Config(a=a, b=b)
    params = cfg.algebra()
    assert (params.a.denominator, params.b.denominator) == (1, 1)
    assert ramified_primes(params) == ramified_primes(AlgebraParams(a, b))
    if ramified_primes(params):
        order = cfg.build_order()
    else:
        with pytest.raises(AlgebraSplit):
            cfg.build_order()
        order = saturate(standard_order(params))
    assert reduced_discriminant(order) == math.prod(ramified_primes(params))
    assert cfg.as_dict()["algebra.a"] == str(Fraction(a))


def test_explicit_order_keeps_parameters():
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    cfg = Config(a=12, b=-9, order_basis=rows)
    assert cfg.algebra() == AlgebraParams(12, -9)


@pytest.mark.parametrize("prec,tol", [
    (128, DEFAULT_TOLERANCE), (256, DEFAULT_TOLERANCE),
    (90, DEFAULT_TOLERANCE), (89, DEFAULT_TOLERANCE),
    (64, DEFAULT_TOLERANCE), (16, DEFAULT_TOLERANCE)])
def test_default_tolerance_follows_the_precision(prec, tol):
    # no verdict reads the tolerance, so its default is 1/10^20 at every
    # precision, below 90 bits too (it was 2^-(prec/2) there)
    assert tol == Fraction(1, 10 ** 20)
    cfg = Config(precision=prec)
    assert cfg.tolerance == tol
    assert parse_config(f"precision = {prec}\n").tolerance == tol
    assert cfg.as_dict()["tolerance"] == "1/100000000000000000000"
    assert parse_config(cfg.dumps()) == cfg


def test_tolerance_finer_than_the_precision_is_accepted():
    for prec, tol in ((16, Fraction(1, 10 ** 20)), (64, Fraction(1, 10 ** 20)),
                      (64, Fraction(1, 2 ** 4096))):
        cfg = Config(precision=prec, tolerance=tol)
        assert cfg.tolerance == tol
        assert cfg.as_dict()["tolerance"] == str(tol)
        assert parse_config(cfg.dumps()) == cfg
    cfg = parse_config("precision = 64\ntolerance = 1/100000000000000000000\n")
    assert cfg.tolerance == Fraction(1, 10 ** 20)
    for text in ("tolerance = 0\n", "tolerance = -1/2\n"):
        with pytest.raises(ConfigError, match="tolerance must be positive"):
            parse_config(text)
