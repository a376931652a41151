import math
from fractions import Fraction

import mpmath
import pytest

from fakeelliptic.config import (Config, ConfigError, DEFAULT_CONFIG_TEXT,
                                 DEFAULT_TOLERANCE, MAX_PRECISION,
                                 PRECISION_ENV, complex_pair,
                                 config_from_dict, default_config,
                                 load_config, parse_complex, parse_config)
from fakeelliptic.orders import (NotAnOrder, is_order, reduced_discriminant,
                                 standard_order)
from fakeelliptic.quaternions import AlgebraParams, ramified_primes


def test_default_config(monkeypatch):
    monkeypatch.delenv(PRECISION_ENV, raising=False)
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
    assert config_from_dict(cfg.as_dict()) == cfg


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
    cfg = Config(a=Fraction(3, 2), b=-1, order_mode="explicit",
                 order_basis=rows)
    with pytest.raises(NotAnOrder, match=r"generator \(0, 1, 0, 0\) is not"):
        cfg.build_order()
    lattice = cfg.build_order(certify=False)
    assert lattice.basis == [[Fraction(c) for c in row] for row in rows]
    assert not is_order(lattice)[0]


def test_validation_in_constructor():
    with pytest.raises(ConfigError, match="precision"):
        Config(precision=8)
    with pytest.raises(ConfigError, match="tolerance"):
        Config(tolerance=0)
    with pytest.raises(ConfigError, match="one of"):
        Config(order_mode="other")
    # a square a only fails when the algebra is built
    cfg = Config(a=4)
    with pytest.raises(ConfigError, match="square"):
        cfg.algebra()
    # and keeps its message through the squarefree normalization
    for kwargs, message in (({"a": Fraction(9, 4)}, "square"),
                            ({"a": 0}, "positive"), ({"b": 0}, "negative")):
        with pytest.raises(ConfigError, match=message):
            Config(**kwargs).algebra()


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv(PRECISION_ENV, "256")
    assert default_config().precision == 256
    # an explicit precision line wins over the environment
    assert parse_config("precision = 64\n").precision == 64
    monkeypatch.delenv(PRECISION_ENV)
    assert default_config().precision == 128


def test_precision_has_a_ceiling(monkeypatch):
    assert Config(precision=MAX_PRECISION).precision == 4096
    for build in (lambda: Config(precision=MAX_PRECISION + 1),
                  lambda: parse_config("precision = 20000000\n")):
        with pytest.raises(ConfigError,
                           match="precision must be at most 4096 bits"):
            build()
    monkeypatch.setenv(PRECISION_ENV, "20000000")
    with pytest.raises(ConfigError, match="at most 4096 bits"):
        default_config()


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


@pytest.mark.parametrize("a,b", [(2, -9), (5, -18), (18, -7),
                                 (Fraction(3, 2), -1)])
def test_standard_order_of_non_squarefree_parameters(a, b):
    # 9 | a or b used to end in SearchExhausted, a = 3/2 in NotAnOrder; the
    # squarefree representatives give the same algebra
    cfg = Config(a=a, b=b)
    params = cfg.algebra()
    assert (params.a.denominator, params.b.denominator) == (1, 1)
    assert ramified_primes(params) == ramified_primes(AlgebraParams(a, b))
    order = cfg.build_order()
    assert reduced_discriminant(order) == math.prod(ramified_primes(params))
    assert cfg.as_dict()["algebra.a"] == str(Fraction(a))


def test_explicit_order_keeps_parameters():
    rows = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    cfg = Config(a=12, b=-9, order_mode="explicit", order_basis=rows)
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
    assert config_from_dict(cfg.as_dict()) == cfg


def test_tolerance_finer_than_the_precision_is_accepted():
    for prec, tol in ((16, Fraction(1, 10 ** 20)), (64, Fraction(1, 10 ** 20)),
                      (64, Fraction(1, 2 ** 4096))):
        cfg = Config(precision=prec, tolerance=tol)
        assert cfg.tolerance == tol
        assert cfg.as_dict()["tolerance"] == str(tol)
        assert config_from_dict(cfg.as_dict()) == cfg
    cfg = parse_config("precision = 64\ntolerance = 1/100000000000000000000\n")
    assert cfg.tolerance == Fraction(1, 10 ** 20)
    for text in ("tolerance = 0\n", "tolerance = -1/2\n"):
        with pytest.raises(ConfigError, match="tolerance must be positive"):
            parse_config(text)
