import itertools
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest

from fakeelliptic import exactlinalg
from fakeelliptic.config import Config
from fakeelliptic.exactlinalg import QuadExt, to_mpf
from fakeelliptic.quaternions import (FACTOR_LIMIT, INFINITE_PLACE,
                                      AlgebraParams, QuatElement, _factorize,
                                      embed, embed_mpf, hilbert_symbol,
                                      is_indefinite_division, ramified_primes,
                                      symbol_support)
from fakeelliptic.orders import UnitSample, standard_order
from oracles import (hilbert_solvable, hilbert_solvable_real, mat2_det,
                     mat2_mul, mat2_trace)


def test_params_validation():
    AlgebraParams(3, -1)
    AlgebraParams(Fraction(5, 2), Fraction(-1, 3))
    with pytest.raises(ValueError):
        AlgebraParams(4, -1)  # square
    with pytest.raises(ValueError):
        AlgebraParams(-3, -1)
    with pytest.raises(ValueError):
        AlgebraParams(3, 1)


def test_basis_multiplication(params):
    x = QuatElement(params, 0, 1)
    y = QuatElement(params, 0, 0, 1)
    xy = QuatElement(params, 0, 0, 0, 1)
    assert x * y == xy
    assert y * x == -xy
    assert x * x == QuatElement(params, 3)
    assert y * y == QuatElement(params, -1)
    assert xy * xy == QuatElement(params, 3)  # -a*b


def test_conj_trace_norm(params):
    q = QuatElement(params, 1, 2, 3, 4)
    assert q.conj().coords() == (1, -2, -3, -4)
    assert q + q.conj() == QuatElement(params, q.trd())
    y = QuatElement(params, 0, 0, 1)
    assert y.trd() == 0 and y.nrd() == 1
    x = QuatElement(params, 0, 1)
    assert x.nrd() == -3


def test_conj_antiautomorphism(params):
    rng = random.Random(5)
    for _ in range(20):
        p = QuatElement(params, *[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(4)])
        q = QuatElement(params, *[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(4)])
        assert (p * q).conj() == q.conj() * p.conj()
        assert (p * q).nrd() == p.nrd() * q.nrd()
        assert q * q.conj() == QuatElement(params, q.nrd())


def test_inverse(params):
    q = QuatElement(params, 1, 1, 1, 0)
    assert q * q.inverse() == 1
    assert q.inverse() * q == 1
    with pytest.raises(ZeroDivisionError):
        QuatElement(params, 0).inverse()
    # (2, -1) is split: it has nonzero elements of reduced norm zero
    split = AlgebraParams(2, -1)
    z = QuatElement(split, 1, 1, 1, 0)
    assert z.nrd() == 0
    with pytest.raises(ZeroDivisionError):
        z.inverse()


def test_embed_entries(params):
    q = QuatElement(params, 1, 2, 3, 4)
    M = embed(q)
    assert M[0][0].u == 1 and M[0][0].v == 2
    assert M[0][1].u == -3 and M[0][1].v == -4  # b*(m + n*sqrt(a))
    assert M[1][0].u == 3 and M[1][0].v == -4
    assert M[1][1].u == 1 and M[1][1].v == -2
    assert mat2_trace(M) == q.trd()
    assert mat2_det(M) == q.nrd()


def test_embed_reuses_the_checked_radicand(monkeypatch):
    # AlgebraParams has checked a; embed builds no QuadExt that checks it
    params = AlgebraParams(Fraction(7, 3), -5)
    q = QuatElement(params, 1, 2, Fraction(1, 2), -3)
    calls = []
    monkeypatch.setattr(exactlinalg, "fraction_sqrt", calls.append)
    M = embed(q)
    assert calls == []
    monkeypatch.undo()
    a = params.a
    assert M == [[QuadExt(1, 2, a), QuadExt(-5 * Fraction(1, 2), 15, a)],
                 [QuadExt(Fraction(1, 2), 3, a), QuadExt(1, -2, a)]]


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
def test_arithmetic_refuses_elements_of_different_algebras(op):
    p = QuatElement(AlgebraParams(3, -1), 1, 2, 3, 4)
    q = QuatElement(AlgebraParams(3, -7), 1, 2, 3, 4)
    with pytest.raises(ValueError, match="elements of different algebras"):
        op(p, q)


@pytest.mark.parametrize("got, want", [
    (AlgebraParams(3, -1), AlgebraParams(Fraction(6, 2), Fraction(-2, 2))),
    (QuatElement(AlgebraParams(3, -1), 1, 2, 3, 4),
     QuatElement(AlgebraParams(3, -1), Fraction(2, 2), 2, 3, 4)),
    # int - QuatElement goes through __rsub__
    (1 - QuatElement(AlgebraParams(3, -1), 1, 2, 3, 4),
     QuatElement(AlgebraParams(3, -1), 0, -2, -3, -4)),
], ids=["params", "element", "rsub"])
def test_equal_values_hash_equal(got, want):
    assert got == want and hash(got) == hash(want)
    assert len({got, want}) == 1


# values of the package next to a foreign operand, the string "x"
_B = AlgebraParams(3, -1)
FOREIGN = {
    "quadcomplex": exactlinalg.QuadComplex(1, 2), "quadext": QuadExt(1, 1, 3),
    "params": _B, "config": Config(3, -1), "lattice": standard_order(_B),
}


@pytest.mark.parametrize("value", FOREIGN.values(), ids=FOREIGN.keys())
def test_a_value_never_equals_another_type(value):
    assert value != "x" and not value == "x"


@pytest.mark.parametrize("op", [
    lambda z: z + "x", lambda z: "x" + z, lambda z: z - "x",
    lambda z: "x" - z, lambda z: z * "x", lambda z: z / "x",
    lambda z: "x" / z,
], ids=["add", "radd", "sub", "rsub", "mul", "div", "rdiv"])
@pytest.mark.parametrize("value", [exactlinalg.QuadComplex(1, 2),
                                   QuadExt(1, 1, 3)],
                         ids=["quadcomplex", "quadext"])
def test_exact_scalars_refuse_a_foreign_operand(op, value):
    # each operation returns NotImplemented or is not defined, so Python
    # raises TypeError
    with pytest.raises(TypeError):
        op(value)


@pytest.mark.parametrize("value, text", [
    (_B, "AlgebraParams(3, -1)"),
    (QuadExt(Fraction(1, 2), -3, 3), "(1/2 + -3*sqrt(3))"),
    (UnitSample(standard_order(_B), (0, 0, 1, 0), True),
     "UnitSample(QuatElement(0, 0, 1, 0), elliptic=True)"),
], ids=["params", "quadext", "unit"])
def test_reprs_name_their_values(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("prec", [53, 128, 256, 4096])
def test_embed_mpf_rounds_each_entry_as_to_mpf_does(prec, rational_lattices):
    # configured orders of algebras in the sweep's range (the benchmark's
    # among them) have half-integer coordinates, their boxes negative ones,
    # and the rational lattices non-integral a and b
    elements = [QuatElement(AlgebraParams(3, -1), Fraction(-1, 2),
                            Fraction(3, 2), Fraction(-5, 2), Fraction(1, 2))]
    for a, b in ((3, -1), (3, -7), (2, -5), (5, -7), (2, -13), (7, -57),
                 (13, -10), (34, -51)):
        order = Config(a=a, b=b).build_order()
        elements += [order.element_from(c)
                     for c in itertools.product((-1, 0, 1), repeat=4)]
    for L in rational_lattices:
        elements += L.generators()
        elements.append(L.element_from((-2, 1, -1, 3)))
    assert any(c.denominator == 2 for q in elements for c in q.coords())
    assert any(q.params.a.denominator > 1 and q.params.b.denominator > 1
               for q in elements)
    with mpmath.workprec(prec):
        for q in elements:
            assert ([[x._mpf_ for x in row] for row in embed_mpf(q)]
                    == [[to_mpf(x)._mpf_ for x in row] for row in embed(q)]), q


def test_embed_homomorphism(params):
    rng = random.Random(7)
    for _ in range(15):
        p = QuatElement(params, *[rng.randint(-3, 3) for _ in range(4)])
        q = QuatElement(params, *[rng.randint(-3, 3) for _ in range(4)])
        left = embed(p * q)
        right = mat2_mul(embed(p), embed(q))
        assert left == right


def test_hilbert_pinned():
    a, b = Fraction(3), Fraction(-1)
    assert hilbert_symbol(a, b, 2) == -1
    assert hilbert_symbol(a, b, 3) == -1
    assert hilbert_symbol(a, b, 5) == 1
    for p in (2, 3, 5, 7):
        assert hilbert_symbol(Fraction(2), Fraction(-1), p) == 1
    assert hilbert_symbol(Fraction(2), Fraction(-1), INFINITE_PLACE) == 1
    assert hilbert_symbol(Fraction(-1), Fraction(-1), INFINITE_PLACE) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(Fraction(0), Fraction(1), 2)


def test_hilbert_a_minus_a():
    # (a, -a) = 1 at every place
    for a in (Fraction(3), Fraction(-5), Fraction(7, 2), Fraction(-14, 5)):
        for p in symbol_support(a, -a):
            assert hilbert_symbol(a, -a, p) == 1
        assert hilbert_symbol(a, -a, INFINITE_PLACE) == 1


def test_hilbert_cancelling_denominators():
    # support comes from the unreduced numerators and denominators, so the
    # shared prime 7 of -14/5 and 8/7 stays in play
    a, b = Fraction(-14, 5), Fraction(8, 7)
    assert symbol_support(a, b) == [2, 5, 7]
    assert hilbert_symbol(a, b, 2) == -1
    assert hilbert_symbol(a, b, 5) == 1
    assert hilbert_symbol(a, b, 7) == -1
    for p in (2, 5, 7):
        assert hilbert_symbol(a, b, p) == hilbert_solvable(a, b, p)


@pytest.mark.parametrize("p", [2, 3])
def test_hilbert_keeps_the_sign_of_each_unit(p):
    # negative arguments, and multiples of p and of its square, on both sides
    rng = random.Random(21)
    values = [n for n in range(-36, 37) if n != 0]
    for _ in range(150):
        a, b = rng.choice(values), rng.choice(values)
        assert hilbert_symbol(a, b, p) == hilbert_solvable(a, b, p), (a, b)


def test_hilbert_matches_solubility_oracle():
    rng = random.Random(7)
    pairs = 0
    for _ in range(60):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        if a == 0 or b == 0:
            continue
        pairs += 1
        for p in symbol_support(a, b):
            if p > 13:
                continue  # keep the brute force affordable
            assert hilbert_symbol(a, b, p) == hilbert_solvable(a, b, p), (a, b, p)
        assert hilbert_symbol(a, b, INFINITE_PLACE) == hilbert_solvable_real(a, b)
    assert pairs > 40


def test_hilbert_reciprocity():
    rng = random.Random(19)
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 15))
        if a == 0 or b == 0:
            continue
        prod = hilbert_symbol(a, b, INFINITE_PLACE)
        for p in symbol_support(a, b):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


def test_ramified_primes(params):
    assert ramified_primes(params) == [2, 3]
    assert ramified_primes(AlgebraParams(2, -1)) == []
    assert is_indefinite_division(params)
    assert not is_indefinite_division(AlgebraParams(2, -1))


def _trial_division(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    rng = random.Random(30)
    for n in [1, 2, 999983, 10 ** 6, 1000003 ** 2] + [
            rng.randint(1, 10 ** 9) for _ in range(300)]:
        assert _factorize(n) == _trial_division(n), n


@pytest.mark.parametrize("factors", [
    {1000000000000000003: 1},            # a prime near 10^18
    {4294967291: 1, 4294967279: 1},      # the two largest 32-bit primes
    {2147483647: 1, 4294967291: 1},
    {3: 1, 1000003: 1, 1000033: 1},
    {999983: 2, 1009: 1}, {2: 64}])
def test_factorize_large_cofactors(factors):
    n = math.prod(p ** e for p, e in factors.items())
    assert n <= FACTOR_LIMIT
    assert _factorize(n) == factors


def test_factorize_refuses_beyond_the_bound():
    with pytest.raises(ValueError, match="above 2\\^64"):
        _factorize(FACTOR_LIMIT + 1)
    # symbol_support factors each part of a and b on its own, so their
    # product may exceed the bound
    assert symbol_support(Fraction(2 ** 40 + 1, 2 ** 40 - 1),
                          -(2 ** 61 - 1)) == [2, 3, 5, 11, 17, 31, 41, 257,
                                              61681, 4278255361, 2 ** 61 - 1]
