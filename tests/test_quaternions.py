import math
import random
from fractions import Fraction

import pytest

from fakeelliptic import exactlinalg
from fakeelliptic.exactlinalg import QuadExt
from fakeelliptic.quaternions import (FACTOR_LIMIT, INFINITE_PLACE,
                                      AlgebraParams, QuatElement, _factorize,
                                      embed, hilbert_symbol,
                                      is_indefinite_division, ramified_primes,
                                      symbol_support)
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
