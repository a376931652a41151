"""A seeded sweep over the algebras the config accepts.

The sample is a fixed draw of SAMPLE_SIZE of the 2,290 indefinite
division algebras (a, b) with 2 <= a <= 60 and -60 <= b <= -1, each
built as the config builds it (squarefree presentation, saturated
standard order).  Eight of them are rebuilt from non-squarefree and
rational presentations, and the CM curves are checked at 16 and 128 bits
and at one precision per algebra drawn from 16-256 bits.  The whole
module takes about 3 s on a 2-vCPU VM (Python 3.11, pure-Python mpmath):
the CM curves more than half of it, the suites and the draw a sixth
each.
"""

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest

from fakeelliptic.cli import main
from fakeelliptic.cm import enumerate_cm_points
from fakeelliptic.config import Config
from fakeelliptic.exactlinalg import QuadComplex
from fakeelliptic.orders import reduced_discriminant
from fakeelliptic.quaternions import (AlgebraParams, is_indefinite_division,
                                      ramified_primes)
from fakeelliptic.splitting import curve_splitting_report, fiber_h0

from oracles import hilbert_solvable, saturation_by_both_walks

SEED = 5
SAMPLE_SIZE = 40
# the brute-force symbol costs p^4 steps at a ramified p dividing ab
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)


def _indefinite_division_algebras():
    out = []
    for a in range(2, 61):
        if math.isqrt(a) ** 2 == a:
            continue
        for b in range(-60, 0):
            if is_indefinite_division(AlgebraParams(a, b)):
                out.append((a, b))
    return out


@pytest.fixture(scope="module")
def sample():
    """(a, b) -> (ramified primes, the configured maximal order)."""
    algebras = _indefinite_division_algebras()
    assert len(algebras) == 2290
    return {(a, b): (ramified_primes(AlgebraParams(a, b)),
                     Config(a=a, b=b).build_order())
            for a, b in random.Random(SEED).sample(algebras, SAMPLE_SIZE)}


def test_ramified_primes_match_the_brute_force_symbol(sample):
    for (a, b), (ram, _) in sample.items():
        # reciprocity: the infinite place splits, so the count is even
        assert ram and len(ram) % 2 == 0, (a, b, ram)
        for p in ORACLE_PRIMES:
            assert (p in ram) == (hilbert_solvable(a, b, p) == -1), (a, b, p)


def test_saturation_reaches_the_discriminant(sample):
    for (a, b), (ram, order) in sample.items():
        assert reduced_discriminant(order) == math.prod(ram), (a, b)


def test_line_walk_matches_the_product_walk(sample):
    # each pass accepts the lattice the product walk of the coset search
    # accepts from the same parent (test_orders.py has the small algebras)
    for a, b in sample:
        line, product, _ = saturation_by_both_walks(
            AlgebraParams(a, b).squarefree())
        assert line == product and isinstance(line, list), (a, b)


def test_fiber_h0_is_one_with_the_discriminant_as_witness(sample):
    taus = (QuadComplex(0, 1), QuadComplex(Fraction(3, 10), Fraction(7, 5)))
    for (a, b), (ram, order) in sample.items():
        for tau in taus:
            res = fiber_h0(order, tau)
            assert res.h0 == 1 and res.det_witness == math.prod(ram), (a, b)


def _cm_curves_split(order, prec, label):
    for pt in enumerate_cm_points(order, 2, prec=prec):
        report = curve_splitting_report(pt, prec)
        assert report.verdict == "Split" and report.h0 == 2, label
        assert report.dphi_value.imag > 0, (label, pt)


def test_other_presentations_give_the_same_algebra(sample):
    # a s^2, b t^2 and a / u^2 name the algebra (a, b) too: the config
    # reduces them to the squarefree presentation before saturating
    rng = random.Random(SEED)
    tau = QuadComplex(Fraction(3, 10), Fraction(7, 5))
    for a, b in rng.sample(sorted(sample), 8):
        ram, order = sample[a, b]
        witness = fiber_h0(order, tau).det_witness
        s, t, u = (rng.choice((2, 3, 5, 6)) for _ in range(3))
        for a2, b2 in ((a * s * s, b * t * t), (Fraction(a, u * u), b),
                       (Fraction(a * s * s, u * u), Fraction(b, t * t))):
            assert ramified_primes(AlgebraParams(a2, b2)) == ram, (a2, b2)
            other = Config(a=a2, b=b2).build_order()
            assert reduced_discriminant(other) == math.prod(ram), (a2, b2)
            assert fiber_h0(other, tau).det_witness == witness, (a2, b2)


@pytest.mark.parametrize("prec", [16, 128])
def test_every_cm_curve_at_height_two_splits(sample, prec):
    for (a, b), (_, order) in sample.items():
        _cm_curves_split(order, prec, (a, b))


def test_every_cm_curve_splits_at_a_drawn_precision(sample):
    rng = random.Random(SEED)
    for (a, b), (_, order) in sample.items():
        prec = rng.randint(16, 256)
        _cm_curves_split(order, prec, (a, b, prec))


def test_all_suites_pass(sample, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    for a, b in sample:
        cfg.write_text(f"algebra.a = {a}\nalgebra.b = {b}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["suite", "all", "--trials", "3", str(cfg)])
        assert code == 0, (a, b)
