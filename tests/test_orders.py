import inspect
import random
from fractions import Fraction

import pytest

from fakeelliptic import cm, family, orders, splitting
from fakeelliptic.orders import (NotAnOrder, OrderLattice, _adjoin_coset,
                                 congruence_filter, enumerate_units,
                                 is_maximal, is_order, reduced_discriminant,
                                 saturate, standard_order)
from fakeelliptic.quaternions import (AlgebraParams, AlgebraSplit,
                                      QuatElement, ramified_primes)
from oracles import (congruence_filter_bruteforce, contains_by_solve,
                     coords_by_solve, count_units_by_embedding,
                     enumerate_units_bruteforce, is_order_fraction,
                     laplace_det, reduced_discriminant_fraction,
                     saturate_bruteforce, squarefree_part,
                     stacked_embedding_det)

# the algebras of the benchmark's enumerate and saturate workloads, and two
# with a large unramified gap prime
BENCHMARK_ALGEBRAS = (
    (3, -7), (2, -5), (5, -7), (2, -13),
    (7, -57), (21, -34), (11, -38), (34, -51), (30, -57), (19, -29),
    (13, -22), (39, -42), (13, -38), (13, -42), (13, -14), (13, -10),
    (7, -34), (7, -17), (7, -33), (11, -14), (2, -35), (7, -35),
    (3, -37), (3, -97),
)


def test_standard_order_is_order(params, std_order):
    ok, problems = is_order(std_order)
    assert ok and problems == []
    assert std_order.contains(QuatElement(params, 1))
    assert std_order.contains(QuatElement(params, 0, 0, 0, 1))
    assert not std_order.contains(QuatElement(params, Fraction(1, 2)))


def test_scaled_basis_is_not_order(params):
    rows = [[Fraction(1, 2), 0, 0, 0],
            [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    L = OrderLattice(params, rows)
    ok, problems = is_order(L)
    assert not ok
    assert problems


def test_discriminants(params, std_order, max_order):
    assert reduced_discriminant(std_order) == 12
    assert reduced_discriminant(max_order) == 6
    assert not is_maximal(std_order)
    assert is_maximal(max_order)


def test_discriminant_matches_gram_oracle(std_order, max_order):
    for L, want in ((std_order, 144), (max_order, 36)):
        gens = L.generators()
        gram = [[(gi * gj.conj()).trd() for gj in gens] for gi in gens]
        assert laplace_det(gram) == want


def test_discriminant_rejects_non_order(params):
    rows = [[Fraction(1, 2), 0, 0, 0],
            [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NotAnOrder):
        reduced_discriminant(OrderLattice(params, rows))


def test_maximality_needs_division_algebra():
    split = standard_order(AlgebraParams(2, -1))
    with pytest.raises(AlgebraSplit):
        is_maximal(split)


def test_saturate(params, std_order, max_order):
    half = QuatElement(params, *([Fraction(1, 2)] * 4))
    assert half.trd() == 1 and half.nrd() == -1
    assert max_order.contains(half)
    for g in std_order.generators():
        assert max_order.contains(g)
    ok, problems = is_order(max_order)
    assert ok, problems
    # fixpoint
    again = saturate(max_order)
    assert again == max_order


def test_saturate_split_algebra_reaches_disc_one():
    # (3, -2) is unramified everywhere, so the target discriminant is the
    # empty product
    std = standard_order(AlgebraParams(3, -2))
    assert reduced_discriminant(std) == 24
    sat = saturate(std)
    assert reduced_discriminant(sat) == 1


def test_saturate_matches_bruteforce_search():
    # gap primes 2, 3, 7 and 13, the split (3, -2), and passes where the
    # trace of the last generator is 0 mod q (every first pass, since
    # trd(xy) = 0) as well as a unit mod q; (11, -14) has a pass with
    # several integral cosets after one prefix (c0, c1, c2)
    seen = set()
    for a, b in ((3, -1), (3, -7), (7, -34), (13, -10), (3, -2), (7, -33),
                 (11, -14)):
        std = standard_order(AlgebraParams(a, b))
        chain = saturate_bruteforce(std)
        for (L, q), (want, _) in zip(chain, chain[1:]):
            got, disc = _adjoin_coset(L, q, reduced_discriminant(L))
            assert got.basis == want.basis, (a, b, q)
            assert disc == reduced_discriminant(want)
            seen.add((q, 2 * L.basis[3][0] % q != 0))
        assert saturate(std).basis == chain[-1][0].basis, (a, b)
    assert {q for q, _ in seen} == {2, 3, 7, 13}
    assert {unit for _, unit in seen} == {False, True}


def test_saturate_large_unramified_gap_prime():
    # q = 97 divides b but not the ramified set {2, 3}
    L = saturate(standard_order(AlgebraParams(3, -97)))
    assert reduced_discriminant(L) == 6
    ok, problems = is_order(L)
    assert ok, problems


def test_saturate_refuses_a_gap_prime_above_the_bound():
    # the gap of (3,-11953) is 2 * 11953: no coset is searched, and the
    # start lattice comes back with the error
    start = standard_order(AlgebraParams(3, -11953))
    with pytest.raises(orders.SearchExhausted, match="gap prime 11953") as exc:
        saturate(start)
    assert exc.value.order is start
    assert 1093 <= orders.MAX_GAP_PRIME < 11953


def test_index_two_sublattice_doubles_disc(params, std_order):
    # the parity condition l + m = 0 mod 2 cuts out a subring of index 2
    rows = [[Fraction(v) for v in row]
            for row in ((1, 0, 0, 0), (0, 1, 1, 0), (0, 2, 0, 0), (0, 0, 0, 1))]
    sub = OrderLattice(params, rows)
    ok, problems = is_order(sub)
    assert ok, problems
    assert reduced_discriminant(sub) == 2 * reduced_discriminant(std_order)


def test_disc_invariant_under_unimodular_change(params, max_order):
    rng = random.Random(3)
    rows = [list(r) for r in max_order.basis]
    for _ in range(12):
        i, j = rng.randrange(4), rng.randrange(4)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    L = OrderLattice(params, rows)
    assert reduced_discriminant(L) == 6
    assert L == max_order  # mutual containment


def test_enumerate_units_counts(std_order, max_order):
    assert len(enumerate_units(std_order, 1)) == 4
    assert len(enumerate_units(std_order, 2)) == 20
    assert len(enumerate_units(max_order, 1)) == 20
    assert len(enumerate_units(max_order, 2)) == 64
    assert len(enumerate_units(max_order, 3)) == 144
    assert len(enumerate_units(max_order, 4)) == 232


def test_enumerate_units_matches_embedding_oracle(std_order, max_order):
    for L, h in ((std_order, 1), (std_order, 2), (max_order, 1), (max_order, 2)):
        assert len(enumerate_units(L, h)) == count_units_by_embedding(L, h)


def test_units_of_standard_order_height_one(params, std_order):
    got = {u.element.coords() for u in enumerate_units(std_order, 1)}
    one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    y = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    assert got == {one, tuple(-c for c in one), y, tuple(-c for c in y)}


def test_enumerate_units_height_zero_empty(max_order):
    assert enumerate_units(max_order, 0) == []
    with pytest.raises(ValueError):
        enumerate_units(max_order, -1)


def test_unit_properties(params, max_order):
    units = enumerate_units(max_order, 1)
    for u in units:
        q = u.element
        assert q.nrd() == 1
        assert q * q.conj() == 1
        if u.is_elliptic:
            assert q.trd() in (-1, 0, 1)


def test_congruence_filter(params, max_order):
    units = enumerate_units(max_order, 1)
    kept2 = congruence_filter(units, 2, max_order)
    assert sorted(u.coords for u in kept2) == [(-1, 0, 0, 0), (1, 0, 0, 0)]
    kept3 = congruence_filter(units, 3, max_order)
    assert [u.coords for u in kept3] == [(1, 0, 0, 0)]
    assert not any(u.is_elliptic for u in kept3)


def test_coords_round_trip(params, max_order):
    rng = random.Random(9)
    for _ in range(10):
        coords = [rng.randint(-3, 3) for _ in range(4)]
        q = max_order.element_from(coords)
        back = max_order.coords_of(q)
        assert [Fraction(c) for c in coords] == list(back)
        assert max_order.contains(q)


def test_element_from_is_the_sum_over_generators(std_order, max_order,
                                                 rational_lattices):
    # the integer form scales x and y on the rational lattices, which
    # element_from must undo
    rng = random.Random(12)
    for L in [std_order, max_order, *rational_lattices]:
        for _ in range(10):
            ints = [rng.randint(-4, 4) for _ in range(4)]
            fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(4)]
            for coords in (ints, fracs):
                want = QuatElement(L.params, 0)
                for c, g in zip(coords, L.generators()):
                    want = want + g * c
                assert L.element_from(coords) == want


def test_right_multiplication_matches_coords_of(std_order, max_order,
                                               rational_lattices):
    # the integer matrices over one denominator against the Fraction
    # coordinates of g_i e; the rational lattices scale x and y apart
    for L in [std_order, max_order, *rational_lattices]:
        mats, den = L.right_multiplication
        assert den > 0
        for N, e in zip(mats, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                               (0, 0, 0, 1))):
            e = QuatElement(L.params, *e)
            assert [[Fraction(x, den) for x in row] for row in N] == [
                L.coords_of(g * e) for g in L.generators()]


def test_enumerate_units_builds_one_element_per_unit(max_order, monkeypatch):
    # the integer screen proves nrd = 1, so no norm is recomputed, and
    # each unit is built once from the integer form
    calls = {"nrd": 0, "init": 0}
    nrd, init = QuatElement.nrd, QuatElement.__init__

    def counted_nrd(self):
        calls["nrd"] += 1
        return nrd(self)

    def counted_init(self, *args):
        calls["init"] += 1
        init(self, *args)
    monkeypatch.setattr(QuatElement, "nrd", counted_nrd)
    monkeypatch.setattr(QuatElement, "__init__", counted_init)
    units = enumerate_units(max_order, 4)
    assert len(units) == 232
    assert calls == {"nrd": 0, "init": 232}


def _unit_fields(units):
    # UnitSample keeps no norm; checking nrd = 1 on every unit here is no
    # weaker than comparing a stored norm with the oracle's
    assert all(u.element.nrd() == 1 for u in units)
    return [(u.coords, u.element.coords(), u.is_elliptic) for u in units]


def test_enumerate_units_matches_bruteforce(params, std_order, max_order,
                                           rational_lattices):
    # Fraction rows, and a lattice that is no order: its Gram matrix has
    # denominators
    halves = OrderLattice(params, [[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0],
                                   [0, 0, Fraction(1, 2), 0], [0, 0, 0, 1]])
    # a lattice without 1, whose units (such as y) no filter keeps
    no_one = OrderLattice(params, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                   [0, 0, 0, 1]])
    cases = [(std_order, 2), (max_order, 3), (halves, 2), (no_one, 2)]
    cases += [(L, 2) for L in rational_lattices]
    cases += [(saturate(standard_order(AlgebraParams(a, b))), 2)
              for a, b in ((3, -7), (2, -5), (7, -57), (13, -10))]
    for L, height in cases:
        for h in range(height + 1):
            got = enumerate_units(L, h)
            want = enumerate_units_bruteforce(L, h)
            assert _unit_fields(got) == _unit_fields(want)
            for N in (1, 2, 3, 4):
                assert ([u.coords for u in congruence_filter(got, N, L)]
                        == [u.coords for u in
                            congruence_filter_bruteforce(want, N, L)])


def test_congruence_filter_needs_nonzero_modulus(max_order):
    units = enumerate_units(max_order, 1)
    with pytest.raises(ValueError):
        congruence_filter(units, 0, max_order)


def _certificate(L, order_test, discriminant):
    """(verdict, problems, discriminant or the NotAnOrder message)."""
    ok, problems = order_test(L)
    try:
        disc = discriminant(L)
    except NotAnOrder as exc:
        disc = str(exc)
    return ok, problems, disc


def _assert_matches_fraction_oracle(L):
    got = _certificate(L, is_order, reduced_discriminant)
    want = _certificate(L, is_order_fraction, reduced_discriminant_fraction)
    assert got == want, L.basis
    return got


def test_certificate_matches_fraction_oracle_on_saturation(monkeypatch):
    # every lattice that saturate certifies: each start and each candidate
    seen = []
    certify = orders.is_order
    monkeypatch.setattr(orders, "is_order",
                        lambda L: seen.append(L) or certify(L))
    for a, b in BENCHMARK_ALGEBRAS:
        saturate(standard_order(AlgebraParams(a, b)))
    monkeypatch.undo()
    assert len(seen) > 3 * len(BENCHMARK_ALGEBRAS)
    for L in seen:
        _assert_matches_fraction_oracle(L)


def test_certificate_matches_fraction_oracle_on_non_orders():
    std = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    half = Fraction(1, 2)
    cases = [
        # rational (a, b): nrd(x) = -3/2 and x^2 = 3/2 leaves the lattice
        (AlgebraParams(Fraction(3, 2), -1), std),
        (AlgebraParams(Fraction(2, 9), Fraction(-5, 4)), std),
        # without 1
        (AlgebraParams(3, -1), ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                (0, 0, 0, 1))),
        # containing x/2
        (AlgebraParams(3, -1), ((1, 0, 0, 0), (0, half, 0, 0), (0, 0, 1, 0),
                                (0, 0, 0, 1))),
        # an order over rational (a, b): the standard order of (3, -2)
        (AlgebraParams(Fraction(1, 3), Fraction(-1, 2)),
         ((1, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 6))),
    ]
    verdicts = []
    for params, rows in cases:
        L = OrderLattice(params, [[Fraction(c) for c in row] for row in rows])
        verdicts.append(_assert_matches_fraction_oracle(L)[0])
    assert verdicts == [False, False, False, False, True]
    ok, problems, message = _certificate(
        OrderLattice(*cases[2]), is_order, reduced_discriminant)
    assert problems[0] == "1 is not in the lattice"
    assert message == "; ".join(problems)


def test_certificate_matches_fraction_oracle_on_random_lattices(max_order):
    # unimodular changes of the maximal order of (3, -1), some with one row
    # divided by 2 or 3: orders and non-orders
    rng = random.Random(6)
    verdicts = []
    for _ in range(24):
        rows = [list(r) for r in max_order.basis]
        for _ in range(6):
            i, j = rng.sample(range(4), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.5:
            i = rng.randrange(4)
            rows[i] = [x / rng.choice((2, 3)) for x in rows[i]]
        L = OrderLattice(max_order.params, rows)
        verdicts.append(_assert_matches_fraction_oracle(L)[0])
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("a,b", [(5, -18), (3, -25), (27, -7), (2, -45),
                                 (7, -50)])
def test_saturate_from_the_squarefree_presentation(a, b):
    # from (a, b) the search may stop short, but never at a wrong order;
    # from the squarefree presentation it reaches a maximal order
    params = AlgebraParams(a, b)
    try:
        assert is_maximal(saturate(standard_order(params)))
    except orders.SearchExhausted as exc:
        assert not is_maximal(exc.order)
    sq = params.squarefree()
    assert (sq.a, sq.b) == (squarefree_part(a), squarefree_part(b))
    assert ramified_primes(sq) == ramified_primes(params)
    assert is_maximal(saturate(standard_order(sq)))


def test_order_lattice_rejects_dependent_rows(params):
    # generators 1, y, y, 2 span a lattice of rank 2
    with pytest.raises(ValueError, match="full rank"):
        OrderLattice(params, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0],
                              [2, 0, 0, 0]])


def _lattices(max_order, rational_lattices):
    """Orders and non-orders over integer and rational (a, b)."""
    out = [saturate(standard_order(AlgebraParams(a, b)))
           for a, b in ((3, -7), (2, -5), (7, -57), (13, -10))]
    out += [standard_order(AlgebraParams(3, -1)), max_order]
    out += rational_lattices
    rng = random.Random(11)
    for _ in range(6):
        rows = [list(r) for r in max_order.basis]
        for _ in range(6):
            i, j = rng.sample(range(4), 2)
            rows[i] = [x + rng.randint(-2, 2) * y
                       for x, y in zip(rows[i], rows[j])]
        i, d = rng.randrange(4), rng.choice((1, 2, 3))
        rows[i] = [x / d for x in rows[i]]
        out.append(OrderLattice(max_order.params, rows))
    return out


def test_embedding_det_matches_elimination_oracle(max_order,
                                                   rational_lattices):
    for L in _lattices(max_order, rational_lattices):
        assert stacked_embedding_det(L) == L.embedding_det, L.basis


def test_membership_matches_exact_solve(max_order, rational_lattices):
    rng = random.Random(12)
    seen = set()
    for L in _lattices(max_order, rational_lattices):
        for _ in range(8):
            member = L.element_from([rng.randint(-3, 3) for _ in range(4)])
            other = QuatElement(L.params, *[Fraction(rng.randint(-6, 6),
                                                     rng.choice((1, 2, 3, 5)))
                                            for _ in range(4)])
            for q in (member, other):
                assert L.coords_of(q) == coords_by_solve(L, q)
                assert L.contains(q) == contains_by_solve(L, q)
                seen.add(L.contains(q))
    assert seen == {True, False}


def test_adjugate_runs_once_per_lattice(monkeypatch):
    counts = {"lattices": 0, "adjugates": 0}
    init, adjugate = OrderLattice.__init__, orders._adjugate

    def counted_init(self, *args):
        counts["lattices"] += 1
        init(self, *args)

    def counted_adjugate(m):
        counts["adjugates"] += 1
        return adjugate(m)
    monkeypatch.setattr(OrderLattice, "__init__", counted_init)
    monkeypatch.setattr(orders, "_adjugate", counted_adjugate)
    L = saturate(standard_order(AlgebraParams(7, -57)))
    assert is_maximal(L) and is_order(L)[0] and L == L
    units = enumerate_units(L, 1)
    congruence_filter(units, 3, L)
    assert L.contains(QuatElement(L.params, 1)) and L.embedding_det
    assert counts["lattices"] > 2
    assert counts["adjugates"] == counts["lattices"]


def test_order_modules_use_no_elimination():
    # rank, membership, det S and the discriminant come from the integer
    # form; the elimination kernel is left to the tests' oracles
    for module in (orders, cm, family, splitting):
        source = inspect.getsource(module)
        for name in ("exact_rank", "exact_det", "exact_solve", "exact_rref"):
            assert name not in source, (module.__name__, name)
