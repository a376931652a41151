from fractions import Fraction

import pytest

from fakeelliptic import AlgebraParams, OrderLattice, saturate, standard_order


@pytest.fixture(scope="session")
def params():
    return AlgebraParams(3, -1)


@pytest.fixture(scope="session")
def std_order(params):
    return standard_order(params)


@pytest.fixture(scope="session")
def max_order(std_order):
    return saturate(std_order)


@pytest.fixture(scope="session")
def rational_lattices():
    """Explicit lattices over rational (a, b), whose integer forms scale
    x and y: the standard order of (3, -1) written over (3/4, -1/9),
    where its basis is 1, 2x, 3y, 6xy, and a lattice with `Fraction`
    rows over (2/9, -5/4) that is no order."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    return [
        OrderLattice(AlgebraParams(Fraction(3, 4), Fraction(-1, 9)),
                     [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 6]]),
        OrderLattice(AlgebraParams(Fraction(2, 9), Fraction(-5, 4)),
                     [[1, 0, 0, 0], [half, 3 * half, 0, 0],
                      [0, 0, 1, third], [0, 1, 0, 3]]),
    ]
