"""Fixed reference kernel: the benchmark's yardstick for machine speed.

The benchmark times slices of this kernel between the CLI children of a
pass and rescales the pass by how fast the kernel ran, which cancels most
of the slow drift in the speed of a shared virtual machine.  The kernel
uses only the standard library, with the instruction mix of the package:
`Fraction` arithmetic on quaternion-style 4-vectors, dict bookkeeping and
wide-integer multiply-and-shift in the style of mpmath's pure-Python
backend.  It must never import `fakeelliptic`, so no change to the
program can move it.
"""

from fractions import Fraction

_A, _B = Fraction(3), Fraction(-1)
_PRODUCTS = 24
_WIDE_STEPS = 600


def _qmul(p, q):
    k1, l1, m1, n1 = p
    k2, l2, m2, n2 = q
    return (k1 * k2 + _A * l1 * l2 + _B * m1 * m2 - _A * _B * n1 * n2,
            k1 * l2 + l1 * k2 - _B * m1 * n2 + _B * n1 * m2,
            k1 * m2 + m1 * k2 + _A * l1 * n2 - _A * n1 * l2,
            k1 * n2 + l1 * m2 - m1 * l2 + n1 * k2)


def _nrd(p):
    k, l, m, n = p
    return k * k - _A * l * l - _B * m * m + _A * _B * n * n


def unit(u):
    """One unit of reference work; returns a checksum that depends on u."""
    seen = {}
    x = (Fraction(1, 2), Fraction(u % 5 - 2, 2), Fraction(3, 2), Fraction(1, 2))
    for i in range(_PRODUCTS):
        y = (Fraction(i % 3 - 1), Fraction(i % 5 - 2, 2),
             Fraction(i % 7 - 3, 2), Fraction(i % 4 - 1, 2))
        z = _qmul(x, y)
        key = (z[0], _nrd(z))
        seen[key] = seen.get(key, 0) + 1
    m = (1 << 255) | (u * 2654435761 + 1)
    for i in range(_WIDE_STEPS):
        m = ((m * 0x9E3779B97F4A7C15) >> 61) | (1 << 255)
        m ^= i
    return (len(seen) << 16) ^ (m & 0xFFFF)


def run(units, start=0):
    """Run `units` units of work; the checksum keeps the work observable."""
    check = 0
    for u in range(start, start + units):
        check ^= unit(u)
    return check
