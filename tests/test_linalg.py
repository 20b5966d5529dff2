"""``det_int`` (fraction-free Bareiss) against plain elimination over Q, and
the primality test behind ``PrimeField`` against trial division."""
import random
from fractions import Fraction

import pytest

from brauer_derive.graph import loop_star
from brauer_derive.linalg import FieldMismatch, PrimeField, det_int

from conftest import algebra_for, corpus_graphs


def det_fraction(rows):
    """Reference determinant: Gaussian elimination over ``Fraction``."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    assert det.denominator == 1
    return int(det)


def random_matrices(seed):
    """Square integer matrices n = 0..12: dense, sparse (zero pivots force
    row swaps), rank-deficient (a row that is a combination of two others)
    and with a zero leading column below a nonzero corner."""
    rng = random.Random(seed)
    for n in range(13):
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        yield [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        if n >= 3:
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[rng.randrange(n)] = [a * x + b * y for x, y in zip(m[0], m[1])]
            yield m
        if n >= 2:
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m[0][0] = 0
            yield m


@pytest.mark.parametrize("seed", range(8))
def test_det_int_matches_fraction_elimination(seed):
    kinds = {"singular": 0, "swap": 0}
    for m in random_matrices(seed):
        expected = det_fraction(m)
        assert det_int(m) == expected, m
        kinds["singular"] += expected == 0 and len(m) > 0
        kinds["swap"] += len(m) > 1 and m[0][0] == 0
    assert all(kinds.values()), kinds


def test_det_int_edge_cases():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[0, 0], [1, 2]]) == 0
    assert det_int([[2, 4], [1, 2]]) == 0


def test_det_int_on_cartan_matrices():
    graphs = dict(corpus_graphs(), loop_star_59=loop_star(59))
    for name, g in graphs.items():
        rows = [list(r) for r in algebra_for(g).cartan().rows]
        assert det_int(rows) == det_fraction(rows), name
    assert abs(det_int([list(r) for r in algebra_for(loop_star(59)).cartan().rows])) == 4


def test_prime_field_accepts_exactly_the_primes_below_10000():
    for n in range(10**4):
        is_prime = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        try:
            PrimeField(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == is_prime, n


def test_mixed_characteristic_raises_field_mismatch():
    two, three = PrimeField(2).one, PrimeField(3).one
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y):
        with pytest.raises(FieldMismatch, match="mixed characteristic 2 and 3"):
            op(two, three)
    assert two + 1 == PrimeField(2).zero  # ints still coerce
