"""``det_int`` (fraction-free Bareiss) against plain elimination over Q, the
primality test behind ``PrimeField`` against trial division, and exactness
of the int path over Q: divisions give ints or Fractions, never floats."""
import operator
import random
from fractions import Fraction

import pytest

from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.graph import loop_star
from brauer_derive.linalg import (
    QQ,
    FieldMismatch,
    PrimeField,
    PrimeFieldElement,
    SparseEchelon,
    det_int,
    exact_div,
)
from brauer_derive.quiver import build_quiver
from brauer_derive.tilting import check_tilting, shrink_complex, verify_end_generators

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


def loop_star_cartan(n):
    """Closed-form Cartan matrix of loop_star(n): the loop's two half-edges at
    the centre give 4 at (0, 0) and 2 beside it; two other edges meet once at
    the centre, and each also has its own leaf (1 more on the diagonal)."""
    rows = [[4] + [2] * (n - 1)]
    rows += [[2] + [1 + (i == j) for j in range(1, n)] for i in range(1, n)]
    return rows


# Sparse Bareiss: after its first step the loop-star matrix is diagonal, so
# most rows are left as they are; in "singular" row 2 is twice row 0, and in
# "row_swap" the pivot of step 1 is 0 after step 0, beside a row that step 0
# leaves alone
DET_CASES = {
    "loop_star_59": loop_star_cartan(59),
    "singular": [[2, 0, 1, 0], [0, 3, 0, 1], [4, 0, 2, 0], [0, 1, 5, 1]],
    "row_swap": [[1, 1, 0, 0], [2, 2, 1, 0], [0, 0, 3, 1], [0, 1, 0, 5]],
}


@pytest.mark.parametrize("name", sorted(DET_CASES))
def test_det_int_sparse_cases(name):
    rows = DET_CASES[name]
    before = [list(r) for r in rows]
    assert det_int(rows) == det_fraction(rows)
    assert rows == before
    if name == "loop_star_59":
        assert rows == [list(r) for r in algebra_for(loop_star(59)).cartan().rows]
        assert abs(det_int(rows)) == 4
    assert (det_int(rows) == 0) == (name == "singular")


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
    for op in (lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x * y, lambda x, y: x / y):
        with pytest.raises(FieldMismatch, match="rational coefficient"):
            op(two, 1)  # an int is a coefficient over Q, not of GF(2)


def test_exact_div_gives_ints_or_fractions():
    assert exact_div(4, 2) == 2 and type(exact_div(4, 2)) is int
    assert exact_div(1, -2) == Fraction(-1, 2) and type(exact_div(1, -2)) is Fraction
    assert QQ.div is exact_div
    for a in range(-6, 7):
        for b in (-4, -3, -2, -1, 1, 2, 3, 4):
            q = exact_div(a, b)
            assert type(q) is (int if a % b == 0 else Fraction), (a, b)
            assert q * b == a
    assert exact_div(Fraction(1, 2), 3) == Fraction(1, 6)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_echelon_add_over_q_keeps_exact_fractions():
    # x0 + 2 x1: the pivot is column 1, so the row is normalized by 2
    ech = SparseEchelon()
    assert ech.add({0: 1, 1: 2})
    assert ech.pivots == {1: {0: Fraction(1, 2), 1: 1}}
    assert type(ech.pivots[1][0]) is Fraction and type(ech.pivots[1][1]) is int
    assert not ech.add({0: 3, 1: 6}) and ech.contains({0: -1, 1: -2})
    ech = SparseEchelon()
    ech.add({0: 2, 1: 1})
    assert ech.pivots == {1: {0: 2, 1: 1}}
    assert all(type(c) is int for c in ech.pivots[1].values())


def _coefficients(A):
    """Every coefficient in A's rules, product tables and basis products."""
    for tail in A._rsys.rules.values():
        yield from tail.values()
    for table in A._products.values():
        for row in table:
            for entries in row:
                yield from (c for _, c in entries)
    for key, out in A._basis_products.items():
        yield from key[-1]
        for entries in out:
            yield from (c for _, c in entries)


@pytest.mark.parametrize("name", sorted(corpus_graphs()))
def test_shrink_over_q_keeps_coefficients_exact(name):
    g = corpus_graphs()[name]
    A = quotient_basis(omega_relations(build_quiver(g)), field=QQ)
    Q = shrink_complex(A, g)
    assert check_tilting(Q).valid and verify_end_generators(Q)
    coefficients = list(_coefficients(A))
    assert A._products and coefficients
    assert all(type(c) in (int, Fraction) for c in coefficients)


def test_prime_field_element_semantics():
    one = PrimeFieldElement(1, 2)
    assert one != 1 and 1 != one and one == PrimeField(2).one
    assert hash(PrimeFieldElement(1, 3)) == hash(PrimeField(3).from_int(4)) == hash((1, 3))
    assert repr(PrimeField(3).from_int(-1)) == "2 (mod 3)"
    with pytest.raises(AttributeError):
        one.value = 0
    with pytest.raises(FieldMismatch):
        PrimeField(2).one * PrimeField(5).one


@pytest.mark.parametrize("other", [Fraction(1, 2), 0.5], ids=["Fraction", "float"])
def test_prime_field_element_rejects_foreign_operands(other):
    one = PrimeField(2).one
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(one, other)
        with pytest.raises(TypeError):
            op(other, one)
