"""``det_int`` (sparse fraction-free Bareiss) against plain elimination over Q, the
primality test behind ``PrimeField`` against trial division, exactness of
the int path over Q (divisions give ints or Fractions, never floats), and
``BitEchelon`` over GF(2) against ``SparseEchelon``."""
import copy
import json
import operator
import pickle
import random
from fractions import Fraction

import pytest

from brauer_derive import algebra
from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.cli import run
from brauer_derive.graph import loop_star
from brauer_derive.linalg import (
    QQ,
    FieldMismatch,
    PrimeField,
    BitEchelon,
    NotIntegral,
    PrimeFieldElement,
    SparseEchelon,
    det_int,
    echelon_for,
    exact_div,
    mod_2,
)
from brauer_derive.quiver import build_quiver
from brauer_derive.tilting import check_tilting, shrink_complex, verify_end_generators

from conftest import algebra_for, certificate_valid, corpus_graphs, det_fraction, gf2_bits


def sparse_rows(rows):
    """A dense matrix as the sparse rows {column: nonzero entry} that
    ``det_int`` takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


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
        assert det_int(sparse_rows(m)) == expected, m
        kinds["singular"] += expected == 0 and len(m) > 0
        kinds["swap"] += len(m) > 1 and m[0][0] == 0
    assert all(kinds.values()), kinds


def test_det_int_edge_cases():
    assert det_int(sparse_rows([])) == 1
    assert det_int(sparse_rows([[7]])) == 7
    assert det_int(sparse_rows([[0, 1], [1, 0]])) == -1
    assert det_int(sparse_rows([[0, 0], [1, 2]])) == 0
    assert det_int(sparse_rows([[2, 4], [1, 2]])) == 0


def loop_star_cartan(n):
    """Closed-form Cartan matrix of loop_star(n): the loop's two half-edges at
    the centre give 4 at (0, 0) and 2 beside it; two other edges meet once at
    the centre, and each also has its own leaf (1 more on the diagonal)."""
    rows = [[4] + [2] * (n - 1)]
    rows += [[2] + [1 + (i == j) for j in range(1, n)] for i in range(1, n)]
    return rows


# Sparse Bareiss with fewest-entries pivoting: the loop-star matrix is dense
# and, after its first step, diagonal, so every other column is a leaf; in
# "singular" row 2 is twice row 0, so a row vanishes; "row_swap" starts with
# no leaf, and its first step (column 0, row 0) cancels row 1's entry in
# column 1, which leaves a leaf there
DET_CASES = {
    "loop_star_59": loop_star_cartan(59),
    "singular": [[2, 0, 1, 0], [0, 3, 0, 1], [4, 0, 2, 0], [0, 1, 5, 1]],
    "row_swap": [[1, 1, 0, 0], [2, 2, 1, 0], [0, 0, 3, 1], [0, 1, 0, 5]],
}


@pytest.mark.parametrize("name", sorted(DET_CASES))
def test_det_int_sparse_cases(name):
    rows = DET_CASES[name]
    sparse = sparse_rows(rows)
    before = [dict(r) for r in sparse]
    assert det_int(sparse) == det_fraction(rows)
    assert sparse == before
    if name == "loop_star_59":
        assert rows == [list(r) for r in algebra_for(loop_star(59)).cartan().rows]
        assert abs(det_int(sparse)) == 4
    assert (det_int(sparse) == 0) == (name == "singular")


@pytest.mark.slow
def test_cartan_omega_and_an_determinants_come_from_their_half_edges(capsys, monkeypatch):
    """``cartan --omega N`` and ``cartan --an N`` print det(M)^2 for every N
    up to 59: ``det_int`` sees only the half-edge matrix M of loop_star(N),
    n x n with M M^T the printed matrix, and det(M)^2 equals elimination
    over ``Fraction`` on that matrix, which the two share."""
    seen = []

    def recording_det_int(rows):
        seen.append([[row.get(j, 0) for j in range(len(rows))] for row in rows])
        return det_int(rows)

    monkeypatch.setattr(algebra, "det_int", recording_det_int)
    for n in range(1, 60):
        payloads = []
        for kind in ("--omega", "--an"):
            seen.clear()
            assert run(["cartan", kind, str(n), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            (M,) = seen
            assert [[sum(a * b for a, b in zip(r, c)) for c in M] for r in M] == payload["matrix"]
            payloads.append(payload)
        omega, an = payloads
        assert omega["matrix"] == an["matrix"] == loop_star_cartan(n)
        assert omega["det"] == an["det"] == det_fraction(omega["matrix"]) == 4, n


def test_det_int_on_cartan_matrices():
    graphs = dict(corpus_graphs(), loop_star_59=loop_star(59))
    for name, g in graphs.items():
        rows = [list(r) for r in algebra_for(g).cartan().rows]
        assert det_int(sparse_rows(rows)) == det_fraction(rows), name
    rows = algebra_for(loop_star(59)).cartan().rows
    assert abs(det_int(sparse_rows(rows))) == 4


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
    for op in (
        lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x * y, lambda x, y: x / y,
        lambda x, y: y - x, lambda x, y: y / x,
    ):
        with pytest.raises(FieldMismatch, match="rational coefficient"):
            op(two, 1)  # an int is a coefficient over Q, not of GF(2)


def test_reflected_operators_compute_in_the_field():
    """``__rsub__`` and ``__rtruediv__`` give other - self and other / self
    once the left operand coerces (the int case above raises instead)."""
    F = PrimeField(5)
    two, three = F.from_int(2), F.from_int(3)
    assert two.__rsub__(three) == F.from_int(1) and three.__rsub__(two) == F.from_int(4)
    assert three.__rtruediv__(two) == F.from_int(4)  # 2 = 4 * 3 mod 5


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
    ech = SparseEchelon(QQ.one)
    assert ech.add({0: 1, 1: 2})
    assert ech.pivots == {1: {0: Fraction(1, 2), 1: 1}}
    assert type(ech.pivots[1][0]) is Fraction and type(ech.pivots[1][1]) is int
    assert not ech.add({0: 3, 1: 6}) and ech.contains({0: -1, 1: -2})
    ech = SparseEchelon(QQ.one)
    ech.add({0: 2, 1: 1})
    assert ech.pivots == {1: {0: 2, 1: 1}}
    assert all(type(c) is int for c in ech.pivots[1].values())


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "GF3"])
def test_echelon_add_keeps_no_dict_of_the_caller(field):
    """A vector whose lead has no pivot is stored as a copy, whatever its
    pivot: mutating it afterwards leaves the stored rows as they were."""
    one, two = field.one, field.from_int(2)
    ech = SparseEchelon(one)
    for vec in ({0: two, 3: one}, {1: one, 5: -one}, {2: one, 4: two}):
        assert max(vec) not in ech.pivots
        stored = {lead: dict(row) for lead, row in ech.pivots.items()}
        assert ech.add(vec)
        stored[max(vec)] = dict(ech.pivots[max(vec)])
        vec[max(vec)] = two
        vec[7] = one
        del vec[min(vec)]
        assert ech.pivots == stored


class DividingEchelon(SparseEchelon):
    """Oracle: every stored row divided by its pivot entry by entry, as
    before rows with pivot -1 were negated."""

    def add(self, vec):
        red = self.reduce(vec)
        if not red:
            return False
        lead = max(red)
        coeff = red[lead]
        if coeff != self.one:
            red = {k: exact_div(v, coeff) for k, v in red.items()}
        self.pivots[lead] = red
        return True


def _typed(pivots):
    return {lead: [(k, v, type(v)) for k, v in row.items()] for lead, row in pivots.items()}


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(1000003)],
                         ids=["Q", "GF2", "GF3", "GF1000003"])
def test_echelon_negation_stores_the_rows_division_stores(field):
    """Rows with pivot -1 are negated; the stored rows equal the division
    path's in value, type and key order, over Q with int and Fraction
    entries (a Fraction pivot equal to -1 included) and over GF(p)."""
    rng = random.Random(14)
    if field == QQ:
        values = [-1, 1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(-1), Fraction(2)]
    else:
        values = [x for x in map(field.from_int, (-1, 1, 2, -3, 5)) if x]
    minus_one = field.from_int(-1)
    pivots_seen = []
    for _ in range(60):
        ech, oracle = SparseEchelon(field.one), DividingEchelon(field.one)
        for _ in range(8):
            vec = {k: rng.choice(values) for k in rng.sample(range(10), rng.randint(1, 6))}
            vec[max(vec)] = rng.choice([minus_one, rng.choice(values)])
            red = ech.reduce(vec)
            if red:
                pivots_seen.append(red[max(red)])
            assert ech.add(vec) == oracle.add(vec)
            assert _typed(ech.pivots) == _typed(oracle.pivots)
    assert any(type(c) is type(minus_one) and c == minus_one for c in pivots_seen)
    if field == QQ:
        assert any(type(c) is Fraction and c == -1 for c in pivots_seen)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=["Q", "GF2", "GF3"])
def test_echelons_take_zero_coefficients_as_absent(field):
    """An explicit zero is no entry: not a pivot to divide by, not a key
    that keeps a vector out of the span.  ``BitEchelon`` takes ints, so it
    is fed the reference packing of each vector, which sets no bit for a
    zero."""
    zero, one = field.zero, field.one
    echelons = [(SparseEchelon(one), dict)]
    if field.name == "GF(2)":
        echelons.append((BitEchelon(), gf2_bits))
    for ech, vector in echelons:
        ech.extend([vector({}), vector({3: zero})])
        assert ech.rank == 0
        ech.extend([vector({5: zero, 2: one})])
        assert set(ech.pivots) == {2} and ech.contains(vector({5: zero, 2: one}))
        assert ech.contains(vector({5: zero})) and ech.contains(vector({}))
        ech.extend([vector({2: one, 7: zero})])
        assert ech.rank == 1 and not ech.contains(vector({5: one, 2: zero}))
    assert SparseEchelon(one).add({5: zero, 2: one})
    sparse = echelons[0][0]
    if field == QQ:
        assert sparse.pivots == {2: {2: 1}}
        assert sparse.reduce({5: 0, 2: 1, 1: 3}) == {1: 3}
    else:
        assert sparse.pivots == {2: {2: one}}
    if len(echelons) > 1:
        assert echelons[1][0].pivots == {2: 0b100}


@pytest.mark.parametrize("seed", range(6))
def test_bit_echelon_matches_sparse_echelon_over_gf2(seed):
    """On random sparse vectors over GF(2), among them empty ones, repeats
    and explicit zeros, ``BitEchelon`` fed the packing of each keeps the
    pivots of ``SparseEchelon``, answers ``contains`` alike, and stores
    each row as the bits of the sparse row; one ``extend`` of all the
    vectors ends where the vectors fed one at a time do."""
    F = PrimeField(2)
    rng = random.Random(seed)
    sparse, bits = SparseEchelon(F.one), BitEchelon()
    seen = []
    for _ in range(150):
        kind = rng.random()
        if kind < 0.1:
            vec = {}
        elif kind < 0.25 and seen:
            vec = dict(rng.choice(seen))
        else:
            keys = rng.sample(range(70), rng.randint(1, 5))
            vec = {k: F.from_int(rng.randint(0, 1)) for k in keys}
        seen.append(vec)
        probe = {k: F.from_int(rng.randint(0, 1)) for k in rng.sample(range(70), 3)}
        assert bits.contains(gf2_bits(probe)) == sparse.contains(probe)
        sparse.add(vec)
        bits.extend([gf2_bits(vec)])
        assert bits.rank == sparse.rank
        assert {lead: gf2_bits(row) for lead, row in sparse.pivots.items()} == bits.pivots
    assert 0 < sparse.rank < 70
    extended = BitEchelon()
    extended.extend(map(gf2_bits, seen))
    assert extended.pivots == bits.pivots


def test_mod_2_reads_ints_and_gf2_and_refuses_the_rest():
    """An int's parity and an element of GF(2)'s value; every other entry,
    an int-valued ``Fraction`` and an element of GF(3) among them, raises."""
    F2 = PrimeField(2)
    assert [mod_2(x) for x in (0, 3, -1, 2, -7, 1 << 70, F2.zero, F2.one)] == [
        0, 1, 1, 0, 1, 0, 0, 1,
    ]
    for entry in (Fraction(1, 2), Fraction(2), PrimeField(3).one, 1.0, True):
        with pytest.raises(NotIntegral):
            mod_2(entry)


def test_echelon_for_packs_bits_over_gf2_alone():
    assert type(echelon_for(PrimeField(2))) is BitEchelon and echelon_for(PrimeField(2)).bits
    for field in (QQ, PrimeField(3), PrimeField(1000003)):
        ech = echelon_for(field)
        assert type(ech) is SparseEchelon and ech.one == field.one and not ech.bits


def _coefficients(A):
    """Every coefficient in A's rules, its cached path classes (``_entries``,
    one cache per block) and its basis products."""
    for term in A._rsys.rules.values():
        if term is not None:
            yield term[1]
    for cache in A._entries.values():
        for entry in cache.values():
            if entry is not None:
                yield entry[1]
    for key, out in A._basis_products.items():
        yield from key[-1]
        for entries in out:
            yield from (c for _, c in entries)


@pytest.mark.parametrize("name", sorted(corpus_graphs()))
def test_shrink_over_q_keeps_coefficients_exact(name):
    g = corpus_graphs()[name]
    A = quotient_basis(omega_relations(build_quiver(g)), field=QQ)
    Q = shrink_complex(A, g)
    assert certificate_valid(check_tilting(Q)) and verify_end_generators(Q)
    coefficients = list(_coefficients(A))
    assert A._entries and coefficients
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


def test_prime_field_elements_are_interned():
    F = PrimeField(3)
    one = F.from_int(4)
    assert one is F.one is PrimeFieldElement(1, 3) is PrimeField(3).one
    assert hash(one) == hash((1, 3)) and one != 1
    assert one + one + one is F.zero and -one is F.from_int(2) is one / F.from_int(2)
    with pytest.raises(AttributeError):
        one.value = 0
    with pytest.raises(AttributeError):
        del one.p
    with pytest.raises(FieldMismatch):
        one + PrimeField(5).one
    with pytest.raises(FieldMismatch):
        one * 1


@pytest.mark.parametrize("p", [2, 1000003])
def test_prime_field_elements_copy_to_themselves(p):
    F = PrimeField(p)
    x = F.from_int(-1)
    assert copy.copy(x) is x and copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x
    ech = SparseEchelon(F.one)
    ech.add({0: F.one, 1: x})
    assert copy.deepcopy(ech).pivots == ech.pivots


@pytest.mark.parametrize("other", [Fraction(1, 2), 0.5], ids=["Fraction", "float"])
def test_prime_field_element_rejects_foreign_operands(other):
    one = PrimeField(2).one
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(one, other)
        with pytest.raises(TypeError):
            op(other, one)
