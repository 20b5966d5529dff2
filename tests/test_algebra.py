"""Algebra engine tests.

Dimension and Cartan values for the hand-sized graphs are checked against a
self-contained brute-force oracle: enumerate every raw path of the quiver up
to a length bound, impose every bounded two-sided multiple of every
relation, and row-reduce over the rationals with an elementary eliminator
kept independent of the package's rewriting engine.
"""
import random
from fractions import Fraction

import pytest

from brauer_derive.algebra import (
    AlgebraElement,
    CompositionMismatch,
    _relation_combos,
    a_n_presentation,
    omega_relations,
    presentations_equal_on_basis,
    quotient_basis,
    socle_quotient,
)
from brauer_derive.graph import loop_star, parse_graph
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver

from conftest import (
    G_MIN_TEXT,
    algebra_for,
    arrows_by_source,
    cartan_entry,
    corpus_graphs,
    named_presentation,
    omega_relations_oracle,
    path_element,
    products_equal_oracle,
    reduce_element,
    relation_words,
    socle_words_oracle,
)
from test_random_graphs import random_one_loop_graph


# -- brute-force oracle ------------------------------------------------


def raw_paths(q, maxlen):
    """All composable arrow-name paths up to maxlen, plus trivial ones."""
    out = {v: [(v, ())] for v in q.vertices}
    level = [(v, ()) for v in q.vertices]
    paths = list(level)
    for _ in range(maxlen):
        nxt = []
        for src, word in level:
            at = q.by_name[word[-1]].target if word else src
            for a in q.arrows:
                if a.source == at:
                    nxt.append((src, word + (a.name,)))
        paths.extend(nxt)
        level = nxt
    return paths


def brute_force_blocks(q, presentation, maxlen=10):
    """Per-(source, target) dimensions of the quotient, by raw elimination."""
    paths = raw_paths(q, maxlen)
    index = {p: i for i, p in enumerate(paths)}

    def target_of(src, word):
        return q.by_name[word[-1]].target if word else src

    rows = []
    by_end = {}
    by_start = {}  # source -> words by length
    for src, word in paths:
        by_end.setdefault(target_of(src, word), []).append((src, word))
        by_start.setdefault(src, [[] for _ in range(maxlen + 1)])[len(word)].append(word)
    for rel in presentation.relations:
        rlen = max(len(w) for w in relation_words(rel))
        for usrc, u in by_end.get(rel.source, []):
            # u * rel * v stays within maxlen exactly when len(v) is small enough
            for vlen in range(maxlen - len(u) - rlen + 1):
                for v in by_start[rel.target][vlen]:
                    row = {}
                    for word, coeff in rel.terms:
                        key = index[(usrc, u + tuple(word) + v)]
                        row[key] = row.get(key, Fraction(0)) + Fraction(coeff)
                    if row:
                        rows.append({k: c for k, c in row.items() if c})

    # plain sparse elimination, largest path index as pivot
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                lc = row[lead]
                pivots[lead] = {k: c / lc for k, c in row.items()}
                break
            factor = row[lead]
            for k, c in piv.items():
                row[k] = row.get(k, Fraction(0)) - factor * c
                if not row[k]:
                    del row[k]
    # Words near the cutoff can survive spuriously because the rows that
    # would kill them involve multiples past maxlen; require an empty window
    # of three lengths below that boundary zone and count below the window.
    boundary = maxlen - 4
    dims = {}
    for i, (src, word) in enumerate(paths):
        if i in pivots:
            continue
        length = len(word)
        if boundary - 3 < length <= boundary:
            raise AssertionError("oracle bound too small: no stabilization window")
        if length > boundary:
            continue
        key = (src, target_of(src, word))
        dims.setdefault(key, []).append(length)
    return {k: len(v) for k, v in dims.items()}


# -- relations ---------------------------------------------------------


def rel_words(p):
    return {frozenset((w, c) for w, c in rel.terms) for rel in p.relations}


def test_omega_relations_g_min():
    q = build_quiver(parse_graph(G_MIN_TEXT))
    expected = {
        frozenset({(("b_1", "a_2"), Fraction(1))}),
        frozenset({(("a_3", "b_2"), Fraction(1))}),
        frozenset({(("b_2", "b_1"), Fraction(1))}),
        frozenset({(("b_2", "a_1", "b_1"), Fraction(-1)), (("a_2", "a_3"), Fraction(1))}),
        frozenset({(("a_3", "a_2", "a_3"), Fraction(1))}),
        frozenset({(("a_1", "a_1"), Fraction(1)), (("a_1", "b_1", "b_2"), Fraction(-1))}),
        frozenset({(("a_1", "b_1", "b_2"), Fraction(1)), (("b_1", "b_2", "a_1"), Fraction(1))}),
    }
    assert rel_words(omega_relations(q)) == expected


def test_omega_relations_loop_star_1():
    q = build_quiver(loop_star(1))
    expected = {
        frozenset({(("b_1", "b_1"), Fraction(1))}),
        frozenset({(("a_1", "a_1"), Fraction(1)), (("a_1", "b_1"), Fraction(-1))}),
        frozenset({(("a_1", "b_1"), Fraction(1)), (("b_1", "a_1"), Fraction(1))}),
    }
    assert rel_words(omega_relations(q)) == expected


def test_omega_relations_loop_star_n():
    n = 4
    q = build_quiver(loop_star(n))
    beta = tuple(f"b_{i}" for i in range(1, n + 1))
    expected = {frozenset({(("b_4", "b_1"), Fraction(1))})}
    expected.add(frozenset({(("a_1", "a_1"), Fraction(1)), ((("a_1",) + beta), Fraction(-1))}))
    expected.add(frozenset({((("a_1",) + beta), Fraction(1)), ((beta + ("a_1",)), Fraction(1))}))
    for j in range(2, n + 1):
        word = beta[j - 1 :] + ("a_1",) + beta[: j - 1] + (f"b_{j}",)
        expected.add(frozenset({(word, Fraction(1))}))
    assert rel_words(omega_relations(q)) == expected


def relation_graphs():
    graphs = list(corpus_graphs().values()) + [loop_star(n) for n in (1, 2, 9, 36)]
    return graphs + [random_one_loop_graph(random.Random(s), 3 + s) for s in range(24)]


def test_omega_relations_match_the_named_oracle():
    """Arrow-id relations from one walk per cycle name the relations the
    named builder gives, term for term and in order, and complete from the
    same combos in the same order, over Q and GF(2)."""
    for g in relation_graphs():
        q = build_quiver(g)
        p, oracle = omega_relations(q), omega_relations_oracle(q)
        assert p.relations == oracle.relations, g
        assert [str(r) for r in p.relations] == [str(r) for r in oracle.relations]
        hand_built = named_presentation(q, oracle.relations)
        assert hand_built.id_relations == p.id_relations
        for field in (QQ, PrimeField(2)):
            combos = [list(c.items()) for c in _relation_combos(p, field)]
            assert combos == [list(c.items()) for c in _relation_combos(hand_built, field)]


def test_a_n_presentation():
    p1 = a_n_presentation(1)
    expected = {
        frozenset({(("a_1", "a_1"), Fraction(1))}),
        frozenset({(("b_1", "b_1"), Fraction(1))}),
        frozenset({(("a_1", "b_1"), Fraction(1)), (("b_1", "a_1"), Fraction(1))}),
    }
    assert rel_words(p1) == expected
    assert len(a_n_presentation(2).relations) == 4
    # omega and a_n differ exactly in the loop-square relation
    q = build_quiver(loop_star(3))
    diff = rel_words(omega_relations(q)) ^ rel_words(a_n_presentation(3))
    assert len(diff) == 2
    assert all(any(w == ("a_1", "a_1") for w, _ in d) for d in diff)


# -- quotient engine ---------------------------------------------------


def test_omega_1_structure():
    A = algebra_for(loop_star(1))
    assert A.dim == 4
    assert A.cartan().rows == ((4,),)
    aa = A.path_element(("a_1", "a_1"))
    ab = A.path_element(("a_1", "b_1"))
    ba = A.path_element(("b_1", "a_1"))
    assert aa == ab and not aa.is_zero()
    assert ab.coeffs == tuple(-c for c in ba.coeffs)


def test_brute_force_g_min():
    g = parse_graph(G_MIN_TEXT)
    q = build_quiver(g)
    p = omega_relations(q)
    oracle = brute_force_blocks(q, p)
    A = algebra_for(g)
    assert sum(oracle.values()) == 14
    assert A.dim == 14
    for i in A.vertices:
        for j in A.vertices:
            assert len(A.block(i, j)) == oracle.get((i, j), 0)
    assert A.cartan().rows == ((4, 2, 0), (2, 2, 1), (0, 1, 2))


def test_brute_force_omega_3():
    q = build_quiver(loop_star(3))
    oracle = brute_force_blocks(q, omega_relations(q), maxlen=12)
    A = algebra_for(loop_star(3))
    for i in A.vertices:
        for j in A.vertices:
            assert len(A.block(i, j)) == oracle.get((i, j), 0)
    assert A.cartan().rows == ((4, 2, 2), (2, 2, 1), (2, 1, 2))


def test_brute_force_chain2():
    g = parse_graph(
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
        '{"id":"v","cyclic":["2","3"]},{"id":"w","cyclic":["3","4"]}]}'
    )
    q = build_quiver(g)
    oracle = brute_force_blocks(q, omega_relations(q), maxlen=12)
    A = algebra_for(g)
    assert A.dim == sum(oracle.values())
    for i in A.vertices:
        for j in A.vertices:
            assert len(A.block(i, j)) == oracle.get((i, j), 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_omega_dimension_closed_form(n):
    assert algebra_for(loop_star(n)).dim == n * n + 3 * n


def test_multiply_identities():
    A = algebra_for(loop_star(2))
    e1 = A.e("1")
    b1 = A.path_element(("b_1",))
    assert e1 * b1 == b1
    assert b1 * A.e("2") == b1
    with pytest.raises(CompositionMismatch):
        b1 * b1


@pytest.mark.parametrize("n", [1, 3, 5])
def test_beta_cycle_anticommutes_with_loop(n):
    A = algebra_for(loop_star(n))
    beta = tuple(f"b_{i}" for i in range(1, n + 1))
    left = A.path_element(beta + ("a_1",))
    right = A.path_element(("a_1",) + beta)
    assert left.coeffs == tuple(-c for c in right.coeffs)
    assert not left.is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_associativity_exhaustive_small(n):
    A = algebra_for(loop_star(n))
    for i in A.vertices:
        for j in A.vertices:
            for k in A.vertices:
                for x in A.block_basis(i, j):
                    for y in A.block_basis(j, k):
                        xy = x * y
                        for m in A.vertices:
                            for z in A.block_basis(k, m):
                                assert (xy * z) == (x * (y * z))


def test_associativity_random(g_min):
    rng = random.Random(7)
    A = algebra_for(loop_star(5))
    verts = A.vertices
    for _ in range(200):
        i, j, k, m = (rng.choice(verts) for _ in range(4))
        bx, by, bz = A.block_basis(i, j), A.block_basis(j, k), A.block_basis(k, m)
        if not (bx and by and bz):
            continue
        x, y, z = rng.choice(bx), rng.choice(by), rng.choice(bz)
        assert (x * y) * z == x * (y * z)


def test_idempotent_grading(corpus):
    rng = random.Random(3)
    for g in list(corpus.values())[:4]:
        A = algebra_for(g)
        q = A.quiver
        for _ in range(20):
            at = rng.choice(A.vertices)
            word = []
            src = at
            for _ in range(rng.randrange(1, 6)):
                outs = arrows_by_source(q, at)
                if not outs:
                    break
                a = rng.choice(outs)
                word.append(a.name)
                at = a.target
            if not word:
                continue
            x = A.path_element(tuple(word))
            assert x.source == src and x.target == at


def test_hom_vanishing_pattern(corpus):
    for g in corpus.values():
        A = algebra_for(g)
        q = A.quiver
        cycles = [
            {a.source for a in c.arrows} for c in q.cycles if c.arrows
        ]
        C = A.cartan()
        for i in A.vertices:
            for j in A.vertices:
                if i == j:
                    continue
                common = any(i in cyc and j in cyc for cyc in cycles)
                if not common:
                    assert cartan_entry(C, i, j) == 0
                else:
                    assert cartan_entry(C, i, j) >= 1


def test_engine_stability_g_min(g_min):
    A = algebra_for(g_min)
    for dcap, dmargin in ((0, 1), (1, 0)):
        B = quotient_basis(
            A.presentation, cap=A.cap + dcap, margin=A.margin + dmargin
        )
        assert B.dim == A.dim
        assert {k: len(v) for k, v in B.blocks.items()} == {
            k: len(v) for k, v in A.blocks.items()
        }


# -- socle -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4])
def test_socle_classes_by_annihilation(n):
    A = algebra_for(loop_star(n))
    socle = A.socle_words()
    # weakly symmetric: one socle class per vertex
    assert len(socle) == n
    sources = sorted(s for s, _ in socle)
    assert sources == sorted(A.vertices)
    # socle classes multiply to zero with every arrow, and are closed
    # under arrow action only to zero
    for s, w in socle:
        (key,) = [key for key, words in A.blocks.items() if key[0] == s and w in words]
        x = A.block_basis(*key)[A.blocks[key].index(w)]
        for a in A.quiver.arrows:
            if a.source == x.target:
                assert (x * A.arrow_element(a.name)).is_zero()
            if a.target == x.source:
                assert (A.arrow_element(a.name) * x).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_socle_equivalence_small(n):
    O = algebra_for(loop_star(n))
    An = quotient_basis(a_n_presentation(n))
    assert not presentations_equal_on_basis(O, An)
    assert presentations_equal_on_basis(socle_quotient(O), socle_quotient(An))
    assert socle_quotient(O).dim == O.dim - n


def test_presentations_equal_reflexive(g_min):
    A = algebra_for(g_min)
    assert presentations_equal_on_basis(A, A)


def test_prime_field_smoke():
    q = build_quiver(loop_star(2))
    A = quotient_basis(omega_relations(q), field=PrimeField(3))
    assert A.dim == 10
    A2 = quotient_basis(omega_relations(q), field=PrimeField(2))
    assert A2.dim == 10


def test_basis_table(g_min):
    table = algebra_for(g_min).basis_table()
    assert "(1,1): e_1" in table
    assert "a_1" in table


def test_quiver_mismatch():
    from brauer_derive.algebra import QuiverMismatch

    A = algebra_for(loop_star(2))
    B = algebra_for(loop_star(3))
    with pytest.raises(QuiverMismatch):
        presentations_equal_on_basis(A, B)


def test_reduce_path_element(g_min):
    from fractions import Fraction

    A = algebra_for(g_min)
    elt = path_element(
        "1", "1", {("a_1", "a_1"): Fraction(1), ("a_1", "b_1", "b_2"): Fraction(-1)}
    )
    assert reduce_element(A, elt).is_zero()  # this is a relation
    half = path_element("1", "1", {("a_1",): Fraction(1, 2)})
    got = reduce_element(A, half)
    assert got == A.path_element(("a_1",)).scale(Fraction(1, 2))


def test_blockless_paths_are_composition_mismatches(g_min):
    A = algebra_for(g_min)
    with pytest.raises(CompositionMismatch, match="use e"):
        A.path_element(())
    with pytest.raises(CompositionMismatch, match="empty element"):
        reduce_element(A, path_element("1", "1", {}))



def test_elements_reject_other_blocks_paths_and_algebras(g_min):
    A = algebra_for(g_min)
    with pytest.raises(CompositionMismatch, match="^elements live in different blocks$"):
        A.e("1") + A.e("2")
    with pytest.raises(CompositionMismatch, match="^b_1 then a_1 do not compose$"):
        A.path_element(("b_1", "a_1"))
    other = algebra_for(loop_star(1))
    with pytest.raises(CompositionMismatch, match="^elements of a different algebra$"):
        A.multiply(A.e("1"), other.e("1"))

def test_multiply_operation_surface():
    A1 = algebra_for(loop_star(1))
    a = A1.path_element(("a_1",))
    b = A1.path_element(("b_1",))
    ab = A1.path_element(("a_1", "b_1"))
    assert a * a == ab  # the loop squares to the mixed cycle
    for n in (2, 4):
        A = algebra_for(loop_star(n))
        beta = A.path_element(tuple(f"b_{i}" for i in range(1, n + 1)))
        alpha = A.path_element(("a_1",))
        left = beta * alpha
        right = alpha * beta
        assert left.coeffs == tuple(-c for c in right.coeffs)
        assert not left.is_zero()


# -- arrow actions against the normal-form product oracle --------------

FIELDS = {"Q": QQ, "GF(2)": PrimeField(2), "GF(3)": PrimeField(3)}


def _agree(A, B):
    """presentations_equal_on_basis(A, B), asserted equal to the oracle's answer."""
    got = presentations_equal_on_basis(A, B)
    assert got is products_equal_oracle(A, B)
    return got


def _socle(A):
    """socle_quotient(A), after asserting that A's socle matches the oracle's."""
    assert A.socle_words() == socle_words_oracle(A)
    return socle_quotient(A)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "n", [n if n < 10 else pytest.param(n, marks=pytest.mark.slow) for n in range(1, 15)]
)
def test_star_comparison_matches_oracle(n, field):
    O = quotient_basis(omega_relations(build_quiver(loop_star(n))), field=FIELDS[field])
    An = quotient_basis(a_n_presentation(n), field=FIELDS[field])
    assert not _agree(O, An)
    sO, sA = _socle(O), _socle(An)
    assert _agree(sO, sA)
    assert _agree(_socle(sO), _socle(sA))


def _deformed(p):
    """The socle deformation of omega_relations: the loop squares to zero."""
    a1 = p.quiver.loop_arrow.name
    rels = tuple(
        path_element(r.source, r.target, {(a1, a1): Fraction(1)})
        if (a1, a1) in relation_words(r) else r
        for r in p.relations
    )
    return named_presentation(p.quiver, rels)


def _sign_flipped(p):
    """omega_relations with a1*B + B*a1 = 0 made a1*B - B*a1 = 0, B the
    beta cycle at the loop vertex: the same words, other products outside
    characteristic 2."""
    *rels, last = p.relations
    terms = dict(last.terms)
    word = next(w for w in terms if w[-1] == p.quiver.loop_arrow.name)
    terms[word] = -terms[word]
    return named_presentation(p.quiver, (*rels, path_element(last.source, last.target, terms)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(8))
def test_random_graph_comparison_matches_oracle(seed, field):
    rng = random.Random(seed)
    g = random_one_loop_graph(rng, rng.randint(3, 14))
    F = FIELDS[field]
    p = omega_relations(build_quiver(g))
    A = quotient_basis(p, field=F)
    sA = _socle(A)
    D = quotient_basis(_deformed(p), field=F)
    assert not _agree(A, D)
    assert _agree(sA, _socle(D))
    S = quotient_basis(_sign_flipped(p), field=F)
    assert A.blocks == S.blocks
    assert _agree(A, S) is (field == "GF(2)")
    assert _agree(sA, _socle(S))
    assert _agree(A, A) and _agree(sA, sA)


def test_perturbed_relation_changes_the_socle_quotient():
    """Over GF(2), the relation a1*a1 of A(2) given the term b1*b2 (its
    coefficient perturbed from 0 to 1) keeps every basis word of the socle
    quotient but not its products."""
    F = PrimeField(2)
    p = a_n_presentation(2)
    r = next(r for r, rel in enumerate(p.relations) if relation_words(rel) == [("a_1", "a_1")])
    rels = list(p.relations)
    rels[r] = path_element(
        "1", "1", {("a_1", "a_1"): Fraction(1), ("b_1", "b_2"): Fraction(1)}
    )
    base = socle_quotient(quotient_basis(p, field=F))
    mutant = _socle(quotient_basis(named_presentation(p.quiver, rels), field=F))
    assert base.blocks == mutant.blocks
    assert not _agree(base, mutant)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_perturbed_coefficient_changes_the_full_algebra(n):
    """Omega(n) with the coefficient of a1*a1 doubled keeps every basis word
    but not the products; the socle quotient does not see it."""
    p = omega_relations(build_quiver(loop_star(n)))
    r, rel = next(
        (r, rel) for r, rel in enumerate(p.relations) if ("a_1", "a_1") in relation_words(rel)
    )
    terms = dict(rel.terms)
    terms[("a_1", "a_1")] *= 2
    rels = list(p.relations)
    rels[r] = path_element(rel.source, rel.target, terms)
    A, B = quotient_basis(p), quotient_basis(named_presentation(p.quiver, rels))
    assert A.blocks == B.blocks
    assert not _agree(A, B)
    assert _agree(_socle(A), _socle(B))


def _idempotent_cases():
    """Name -> presentation: every corpus graph, Omega(N) and A(N) for
    N <= 6, and (None) the socle quotient of Omega(4)."""
    cases = {name: omega_relations(build_quiver(g)) for name, g in corpus_graphs().items()}
    for n in range(1, 7):
        cases[f"omega{n}"] = omega_relations(build_quiver(loop_star(n)))
        cases[f"an{n}"] = a_n_presentation(n)
    cases["omega4 socle quotient"] = None
    return cases


IDEMPOTENT_CASES = _idempotent_cases()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("case", sorted(IDEMPOTENT_CASES))
def test_vertex_idempotent_is_the_first_basis_word(case, field):
    """``e`` and ``scalar_part`` read position 0 of a diagonal block as the
    trivial word, and ``multiply`` returns the other factor of e_v: () is
    the first word of every block (v, v), e_v is the class of (), and e_i b
    and b e_j are b for every basis element b, summed from path classes by
    ``times_basis`` and ``basis_times``, which take no short cut."""
    p, F = IDEMPOTENT_CASES[case], FIELDS[field]
    if p is None:
        A = socle_quotient(quotient_basis(omega_relations(build_quiver(loop_star(4))), field=F))
        assert A.dropped
    else:
        A = quotient_basis(p, field=F)
    rng = random.Random(31)
    for v in A.vertices:
        assert A.block(v, v)[0] == ()
        assert A.e(v).coeffs == A.reduce_word(v, ()).coeffs
        assert A.e(v).scalar_part() == F.one
    for (i, j), words in A.blocks.items():
        if not words:
            continue
        units = tuple(((pos, F.one),) for pos in range(len(words)))
        assert A.times_basis(A.e(i), j) == units and A.basis_times(i, A.e(j)) == units
        x = AlgebraElement(A, i, j, [F.from_int(rng.randint(-3, 3)) for _ in words])
        assert A.multiply(A.e(i), x) == x and A.multiply(x, A.e(j)) == x
