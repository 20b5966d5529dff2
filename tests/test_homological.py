import random
from fractions import Fraction

import pytest

from brauer_derive.algebra import a_n_presentation, omega_relations, quotient_basis
from brauer_derive.graph import loop_star, parse_graph
from brauer_derive.homological import (
    ChainMap,
    ChainMapFailure,
    NotAComplex,
    ProjComplex,
    check_complex,
    direct_sum,
    happel_cartan,
    homotopy_hom,
    is_null_homotopic,
    is_stalk,
    mapping_cone,
    minimize,
    _HomSolver,
    _local_inverse,
    _pieces,
    _then,
    _vanishes_mod_2,
)
from brauer_derive import linalg
from brauer_derive.linalg import QQ, BitEchelon, NotIntegral, PrimeField, SparseEchelon
from brauer_derive.quiver import build_quiver
from brauer_derive.tilting import (
    enlarge_complex,
    enlarge_data,
    shrink_complex,
    verify_end_generators,
)

from conftest import (
    CORPUS_TEXTS,
    G_MIN_TEXT,
    algebra_for,
    cartan_entry,
    corpus_graphs,
    diff_entry,
    identity,
    is_zero_complex,
    shift,
    zero_element,
)
from test_scale import deep_tree


@pytest.fixture(scope="module")
def A3():
    return algebra_for(loop_star(3))


@pytest.fixture(scope="module")
def Am():
    return algebra_for(parse_graph(G_MIN_TEXT))


def two_term(A, i, j, elt):
    return ProjComplex(A, {0: (i,), 1: (j,)}, {0: {(0, 0): elt}})


def test_hom_block_dims(A3):
    assert len(A3.block_basis("1", "1")) == 4
    block23 = A3.block_basis("2", "3")
    assert len(block23) == 1 and str(block23[0]) == "b_2"
    for v in A3.vertices:
        basis = A3.block_basis(v, v)
        assert any(x == A3.e(v) for x in basis)


def test_check_complex(Am):
    assert check_complex(ProjComplex.stalk(Am, "2"))
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    assert check_complex(Q3)
    bad = ProjComplex(
        Am,
        {0: ("1",), 1: ("2",), 2: ("1",)},
        {0: {(0, 0): Am.path_element(("b_1",))}, 1: {(0, 0): Am.path_element(("b_2",))}},
    )
    with pytest.raises(NotAComplex):
        check_complex(bad)



def test_check_complex_rejects_an_entry_in_the_wrong_block(Am):
    # b_1 runs from 1 to 2, but d0 goes from P(2) to P(3)
    bad = ProjComplex(Am, {0: ("2",), 1: ("3",)}, {0: {(0, 0): Am.path_element(("b_1",))}})
    with pytest.raises(NotAComplex, match=r"^entry \(0,0\) of d0 lies in the wrong block$"):
        check_complex(bad)


def test_chain_maps_reject_misplaced_and_mismatched_operands(Am):
    P2, P3 = ProjComplex.stalk(Am, "2"), ProjComplex.stalk(Am, "3")
    with pytest.raises(ChainMapFailure, match=r"^component \(0,0\) at degree 0 in wrong block$"):
        ChainMap(P2, P2, {0: {(0, 0): Am.e("1")}})
    f = ChainMap(P2, P3, {0: {(0, 0): Am.path_element(("a_2",))}})
    with pytest.raises(ChainMapFailure, match="^chain maps do not compose$"):
        f.compose(f)
    with pytest.raises(ChainMapFailure, match="^chain maps between different complexes$"):
        f + identity(P2)

def test_hom_refuses_complexes_over_different_algebras(A3):
    """Lambda(3) and A(3) share their vertices, so nothing else stops the
    solver from reading D's entries through C's algebra."""
    A = quotient_basis(a_n_presentation(3))
    assert A.vertices == A3.vertices
    for C, D in [
        (ProjComplex.stalk(A3, "1"), ProjComplex.stalk(A, "1")),
        (ProjComplex.stalk(A, "1"), ProjComplex.stalk(A3, "1")),
    ]:
        message = r"^Hom between complexes over different algebras$"
        with pytest.raises(ChainMapFailure, match=message):
            homotopy_hom(C, D, 0)
        f = ChainMap(C, D, {0: {(0, 0): C.algebra.e("1")}}, check=False)
        with pytest.raises(ChainMapFailure, match=message):
            is_null_homotopic(f)


def test_stalk_hom_dims(A3):
    C = A3.cartan()
    for i in A3.vertices:
        for j in A3.vertices:
            got = homotopy_hom(ProjComplex.stalk(A3, i), ProjComplex.stalk(A3, j))
            assert got == cartan_entry(C, i, j)
            assert homotopy_hom(ProjComplex.stalk(A3, i), ProjComplex.stalk(A3, j), 1) == 0


def test_shift_identities(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    assert shift(Q3, 0) == Q3
    assert shift(shift(Q3, 1), -1) == Q3
    assert shift(Q3, 2).term(-2) == ("2",)
    P1 = ProjComplex.stalk(Am, "1")
    for k in (-2, -1, 0, 1):
        assert (
            homotopy_hom(Q3, P1, k)
            == homotopy_hom(Q3, shift(P1, k), 0)
        )


def test_cone_of_zero_map(Am):
    C = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    D = ProjComplex.stalk(Am, "1")
    zero = ChainMap(C, D, {}, check=True)
    cone = mapping_cone(zero)
    expected = direct_sum([shift(C, 1), D])
    assert cone == expected
    assert check_complex(cone)


def test_empty_direct_sum_is_not_a_complex():
    with pytest.raises(NotAComplex, match="empty direct sum"):
        direct_sum([])


def test_cone_of_identity_contractible(Am):
    for C in (
        ProjComplex.stalk(Am, "1"),
        two_term(Am, "2", "3", Am.path_element(("a_2",))),
    ):
        cone = mapping_cone(identity(C))
        assert check_complex(cone)
        assert is_zero_complex(minimize(cone))
        for k in (-2, -1, 0, 1, 2):
            assert homotopy_hom(C, cone, k) == 0


def test_minimize_fixpoint_and_idempotent(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    assert minimize(Q3) == Q3
    cone = mapping_cone(identity(Q3))
    m = minimize(cone)
    assert is_zero_complex(m)
    assert minimize(m) == m


def test_minimize_preserves_homotopy_homs(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    cone = mapping_cone(ChainMap(Q3, ProjComplex.stalk(Am, "2"), {0: {(0, 0): Am.e("2")}}))
    m = minimize(cone)
    assert is_stalk(m) == ("3", 0)
    for probe in (ProjComplex.stalk(Am, "2"), Q3):
        for k in (-2, -1, 0, 1, 2):
            assert (
                homotopy_hom(probe, cone, k)
                == homotopy_hom(probe, m, k)
            )
            assert (
                homotopy_hom(cone, probe, k)
                == homotopy_hom(m, probe, k)
            )


def test_homotopy_hom_vanishes_beyond_widths(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    w = Q3.width + Q3.width
    for k in (w + 1, -w - 1, w + 3):
        assert homotopy_hom(Q3, Q3, k) == 0


def test_homotopy_hom_basis(Am):
    """End(P(2)) has one dimension per basis word of e_2 A e_2."""
    P2 = ProjComplex.stalk(Am, "2")
    assert homotopy_hom(P2, P2, 0) == 2 == len(Am.block("2", "2"))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
@pytest.mark.parametrize("graph,arrow", [
    (G_MIN_TEXT, "a_2"),  # P(2) -> P(3)
    ("loop_star(3)", "a_1"),  # P(1) -> P(1), whose block has dimension 4
])
def test_hom_between_more_copies_than_the_algebra_has_dimensions(field, graph, arrow):
    """Hom(C^k, C^k[r]) is k^2 Hom(C, C[r]).  With k above dim A, the
    summand indices bound the numbers the solver gives its rows and
    columns as much as the coordinates in a block do."""
    g = loop_star(3) if graph == "loop_star(3)" else parse_graph(graph)
    A = quotient_basis(omega_relations(build_quiver(g)), field=field)
    x = A.path_element((arrow,))
    C = two_term(A, x.source, x.target, x)
    k = A.dim + 2
    Ck = direct_sum([C] * k)
    dims = [homotopy_hom(C, C, r) for r in range(-2, 3)]
    assert dims[2] > 0
    assert [homotopy_hom(Ck, Ck, r) for r in range(-2, 3)] == [k * k * d for d in dims]


def _mod2_count(solver):
    return solver.dimension(BitEchelon)


def test_mod2_screen_leaves_an_even_differential_to_the_exact_ranks(Am):
    """P(2) -> P(2) by 2 e_2 is contractible over Q, but its differential is
    0 mod 2, so the mod-2 count at shift 0 is positive: the screen proves
    nothing and the exact ranks answer 0.  A screen that took a positive
    count as vanishing would also give 0 for End(P(2)), which has
    dimension 2."""
    assert Am.field == QQ
    C = two_term(Am, "2", "2", Am.e("2").scale(2))
    assert check_complex(C)
    solver = _HomSolver(C, C, 0)
    assert _mod2_count(solver) > 0 and not _vanishes_mod_2(solver)
    assert solver.dimension(lambda: SparseEchelon(QQ.one)) == 0
    for k in range(-2, 3):
        assert homotopy_hom(C, C, k) == 0
    P2 = ProjComplex.stalk(Am, "2")
    assert _mod2_count(_HomSolver(P2, P2)) == 2 and not _vanishes_mod_2(_HomSolver(P2, P2))
    assert homotopy_hom(P2, P2) == 2


def test_mod2_screen_does_not_run_on_a_fraction_entry(Am):
    """P(2) -> P(2) by 1/2 e_2 has Fraction entries in its rows, so no
    parity is read: the screen stops at the first of them and the exact
    ranks answer, 0 as the complex is contractible."""
    C = two_term(Am, "2", "2", Am.e("2").scale(Fraction(1, 2)))
    for k in range(-2, 3):
        solver = _HomSolver(C, C, k)
        if not solver.nvars:
            continue
        with pytest.raises(NotIntegral):
            _mod2_count(solver)
        assert not _vanishes_mod_2(solver)
        assert homotopy_hom(C, C, k) == 0
    P2 = ProjComplex.stalk(Am, "2")
    assert homotopy_hom(C, P2, 0) == 0 == homotopy_hom(P2, C, 1)


def test_null_homotopy(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    P2 = ProjComplex.stalk(Am, "2")
    # the truncation map is not null homotopic
    trunc = ChainMap(Q3, P2, {0: {(0, 0): Am.e("2")}})
    assert not is_null_homotopic(trunc)
    # multiplication by the full cycle factors through the differential
    factored = ChainMap(Q3, P2, {0: {(0, 0): Am.path_element(("a_2", "a_3"))}})
    assert is_null_homotopic(factored)


def test_happel_stalks_reproduce_cartan(A3):
    C = A3.cartan()
    stalks = [ProjComplex.stalk(A3, v) for v in A3.vertices]
    got = happel_cartan(stalks, C, labels=A3.vertices)
    assert got.rows == C.rows


def test_happel_g_min_hand_value(Am):
    C = Am.cartan()
    Q1 = ProjComplex.stalk(Am, "1")
    Q2 = ProjComplex.stalk(Am, "2")
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    got = happel_cartan([Q1, Q3, Q2], C, labels=("1", "3", "2"))
    assert got.rows == ((4, 2, 2), (2, 2, 1), (2, 1, 2))
    # hand check of one alternating sum entry
    assert got.rows[1][1] == (
        cartan_entry(C, "2", "2") - cartan_entry(C, "2", "3")
        - cartan_entry(C, "3", "2") + cartan_entry(C, "3", "3")
    )


def random_complexes(A, rng, count):
    """Valid bounded complexes: stalk sums and two-term pieces, shifted."""
    out = []
    verts = A.vertices
    while len(out) < count:
        kind = rng.randrange(3)
        deg = rng.randrange(-2, 3)
        if kind == 0:
            vs = tuple(rng.choice(verts) for _ in range(rng.randrange(1, 3)))
            out.append(ProjComplex(A, {deg: vs}, {}))
            continue
        i = rng.choice(verts)
        targets = [j for j in verts if A.block(i, j)]
        j = rng.choice(targets)
        basis = A.block_basis(i, j)
        elt = basis[rng.randrange(len(basis))]
        C = ProjComplex(A, {deg: (i,), deg + 1: (j,)}, {deg: {(0, 0): elt}})
        if kind == 2:
            # try to extend one more step with a composable annihilator
            exts = [
                (k, y)
                for k in verts
                for y in A.block_basis(j, k)
                if (elt * y).is_zero()
            ]
            if exts:
                k, y = exts[rng.randrange(len(exts))]
                C = ProjComplex(
                    A,
                    {deg: (i,), deg + 1: (j,), deg + 2: (k,)},
                    {deg: {(0, 0): elt}, deg + 1: {(0, 0): y}},
                )
        check_complex(C)
        out.append(C)
    return out


def s_matrix(complexes, verts):
    rows = []
    for C in complexes:
        row = {v: 0 for v in verts}
        for n in C.degrees():
            for v in C.term(n):
                row[v] += (-1) ** n
        rows.append([row[v] for v in verts])
    return rows


def test_happel_equals_s_c_st_random(Am):
    rng = random.Random(11)
    C = Am.cartan()
    verts = Am.vertices
    for _ in range(25):
        comps = random_complexes(Am, rng, 4)
        got = happel_cartan(comps, C, [str(k) for k in range(len(comps))])
        S = s_matrix(comps, verts)
        Cm = [[cartan_entry(C, i, j) for j in verts] for i in verts]
        n = len(comps)
        expect = [
            [
                sum(
                    S[z][a] * Cm[a][b] * S[w][b]
                    for a in range(len(verts))
                    for b in range(len(verts))
                )
                for w in range(n)
            ]
            for z in range(n)
        ]
        assert [list(r) for r in got.rows] == expect


def test_direct_sum_structure(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    P1 = ProjComplex.stalk(Am, "1")
    total = direct_sum([P1, Q3, P1])
    assert total.term(0) == ("1", "2", "1")
    assert total.term(1) == ("3",)
    assert check_complex(total)


def test_complex_dump(Am):
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    text = Q3.dump()
    assert "deg 0: P(2)" in text
    assert "deg 1: P(3)" in text
    assert "a_2" in text


def test_minimize_random_sums_preserve_homs(Am):
    """Minimal forms keep every homotopy Hom dimension and never grow."""
    rng = random.Random(23)
    probes = [
        ProjComplex.stalk(Am, "1"),
        two_term(Am, "2", "3", Am.path_element(("a_2",))),
    ]
    for _ in range(10):
        pieces = random_complexes(Am, rng, 3)
        # splice in a contractible pair to give minimize something to cancel
        v = rng.choice(Am.vertices)
        deg = rng.randrange(-1, 2)
        pieces.append(
            ProjComplex(Am, {deg: (v,), deg + 1: (v,)}, {deg: {(0, 0): Am.e(v)}})
        )
        total = direct_sum(pieces)
        m = minimize(total)
        check_complex(m)
        assert m.total_summands() <= total.total_summands() - 2
        assert minimize(m) == m
        for probe in probes:
            for k in (-1, 0, 1):
                assert (
                    homotopy_hom(probe, total, k)
                    == homotopy_hom(probe, m, k)
                )
                assert (
                    homotopy_hom(total, probe, k)
                    == homotopy_hom(m, probe, k)
                )


def test_summand_grouping(Am):
    C = ProjComplex(Am, {0: ("1", "2", "2", "1"), 1: ("3",)}, {})
    assert C.dump() == "deg 0: P(1) ⊕ P(2)^2 ⊕ P(1)\ndeg 1: P(3)"


def test_minimize_correction_term(Am):
    """Eliminating a unit inside a 2x2 block must apply the correction."""
    e2 = Am.e("2")
    a2 = Am.path_element(("a_2",))
    a3 = Am.path_element(("a_3",))
    cyc3 = Am.path_element(("a_3", "a_2"))
    # corrected entry = cyc3 - a3 * e2^-1 * a2 = 0: the complex splits
    C = ProjComplex(
        Am,
        {0: ("2", "3"), 1: ("2", "3")},
        {0: {(0, 0): e2, (0, 1): a3, (1, 0): a2, (1, 1): cyc3}},
    )
    m = minimize(C)
    assert m.terms == {0: ("3",), 1: ("3",)}
    assert not m.diffs
    # with a zero corner the correction leaves a radical differential
    D = ProjComplex(Am, {0: ("2", "3"), 1: ("2", "3")}, {0: {(0, 0): e2, (0, 1): a3, (1, 0): a2}})
    assert D.dump().splitlines()[1] == "d0: [e_2, a_3; a_2, 0]"  # absent entries print as 0
    md = minimize(D)
    assert md.terms == {0: ("3",), 1: ("3",)}
    entry = diff_entry(md, 0, 0, 0)
    assert entry == cyc3.scale(Am.field.from_int(-1))
    for probe in (ProjComplex.stalk(Am, "2"), ProjComplex.stalk(Am, "3")):
        for k in (-1, 0, 1):
            assert (
                homotopy_hom(probe, D, k)
                == homotopy_hom(probe, md, k)
            )


def test_minimize_three_term_adjacent_bookkeeping(Am):
    """Cancelling a middle pair must drop the right row/column next door."""
    e3 = Am.e("3")
    a2 = Am.path_element(("a_2",))
    cyc2 = Am.path_element(("b_2", "a_1", "b_1"))  # radical loop at 2
    # 0 -> P(2) -(0, cyc2)-> P(3)+P(2) -(e3, a2)-> P(3) -> 0
    # d^2 = 0 because cyc2 * a2 vanishes; the e3 pair is contractible
    C = ProjComplex(
        Am,
        {0: ("2",), 1: ("3", "2"), 2: ("3",)},
        {0: {(1, 0): cyc2}, 1: {(0, 0): e3, (0, 1): a2}},
    )
    check_complex(C)
    m = minimize(C)
    check_complex(m)
    # the survivor keeps the radical differential cyc2 untouched
    assert m.terms == {0: ("2",), 1: ("2",)}
    assert diff_entry(m, 0, 0, 0) == cyc2
    for probe in (ProjComplex.stalk(Am, "2"), ProjComplex.stalk(Am, "3")):
        for k in (-2, -1, 0, 1, 2):
            assert (
                homotopy_hom(probe, C, k)
                == homotopy_hom(probe, m, k)
            )


def test_multiplicity_handling(Am):
    P2 = ProjComplex.stalk(Am, "2")
    P22 = ProjComplex(Am, {0: ("2", "2")}, {})
    assert homotopy_hom(P22, P2) == 4
    assert homotopy_hom(P22, P22) == 8
    Q3 = two_term(Am, "2", "3", Am.path_element(("a_2",)))
    QQ = direct_sum([Q3, Q3])
    assert homotopy_hom(QQ, QQ) == 4 * homotopy_hom(Q3, Q3)
    assert homotopy_hom(QQ, QQ, 1) == 0
    assert is_zero_complex(minimize(mapping_cone(identity(QQ))))


@pytest.mark.parametrize("shifted_first", [False, True])
@pytest.mark.parametrize(
    "field", [linalg.QQ, linalg.PrimeField(2), linalg.PrimeField(3)], ids=repr
)
def test_negative_odd_shift_over_every_field(field, shifted_first):
    """D[-1] carries the exact sign -1 of the field, whether ``homotopy_hom``
    shifts D or D arrives shifted.  A float sign from (-1) ** k once reached
    the GF(p) elimination and crashed it."""
    g = parse_graph(CORPUS_TEXTS["chain2"])
    A = quotient_basis(omega_relations(build_quiver(g)), field=field)
    Q3 = shrink_complex(A, g).summands["3"]
    P2 = ProjComplex(A, {1: ("2",)}, {})
    dim = homotopy_hom(P2, shift(Q3, -1), 0) if shifted_first else homotopy_hom(P2, Q3, -1)
    assert dim == 1


def test_prime_field_rejects_non_integers():
    with pytest.raises(TypeError):
        linalg.PrimeField(2).from_int(1.0)
    assert linalg.PrimeField(3).from_int(-1).value == 2


@pytest.mark.parametrize("p", [0, 2, 3], ids=["Q", "GF(2)", "GF(3)"])
def test_local_inverse_on_corpus_local_rings(p):
    """u * u^-1 = u^-1 * u = e_i for seeded units of every e_i A e_i of the
    corpus; radical elements are not units."""
    field = linalg.PrimeField(p) if p else linalg.QQ
    rng = random.Random(41 + p)
    for name, g in sorted(corpus_graphs().items()):
        A = quotient_basis(omega_relations(build_quiver(g)), field=field)
        for i in A.vertices:
            e, *radical = A.block_basis(i, i)
            assert e == A.e(i)
            for _ in range(4):
                scalar = field.from_int(rng.choice([1, -1, 2]))
                u = e.scale(scalar if scalar else field.one)
                for b in radical:
                    u = u + b.scale(field.from_int(rng.randint(-3, 3)))
                inverse = _local_inverse(u)
                assert u * inverse == e and inverse * u == e, (name, i)
            nonunit = zero_element(A, i, i)
            for b in radical:
                nonunit = nonunit + b.scale(field.from_int(rng.randint(1, 3)))
            with pytest.raises(ChainMapFailure, match="not a unit"):
                _local_inverse(nonunit)


@pytest.mark.parametrize("bits", [False, True])
def test_pieces_memo_answers_only_for_the_tuple_it_holds(bits):
    """``_pieces`` returns a memo's pieces only for the very tuple stored
    with them: a memo entry under the same id but another tuple (as a
    reused id would leave) is recomputed, and a hit is the stored list."""
    products = (((0, 1), (2, 3)), (), ((1, -1),))
    fresh = _pieces({}, products, True, True, bits)
    memo = {id(products): ((((5, 7),),), "stale")}
    got = _pieces(memo, products, True, True, bits)
    assert list(got) == list(fresh)
    assert memo[id(products)][0] is products
    assert _pieces(memo, products, True, True, bits) is got


@pytest.mark.parametrize(
    "p,scalars", [(0, (1, -1, 2)), (3, (1, -1, 2)), (2, (1,))], ids=["Q", "GF(3)", "GF(2)"]
)
def test_local_inverse_of_a_scalar_unit_takes_no_product(p, scalars, monkeypatch):
    """_local_inverse(c e_i) is c^-1 e_i, read without a product; a unit
    with a radical part still runs the series, whose products are counted."""
    field = linalg.PrimeField(p) if p else linalg.QQ
    A = quotient_basis(omega_relations(build_quiver(parse_graph(G_MIN_TEXT))), field=field)
    products = []
    multiply = type(A).multiply
    monkeypatch.setattr(
        type(A), "multiply", lambda self, x, y: products.append(1) or multiply(self, x, y)
    )
    for i in A.vertices:
        e, *radical = A.block_basis(i, i)
        for c in map(field.from_int, scalars):
            products.clear()
            inverse = _local_inverse(e.scale(c))
            assert not products, (i, c)
            assert inverse == A.e(i).scale(field.div(field.one, c)), (i, c)
            assert e.scale(c) * inverse == e, (i, c)
            if radical:
                products.clear()
                u = e.scale(c) + radical[0]
                assert u * _local_inverse(u) == e, (i, c)
                assert len(products) > 1, (i, c)


def _as_items(f):
    """f's comps with their key order, degree by degree."""
    return [(n, list(matrix.items())) for n, matrix in f.comps.items()]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=repr)
def test_compose_and_negate_match_the_checked_constructor(field, monkeypatch):
    """Every ``compose`` and negation that ``verify_end_generators`` makes
    on the corpus and on the deep21 shrink complex, the negation of every
    composite, and the square of each shrink complex's identity give the comps, in the same key order, of rebuilding
    the result through ``ChainMap(..., check=False)``, which sorts keys and
    drops zeros."""
    compose, negate = ChainMap.compose, ChainMap.__neg__
    seen = {"compose": 0, "negate": 0, "dropped": 0, "wide": 0}

    def checked_compose(f, g):
        h = compose(f, g)
        comps = {n: _then(m, g.comps[n]) for n, m in f.comps.items() if n in g.comps}
        seen["dropped"] += len(comps) - len(h.comps)
        assert _as_items(h) == _as_items(ChainMap(f.source, g.target, comps, check=False))
        seen["compose"] += 1
        checked_negate(h)
        return h

    def checked_negate(f):
        h = negate(f)
        comps = {n: {rc: -e for rc, e in m.items()} for n, m in f.comps.items()}
        assert _as_items(h) == _as_items(ChainMap(f.source, f.target, comps, check=False))
        assert (h.source, h.target) == (f.source, f.target)
        seen["negate"] += 1
        seen["wide"] += any(len(m) > 1 for m in h.comps.values())
        return h

    monkeypatch.setattr(ChainMap, "compose", checked_compose)
    monkeypatch.setattr(ChainMap, "__neg__", checked_negate)
    graphs = dict(corpus_graphs())
    graphs["deep21"] = parse_graph(deep_tree(21, seed=3))
    for name, g in graphs.items():
        A = quotient_basis(omega_relations(build_quiver(g)), field=field)
        Q = shrink_complex(A, g)
        assert verify_end_generators(Q), name
        total = identity(Q.direct_sum())
        total.compose(total)
        if not g.is_loop_star():
            at = next(c for c in g.cycle_edges[1:] if g.trees[c])
            Q = enlarge_complex(A, g, enlarge_data(g, at))
            assert verify_end_generators(Q), name
    assert seen["compose"] > 100 and seen["negate"] > 10 and seen["dropped"] > 0, seen
    assert seen["wide"] > 0, seen
