import pytest

from brauer_derive import tilting
from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.graph import edge_count, loop_star, parse_graph
from brauer_derive.homological import homotopy_hom, is_stalk
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver
from brauer_derive.tilting import (
    CertificateFailure,
    EmptyTree,
    RelationFailure,
    check_tilting,
    end_cartan,
    enlarge_complex,
    enlarge_data,
    enlarge_graph_move,
    shrink_complex,
    verify_end_generators,
)

from conftest import G_MIN_TEXT, algebra_for, canonical_relabel, structure_key

CHAIN2_TEXT = (
    '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
    '{"id":"v","cyclic":["2","3"]},{"id":"w","cyclic":["3","4"]}]}'
)


def pattern(n):
    """Expected endomorphism Cartan: 4 at the loop corner, 2 on the loop
    row/column and diagonal, 1 elsewhere."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j == 0:
                row.append(4)
            elif i == j or i == 0 or j == 0:
                row.append(2)
            else:
                row.append(1)
        rows.append(tuple(row))
    return tuple(rows)


def test_shrink_loop_star_is_stalks():
    g = loop_star(4)
    A = algebra_for(g)
    Q = shrink_complex(A, g)
    assert Q.ordering == ("1", "2", "3", "4")
    for z, C in Q.summands.items():
        assert is_stalk(C) == (z, 0)


def test_shrink_g_min(g_min):
    A = algebra_for(g_min)
    Q = shrink_complex(A, g_min)
    assert Q.ordering == ("1", "3", "2")
    assert is_stalk(Q.summands["1"]) == ("1", 0)
    assert is_stalk(Q.summands["2"]) == ("2", 0)
    Q3 = Q.summands["3"]
    assert Q3.term(0) == ("2",) and Q3.term(1) == ("3",)
    assert str(Q3.entry(0, 0, 0)) == "a_2"


def test_shrink_depth_two_chain():
    g = parse_graph(CHAIN2_TEXT)
    A = algebra_for(g)
    Q = shrink_complex(A, g)
    Q4 = Q.summands["4"]
    assert Q4.degrees() == [0, 1, 2]
    assert Q4.term(0) == ("2",) and Q4.term(1) == ("3",) and Q4.term(2) == ("4",)


def test_check_tilting_shrink(g_min):
    A = algebra_for(g_min)
    cert = check_tilting(shrink_complex(A, g_min))
    assert cert.valid
    assert set(cert.hom_vanishing.values()) == {0}
    assert {w.matches_vertex for w in cert.witnesses} == {"1", "2", "3"}
    assert cert.det_source == 4 and cert.det_end == 4


def test_end_dimension_matches_happel():
    """dim Hom(T, T) from the solver equals the dimension of End(T) that
    Happel's formula reads off the Cartan matrix without the solver."""
    g = parse_graph(CHAIN2_TEXT)
    Q = shrink_complex(algebra_for(g), g)
    T = Q.direct_sum()
    assert homotopy_hom(T, T, 0) == end_cartan(Q).dim


def test_check_tilting_stalks_trivially_valid():
    g = loop_star(5)
    A = algebra_for(g)
    cert = check_tilting(shrink_complex(A, g))
    assert cert.valid
    assert cert.end_cartan.rows == A.cartan().rows


def test_end_cartan_pattern_g_min(g_min):
    A = algebra_for(g_min)
    ec = end_cartan(shrink_complex(A, g_min))
    assert ec.order == ("1", "3", "2")
    assert ec.rows == ((4, 2, 2), (2, 2, 1), (2, 1, 2))
    assert ec.rows == pattern(3)


def test_enlarge_g_min(g_min):
    A = algebra_for(g_min)
    d = enlarge_data(g_min, "2")
    assert d.succ == "3" and d.beta_fan == ()
    Q = enlarge_complex(A, g_min, d)
    Qp = Q.summands["3"]
    assert Qp.term(0) == ("2",) and Qp.term(1) == ("3",)
    cert = check_tilting(Q)
    assert cert.valid


def test_enlarge_with_beta_fan():
    g = parse_graph(CHAIN2_TEXT)
    A = algebra_for(g)
    d = enlarge_data(g, "2")
    assert d.succ == "3" and d.beta_fan == ("4",)
    Q = enlarge_complex(A, g, d)
    Qp = Q.summands["3"]
    assert Qp.term(0) == ("2", "4")
    assert str(Qp.entry(0, 0, 0)) == "a_2" and str(Qp.entry(0, 0, 1)) == "b_4"
    assert check_tilting(Q).valid


def test_enlarge_empty_tree_rejected():
    g = loop_star(3)
    with pytest.raises(EmptyTree):
        enlarge_data(g, "2")
    with pytest.raises(EmptyTree):
        enlarge_data(parse_graph(G_MIN_TEXT), "1")


def test_verify_generators_shrink_loop_star():
    g = loop_star(3)
    assert verify_end_generators(shrink_complex(algebra_for(g), g))


def test_verify_generators_shrink_g_min(g_min):
    assert verify_end_generators(shrink_complex(algebra_for(g_min), g_min))


def test_verify_generators_shrink_chain():
    g = parse_graph(CHAIN2_TEXT)
    assert verify_end_generators(shrink_complex(algebra_for(g), g))


def test_verify_generators_enlarge(g_min):
    A = algebra_for(g_min)
    Q = enlarge_complex(A, g_min, enlarge_data(g_min, "2"))
    assert verify_end_generators(Q)
    g = parse_graph(CHAIN2_TEXT)
    A2 = algebra_for(g)
    assert verify_end_generators(enlarge_complex(A2, g, enlarge_data(g, "2")))


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)], ids=str)
@pytest.mark.parametrize("text", [G_MIN_TEXT, CHAIN2_TEXT], ids=["g_min", "chain2"])
def test_relation_check_catches_a_negated_successor(text, field, monkeypatch):
    """Negating one successor map b turns alpha^2 = alpha b_1...b_n into
    alpha^2 = -alpha b_1...b_n, which fails unless -1 = 1 (GF(2))."""
    g = parse_graph(text)
    Q = shrink_complex(quotient_basis(omega_relations(build_quiver(g)), field=field), g)
    original = tilting._shrink_generator_maps
    for k in range(len(Q.ordering)):

        def negated(Q, target):
            maps = original(Q, target)
            name = target.exceptional_cycle.arrows[k].name
            maps[name] = -maps[name]
            return maps

        monkeypatch.setattr(tilting, "_shrink_generator_maps", negated)
        if field == PrimeField(2):
            assert verify_end_generators(Q)
        else:
            with pytest.raises(RelationFailure, match=r"a_1\*a_1 is not null-homotopic"):
                verify_end_generators(Q)


def test_verify_generators_rejects_unknown_kind(g_min):
    Q = shrink_complex(algebra_for(g_min), g_min)
    Q.kind = "twist"
    with pytest.raises(CertificateFailure, match="unknown kind 'twist'"):
        verify_end_generators(Q)


def test_enlarge_factoring_of_old_cycle_map(g_min):
    """The first exceptional step now factors through the new summand."""
    from brauer_derive.tilting import _enlarge_generator_maps

    A = algebra_for(g_min)
    Q = enlarge_complex(A, g_min, enlarge_data(g_min, "2"))
    moved = enlarge_graph_move(g_min, "2")
    maps = _enlarge_generator_maps(Q, build_quiver(moved))
    into = maps["b_1"]  # 1 -> successor in the enlarged graph
    out = maps["b_3"]  # successor -> 2
    composite = into.compose(out)
    e = composite.comp(0, 0, 0)
    assert e == A.path_element(("b_1",))


def test_enlarge_graph_move_g_min(g_min):
    moved = enlarge_graph_move(g_min, "2")
    assert moved.vertex_map["S"].cyclic == ("1", "1", "3", "2")
    assert moved.is_loop_star()
    assert edge_count(moved) == edge_count(g_min) == 3


def test_enlarge_graph_move_reattaches_fan():
    g = parse_graph(CHAIN2_TEXT)
    moved = enlarge_graph_move(g, "2")
    assert moved.vertex_map["S"].cyclic == ("1", "1", "3", "2")
    assert moved.trees["3"].edges == ("4",)
    assert moved.trees["2"].edges == ()
    assert edge_count(moved) == 4


def test_enlarge_cartan_cross_check(g_min):
    A = algebra_for(g_min)
    cert = check_tilting(enlarge_complex(A, g_min, enlarge_data(g_min, "2")))
    moved = enlarge_graph_move(g_min, "2")
    A2 = algebra_for(moved)
    assert A2.cartan().rows == cert.end_cartan.reorder(A2.vertices).rows
    # and the moved graph is the loop-star up to the canonical relabeling
    relabeled, _ = canonical_relabel(moved)
    assert structure_key(relabeled) == structure_key(loop_star(3))


def test_end_cartan_pattern_corpus(corpus):
    for name, g in corpus.items():
        A = algebra_for(g)
        ec = end_cartan(shrink_complex(A, g))
        assert ec.rows == pattern(edge_count(g)), name


def test_det_invariance_corpus(corpus):
    for g in corpus.values():
        A = algebra_for(g)
        cert = check_tilting(shrink_complex(A, g))
        assert abs(cert.det_source) == abs(cert.det_end) == 4
