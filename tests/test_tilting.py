import random

import pytest

from brauer_derive import tilting
from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.graph import edge_count, loop_star, parse_graph
from brauer_derive.homological import (
    ProjComplex,
    _HomSolver,
    homotopy_hom,
    is_stalk,
)
from brauer_derive.linalg import QQ, PrimeField
from brauer_derive.quiver import build_quiver
from brauer_derive.reduction import reduce_to_normal_form
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

from conftest import (
    G_MIN_TEXT,
    algebra_for,
    canonical_relabel,
    certificate_valid,
    corpus_graphs,
    diff_entry,
    map_entry,
    structure_key,
)
from test_hom_solver_oracle import SHRINK, TRACES
from test_random_graphs import random_one_loop_graph

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
    assert str(diff_entry(Q3, 0, 0, 0)) == "a_2"


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
    assert certificate_valid(cert)
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
    assert certificate_valid(cert)
    assert cert.end_cartan.rows == A.cartan().rows


def test_check_tilting_rejects_a_summand_beside_its_shift():
    """P(2) in degree 0 and again in degree 1: a nonzero map from P(2) in
    degree 1 to the degree-0 stalks is a chain map T -> T[-1] that no
    homotopy reaches, so the Hom-vanishing check rejects the sum."""
    g = loop_star(3)
    A = algebra_for(g)
    Q = shrink_complex(A, g)
    Q.summands["3"] = ProjComplex(A, {1: ("2",)}, {})
    message = r"^Hom\(Q, Q\[-1\]\) has dimension 4, expected 0$"
    with pytest.raises(CertificateFailure, match=message):
        check_tilting(Q)


def test_check_tilting_rejects_witnesses_that_miss_a_projective(g_min, monkeypatch):
    """Without the witness of the loop edge the others, cones included,
    still minimize to their stalks, but they no longer cover P(1)."""
    witnesses = tilting._shrink_witnesses
    monkeypatch.setattr(tilting, "_shrink_witnesses", lambda Q: witnesses(Q)[1:])
    Q = shrink_complex(algebra_for(g_min), g_min)
    assert [w.matches_vertex for w, _ in tilting._shrink_witnesses(Q)] == ["3", "2"]
    message = "^generation witnesses do not cover every projective$"
    with pytest.raises(CertificateFailure, match=message):
        check_tilting(Q)


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
    assert certificate_valid(cert)


def test_enlarge_with_beta_fan():
    g = parse_graph(CHAIN2_TEXT)
    A = algebra_for(g)
    d = enlarge_data(g, "2")
    assert d.succ == "3" and d.beta_fan == ("4",)
    Q = enlarge_complex(A, g, d)
    Qp = Q.summands["3"]
    assert Qp.term(0) == ("2", "4")
    assert str(diff_entry(Qp, 0, 0, 0)) == "a_2" and str(diff_entry(Qp, 0, 0, 1)) == "b_4"
    assert certificate_valid(check_tilting(Q))


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


def test_enlarge_factoring_of_old_cycle_map(g_min):
    """The first exceptional step now factors through the new summand."""
    from brauer_derive.tilting import _enlarge_generator_maps

    A = algebra_for(g_min)
    Q = enlarge_complex(A, g_min, enlarge_data(g_min, "2"))
    moved = enlarge_graph_move(g_min, enlarge_data(g_min, "2"))
    maps = _enlarge_generator_maps(Q, build_quiver(moved))
    into = maps["b_1"]  # 1 -> successor in the enlarged graph
    out = maps["b_3"]  # successor -> 2
    composite = into.compose(out)
    e = map_entry(composite, 0, 0, 0)
    assert e == A.path_element(("b_1",))


def test_enlarge_graph_move_g_min(g_min):
    moved = enlarge_graph_move(g_min, enlarge_data(g_min, "2"))
    assert moved.vertex_map["S"].cyclic == ("1", "1", "3", "2")
    assert moved.is_loop_star()
    assert edge_count(moved) == edge_count(g_min) == 3


def test_enlarge_graph_move_reattaches_fan():
    g = parse_graph(CHAIN2_TEXT)
    moved = enlarge_graph_move(g, enlarge_data(g, "2"))
    assert moved.vertex_map["S"].cyclic == ("1", "1", "3", "2")
    assert moved.trees["3"] == ("4",)
    assert moved.trees["2"] == ()
    assert edge_count(moved) == 4


def test_enlarge_cartan_cross_check(g_min):
    A = algebra_for(g_min)
    cert = check_tilting(enlarge_complex(A, g_min, enlarge_data(g_min, "2")))
    moved = enlarge_graph_move(g_min, enlarge_data(g_min, "2"))
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


def _complexes_of_every_shape():
    """(name, complex) for the shrink complexes of the Hom-solver oracle
    test's shapes and of every corpus graph, and the enlarge complexes
    along the oracle test's reduce traces and every corpus graph's, over Q."""
    graphs = {name: parse_graph(text) for name, text in SHRINK.items()}
    graphs.update(corpus_graphs())
    traced = dict(graphs)
    for seed, edges in TRACES:
        traced[f"random{seed}_{edges}"] = random_one_loop_graph(random.Random(seed), edges)
    for name, g in graphs.items():
        yield name, shrink_complex(algebra_for(g), g)
    for name, g in traced.items():
        for step in reduce_to_normal_form(g).steps:
            before = step.before
            yield (f"{name} at {step.at}",
                   enlarge_complex(algebra_for(before), before, enlarge_data(before, step.at)))


@pytest.mark.slow
def test_check_tilting_asks_every_shift_and_the_layout_counts_every_block(monkeypatch):
    """``check_tilting`` hands ``homotopy_hom`` every shift of its window,
    in order, and lists each in ``homVanishing`` with 0; at every shift,
    and at 0, the solver's variables, laid out from the block counts,
    number the sum of dim e_c A e_t over all summand pairs c of T^n and t
    of T^(n+shift), so a shift without variables has no nonzero map and
    its 0 is exact."""
    asked = []

    def spy(C, D, shift_by=0):
        asked.append(shift_by)
        return homotopy_hom(C, D, shift_by)

    monkeypatch.setattr(tilting, "homotopy_hom", spy)
    seen = without = 0
    for name, Q in _complexes_of_every_shape():
        asked.clear()
        cert = check_tilting(Q)
        total = Q.direct_sum()
        A, w = total.algebra, total.width
        window = [r for r in range(-w - 1, w + 2) if r]
        assert asked == window, name
        assert sorted(cert.hom_vanishing) == window, name
        assert all(cert.hom_vanishing[r] == 0 for r in window), name
        for r in [0, *window]:
            blocks = sum(
                len(A.block(c, t))
                for n, term in total.terms.items()
                for c in term
                for t in total.term(n + r)
            )
            assert _HomSolver(total, total, r).nvars == blocks, (name, r)
            without += not blocks
        seen += 1
    assert seen > 60 and without
