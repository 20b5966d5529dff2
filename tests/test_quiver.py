import hashlib
import json
import random

import pytest

from brauer_derive.algebra import omega_relations
from brauer_derive.graph import BrauerGraph, GraphVertex, loop_star, parse_graph
from brauer_derive.quiver import ALPHA, BETA, build_quiver, cycle_words, quiver_to_dot

from conftest import G_MIN_TEXT, corpus_graphs, cycle_at, word_ids
from test_random_graphs import random_one_loop_graph
from test_scale import chain_with_twigs, deep_tree, graph_text

QUIVER_DIGEST = "9afb8d696a12fbfe50eacb658998120343abe2ae6f5a2f24173daf0ec43c1c14"


def arrow_set(q):
    return {(a.name, a.source, a.target) for a in q.arrows}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_loop_star_quiver(n):
    q = build_quiver(loop_star(n))
    expected = {("a_1", "1", "1")}
    for i in range(1, n + 1):
        expected.add((f"b_{i}", str(i), str(i % n + 1)))
    assert arrow_set(q) == expected


def test_loop_star_1_has_two_loops():
    q = build_quiver(loop_star(1))
    assert arrow_set(q) == {("a_1", "1", "1"), ("b_1", "1", "1")}


def test_g_min_arrows():
    q = build_quiver(parse_graph(G_MIN_TEXT))
    assert arrow_set(q) == {
        ("a_1", "1", "1"),
        ("b_1", "1", "2"),
        ("b_2", "2", "1"),
        ("a_2", "2", "3"),
        ("a_3", "3", "2"),
    }


def cycle_names(q, v, camp):
    return tuple(q.arrows[a].name for a in word_ids(cycle_words(q)[(v, camp)]))


def test_cycle_at_b_prime():
    q = build_quiver(loop_star(3))
    assert cycle_names(q, "2", BETA) == ("b_2", "b_3", "a_1", "b_1")
    assert cycle_names(q, "3", BETA) == ("b_3", "a_1", "b_1", "b_2")
    assert cycle_names(q, "1", BETA) == ("b_1", "b_2", "b_3")
    assert cycle_names(q, "1", ALPHA) == ("a_1",)


def test_cycle_at_g_min():
    q = build_quiver(parse_graph(G_MIN_TEXT))
    assert cycle_names(q, "3", BETA) == ()
    assert cycle_names(q, "2", ALPHA) == ("a_2", "a_3")
    assert cycle_names(q, "2", BETA) == ("b_2", "a_1", "b_1")


def test_cycle_words_match_the_walk_oracle():
    """One walk per quiver cycle gives the word of every vertex and camp
    that following arrows from that vertex gives."""
    graphs = list(corpus_graphs().values()) + [loop_star(n) for n in (1, 2, 9)]
    graphs += [random_one_loop_graph(random.Random(s), 3 + s) for s in range(20)]
    for g in graphs:
        q = build_quiver(g)
        for v in q.vertices:
            for camp in (ALPHA, BETA):
                assert cycle_names(q, v, camp) == cycle_at(q, v, camp), (g, v, camp)


def test_dot_export():
    q2 = build_quiver(loop_star(2))
    dot = quiver_to_dot(q2)
    assert dot.count("->") == 3
    assert sum(1 for line in dot.splitlines() if line.endswith('";')) == 2
    assert quiver_to_dot(q2) == dot  # deterministic
    qm = build_quiver(parse_graph(G_MIN_TEXT))
    dotm = quiver_to_dot(qm)
    assert dotm.count("->") == 5
    assert sum(1 for line in dotm.splitlines() if line.endswith('";')) == 3


def test_arrow_count_formula(corpus):
    for g in corpus.values():
        q = build_quiver(g)
        expected = sum(
            len(v.cyclic) for v in g.vertices if len(v.cyclic) >= 2
        )
        assert len(q.arrows) == expected


def test_out_arrows_unique_per_camp(corpus):
    for g in corpus.values():
        q = build_quiver(g)
        for v in q.vertices:
            assert len([a for a in q.arrows if a.source == v and a.camp == ALPHA]) <= 1
            assert len([a for a in q.arrows if a.source == v and a.camp == BETA]) <= 1
        assert q.loop_vertex in q.alpha_out and q.loop_vertex in q.beta_out


def test_intersecting_cycles_have_different_camps(corpus):
    """The camp rule (parity of the distance from the loop vertex) is a
    proper 2-colouring, trivial leaf cycles included, with the loop arrow
    alpha and the exceptional cycle beta, on the corpus and on 32 seeded
    random graphs of 3-30 edges."""
    graphs = list(corpus.values())
    for seed in range(32):
        rng = random.Random(9100 + seed)
        graphs.append(random_one_loop_graph(rng, rng.randint(3, 30)))
    for g in graphs:
        q = build_quiver(g)
        (loop_cycle,) = [c for c in q.cycles if c.graph_vertex == g.center and not c.exceptional]
        assert loop_cycle.arrows == (q.loop_arrow,) and loop_cycle.camp == ALPHA
        assert q.exceptional_cycle.graph_vertex == g.center
        assert q.exceptional_cycle.camp == BETA
        for v in q.vertices:
            camps = [c.camp for c in q.cycles if _on_cycle(q, c, v, g)]
            assert sorted(camps) == [ALPHA, BETA]
        nontrivial = [c for c in q.cycles if c.arrows]
        for i, c1 in enumerate(nontrivial):
            for c2 in nontrivial[i + 1 :]:
                shared = {a.source for a in c1.arrows} & {a.source for a in c2.arrows}
                if shared:
                    assert c1.camp != c2.camp


def test_every_vertex_on_two_cycles(corpus):
    for g in corpus.values():
        q = build_quiver(g)
        for v in q.vertices:
            camps = [c.camp for c in q.cycles if _on_cycle(q, c, v, g)]
            assert sorted(camps) == [ALPHA, BETA]


def _on_cycle(q, c, v, g):
    if c.arrows:
        return v in {a.source for a in c.arrows}
    return g.vertex_map[c.graph_vertex].cyclic[0] == v


def test_exceptional_cycle():
    q = build_quiver(parse_graph(G_MIN_TEXT))
    exc = q.exceptional_cycle
    assert exc.camp == BETA
    assert [a.name for a in exc.arrows] == ["b_1", "b_2"]


def _starting_at_second_incidence(g):
    """The same graph with the centre's list rotated to start at the loop's
    second incidence, e.g. ("1", "2", "3", "1") for ("1", "1", "2", "3")."""
    lst, loop = g.vertex_map[g.center].cyclic, g.loop_edge
    m = len(lst)
    i = next(i for i in range(m) if lst[i] == loop == lst[(i + 1) % m])
    rotated = lst[i + 1 :] + lst[: i + 1]
    return BrauerGraph(
        [GraphVertex(v.id, rotated if v.id == g.center else v.cyclic) for v in g.vertices],
        g.implicit,
    )


def _pin_graphs():
    graphs = list(corpus_graphs().values()) + [loop_star(n) for n in (1, 2, 3, 9, 59)]
    for seed in range(300):
        rng = random.Random(7300 + seed)
        graphs.append(random_one_loop_graph(rng, rng.randint(3, 30)))
    graphs += [parse_graph(chain_with_twigs(d, ())) for d in (1, 5, 24)]
    graphs.append(parse_graph(chain_with_twigs(13, (2, 7))))
    graphs += [parse_graph(deep_tree(n, seed)) for n, seed in ((18, 5), (21, 1), (30, 2))]
    graphs += [_starting_at_second_incidence(g) for g in graphs[::7]]
    graphs += [
        parse_graph(graph_text({"S": ["1", "2", "3", "1"], "u": ["2", "4"]})),
        parse_graph(graph_text({"S": ["1", "2", "1"]})),
    ]
    return graphs


def _quiver_structure(g):
    """Vertices, arrows in order, every cycle word, the cycles as a set and
    the Omega relations of the quiver of g."""
    q = build_quiver(g)
    return [
        list(q.vertices),
        [[a.name, a.source, a.target, a.camp] for a in q.arrows],
        sorted([v, camp, list(word_ids(w))] for (v, camp), w in cycle_words(q).items()),
        sorted(
            [c.graph_vertex, c.camp, c.exceptional, [a.name for a in c.arrows]]
            for c in q.cycles
        ),
        [[[list(word_ids(w)), c] for w, c in rel] for rel in omega_relations(q).id_relations],
    ]


def test_quiver_structure_is_pinned():
    """Golden digest of the quiver structure over the corpus, five loop-stars,
    300 seeded random graphs of 3-30 edges, chains, deep trees and centre
    lists that start at the loop's second incidence.  The order of
    ``q.cycles`` is not part of the structure, so the cycles are compared as
    a sorted set."""
    graphs = _pin_graphs()
    assert len(graphs) == 369
    text = json.dumps([_quiver_structure(g) for g in graphs], separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == QUIVER_DIGEST
