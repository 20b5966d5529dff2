import json
import random

import pytest

from brauer_derive.graph import (
    DomainError,
    MalformedInput,
    ValidationError,
    _least_rotation,
    edge_count,
    loop_star,
    parse_graph,
    serialize_graph,
    validate,
)

from conftest import G_MIN_TEXT, canonical_relabel, corpus_graphs
from test_random_graphs import random_one_loop_graph
from test_scale import chain_with_twigs, deep_tree


def test_parse_loop_star_file():
    g = parse_graph('{"vertices":[{"id":"S","cyclic":["1","1","2","3"]}]}')
    assert g.cycle_edges == ("1", "2", "3")
    assert all(not t for t in g.trees.values())
    assert g.loop_edge == "1" and g.center == "S"


def test_parse_g_min():
    g = parse_graph(G_MIN_TEXT)
    assert g.cycle_edges == ("1", "2")
    assert g.trees["2"] == ("3",)
    assert edge_count(g) == 3


def test_parse_two_loops_rejected():
    with pytest.raises(ValidationError, match="exactly one loop"):
        parse_graph(
            '{"vertices":[{"id":"S","cyclic":["1","1","2"]},{"id":"u","cyclic":["2","2"]}]}'
        )


def test_parse_bad_syntax():
    with pytest.raises(MalformedInput):
        parse_graph("{not json")
    with pytest.raises(MalformedInput):
        parse_graph('{"vertices": "nope"}')


def test_validate_ok_and_failures():
    assert validate(loop_star(5))
    with pytest.raises(ValidationError, match="direct successor"):
        parse_graph('{"vertices":[{"id":"S","cyclic":["1","2","1","3"]}]}')
    with pytest.raises(ValidationError, match="not connected"):
        parse_graph(
            '{"vertices":[{"id":"S","cyclic":["1","1"]},'
            '{"id":"u","cyclic":["2","3"]},{"id":"v","cyclic":["3","2"]}]}'
        )


def test_non_loop_cycle_rejected():
    # triangle plus a loop: a second (non-loop) cycle
    with pytest.raises(ValidationError):
        parse_graph(
            '{"vertices":[{"id":"S","cyclic":["1","1","2","3"]},'
            '{"id":"u","cyclic":["2","4"]},{"id":"v","cyclic":["3","4"]}]}'
        )


def test_loop_star_values():
    assert loop_star(1).vertex_map["S"].cyclic == ("1", "1")
    assert loop_star(3).vertex_map["S"].cyclic == ("1", "1", "2", "3")
    assert edge_count(loop_star(7)) == 7
    with pytest.raises(DomainError):
        loop_star(0)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_loop_star_validates(n):
    assert validate(loop_star(n))


def test_edge_count_additivity(corpus):
    for g in corpus.values():
        trees = sum(len(t) for t in g.trees.values())
        assert edge_count(g) == len(g.cycle_edges) + trees
        # two incidences per edge, counting synthesized leaves
        incidences = sum(len(v.cyclic) for v in g.vertices)
        assert incidences == 2 * edge_count(g)


def test_serialize_loop_star_compact():
    assert serialize_graph(loop_star(2)) == '{"vertices":[{"id":"S","cyclic":["1","1","2"]}]}'


def test_serialize_round_trip_byte_identical():
    assert serialize_graph(parse_graph(G_MIN_TEXT)) == G_MIN_TEXT


def test_serialize_idempotent_on_rotations():
    scrambled = (
        '{"vertices":[{"id":"u","cyclic":["3","2"]},'
        '{"id":"S","cyclic":["2","1","1"]},{"id":"w","cyclic":["3"]}]}'
    )
    once = serialize_graph(parse_graph(scrambled))
    assert once == G_MIN_TEXT
    assert serialize_graph(parse_graph(once)) == once


def test_rotation_insensitive_parse():
    a = parse_graph('{"vertices":[{"id":"S","cyclic":["1","1","2","3"]}]}')
    b = parse_graph('{"vertices":[{"id":"S","cyclic":["3","1","1","2"]}]}')
    assert serialize_graph(a) == serialize_graph(b)
    assert a == b


def test_deleting_loop_leaves_tree(corpus):
    for g in corpus.values():
        # the unique-cycle invariant: edges == vertices (counting leaves)
        assert edge_count(g) == len(g.vertices)


def test_canonical_relabel():
    g = parse_graph(
        '{"vertices":[{"id":"S","cyclic":["x","x","y"]},{"id":"u","cyclic":["y","z"]}]}'
    )
    relabeled, mapping = canonical_relabel(g)
    assert mapping == {"x": "1", "y": "2", "z": "3"}
    assert relabeled.cycle_edges == ("1", "2")
    assert relabeled.trees["2"] == ("3",)


def test_tree_paths():
    g = parse_graph(
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
        '{"id":"v","cyclic":["2","3"]},{"id":"w","cyclic":["3","4"]}]}'
    )
    assert g.tree_path("4") == ("2", "3", "4")
    assert g.tree_path("3") == ("2", "3")
    assert g.tree_path("2") == ("2",)


def test_graph_json_shape():
    obj = json.loads(serialize_graph(loop_star(4)))
    assert list(obj) == ["vertices"]
    assert obj["vertices"][0]["id"] == "S"


def scanning_least_rotation(cyclic):
    """The least rotation among those that keep every duplicated edge's two
    places adjacent, found by scanning each rotation."""
    m = len(cyclic)
    best = None
    for s in range(m):
        rot = cyclic[s:] + cyclic[:s]
        ok = True
        seen = {}
        for i, e in enumerate(rot):
            if e in seen and i - seen[e] != 1:
                ok = False
                break
            seen[e] = i
        if ok and (best is None or rot < best):
            best = rot
    return best


def test_least_rotation_matches_the_scan():
    """On every rotation of every vertex list of the corpus, small and large
    loop-stars, 900 seeded random graphs, chain13_twigs and deep21, as a tuple
    and as a list, the least rotation never splits the loop: it is the
    scan's."""
    graphs = list(corpus_graphs().values()) + [loop_star(n) for n in (1, 2, 3, 9)]
    graphs += [random_one_loop_graph(random.Random(s), 2 + s % 29) for s in range(900)]
    graphs += [parse_graph(chain_with_twigs(13, (2, 7))), parse_graph(deep_tree(21, seed=3))]
    lists = 0
    for g in graphs:
        for v in g.vertices:
            m = len(v.cyclic)
            for s in range(m):
                rot = v.cyclic[s:] + v.cyclic[:s]
                assert _least_rotation(rot) == scanning_least_rotation(rot), rot
                assert _least_rotation(list(rot)) == scanning_least_rotation(list(rot)), rot
                lists += 1
    assert lists > 25000
