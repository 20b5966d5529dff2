"""The tree facts of a graph come from one stack walk in ``BrauerGraph``.

Each derived fact is compared with the definition it replaced, kept here as
an oracle: a breadth-first search for the vertex depths, the cycle-edge set
for ``is_tree_edge``, a path grown at its front for ``tree_path``, and the
recursive postorder for ``shrink_ordering``.  The comparisons run on the
corpus, on 300 seeded random graphs and on a chain 2,000 tree edges deep,
deeper than Python's default recursion limit.
"""
from collections import deque
from random import Random

import pytest

from brauer_derive.graph import parse_graph
from brauer_derive.tilting import shrink_ordering

from conftest import corpus_graphs
from test_random_graphs import random_one_loop_graph


def deep_chain(depth):
    """The loop 1, cycle edge 2, then a chain of ``depth`` tree edges below 2
    (the graph of ``test_cli.test_deep_chain_through_cli`` at depth 2,000)."""
    lists = {"S": ["1", "1", "2"], "v2": ["2"]}
    host = "v2"
    for k in range(3, depth + 3):
        lists[host].append(str(k))
        host = f"v{k}"
        lists[host] = [str(k)]
    vertices = ",".join(
        '{"id":"%s","cyclic":[%s]}' % (v, ",".join(f'"{e}"' for e in c))
        for v, c in lists.items()
    )
    return parse_graph('{"vertices":[%s]}' % vertices)


def bfs_depths(g):
    """Distance of every vertex from the loop vertex, from the cyclic lists
    alone."""
    ends = {}
    for v in g.vertices:
        for e in v.cyclic:
            ends.setdefault(e, []).append(v.id)
    depth = {g.center: 0}
    queue = deque([g.center])
    while queue:
        v = queue.popleft()
        for e in g.vertex_map[v].cyclic:
            a, b = ends[e]
            w = b if a == v else a
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    return depth


def old_is_tree_edge(g, edge):
    return edge not in set(g.cycle_edges)


def old_tree_path(g, edge):
    path = [edge]
    while path[0] in g._parent:
        path.insert(0, g._parent[path[0]])
    return tuple(path)


def old_shrink_ordering(g):
    def block(edge, at):
        out = []
        for k in g.children(edge, at):
            out.extend(block(k, g.far_vertex(k, at)))
            out.append(k)
        return out

    order = [g.loop_edge]
    for c in g.cycle_edges[1:]:
        order.extend(block(c, g.far_vertex(c, g.center)))
        order.append(c)
    return tuple(order)


def random_graphs():
    rng = Random(20)
    return [random_one_loop_graph(rng, rng.randint(1, 40)) for _ in range(300)]


def edges(g):
    return {e for v in g.vertices for e in v.cyclic}


GRAPHS = {**corpus_graphs(), **{f"random{k}": g for k, g in enumerate(random_graphs())}}


@pytest.fixture(scope="module")
def chain():
    return deep_chain(2000)


def test_depths_match_a_breadth_first_search(chain):
    for name, g in GRAPHS.items():
        assert g.depth == bfs_depths(g), name
    assert chain.depth == bfs_depths(chain)
    assert max(chain.depth.values()) == 2001  # below the loop vertex: edge 2, then 2,000


def test_tree_edges_and_paths_match_their_old_definitions(chain):
    for name, g in [*GRAPHS.items(), ("chain", chain)]:
        for e in edges(g):
            assert g.is_tree_edge(e) == old_is_tree_edge(g, e), (name, e)
            if name != "chain":
                assert g.tree_path(e) == old_tree_path(g, e), (name, e)
    # the old path is quadratic in depth, so the chain is checked directly
    assert chain.tree_path("2002") == tuple(str(k) for k in range(2, 2003))


def test_shrink_ordering_matches_the_recursive_postorder():
    for name, g in GRAPHS.items():
        assert shrink_ordering(g) == old_shrink_ordering(g), name


def test_shrink_ordering_returns_on_a_deep_chain(chain):
    """The recursive postorder passes Python's default recursion limit of
    1,000 frames here."""
    assert shrink_ordering(chain) == ("1",) + tuple(str(k) for k in range(2002, 1, -1))
