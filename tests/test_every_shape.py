"""Every one-loop Brauer graph up to 8 edges, and samples of 9 and 10, through
the CLI.

Up to isomorphism, a one-loop Brauer graph with n edges is a plane tree with
n - 1 edges whose root carries the loop in one of its corners.  Cutting the
root's circular order at that corner turns the root's children into a
sequence, so there are Catalan(n - 1) such graphs.  ``plane_trees`` lists
them all; relabelled through the program's own canonical edge order, no two
of them coincide.

``uniform_plane_tree`` samples the same trees uniformly, by the cycle
lemma, which is how shapes of 9 and 10 edges are tested and how
``test_scale`` draws a 40-edge graph of uniform shape.

Each graph is reduced with ``reduce --certify --json`` and the trace checked
again with ``verify``.  Every reduction ends at the loop-star with n edges
(``classify`` = n), which is the paper's normal form, and |det Cartan| read
by ``cartan --json`` is the same for every graph with n edges.  Each
reduction runs the basis engine's completion on every graph it meets, so
its final inclusion check sees every shape, not only sampled ones.
"""
import json
import random
from collections import Counter
from itertools import accumulate
from math import comb

import pytest

from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.cli import EXIT_OK, run
from brauer_derive.graph import edge_count, parse_graph
from brauer_derive.quiver import build_quiver

from conftest import canonical_relabel, factored_det_exact, structure_key

# n = 8 is 429 graphs, several seconds, so it carries the ``slow`` marker
EDGES = [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)]


def plane_trees(edges):
    """Every plane tree with the given number of edges, each as the tuple of
    its root's subtrees in order."""
    if edges == 0:
        return [()]
    return [
        (head,) + rest
        for inside in range(edges)  # edges below the root's first child
        for head in plane_trees(inside)
        for rest in plane_trees(edges - 1 - inside)
    ]


def uniform_plane_tree(rng, edges):
    """A plane tree with the given number of edges, uniform among all
    Catalan(edges) of them, as ``plane_trees`` writes it.  By the cycle
    lemma, of the rotations of a shuffled walk of ``edges`` up-steps and
    edges + 1 down-steps exactly one stays at or above 0 until its last
    step: the one that starts just after the walk's first minimum.  Without
    that last step it is the walk around the tree's contour."""
    steps = [1] * edges + [-1] * (edges + 1)
    rng.shuffle(steps)
    sums = list(accumulate(steps))
    k = sums.index(min(sums)) + 1
    stack = [[]]  # the subtrees met so far below each vertex on the path
    for step in (steps[k:] + steps[:k])[:-1]:
        if step > 0:
            stack.append([])
        else:
            child = tuple(stack.pop())
            stack[-1].append(child)
    return tuple(stack[0])


def one_loop_graph(tree):
    """Graph JSON: vertex S holds the loop 1, then the root's children in
    order; the other edges are numbered in preorder, and the vertex below
    edge e is v<e>, with the edge above it first in its circular order."""
    vertices = [{"id": "S", "cyclic": ["1", "1"]}]

    def attach(subtrees, cyclic):
        for sub in subtrees:
            edge = str(len(vertices) + 1)
            cyclic.append(edge)
            vertex = {"id": f"v{edge}", "cyclic": [edge]}
            vertices.append(vertex)
            attach(sub, vertex["cyclic"])

    attach(tree, vertices[0]["cyclic"])
    return json.dumps({"vertices": vertices})


def _cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    assert code == EXIT_OK, (argv, out.err)
    return out.out


@pytest.mark.parametrize("n", EDGES)
def test_every_shape_appears_once(n):
    graphs = [parse_graph(one_loop_graph(tree)) for tree in plane_trees(n - 1)]
    assert all(edge_count(g) == n for g in graphs)
    shapes = {structure_key(canonical_relabel(g)[0]) for g in graphs}
    assert len(shapes) == len(graphs) == comb(2 * (n - 1), n - 1) // n


@pytest.mark.parametrize("n", range(1, 8))
def test_every_shape_takes_its_cartan_determinant_from_its_half_edges(n):
    """The Cartan matrix of every shape up to 7 edges carries the half-edge
    matrix M, n x n, that its check proves C = M M^T with, and det(M)^2
    equals elimination over ``Fraction`` on C: 4 every time."""
    for tree in plane_trees(n - 1):
        g = parse_graph(one_loop_graph(tree))
        C = quotient_basis(omega_relations(build_quiver(g))).cartan()
        M, base_det = C.factor
        assert base_det == 1 and len(M) == n
        assert factored_det_exact(C) and C.det() == 4


@pytest.mark.parametrize("edges", range(5))
def test_uniform_plane_trees_hit_every_tree_evenly(edges):
    """6,000 samples land on every plane tree with up to 4 edges, and on
    each within 25% of the mean 6,000 / Catalan(edges): at least 5.4
    standard deviations of a uniform count."""
    rng, trees = random.Random(8000 + edges), plane_trees(edges)
    counts = Counter(uniform_plane_tree(rng, edges) for _ in range(6000))
    assert set(counts) == set(trees)
    mean = 6000 / len(trees)
    assert all(abs(c - mean) <= 0.25 * mean for c in counts.values())


def _assert_reduce_to_the_loop_star(trees, n, tmp_path, capsys):
    """Each tree's graph reduces to the loop-star with n edges, its trace
    verifies, and every graph has one |det Cartan|."""
    graph, trace = tmp_path / "graph.json", tmp_path / "trace.json"
    dets = set()
    for tree in trees:
        graph.write_text(one_loop_graph(tree), encoding="utf-8")
        out = _cli(capsys, "reduce", str(graph), "--certify", "--json")
        payload = json.loads(out)
        assert payload["n"] == n
        normal_form = parse_graph(json.dumps(payload["normalForm"]))
        assert normal_form.is_loop_star() and edge_count(normal_form) == n
        trace.write_text(out, encoding="utf-8")
        _cli(capsys, "verify", str(trace))
        assert _cli(capsys, "classify", str(graph)) == f"{n}\n"
        dets.add(abs(json.loads(_cli(capsys, "cartan", str(graph), "--json"))["det"]))
    assert len(dets) == 1


@pytest.mark.parametrize("n", EDGES)
def test_every_shape_reduces_to_the_loop_star(n, tmp_path, capsys):
    _assert_reduce_to_the_loop_star(plane_trees(n - 1), n, tmp_path, capsys)


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_sampled_shapes_reduce_to_the_loop_star(n, tmp_path, capsys):
    """50 uniform samples of the 1,430 shapes with 9 edges, or of the 4,862
    with 10, too many to enumerate here."""
    rng = random.Random(9000 + n)
    trees = [uniform_plane_tree(rng, n - 1) for _ in range(50)]
    _assert_reduce_to_the_loop_star(trees, n, tmp_path, capsys)
