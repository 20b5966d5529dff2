"""Randomized whole-pipeline checks on generated one-loop graphs.

Graphs are built by attaching tree edges at random positions of random
vertices, so every legal combination of cycle length, tree depth, branching
and fan shape appears; each one goes through validation, the engine, both
tilting constructions, generator verification, and a fully certified
reduction that is then re-validated from scratch.
"""
import random

import pytest

from brauer_derive.algebra import omega_relations, quotient_basis
from brauer_derive.graph import (
    GraphVertex,
    BrauerGraph,
    edge_count,
    loop_star,
    parse_graph,
    serialize_graph,
    validate,
)
from brauer_derive.linalg import PrimeField
from brauer_derive.quiver import build_quiver
from brauer_derive.reduction import certify_trace, reduce_to_normal_form
from brauer_derive.tilting import (
    check_tilting,
    enlarge_complex,
    enlarge_data,
    shrink_complex,
    verify_end_generators,
)

from conftest import canonical_relabel, certificate_valid, structure_key


def random_one_loop_graph(rng, n_edges):
    """Random valid one-loop graph with the given number of edges."""
    # trees hang off non-loop cycle edges, so r >= 2 unless the graph is bare
    r = rng.randint(2, min(4, n_edges)) if n_edges >= 2 else 1
    labels = [str(i) for i in range(1, n_edges + 1)]
    center = ["1", "1"] + labels[1:r]
    lists = {"S": center}
    spots = []  # non-center vertices that can host more edges
    for i, e in enumerate(labels[1:r], start=1):
        vid = f"v{i}"
        lists[vid] = [e]
        spots.append(vid)
    for e in labels[r:]:
        host = rng.choice(spots)
        pos = rng.randrange(1, len(lists[host]) + 1)
        lists[host].insert(pos, e)
        vid = f"v{e}"
        lists[vid] = [e]
        spots.append(vid)
    vertices = [GraphVertex(vid, tuple(lst)) for vid, lst in lists.items()]
    g = BrauerGraph(vertices)
    # round-trip through the file format for good measure
    return parse_graph(serialize_graph(g))


@pytest.mark.parametrize("seed", range(25))
def test_random_certified_pipeline(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(3, 9)
    g = random_one_loop_graph(rng, n)
    assert validate(g)
    assert edge_count(g) == n

    A = quotient_basis(omega_relations(build_quiver(g)))
    C = A.cartan()
    assert C.dim == A.dim
    assert abs(C.det()) == 4

    Q = shrink_complex(A, g)
    cert = check_tilting(Q)
    assert certificate_valid(cert)
    assert verify_end_generators(Q)

    pivots = [c for c in g.cycle_edges[1:] if g.trees[c]]
    if pivots:
        Q2 = enlarge_complex(A, g, enlarge_data(g, pivots[0]))
        assert certificate_valid(check_tilting(Q2))
        assert verify_end_generators(Q2)

    trace = reduce_to_normal_form(g, certify=True)
    assert len(trace.steps) == sum(len(t) for t in g.trees.values())
    assert trace.normal_form.is_loop_star()
    relabeled, _ = canonical_relabel(trace.normal_form)
    assert structure_key(relabeled) == structure_key(loop_star(n))
    assert certify_trace(trace)


def test_enlarge_generator_maps_over_gf2():
    """Every enlarge pivot of 12 seeded graphs over GF(2), where the signs of
    the generator maps collapse; the pivots include beta fans, so the column
    and row maps into and out of the two-term summand are all exercised."""
    field = PrimeField(2)
    pivots = fans = 0
    for seed in range(12):
        rng = random.Random(2000 + seed)
        g = random_one_loop_graph(rng, rng.randint(4, 10))
        A = quotient_basis(omega_relations(build_quiver(g)), field=field)
        for at in [c for c in g.cycle_edges[1:] if g.trees[c]]:
            d = enlarge_data(g, at)
            Q = enlarge_complex(A, g, d)
            assert certificate_valid(check_tilting(Q))
            assert verify_end_generators(Q)
            pivots += 1
            fans += bool(d.beta_fan)
    assert (pivots, fans) == (12, 5)
