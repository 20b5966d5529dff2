"""Shared corpus of one-loop Brauer graphs, cached algebra builds, and the
canonical relabelling that compares graphs up to edge names."""
import pytest

from brauer_derive.algebra import (
    AlgebraElement,
    QuiverMismatch,
    omega_relations,
    quotient_basis,
)
from brauer_derive.graph import (
    BrauerGraph,
    GraphVertex,
    _least_rotation,
    loop_star,
    parse_graph,
    serialize_graph,
)
from brauer_derive.quiver import build_quiver

G_MIN_TEXT = (
    '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
    '{"id":"u","cyclic":["2","3"]},{"id":"w","cyclic":["3"]}]}'
)

# n ranges over 3..8; includes G_min, a depth-2 chain, a two-tree graph,
# loop-stars, a branching tree, and two mixed shapes.
CORPUS_TEXTS = {
    "g_min": G_MIN_TEXT,
    "chain2": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
        '{"id":"v","cyclic":["2","3"]},{"id":"w","cyclic":["3","4"]}]}'
    ),
    "two_tree": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2","3"]},'
        '{"id":"u","cyclic":["2","4"]},{"id":"v","cyclic":["3","5"]}]}'
    ),
    "branch": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},'
        '{"id":"v","cyclic":["2","3","4"]},{"id":"w","cyclic":["4","5","6"]}]}'
    ),
    "mixed7": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2","3"]},'
        '{"id":"u","cyclic":["2","4"]},{"id":"u2","cyclic":["4","5"]},'
        '{"id":"v","cyclic":["3","6"]},{"id":"w","cyclic":["6","7"]}]}'
    ),
    "wide8": (
        '{"vertices":[{"id":"S","cyclic":["1","1","2","3","4"]},'
        '{"id":"t2","cyclic":["2","5"]},{"id":"t3","cyclic":["3","6"]},'
        '{"id":"t4","cyclic":["4","7"]},{"id":"t5","cyclic":["7","8"]}]}'
    ),
}


def corpus_graphs():
    graphs = {name: parse_graph(text) for name, text in CORPUS_TEXTS.items()}
    for n in (3, 5, 8):
        graphs[f"loop_star_{n}"] = loop_star(n)
    return graphs


def structure_key(g: BrauerGraph):
    """Vertex-name-independent key: canonical rotations of the non-leaf
    cyclic lists.  Two graphs with canonical edge labels are equal as Brauer
    graphs exactly when their keys agree."""
    return tuple(
        sorted(
            tuple(_least_rotation(list(v.cyclic)))
            for v in g.vertices
            if len(v.cyclic) >= 2
        )
    )


def canonical_relabel(g: BrauerGraph):
    """Rename edges to 1..n (cycle order first, then trees in preorder).

    Returns (relabeled graph, mapping old label -> new label).
    """
    mapping = {e: str(i) for i, e in enumerate(g.canonical_order, start=1)}
    vertices = [
        GraphVertex(v.id, tuple(mapping[e] for e in v.cyclic)) for v in g.vertices
    ]
    return BrauerGraph(vertices, g.implicit), mapping


_algebras = {}


def algebra_for(g):
    key = serialize_graph(g)
    if key not in _algebras:
        _algebras[key] = quotient_basis(omega_relations(build_quiver(g)))
    return _algebras[key]


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def g_min():
    return parse_graph(G_MIN_TEXT)


# Test-only oracles: the product-table comparison and the product-based
# socle that ``presentations_equal_on_basis`` and ``socle_words`` replaced
# with arrow actions.


def products_equal_oracle(A, B):
    """Equal normal-form bases and equal products of basis elements, read
    from every (i, j, k) product table of both algebras."""
    qa, qb = A.quiver, B.quiver
    if qa.vertices != qb.vertices or [
        (a.name, a.source, a.target, a.camp) for a in qa.arrows
    ] != [(a.name, a.source, a.target, a.camp) for a in qb.arrows]:
        raise QuiverMismatch("algebras live over different quivers")
    if A.blocks != B.blocks:
        return False
    for (i, j), left in A.blocks.items():
        for k in A.vertices:
            if not (left and A.block(j, k)):
                continue
            rows = zip(A._product_table(i, j, k), B._product_table(i, j, k))
            # equal entry tuples are equal products; others may differ in order only
            if any(x != y and dict(x) != dict(y) for ra, rb in rows for x, y in zip(ra, rb)):
                return False
    return True


def socle_words_oracle(A):
    """Basis classes x with x * a = 0 and a * x = 0 for every arrow a, from
    products of algebra elements."""
    out = []
    arrows = [(a, A.arrow_element(a.name)) for a in A.quiver.arrows]
    for (i, j), words in A.blocks.items():
        for pos, w in enumerate(words):
            coeffs = [A.field.zero] * len(words)
            coeffs[pos] = A.field.one
            x = AlgebraElement(A, i, j, coeffs)
            if all(not (x * y) for a, y in arrows if a.source == j) and all(
                not (y * x) for a, y in arrows if a.target == i
            ):
                out.append((i, w))
    return out
