"""One-loop Brauer graphs: parsing, validation, canonical forms, loop-stars.

A Brauer graph here is a finite connected multigraph with a clockwise
circular ordering of the edge incidences at each vertex.  The graphs this
package accepts have exactly one cycle, that cycle is a loop, and the two
incidences of the loop are adjacent in the ordering at its vertex (the loop
is its own direct successor).  Deleting the loop leaves a tree, so the graph
is a loop with a fan of cycle edges at the loop vertex, each cycle edge
carrying a (possibly empty) Brauer tree.

Files use a small JSON format:

    {"vertices": [{"id": "S", "cyclic": ["1", "1", "2"]},
                  {"id": "u", "cyclic": ["2", "3"]},
                  {"id": "w", "cyclic": ["3"]}]}

Cyclic lists are read clockwise and are rotation insensitive.  A vertex of
valence one may be omitted entirely; the parser synthesizes an anonymous
leaf for any edge listed only once.  Synthesized leaves are skipped when
serializing, so a loop-star round-trips as its single central vertex.

A ``BrauerGraph`` is validated by its constructor and never changes after
it, so its canonical form is computed once and kept as immutable tuples.
One walk of the trees, with an explicit stack rather than recursion, records
every tree edge's parent and every vertex's distance from the loop vertex.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property


class MalformedInput(Exception):
    """The graph file is not syntactically well formed."""


class ValidationError(Exception):
    """A graph invariant fails; the message names the violated invariant."""


class DomainError(Exception):
    """A numeric argument is outside its domain."""


@dataclass(frozen=True)
class GraphVertex:
    id: str
    cyclic: tuple[str, ...]


class BrauerGraph:
    """Validated one-loop Brauer graph with derived cycle/tree structure.
    ``trees[c]`` is the tuple of the edges of the tree below the cycle edge
    c, in preorder, empty (so false) when c carries no tree."""

    def __init__(self, vertices, implicit=frozenset()):
        self.vertices = tuple(vertices)
        self.implicit = frozenset(implicit)
        self.endpoints = self._check()
        self._derive()

    # -- construction ------------------------------------------------

    def _check(self):
        """Raise on a broken invariant, else return {edge: its endpoints}."""
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise MalformedInput("duplicate vertex id")
        endpoints = {}
        loops = []
        for v in self.vertices:
            if not v.cyclic:
                raise ValidationError(f"empty cyclic list at vertex {v.id}")
            counts = {}
            for e in v.cyclic:
                if not e:
                    raise ValidationError("empty edge label")
                counts[e] = counts.get(e, 0) + 1
                endpoints[e] = endpoints.get(e, ()) + (v.id,)
            for e, c in counts.items():
                if c > 2:
                    raise ValidationError(
                        f"edge {e} has more than two incidences at vertex {v.id}"
                    )
                if c == 2:
                    m = len(v.cyclic)
                    pos = [i for i, x in enumerate(v.cyclic) if x == e]
                    if m > 2 and (pos[1] - pos[0]) % m not in (1, m - 1):
                        raise ValidationError(
                            f"loop {e} not its own direct successor at vertex {v.id}"
                        )
                    loops.append((e, v.id))
        if len(loops) != 1:
            raise ValidationError(f"exactly one loop required, found {len(loops)}")
        for e, vs in endpoints.items():
            if len(vs) != 2:
                raise ValidationError(f"edge {e} must have exactly two incidences, has {len(vs)}")
        # Connectivity over vertices.
        adjacency = {v.id: set() for v in self.vertices}
        for a, b in endpoints.values():
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = set()
        stack = [self.vertices[0].id]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adjacency[x] - seen)
        if len(seen) != len(self.vertices):
            raise ValidationError("not connected")
        # With the loop removed the graph must be a tree: n-1 edges on
        # len(vertices) vertices, still connected (removing a loop cannot
        # disconnect), so the edge count must equal the vertex count.
        if len(endpoints) != len(self.vertices):
            raise ValidationError("the loop is not the only cycle")
        return endpoints

    def _derive(self):
        self.vertex_map = {v.id: v for v in self.vertices}
        loop = next(e for e, vs in self.endpoints.items() if vs[0] == vs[1])
        self.loop_edge = loop
        self.center = self.endpoints[loop][0]
        lst = self.vertex_map[self.center].cyclic
        k = lst.index(loop)
        if lst[(k + 1) % len(lst)] == loop:
            k += 1
        # read from the loop's second incidence, the list is (loop, e2, ..., er, loop)
        self.cycle_edges = (lst[k:] + lst[:k])[:-1]
        self.trees = {}
        order = list(self.cycle_edges)
        parent = {}
        self.depth = {self.center: 0}  # graph vertex -> distance from the loop vertex
        for c in self.cycle_edges[1:]:
            # preorder walk of the tree below c, children in circular order;
            # a stack, not recursion, so depth is bounded by memory alone
            edges = []
            stack = [(c, self.far_vertex(c, self.center), 1)]
            while stack:
                edge, at, d = stack.pop()
                self.depth[at] = d
                if edge != c:
                    edges.append(edge)
                for k in reversed(self.children(edge, at)):
                    parent[k] = edge
                    stack.append((k, self.far_vertex(k, at), d + 1))
            self.trees[c] = tuple(edges)
            order.extend(edges)
        self.canonical_order = tuple(order)
        self._parent = parent  # tree edge -> the edge above it; cycle edges have none

    # -- navigation --------------------------------------------------

    def far_vertex(self, edge, from_vertex):
        a, b = self.endpoints[edge]
        return b if a == from_vertex else a

    def children(self, edge, at_vertex):
        """Edges after ``edge`` in the circular order at ``at_vertex``."""
        lst = self.vertex_map[at_vertex].cyclic
        if len(lst) == 1:
            return ()
        i = lst.index(edge)
        return tuple(lst[(i + k) % len(lst)] for k in range(1, len(lst)))

    def tree_path(self, edge):
        """Edges from the cycle edge of this tree down to ``edge``, inclusive."""
        path = [edge]
        while path[-1] in self._parent:
            path.append(self._parent[path[-1]])
        return tuple(reversed(path))

    def is_tree_edge(self, edge):
        return edge in self._parent

    def is_loop_star(self):
        return all(not t for t in self.trees.values())

    @cached_property
    def canonical(self):
        """(id, least rotation) of every vertex not synthesized, by id."""
        shown = sorted((v for v in self.vertices if v.id not in self.implicit), key=lambda v: v.id)
        return tuple((v.id, _least_rotation(v.cyclic)) for v in shown)

    def __eq__(self, other):
        return isinstance(other, BrauerGraph) and self.canonical == other.canonical

    def __repr__(self):
        return f"BrauerGraph({serialize_graph(self)})"


def edge_count(g: BrauerGraph) -> int:
    return len(g.endpoints)


def validate(g: BrauerGraph) -> bool:
    """Re-run all invariant checks; raises ValidationError on failure."""
    g._check()
    return True


def loop_star(n: int) -> BrauerGraph:
    """The graph with one central vertex, a loop, and n-1 bare edges."""
    if n < 1:
        raise DomainError(f"loop_star needs n >= 1, got {n}")
    labels = [str(i) for i in range(1, n + 1)]
    vertices = [GraphVertex("S", tuple([labels[0]] + labels))]
    implicit = []
    for e in labels[1:]:
        name = f"leaf_{e}"
        vertices.append(GraphVertex(name, (e,)))
        implicit.append(name)
    return BrauerGraph(vertices, frozenset(implicit))


def parse_graph(text: str) -> BrauerGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise MalformedInput("expected an object with a 'vertices' key")
    raw = data["vertices"]
    if not isinstance(raw, list) or not raw:
        raise MalformedInput("'vertices' must be a non-empty list")
    vertices = []
    for item in raw:
        if not isinstance(item, dict) or "id" not in item or "cyclic" not in item:
            raise MalformedInput("each vertex needs 'id' and 'cyclic'")
        vid, cyc = item["id"], item["cyclic"]
        if not isinstance(vid, str) or not isinstance(cyc, list) or not all(
            isinstance(e, str) for e in cyc
        ):
            raise MalformedInput("vertex ids and edge labels must be strings")
        vertices.append(GraphVertex(vid, tuple(cyc)))
    # Synthesize anonymous leaves for edges listed exactly once.
    counts = {}
    for v in vertices:
        for e in v.cyclic:
            counts[e] = counts.get(e, 0) + 1
    taken = {v.id for v in vertices}
    implicit = []
    for e in sorted(k for k, c in counts.items() if c == 1):
        name = f"leaf_{e}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        vertices.append(GraphVertex(name, (e,)))
        implicit.append(name)
    return BrauerGraph(vertices, frozenset(implicit))


def _least_rotation(cyclic):
    """Lexicographically least rotation, which keeps the loop's incidences
    adjacent: validation leaves the loop L the only edge listed twice, at
    adjacent places, so a rotation that splits it starts L, x with x != L
    and loses to the one starting L, L if L < x, else to the one from x."""
    return min(cyclic[s:] + cyclic[:s] for s in range(len(cyclic)))


def _canonical_obj(g: BrauerGraph):
    return {"vertices": [{"id": vid, "cyclic": list(cyc)} for vid, cyc in g.canonical]}


def serialize_graph(g: BrauerGraph) -> str:
    return json.dumps(_canonical_obj(g), separators=(",", ":"))
