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
"""
from __future__ import annotations

import json
from dataclasses import dataclass


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


@dataclass(frozen=True)
class BrauerTree:
    """The tree hanging off a cycle edge, edges listed in preorder."""

    root_edge: str
    edges: tuple[str, ...]

    def __bool__(self):
        return bool(self.edges)


class BrauerGraph:
    """Validated one-loop Brauer graph with derived cycle/tree structure."""

    def __init__(self, vertices, implicit=frozenset()):
        self.vertices = tuple(vertices)
        self.implicit = frozenset(implicit)
        self._check()
        self._derive()

    # -- construction ------------------------------------------------

    def _check(self):
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise MalformedInput("duplicate vertex id")
        incidences = {}
        loops = []
        for v in self.vertices:
            if not v.cyclic:
                raise ValidationError(f"empty cyclic list at vertex {v.id}")
            counts = {}
            for e in v.cyclic:
                if not e:
                    raise ValidationError("empty edge label")
                counts[e] = counts.get(e, 0) + 1
                incidences[e] = incidences.get(e, 0) + 1
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
        for e, c in incidences.items():
            if c != 2:
                raise ValidationError(f"edge {e} must have exactly two incidences, has {c}")
        # Connectivity over vertices.
        vertex_of = {}
        for v in self.vertices:
            for e in v.cyclic:
                vertex_of.setdefault(e, []).append(v.id)
        adjacency = {v.id: set() for v in self.vertices}
        for e, vs in vertex_of.items():
            adjacency[vs[0]].add(vs[-1])
            adjacency[vs[-1]].add(vs[0])
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
        if len(incidences) != len(self.vertices):
            raise ValidationError("the loop is not the only cycle")

    def _derive(self):
        self.vertex_map = {v.id: v for v in self.vertices}
        endpoints = {}
        for v in self.vertices:
            for e in v.cyclic:
                endpoints.setdefault(e, []).append(v.id)
        self.endpoints = {e: tuple(vs) for e, vs in endpoints.items()}
        loop = next(e for e, vs in self.endpoints.items() if vs[0] == vs[1])
        self.loop_edge = loop
        self.center = self.endpoints[loop][0]
        s_list = self.vertex_map[self.center].cyclic
        m = len(s_list)
        first = s_list.index(loop)
        if s_list[(first + 1) % m] == loop:
            start = first
        else:
            start = (first - 1) % m
        rotated = tuple(s_list[(start + i) % m] for i in range(m))
        # rotated = (loop, loop, e2, ..., er)
        self.cycle_edges = (loop,) + rotated[2:]
        self.trees = {}
        order = list(self.cycle_edges)
        for c in self.cycle_edges[1:]:
            edges = []

            def walk(edge, at):
                for k in self.children(edge, at):
                    edges.append(k)
                    walk(k, self.far_vertex(k, at))

            walk(c, self.far_vertex(c, self.center))
            self.trees[c] = BrauerTree(c, tuple(edges))
            order.extend(edges)
        self.canonical_order = tuple(order)
        self.canonical_index = {e: i + 1 for i, e in enumerate(order)}
        parent = {}
        for c, tree in self.trees.items():
            at = self.far_vertex(c, self.center)
            stack = [(c, at)]
            while stack:
                edge, vtx = stack.pop()
                for k in self.children(edge, vtx):
                    parent[k] = edge
                    stack.append((k, self.far_vertex(k, vtx)))
        self._parent = parent

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
        while path[0] in self._parent:
            path.insert(0, self._parent[path[0]])
        return tuple(path)

    def is_tree_edge(self, edge):
        return edge not in set(self.cycle_edges)

    def is_loop_star(self):
        return all(not t for t in self.trees.values())

    def __eq__(self, other):
        return isinstance(other, BrauerGraph) and _canonical_obj(self) == _canonical_obj(other)

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


def _least_rotation(lst):
    """Lexicographically least rotation keeping any duplicated edge adjacent."""
    m = len(lst)
    best = None
    for s in range(m):
        rot = [lst[(s + i) % m] for i in range(m)]
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


def _canonical_obj(g: BrauerGraph):
    vs = []
    for v in sorted(g.vertices, key=lambda v: v.id):
        if v.id in g.implicit:
            continue
        vs.append({"id": v.id, "cyclic": _least_rotation(list(v.cyclic))})
    return {"vertices": vs}


def serialize_graph(g: BrauerGraph) -> str:
    return json.dumps(_canonical_obj(g), separators=(",", ":"))
