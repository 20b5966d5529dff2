"""Brauer quivers of one-loop Brauer graphs.

The quiver Q of a graph T has one vertex per edge of T and one arrow for
each consecutive-incidence step at a vertex of T.  Its arrows organize into
oriented cycles, one per graph vertex, except at the loop vertex where the
single cycle splits into the loop arrow (alone in its camp) and the
exceptional cycle through all cycle edges.  Cycles fall into two camps,
alpha and beta, by the parity of the distance of their graph vertex from the
loop vertex: beta at even distance (the exceptional cycle included), alpha
at odd distance, and the loop arrow alpha.  Deleting the loop leaves a tree,
so the two cycles through a quiver vertex (the two ends of a graph edge)
sit at adjacent distances and always get different camps.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import BrauerGraph

ALPHA = "alpha"
BETA = "beta"


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    camp: str


@dataclass(frozen=True)
class QCycle:
    arrows: tuple[Arrow, ...]
    graph_vertex: str
    camp: str
    exceptional: bool


@dataclass(frozen=True)
class CycleWord:
    base: str
    arrows: tuple[Arrow, ...]

    def names(self):
        return tuple(a.name for a in self.arrows)


class BrauerQuiver:
    def __init__(self, graph, vertices, arrows, cycles):
        self.graph = graph
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.cycles = tuple(cycles)
        self.by_name = {a.name: a for a in self.arrows}
        self.alpha_out = {a.source: a for a in self.arrows if a.camp == ALPHA}
        self.beta_out = {a.source: a for a in self.arrows if a.camp == BETA}
        self.alpha_in = {a.target: a for a in self.arrows if a.camp == ALPHA}
        self.beta_in = {a.target: a for a in self.arrows if a.camp == BETA}
        self.loop_vertex = graph.loop_edge
        self.loop_arrow = self.alpha_out[self.loop_vertex]
        self.exceptional_cycle = next(c for c in self.cycles if c.exceptional)
        self.exceptional_vertices = frozenset(graph.cycle_edges)

    def arrows_by_source(self, v):
        out = []
        if v in self.beta_out:
            out.append(self.beta_out[v])
        if v in self.alpha_out:
            out.append(self.alpha_out[v])
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, BrauerQuiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )


def _raw_cycles(g: BrauerGraph):
    """(graph_vertex, [(src_edge, tgt_edge), ...]) for each vertex, with the
    loop vertex split into the loop step and the exceptional cycle."""
    out = []
    for v in g.vertices:
        lst = v.cyclic
        m = len(lst)
        if m == 1:
            out.append((v.id, [], False))
            continue
        steps = [(lst[i], lst[(i + 1) % m]) for i in range(m)]
        if v.id == g.center:
            loop = g.loop_edge
            first = next(
                i for i in range(m) if lst[i] == loop and lst[(i + 1) % m] == loop
            )
            loop_step = steps[first]
            rest = [steps[(first + k) % m] for k in range(1, m)]
            out.append((v.id, [loop_step], "loop"))
            out.append((v.id, rest, True))
        else:
            out.append((v.id, steps, False))
    return out


def _depths(g: BrauerGraph):
    """Distance of every graph vertex from the loop vertex."""
    depth = {g.center: 0}
    stack = [g.center]
    while stack:
        v = stack.pop()
        for e in g.vertex_map[v].cyclic:
            w = g.far_vertex(e, v)
            if w not in depth:
                depth[w] = depth[v] + 1
                stack.append(w)
    return depth


def build_quiver(g: BrauerGraph) -> BrauerQuiver:
    depth = _depths(g)
    prefix = {ALPHA: "a", BETA: "b"}
    arrows_of = {}
    cycles = []
    for vid, steps, tag in _raw_cycles(g):
        camp = ALPHA if tag == "loop" or depth[vid] % 2 else BETA
        cyc_arrows = tuple(Arrow(f"{prefix[camp]}_{s}", s, t, camp) for s, t in steps)
        arrows_of.update((a.name, a) for a in cyc_arrows)
        cycles.append(QCycle(cyc_arrows, vid, camp, tag is True))
    vertices = g.canonical_order
    ordered = [arrows_of[f"b_{v}"] for v in vertices if f"b_{v}" in arrows_of]
    ordered += [arrows_of[f"a_{v}"] for v in vertices if f"a_{v}" in arrows_of]
    cycles.sort(key=lambda c: (g.canonical_index.get(_cycle_anchor(c, g), 0), c.camp))
    return BrauerQuiver(g, vertices, ordered, cycles)


def _cycle_anchor(c: QCycle, g: BrauerGraph):
    if c.arrows:
        return min((a.source for a in c.arrows), key=lambda e: g.canonical_index[e])
    return g.vertex_map[c.graph_vertex].cyclic[0]


def cycle_at(q: BrauerQuiver, v: str, camp: str) -> CycleWord:
    """The full cycle word at a quiver vertex in the given camp.

    For beta at an exceptional vertex other than the loop this is the
    extended cycle that inserts the loop arrow while passing the loop
    vertex; trivial cycles give the empty word.
    """
    if camp not in (ALPHA, BETA):
        raise ValueError(f"camp must be {ALPHA!r} or {BETA!r}")
    outgoing = q.alpha_out if camp == ALPHA else q.beta_out
    if v not in outgoing:
        return CycleWord(v, ())
    special = camp == BETA and v != q.loop_vertex and v in q.exceptional_vertices
    arrows = []
    at = v
    while True:
        arrow = outgoing[at]
        arrows.append(arrow)
        at = arrow.target
        if special and at == q.loop_vertex:
            arrows.append(q.loop_arrow)
        if at == v:
            return CycleWord(v, tuple(arrows))


def quiver_to_dot(q: BrauerQuiver) -> str:
    lines = ["digraph brauer_quiver {"]
    for v in q.vertices:
        lines.append(f'  "{v}";')
    for a in q.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}" camp="{a.camp}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
