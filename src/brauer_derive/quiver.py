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


class UnknownCamp(Exception):
    """A camp other than alpha or beta reached the quiver: an engine fault."""


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


class BrauerQuiver:
    def __init__(self, graph, vertices, arrows, cycles):
        self.graph = graph
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.cycles = tuple(cycles)
        self.by_name = {a.name: a for a in self.arrows}
        self.ids = {a.name: i for i, a in enumerate(self.arrows)}
        self.alpha_out = {a.source: a for a in self.arrows if a.camp == ALPHA}
        self.beta_out = {a.source: a for a in self.arrows if a.camp == BETA}
        self.alpha_in = {a.target: a for a in self.arrows if a.camp == ALPHA}
        self.beta_in = {a.target: a for a in self.arrows if a.camp == BETA}
        self.loop_vertex = graph.loop_edge
        self.loop_arrow = self.alpha_out[self.loop_vertex]
        self.exceptional_cycle = next(c for c in self.cycles if c.exceptional)


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


def build_quiver(g: BrauerGraph) -> BrauerQuiver:
    prefix = {ALPHA: "a", BETA: "b"}
    arrows_of = {}
    cycles = []
    for vid, steps, tag in _raw_cycles(g):
        camp = ALPHA if tag == "loop" or g.depth[vid] % 2 else BETA
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


class CycleWords(dict):
    """{(v, camp): arrow ids of the full cycle word at v in the camp}; no
    arrow out of v in the camp gives the empty word, and a camp other than
    alpha or beta raises ``UnknownCamp``."""

    def __missing__(self, key):
        if key[1] not in (ALPHA, BETA):
            raise UnknownCamp(f"camp must be {ALPHA!r} or {BETA!r}, got {key[1]!r}")
        return ()


def cycle_words(q: BrauerQuiver) -> CycleWords:
    """The cycle word of every vertex and camp, ids indexing ``q.arrows``: the
    rotations of one walk per cycle.  Every start on the exceptional cycle but
    the loop vertex inserts the loop arrow on passing the loop vertex."""
    ids, loop = q.ids, q.loop_vertex
    out = CycleWords()
    for c in q.cycles:
        arrows = c.arrows
        if c.exceptional:
            s = next(k for k, a in enumerate(arrows) if a.source == loop)
            arrows = arrows[s:] + arrows[:s]
        word = tuple(ids[a.name] for a in arrows)
        passing = word + (ids[q.loop_arrow.name],) if c.exceptional else word
        for k, a in enumerate(arrows):
            w = passing if k else word
            out[(a.source, c.camp)] = w[k:] + w[:k]
    return out


_HTML_ENTITIES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _dot_id(text):
    """A DOT ID for a name.  The only escape DOT reads inside a quoted string
    is \\", so a backslash before the closing quote would escape it: a name
    with a backslash is written as an HTML string <...> instead, its &, <, >
    and " as entities, and any other name as a quoted string."""
    if "\\" in text:
        return "<" + text.translate(_HTML_ENTITIES) + ">"
    return '"' + text.replace('"', '\\"') + '"'


def quiver_to_dot(q: BrauerQuiver) -> str:
    lines = ["digraph brauer_quiver {"]
    for v in q.vertices:
        lines.append(f"  {_dot_id(v)};")
    for a in q.arrows:
        lines.append(
            f"  {_dot_id(a.source)} -> {_dot_id(a.target)} "
            f"[label={_dot_id(a.name)} camp={_dot_id(a.camp)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
