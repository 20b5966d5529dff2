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

``build_quiver`` makes the cycles in one pass over the graph's cycle edges,
vertex lists and depths; a leaf of T keeps its trivial cycle, with no arrows.
A word of arrows is a ``str`` whose k-th character is ``chr(i)`` for the
index i in ``arrows`` of its k-th arrow, and the trivial word is "".  So
code point order is arrow order, and ``ids`` maps each arrow name to its
one-arrow word.  The quiver holds the one table of the one-arrow words'
sources and targets, and of those out of and into each vertex, ascending.
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
        self.ids = {a.name: chr(i) for i, a in enumerate(self.arrows)}  # one-arrow words
        self.source, self.target = {}, {}  # by one-arrow word
        self.out_ids, self.in_ids = {}, {}  # vertex -> one-arrow words, ascending
        for a in self.arrows:
            x = self.ids[a.name]
            self.source[x], self.target[x] = a.source, a.target
            self.out_ids.setdefault(a.source, []).append(x)
            self.in_ids.setdefault(a.target, []).append(x)
        self.alpha_out = {a.source: a for a in self.arrows if a.camp == ALPHA}
        self.beta_out = {a.source: a for a in self.arrows if a.camp == BETA}
        self.alpha_in = {a.target: a for a in self.arrows if a.camp == ALPHA}
        self.beta_in = {a.target: a for a in self.arrows if a.camp == BETA}
        self.loop_vertex = graph.loop_edge
        self.loop_arrow = self.alpha_out[self.loop_vertex]
        self.exceptional_cycle = next(c for c in self.cycles if c.exceptional)


def build_quiver(g: BrauerGraph) -> BrauerQuiver:
    """The quiver of g in one pass: the loop step alone, the exceptional cycle
    through ``g.cycle_edges`` from the loop vertex, and one cycle per other
    vertex, trivial at a leaf, which stays.  Arrows are beta first, each camp
    in ``g.canonical_order`` of its source."""
    loop, ce = g.loop_edge, g.cycle_edges
    cycles = [
        _cycle(g.center, [(loop, loop)], ALPHA, False),
        _cycle(g.center, zip(ce, ce[1:] + ce[:1]), BETA, True),
    ]
    for v in g.vertices:
        if v.id != g.center:
            lst = v.cyclic
            steps = zip(lst, lst[1:] + lst[:1]) if len(lst) > 1 else ()
            cycles.append(_cycle(v.id, steps, ALPHA if g.depth[v.id] % 2 else BETA, False))
    by_name = {a.name: a for c in cycles for a in c.arrows}
    names = [f"{p}_{e}" for p in "ba" for e in g.canonical_order]
    arrows = [by_name[n] for n in names if n in by_name]
    return BrauerQuiver(g, g.canonical_order, arrows, cycles)


def _cycle(vid, steps, camp, exceptional):
    arrows = tuple(Arrow(f"{camp[0]}_{s}", s, t, camp) for s, t in steps)
    return QCycle(arrows, vid, camp, exceptional)


class CycleWords(dict):
    """{(v, camp): the full cycle word at v in the camp}; no arrow out of v
    in the camp gives the empty word "", and a camp other than alpha or beta
    raises ``UnknownCamp``."""

    def __missing__(self, key):
        if key[1] not in (ALPHA, BETA):
            raise UnknownCamp(f"camp must be {ALPHA!r} or {BETA!r}, got {key[1]!r}")
        return ""


def cycle_words(q: BrauerQuiver) -> CycleWords:
    """The cycle word of every vertex and camp: the rotations of one walk per
    cycle.  The exceptional cycle starts at the loop vertex, and every later
    start on it inserts the loop arrow on passing the loop vertex."""
    ids = q.ids
    out = CycleWords()
    for c in q.cycles:
        word = "".join(ids[a.name] for a in c.arrows)
        passing = word + ids[q.loop_arrow.name] if c.exceptional else word
        for k, a in enumerate(c.arrows):
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
