"""The two tilting complexes, their certificates, and the cycle-enlarging
graph surgery.

``shrink_complex`` assigns to each cycle edge the stalk of its projective
and to each tree edge the complex of projectives along the unique path from
its cycle edge, with the unique (up to scalar) nonzero maps as
differentials.  ``enlarge_complex`` replaces one projective, the direct
successor of a chosen cycle edge inside its tree, by a two-term complex and
keeps stalks elsewhere; its endomorphism ring is again an algebra of the
same family, over a graph whose exceptional cycle is one edge longer.
``enlarge_graph_move`` performs that graph surgery directly; the two routes
are cross-checked through Cartan matrices rather than trusting the surgery.

``check_tilting`` certifies the tilting axioms: vanishing of homotopy Homs
of the full direct sum at all nonzero shifts within the provable window,
plus one generation witness per simple projective (a mapping cone that
minimizes to the expected stalk), Happel's Cartan matrix S C S^T of End(T)
and |det| invariance.  No Cartan matrix is eliminated for the last: with
S square, det_end = det(S)^2 det_source (see ``homological``), so with
det_source != 0 the check holds exactly when det(S)^2 = 1, that is, when
the classes of T's summands form a basis of K_0, as a tilting complex's
must.  An ordering that lists a summand twice gives S a doubled row, and
det_end = 0 fails it.  ``verify_end_generators`` sends every
arrow of the target quiver (the loop-star of the same size for a shrink
complex, the moved graph for an enlarge complex) to a generator chain map of
the endomorphism ring and checks every relation of ``omega_relations`` of
that quiver up to homotopy.  A complex carries the graph it tilts to, so the
surgery runs once, when the complex is built.

On a shrink complex the witness maps Q(z) -> Q(parent) and the truncation
and branch-switch generator maps are all tree-path maps, and the two users
share them: each (x, y) map is built and square-checked once per complex and
kept in ``TiltingComplex.path_maps`` (on a chain, every generator map
Q(x) -> Q(succ x) is the witness map of x).  Products of elements are
computed once per algebra (``QuotientAlgebra.multiply``, from the classes
the Hom solver reads), and an exactly zero composite is null-homotopic
without a solver.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import CartanMatrix, QuotientAlgebra, omega_relations
from .graph import BrauerGraph, GraphVertex, loop_star
from .homological import (
    ChainMap,
    ProjComplex,
    check_complex,
    direct_sum,
    happel_cartan,
    homotopy_hom,
    is_null_homotopic,
    is_stalk,
    mapping_cone,
    minimize,
)
from .quiver import BETA, build_quiver, cycle_words


class NonUniqueHom(Exception):
    """A tree-path Hom space has dimension other than one."""


class EmptyTree(Exception):
    """The chosen cycle edge carries no tree."""


class CertificateFailure(Exception):
    """A tilting certificate check failed; the message names the axiom."""


class RelationFailure(Exception):
    """A defining relation of the target presentation is not null-homotopic."""


@dataclass(frozen=True)
class EnlargeData:
    at: str
    succ: str
    beta_fan: tuple[str, ...]


@dataclass(frozen=True)
class GenerationWitness:
    description: str
    matches_vertex: str
    matches_degree: int


@dataclass
class TiltCertificate:
    hom_vanishing: dict
    witnesses: list
    end_cartan: CartanMatrix
    det_source: int
    det_end: int

    def to_json(self):
        return {
            "homVanishing": {str(k): v for k, v in sorted(self.hom_vanishing.items())},
            "generation": [
                {
                    "cone": w.description,
                    "matches": f"P({w.matches_vertex})[{w.matches_degree}]",
                }
                for w in self.witnesses
            ],
            "endCartan": self.end_cartan.to_json(),
            "detSource": self.det_source,
            "detEnd": self.det_end,
        }


@dataclass
class TiltingComplex:
    algebra: QuotientAlgebra
    graph: BrauerGraph
    summands: dict
    ordering: tuple
    # the graph whose algebra is End(T): the loop-star of the same size for a
    # shrink complex, the moved graph for an enlarge complex
    target: BrauerGraph
    # the move of an enlarge complex; None marks a shrink complex
    data: EnlargeData | None = None
    # (x, y) -> the tree-path chain map Q(x) -> Q(y), built and checked once
    path_maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def direct_sum(self):
        return direct_sum([self.summands[z] for z in self.ordering])


def _unique_hom(A: QuotientAlgebra, i, j):
    basis = A.block_basis(i, j)
    if len(basis) != 1:
        raise NonUniqueHom(
            f"Hom(P({i}),P({j})) has dimension {len(basis)}, expected 1"
        )
    return basis[0]


def _path_complex(A: QuotientAlgebra, path):
    terms = {k: (z,) for k, z in enumerate(path)}
    diffs = {
        k: {(0, 0): _unique_hom(A, path[k], path[k + 1])} for k in range(len(path) - 1)
    }
    return ProjComplex(A, terms, diffs)


def shrink_ordering(g: BrauerGraph):
    """Cyclic End-ring order: the loop, then each tree block followed by its
    cycle edge; within a tree, children blocks in circular order with the
    subtree listed before its root edge."""

    order = [g.loop_edge]
    for c in g.cycle_edges[1:]:
        # preorder with children in reverse circular order, which reversed is
        # the postorder above; a stack, so depth is bounded by memory alone
        block = []
        stack = [(c, g.far_vertex(c, g.center))]
        while stack:
            edge, at = stack.pop()
            block.append(edge)
            stack.extend((k, g.far_vertex(k, at)) for k in g.children(edge, at))
        order.extend(reversed(block))
    return tuple(order)


def shrink_complex(A: QuotientAlgebra, g: BrauerGraph) -> TiltingComplex:
    summands = {}
    for z in g.canonical_order:
        if g.is_tree_edge(z):
            summands[z] = _path_complex(A, g.tree_path(z))
        else:
            summands[z] = ProjComplex.stalk(A, z)
    order = shrink_ordering(g)
    return TiltingComplex(A, g, summands, order, loop_star(len(order)))


def enlarge_data(g: BrauerGraph, at: str) -> EnlargeData:
    if at not in g.cycle_edges or at == g.loop_edge:
        raise EmptyTree(f"edge {at} is not a non-loop cycle edge")
    if not g.trees[at]:
        raise EmptyTree(f"tree at cycle edge {at} is empty")
    v = g.far_vertex(at, g.center)
    succ = g.children(at, v)[0]
    w = g.far_vertex(succ, v)
    fan = g.children(succ, w)
    return EnlargeData(at, succ, tuple(fan))


def enlarge_complex(A: QuotientAlgebra, g: BrauerGraph, d: EnlargeData) -> TiltingComplex:
    alpha = _unique_hom(A, d.at, d.succ)
    if d.beta_fan:
        top = d.beta_fan[-1]
        beta = _unique_hom(A, top, d.succ)
        two_term = ProjComplex(
            A, {0: (d.at, top), 1: (d.succ,)}, {0: {(0, 0): alpha, (0, 1): beta}}
        )
    else:
        two_term = ProjComplex(A, {0: (d.at,), 1: (d.succ,)}, {0: {(0, 0): alpha}})
    summands = {}
    for z in g.canonical_order:
        summands[z] = two_term if z == d.succ else ProjComplex.stalk(A, z)
    moved = enlarge_graph_move(g, d)
    return TiltingComplex(A, g, summands, tuple(g.canonical_order), moved, d)


def end_cartan(Q: TiltingComplex) -> CartanMatrix:
    return happel_cartan(
        [Q.summands[z] for z in Q.ordering], Q.algebra.cartan(), labels=Q.ordering
    )


def _tree_path_map(Q: TiltingComplex, x, y):
    """Chain map Q(x) -> Q(y) between summands along tree paths: the
    identity on the common prefix of the two paths, then, where they part,
    the unique hom between the edges there.  Built and checked once per
    (x, y) and kept in ``Q.path_maps``."""
    f = Q.path_maps.get((x, y))
    if f is None:
        A, px, py = Q.algebra, Q.graph.tree_path(x), Q.graph.tree_path(y)
        common = min(len(px), len(py))
        t = 0
        while t < common and px[t] == py[t]:
            t += 1
        comps = {m: {(0, 0): A.e(px[m])} for m in range(t)}
        if t < common:
            comps[t] = {(0, 0): _unique_hom(A, px[t], py[t])}
        f = Q.path_maps[(x, y)] = ChainMap(Q.summands[x], Q.summands[y], comps, check=True)
    return f


def _shrink_witnesses(Q: TiltingComplex):
    out = []
    g = Q.graph
    for z in Q.ordering:
        if not g.is_tree_edge(z):
            out.append((GenerationWitness(f"summand Q({z})", z, 0), None))
            continue
        path = g.tree_path(z)
        parent = path[-2]
        cone = mapping_cone(_tree_path_map(Q, z, parent))
        out.append(
            (GenerationWitness(f"cone(Q({z}) -> Q({parent}))", z, len(path) - 2), cone)
        )
    return out


def _enlarge_witnesses(Q: TiltingComplex):
    out = []
    d = Q.data
    for z in Q.ordering:
        if z != d.succ:
            out.append((GenerationWitness(f"summand Q({z})", z, 0), None))
            continue
        C = Q.summands[z]
        pieces = [d.at] + ([d.beta_fan[-1]] if d.beta_fan else [])
        target = direct_sum([Q.summands[p] for p in pieces])
        comps = {0: {(i, i): Q.algebra.e(p) for i, p in enumerate(pieces)}}
        f = ChainMap(C, target, comps, check=True)
        names = " ⊕ ".join(f"Q({p})" for p in pieces)
        out.append((GenerationWitness(f"cone(Q({z}) -> {names})", z, 0), mapping_cone(f)))
    return out


def check_tilting(Q: TiltingComplex) -> TiltCertificate:
    for z in Q.ordering:
        check_complex(Q.summands[z])
    total = Q.direct_sum()
    width = total.width
    hom_vanishing = {}
    for r in range(-width - 1, width + 2):
        if r == 0:
            continue
        dim = homotopy_hom(total, total, r)
        hom_vanishing[r] = dim
        if dim:
            raise CertificateFailure(
                f"Hom(Q, Q[{r}]) has dimension {dim}, expected 0"
            )
    witnesses = []
    raw = _shrink_witnesses(Q) if Q.data is None else _enlarge_witnesses(Q)
    for witness, cone in raw:
        if cone is not None:
            m = minimize(cone)
            if is_stalk(m) != (witness.matches_vertex, witness.matches_degree):
                raise CertificateFailure(
                    f"generation witness {witness.description} does not minimize "
                    f"to P({witness.matches_vertex})[{witness.matches_degree}]"
                )
        witnesses.append(witness)
    matched = {w.matches_vertex for w in witnesses}
    if matched != set(Q.ordering):
        raise CertificateFailure("generation witnesses do not cover every projective")
    endc = end_cartan(Q)
    det_source = Q.algebra.cartan().det()
    det_end = endc.det()
    cert = TiltCertificate(hom_vanishing, witnesses, endc, det_source, det_end)
    if abs(det_source) != abs(det_end):
        raise CertificateFailure(
            f"|det| changed across the tilt: {det_source} vs {det_end}"
        )
    return cert


# -- endomorphism-ring generators ------------------------------------


def _one_entry(source, target, elt, rc=(0, 0)):
    """Chain map whose only nonzero entry is ``elt`` at ``rc`` in degree 0."""
    return ChainMap(source, target, {0: {rc: elt}}, check=True)


def _shrink_generator_maps(Q: TiltingComplex, target_quiver):
    """Chain map for every arrow of the loop-star quiver: the loop arrow is
    the loop map, the k-th arrow of the exceptional cycle the k-th successor
    map around the cyclic ordering."""
    A, g = Q.algebra, Q.graph
    order = Q.ordering
    n = len(order)
    loop = Q.summands[order[0]]
    maps = {
        target_quiver.loop_arrow.name: _one_entry(
            loop, loop, A.arrow_element(A.quiver.loop_arrow.name)
        )
    }
    for k, arrow in enumerate(target_quiver.exceptional_cycle.arrows):
        x, y = order[k], order[(k + 1) % n]
        Cx, Cy = Q.summands[x], Q.summands[y]
        if not g.is_tree_edge(x):
            # leaving a cycle edge: multiplication by its exceptional arrow
            root = Cy.term(0)[0]
            elt = A.arrow_element(A.quiver.beta_out[x].name)
            if elt.target != root:
                raise RelationFailure(
                    f"cycle step {x}->{y} does not land on P({root})"
                )
            maps[arrow.name] = _one_entry(Cx, Cy, elt)
            continue
        # truncation onto a prefix path, or a switch of branch
        maps[arrow.name] = _tree_path_map(Q, x, y)
    return maps


def _enlarge_generator_maps(Q: TiltingComplex, target_quiver):
    """Chain map for every arrow of the enlarged graph's quiver."""
    A, g, d = Q.algebra, Q.graph, Q.data
    q = A.quiver
    at, succ, fan = d.at, d.succ, d.beta_fan
    pos = g.cycle_edges.index(at)
    pred = g.cycle_edges[pos - 1]
    v = g.far_vertex(at, g.center)
    siblings = g.children(at, v)
    top = fan[-1] if fan else None
    fan_cycle = ()
    if top is not None:
        w = g.far_vertex(succ, v)
        fan_cycle = g.children(top, g.far_vertex(top, w))  # old far cycle of top

    maps = {}
    for arrow in target_quiver.arrows:
        s, t = arrow.source, arrow.target
        # the degree-0 entry; Q(succ) has degree-0 summands (at, top), its
        # rows when it is the target and its columns when it is the source
        rc = (0, 0)
        if s == pred and t == succ:
            elt = A.arrow_element(q.beta_out[pred].name)
        elif s == succ and t == at:
            elt = A.e(at)
        elif s == at and len(siblings) > 1 and t == siblings[1]:
            elt = A.path_element((q.alpha_out[at].name, q.alpha_out[succ].name))
        elif top is not None and s == succ and t == top:
            rc, elt = (0, 1), A.e(top)
        elif top is not None and t == succ and s == (fan_cycle[-1] if fan_cycle else top):
            rc = (1, 0)
            if fan_cycle:
                elt = A.arrow_element(q.alpha_out[s].name)
            else:
                elt = A.reduce_word(top, cycle_words(q)[(top, BETA)])
        elif len(fan) >= 2 and s == top and t == fan[0]:
            elt = A.path_element((q.beta_out[top].name, q.beta_out[succ].name))
        else:
            old = q.by_name.get(arrow.name)
            if old is None or old.source != s or old.target != t:
                raise RelationFailure(
                    f"arrow {arrow.name}: no matching generator map ({s}->{t})"
                )
            elt = A.arrow_element(old.name)
        maps[arrow.name] = _one_entry(Q.summands[s], Q.summands[t], elt, rc)
    return maps


def _word_composites(maps, split):
    """Composite chain map of a word of arrow names, read left to right.

    A word is cut before its first ``split`` arrow.  The part before the cut
    is composed from the right and memoized by suffix, the part from the cut
    on is composed from the left and memoized by prefix, and the two are then
    composed.  The long relations of a target quiver are rotations of the
    cycles through ``split``, so their parts are suffixes and prefixes of one
    cycle and most composites are shared.  Composition is exact and
    associative, so every composite equals the left-to-right product.
    """
    by_suffix, by_prefix = {}, {}

    def head_part(word):
        comp = None
        for i in range(len(word) - 1, -1, -1):
            key = word[i:]
            got = by_suffix.get(key)
            if got is None:
                got = maps[word[i]] if comp is None else maps[word[i]].compose(comp)
                by_suffix[key] = got
            comp = got
        return comp

    def tail_part(word):
        comp = None
        for k in range(1, len(word) + 1):
            key = word[:k]
            got = by_prefix.get(key)
            if got is None:
                got = maps[word[0]] if comp is None else comp.compose(maps[word[k - 1]])
                by_prefix[key] = got
            comp = got
        return comp

    def composite(word):
        cut = word.index(split) if split in word else len(word)
        head, tail = word[:cut], word[cut:]
        if not tail:
            return head_part(head)
        if not head:
            return tail_part(tail)
        return head_part(head).compose(tail_part(tail))

    return composite


def verify_end_generators(Q: TiltingComplex) -> bool:
    """Check every relation of ``omega_relations`` of the quiver of
    ``Q.target`` on the generator chain maps of End(T), up to homotopy."""
    target = build_quiver(Q.target)
    generators = _shrink_generator_maps if Q.data is None else _enlarge_generator_maps
    maps = generators(Q, target)
    composite = _word_composites(maps, target.beta_out[target.loop_vertex].name)
    for rel in omega_relations(target).relations:
        total = None
        for word, coeff in rel.terms:
            if abs(coeff) != 1:
                raise RelationFailure("unexpected relation coefficient")
            comp = composite(word)
            if coeff < 0:
                comp = -comp
            total = comp if total is None else total + comp
        if not is_null_homotopic(total):
            raise RelationFailure(f"relation {rel} is not null-homotopic")
    return True


# -- graph surgery ----------------------------------------------------


def enlarge_graph_move(g: BrauerGraph, d: EnlargeData) -> BrauerGraph:
    """Move the direct successor ``d.succ`` of ``d.at`` onto the exceptional
    cycle.

    The successor edge is inserted in the circular order at the center
    directly before ``d.at``; the remainder of its tree is spliced back per
    the fan rules, preserving the edge count.
    """
    at, succ = d.at, d.succ
    v = g.far_vertex(at, g.center)
    new_lists = {x.id: list(x.cyclic) for x in g.vertices}
    # center: insert succ directly before at
    lst = new_lists[g.center]
    lst.insert(lst.index(at), succ)
    # v loses succ
    new_lists[v].remove(succ)
    if d.beta_fan:
        w = g.far_vertex(succ, v)
        top = d.beta_fan[-1]
        u = g.far_vertex(top, w)
        new_lists[w].remove(succ)
        # succ reattaches at the far endpoint of the last fan edge,
        # directly before it
        ulst = new_lists[u]
        ulst.insert(ulst.index(top), succ)
    vertices = [GraphVertex(vid, tuple(lst)) for vid, lst in new_lists.items() if lst]
    implicit = frozenset(
        x for x in g.implicit if len(new_lists.get(x, ())) == 1
    )
    return BrauerGraph(vertices, implicit)
