"""Relations and exact quotient structure of one-loop Brauer graph algebras.

``omega_relations`` emits the defining relations of the algebra of a graph
(camp alternation, the broken step on the exceptional cycle, equality of the
two cycles at each vertex with the loop-adjusted cycle on the exceptional
one, and the two loop relations), with the degenerate replacements at
vertices whose second cycle is trivial.  ``a_n_presentation`` builds the
socle-deformed comparison algebra on the same quiver.  Both build relations
as arrow-id terms from one walk per quiver cycle (``cycle_words``), which is
what completion reads; named relations are made only when asked for.

``quotient_basis`` turns a presentation into exact structure: a normal-form
basis for every ordered pair of vertices, a reduction map for paths, and
structure constants over the rationals (or a prime field).  The relations
are completed once, at the length bound max(cap + margin, 2 * cap); a
completion that discards no overlap is confluent, so by Bergman's diamond
lemma (Adv. Math. 29, 1978) its normal words are a basis.  With the
finite-dimensionality witness (no normal word of length cap) the basis is
proven; a completion that discards an overlap or a surviving word of length
cap raises ``NotStabilized``.  The number of basis words in each block, counted
in one pass, is then checked against the closed form of the Cartan matrix of
the presentation's graph,
C_ij = sum over graph vertices v of a_i(v) * a_j(v), with a_i(v) the number
of half-edges of edge i at v (two for the loop); a mismatch raises
``CartanMismatch``.  Every presentation built here (``omega_relations`` of a
graph, ``a_n_presentation``) has this Cartan matrix.  The check proves
C = M M^T for the half-edge matrix M (a_i(v) at row i and column v), which
is square, as a one-loop graph has as many vertices as edges.  So
det C = det(M)^2, and the algebra's ``CartanMatrix`` takes its determinant
from M: ``linalg.det_int`` on M's sparse rows, which are triangular up to a
permutation (a leaf vertex meets one edge), at O(nnz).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from . import rewriting
from .linalg import QQ, det_int
from .quiver import ALPHA, BETA, BrauerQuiver, build_quiver, cycle_words


class NotStabilized(Exception):
    """The cap/margin bounds were too small to certify the basis."""


class CartanMismatch(Exception):
    """The normal-form basis disagrees with the closed-form Cartan matrix of
    the presentation's graph: an engine fault."""


class CompositionMismatch(Exception):
    """Product of elements whose middle vertices differ, or a path or
    combination that lies in no block (trivial or empty)."""


class QuiverMismatch(Exception):
    """Operation mixing algebras over different quivers."""


class InhomogeneousRelation(Exception):
    """A relation built here has terms with different sources or targets:
    an engine fault."""


class FactorMismatch(Exception):
    """A basis word w is not the class of w[:-1] times its last arrow, so
    arrow actions do not determine the products: an engine fault."""


@dataclass(frozen=True)
class PathElement:
    """Formal rational combination of composable paths, written left to right."""

    source: str
    target: str
    terms: tuple  # ((arrow_name, ...), int or Fraction) pairs, by length, then by names

    def __str__(self):
        terms = sorted(self.terms, key=lambda kv: (-len(kv[0]), kv[0]))
        return _render(terms, self.source, QQ.one)


def _render(terms, source, one):
    """Text of a combination of (arrow-name word, coefficient) pairs in the
    given order: coefficients equal to the field's ``one`` or ``-one`` print
    as signs, the trivial word as e_source, and the empty combination as 0."""
    parts = []
    for word, coeff in terms:
        w = "*".join(word) if word else f"e_{source}"
        if coeff == one:
            text = w
        elif coeff == -one:
            text = f"-{w}"
        else:
            text = f"{coeff}*{w}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append("- " + text[1:])
        else:
            parts.append("+ " + text)
    return " ".join(parts) if parts else "0"


class Presentation:
    """A quiver and its relations, each a tuple of (arrow-id word,
    coefficient) terms (``id_relations``), which is what completion reads.
    ``relations`` names them as ``PathElement``s, made on first use."""

    def __init__(self, quiver, id_relations):
        self.quiver = quiver
        self.id_relations = tuple(id_relations)

    @cached_property
    def relations(self):
        a = self.quiver.arrows
        return tuple(
            PathElement(a[t[0][0][0]].source, a[t[0][0][-1]].target,
                        tuple((tuple(a[i].name for i in w), c) for w, c in t))
            for t in self.id_relations
        )

    def admissible(self):
        return all(
            terms and all(len(w) >= 2 for w, _ in terms) for terms in self.id_relations
        )


def _relation(q, words, coeffs=(1,)):
    """Terms of the relation sum c * w over parallel arrow-id words w and
    coefficients c, in ``PathElement`` order (by length, then by arrow
    names); the words must share one source and one target."""
    arrows = q.arrows
    src, tgt = arrows[words[0][0]].source, arrows[words[0][-1]].target
    terms = {}
    for word, c in zip(words, coeffs):
        if arrows[word[0]].source != src or arrows[word[-1]].target != tgt:
            raise InhomogeneousRelation("relation terms are not source/target homogeneous")
        terms[word] = terms.get(word, 0) + c
    return tuple(
        sorted(terms.items(), key=lambda t: (len(t[0]), [arrows[a].name for a in t[0]]))
    )


def omega_relations(q: BrauerQuiver) -> Presentation:
    ids, loop = q.ids, q.loop_vertex
    cycles = cycle_words(q)
    rels = []
    # Camp alternation at every vertex except the loop.
    for v in q.vertices:
        if v == loop:
            continue
        for into, out in ((q.beta_in, q.alpha_out), (q.alpha_in, q.beta_out)):
            if v in into and v in out:
                rels.append(_relation(q, [(ids[into[v].name], ids[out[v].name])]))
    # The broken step of the exceptional cycle.
    rels.append(_relation(q, [(ids[q.beta_in[loop].name], ids[q.beta_out[loop].name])]))
    # Cycle equalities, degenerating to overshoot relations at leaves.
    for v in q.vertices:
        if v == loop:
            continue
        a_word, b_word = cycles[(v, ALPHA)], cycles[(v, BETA)]
        if a_word and b_word:
            rels.append(_relation(q, [a_word, b_word], (1, -1)))
        elif a_word or b_word:
            word = a_word or b_word
            rels.append(_relation(q, [word + word[:1]]))
    # Loop relations.
    a1, b_full = ids[q.loop_arrow.name], cycles[(loop, BETA)]
    rels.append(_relation(q, [(a1, a1), (a1,) + b_full], (1, -1)))
    rels.append(_relation(q, [(a1,) + b_full, b_full + (a1,)], (1, 1)))
    return Presentation(q, rels)


def a_n_presentation(n: int) -> Presentation:
    """The comparison algebra on the loop-star quiver with a square-zero loop."""
    from .graph import loop_star

    q = build_quiver(loop_star(n))
    ids, loop = q.ids, q.loop_vertex
    cycles = cycle_words(q)
    a1, b_full = ids[q.loop_arrow.name], cycles[(loop, BETA)]
    rels = [
        _relation(q, [(a1, a1)]),
        _relation(q, [(ids[q.beta_in[loop].name], ids[q.beta_out[loop].name])]),
        _relation(q, [(a1,) + b_full, b_full + (a1,)], (1, 1)),
    ]
    for v in q.vertices:
        if v != loop:
            b_word = cycles[(v, BETA)]
            rels.append(_relation(q, [b_word + b_word[:1]]))
    return Presentation(q, rels)


@dataclass(frozen=True)
class CartanMatrix:
    """A Cartan matrix: ``rows[i][j]`` for the vertices ``order[i]`` and
    ``order[j]``, and its determinant, exact.

    ``factor`` is (F, d) when the program has proved that the matrix is
    F·B·Fᵀ, for a square integer matrix F given as sparse rows {column:
    entry} and a matrix B of determinant d.  Then det = det(F)²·d, which
    ``linalg.det_int`` reads off F's sparse rows.  ``quotient_basis`` gives
    an algebra's matrix the factor (M, 1), M the half-edge matrix its Cartan
    check proves C = M·Mᵀ with, and ``homological.happel_cartan`` gives
    Happel's S·C·Sᵀ the factor (S, det C) when S is square.  A matrix
    without a factor has its determinant eliminated from its rows.  Either
    way the determinant is computed when first read and kept; the factor
    takes no part in equality.
    """

    order: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    factor: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self):
        return sum(sum(r) for r in self.rows)

    def det(self):
        return self._det

    @cached_property
    def _det(self):
        if self.factor is None:
            return det_int([{j: v for j, v in enumerate(r) if v} for r in self.rows])
        F, d = self.factor
        return det_int(F) ** 2 * d

    def reorder(self, order):
        """The matrix P·C·Pᵀ in vertex order ``order``, a permutation of
        ``self.order``, which carries C's determinant: det(P)² = 1."""
        index = {v: k for k, v in enumerate(self.order)}
        idx = [index[v] for v in order]
        columns = list(zip(*[self.rows[i] for i in idx]))  # of P C
        out = CartanMatrix(tuple(order), tuple(zip(*[columns[j] for j in idx])))
        out.__dict__["_det"] = self.det()
        return out

    def to_json(self):
        return {
            "order": list(self.order),
            "matrix": [list(r) for r in self.rows],
            "dim": self.dim,
            "det": self.det(),
        }

    def __str__(self):
        width = max(len(str(v)) for r in self.rows for v in r)
        return "\n".join(" ".join(str(v).rjust(width) for v in r) for r in self.rows)


class AlgebraElement:
    """Element of one Hom block e_i A e_j, stored as basis coordinates."""

    __slots__ = ("algebra", "source", "target", "coeffs")

    def __init__(self, algebra, source, target, coeffs):
        self.algebra = algebra
        self.source = source
        self.target = target
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        self._compat(other)
        return AlgebraElement(
            self.algebra, self.source, self.target,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other):
        self._compat(other)
        return AlgebraElement(
            self.algebra, self.source, self.target,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return AlgebraElement(
            self.algebra, self.source, self.target, [-a for a in self.coeffs]
        )

    def scale(self, c):
        return AlgebraElement(
            self.algebra, self.source, self.target, [c * a for a in self.coeffs]
        )

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.multiply(self, other)

    def _compat(self, other):
        if (
            other.algebra is not self.algebra
            or other.source != self.source
            or other.target != self.target
        ):
            raise CompositionMismatch("elements live in different blocks")

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.source == other.source
            and self.target == other.target
            and self.coeffs == other.coeffs
        )

    def scalar_part(self):
        """Coefficient of the trivial path; only sensible when source == target."""
        if self.source != self.target:
            return self.algebra.field.zero
        words = self.algebra.blocks[(self.source, self.target)]
        if words and words[0] == ():
            return self.coeffs[0]
        return self.algebra.field.zero

    def terms(self):
        words = self.algebra.blocks[(self.source, self.target)]
        return [(w, c) for w, c in zip(words, self.coeffs) if c]

    def __str__(self):
        arrows = self.algebra.quiver.arrows
        terms = [(tuple(arrows[a].name for a in w), c) for w, c in self.terms()]
        return _render(terms, self.source, self.algebra.field.one)

    def __repr__(self):
        return f"<{self.source}->{self.target}: {self}>"


class QuotientAlgebra:
    """Exact basis, reduction map and structure constants of a presentation.

    Completed algebras are immutable apart from internal caches of the word
    table (``blocks``), of block positions, of the signed class of each path
    asked for (``_entries``, per block, filled one word at a time), of
    products with basis elements (``_basis_products``), of the coordinates of
    each product of two elements asked for (``_products``, keyed by both
    factors' blocks and coordinates), of the vertex idempotents' coordinates
    and of the Cartan matrix (which caches its determinant once read).  No cache keeps
    an element, whose reference back to the algebra would leave the algebra
    for the cyclic collector to free.  The caches only ever fill in
    deterministic values, so concurrent reads (reduce, multiply, cartan) are
    safe.  ``_class`` is the one place where a path meets the normal form and
    the dropped words; ``_class_sum`` keeps and sums its classes for
    ``reduce_word``, ``multiply``, ``times_basis`` and ``basis_times``.  The
    socle and the comparison of two algebras read arrow actions
    (``arrow_rows``, ``socle_words``) from ``_class`` directly.

    The basis is held as the levels of ``rewriting.normal_words`` and the
    number of words in each non-empty block (``_counts``), which is all that
    ``dim`` and ``cartan`` read: ``cartan`` fills its rows from the counts,
    and takes its determinant from the half-edge matrix ``quotient_basis``
    hands over (``half_edges``), or, without one, as for a socle quotient,
    from its rows.  ``blocks``, the words of every block less
    the dropped ones, is built from the levels when first read, by
    ``_block_words``: keys in the canonical vertex order, words in
    length-lexicographic order, every block a tuple.  Without ``counts``, as
    for a socle quotient, they are counted from ``blocks`` at once.
    """

    def __init__(self, presentation, cap, margin, field, rsys, levels, counts=None,
                 dropped=frozenset(), half_edges=None):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.cap = cap
        self.margin = margin
        self.field = field
        self._rsys = rsys
        self._levels = levels
        self.dropped = frozenset(dropped)
        self.vertices = self.quiver.vertices
        if counts is None:
            counts = {key: len(words) for key, words in self.blocks.items() if words}
        self._counts = counts
        self._half_edges = half_edges
        self._positions = {}
        self._entries = {}
        self._basis_products = {}
        self._products = {}
        self._units = {}

    def _index(self, i, j):
        """{word: position} of block (i, j), cached."""
        index = self._positions.get((i, j))
        if index is None:
            index = self._positions[(i, j)] = {w: p for p, w in enumerate(self.block(i, j))}
        return index

    @cached_property
    def blocks(self):
        return _block_words(self.quiver, self._levels, self.dropped)

    @cached_property
    def dim(self):
        return sum(self._counts.values())

    def block(self, i, j):
        return self.blocks.get((i, j), ())

    def block_basis(self, i, j):
        out = []
        words = self.block(i, j)
        for pos in range(len(words)):
            coeffs = [self.field.zero] * len(words)
            coeffs[pos] = self.field.one
            out.append(AlgebraElement(self, i, j, coeffs))
        return out

    def e(self, v):
        # the coordinates are kept, not the element, whose reference back to
        # the algebra would leave the algebra for the cyclic collector to free
        coeffs = self._units.get(v)
        if coeffs is None:
            coeffs = self._units[v] = self.reduce_word(v, ()).coeffs
        return AlgebraElement(self, v, v, coeffs)

    def arrow_element(self, name):
        a = self.quiver.by_name[name]
        return self.reduce_word(a.source, (self.quiver.ids[name],))

    def path_element(self, names):
        """Reduce the path given by arrow names (must be composable)."""
        if not names:
            raise CompositionMismatch("use e(vertex) for trivial paths")
        arrows = [self.quiver.by_name[n] for n in names]
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise CompositionMismatch(f"{a.name} then {b.name} do not compose")
        return self.reduce_word(arrows[0].source, tuple(self.quiver.ids[n] for n in names))

    def reduce_word(self, source, word):
        """Normal-form coordinates of a path given as arrow-id tuple."""
        target = source if not word else self.quiver.target[word[-1]]
        coeffs = [self.field.zero] * len(self.block(source, target))
        for pos, c in self._class_sum(source, target, [(word, self.field.one)]):
            coeffs[pos] = c
        return AlgebraElement(self, source, target, coeffs)

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        if x.algebra is not self or y.algebra is not self:
            raise CompositionMismatch("elements of a different algebra")
        if x.target != y.source:
            raise CompositionMismatch(
                f"cannot compose ({x.source}->{x.target}) with ({y.source}->{y.target})"
            )
        i, k = x.source, y.target
        key = (i, x.target, k, x.coeffs, y.coeffs)
        coeffs = self._products.get(key)
        if coeffs is None:
            right = [(wr, b) for wr, b in zip(self.block(x.target, k), y.coeffs) if b]
            left = [(wl, a) for wl, a in zip(self.block(i, x.target), x.coeffs) if a]
            coeffs = [self.field.zero] * len(self.block(i, k))
            terms = ((wl + wr, a * b) for wl, a in left for wr, b in right)
            for pos, c in self._class_sum(i, k, terms):
                coeffs[pos] = c
            coeffs = self._products[key] = tuple(coeffs)
        return AlgebraElement(self, i, k, coeffs)

    def _class_sum(self, i, k, terms):
        """Sorted (position, coefficient) pairs, zeros dropped, of the sum of
        c * (class of w) over (w, c) terms of paths w from i to k.  Each class
        is kept in ``_entries[(i, k)]`` as one signed word, (position,
        coefficient), or None (see ``rewriting``)."""
        cache = self._entries.get((i, k))
        if cache is None:
            cache = self._entries[(i, k)] = {}
        acc = {}
        for word, c in terms:
            entry = cache.get(word, False)  # False: not read yet
            if entry is False:
                term = self._class(i, word)
                entry = cache[word] = term and (self._index(i, k)[term[0]], term[1])
            if entry is not None:
                pos, d = entry
                new = acc.pop(pos) + c * d if pos in acc else c * d
                if new:
                    acc[pos] = new
        return tuple(sorted(acc.items()))

    def times_basis(self, x: AlgebraElement, k):
        """Coordinates of x * b for every basis element b of block (x.target, k).

        One tuple of (position, coefficient) pairs per b, zeros dropped, summed
        from the product words of x's nonzero terms and memoized by x's
        coordinates.
        """
        key = ("left", x.source, x.target, k, x.coeffs)
        out = self._basis_products.get(key)
        if out is None:
            terms = [(wl, a) for wl, a in zip(self.block(x.source, x.target), x.coeffs) if a]
            out = self._basis_products[key] = tuple(
                self._class_sum(x.source, k, [(wl + wr, a) for wl, a in terms])
                for wr in self.block(x.target, k)
            )
        return out

    def basis_times(self, i, y: AlgebraElement):
        """Coordinates of b * y for every basis element b of block (i, y.source)."""
        key = ("right", i, y.source, y.target, y.coeffs)
        out = self._basis_products.get(key)
        if out is None:
            terms = [(wr, a) for wr, a in zip(self.block(y.source, y.target), y.coeffs) if a]
            out = self._basis_products[key] = tuple(
                self._class_sum(i, y.target, [(wl + wr, a) for wr, a in terms])
                for wl in self.block(i, y.source)
            )
        return out

    def cartan(self) -> CartanMatrix:
        return self._cartan

    @cached_property
    def _cartan(self):
        order = self.vertices
        index = {v: k for k, v in enumerate(order)}
        rows = [[0] * len(order) for _ in order]
        for (i, j), c in self._counts.items():
            rows[index[i]][index[j]] = c
        factor = None if self._half_edges is None else (self._half_edges, 1)
        return CartanMatrix(order, tuple(map(tuple, rows)), factor)

    def _class(self, source, word):
        """(word, coefficient) of the class of a path from source, or None:
        its normal form (one signed word, see ``rewriting``) unless that word
        is dropped.  The one place here that reads normal forms."""
        term = self._rsys.nf_word(word, self.field.one)
        if term is not None and (source, term[0]) in self.dropped:
            return None
        return term

    def _word_text(self, source, word):
        return "*".join(self.quiver.arrows[a].name for a in word) if word else f"e_{source}"

    def arrow_rows(self):
        """{(i, w, a): class of w * a, as ``_class`` gives it} for every basis
        word w of every block (i, j) and every arrow id a out of j.

        Every non-empty basis word w must be the class of w[:-1] * w[-1],
        else ``FactorMismatch``.  With that, x * (y'a) = (x * y') * a gives
        every product of basis words from these rows by induction on the
        length of the right factor, so two algebras with equal blocks and
        equal rows have equal products.  The check runs on every call.
        """
        out = self.quiver.out_ids
        rows = {}
        for (i, j), words in self.blocks.items():
            for w in words:
                for a in out.get(j, ()):
                    rows[(i, w, a)] = self._class(i, w + (a,))
        one = self.field.one
        for (i, j), words in self.blocks.items():
            for w in words:
                if w and rows.get((i, w[:-1], w[-1])) != (w, one):
                    raise FactorMismatch(
                        f"basis word {self._word_text(i, w)} of block ({i},{j}) is not "
                        "the class of its prefix times its last arrow"
                    )
        return rows

    def socle_words(self):
        """Basis classes killed by every arrow on both sides."""
        q = self.quiver
        found = []
        for (i, j), words in self.blocks.items():
            for w in words:
                if not any(self._class(i, w + (a,)) for a in q.out_ids.get(j, ())) and not any(
                    self._class(q.source[a], (a,) + w) for a in q.in_ids.get(i, ())
                ):
                    found.append((i, w))
        return found

    def basis_table(self) -> str:
        lines = []
        for (i, j), words in self.blocks.items():
            if not words:
                continue
            names = [self._word_text(i, w) for w in words]
            lines.append(f"({i},{j}): " + ", ".join(names))
        return "\n".join(lines)


def _default_bounds(q: BrauerQuiver):
    lengths = [len(c.arrows) for c in q.cycles if c.arrows]
    cap = 2 * sum(lengths) + 4
    margin = max(lengths) + 2
    return cap, margin


def _relation_combos(p: Presentation, field):
    """Each relation of p as {arrow-id word: coefficient in field}, in order."""
    convert = field.from_int
    return [
        {w: field.div(convert(c.numerator), convert(c.denominator)) for w, c in terms}
        for terms in p.id_relations
    ]


def _keyed_levels(q, levels):
    """(keys, words) of each level of ``rewriting.normal_words``: the words
    and the block (source, target) of each, level 0 giving the trivial word
    () of every vertex.  The one place that reads the level format."""
    yield [(v, v) for v in levels[0]], [()] * len(levels[0])
    for level in levels[1:]:
        yield [(q.source[w[0]], q.target[w[-1]]) for w in level], level


def _block_words(q, levels, dropped):
    """Normal words by block (source, target) as tuples, less the (source,
    word) pairs in ``dropped``.

    Keys come in ``q.vertices`` order (the canonical order), and each block's
    words in length-lexicographic order: levels ascend in length, and within
    a level the words from one source are sorted, because ``normal_words``
    extends the previous level in order by arrows of ascending id.
    """
    found = {}
    for keys, words in _keyed_levels(q, levels):
        for key, word in zip(keys, words):
            if (key[0], word) not in dropped:
                found.setdefault(key, []).append(word)
    blocks = dict.fromkeys(product(q.vertices, repeat=2), ())
    blocks.update((key, tuple(words)) for key, words in found.items())
    return blocks


def _block_counts(q, levels):
    """{(source, target): number of normal words} of every non-empty block,
    counted in one pass over the levels."""
    counts = Counter()
    for keys, _ in _keyed_levels(q, levels):
        counts.update(keys)
    return counts


def _check_half_edge_cartan(q, counts):
    """Raise ``CartanMismatch`` unless every block has sum_v a_i(v) * a_j(v)
    words, a_i(v) counting the half-edges of edge i at graph vertex v; the
    message names the first block off it in the canonical order.  Return
    the half-edge matrix M, built in the same pass, which this proves
    C = M·Mᵀ for: a_i(v) at row i, in ``q.vertices`` order, and column v,
    in the graph's vertex order, as sparse rows {column: entry}."""
    row_of = {e: k for k, e in enumerate(q.vertices)}
    half_edges = [{} for _ in q.vertices]
    expected = {}  # a pair of half-edges of i and j at v adds 1 to C_ij
    for col, v in enumerate(q.graph.vertices):
        for i in v.cyclic:
            row = half_edges[row_of[i]]
            row[col] = row.get(col, 0) + 1
            for j in v.cyclic:
                expected[(i, j)] = expected.get((i, j), 0) + 1
    if counts != expected:
        i, j = next(
            k for k in product(q.vertices, repeat=2) if counts.get(k, 0) != expected.get(k, 0)
        )
        raise CartanMismatch(
            f"block ({i},{j}) has {counts.get((i, j), 0)} basis words, "
            f"the graph's half-edges give {expected.get((i, j), 0)}"
        )
    return half_edges


def quotient_basis(p: Presentation, cap=None, margin=None, field=QQ) -> QuotientAlgebra:
    """The algebra of p, its basis proven (see the module docstring).  It
    keeps the half-edge matrix M of the Cartan check, from which its Cartan
    matrix reads det C = det(M)^2 when first asked."""
    if not p.admissible():
        raise rewriting.NotAdmissible("presentation has a relation word of length < 2")
    q = p.quiver
    dcap, dmargin = _default_bounds(q)
    cap = dcap if cap is None else cap
    margin = dmargin if margin is None else margin
    # A completion untruncated at some bound is so, with the same rules, at
    # every larger one: no overlap exceeds it, and the binomial-only lookup a
    # larger bound allows skips only monomial pairs, whose S-polynomials are
    # empty.  So one completion at the ceiling decides, failing closed.
    bound = max(cap + margin, 2 * cap)
    rs, truncated = rewriting.complete(_relation_combos(p, field), field, bound)
    if truncated:
        raise NotStabilized(
            f"completion truncated up to length {bound}; raise cap (cap={cap}, margin={margin})"
        )
    levels = rewriting.normal_words(rs, q.vertices, q.out_ids, q.target, cap)
    if len(levels) > cap:
        raise NotStabilized(
            f"normal words of length {cap} survive; raise cap (cap={cap}, margin={margin})"
        )
    counts = _block_counts(q, levels)
    half_edges = _check_half_edge_cartan(q, counts)
    return QuotientAlgebra(p, cap, margin, field, rs, levels, counts, half_edges=half_edges)


def socle_quotient(A: QuotientAlgebra) -> QuotientAlgebra:
    """Quotient by the span of the basis classes annihilated by all arrows."""
    return QuotientAlgebra(
        A.presentation, A.cap, A.margin, A.field, A._rsys, A._levels,
        dropped=A.dropped | set(A.socle_words()),
    )


def presentations_equal_on_basis(A: QuotientAlgebra, B: QuotientAlgebra) -> bool:
    """Equal normal-form bases and equal products of basis elements.

    Products are compared through ``arrow_rows``: on equal blocks, equal
    right arrow actions give equal products (see there).  The dropped words
    of a socle quotient span a two-sided ideal, so both algebras are
    associative and the induction holds for them too.
    """
    qa, qb = A.quiver, B.quiver
    if qa.vertices != qb.vertices or [
        (a.name, a.source, a.target, a.camp) for a in qa.arrows
    ] != [(a.name, a.source, a.target, a.camp) for a in qb.arrows]:
        raise QuiverMismatch("algebras live over different quivers")
    rows_a, rows_b = A.arrow_rows(), B.arrow_rows()
    return A.blocks == B.blocks and rows_a == rows_b
