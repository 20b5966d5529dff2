"""Relations and exact quotient structure of one-loop Brauer graph algebras.

``omega_relations`` emits the defining relations of the algebra of a graph
(camp alternation, the broken step on the exceptional cycle, equality of the
two cycles at each vertex with the loop-adjusted cycle on the exceptional
one, and the two loop relations), with the degenerate replacements at
vertices whose second cycle is trivial.  ``a_n_presentation`` builds the
socle-deformed comparison algebra on the same quiver.

``quotient_basis`` turns a presentation into exact structure: a normal-form
basis for every ordered pair of vertices, a reduction map for paths, and
structure constants over the rationals (or a prime field).  Completion of
the relations is bounded by cap + margin; a finite-dimensionality witness
(no surviving word of length cap) and invariance of the dimensions under
margin + 1 are both checked, failing with ``NotStabilized`` rather than
returning unstable numbers.  The finished basis is then checked against the
closed form of the Cartan matrix of the presentation's graph,
C_ij = sum over graph vertices v of a_i(v) * a_j(v), with a_i(v) the number
of half-edges of edge i at v (two for the loop); a mismatch raises
``CartanMismatch``.  Every presentation built here (``omega_relations`` of a
graph, ``a_n_presentation``) has this Cartan matrix.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import rewriting
from .linalg import QQ, det_int, vec_add_scaled
from .quiver import ALPHA, BETA, BrauerQuiver, build_quiver, cycle_at


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


@dataclass(frozen=True)
class PathElement:
    """Formal rational combination of composable paths, written left to right."""

    source: str
    target: str
    terms: tuple  # ((arrow_name, ...), Fraction) pairs, deterministic order

    @staticmethod
    def from_dict(source, target, d):
        items = tuple(sorted(d.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return PathElement(source, target, items)

    def words(self):
        return [w for w, _ in self.terms]

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


@dataclass(frozen=True)
class Presentation:
    quiver: BrauerQuiver
    relations: tuple[PathElement, ...]

    def admissible(self):
        return all(
            all(len(w) >= 2 for w in rel.words()) and rel.words() for rel in self.relations
        )


def _word_element(q, arrows, coeffs):
    """PathElement from parallel lists of arrow-name words and coefficients."""
    first = arrows[0]
    src = q.by_name[first[0]].source
    tgt = q.by_name[first[-1]].target
    d = {}
    for word, c in zip(arrows, coeffs):
        if q.by_name[word[0]].source != src or q.by_name[word[-1]].target != tgt:
            raise ValueError("relation terms are not source/target homogeneous")
        d[tuple(word)] = d.get(tuple(word), Fraction(0)) + Fraction(c)
    return PathElement.from_dict(src, tgt, d)


def omega_relations(q: BrauerQuiver) -> Presentation:
    loop = q.loop_vertex
    rels = []
    # Camp alternation at every vertex except the loop.
    for v in q.vertices:
        if v == loop:
            continue
        bi, ao = q.beta_in.get(v), q.alpha_out.get(v)
        if bi and ao:
            rels.append(_word_element(q, [(bi.name, ao.name)], [1]))
        ai, bo = q.alpha_in.get(v), q.beta_out.get(v)
        if ai and bo:
            rels.append(_word_element(q, [(ai.name, bo.name)], [1]))
    # The broken step of the exceptional cycle.
    rels.append(
        _word_element(q, [(q.beta_in[loop].name, q.beta_out[loop].name)], [1])
    )
    # Cycle equalities, degenerating to overshoot relations at leaves.
    for v in q.vertices:
        if v == loop:
            continue
        a_word = cycle_at(q, v, ALPHA).names()
        b_word = cycle_at(q, v, BETA).names()
        if a_word and b_word:
            rels.append(_word_element(q, [a_word, b_word], [1, -1]))
        elif b_word:
            rels.append(_word_element(q, [b_word + (q.beta_out[v].name,)], [1]))
        elif a_word:
            rels.append(_word_element(q, [a_word + (q.alpha_out[v].name,)], [1]))
    # Loop relations.
    a1 = q.loop_arrow.name
    b_full = cycle_at(q, loop, BETA).names()
    rels.append(_word_element(q, [(a1, a1), (a1,) + b_full], [1, -1]))
    rels.append(_word_element(q, [(a1,) + b_full, b_full + (a1,)], [1, 1]))
    return Presentation(q, tuple(rels))


def a_n_presentation(n: int) -> Presentation:
    """The comparison algebra on the loop-star quiver with a square-zero loop."""
    from .graph import loop_star

    q = build_quiver(loop_star(n))
    a1 = q.loop_arrow.name
    b_full = cycle_at(q, q.loop_vertex, BETA).names()
    rels = [
        _word_element(q, [(a1, a1)], [1]),
        _word_element(q, [(q.beta_in[q.loop_vertex].name, q.beta_out[q.loop_vertex].name)], [1]),
        _word_element(q, [(a1,) + b_full, b_full + (a1,)], [1, 1]),
    ]
    for v in q.vertices:
        if v == q.loop_vertex:
            continue
        b_word = cycle_at(q, v, BETA).names()
        rels.append(_word_element(q, [b_word + (q.beta_out[v].name,)], [1]))
    return Presentation(q, tuple(rels))


@dataclass(frozen=True)
class CartanMatrix:
    order: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self):
        return sum(sum(r) for r in self.rows)

    def det(self):
        return self._det

    @cached_property
    def _det(self):
        return det_int([list(r) for r in self.rows])

    def entry(self, i, j):
        return self.rows[self.order.index(i)][self.order.index(j)]

    def reorder(self, order):
        idx = [self.order.index(v) for v in order]
        return CartanMatrix(
            tuple(order), tuple(tuple(self.rows[i][j] for j in idx) for i in idx)
        )

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
        names = self.algebra.arrow_names
        terms = [(tuple(names[a] for a in w), c) for w, c in self.terms()]
        return _render(terms, self.source, self.algebra.field.one)

    def __repr__(self):
        return f"<{self.source}->{self.target}: {self}>"


def _sparse_sum(scaled):
    """Sum of a * entries over (entries, a) pairs; entries are (position,
    coefficient) pairs.  Returns sorted pairs with zeros dropped."""
    acc = {}
    for entries, a in scaled:
        vec_add_scaled(acc, dict(entries), a)
    return tuple(sorted(acc.items()))


class QuotientAlgebra:
    """Exact basis, reduction map and structure constants of a presentation.

    Completed algebras are immutable apart from internal caches of block
    positions, of the reduced coordinates of each product word, of product
    tables, of products with basis elements and of the Cartan matrix (which
    caches its determinant).  These only ever fill in deterministic values,
    so concurrent reads (reduce, multiply, cartan) are safe.

    ``blocks`` is taken in the order given, as ``_block_words`` emits it:
    keys in the canonical vertex order, words in ``order_key`` order.
    """

    def __init__(self, presentation, cap, margin, field, rsys, blocks, dropped=frozenset()):
        self.presentation = presentation
        self.quiver = presentation.quiver
        self.cap = cap
        self.margin = margin
        self.field = field
        self._rsys = rsys
        self.dropped = frozenset(dropped)
        self.vertices = self.quiver.vertices
        if dropped:
            self.blocks = {
                key: tuple(w for w in words if (key[0], w) not in dropped)
                for key, words in blocks.items()
            }
        else:
            self.blocks = {key: tuple(words) for key, words in blocks.items()}
        self.arrow_ids = {a.name: i for i, a in enumerate(self.quiver.arrows)}
        self.arrow_names = {i: a.name for i, a in enumerate(self.quiver.arrows)}
        self._positions = {}
        self._entries = {}
        self._products = {}
        self._basis_products = {}

    def _index(self, i, j):
        """{word: position} of block (i, j), cached."""
        index = self._positions.get((i, j))
        if index is None:
            index = self._positions[(i, j)] = {w: p for p, w in enumerate(self.block(i, j))}
        return index

    @property
    def dim(self):
        return sum(len(ws) for ws in self.blocks.values())

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

    def zero(self, i, j):
        return AlgebraElement(self, i, j, [self.field.zero] * len(self.block(i, j)))

    def e(self, v):
        return self.reduce_word(v, ())

    def arrow_element(self, name):
        a = self.quiver.by_name[name]
        return self.reduce_word(a.source, (self.arrow_ids[name],))

    def path_element(self, names):
        """Reduce the path given by arrow names (must be composable)."""
        if not names:
            raise CompositionMismatch("use e(vertex) for trivial paths")
        arrows = [self.quiver.by_name[n] for n in names]
        for a, b in zip(arrows, arrows[1:]):
            if a.target != b.source:
                raise CompositionMismatch(f"{a.name} then {b.name} do not compose")
        return self.reduce_word(arrows[0].source, tuple(self.arrow_ids[n] for n in names))

    def reduce_word(self, source, word):
        """Normal-form coordinates of a path given as arrow-id tuple."""
        target = source if not word else self.quiver.arrows[word[-1]].target
        combo = self._rsys.nf_combo({word: self.field.one})
        index = self._index(source, target)
        coeffs = [self.field.zero] * len(index)
        for w, c in combo.items():
            if (source, w) in self.dropped:
                continue
            coeffs[index[w]] = c
        return AlgebraElement(self, source, target, coeffs)

    def reduce(self, element: PathElement) -> AlgebraElement:
        out = None
        for word, coeff in element.terms:
            scalar = self.field.div(
                self.field.from_int(coeff.numerator), self.field.from_int(coeff.denominator)
            )
            out = (
                self.path_element(word).scale(scalar)
                if out is None
                else out + self.path_element(word).scale(scalar)
            )
        if out is None:
            raise CompositionMismatch("empty element has no block")
        return out

    def multiply(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        if x.algebra is not self or y.algebra is not self:
            raise CompositionMismatch("elements of a different algebra")
        if x.target != y.source:
            raise CompositionMismatch(
                f"cannot compose ({x.source}->{x.target}) with ({y.source}->{y.target})"
            )
        table = self._product_table(x.source, x.target, y.target)
        n = len(self.block(x.source, y.target))
        coeffs = [self.field.zero] * n
        for i, a in enumerate(x.coeffs):
            if not a:
                continue
            for j, b in enumerate(y.coeffs):
                if not b:
                    continue
                for pos, c in table[i][j]:
                    coeffs[pos] = coeffs[pos] + a * b * c
        return AlgebraElement(self, x.source, y.target, coeffs)

    def _product_table(self, i, j, k):
        """table[l][r]: (position, coefficient) pairs of the product of basis
        words l of block (i, j) and r of block (j, k).  Each product word's
        pairs are computed once per block (i, k) and shared between tables."""
        key = (i, j, k)
        table = self._products.get(key)
        if table is not None:
            return table
        cache = self._entries.setdefault((i, k), {})
        index = self._index(i, k)
        nf_word, dropped = self._rsys.nf_word, self.dropped
        right = self.blocks.get((j, k), ())
        table = []
        for wl in self.blocks.get((i, j), ()):
            row = []
            for wr in right:
                w = wl + wr
                entry = cache.get(w)
                if entry is None:
                    entry = cache[w] = tuple(
                        [(index[u], c) for u, c in nf_word(w).items() if (i, u) not in dropped]
                    )
                row.append(entry)
            table.append(row)
        self._products[key] = table
        return table

    def times_basis(self, x: AlgebraElement, k):
        """Coordinates of x * b for every basis element b of block (x.target, k).

        One tuple of (position, coefficient) pairs per b, zeros dropped, read
        straight from the product table and memoized by x's coordinates.
        """
        key = ("left", x.source, x.target, k, x.coeffs)
        out = self._basis_products.get(key)
        if out is None:
            table = self._product_table(x.source, x.target, k)
            terms = [(row, a) for row, a in zip(table, x.coeffs) if a]
            out = tuple(
                _sparse_sum((row[b], a) for row, a in terms)
                for b in range(len(self.block(x.target, k)))
            )
            self._basis_products[key] = out
        return out

    def basis_times(self, i, y: AlgebraElement):
        """Coordinates of b * y for every basis element b of block (i, y.source)."""
        key = ("right", i, y.source, y.target, y.coeffs)
        out = self._basis_products.get(key)
        if out is None:
            table = self._product_table(i, y.source, y.target)
            terms = [(col, a) for col, a in enumerate(y.coeffs) if a]
            out = tuple(_sparse_sum((row[col], a) for col, a in terms) for row in table)
            self._basis_products[key] = out
        return out

    def cartan(self) -> CartanMatrix:
        return self._cartan

    @cached_property
    def _cartan(self):
        order, blocks = self.vertices, self.blocks
        rows = tuple(tuple(len(blocks.get((i, j), ())) for j in order) for i in order)
        return CartanMatrix(order, rows)

    def socle_words(self):
        """Basis classes killed by every arrow on both sides."""
        out = []
        arrows = [(a, self.arrow_element(a.name)) for a in self.quiver.arrows]
        for (i, j), words in self.blocks.items():
            for pos, w in enumerate(words):
                coeffs = [self.field.zero] * len(words)
                coeffs[pos] = self.field.one
                x = AlgebraElement(self, i, j, coeffs)
                if all(not (x * y) for a, y in arrows if a.source == j) and all(
                    not (y * x) for a, y in arrows if a.target == i
                ):
                    out.append((i, w))
        return out

    def basis_table(self) -> str:
        lines = []
        for (i, j), words in self.blocks.items():
            if not words:
                continue
            names = []
            for w in words:
                names.append("*".join(self.arrow_names[a] for a in w) if w else f"e_{i}")
            lines.append(f"({i},{j}): " + ", ".join(names))
        return "\n".join(lines)


def _default_bounds(q: BrauerQuiver):
    lengths = [len(c.arrows) for c in q.cycles if c.arrows]
    cap = 2 * sum(lengths) + 4
    margin = max(lengths) + 2
    return cap, margin


def _relation_combos(p: Presentation, field):
    q = p.quiver
    ids = {a.name: i for i, a in enumerate(q.arrows)}
    combos = []
    for rel in p.relations:
        combo = {}
        for word, coeff in rel.terms:
            key = tuple(ids[n] for n in word)
            num, den = field.from_int(coeff.numerator), field.from_int(coeff.denominator)
            combo[key] = field.div(num, den)
        combos.append(combo)
    return combos


def _block_words(q, levels, cap):
    """Normal words of length <= cap by block (source, target).

    Keys come in ``q.vertices`` order (the canonical order), and each block's
    words in ``order_key`` order: levels ascend in length, and within a level
    the words from one source are sorted, because ``normal_words`` extends
    the previous level in order by arrows of ascending id.
    """
    blocks = {(i, j): [] for i in q.vertices for j in q.vertices}
    for length, level in enumerate(levels):
        if length > cap:
            break
        for src, word in level:
            tgt = src if not word else q.arrows[word[-1]].target
            blocks[(src, tgt)].append(word)
    return blocks


def _check_half_edge_cartan(q, blocks):
    """Raise ``CartanMismatch`` unless every block has sum_v a_i(v) * a_j(v)
    words, a_i(v) counting the half-edges of edge i at graph vertex v."""
    expected = {}
    for v in q.graph.vertices:
        half = Counter(v.cyclic)
        for i, ai in half.items():
            for j, aj in half.items():
                expected[(i, j)] = expected.get((i, j), 0) + ai * aj
    counts = {key: len(words) for key, words in blocks.items() if words}
    if counts != expected:
        i, j = next(k for k in blocks if counts.get(k, 0) != expected.get(k, 0))
        raise CartanMismatch(
            f"block ({i},{j}) has {counts.get((i, j), 0)} basis words, "
            f"the graph's half-edges give {expected.get((i, j), 0)}"
        )


def quotient_basis(p: Presentation, cap=None, margin=None, field=QQ) -> QuotientAlgebra:
    if not p.admissible():
        raise ValueError("presentation is not admissible (a relation has length < 2)")
    q = p.quiver
    dcap, dmargin = _default_bounds(q)
    cap = dcap if cap is None else cap
    margin = dmargin if margin is None else margin
    bound = cap + margin
    src = tuple(a.source for a in q.arrows)
    tgt = tuple(a.target for a in q.arrows)
    by_source = {}
    for i, a in enumerate(q.arrows):
        by_source.setdefault(a.source, []).append(i)
    combos = _relation_combos(p, field)

    def run(limit):
        try:
            rs, truncated = rewriting.complete(combos, src, tgt, field, limit)
        except rewriting.NotAdmissible as exc:
            raise ValueError(f"ideal is not admissible: {exc}") from None
        levels = rewriting.normal_words(rs, q.vertices, by_source, limit)
        return rs, truncated, levels

    rs, truncated, levels = run(bound)
    if len(levels) > cap:
        raise NotStabilized(
            f"normal words of length {cap} survive; raise cap (cap={cap}, margin={margin})"
        )
    if truncated:
        rs2, _, levels2 = run(bound + 1)
        if len(levels2) > cap:
            raise NotStabilized(
                f"normal words of length {cap} survive at margin+1; raise cap"
            )
        dims = [sorted((s, w) for s, w in lvl) for lvl in levels]
        dims2 = [sorted((s, w) for s, w in lvl) for lvl in levels2]
        if dims != dims2:
            raise NotStabilized(
                f"basis changed when margin increased (cap={cap}, margin={margin})"
            )
        rs, levels = rs2, levels2
    blocks = _block_words(q, levels, cap)
    _check_half_edge_cartan(q, blocks)
    return QuotientAlgebra(p, cap, margin, field, rs, blocks)


def socle_quotient(A: QuotientAlgebra) -> QuotientAlgebra:
    """Quotient by the span of the basis classes annihilated by all arrows."""
    return QuotientAlgebra(
        A.presentation, A.cap, A.margin, A.field, A._rsys, A.blocks,
        dropped=A.dropped | set(A.socle_words()),
    )


def presentations_equal_on_basis(A: QuotientAlgebra, B: QuotientAlgebra) -> bool:
    """Equal normal-form bases and equal products of basis elements, read
    from the two algebras' product tables."""
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
