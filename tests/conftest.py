"""Shared corpus of one-loop Brauer graphs, cached algebra builds, and the
canonical relabelling that compares graphs up to edge names."""
from fractions import Fraction

import pytest

from brauer_derive.algebra import (
    AlgebraElement,
    CompositionMismatch,
    PathElement,
    Presentation,
    QuiverMismatch,
    _relation,
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
from brauer_derive.homological import ChainMap, ProjComplex
from brauer_derive.linalg import NotIntegral, SparseEchelon
from brauer_derive.quiver import ALPHA, BETA, build_quiver

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


def path_element(source, target, d):
    """PathElement of {arrow-name word: coefficient} d, terms ordered by
    length, then by names."""
    return PathElement(source, target, tuple(sorted(d.items(), key=lambda t: (len(t[0]), t[0]))))


def relation_words(rel):
    return [w for w, _ in rel.terms]


def word_element(q, words, coeffs):
    """The named relation sum c * w over arrow-name words w, through the
    package's homogeneity check and term order."""
    terms = _relation(q, [tuple(q.ids[n] for n in w) for w in words], coeffs)
    return Presentation(q, [terms]).relations[0]


def named_presentation(q, relations):
    """The presentation of q with the given named relations
    (``PathElement``s), their arrow names turned into arrow ids."""
    ids = q.ids
    return Presentation(
        q, [tuple((tuple(ids[n] for n in w), c) for w, c in rel.terms) for rel in relations]
    )


# Test-only oracles: the cycle walk and ``omega_relations`` as they were
# before ``cycle_words`` walked each quiver cycle once and relations became
# arrow-id terms: one walk per vertex and camp, and named relations.


def cycle_at(q, v, camp):
    """Arrow names of the cycle word at v in camp, by following arrows."""
    outgoing = q.alpha_out if camp == ALPHA else q.beta_out
    if v not in outgoing:
        return ()
    special = camp == BETA and v != q.loop_vertex and v in q.graph.cycle_edges
    names, at = [], v
    while True:
        arrow = outgoing[at]
        names.append(arrow.name)
        at = arrow.target
        if special and at == q.loop_vertex:
            names.append(q.loop_arrow.name)
        if at == v:
            return tuple(names)


def omega_relations_oracle(q):
    def element(words, coeffs=(1,)):
        first = words[0]
        src, tgt = q.by_name[first[0]].source, q.by_name[first[-1]].target
        return path_element(src, tgt, dict(zip(words, coeffs)))

    loop = q.loop_vertex
    rels = []
    for v in q.vertices:
        if v == loop:
            continue
        bi, ao = q.beta_in.get(v), q.alpha_out.get(v)
        if bi and ao:
            rels.append(element([(bi.name, ao.name)]))
        ai, bo = q.alpha_in.get(v), q.beta_out.get(v)
        if ai and bo:
            rels.append(element([(ai.name, bo.name)]))
    rels.append(element([(q.beta_in[loop].name, q.beta_out[loop].name)]))
    for v in q.vertices:
        if v == loop:
            continue
        a_word = cycle_at(q, v, ALPHA)
        b_word = cycle_at(q, v, BETA)
        if a_word and b_word:
            rels.append(element([a_word, b_word], [1, -1]))
        elif b_word:
            rels.append(element([b_word + (q.beta_out[v].name,)]))
        elif a_word:
            rels.append(element([a_word + (q.alpha_out[v].name,)]))
    a1 = q.loop_arrow.name
    b_full = cycle_at(q, loop, BETA)
    rels.append(element([(a1, a1), (a1,) + b_full], [1, -1]))
    rels.append(element([(a1,) + b_full, b_full + (a1,)], [1, 1]))
    return named_presentation(q, rels)


# Test-only helpers that no code of the package calls: the shifted complex,
# the identity chain map and the two conditions a tilting certificate proves.


def shift(C, k):
    """C[k] with (C[k])^n = C^(n+k) and differential scaled by (-1)^k."""
    terms = {n - k: t for n, t in C.terms.items()}
    diffs = {
        n - k: {rc: -e if k % 2 else e for rc, e in matrix.items()}
        for n, matrix in C.diffs.items()
    }
    return ProjComplex(C.algebra, terms, diffs)


def identity(C):
    """The identity chain map of C."""
    comps = {
        n: {(i, i): C.algebra.e(v) for i, v in enumerate(t)}
        for n, t in C.terms.items()
    }
    return ChainMap(C, C, comps, check=False)


def certificate_valid(cert):
    """Every Hom(T, T[r]) checked vanishes, and |det| of the Cartan matrix
    is the same for the source algebra and End(T)."""
    return (
        all(v == 0 for v in cert.hom_vanishing.values())
        and abs(cert.det_source) == abs(cert.det_end)
    )


def det_fraction(rows):
    """Reference determinant: Gaussian elimination over ``Fraction``."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    assert det.denominator == 1
    return int(det)


def factored_det_exact(C):
    """C carries a factorization the program proved (``CartanMatrix.factor``),
    and the determinant read off it equals elimination over ``Fraction`` on
    C's rows."""
    return C.factor is not None and C.det() == det_fraction(C.rows)


# Test-only readers and builders that no code of the package calls: one
# entry of a Cartan matrix, of a differential or of a chain map, the zero
# complex, the zero element of a block, the class of a named combination of
# paths, and the arrows out of a vertex.


def cartan_entry(C, i, j):
    """Entry (i, j) of the Cartan matrix C, by vertex names."""
    return C.rows[C.order.index(i)][C.order.index(j)]


def diff_entry(C, n, r, c):
    """Entry (r, c) of the differential of C in degree n, None for zero."""
    return C.diffs.get(n, {}).get((r, c))


def map_entry(f, n, r, c):
    """Entry (r, c) of the chain map f in degree n, None for zero."""
    return f.comps.get(n, {}).get((r, c))


def is_zero_complex(C):
    return not C.terms


def zero_element(A, i, j):
    return AlgebraElement(A, i, j, [A.field.zero] * len(A.block(i, j)))


def reduce_element(A, element):
    """The class in A of a ``PathElement`` with rational coefficients."""
    out = None
    for word, coeff in element.terms:
        scalar = A.field.div(A.field.from_int(coeff.numerator), A.field.from_int(coeff.denominator))
        term = A.path_element(word).scale(scalar)
        out = term if out is None else out + term
    if out is None:
        raise CompositionMismatch("empty element has no block")
    return out


def arrows_by_source(q, v):
    """The arrows out of v, the beta arrow first."""
    return tuple(out[v] for out in (q.beta_out, q.alpha_out) if v in out)


# Test-only oracles: the product comparison and the product-based socle
# that ``presentations_equal_on_basis`` and ``socle_words`` replaced with
# arrow actions.


def class_oracle(A, source, word):
    """{word: coefficient} of the class of a path from source, read straight
    from the normal form with A's dropped words removed, not through any
    cache of A."""
    term = A._rsys.nf_word(word, A.field.one)
    return {} if term is None or (source, term[0]) in A.dropped else dict([term])


def products_equal_oracle(A, B):
    """Equal normal-form bases and equal products of basis elements, read
    for every pair of composable basis words from the normal forms of both
    algebras."""
    qa, qb = A.quiver, B.quiver
    if qa.vertices != qb.vertices or [
        (a.name, a.source, a.target, a.camp) for a in qa.arrows
    ] != [(a.name, a.source, a.target, a.camp) for a in qb.arrows]:
        raise QuiverMismatch("algebras live over different quivers")
    if A.blocks != B.blocks:
        return False
    for (i, j), left in A.blocks.items():
        for k in A.vertices:
            for wl in left:
                for wr in A.block(j, k):
                    if class_oracle(A, i, wl + wr) != class_oracle(B, i, wl + wr):
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


# Test-only oracle: the Hom solver as it was before it read each product
# once per (differential entry, vertex) and built homotopy blocks from the
# entries: one product read per (entry, summand), and every (r, c) homotopy
# block of the two terms tested.


class OracleHomSolver:
    """Chain maps C -> D and null homotopies, one product read per
    differential entry and summand."""

    def __init__(self, C, D):
        self.C, self.D = C, D
        self.A = C.algebra
        self.nvars = 0
        self.offset = {}
        self.by_source = {}  # (n, c) -> [(r, target vertex, offset)]
        self.by_target = {}  # (n, r) -> [(c, source vertex, offset)]
        for n in sorted(set(C.terms) & set(D.terms)):
            sources = C.terms[n]
            for r, tv in enumerate(D.terms[n]):
                for c, sv in enumerate(sources):
                    dim = len(self.A.block(sv, tv))
                    if not dim:
                        continue
                    base = self.offset[(n, r, c)] = self.nvars
                    self.by_source.setdefault((n, c), []).append((r, tv, base))
                    self.by_target.setdefault((n, r), []).append((c, sv, base))
                    self.nvars += dim

    def constraint_rows(self):
        """Row (n, r, c, t): coordinate t of the (r, c) entry of
        f^(n+1) d_C^n - d_D^n f^n."""
        A = self.A
        rows = {}  # (n, c, r) -> {t: row}
        for n, matrix in self.C.diffs.items():
            for (m, c), d in matrix.items():
                for r, tv, base in self.by_source.get((n + 1, m), ()):
                    block = rows.setdefault((n, c, r), {})
                    for var, coords in enumerate(A.times_basis(d, tv), base):
                        for t, coeff in coords:
                            block.setdefault(t, {})[var] = coeff
        for n, matrix in self.D.diffs.items():
            for (r, m), e in matrix.items():
                for c, sv, base in self.by_target.get((n, m), ()):
                    block = rows.setdefault((n, c, r), {})
                    for var, coords in enumerate(A.basis_times(sv, e), base):
                        for t, coeff in coords:
                            block.setdefault(t, {})[var] = -coeff
        return [rows[key][t] for key in sorted(rows) for t in sorted(rows[key])]

    def homotopy_span(self):
        """Echelon form of the image of s -> d s + s d."""
        C, D, A, offset = self.C, self.D, self.A, self.offset
        span = SparseEchelon(A.field.one)
        for n in sorted(C.terms):
            if n - 1 not in D.terms:
                continue
            below = {}  # c -> [(c2, d_C^(n-1)[c][c2])]
            for (c, c2), d in C.diffs.get(n - 1, {}).items():
                below.setdefault(c, []).append((c2, d))
            above = {}  # r -> [(r2, d_D^(n-1)[r2][r])]
            for (r2, r), e in D.diffs.get(n - 1, {}).items():
                above.setdefault(r, []).append((r2, e))
            for r, tv in enumerate(D.terms[n - 1]):
                ups = above.get(r, ())
                for c, sv in enumerate(C.terms[n]):
                    downs = below.get(c, ())
                    dim = len(A.block(sv, tv)) if ups or downs else 0
                    if not dim:
                        continue
                    block = [{} for _ in range(dim)]
                    for c2, d in downs:
                        base = offset.get((n - 1, r, c2))
                        if base is not None:
                            for col, coords in zip(block, A.times_basis(d, tv)):
                                for t, coeff in coords:
                                    col[base + t] = coeff
                    for r2, e in ups:
                        base = offset.get((n, r2, c))
                        if base is not None:
                            for col, coords in zip(block, A.basis_times(sv, e)):
                                for t, coeff in coords:
                                    col[base + t] = coeff
                    for col in block:
                        if col:
                            span.add(col)
        return span

    def vectorize(self, f):
        vec = {}
        for n, matrix in f.comps.items():
            for (r, c), e in matrix.items():
                base = self.offset[(n, r, c)]
                for b, coeff in enumerate(e.coeffs):
                    if coeff:
                        vec[base + b] = coeff
        return vec


# Test-only reference packings of dict vectors into bits: the layout tests
# compare the bit vectors the Hom solver lays out directly with these
# packings of the dict vectors it lays out for ``SparseEchelon``.


def gf2_bits(vec):
    """A vector over GF(2), keyed by nonnegative ints, as the bits of one
    int: bit k is set where entry k is nonzero."""
    bits = 0
    for k, v in vec.items():
        if v.value:
            bits |= 1 << k
    return bits


def parity_bits(vec):
    """An integer vector, keyed by nonnegative ints, reduced mod 2 as the
    bits of one int: bit k is set where entry k is odd.  Raises
    ``NotIntegral`` on an entry that is not an int, ``Fraction`` included."""
    bits = 0
    for k, v in vec.items():
        if type(v) is not int:
            raise NotIntegral(f"entry {k} is {v!r}, not an int")
        if v & 1:
            bits |= 1 << k
    return bits


def solver_ranks(solver_class, C, D, shift_by=0):
    """(variables, rank of the commutation rows, rank of the homotopy
    span) of a solver for C -> D[shift_by], ``OracleHomSolver`` or the
    package's; (0, 0, 0) when no pair of summands has a nonzero block."""
    if solver_class is OracleHomSolver:
        solver = solver_class(C, shift(D, shift_by))
        rows = solver.constraint_rows()
    else:  # the package's solver gives the rows one degree at a time
        solver = solver_class(C, D, shift_by)
        rows = [row for n in C.terms for row in solver.constraint_rows(n)]
    constraints = SparseEchelon(C.algebra.field.one)
    for row in rows:
        constraints.add(row)
    return solver.nvars, constraints.rank, solver.homotopy_span().rank


def oracle_is_null_homotopic(f):
    solver = OracleHomSolver(f.source, f.target)
    vec = solver.vectorize(f)
    return not vec or solver.homotopy_span().contains(vec)
