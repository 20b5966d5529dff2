"""Bounded complexes of projectives and homotopy-category computations.

Complexes are cohomological (differentials raise degree).  A homomorphism
P(i) -> P(j) is an element of the block e_i A e_j acting by right
multiplication, so composing maps concatenates the underlying paths in
application order.  Differential and chain-map matrices are sparse dicts
{(row, col): element} holding their nonzero entries only, keys in sorted
order.  Rows index the summands of the higher (respectively target) term and
columns those of the lower (source) term; entry (r, c) lives in the block
from the column vertex to the row vertex; an absent key is a zero entry.

Homotopy Hom spaces are computed by two exact rank computations over the
algebra's field: the solution space of the chain-map conditions and the
image of the homotopy map s -> ds + sd inside it, both on the whole of the
two complexes.  Over GF(2) the ranks are taken on rows laid out as bits;
over Q a screen that takes them mod 2, on the same bit layout, may prove a
Hom space 0 first.  The solver reads D[r] off D, its sign (-1)^r folded
into the products of D's entries, so no shifted copy is built.  It lays
out each degree's variables by vertex groups, block sizes read from the
algebra's ``_counts`` with no word table built, and builds the rows and the homotopy columns from the stored entries.  An
entry's products with a block's basis come from ``times_basis`` and
``basis_times``, memoized on the algebra, which sums the product words'
signed classes, each read once per block; a row's entry whose products
land in an empty block is skipped unread.  Each distinct product is turned
into pieces once per walk over one differential, not once per entry.  One
walk over the entries and vertex groups serves both layouts: for
``SparseEchelon`` each group's pieces become dict entries, for
``BitEchelon`` one mask per coordinate, shifted and ORed into one int per
row or column (``_gather``).  The solver's layout finds the variables: a
shift with no nonzero block from a summand of C^n to one of D^(n+r) has
none, and ``homotopy_hom`` returns 0 there, which is exact, as no nonzero
map exists.  Null-homotopic maps are chain maps, so the homotopy
span is built only when the commutation rows leave some chain map.
``homotopy_hom`` returns the dimension alone: the certificates rest on
dimensions, Hom(T, T[r]) = 0 and the Cartan matrix of End(T).  One echelon
form of the homotopy columns serves both that dimension and the membership
test of ``is_null_homotopic``.  ``minimize`` strips contractible two-term pieces by
Gaussian elimination on differential entries that are units of the local
endomorphism rings; a unit c (e_i - r) with r radical is inverted by the
finite series c^-1 (e_i + r + r^2 + ...), no solver needed, and a scalar
unit c e_i, where r = 0, by c^-1 e_i alone.

``happel_cartan`` gives the Cartan matrix of End(T) as S C S^T, S the
signed class matrix of T's summands.  When S is square, det(S C S^T) =
det(S)^2 det(C), and that is how the determinant is read: det S from S's
sparse rows, det C from the algebra's own factor (see ``algebra``).  With
det C != 0, |det C| = |det S C S^T| is then exactly det(S)^2 = 1: the
classes of T's summands form a basis of the Grothendieck group K_0, which
is what the determinant check of a tilting certificate certifies.
"""
from __future__ import annotations

from itertools import groupby
from operator import add, neg

from .algebra import AlgebraElement, CartanMatrix
from .linalg import QQ, BitEchelon, NotIntegral, echelon_for, mod_2


class NotAComplex(Exception):
    """d following d is nonzero (the message names the degree and entry), or
    a direct sum of no complexes."""


class ChainMapFailure(Exception):
    """An internal chain-map computation failed: a component in the wrong
    block, a square that does not commute, maps that do not compose, or a
    local-ring unit without an inverse.  These come from the program's own
    constructions, never from the input."""


class ProjComplex:
    """Bounded complex of direct sums of indecomposable projectives."""

    def __init__(self, algebra, terms, diffs):
        self.algebra = algebra
        self.terms = {n: tuple(t) for n, t in sorted(terms.items()) if t}
        self._positions = {}
        self.diffs = {}
        for n in sorted(diffs):
            if n in self.terms and n + 1 in self.terms:
                matrix = _sparse(diffs[n])
                if matrix:
                    self.diffs[n] = matrix

    @staticmethod
    def stalk(algebra, vertex):
        """P(vertex) in degree 0."""
        return ProjComplex(algebra, {0: (vertex,)}, {})

    def degrees(self):
        return sorted(self.terms)

    def term(self, n):
        return self.terms.get(n, ())

    def positions(self, n):
        """{vertex: the indices of degree n's summands there}, made once."""
        if n not in self._positions:
            out = self._positions[n] = {}
            for i, v in enumerate(self.term(n)):
                out.setdefault(v, []).append(i)
        return self._positions[n]

    @property
    def width(self):
        degs = self.degrees()
        return degs[-1] - degs[0] if degs else 0

    def total_summands(self):
        return sum(len(t) for t in self.terms.values())

    def __eq__(self, other):
        return (
            isinstance(other, ProjComplex)
            and other.algebra is self.algebra
            and self.terms == other.terms
            and self.diffs == other.diffs
        )

    def dump(self):
        """One line per degree, runs of equal summands written P(v)^k, and
        one line per nonzero differential."""
        lines = []
        for n in self.degrees():
            parts = []
            for v, run in groupby(self.term(n)):
                k = len(list(run))
                parts.append(f"P({v})" + (f"^{k}" if k > 1 else ""))
            lines.append(f"deg {n}: " + " ⊕ ".join(parts))
            matrix = self.diffs.get(n)
            if matrix:
                rows = (
                    ", ".join(str(matrix.get((r, c), 0)) for c in range(len(self.term(n))))
                    for r in range(len(self.term(n + 1)))
                )
                lines.append(f"d{n}: [" + "; ".join(rows) + "]")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"ProjComplex<{self.dump()}>"


def _sparse(matrix):
    """The nonzero entries of a {(row, col): element} matrix, keys sorted."""
    return {rc: e for rc, e in sorted(matrix.items()) if not e.is_zero()}


def _add_entry(matrix, rc, e):
    """matrix[rc] += e, where the entry may be absent; zeros stay until
    ``_sparse`` drops them."""
    matrix[rc] = matrix[rc] + e if rc in matrix else e


def _then(first, second):
    """Matrix of ``first`` followed by ``second``: entry (r, c) is the sum
    over m of first[(m, c)] * second[(r, m)], zeros dropped."""
    by_col = {}
    for (r, m), b in second.items():
        by_col.setdefault(m, []).append((r, b))
    acc = {}
    for (m, c), a in first.items():
        for r, b in by_col.get(m, ()):
            _add_entry(acc, (r, c), a * b)
    return _sparse(acc)


def direct_sum(complexes):
    """Direct sum; summands keep their order of appearance per degree."""
    if not complexes:
        raise NotAComplex("empty direct sum")
    terms = {}
    diffs = {}
    for C in complexes:
        for n, matrix in C.diffs.items():
            ro, co = len(terms.get(n + 1, ())), len(terms.get(n, ()))
            block = diffs.setdefault(n, {})
            for (r, c), e in matrix.items():
                block[(ro + r, co + c)] = e
        for n, t in C.terms.items():
            terms[n] = terms.get(n, ()) + t
    return ProjComplex(complexes[0].algebra, terms, diffs)


def check_complex(C: ProjComplex) -> bool:
    A = C.algebra
    for n, matrix in C.diffs.items():
        lower, upper = C.term(n), C.term(n + 1)
        for (r, c), e in matrix.items():
            if e.algebra is not A or e.source != lower[c] or e.target != upper[r]:
                raise NotAComplex(f"entry ({r},{c}) of d{n} lies in the wrong block")
    for n in C.diffs:
        if n + 1 in C.diffs:
            square = _then(C.diffs[n], C.diffs[n + 1])
            if square:
                r, c = next(iter(square))
                raise NotAComplex(f"d² != 0 at degree {n}, entry ({r},{c})")
    return True


class ChainMap:
    """Degreewise map between complexes commuting with the differentials.

    ``comps[n]`` is the {(row, col): element} matrix from source^n to
    target^n, nonzero entries only.
    """

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = {}
        for n in sorted(comps):
            if source.term(n) and target.term(n):
                matrix = _sparse(comps[n])
                if matrix:
                    self.comps[n] = matrix
        if check:
            self.check()

    def check(self):
        C, D = self.source, self.target
        for n, matrix in self.comps.items():
            for (r, c), e in matrix.items():
                if e.source != C.term(n)[c] or e.target != D.term(n)[r]:
                    raise ChainMapFailure(f"component ({r},{c}) at degree {n} in wrong block")
        for n in sorted(set(C.diffs) | set(self.comps)):
            d_then_f = _then(C.diffs.get(n, {}), self.comps.get(n + 1, {}))
            f_then_d = _then(self.comps.get(n, {}), D.diffs.get(n, {}))
            if d_then_f != f_then_d:
                raise ChainMapFailure(f"square at degree {n} does not commute")
        return True

    def compose(self, other):
        """self followed by other (other.source == self.target)."""
        if other.source is not self.target and other.source != self.target:
            raise ChainMapFailure("chain maps do not compose")
        comps = {}
        for n, matrix in self.comps.items():
            if n in other.comps:
                product = _then(matrix, other.comps[n])
                if product:
                    comps[n] = product
        return _sparse_map(self.source, other.target, comps)

    def __add__(self, other):
        if other.source != self.source or other.target != self.target:
            raise ChainMapFailure("chain maps between different complexes")
        comps = {n: dict(matrix) for n, matrix in self.comps.items()}
        for n, matrix in other.comps.items():
            block = comps.setdefault(n, {})
            for rc, e in matrix.items():
                _add_entry(block, rc, e)
        return ChainMap(self.source, self.target, comps, check=False)

    def __neg__(self):
        comps = {
            n: {rc: -e for rc, e in matrix.items()}
            for n, matrix in self.comps.items()
        }
        return _sparse_map(self.source, self.target, comps)


def _sparse_map(source, target, comps):
    """The chain map of ``comps`` that are already as ``ChainMap`` keeps
    them, unchecked: nonzero entries only, keys sorted, in degrees where
    both terms have summands.  ``_then`` and negation give such entries,
    so ``compose`` and ``-`` need no second ``_sparse``."""
    f = ChainMap.__new__(ChainMap)
    f.source, f.target, f.comps = source, target, comps
    return f


def mapping_cone(f: ChainMap) -> ProjComplex:
    """Standard cone: degree n is source^(n+1) + target^n."""
    C, D = f.source, f.target
    A = C.algebra
    terms = {}
    degs = set(C.degrees()) | set(D.degrees())
    lo = min((d for d in degs), default=0) - 1
    hi = max((d for d in degs), default=0)
    for n in range(lo, hi + 1):
        t = tuple(C.term(n + 1)) + tuple(D.term(n))
        if t:
            terms[n] = t
    diffs = {}
    for n in terms:
        c_lower, c_upper = len(C.term(n + 1)), len(C.term(n + 2))
        matrix = diffs[n] = {rc: -e for rc, e in C.diffs.get(n + 1, {}).items()}
        for (r, c), e in f.comps.get(n + 1, {}).items():
            matrix[(c_upper + r, c)] = e
        for (r, c), e in D.diffs.get(n, {}).items():
            matrix[(c_upper + r, c_lower + c)] = e
    return ProjComplex(A, terms, diffs)


def _local_inverse(u: AlgebraElement):
    """Inverse of a unit of the local ring e_i A e_i.

    Writing u = c (e_i - r) with c its scalar part and r radical, the inverse
    is c^-1 (e_i + r + r^2 + ...); r is nilpotent, so the series ends within
    dim e_i A e_i terms.  A scalar unit c e_i has r = 0, so its inverse is
    c^-1 e_i, read without a product.
    """
    A = u.algebra
    c = u.scalar_part()
    if not c:
        raise ChainMapFailure("entry is not a unit")
    inv = A.field.div(A.field.one, c)
    e = A.e(u.source)
    if u.coeffs.count(A.field.zero) == len(u.coeffs) - 1:  # u = c e_i, r = 0
        return e.scale(inv)
    r = e - u.scale(inv)
    total = power = e
    for _ in range(len(A.block(u.source, u.source))):
        power = power * r
        if power.is_zero():
            return total.scale(inv)
        total = total + power
    raise ChainMapFailure("radical part of a unit is not nilpotent")


def _cut(matrix, row=None, col=None):
    """The matrix without one row and/or column, later indices moved down."""
    return {
        (r - (row is not None and r > row), c - (col is not None and c > col)): e
        for (r, c), e in matrix.items()
        if r != row and c != col
    }


def minimize(C: ProjComplex) -> ProjComplex:
    """Homotopy-equivalent complex with all differential entries radical.

    Repeatedly cancels a differential entry P(i) -> P(i) whose trivial-path
    coefficient is nonzero (a unit of the local ring), applying the standard
    elimination update to the rest of the matrix.  Entries are searched by
    degree, then row, then column.
    """
    terms = {n: list(t) for n, t in C.terms.items()}
    diffs = dict(C.diffs)

    def find_unit():
        for n in sorted(diffs):
            for (r, c), e in diffs[n].items():
                if e.source == e.target and e.scalar_part():
                    return n, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        n, r, c = hit
        matrix = dict(diffs[n])
        uinv = _local_inverse(matrix[(r, c)])
        downs = [(c2, e) for (r1, c2), e in diffs[n].items() if r1 == r and c2 != c]
        acrosses = [(r2, e) for (r2, c1), e in diffs[n].items() if c1 == c and r2 != r]
        for r2, across in acrosses:
            for c2, down in downs:
                _add_entry(matrix, (r2, c2), -(down * uinv * across))
        # Delete the cancelled pair everywhere.
        del terms[n][c]
        del terms[n + 1][r]
        diffs[n] = _sparse(_cut(matrix, r, c))
        if n - 1 in diffs:
            diffs[n - 1] = _cut(diffs[n - 1], row=c)
        if n + 1 in diffs:
            diffs[n + 1] = _cut(diffs[n + 1], col=r)
    return ProjComplex(C.algebra, terms, diffs)


def is_stalk(C: ProjComplex):
    """(vertex, degree) when C is a one-summand complex with zero differential."""
    if len(C.terms) != 1:
        return None
    (n, t), = C.terms.items()
    return (t[0], n) if len(t) == 1 else None


def _pieces(memo, products, negate, rows, bits):
    """An entry's products with a block basis as pieces for ``_gather``:
    (i, k, x) for each coordinate t, x of basis element b's product,
    negated if asked, with i, k = t, b for the rows and b, t for the
    columns; with ``bits``, (i, mask), bit k of mask ``mod_2(x)``, as mod 2
    a sign changes nothing.  ``memo`` serves one walk over one
    differential, so one sign: it keeps (products, pieces) by the id of
    ``products``, which it holds, so a hit is that very tuple."""
    hit = memo.get(id(products))
    if hit is not None and hit[0] is products:
        return hit[1]
    terms = [(t, b, x) if rows else (b, t, x) for b, coords in enumerate(products) for t, x in coords]
    if not bits:
        got = [(i, k, -x) for i, k, x in terms] if negate else terms
    else:
        masks = {}
        for i, k, x in terms:
            if mod_2(x):
                masks[i] = masks.get(i, 0) | 1 << k
        got = masks.items()
    memo[id(products)] = products, got
    return got


def _gather(blocks, bits):
    """The vectors of blocks (first, step, members, offset, pieces): member
    j, at_j of ``members`` places piece i at offset + at_j of vector
    first + j * step + i.  Over (i, k, x) terms that is entry
    offset + at_j + k of a dict, the dicts in the order of their numbers;
    with ``bits``, over (i, mask) pieces, mask << (offset + at_j) ORed into
    an int, the ints in the order met, which no rank and no span membership
    depends on.  Nothing needs summing (see ``_HomSolver``)."""
    vecs = {}
    if bits:
        get = vecs.get
        for first, step, members, at, masks in blocks:
            for j, at_j in members.items():
                base, shift = first + j * step, at + at_j
                for i, mask in masks:
                    vecs[base + i] = get(base + i, 0) | mask << shift
        return vecs.values()
    for first, step, members, at, terms in blocks:
        for j, at_j in members.items():
            base, shift = first + j * step, at + at_j
            for i, k, x in terms:
                vecs.setdefault(base + i, {})[shift + k] = x
    return [vecs[key] for key in sorted(vecs)]


class _HomSolver:
    """Exact solver for chain maps C -> D[shift_by] and null homotopies.

    Degree n of D[shift_by] is D^(n+shift_by), its differential's sign
    (-1)^shift_by folded into the products of D's entries.  The variables
    are the basis coordinates of the blocks f^n[r][c] from C^n[c] to
    D^(n+shift_by)[r].  Each degree groups the summands of both terms by
    vertex, and each (source vertex, target vertex) pair with a nonzero
    block lays out all its (c, r) at once: f^n[r][c] starts at at_c + at_r,
    where ``by_source[(n, c)][target vertex]`` is (at_c, {r: at_r}) and
    ``by_target[(n, r)][source vertex]`` is (at_r, {c: at_c}).  Block
    sizes come from the algebra's ``_counts``, which holds the non-empty
    blocks only; with none between the terms, ``nvars`` is 0, no nonzero
    map C^n -> D^(n+shift_by) exists, and Hom is 0 exactly.
    Rows and columns walk the nonzero differential entries and read an
    entry's products with a block basis once per vertex group; the rows
    skip an entry whose products land in an empty block, and a column
    entry's land in a block of the layout.  ``times_basis`` and
    ``basis_times`` return the tuple they memoize, so equal products are
    one tuple, and each walk over one differential's entries turns each
    distinct tuple into pieces once (``_pieces``), in a memo that lives
    for that walk.  ``_gather`` places the pieces at the offset
    of every summand of the group, one degree n at a time, into row
    (c, r, t) or column (r, c, basis index), each numbered by one int:
    dict entries for ``SparseEchelon``, or for ``BitEchelon`` one mask per
    coordinate shifted and ORed into an int, with no dict row built.
    Nothing needs summing: a variable of f^(n+1)[r][m] meets the rows of
    square (n, r, c) only through d_C^n[m][c], one of f^n[m][c] only
    through D's entry (r, m), and each homotopy coordinate reaches each
    variable through one entry.

    C and D must be complexes over one algebra: the products of D's
    entries are read in C's.
    """

    def __init__(self, C, D, shift_by=0):
        if C.algebra is not D.algebra:
            raise ChainMapFailure("Hom between complexes over different algebras")
        self.C, self.D, self.shift_by = C, D, shift_by
        self.A = A = C.algebra
        counts = A._counts  # the non-empty blocks and their dimensions
        self.nvars = 0
        self.by_source = {}  # (n, c) -> {target vertex: (at_c, {r: at_r})}
        self.by_target = {}  # (n, r) -> {source vertex: (at_r, {c: at_c})}
        for n in C.terms:
            groups = D.positions(n + shift_by)
            for sv, cs in C.positions(n).items() if groups else ():
                for tv, rs in groups.items():
                    dim = counts.get((sv, tv))
                    if not dim:
                        continue
                    at_r = {r: j * dim for j, r in enumerate(rs)}
                    at_c = {c: self.nvars + k * len(rs) * dim for k, c in enumerate(cs)}
                    for c, at in at_c.items():
                        self.by_source.setdefault((n, c), {})[tv] = (at, at_r)
                    for r, at in at_r.items():
                        self.by_target.setdefault((n, r), {})[sv] = (at, at_c)
                    self.nvars += len(cs) * len(rs) * dim

    def constraint_rows(self, n, bits=False):
        """Rows (over variable columns) expressing the commutation squares
        at degree n, in the order (c, r, t), or as ints in no order with
        ``bits``: row (r, c, t) is coordinate t of the (r, c) entry of
        f^(n+1) d_C^n - d^n f^n, read in application order, with
        d = (-1)^shift_by d_D^(n+shift_by) the differential of D[shift_by].
        """
        return _gather(self._row_blocks(n, bits), bits)

    def _row_blocks(self, n, bits):
        """The blocks of ``_gather`` for degree n's rows, row (c, r, t)
        numbered (c W + r) T + t: W is the number of summands of
        D^(n+1+shift_by), T the dimension of the algebra, which bounds the
        coordinates in a block."""
        C, D, A, k = self.C, self.D, self.A, self.shift_by
        W, T, nonzero = len(D.term(n + 1 + k)), A.dim, A._counts
        memo = {}
        for (m, c), d in C.diffs.get(n, {}).items():  # d_C then f^(n+1)
            for tv, (at, targets) in self.by_source.get((n + 1, m), {}).items():
                if (d.source, tv) not in nonzero:  # d b lands in an empty block
                    continue
                got = _pieces(memo, A.times_basis(d, tv), False, True, bits)
                if got:
                    yield c * W * T, T, targets, at, got
        memo = {}
        for (r, m), e in D.diffs.get(n + k, {}).items():  # minus f^n then d
            for sv, (at, sources) in self.by_target.get((n, m), {}).items():
                if (sv, e.target) not in nonzero:  # b e lands in an empty block
                    continue
                got = _pieces(memo, A.basis_times(sv, e), not k % 2, True, bits)
                if got:
                    yield r * T, W * T, sources, at, got

    def homotopy_columns(self, n, bits=False):
        """The image vectors of the basis vectors of s^n under
        s -> d s + s d, whose image is the null-homotopic chain maps: dicts
        in the order (r, c, basis index), or ints in no order with ``bits``.

        s^n[r][c] maps C^n[c] to D^(n-1+shift_by)[r]; it reaches f^(n-1)
        through row c of d_C^(n-1) and f^n through column r of D's
        differential there.  Only blocks that some entry reaches get image
        vectors.
        """
        return _gather(self._column_blocks(n, bits), bits)

    def _column_blocks(self, n, bits):
        """The blocks of ``_gather`` for degree n's columns, column (r, c, b)
        numbered (r W + c) T + b: W is the number of summands of C^n, T the
        dimension of the algebra, which bounds the coordinates in a block."""
        C, D, A, k = self.C, self.D, self.A, self.shift_by
        W, T = len(C.term(n)), A.dim
        memo = {}
        for (c, c2), d in C.diffs.get(n - 1, {}).items():
            for tv, (at, targets) in self.by_source.get((n - 1, c2), {}).items():
                got = _pieces(memo, A.times_basis(d, tv), False, False, bits)
                if got:
                    yield c * T, W * T, targets, at, got
        memo = {}
        for (r2, r), e in D.diffs.get(n - 1 + k, {}).items():
            for sv, (at, sources) in self.by_target.get((n, r2), {}).items():
                got = _pieces(memo, A.basis_times(sv, e), k % 2, False, bits)
                if got:
                    yield r * W * T, T, sources, at, got

    def homotopy_span(self, span=None):
        """Echelon form of the null-homotopic chain maps: the homotopy
        columns of each degree in turn fed into ``span``, by default an
        empty echelon of the algebra's field, laid out as ``span.bits``
        asks."""
        span = echelon_for(self.A.field) if span is None else span
        for n in self.C.terms:
            if n - 1 + self.shift_by in self.D.terms:
                span.extend(self.homotopy_columns(n, span.bits))
        return span

    def dimension(self, echelon):
        """The variables less the rank of the commutation rows and, when
        that leaves chain maps, less the rank of the homotopy span, each
        fed one degree at a time into a fresh ``echelon()``, in the layout
        it takes."""
        rows = echelon()
        for n in self.C.terms:
            if n + 1 + self.shift_by in self.D.terms:
                rows.extend(self.constraint_rows(n, rows.bits))
        chain_maps = self.nvars - rows.rank
        return chain_maps and chain_maps - self.homotopy_span(echelon()).rank

    def vectorize(self, f: ChainMap, bits=False):
        """f's coordinates over the variables: a dict, or an int with ``bits``."""
        vec = 0 if bits else {}
        for n, matrix in f.comps.items():
            for (r, c), e in matrix.items():
                at, at_r = self.by_source[(n, c)][e.target]
                at += at_r[r]
                if bits:
                    vec |= sum(mod_2(x) << b for b, x in enumerate(e.coeffs)) << at
                    continue
                for var, coeff in enumerate(e.coeffs, at):
                    if coeff:
                        vec[var] = coeff
        return vec


def homotopy_hom(C: ProjComplex, D: ProjComplex, shift_by: int = 0) -> int:
    """Exact dimension of Hom in the homotopy category from C to D[shift_by]:
    the chain maps (variables less the rank of the commutation rows) modulo
    the null-homotopic ones, which are chain maps too, so the homotopy span
    is built only when some chain map exists.

    Over GF(2) both ranks come from ``BitEchelon``, over an odd prime from
    ``SparseEchelon``.  Over Q, ``_vanishes_mod_2`` first takes both ranks
    mod 2 and may prove the dimension 0; otherwise the ranks are taken
    exactly over Q, so only exact ranks ever report a nonzero dimension.
    """
    solver = _HomSolver(C, D, shift_by)
    if not solver.nvars:
        return 0
    field = C.algebra.field
    if field == QQ and _vanishes_mod_2(solver):
        return 0
    return solver.dimension(lambda: echelon_for(field))


def _vanishes_mod_2(solver):
    """True only if every row and column entry is an int and the variables
    less the ranks mod 2 of the rows R and of the homotopy columns H leave
    nothing: then Hom over Q is 0.

    Each rank can only fall mod 2, as a minor that vanishes over Q vanishes
    mod 2, so the true dimension nvars - rank_Q(R) - rank_Q(H) is at most
    nvars - rank_2(R) - rank_2(H), and it is never negative, since the
    null-homotopic maps are chain maps.  R and H are laid out as bits
    directly, each entry read by ``mod_2``; a ``Fraction`` entry has no
    image there, so it sends the question to the exact ranks.
    """
    try:
        return solver.dimension(BitEchelon) <= 0
    except NotIntegral:
        return False


def is_null_homotopic(f: ChainMap) -> bool:
    """Whether f lies in the homotopy span, decided in the echelon of the
    algebra's field, f laid out as that echelon takes it: exact over Q, as
    membership has no mod-2 screen."""
    if not f.comps:  # the zero map: ``comps`` keeps nonzero entries only
        return True
    solver = _HomSolver(f.source, f.target)
    span = solver.homotopy_span()
    return span.contains(solver.vectorize(f, span.bits))


def happel_cartan(summands, C: CartanMatrix, labels) -> CartanMatrix:
    """Cartan matrix of the endomorphism ring of a direct sum of complexes
    (Happel, *Triangulated categories in the representation theory of
    finite-dimensional algebras*, 1988).

    Entry (z, z') is the alternating double sum over degrees r, s of
    (-1)^(r-s) dim Hom(Q_r, Q'_s), with the module Hom dimensions read off
    the Cartan matrix of the base algebra.  As (-1)^(r-s) = (-1)^r (-1)^s,
    this is S C S^T, where row z of S counts the summands of Q_z at each
    vertex with the sign of their degree.  ``labels`` names the summands,
    in order.

    S is kept as sparse rows, and the product is taken as S (C S^T), each
    factor's rows combined from the rows of a transpose (``_combine``): a
    unit row of S (one summand, in an even degree) takes its row as it is,
    and only the other rows are summed.  When S is square the result
    carries the factor (S, det C), so its determinant is det(S)^2 det(C)
    (see ``CartanMatrix``); otherwise it is eliminated from the rows.
    """
    index = {v: k for k, v in enumerate(C.order)}
    signed = []  # sparse rows of S
    for Q in summands:
        row = {}
        for n, term in Q.terms.items():
            sign = -1 if n % 2 else 1
            for v in term:
                k = index[v]
                row[k] = row.get(k, 0) + sign
        signed.append({k: m for k, m in row.items() if m})
    # the rows of S C^T, which are the columns of C S^T; then S (C S^T)
    columns, zero = list(zip(*C.rows)), (0,) * len(C.order)
    c_st = list(zip(*[_combine(columns, s, zero) for s in signed]))
    rows = tuple(_combine(c_st, s, (0,) * len(signed)) for s in signed)
    factor = (signed, C.det()) if len(signed) == len(C.order) else None
    return CartanMatrix(tuple(labels), rows, factor)


def _combine(vectors, entries, zero):
    """The sum of m * vectors[k] over the (k, m) items of ``entries``, as a
    tuple, or ``zero`` when there are none.  A single entry 1 gives
    vectors[k] itself; otherwise the sum is a chain of ``map``s, which the
    final ``tuple`` evaluates in one pass."""
    acc = None
    for k, m in entries.items():
        v = vectors[k]
        if m != 1:
            v = map(neg, v) if m == -1 else map(m.__mul__, v)
        acc = v if acc is None else map(add, acc, v)
    return zero if acc is None else tuple(acc)
