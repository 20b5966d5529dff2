"""Bounded complexes of projectives and homotopy-category computations.

Complexes are cohomological (differentials raise degree).  A homomorphism
P(i) -> P(j) is an element of the block e_i A e_j acting by right
multiplication, so composing maps concatenates the underlying paths in
application order.  Differential and chain-map matrices are sparse dicts
{(row, col): element} holding their nonzero entries only, keys in sorted
order.  Rows index the summands of the higher (respectively target) term and
columns those of the lower (source) term; entry (r, c) lives in the block
from the column vertex to the row vertex.  ``entry`` and ``comp`` read one
entry, with None for zero.

Homotopy Hom spaces are computed by two exact rank computations over the
algebra's field: the solution space of the chain-map conditions and the
image of the homotopy map s -> ds + sd inside it, both on the whole of the
two complexes.  The solver builds these systems from the stored entries,
walking each differential once per degree, and reads every product of an
entry with a basis element from the algebra's product table (memoized on
the algebra).  A shift at which no summand of C^n has a nonzero block to a
summand of D^(n+r) has no variables, so ``homotopy_hom`` returns 0 there
before shifting D or building a solver.  ``homotopy_hom`` returns the
dimension alone: the certificates rest on dimensions, Hom(T, T[r]) = 0 and
the Cartan matrix of End(T).  One echelon form of the homotopy columns
serves both that dimension and the membership test of
``is_null_homotopic``.  ``minimize`` strips contractible two-term pieces by
Gaussian elimination on differential entries that are units of the local
endomorphism rings; a unit c (e_i - r) with r radical is inverted by the
finite series c^-1 (e_i + r + r^2 + ...), no solver needed.
"""
from __future__ import annotations

from itertools import groupby

from .algebra import AlgebraElement, CartanMatrix
from .linalg import SparseEchelon


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
        self.diffs = {}
        for n in sorted(diffs):
            if n in self.terms and n + 1 in self.terms:
                matrix = _sparse(diffs[n])
                if matrix:
                    self.diffs[n] = matrix

    @staticmethod
    def stalk(algebra, vertex, degree=0):
        return ProjComplex(algebra, {degree: (vertex,)}, {})

    def degrees(self):
        return sorted(self.terms)

    def term(self, n):
        return self.terms.get(n, ())

    def entry(self, n, r, c):
        return self.diffs.get(n, {}).get((r, c))

    @property
    def width(self):
        degs = self.degrees()
        return degs[-1] - degs[0] if degs else 0

    def is_zero(self):
        return not self.terms

    def total_summands(self):
        return sum(len(t) for t in self.terms.values())

    def shift(self, k):
        """C[k] with (C[k])^n = C^(n+k) and differential scaled by (-1)^k."""
        terms = {n - k: t for n, t in self.terms.items()}
        diffs = {
            n - k: {rc: -e if k % 2 else e for rc, e in matrix.items()}
            for n, matrix in self.diffs.items()
        }
        return ProjComplex(self.algebra, terms, diffs)

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

    def comp(self, n, r, c):
        return self.comps.get(n, {}).get((r, c))

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
        comps = {
            n: _then(matrix, other.comps[n])
            for n, matrix in self.comps.items()
            if n in other.comps
        }
        return ChainMap(self.source, other.target, comps, check=False)

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
        return ChainMap(self.source, self.target, comps, check=False)

    @staticmethod
    def identity(C):
        comps = {
            n: {(i, i): C.algebra.e(v) for i, v in enumerate(t)}
            for n, t in C.terms.items()
        }
        return ChainMap(C, C, comps, check=False)


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
    dim e_i A e_i terms.
    """
    A = u.algebra
    c = u.scalar_part()
    if not c:
        raise ChainMapFailure("entry is not a unit")
    inv = A.field.div(A.field.one, c)
    e = A.e(u.source)
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


class _HomSolver:
    """Exact solver for chain maps C -> D and null homotopies.

    The variables are the basis coordinates of the components f^n[r][c],
    numbered by degree, target row, source column and basis word; the block
    f^n[r][c] holds the variables from offset[(n, r, c)] on.  Blocks between
    vertices with no nonzero maps get no variables.  The rows and columns
    walk the nonzero differential entries only, and take each product with
    a basis element from the algebra's memoized product table.  Nothing
    needs summing: a variable of f^(n+1)[r][m] meets the rows of square
    (n, r, c) only through d_C^n[m][c], one of f^n[m][c] only through
    d_D^n[r][m], and likewise each homotopy coordinate reaches each variable
    through one differential entry.
    """

    def __init__(self, C, D):
        self.C, self.D = C, D
        self.A = C.algebra
        self.nvars = 0
        self.offset = {}
        self.by_source = {}  # (n, c) -> [(r, target vertex, offset)]
        self.by_target = {}  # (n, r) -> [(c, source vertex, offset)]
        dims = {}
        for n in sorted(set(C.terms) & set(D.terms)):
            sources = C.terms[n]
            for r, tv in enumerate(D.terms[n]):
                for c, sv in enumerate(sources):
                    dim = dims.get((sv, tv))
                    if dim is None:
                        dim = dims[(sv, tv)] = len(self.A.block(sv, tv))
                    if not dim:
                        continue
                    base = self.offset[(n, r, c)] = self.nvars
                    self.by_source.setdefault((n, c), []).append((r, tv, base))
                    self.by_target.setdefault((n, r), []).append((c, sv, base))
                    self.nvars += dim

    def constraint_rows(self):
        """Sparse rows (over variable columns) expressing commutation squares.

        Row (n, r, c, t) is coordinate t of the (r, c) entry of
        f^(n+1) d_C^n - d_D^n f^n, read in application order.  Rows come in
        the order (n, c, r, t).
        """
        A = self.A
        rows = {}  # (n, c, r) -> {t: row}
        # d_C then f^(n+1)
        for n, matrix in self.C.diffs.items():
            for (m, c), d in matrix.items():
                for r, tv, base in self.by_source.get((n + 1, m), ()):
                    block = rows.setdefault((n, c, r), {})
                    for var, coords in enumerate(A.times_basis(d, tv), base):
                        for t, coeff in coords:
                            block.setdefault(t, {})[var] = coeff
        # minus f^n then d_D
        for n, matrix in self.D.diffs.items():
            for (r, m), e in matrix.items():
                for c, sv, base in self.by_target.get((n, m), ()):
                    block = rows.setdefault((n, c, r), {})
                    for var, coords in enumerate(A.basis_times(sv, e), base):
                        for t, coeff in coords:
                            block.setdefault(t, {})[var] = -coeff
        return [
            rows[key][t] for key in sorted(rows) for t in sorted(rows[key])
        ]

    def homotopy_span(self):
        """Echelon form of the image of s -> d s + s d, the null-homotopic
        chain maps, fed one image vector per s basis vector.

        s^n[r][c] maps C^n[c] to D^(n-1)[r]; it reaches f^(n-1) through row c
        of d_C^(n-1) and f^n through column r of d_D^(n-1).
        """
        C, D, A, offset = self.C, self.D, self.A, self.offset
        span = SparseEchelon()
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

    def vectorize(self, f: ChainMap):
        vec = {}
        for n, matrix in f.comps.items():
            for (r, c), e in matrix.items():
                base = self.offset[(n, r, c)]
                for b, coeff in enumerate(e.coeffs):
                    if coeff:
                        vec[base + b] = coeff
        return vec


def _has_variables(C: ProjComplex, D: ProjComplex, shift_by: int) -> bool:
    """Whether some C^n, D^(n+shift_by) pair of summands has a nonzero block."""
    A = C.algebra
    for n, sources in C.terms.items():
        targets = set(D.term(n + shift_by))
        if targets and any(A.block(s, t) for s in set(sources) for t in targets):
            return True
    return False


def homotopy_hom(C: ProjComplex, D: ProjComplex, shift_by: int = 0) -> int:
    """Exact dimension of Hom in the homotopy category from C to D[shift_by]:
    the chain maps (variables less the rank of the commutation rows) modulo
    the null-homotopic ones."""
    if not _has_variables(C, D, shift_by):
        return 0
    solver = _HomSolver(C, D.shift(shift_by))
    constraints = SparseEchelon()
    for row in solver.constraint_rows():
        constraints.add(row)
    return solver.nvars - constraints.rank - solver.homotopy_span().rank


def is_null_homotopic(f: ChainMap) -> bool:
    solver = _HomSolver(f.source, f.target)
    vec = solver.vectorize(f)
    return not vec or solver.homotopy_span().contains(vec)


def happel_cartan(summands, C: CartanMatrix, labels=None) -> CartanMatrix:
    """Cartan matrix of the endomorphism ring of a direct sum of complexes.

    Entry (z, z') is the alternating double sum over degrees r, s of
    (-1)^(r-s) dim Hom(Q_r, Q'_s), with the module Hom dimensions read off
    the Cartan matrix of the base algebra.  As (-1)^(r-s) = (-1)^r (-1)^s,
    this is S C S^T, where row z of S counts the summands of Q_z at each
    vertex with the sign of their degree.
    """
    if labels is None:
        labels = tuple(str(i) for i in range(len(summands)))
    index = {v: k for k, v in enumerate(C.order)}
    signed = []  # sparse rows of S
    for Q in summands:
        row = {}
        for n, term in Q.terms.items():
            sign = -1 if n % 2 else 1
            for v in term:
                row[index[v]] = row.get(index[v], 0) + sign
        signed.append([(k, m) for k, m in row.items() if m])
    rows = []
    for sz in signed:
        sc = [0] * len(C.order)  # row z of S C
        for k, m in sz:
            for j, value in enumerate(C.rows[k]):
                sc[j] += m * value
        rows.append(tuple(sum(sc[j] * m for j, m in sw) for sw in signed))
    return CartanMatrix(tuple(labels), tuple(rows))
