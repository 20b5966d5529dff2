"""Bounded complexes of projectives and homotopy-category computations.

Complexes are cohomological (differentials raise degree).  A homomorphism
P(i) -> P(j) is an element of the block e_i A e_j acting by right
multiplication, so composing maps concatenates the underlying paths in
application order.  Differential and chain-map matrices are stored with one
row per summand of the higher (respectively target) term and one column per
summand of the lower (source) term; entry [r][c] lives in the block from the
column vertex to the row vertex.

Homotopy Hom spaces are computed by two exact rank computations over the
algebra's field: the solution space of the chain-map conditions and the
image of the homotopy map s -> ds + sd inside it, both on the whole of the
two complexes.  The solver builds these systems from the nonzero
differential entries only, walking each differential once per degree, and
reads every product of an entry with a basis element from the algebra's
product table (memoized on the algebra).  A shift at which no summand of
C^n has a nonzero block to a summand of D^(n+r) has no variables, so
``homotopy_hom`` returns 0 there before shifting D or building a solver.
``minimize`` strips contractible two-term pieces by Gaussian elimination on
differential entries that are units of the local endomorphism rings.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .algebra import AlgebraElement, CartanMatrix, QuotientAlgebra
from .linalg import SparseEchelon, nullspace, solve_dense


class NotAComplex(Exception):
    """d following d is nonzero; the message names the degree and entry."""


class ChainMapFailure(Exception):
    """An internal chain-map computation failed: a component in the wrong
    block, a square that does not commute, maps that do not compose, or a
    local-ring unit without an inverse.  These come from the program's own
    constructions, never from the input."""


@dataclass(frozen=True)
class ProjSummand:
    vertex: str
    multiplicity: int = 1


@dataclass(frozen=True)
class HomotopyHom:
    dimension: int
    _reps: tuple

    @property
    def basis(self):
        return self._reps


class ProjComplex:
    """Bounded complex of direct sums of indecomposable projectives."""

    def __init__(self, algebra, terms, diffs):
        self.algebra = algebra
        self.terms = {n: tuple(t) for n, t in sorted(terms.items()) if t}
        self.diffs = {}
        for n in sorted(diffs):
            matrix = diffs[n]
            if n not in self.terms or (n + 1) not in self.terms or matrix is None:
                continue
            if any(e is not None and not e.is_zero() for row in matrix for e in row):
                self.diffs[n] = tuple(tuple(row) for row in matrix)

    @staticmethod
    def stalk(algebra, vertex, degree=0):
        return ProjComplex(algebra, {degree: (vertex,)}, {})

    def degrees(self):
        return sorted(self.terms)

    def term(self, n):
        return self.terms.get(n, ())

    def diff(self, n):
        return self.diffs.get(n)

    def entry(self, n, r, c):
        matrix = self.diffs.get(n)
        if matrix is None:
            return None
        return matrix[r][c]

    @property
    def width(self):
        degs = self.degrees()
        return degs[-1] - degs[0] if degs else 0

    def is_zero(self):
        return not self.terms

    def summands(self, n):
        out = []
        for v in self.term(n):
            if out and out[-1].vertex == v:
                out[-1] = ProjSummand(v, out[-1].multiplicity + 1)
            else:
                out.append(ProjSummand(v))
        return tuple(out)

    def total_summands(self):
        return sum(len(t) for t in self.terms.values())

    def shift(self, k):
        """C[k] with (C[k])^n = C^(n+k) and differential scaled by (-1)^k."""
        terms = {n - k: t for n, t in self.terms.items()}
        sign = self.algebra.field.from_int(-1 if k % 2 else 1)
        diffs = {}
        for n, matrix in self.diffs.items():
            diffs[n - k] = tuple(
                tuple(e.scale(sign) if e is not None else None for e in row)
                for row in matrix
            )
        return ProjComplex(self.algebra, terms, diffs)

    def __eq__(self, other):
        if not isinstance(other, ProjComplex) or other.algebra is not self.algebra:
            return False
        if self.terms != other.terms:
            return False
        if set(self.diffs) != set(other.diffs):
            return False
        for n in self.diffs:
            a, b = self.diffs[n], other.diffs[n]
            for ra, rb in zip(a, b):
                for ea, eb in zip(ra, rb):
                    ea_zero = ea is None or ea.is_zero()
                    eb_zero = eb is None or eb.is_zero()
                    if ea_zero != eb_zero or (not ea_zero and ea != eb):
                        return False
        return True

    def dump(self):
        lines = []
        for n in self.degrees():
            parts = [
                f"P({s.vertex})" + (f"^{s.multiplicity}" if s.multiplicity > 1 else "")
                for s in self.summands(n)
            ]
            lines.append(f"deg {n}: " + " ⊕ ".join(parts))
            matrix = self.diffs.get(n)
            if matrix is not None:
                printed = [[str(e) if e is not None else "0" for e in row] for row in matrix]
                lines.append(f"d{n}: [" + "; ".join(", ".join(row) for row in printed) + "]")
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"ProjComplex<{self.dump()}>"


def direct_sum(complexes):
    """Direct sum; summands keep their order of appearance per degree."""
    if not complexes:
        raise ValueError("empty direct sum")
    algebra = complexes[0].algebra
    terms = {}
    offsets = []
    for C in complexes:
        offs = {}
        for n, t in sorted(C.terms.items()):
            offs[n] = len(terms.get(n, ()))
            terms[n] = terms.get(n, ()) + t
        offsets.append(offs)
    diffs = {}
    for n in list(terms):
        if n + 1 not in terms:
            continue
        rows = len(terms[n + 1])
        cols = len(terms[n])
        matrix = [[None] * cols for _ in range(rows)]
        for C, offs in zip(complexes, offsets):
            sub = C.diff(n)
            if sub is None:
                continue
            ro, co = offs[n + 1], offs[n]
            for r, row in enumerate(sub):
                for c, e in enumerate(row):
                    matrix[ro + r][co + c] = e
        if any(any(e is not None for e in row) for row in matrix):
            diffs[n] = matrix
    return ProjComplex(algebra, terms, diffs)


def check_complex(C: ProjComplex) -> bool:
    A = C.algebra
    for n, matrix in C.diffs.items():
        lower, upper = C.term(n), C.term(n + 1)
        for r, row in enumerate(matrix):
            for c, e in enumerate(row):
                if e is None:
                    continue
                if e.algebra is not A or e.source != lower[c] or e.target != upper[r]:
                    raise NotAComplex(
                        f"entry ({r},{c}) of d{n} lies in the wrong block"
                    )
    for n in C.diffs:
        if n + 1 not in C.diffs:
            continue
        d0, d1 = C.diffs[n], C.diffs[n + 1]
        for r in range(len(C.term(n + 2))):
            for c in range(len(C.term(n))):
                acc = None
                for m in range(len(C.term(n + 1))):
                    a, b = d0[m][c], d1[r][m]
                    if a is None or b is None:
                        continue
                    prod = a * b
                    acc = prod if acc is None else acc + prod
                if acc is not None and not acc.is_zero():
                    raise NotAComplex(f"d² != 0 at degree {n}, entry ({r},{c})")
    return True


class ChainMap:
    """Degreewise map between complexes commuting with the differentials."""

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = {}
        for n, matrix in comps.items():
            if source.term(n) and target.term(n) and matrix is not None:
                self.comps[n] = tuple(tuple(row) for row in matrix)
        if check:
            self.check()

    def comp(self, n, r, c):
        matrix = self.comps.get(n)
        return None if matrix is None else matrix[r][c]

    def check(self):
        C, D = self.source, self.target
        for n, matrix in self.comps.items():
            for r, row in enumerate(matrix):
                for c, e in enumerate(row):
                    if e is not None and (
                        e.source != C.term(n)[c] or e.target != D.term(n)[r]
                    ):
                        raise ChainMapFailure(f"component ({r},{c}) at degree {n} in wrong block")
        degs = set()
        for n in list(C.diffs) + list(self.comps):
            degs.add(n)
        for n in degs:
            for c in range(len(C.term(n))):
                for r in range(len(D.term(n + 1))):
                    acc = None
                    for m in range(len(C.term(n + 1))):
                        a = C.entry(n, m, c)
                        b = self.comp(n + 1, r, m)
                        if a is None or b is None:
                            continue
                        p = a * b
                        acc = p if acc is None else acc + p
                    for m in range(len(D.term(n))):
                        a = self.comp(n, m, c)
                        b = D.entry(n, r, m)
                        if a is None or b is None:
                            continue
                        p = (a * b).scale(self.source.algebra.field.from_int(-1))
                        acc = p if acc is None else acc + p
                    if acc is not None and not acc.is_zero():
                        raise ChainMapFailure(f"square at degree {n} does not commute")
        return True

    def compose(self, other):
        """self followed by other (other.source == self.target)."""
        if other.source is not self.target and other.source != self.target:
            raise ChainMapFailure("chain maps do not compose")
        comps = {}
        C, E = self.source, other.target
        for n in self.comps:
            if n not in other.comps:
                continue
            rows, cols = len(E.term(n)), len(C.term(n))
            matrix = [[None] * cols for _ in range(rows)]
            for r in range(rows):
                for c in range(cols):
                    acc = None
                    for m in range(len(self.target.term(n))):
                        a = self.comp(n, m, c)
                        b = other.comp(n, r, m)
                        if a is None or b is None:
                            continue
                        p = a * b
                        acc = p if acc is None else acc + p
                    if acc is not None and not acc.is_zero():
                        matrix[r][c] = acc
            comps[n] = matrix
        return ChainMap(C, E, comps, check=False)

    def _combine(self, other, sign):
        if other.source != self.source or other.target != self.target:
            raise ChainMapFailure("chain maps between different complexes")
        comps = {}
        for n in set(self.comps) | set(other.comps):
            rows = len(self.target.term(n))
            cols = len(self.source.term(n))
            matrix = [[None] * cols for _ in range(rows)]
            for r in range(rows):
                for c in range(cols):
                    a, b = self.comp(n, r, c), other.comp(n, r, c)
                    if b is not None:
                        b = b.scale(self.source.algebra.field.from_int(sign))
                    if a is None:
                        val = b
                    elif b is None:
                        val = a
                    else:
                        val = a + b
                    if val is not None and not val.is_zero():
                        matrix[r][c] = val
            comps[n] = matrix
        return ChainMap(self.source, self.target, comps, check=False)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        comps = {
            n: [[e.scale(c) if e is not None else None for e in row] for row in m]
            for n, m in self.comps.items()
        }
        return ChainMap(self.source, self.target, comps, check=False)

    def is_zero(self):
        return all(
            e is None or e.is_zero() for m in self.comps.values() for row in m for e in row
        )

    @staticmethod
    def identity(C):
        comps = {}
        for n, t in C.terms.items():
            matrix = [[None] * len(t) for _ in t]
            for i, v in enumerate(t):
                matrix[i][i] = C.algebra.e(v)
            comps[n] = matrix
        return ChainMap(C, C, comps, check=False)


def hom_block(A: QuotientAlgebra, i, j):
    """Basis of Hom(P(i), P(j)) as elements of the block e_i A e_j."""
    return A.block_basis(i, j)


def shift(C: ProjComplex, k: int) -> ProjComplex:
    return C.shift(k)


def mapping_cone(f: ChainMap) -> ProjComplex:
    """Standard cone: degree n is source^(n+1) + target^n."""
    C, D = f.source, f.target
    A = C.algebra
    minus = A.field.from_int(-1)
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
        if n + 1 not in terms:
            continue
        rows, cols = len(terms[n + 1]), len(terms[n])
        matrix = [[None] * cols for _ in range(rows)]
        c_lower, c_upper = len(C.term(n + 1)), len(C.term(n + 2))
        for r in range(len(C.term(n + 2))):
            for c in range(c_lower):
                e = C.entry(n + 1, r, c)
                if e is not None:
                    matrix[r][c] = e.scale(minus)
        for r in range(len(D.term(n + 1))):
            for c in range(c_lower):
                e = f.comp(n + 1, r, c)
                if e is not None:
                    matrix[c_upper + r][c] = e
            for c in range(len(D.term(n))):
                e = D.entry(n, r, c)
                if e is not None:
                    matrix[c_upper + r][c_lower + c] = e
        diffs[n] = matrix
    return ProjComplex(A, terms, diffs)


def _local_inverse(u: AlgebraElement):
    """Inverse of a unit of the local ring e_i A e_i."""
    A = u.algebra
    i = u.source
    basis = A.block_basis(i, i)
    n = len(basis)
    matrix = [[(b * u).coeffs[r] for b in basis] for r in range(n)]
    rhs = A.e(i).coeffs
    sol = solve_dense(matrix, list(rhs), A.field)
    if sol is None:
        raise ChainMapFailure("entry is not a unit")
    out = A.zero(i, i)
    for b, c in zip(basis, sol):
        out = out + b.scale(c)
    return out


def minimize(C: ProjComplex) -> ProjComplex:
    """Homotopy-equivalent complex with all differential entries radical.

    Repeatedly cancels a differential entry P(i) -> P(i) whose trivial-path
    coefficient is nonzero (a unit of the local ring), applying the standard
    elimination update to the rest of the matrix.
    """
    terms = {n: list(t) for n, t in C.terms.items()}
    diffs = {n: [list(row) for row in m] for n, m in C.diffs.items()}

    def find_unit():
        for n in sorted(diffs):
            matrix = diffs[n]
            for r, row in enumerate(matrix):
                for c, e in enumerate(row):
                    if e is not None and e.source == e.target and e.scalar_part():
                        return n, r, c
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        n, r, c = hit
        matrix = diffs[n]
        u = matrix[r][c]
        uinv = _local_inverse(u)
        rows = len(terms.get(n + 1, []))
        cols = len(terms.get(n, []))
        for r2 in range(rows):
            if r2 == r:
                continue
            for c2 in range(cols):
                if c2 == c:
                    continue
                down, across = matrix[r][c2], matrix[r2][c]
                if down is None or across is None:
                    continue
                corr = (down * uinv * across).scale(C.algebra.field.from_int(-1))
                cur = matrix[r2][c2]
                val = corr if cur is None else cur + corr
                matrix[r2][c2] = None if val.is_zero() else val
        # Delete the cancelled pair everywhere.
        del terms[n][c]
        del terms[n + 1][r]
        diffs[n] = [
            [e for c2, e in enumerate(row) if c2 != c]
            for r2, row in enumerate(matrix)
            if r2 != r
        ]
        if n - 1 in diffs:
            diffs[n - 1] = [row for r2, row in enumerate(diffs[n - 1]) if r2 != c]
        if n + 1 in diffs:
            diffs[n + 1] = [
                [e for c2, e in enumerate(row) if c2 != r] for row in diffs[n + 1]
            ]
        for k in (n - 1, n, n + 1):
            if k in diffs and (
                not diffs[k] or not any(diffs[k]) or not terms.get(k) or not terms.get(k + 1)
            ):
                del diffs[k]
        for k in (n, n + 1):
            if k in terms and not terms[k]:
                del terms[k]
    return ProjComplex(C.algebra, {n: tuple(t) for n, t in terms.items()}, diffs)


def is_stalk(C: ProjComplex):
    """(vertex, degree) when C is a one-summand complex with zero differential."""
    degs = [n for n in C.terms if C.term(n)]
    if len(degs) != 1 or len(C.term(degs[0])) != 1:
        return None
    if any(
        e is not None and not e.is_zero() for m in C.diffs.values() for row in m for e in row
    ):
        return None
    return C.term(degs[0])[0], degs[0]


def _nonzero_entries(matrix):
    """(row, column, entry) for every nonzero entry of a stored matrix."""
    if matrix is None:
        return []
    return [
        (r, c, e)
        for r, row in enumerate(matrix)
        for c, e in enumerate(row)
        if e is not None and not e.is_zero()
    ]


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
        self.field = self.A.field
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
            for m, c, d in _nonzero_entries(matrix):
                for r, tv, base in self.by_source.get((n + 1, m), ()):
                    block = rows.setdefault((n, c, r), {})
                    for var, coords in enumerate(A.times_basis(d, tv), base):
                        for t, coeff in coords:
                            block.setdefault(t, {})[var] = coeff
        # minus f^n then d_D
        for n, matrix in self.D.diffs.items():
            for r, m, e in _nonzero_entries(matrix):
                for c, sv, base in self.by_target.get((n, m), ()):
                    block = rows.setdefault((n, c, r), {})
                    for var, coords in enumerate(A.basis_times(sv, e), base):
                        for t, coeff in coords:
                            block.setdefault(t, {})[var] = -coeff
        return [
            rows[key][t] for key in sorted(rows) for t in sorted(rows[key])
        ]

    def homotopy_columns(self):
        """Image vectors of the map s -> d s + s d, one per s basis vector.

        s^n[r][c] maps C^n[c] to D^(n-1)[r]; it reaches f^(n-1) through row c
        of d_C^(n-1) and f^n through column r of d_D^(n-1).
        """
        C, D, A, offset = self.C, self.D, self.A, self.offset
        cols = []
        for n in sorted(C.terms):
            if n - 1 not in D.terms:
                continue
            below = {}  # c -> [(c2, d_C^(n-1)[c][c2])]
            for c, c2, d in _nonzero_entries(C.diffs.get(n - 1)):
                below.setdefault(c, []).append((c2, d))
            above = {}  # r -> [(r2, d_D^(n-1)[r2][r])]
            for r2, r, e in _nonzero_entries(D.diffs.get(n - 1)):
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
                    cols.extend(col for col in block if col)
        return cols

    def vectorize(self, f: ChainMap):
        vec = {}
        for n, matrix in f.comps.items():
            for r, c, e in _nonzero_entries(matrix):
                base = self.offset[(n, r, c)]
                for b, coeff in enumerate(e.coeffs):
                    if coeff:
                        vec[base + b] = coeff
        return vec

    def chain_map_from_vector(self, vec):
        keys, bases = list(self.offset), list(self.offset.values())
        comps = {}
        for var, coeff in vec.items():
            k = bisect_right(bases, var) - 1
            n, r, c = keys[k]
            matrix = comps.setdefault(
                n,
                [
                    [None] * len(self.C.term(n))
                    for _ in range(len(self.D.term(n)))
                ],
            )
            sv, tv = self.C.term(n)[c], self.D.term(n)[r]
            add = self.A.block_basis(sv, tv)[var - bases[k]].scale(coeff)
            matrix[r][c] = add if matrix[r][c] is None else matrix[r][c] + add
        return ChainMap(self.C, self.D, comps, check=False)


def _has_variables(C: ProjComplex, D: ProjComplex, shift_by: int) -> bool:
    """Whether some C^n, D^(n+shift_by) pair of summands has a nonzero block."""
    A = C.algebra
    for n, sources in C.terms.items():
        targets = set(D.term(n + shift_by))
        if targets and any(A.block(s, t) for s in set(sources) for t in targets):
            return True
    return False


def homotopy_hom(C: ProjComplex, D: ProjComplex, shift_by: int = 0, with_basis=False) -> HomotopyHom:
    """Hom in the homotopy category from C to D[shift_by]; exact dimension."""
    if not _has_variables(C, D, shift_by):
        return HomotopyHom(0, ())
    solver = _HomSolver(C, D.shift(shift_by))
    nvars = solver.nvars
    constraints = solver.constraint_rows()
    hcols = solver.homotopy_columns()
    hech = SparseEchelon()
    hrank = 0
    for col in hcols:
        if hech.add(col):
            hrank += 1
    if not with_basis:
        crank = 0
        cech = SparseEchelon()
        for row in constraints:
            if cech.add(row):
                crank += 1
        return HomotopyHom(nvars - crank - hrank, ())
    kernel = nullspace(constraints, nvars, solver.field)
    reps = []
    ech = SparseEchelon()
    for col in hcols:
        ech.add(col)
    for vec in kernel:
        if ech.add(vec):
            reps.append(solver.chain_map_from_vector(vec))
    return HomotopyHom(len(reps), tuple(reps))


def is_null_homotopic(f: ChainMap) -> bool:
    solver = _HomSolver(f.source, f.target)
    vec = solver.vectorize(f)
    if not vec:
        return True
    ech = SparseEchelon()
    for col in solver.homotopy_columns():
        ech.add(col)
    return ech.contains(vec)


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
