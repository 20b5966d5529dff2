"""Exact linear algebra over the rationals or a prime field.

Everything here works on sparse vectors represented as dicts mapping a
hashable column key to a nonzero field element.  Coefficients are either
``fractions.Fraction`` (the default field) or ``PrimeFieldElement``; both
support the usual operators, so the elimination code is field agnostic.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class RationalField:
    """The field of rational numbers, elements are ``Fraction``."""

    name = "Q"

    def from_int(self, n):
        return Fraction(n)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class FieldMismatch(Exception):
    """Arithmetic between elements of prime fields of different
    characteristic: the program mixed two algebras' fields."""


@dataclass(frozen=True)
class PrimeFieldElement:
    value: int
    p: int

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatch(f"mixed characteristic {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other % self.p, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return PrimeFieldElement((self.value + other.value) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return PrimeFieldElement((self.value - other.value) % self.p, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value % self.p, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return PrimeFieldElement((self.value * other.value) % self.p, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        inv = pow(other.value, -1, self.p)
        return PrimeFieldElement((self.value * inv) % self.p, self.p)

    def __bool__(self):
        return self.value % self.p != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


# Miller-Rabin with the prime bases up to 41 decides primality exactly below
# this bound (Sorenson and Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    def __init__(self, p):
        if p >= _MR_BOUND:
            raise ValueError(f"{p} is too large: primality is exact only below {_MR_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def from_int(self, n):
        return PrimeFieldElement(operator.index(n) % self.p, self.p)

    @property
    def zero(self):
        return PrimeFieldElement(0, self.p)

    @property
    def one(self):
        return PrimeFieldElement(1, self.p)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def parse_field(spec):
    """Turn a CLI-style field spec ('q', 'rationals', or a prime) into a field."""
    if spec is None:
        return QQ
    text = str(spec).strip().lower()
    if text in ("q", "qq", "rationals", "rational", "0"):
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise ValueError(f"unknown field {spec!r}") from None
    return PrimeField(p)


def vec_add_scaled(target, source, scale):
    """target += scale * source, in place, dropping zeros."""
    for key, val in source.items():
        new = target.get(key)
        new = scale * val if new is None else new + scale * val
        if new:
            target[key] = new
        elif key in target:
            del target[key]


class SparseEchelon:
    """Incremental row echelon form for sparse vectors.

    Pivots are chosen as the largest column key under ``sort_key``; rows are
    stored normalized so the pivot coefficient is one.
    """

    def __init__(self, sort_key=None):
        self.pivots = {}
        self.sort_key = sort_key or (lambda k: k)

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Return vec reduced against all stored pivot rows (a fresh dict)."""
        vec = dict(vec)
        while vec:
            lead = max(vec, key=self.sort_key)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            vec_add_scaled(vec, row, -vec[lead])
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = max(red, key=self.sort_key)
        coeff = red[lead]
        self.pivots[lead] = {k: v / coeff for k, v in red.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def nullspace(rows, nvars, field=QQ):
    """Basis of the right nullspace of the matrix given by sparse rows.

    Columns are the integers 0..nvars-1; returns a list of dense-as-dict
    solution vectors.
    """
    ech = SparseEchelon()
    for row in rows:
        ech.add(row)
    pivot_cols = set(ech.pivots)
    basis = []
    # Solve for each free column by back substitution against the
    # reduced pivot rows.
    reduced = _back_substitute(ech)
    for col in range(nvars):
        if col in pivot_cols:
            continue
        sol = {col: field.one}
        for pcol, row in reduced.items():
            val = row.get(col)
            if val:
                sol[pcol] = -val
        basis.append(sol)
    return basis


def _back_substitute(ech):
    """Fully reduce the echelon rows against each other (RREF)."""
    reduced = {}
    for pcol in sorted(ech.pivots, key=ech.sort_key):
        row = dict(ech.pivots[pcol])
        for key in [k for k in row if k != pcol]:
            sub = reduced.get(key)
            if sub is not None:
                vec_add_scaled(row, sub, -row[key])
        reduced[pcol] = row
    return reduced


def det_int(rows):
    """Determinant of a square integer matrix, exact.

    Fraction-free Bareiss elimination (Bareiss 1968): after step k every
    entry below and right of the pivot is a (k+1)-minor of the input, so each
    division is exact and all arithmetic stays on native ints.
    """
    m = [[operator.index(v) for v in row] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i[k]
            m[i] = [0] * (k + 1) + [
                (pivot * row_i[j] - f * row_k[j]) // prev for j in range(k + 1, n)
            ]
        prev = pivot
    return sign * m[-1][-1] if n else 1
