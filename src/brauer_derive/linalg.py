"""Exact linear algebra over the rationals or a prime field.

Everything here works on sparse vectors represented as dicts mapping a
hashable column key to a nonzero field element.  Both fields support the
usual operators, so the elimination code is field agnostic.

Over Q a coefficient is a plain ``int`` until a division does not come out
even, and only then a ``fractions.Fraction``.  Every structure constant and
differential entry met so far is an integer, so most arithmetic stays on
native ints.  An int and a Fraction of equal value compare equal, hash equal
and print the same, so memo keys and output do not see the difference.
``int / int`` would make a float, so no code divides with ``/`` directly:
every division goes through ``exact_div`` (exposed as ``field.div``).

Over GF(p) a coefficient is a ``PrimeFieldElement``: a slotted value/prime
pair that is never equal to a plain int.  Its arithmetic raises
``FieldMismatch`` on an element of another characteristic and on a plain
int, which is a coefficient over Q: GF(p) never absorbs a rational
coefficient silently.  Elements of GF(p) are made with ``from_int``.
"""
from __future__ import annotations

import operator
from fractions import Fraction


def exact_div(a, b):
    """a / b without floats: two ints give an int when b divides a and a
    ``Fraction`` otherwise; any other pair divides with ``/``."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class RationalField:
    """The field of rational numbers: elements are ints, or ``Fraction``
    where a division does not come out even."""

    name = "Q"
    zero = 0
    one = 1
    div = staticmethod(exact_div)

    def from_int(self, n):
        return operator.index(n)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class FieldMismatch(Exception):
    """Arithmetic between elements of prime fields of different
    characteristic: the program mixed two algebras' fields."""


class PrimeFieldElement:
    """An element of GF(p), immutable; unequal to every plain int."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PrimeFieldElement:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def _coerce(self, other):
        """other as an element of this field.  An element of another
        characteristic or an int (a coefficient over Q) raises
        ``FieldMismatch``; any other type gives ``NotImplemented``, which the
        operators return so that Python raises ``TypeError``."""
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise FieldMismatch(f"mixed characteristic {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            raise FieldMismatch(f"rational coefficient {other} in GF({self.p}) arithmetic")
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not PrimeFieldElement or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return PrimeFieldElement((self.value + other.value) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not PrimeFieldElement or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return PrimeFieldElement((self.value - other.value) % self.p, self.p)

    def __neg__(self):
        return PrimeFieldElement(-self.value % self.p, self.p)

    def __mul__(self, other):
        if other.__class__ is not PrimeFieldElement or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return PrimeFieldElement((self.value * other.value) % self.p, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 1:
            return self
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
        self.zero = PrimeFieldElement(0, p)
        self.one = PrimeFieldElement(1, p)

    div = staticmethod(exact_div)

    def from_int(self, n):
        return PrimeFieldElement(operator.index(n) % self.p, self.p)

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

    Pivots are chosen as the largest column key; rows are stored normalized
    so the pivot coefficient is one.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Return vec reduced against all stored pivot rows (a fresh dict)."""
        vec = dict(vec)
        while vec:
            lead = max(vec)
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
        lead = max(red)
        coeff = red[lead]
        if coeff != 1:
            red = {k: exact_div(v, coeff) for k, v in red.items()}
        self.pivots[lead] = red
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def det_int(rows):
    """Determinant of a square integer matrix, exact.

    Fraction-free Bareiss elimination (Bareiss 1968): after step k every
    entry below and right of the pivot is a (k+1)-minor of the input, so each
    division is exact and all arithmetic stays on native ints.  Rows are
    sparse dicts {column: nonzero entry}.  Step k sends a row i > k to
    (pivot * row_i - row_i[k] * row_k) / prev, prev being the previous pivot
    (1 at the first step); a row with no entry in column k becomes
    pivot * row_i / prev, so when pivot == prev it is left as it is.  The
    Cartan matrix of a loop-star is diagonal after the first step, so most
    of its rows take that case.
    """
    m = [{j: v for j, v in enumerate(map(operator.index, row)) if v} for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if k not in m[k]:
            pr = next((i for i in range(k + 1, n) if k in m[i]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        rest = [(j, v) for j, v in row_k.items() if j != k]
        for i in range(k + 1, n):
            row_i = m[i]
            f = row_i.pop(k, 0)
            if not f and pivot == prev:
                continue
            new = {j: pivot * v for j, v in row_i.items()}
            for j, v in rest:
                new[j] = new.get(j, 0) - f * v
            m[i] = {j: v // prev for j, v in new.items() if v}
        prev = pivot
    return sign * m[-1].get(n - 1, 0) if n else 1
