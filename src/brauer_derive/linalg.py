"""Exact linear algebra over the rationals or a prime field.

Vectors are sparse dicts mapping a hashable column key to a field element,
except over GF(2), where ``BitEchelon`` takes them as ints.  Both fields
support the usual operators, so the sparse elimination is field agnostic.

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
Elements are interned, one object per residue met, so an operator makes
no object and a memo key hashes each coefficient through a stored hash.
``SparseEchelon`` serves Q and the odd primes.  It tests a pivot against
the field's own ``one``: an element of GF(p) never equals the int 1, so a
test against 1 would divide every stored row over GF(p) through, entry by
entry, for nothing, and it takes a vector's explicit zero coefficients as
absent.  Over GF(2) every nonzero coefficient is 1, so ``BitEchelon``
takes each vector as the bits of one int, laid out so by its caller, and
reduces it by a row with one XOR.  ``echelon_for`` picks the echelon of a
field, an echelon's ``bits`` says which of the two kinds of vector it
takes, and ``mod_2`` reads an int or an element of GF(2) as a bit.
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
    """An element of GF(p), immutable and interned; unequal to every plain int.

    ``PrimeFieldElement(v, p)`` and every operator return the one element of
    v mod p from the residue table of GF(p) that each element references.
    The hash, ``hash((v, p))``, is computed once.  Equality is by value.
    """

    __slots__ = ("value", "p", "_residues", "_hash")

    def __new__(cls, value, p):
        residues = _RESIDUES.get(p)
        if residues is None:
            residues = _RESIDUES[p] = _Residues(p)
        return residues[value % p]

    def __reduce__(self):
        return PrimeFieldElement, (self.value, self.p)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not PrimeFieldElement:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return self._hash

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
        return self._residues[(self.value + other.value) % self.p]

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not PrimeFieldElement or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._residues[(self.value - other.value) % self.p]

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        return self._residues[-self.value % self.p]

    def __mul__(self, other):
        if other.__class__ is not PrimeFieldElement or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._residues[(self.value * other.value) % self.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 1:
            return self
        return self._residues[(self.value * pow(other.value, -1, self.p)) % self.p]

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other / self

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


class _Residues(dict):
    """{v: the element v of GF(p)}, each made on first use, so the table
    holds only the residues a run produces."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __missing__(self, value):
        x = self[value] = object.__new__(PrimeFieldElement)
        for name, v in zip(x.__slots__, (value, self.p, self, hash((value, self.p)))):
            object.__setattr__(x, name, v)
        return x


# p -> the residue table of GF(p).  Tables only ever gain the element of a
# residue, a deterministic value, so every caller in the process shares them.
_RESIDUES = {}


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
        return PrimeFieldElement(operator.index(n), self.p)

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
    so the pivot coefficient is ``one``, the field's unit.  A row with the
    field's own -1 as pivot is negated instead of divided entry by entry.
    """

    bits = False  # the vectors it takes are dicts

    def __init__(self, one):
        self.one = one
        self.minus_one = -one
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Return vec reduced against all stored pivot rows (a fresh dict)."""
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = max(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            vec_add_scaled(vec, row, -vec[lead])
        return vec

    def add(self, vec):
        """Insert a vector; returns True if it enlarged the span.  The vector
        is copied only to be reduced in place or stored: no dict of the caller
        is kept."""
        red = vec if all(vec.values()) else {k: v for k, v in vec.items() if v}
        while red:
            lead = max(red)
            row = self.pivots.get(lead)
            if row is None:
                break
            red = dict(red) if red is vec else red
            vec_add_scaled(red, row, -red[lead])
        else:
            return False
        coeff = red[lead]
        if coeff != self.one:
            # a Fraction equal to -1 would make an int entry a Fraction: divide
            if type(coeff) is type(self.minus_one) and coeff == self.minus_one:
                red = {k: -v for k, v in red.items()}
            else:
                red = {k: exact_div(v, coeff) for k, v in red.items()}
        elif red is vec:
            red = dict(vec)
        self.pivots[lead] = red
        return True

    def contains(self, vec):
        return not self.reduce(vec)

    def extend(self, vecs):
        for vec in vecs:
            self.add(vec)


class NotIntegral(Exception):
    """An entry read mod 2 by ``mod_2`` is neither an int nor an element of
    GF(2).  The mod-2 screen catches it; one that escaped would be an
    engine fault."""


def mod_2(x):
    """The image of x in GF(2), as 0 or 1: an int's parity, or an element
    of GF(2)'s value.  Raises ``NotIntegral`` on anything else,
    ``Fraction`` and the elements of odd prime fields included."""
    if type(x) is int:
        return x & 1
    if type(x) is PrimeFieldElement and x.p == 2:
        return x.value
    raise NotIntegral(f"{x!r} is not an int or an element of GF(2)")


class BitEchelon:
    """Incremental row echelon form over GF(2), each row the bits of one int.

    ``extend`` and ``contains`` take vectors as ints, bit k the coefficient
    of column k.  A row's pivot is its highest set bit, the largest column
    key, which is ``SparseEchelon``'s rule, so over GF(2) both keep rows
    with the same pivots and reach the same rank.  Reducing by a row is one
    XOR.
    """

    bits = True  # the vectors it takes are ints

    def __init__(self):
        self.pivots = {}  # highest bit -> row

    @property
    def rank(self):
        return len(self.pivots)

    def extend(self, vecs):
        """Insert each vector.  The reduction is written out here and in
        ``contains``, not called: the rows of a Hom system hold two entries
        on average, so a call per row shows."""
        pivots = self.pivots
        for bits in vecs:
            while bits:
                lead = bits.bit_length() - 1
                row = pivots.get(lead)
                if row is None:
                    pivots[lead] = bits
                    break
                bits ^= row

    def contains(self, bits):
        pivots = self.pivots
        while bits:
            row = pivots.get(bits.bit_length() - 1)
            if row is None:
                return False
            bits ^= row
        return True


def echelon_for(field):
    """An empty echelon form for vectors over field: ``BitEchelon`` over
    GF(2), ``SparseEchelon`` otherwise."""
    return BitEchelon() if getattr(field, "p", None) == 2 else SparseEchelon(field.one)


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
