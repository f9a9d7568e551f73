"""Exact scalar arithmetic and the linear-algebra kernel.

Over the rationals a scalar is an ``int`` when its value is an integer and
a ``fractions.Fraction`` otherwise; over a prime field it is a plain
residue ``int`` in ``[0, p)``.  Most structure constants, constraint rows
and derivation vectors are 0 or +-1, and ``int`` arithmetic is several
times cheaper than ``Fraction``'s.  Vectors and matrix rows are
sparse: a dict index -> nonzero scalar, with no zero stored.  Row
reduction, kernels, spans, quotient sections and solves take and return
that form, and so do structure constants: a table entry is such a vector,
and ``contract`` multiplies sparse vectors through the table, visiting
only nonzero entries.  Everything downstream (quotient algebras,
derivation solves, structure constants) runs through the one row
reduction in this module, so all arithmetic here is exact by
construction.  Dense lists are made only by ``dense``, for the public
methods that return coordinate lists.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QuotientUndefined
from .value import Value


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); larger characteristics are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961980


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n <= MAX_CHARACTERISTIC."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
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


class Field(Value, fields=("characteristic",)):
    """Descriptor of the ground field: the rationals or a prime field F_p.

    characteristic 0 means the rationals; otherwise it must be a prime.
    Characteristic 2 is constructible, but the Delta-map layer refuses it.
    """

    # class attributes, not fields: the same in every field
    zero = 0
    one = 1

    def __init__(self, characteristic: int = 0):
        if characteristic > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {characteristic} is too large: "
                             f"primality is certified only up to {MAX_CHARACTERISTIC}")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.characteristic = characteristic

    @classmethod
    def parse(cls, text: str) -> "Field":
        if not isinstance(text, str):
            raise ValueError(f"field descriptor must be a string, got {text!r}")
        text = text.strip()
        if text in ("Q", "QQ", "rationals", "0"):
            return cls(0)
        if text.startswith("fp:"):
            return cls(int(text[3:]))
        raise ValueError(f"unknown field descriptor {text!r} (expected 'Q' or 'fp:p')")

    def describe(self) -> str:
        return "Q" if self.characteristic == 0 else f"fp:{self.characteristic}"

    # -- scalar arithmetic ------------------------------------------------

    def of(self, value) -> "Scalar":
        """Coerce an int or Fraction into a field scalar."""
        if self.characteristic == 0:
            return _integral(Fraction(value))
        p = self.characteristic
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, p - 2, p) % p
        return value % p

    def add(self, a, b):
        return _integral(a + b) if self.characteristic == 0 else (a + b) % self.characteristic

    def sub(self, a, b):
        return _integral(a - b) if self.characteristic == 0 else (a - b) % self.characteristic

    def mul(self, a, b):
        return _integral(a * b) if self.characteristic == 0 else (a * b) % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            return a if a == 1 or a == -1 else _integral(Fraction(1, a))
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)


Scalar = object  # over Q an int when integral, else a Fraction; over F_p an int residue


def _integral(x):
    """x as an int when it is a Fraction with denominator 1, else x."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


# -- dense coordinate lists, for the public methods that return them --------


def zero_vector(field: Field, n: int) -> list:
    return [field.zero] * n


def sparse(v: list) -> dict:
    """The nonzero entries of a dense vector, as a dict index -> scalar."""
    return {i: a for i, a in enumerate(v) if a != 0}


def dense(field: Field, n: int, v: dict) -> list:
    """The dense vector of length n with the entries of a sparse one."""
    out = zero_vector(field, n)
    for i, a in v.items():
        out[i] = a
    return out


# -- sparse rows -----------------------------------------------------------


def add_multiple(field: Field, row: dict, c, v: dict) -> None:
    """row += c * v on sparse vectors, dropping the entries that vanish.

    The hot loop of every elimination and contraction: the field is read
    once per call and each entry is computed inline, as Field.add and
    Field.mul would compute it.
    """
    p = field.characteristic
    get = row.get
    if p:
        for col, a in v.items():
            val = (get(col, 0) + c * a) % p
            if val:
                row[col] = val
            else:
                row.pop(col, None)
        return
    for col, a in v.items():
        val = get(col, 0) + c * a
        if type(val) is Fraction and val.denominator == 1:
            val = val.numerator
        if val:
            row[col] = val
        else:
            row.pop(col, None)


def _echelon(field: Field, rows) -> dict[int, dict]:
    """Forward elimination of sparse rows.

    Returns pivot column -> row with a unit pivot and no entry left of it.
    The input rows are not modified.
    """
    ech: dict[int, dict] = {}
    for row in rows:
        row = {c: a for c, a in row.items() if a != 0}
        while row:
            lead = min(row)
            piv = ech.get(lead)
            if piv is None:
                inv = field.inv(row[lead])
                ech[lead] = {c: field.mul(inv, a) for c, a in row.items()}
                break
            add_multiple(field, row, field.neg(row[lead]), piv)
    return ech


def sparse_rank(field: Field, rows) -> int:
    """Rank of a stream of sparse rows."""
    return len(_echelon(field, rows))


def rref(field: Field, rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows; returns (nonzero rows, pivot
    columns).

    Forward elimination, then back-substitution from the last pivot up.
    The reduced form is unique, so the result does not depend on the order
    in which rows are eliminated.
    """
    ech = _echelon(field, rows)
    pivots = sorted(ech)
    for pc in reversed(pivots):
        row = ech[pc]
        # rows below are reduced, so clearing one pivot column leaves the others
        for q in [c for c in row if c != pc and c in ech]:
            add_multiple(field, row, field.neg(row[q]), ech[q])
    return [ech[pc] for pc in pivots], pivots


def kernel_basis(field: Field, rows: list[dict], ncols: int) -> list[dict]:
    """Basis of {v in k^ncols : row . v = 0 for every row}, one vector per
    free column, in column order."""
    ech, pivots = rref(field, rows)
    pivset = set(pivots)
    basis = {c: {c: field.one} for c in range(ncols) if c not in pivset}
    for row, pc in zip(ech, pivots):
        # a reduced row has no entry in another pivot column
        for c, a in row.items():
            if c != pc:
                basis[c][pc] = field.neg(a)
    return list(basis.values())


def solve(field: Field, rows: list[dict], b: dict) -> dict | None:
    """One solution x of rows . x = b, or None if inconsistent.

    b maps row positions to their right-hand sides; free unknowns are 0.
    """
    aug = 1 + max((c for row in rows for c in row), default=-1)
    ech, pivots = rref(field, [{**row, aug: b[r]} if r in b else row
                               for r, row in enumerate(rows)])
    if pivots and pivots[-1] == aug:
        return None
    return {pc: row[aug] for row, pc in zip(ech, pivots) if aug in row}


def span_basis(field: Field, vectors: list[dict]) -> list[dict]:
    """Reduced echelon basis of the span."""
    return rref(field, vectors)[0]


def reduce_against(field: Field, v: dict, ech: list[dict]) -> dict:
    """v minus its combination of the rows of a reduced echelon basis; it
    is empty exactly when v lies in their span."""
    v = dict(v)
    for row in ech:
        c = v.get(min(row))
        if c is not None:
            add_multiple(field, v, field.neg(c), row)
    return v


def quotient_reps(field: Field, span_a: list[dict], span_b: list[dict]) -> list[dict]:
    """Reduced echelon section of span_a modulo span_b.

    Only defined when span_b is contained in span_a.
    """
    if sparse_rank(field, [*span_a, *span_b]) != sparse_rank(field, span_a):
        raise QuotientUndefined("span_b is not contained in span_a")
    ech = span_basis(field, span_b)
    return span_basis(field, [reduce_against(field, v, ech) for v in span_a])


# -- structure constants ---------------------------------------------------


def contract(field: Field, table: list, u: dict, v: dict) -> dict:
    """Bilinear product u * v of sparse vectors from sparse structure constants.

    table[i][j] is the sparse vector of x_i * x_j; only the nonzero
    entries of u, of v and of each table entry are visited.
    """
    out: dict = {}
    mul = field.mul
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            entry = row[j]
            if entry:
                add_multiple(field, out, mul(a, b), entry)
    return out


def is_associative(field: Field, table: list) -> bool:
    """(x_i x_j) x_k == x_i (x_j x_k) for all basis triples of a sparse table."""
    d = len(table)
    one = field.one
    return all(contract(field, table, table[i][j], {k: one})
               == contract(field, table, {i: one}, table[j][k])
               for i in range(d) for j in range(d) for k in range(d))
