"""Exact scalar arithmetic and the linear-algebra kernel.

Scalars are ``fractions.Fraction`` over the rationals and plain residues
``int`` in ``[0, p)`` over a prime field.  Vectors are dense lists.
Structure constants are sparse: a table entry is a dict index -> nonzero
scalar, and ``contract`` multiplies sparse vectors of that form, visiting
only nonzero entries.  Everything downstream (quotient algebras,
derivation solves, structure constants) runs through the one row
reduction in this module, which eliminates on sparse rows, so all
arithmetic here is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import QuotientUndefined


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


@dataclass(frozen=True)
class Field:
    """Descriptor of the ground field: the rationals or a prime field F_p.

    characteristic 0 means the rationals; otherwise it must be a prime.
    Characteristic 2 is constructible, but the Delta-map layer refuses it.
    """

    characteristic: int = 0

    def __post_init__(self):
        if self.characteristic > MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {self.characteristic} is too large: "
                             f"primality is certified only up to {MAX_CHARACTERISTIC}")
        if self.characteristic != 0 and not _is_prime(self.characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {self.characteristic}")

    @classmethod
    def parse(cls, text: str) -> "Field":
        text = text.strip()
        if text in ("Q", "QQ", "rationals", "0"):
            return cls(0)
        if text.startswith("fp:"):
            return cls(int(text[3:]))
        raise ValueError(f"unknown field descriptor {text!r} (expected 'Q' or 'fp:p')")

    def describe(self) -> str:
        return "Q" if self.characteristic == 0 else f"fp:{self.characteristic}"

    # -- scalar arithmetic ------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1 % self.characteristic

    def of(self, value) -> "Scalar":
        """Coerce an int or Fraction into a field scalar."""
        if self.characteristic == 0:
            return Fraction(value)
        p = self.characteristic
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, p - 2, p) % p
        return value % p

    def add(self, a, b):
        return a + b if self.characteristic == 0 else (a + b) % self.characteristic

    def sub(self, a, b):
        return a - b if self.characteristic == 0 else (a - b) % self.characteristic

    def mul(self, a, b):
        return a * b if self.characteristic == 0 else (a * b) % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            return Fraction(1) / a
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)


Scalar = object  # Fraction or int residue; see Field


# -- vectors and matrices (lists of scalars) ------------------------------


def zero_vector(field: Field, n: int) -> list:
    return [field.zero] * n


def unit_vector(field: Field, n: int, i: int) -> list:
    v = zero_vector(field, n)
    v[i] = field.one
    return v


def vec_add(field: Field, u: list, v: list) -> list:
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_scale(field: Field, c, u: list) -> list:
    return [field.mul(c, a) for a in u]


def is_zero_vector(v: list) -> bool:
    return all(a == 0 for a in v)


def mat_vec(field: Field, m: list[list], v: list) -> list:
    return [
        dot(field, row, v)
        for row in m
    ]


def dot(field: Field, u: list, v: list):
    acc = field.zero
    for a, b in zip(u, v):
        if a != 0 and b != 0:
            acc = field.add(acc, field.mul(a, b))
    return acc


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Forward elimination on sparse rows, then back-substitution from the
    last pivot up.  The reduced form is unique, so the result does not
    depend on the order in which rows are eliminated.
    """
    ncols = len(rows[0]) if rows else 0
    ech = _echelon(field, (dict(enumerate(row)) for row in rows))
    pivots = sorted(ech)
    for pc in reversed(pivots):
        row = ech[pc]
        # rows below are reduced, so clearing one pivot column leaves the others
        for q in [c for c in row if c != pc and c in ech]:
            add_multiple(field, row, field.neg(row[q]), ech[q])
    return [[ech[pc].get(c, field.zero) for c in range(ncols)] for pc in pivots], pivots


def add_multiple(field: Field, row: dict, c, v: dict) -> None:
    """row += c * v on sparse vectors, dropping the entries that vanish."""
    zero = field.zero
    for col, a in v.items():
        val = field.add(row.get(col, zero), field.mul(c, a))
        if val == 0:
            row.pop(col, None)
        else:
            row[col] = val


def _echelon(field: Field, rows) -> dict[int, dict]:
    """Forward elimination of sparse rows (dicts col -> scalar).

    Returns pivot column -> row with a unit pivot and no entry left of it.
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


def rank(field: Field, rows: list[list]) -> int:
    return len(rref(field, rows)[0])


def kernel_basis(field: Field, m: list[list], ncols: int | None = None) -> list[list]:
    """Basis of the right null space {v : m v = 0}.

    ``ncols`` is required when ``m`` has no rows (kernel of the zero map).
    """
    if not m:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [unit_vector(field, ncols, i) for i in range(ncols)]
    ncols = len(m[0])
    ech, pivots = rref(field, m)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = zero_vector(field, ncols)
        v[fc] = field.one
        for rrow, pc in zip(ech, pivots):
            v[pc] = field.neg(rrow[fc])
        basis.append(v)
    return basis


def solve(field: Field, m: list[list], b: list) -> list | None:
    """One solution x of m x = b, or None if inconsistent."""
    if not m:
        return [] if is_zero_vector(b) else None
    ncols = len(m[0])
    aug = [list(row) + [val] for row, val in zip(m, b)]
    ech, pivots = rref(field, aug)
    x = zero_vector(field, ncols)
    for row, pc in zip(ech, pivots):
        if pc == ncols:
            return None
        x[pc] = row[-1]
    return x


def span_basis(field: Field, vectors: list[list]) -> list[list]:
    """Echelonized basis of the span."""
    return rref(field, vectors)[0]


def reduce_against(field: Field, v: list, ech: list[list], pivots: list[int]) -> list:
    v = list(v)
    for row, pc in zip(ech, pivots):
        if v[pc] != 0:
            c = v[pc]
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
    return v


def quotient_reps(field: Field, span_a: list[list], span_b: list[list]) -> list[list]:
    """Row-reduced section of span_a modulo span_b.

    Only defined when span_b is contained in span_a.
    """
    if rank(field, list(span_a) + list(span_b)) != rank(field, span_a):
        raise QuotientUndefined("span_b is not contained in span_a")
    ech, piv = rref(field, span_b)
    return span_basis(field, [reduce_against(field, v, ech, piv) for v in span_a])


def intersect(field: Field, span_a: list[list], span_b: list[list]) -> list[list]:
    """Echelonized basis of the intersection of two spans."""
    if not span_a or not span_b:
        return []
    cols = list(span_a) + list(span_b)
    matrix = [list(row) for row in zip(*cols)]
    kernel = kernel_basis(field, matrix, ncols=len(cols))
    basis = span_basis(field, [combine(field, k[:len(span_a)], span_a) for k in kernel])
    assert len(basis) == rank(field, span_a) + rank(field, span_b) - rank(field, cols)
    return basis


def combine(field: Field, coeffs: list, vectors: list[list]) -> list:
    """The linear combination sum(c * v); vectors must be nonempty."""
    out = zero_vector(field, len(vectors[0]))
    for c, v in zip(coeffs, vectors):
        if c != 0:
            out = vec_add(field, out, vec_scale(field, c, v))
    return out


def sparse(v: list) -> dict:
    """The nonzero entries of a dense vector, as a dict index -> scalar."""
    return {i: a for i, a in enumerate(v) if a != 0}


def dense(field: Field, n: int, v: dict) -> list:
    """The dense vector of length n with the entries of a sparse one."""
    out = zero_vector(field, n)
    for i, a in v.items():
        out[i] = a
    return out


def sparse_table(table: list) -> list:
    """Sparse structure constants of a dense table[i][j][k]."""
    return [[sparse(entry) for entry in row] for row in table]


def contract(field: Field, table: list, u: dict, v: dict) -> dict:
    """Bilinear product u * v of sparse vectors from sparse structure constants.

    table[i][j] is the sparse vector of x_i * x_j; only the nonzero
    entries of u, of v and of each table entry are visited.
    """
    out: dict = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            entry = row[j]
            if entry:
                add_multiple(field, out, field.mul(a, b), entry)
    return out


def is_associative(field: Field, table: list) -> bool:
    """(x_i x_j) x_k == x_i (x_j x_k) for all basis triples of a dense table."""
    d = len(table)
    st = sparse_table(table)
    one = field.one
    return all(contract(field, st, st[i][j], {k: one})
               == contract(field, st, {i: one}, st[j][k])
               for i in range(d) for j in range(d) for k in range(d))


def sparse_rank(field: Field, rows) -> int:
    """Rank of a stream of sparse rows (dicts col -> scalar)."""
    return len(_echelon(field, rows))
