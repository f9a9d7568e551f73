"""Independent references the tests compare the package against: the
full Hochschild complex of a bare table, with all d^2 unknowns, the
associativity check it relies on, the quotient section of one span
modulo another, and conversions between sparse vectors and coordinate
lists."""

import itertools

from quiverhh import linal
from quiverhh.errors import NotAssociative, QuotientUndefined, TooLarge
from quiverhh.linal import Field
from quiverhh.oracle import MAX_ORACLE_DIM, _cocycle_rows


def sparse(v: list) -> dict:
    """The nonzero entries of a dense vector, as a dict index -> scalar."""
    return {i: a for i, a in enumerate(v) if a != 0}


def dense(field: Field, n: int, v: dict) -> list:
    """The dense vector of length n with the entries of a sparse one."""
    out = [field.zero] * n
    for i, a in v.items():
        out[i] = a
    return out


def quotient_reps(field: Field, span_a: list[dict], span_b: list[dict]) -> list[dict]:
    """Reduced echelon section of span_a modulo span_b, from any spanning
    sets.  Only defined when span_b is contained in span_a."""
    if linal.sparse_rank(field, [*span_a, *span_b]) != linal.sparse_rank(field, span_a):
        raise QuotientUndefined("span_b is not contained in span_a")
    ech = linal.span_basis(field, span_b)
    return linal.span_basis(field, [linal.reduce_against(field, v, ech) for v in span_a])


def is_associative(field: Field, table: list) -> bool:
    """(x_i x_j) x_k == x_i (x_j x_k) for all basis triples of a sparse table."""
    d = len(table)
    one = field.one
    return all(linal.contract(field, table, table[i][j], {k: one})
               == linal.contract(field, table, {i: one}, table[j][k])
               for i in range(d) for j in range(d) for k in range(d))


def flat(i: int, j: int, d: int) -> int:
    """Index of the (i, j) entry of a linear map: coefficient of basis i
    in the image of basis j."""
    return i * d + j


def full_columns(d: int) -> list[dict]:
    """The column map of the full complex: every entry of a map A -> A."""
    return [{c: flat(c, j, d) for c in range(d)} for j in range(d)]


def derivations_from_table(field: Field, table, idempotents=None) -> list:
    """Basis of the Leibniz maps of a bare sparse table, as sparse flattened
    matrices (see ``flat``), from the full complex with all d^2 unknowns.

    With a complete orthogonal set of idempotents given (sparse vectors),
    the maps are also required to kill them, matching the arrow-level
    convention.
    """
    d = len(table)
    if d > MAX_ORACLE_DIM:
        raise TooLarge(f"oracle limited to dimension {MAX_ORACLE_DIM}, got {d}")
    if not is_associative(field, table):
        raise NotAssociative("multiplication table is not associative")
    rows = _cocycle_rows(field, table, full_columns(d), itertools.product(range(d), repeat=2))
    for e in idempotents or ():
        rows += [{flat(c, j, d): a for j, a in e.items()} for c in range(d)]
    return linal.kernel_basis(field, rows, d * d)
