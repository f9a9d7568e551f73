"""Brute-force cross-checks for the derivation machinery.

Everything here works on the raw structure constants (a table whose
entry [i][j] is the sparse vector of x_i * x_j, as ``AlgebraTable.products``):
a cochain is an arbitrary linear map A -> A with d*d unknown entries, and
the first cohomology is dim ker d1 - dim im d0 for the standard
differentials.  No quiver structure, rewriting or idempotent normalisation
is used, which is the point: agreement with the arrow-level computation is
a real check.
"""

from __future__ import annotations

from . import linal
from .algebra import AlgebraTable
from .errors import NotAssociative, TooLarge
from .linal import Field

MAX_ORACLE_DIM = 64


def _flat(i: int, j: int, d: int) -> int:
    """Index of the (i, j) entry of a linear map: coefficient of basis i
    in the image of basis j."""
    return i * d + j


def _cocycle_rows(field: Field, table, d: int):
    """Sparse rows of d1: one per (x, y, coordinate) with some entry.

    The row of (x, y, c) is the coefficient of c in x*f(y) + f(x)*y - f(x*y).
    Only the nonzero structure constants are visited: left[x][c] lists the
    (i, coefficient of c in x*x_i) and right[y][c] the (i, coefficient of c
    in x_i*y).
    """
    left = [{} for _ in range(d)]
    right = [{} for _ in range(d)]
    for x in range(d):
        for i in range(d):
            for c, val in table[x][i].items():
                left[x].setdefault(c, []).append((i, val))
                right[i].setdefault(c, []).append((x, val))
    rows = []
    for x in range(d):
        for y in range(d):
            # once x*y != 0, - f(x*y) has an entry in every row c
            xy = [(k, field.neg(val)) for k, val in table[x][y].items()]
            coords = range(d) if xy else sorted(left[x].keys() | right[y].keys())
            for c in coords:
                row: dict = {}
                entries = [(_flat(i, y, d), val) for i, val in left[x].get(c, ())]
                entries += [(_flat(i, x, d), val) for i, val in right[y].get(c, ())]
                entries += [(_flat(c, k, d), val) for k, val in xy]
                for col, val in entries:
                    cur = field.add(row.get(col, field.zero), val)
                    if cur == 0:
                        row.pop(col, None)
                    else:
                        row[col] = cur
                if row:
                    rows.append(row)
    return rows


def _center_dim(field: Field, table, d: int) -> int:
    """d minus the rank of u -> (u*y - y*u)_c over all (y, c): one sparse
    row per (y, c), visiting only nonzero structure constants."""
    minus_one = field.neg(field.one)
    rows: dict = {}
    for u in range(d):
        for y in range(d):
            comm = dict(table[u][y])
            linal.add_multiple(field, comm, minus_one, table[y][u])
            for c, val in comm.items():
                rows.setdefault((y, c), {})[u] = val
    return d - linal.sparse_rank(field, rows.values())


def bar_hh1_dim(a: AlgebraTable) -> int:
    """dim HH1 as dim ker d1 - dim im d0 on the cochain complex."""
    d = a.dim
    if d > MAX_ORACLE_DIM:
        raise TooLarge(f"oracle limited to dimension {MAX_ORACLE_DIM}, got {d}")
    field = a.field
    ker_d1 = d * d - linal.sparse_rank(field, _cocycle_rows(field, a.products, d))
    im_d0 = d - _center_dim(field, a.products, d)
    return ker_d1 - im_d0


def derivations_from_table(field: Field, table, idempotents=None) -> list:
    """Basis of the Leibniz maps of a bare sparse table, as sparse flattened
    matrices (see ``_flat``).

    With a complete orthogonal set of idempotents given (sparse vectors),
    the maps are also required to kill them, matching the arrow-level
    convention.
    """
    d = len(table)
    if d > MAX_ORACLE_DIM:
        raise TooLarge(f"oracle limited to dimension {MAX_ORACLE_DIM}, got {d}")
    if not linal.is_associative(field, table):
        raise NotAssociative("multiplication table is not associative")
    rows = _cocycle_rows(field, table, d)
    for e in idempotents or ():
        rows += [{_flat(c, j, d): a for j, a in e.items()} for c in range(d)]
    return linal.kernel_basis(field, rows, d * d)
