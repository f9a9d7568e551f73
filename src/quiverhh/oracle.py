"""Brute-force cross-checks for the derivation machinery.

Everything here works on the raw multiplication table: a cochain is an
arbitrary linear map A -> A with d*d unknown entries, and the first
cohomology is dim ker d1 - dim im d0 for the standard differentials.  No
quiver structure, rewriting or idempotent normalisation is used, which is
the point: agreement with the arrow-level computation is a real check.
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


def _cocycle_rows(field: Field, mult, d: int):
    """Sparse rows of d1: one per (x, y, coordinate) with some entry.

    The row of (x, y, c) is the coefficient of c in x*f(y) + f(x)*y - f(x*y).
    Only the nonzero structure constants are visited: left[x][c] lists the
    (i, mult[x][i][c]) and right[y][c] the (i, mult[i][y][c]).
    """
    left = [{} for _ in range(d)]
    right = [{} for _ in range(d)]
    for x in range(d):
        for i in range(d):
            for c, val in enumerate(mult[x][i]):
                if val != 0:
                    left[x].setdefault(c, []).append((i, val))
                    right[i].setdefault(c, []).append((x, val))
    rows = []
    for x in range(d):
        for y in range(d):
            # once x*y != 0, - f(x*y) has an entry in every row c
            xy = [(k, field.neg(val)) for k, val in enumerate(mult[x][y]) if val != 0]
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


def _center_dim(field: Field, mult, d: int) -> int:
    rows = []
    for y in range(d):
        for c in range(d):
            row = [field.sub(mult[u][y][c], mult[y][u][c]) for u in range(d)]
            if any(v != 0 for v in row):
                rows.append(row)
    return d - linal.rank(field, rows)


def bar_hh1_dim(a: AlgebraTable) -> int:
    """dim HH1 as dim ker d1 - dim im d0 on the cochain complex."""
    d = a.dim
    if d > MAX_ORACLE_DIM:
        raise TooLarge(f"oracle limited to dimension {MAX_ORACLE_DIM}, got {d}")
    field = a.field
    ker_d1 = d * d - linal.sparse_rank(field, _cocycle_rows(field, a.mult, d))
    im_d0 = d - _center_dim(field, a.mult, d)
    return ker_d1 - im_d0


def derivations_from_table(field: Field, mult, idempotents=None) -> list:
    """Basis of the Leibniz maps of a bare table, as flattened matrices.

    With a complete orthogonal set of idempotents given, the maps are
    also required to kill them, matching the arrow-level convention.
    """
    d = len(mult)
    if d > MAX_ORACLE_DIM:
        raise TooLarge(f"oracle limited to dimension {MAX_ORACLE_DIM}, got {d}")
    if not linal.is_associative(field, mult):
        raise NotAssociative("multiplication table is not associative")
    rows = []
    for sparse in _cocycle_rows(field, mult, d):
        row = [field.zero] * (d * d)
        for col, val in sparse.items():
            row[col] = val
        rows.append(row)
    for e in idempotents or ():
        for c in range(d):
            row = [field.zero] * (d * d)
            for j in range(d):
                if e[j] != 0:
                    row[_flat(c, j, d)] = e[j]
            rows.append(row)
    return linal.kernel_basis(field, rows, ncols=d * d)
