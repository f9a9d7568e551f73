"""Brute-force cross-checks for the derivation machinery.

Everything here works on the raw structure constants (a table whose
entry [i][j] is the sparse vector of x_i * x_j, as ``AlgebraTable.products``).
``bar_hh1_dim`` solves the normalized Hochschild complex relative to
E = kQ0, the span of the vertex idempotents: a cochain is a linear map
A -> A that commutes with E and kills it, one unknown per radical x_j and
basis vector parallel to it.  E is separable, so this complex has the same
HH1 as the full one (Cibils 1998).  The idempotents and the pair (s, t) of
each basis vector are read off the products and checked there; no arrow,
path or rewriting rule is used, which is the point: agreement with the
arrow-level computation is a real check.
"""

from __future__ import annotations

import itertools

from . import linal
from .algebra import AlgebraTable
from .errors import NotAssociative, TooLarge
from .linal import Field

MAX_ORACLE_UNKNOWNS = 4096


def _cocycle_rows(field: Field, table, cols: list[dict], pairs):
    """Sparse rows of d1 at the pairs (x, y) on the unknowns of ``cols``.

    cols[j] maps each coordinate c that f(x_j) may have to the column of
    the unknown f(x_j)_c.  The row of (x, y, c) is the coefficient of c in
    x*f(y) + f(x)*y - f(x*y), and only the nonzero structure constants
    next to an unknown are visited.  For maps commuting with the vertex
    idempotents (cols[j] the basis vectors parallel to x_j) the coordinates
    not parallel to x*y give no row, and neither do the pairs that are not
    composable, so a caller may leave those out.
    """
    rows = []
    for x, y in pairs:
        # (coordinate c, column, value) of x*f(y), f(x)*y and - f(x*y)
        entries = [(c, col, val) for i, col in cols[y].items()
                   for c, val in table[x][i].items()]
        entries += [(c, col, val) for i, col in cols[x].items()
                    for c, val in table[i][y].items()]
        entries += [(c, col, field.neg(val)) for k, val in table[x][y].items()
                    for c, col in cols[k].items()]
        by_coord: dict = {}
        for c, col, val in entries:
            row = by_coord.setdefault(c, {})
            row[col] = field.add(row[col], val) if col in row else val
        for row in by_coord.values():
            row = {col: val for col, val in row.items() if val != 0}
            if row:
                rows.append(row)
    return rows


def _vertex_pairs(table, nverts: int, one) -> list[tuple[int, int]]:
    """The pair (s, t) with e_s x_j = x_j = x_j e_t of each basis vector x_j,
    where e_0 .. e_{nverts-1} are the first basis vectors.

    Raises NotAssociative unless those are orthogonal idempotents and each
    x_j is fixed by exactly one of them on each side and killed by the
    others, which also makes them sum to the unit.
    """
    for i in range(nverts):
        for k in range(nverts):
            if table[i][k] != ({i: one} if i == k else {}):
                raise NotAssociative(
                    f"oracle check failed: the first {nverts} basis vectors are not "
                    f"orthogonal idempotents (product of basis vectors {i} and {k})")
    pairs = []
    for j, row in enumerate(table):
        left = [v for v in range(nverts) if table[v][j]]
        right = [v for v in range(nverts) if row[v]]
        if (len(left) != 1 or len(right) != 1
                or table[left[0]][j] != {j: one} or row[right[0]] != {j: one}):
            raise NotAssociative(
                f"oracle check failed: basis vector {j} is not homogeneous "
                f"(not in e_s A e_t for exactly one pair of vertex idempotents)")
        pairs.append((left[0], right[0]))
    return pairs


def _center_dim(field: Field, table, units: list[int], pairs: list, touching: dict) -> int:
    """Dimension of the centre within the span of the basis vectors ``units``
    of A^E: their number minus the rank of u -> (u*y - y*u)_c over all (y, c),
    one sparse row per (y, c), y in touching[v] for u in e_v A e_v (an
    idempotent y commutes with A^E, and touching holds none)."""
    minus_one = field.neg(field.one)
    rows: dict = {}
    for u in units:
        for y in touching.get(pairs[u][0], ()):
            comm = dict(table[u][y])
            linal.add_multiple(field, comm, minus_one, table[y][u])
            for c, val in comm.items():
                rows.setdefault((y, c), {})[u] = val
    return len(units) - linal.sparse_rank(field, rows.values())


def bar_hh1_dim(a: AlgebraTable) -> int:
    """dim HH1 from the normalized complex of cochains commuting with E = kQ0.

    The unknowns are f(x_j)_c, x_c parallel to a radical x_j, and the rows are
    at pairs of radical vectors: with f(e_s) unknown, the row (e_s, e_s) would
    force f(e_s) = 0, and then each row of a pair holding e_s vanishes.
    C^0 = A^E is spanned by the x_u with s = t and contains the centre, so
    dim HH1 = dim ker d1 - (dim A^E - dim Z(A)).  The idempotents are the
    first |Q0| basis vectors, checked on the products alone (``_vertex_pairs``).
    """
    field, table = a.field, a.products
    nverts = len(a.quiver.vertices)
    pairs = _vertex_pairs(table, nverts, field.one)
    parallel: dict = {}
    for j, pair in enumerate(pairs):
        parallel.setdefault(pair, []).append(j)
    column = itertools.count()
    cols = [{}] * nverts + [{c: next(column) for c in parallel[p]} for p in pairs[nverts:]]
    unknowns = sum(map(len, cols))
    if unknowns > MAX_ORACLE_UNKNOWNS:
        raise TooLarge(f"oracle limited to {MAX_ORACLE_UNKNOWNS} unknowns, got {unknowns}")
    touching: dict = {}  # vertex -> the radical basis vectors that start or end there
    for y in range(nverts, len(pairs)):
        for v in set(pairs[y]):
            touching.setdefault(v, []).append(y)
    composable = [(x, y) for x in range(nverts, len(pairs))
                  for y in touching.get(pairs[x][1], ()) if pairs[y][0] == pairs[x][1]]
    # the rank does not depend on the order; short rows first keep the fill-in small
    rows = sorted(_cocycle_rows(field, table, cols, composable), key=len)
    ker_d1 = unknowns - linal.sparse_rank(field, rows)
    diagonal = [u for u, (s, t) in enumerate(pairs) if s == t]
    return ker_d1 - (len(diagonal) - _center_dim(field, table, diagonal, pairs, touching))
