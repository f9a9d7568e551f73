import pathlib

import pytest

from quiverhh import linal
from quiverhh.algebra import Presentation, Relation, build_algebra
from quiverhh.derlie import derivation_space, hh1
from quiverhh.dsl import load_presentation
from quiverhh.errors import NotAssociative, TooLarge
from quiverhh.linal import Field
from quiverhh.oracle import (MAX_ORACLE_DIM, _cocycle_rows, bar_hh1_dim,
                             derivations_from_table)
from quiverhh.quiver import Quiver

Q = Field(0)


def build(vertices, arrows, relations, field=Q):
    quiver = Quiver.make(vertices, arrows)
    rels = tuple(Relation(tuple(terms)) for terms in relations)
    return build_algebra(Presentation(quiver, rels, field))


def idempotents(t):
    return [{i: t.field.one} for i in range(len(t.quiver.vertices))]


def test_tree_path_algebra_has_trivial_hh1():
    t = build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")], [])
    assert bar_hh1_dim(t) == 0


def test_kronecker_oracle():
    t = build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])
    assert bar_hh1_dim(t) == 3


def test_pair_with_tail_oracle():
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")],
              [[(1, ("a", "c"))]])
    assert bar_hh1_dim(t) == 2


def test_oracle_agrees_with_arrow_computation():
    samples = [
        build(["1"], [("x", "1", "1")], [[(1, ("x", "x", "x", "x"))]]),
        build(["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]], field=Field(3)),
        build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
              [[(1, ("a", "c"))], [(1, ("b", "d"))],
               [(1, ("a", "d")), (1, ("b", "c"))]]),
    ]
    for t in samples:
        assert bar_hh1_dim(t) == hh1(t).lie.dim


def test_cochain_complex_identity():
    # d1 applied to every commutator map [basis_u, -] is zero
    t = build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])
    d, field = t.dim, t.field
    d1_rows = _cocycle_rows(field, t.products, d)
    for u in range(d):
        d0_image = {i * d + j: field.sub(t.products[u][j].get(i, field.zero),
                                         t.products[j][u].get(i, field.zero))
                    for i in range(d) for j in range(d)}
        for row in d1_rows:
            total = field.zero
            for col, val in row.items():
                total = field.add(total, field.mul(val, d0_image[col]))
            assert total == 0


def test_derivations_from_table_one_dimensional():
    t = build(["1"], [], [])
    assert derivations_from_table(t.field, t.products) == []


def test_derivations_from_table_truncated_loop():
    t = build(["1"], [("x", "1", "1")], [[(1, ("x", "x", "x", "x"))]])
    ders = derivations_from_table(t.field, t.products, idempotents(t))
    assert len(ders) == 3


def test_table_solver_matches_arrow_solver():
    t = build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])
    layout, der = derivation_space(t)
    assert len(derivations_from_table(t.field, t.products, idempotents(t))) == len(der)


def test_restriction_to_corner_is_a_derivation():
    # derivations vanishing on idempotents restrict to eAe
    t = build(["1", "2", "3"],
              [("x", "1", "1"), ("a", "1", "2"), ("b", "2", "3")],
              [[(1, ("x", "x"))], [(1, ("x", "a"))]])
    layout, der = derivation_space(t)
    keep = [i for i in range(t.dim)
            if t.basis_source[i] in ("1", "2") and t.basis_target[i] in ("1", "2")]
    corner = [[{keep.index(bk): c for bk, c in t.products[bi][bj].items() if bk in keep}
               for bj in keep] for bi in keep]
    field = t.field
    d = len(keep)
    # the trivial paths of vertices 1 and 2 come first in the basis
    corner_idems = [{keep.index(i): field.one} for i in (0, 1)]
    subders = derivations_from_table(field, corner, corner_idems)
    span = linal.span_basis(field, subders)
    for v in der:
        mat = layout.action_matrix(v)
        flat = {}
        for col, bj in enumerate(keep):
            for row, bi in enumerate(keep):
                if mat[bi][bj] != 0:
                    flat[row * d + col] = mat[bi][bj]
        # the restricted map must lie in the span of the corner derivations
        assert not linal.reduce_against(field, flat, span)


def test_not_associative_rejected():
    field = Q
    one = field.one
    # a two-dimensional table with a deliberately broken product
    table = [[{0: one}, {1: one}], [{0: one}, {0: one, 1: one}]]
    with pytest.raises(NotAssociative):
        derivations_from_table(field, table)


def test_too_large_guard():
    t = build(["1"], [("x", "1", "1")],
              [[(1, ("x",) * 10)]])
    assert t.dim == 10
    assert bar_hh1_dim(t) == 9  # sanity: still within bounds
    import quiverhh.oracle as om
    old = om.MAX_ORACLE_DIM
    om.MAX_ORACLE_DIM = 4
    try:
        with pytest.raises(TooLarge):
            bar_hh1_dim(t)
    finally:
        om.MAX_ORACLE_DIM = old


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_cocycle_rows_have_the_rank_of_the_dense_d1(path):
    """d1 written out densely: the row of (x, y, c) holds the coefficient of
    c in x*f(y) + f(x)*y - f(x*y) for each entry f(e_j)_i of the cochain."""
    t = build_algebra(load_presentation(path.read_text()))
    f, d = t.field, t.dim
    m = [[linal.dense(f, d, e) for e in row] for row in t.products]
    dense = []
    for x in range(d):
        for y in range(d):
            for c in range(d):
                row = [f.zero] * (d * d)
                for i in range(d):
                    row[i * d + y] = f.add(row[i * d + y], m[x][i][c])
                    row[i * d + x] = f.add(row[i * d + x], m[i][y][c])
                for k in range(d):
                    row[c * d + k] = f.sub(row[c * d + k], m[x][y][k])
                dense.append({col: v for col, v in enumerate(row) if v != 0})
    assert (linal.sparse_rank(f, _cocycle_rows(f, t.products, d))
            == linal.sparse_rank(f, dense))
