import itertools
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import analysis, cli, linal, oracle
from quiverhh.algebra import Presentation, Relation, build_algebra
from quiverhh.derlie import derivation_space, hh1
from quiverhh.dsl import load_presentation
from quiverhh.errors import NotAssociative, TooLarge
from quiverhh.linal import Field
from quiverhh.oracle import _cocycle_rows, bar_hh1_dim
from quiverhh.quiver import Quiver
from reference import action_columns, dense, derivations_from_table, full_columns

Q = Field(0)


def build(vertices, arrows, relations, field=Q):
    quiver = Quiver.make(vertices, arrows)
    rels = tuple(Relation(tuple(terms)) for terms in relations)
    return build_algebra(Presentation(quiver, rels, field))


def idempotents(t):
    return [{i: t.field.one} for i in range(len(t.quiver.vertices))]


def all_pairs(d):
    """Every pair (x, y) of basis indices: the full complex's row loop."""
    return itertools.product(range(d), repeat=2)


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
    d1_rows = _cocycle_rows(field, t.products, full_columns(d), all_pairs(d))
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
        cols = action_columns(layout, v, keep)
        flat = {}
        for col, bj in enumerate(keep):
            for row, bi in enumerate(keep):
                if bi in cols[bj]:
                    flat[row * d + col] = cols[bj][bi]
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
    old = om.MAX_ORACLE_UNKNOWNS
    om.MAX_ORACLE_UNKNOWNS = 16
    try:
        with pytest.raises(TooLarge, match="16 unknowns, got 90"):
            bar_hh1_dim(t)
    finally:
        om.MAX_ORACLE_UNKNOWNS = old


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))


def dense_d1(t):
    """d1 of the full complex written out from the dense table: the row of
    (x, y, c) holds the coefficient of c in x*f(y) + f(x)*y - f(x*y) for each
    entry f(e_j)_i of the cochain, at column i*d + j."""
    f, d = t.field, t.dim
    m = [[dense(f, d, e) for e in row] for row in t.products]
    rows = []
    for x, y, c in itertools.product(range(d), repeat=3):
        row = {}
        for i in range(d):
            for col, v in ((i * d + y, m[x][i][c]), (i * d + x, m[i][y][c]),
                           (c * d + i, f.neg(m[x][y][i]))):
                if v:
                    row[col] = f.add(row.get(col, f.zero), v)
        rows.append({col: v for col, v in row.items() if v != 0})
    return rows


def dense_hh1_dim(t):
    """dim HH1 of the full complex, with all d^2 entries of a map A -> A
    unknown: d^2 - rank d1 - rank d0, where d0 sends u to the flattened
    matrix of x -> u*x - x*u."""
    f, d = t.field, t.dim
    m = [[dense(f, d, e) for e in row] for row in t.products]
    d0 = [{i * d + j: v for i in range(d) for j in range(d)
           if (v := f.sub(m[u][j][i], m[j][u][i])) != 0} for u in range(d)]
    return d * d - linal.sparse_rank(f, dense_d1(t)) - linal.sparse_rank(f, d0)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_cocycle_rows_have_the_rank_of_the_dense_d1(path):
    t = build_algebra(load_presentation(path.read_text()))
    f, d = t.field, t.dim
    assert (linal.sparse_rank(f, _cocycle_rows(f, t.products, full_columns(d), all_pairs(d)))
            == linal.sparse_rank(f, dense_d1(t)))


def radsq_cycle(n):
    """The n-cycle of double arrows with every path of length two zero."""
    arrows = [(f"{s}{i}", str(i), str((i + 1) % n)) for i in range(n) for s in "ab"]
    relations = [[(1, (x, y))] for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    return build([str(i) for i in range(n)], arrows, relations)


def doubled_path(n):
    """The path algebra of A_n with its first arrow doubled."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)] + [("b1", "1", "2")]
    return build([str(i) for i in range(1, n + 1)], arrows, [])


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_oracle_matches_the_full_complex_on_the_corpus(path):
    t = build_algebra(load_presentation(path.read_text()))
    assert bar_hh1_dim(t) == dense_hh1_dim(t)


@pytest.mark.parametrize("make, n", [(radsq_cycle, 3), (radsq_cycle, 4),
                                     (doubled_path, 4), (doubled_path, 6)],
                         ids=["radsq3", "radsq4", "A4_doubled", "A6_doubled"])
def test_oracle_matches_the_full_complex_on_families(make, n):
    t = make(n)
    assert bar_hh1_dim(t) == dense_hh1_dim(t)


@st.composite
def monomial_algebras(draw):
    """A quiver on up to three vertices with up to four arrows (loops and
    multiple arrows allowed), over Q, F_2 or F_3: some paths of length two
    are kept, the others and every path of length three are zero, so
    dim A <= 16."""
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=4))
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)]
    composable = {label: [b for b, sb, _ in arrows if sb == t] for label, _, t in arrows}
    twos = [(a, b) for a in composable for b in composable[a]]
    kept = draw(st.lists(st.sampled_from(twos), unique=True,
                         max_size=16 - len(vertices) - len(arrows))) if twos else []
    relations = [[(1, p)] for p in twos if p not in kept]
    relations += [[(1, (a, b, c))] for a, b in twos for c in composable[b]]
    return build(vertices, arrows, relations, field=Field(draw(st.sampled_from((0, 2, 3)))))


@settings(max_examples=40, deadline=None)
@given(monomial_algebras())
def test_oracle_matches_the_full_complex_on_monomial_algebras(t):
    assert t.dim <= 16
    assert bar_hh1_dim(t) == dense_hh1_dim(t)


def test_oracle_d1_has_one_column_per_parallel_pair(monkeypatch):
    """The unknowns are the entries (c, j) with x_c parallel to x_j and x_j
    no vertex idempotent: the sum over vertex pairs (s, t) of n_st^2, less
    n_ss for each vertex s, n_st = dim e_s A e_t, not d^2; and no row comes
    from a pair that holds an idempotent."""
    t = doubled_path(6)
    nverts = len(t.quiver.vertices)
    seen = []

    def spy(field, table, cols, pairs):
        pairs = list(pairs)
        rows = _cocycle_rows(field, table, cols, pairs)
        seen.append((cols, pairs, rows))
        return rows

    monkeypatch.setattr(oracle, "_cocycle_rows", spy)
    assert bar_hh1_dim(t) == 3
    [(cols, pairs, rows)] = seen
    ends = list(zip(t.basis_source, t.basis_target))
    counts = Counter(ends)
    ncols = sum(n * n for n in counts.values()) - sum(counts[(s, s)] for s in t.quiver.vertices)
    assert ncols < t.dim * t.dim
    assert sorted(col for c in cols for col in c.values()) == list(range(ncols))
    assert all(ends[c] == ends[j] for j, c_map in enumerate(cols) for c in c_map)
    assert not any(cols[:nverts])
    assert pairs and all(x >= nverts and y >= nverts for x, y in pairs)
    assert all(0 <= col < ncols for row in rows for col in row)


def broken_idempotent(t):
    """Make e_0 * e_0 vanish."""
    t.products[0][0] = {}


def broken_homogeneity(t):
    """Let the idempotent of vertex 2 fix the arrow a, which starts at 1."""
    t.products[1][t.arrow_index("a")] = {t.arrow_index("a"): t.field.one}


@pytest.mark.parametrize("alter, check", [
    (broken_idempotent, "orthogonal idempotents"),
    (broken_homogeneity, "is not homogeneous"),
])
def test_oracle_refuses_a_table_with_an_altered_idempotent_product(alter, check,
                                                                   tmp_path, monkeypatch,
                                                                   capsys):
    t = build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])
    assert bar_hh1_dim(t) == 3
    alter(t)
    with pytest.raises(NotAssociative, match=check):
        bar_hh1_dim(t)

    path = tmp_path / "kronecker.dsl"
    path.write_text("field Q\nvertex 1 2\narrow a 1 2\narrow b 1 2\n")

    def altered(p):
        table = build_algebra(p)
        alter(table)
        return table

    monkeypatch.setattr(analysis, "build_algebra", altered)
    assert cli.main(["oracle", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: oracle check failed") and check in err
    assert err.count("\n") == 1
