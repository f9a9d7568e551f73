import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quiverhh import linal
from quiverhh.errors import QuotientUndefined
from quiverhh.linal import Field


def test_field_parse_and_describe():
    q = Field.parse("Q")
    assert q.characteristic == 0
    assert q.describe() == "Q"
    f5 = Field.parse("fp:5")
    assert f5.characteristic == 5
    assert f5.describe() == "fp:5"
    with pytest.raises(ValueError):
        Field.parse("fp:6")
    with pytest.raises(ValueError):
        Field.parse("R")


def test_zero_and_one_are_built_once_per_field():
    for c, kind in ((0, Fraction), (5, int)):
        f = Field(c)
        assert f.zero is f.zero and f.one is f.one
        assert type(f.zero) is kind and type(f.one) is kind
        assert (f.zero, f.one) == (0, 1)
    assert repr(Field(0).zero) == "Fraction(0, 1)" and repr(Field(0).one) == "Fraction(1, 1)"
    assert repr(Field(5)) == "Field(characteristic=5)"
    assert Field(5) == Field(5) and hash(Field(5)) == hash(Field(5))
    assert Field(5) != Field(7) and Field(0) == Field.parse("Q")
    assert {Field(5): "fp:5"}[Field.parse("fp:5")] == "fp:5"


def test_rational_arithmetic():
    q = Field(0)
    a = q.of(Fraction(2, 3))
    b = q.of(5)
    assert q.mul(a, b) == Fraction(10, 3)
    assert q.inv(a) == Fraction(3, 2)
    assert q.sub(q.add(a, b), b) == a


def test_prime_field_arithmetic():
    f7 = Field(7)
    assert f7.of(10) == 3
    assert f7.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert f7.mul(3, 5) == 1
    assert f7.inv(3) == 5
    for x in range(1, 7):
        assert f7.mul(x, f7.inv(x)) == 1


def test_rref_and_rank():
    q = Field(0)
    rows = [{0: q.of(1), 1: q.of(2), 2: q.of(3)},
            {0: q.of(2), 1: q.of(4), 2: q.of(6)},
            {1: q.of(1), 2: q.of(1)}]
    ech, pivots = linal.rref(q, rows)
    assert len(ech) == 2
    assert pivots == [0, 1]
    assert linal.sparse_rank(q, rows) == 2


def test_kernel_basis_matches_rank():
    q = Field(0)
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[q.of(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        rows = [linal.sparse(r) for r in m]
        ker = linal.kernel_basis(q, rows, ncols=ncols)
        assert len(ker) == ncols - linal.sparse_rank(q, rows)
        for v in ker:
            assert all(sum((r[j] * a for j, a in v.items()), q.zero) == 0
                       for r in m)


def test_kernel_basis_empty_matrix():
    q = Field(0)
    ker = linal.kernel_basis(q, [], ncols=3)
    assert len(ker) == 3


def test_solve():
    q = Field(0)
    m = [{0: q.of(1), 1: q.of(1)}, {0: q.of(1), 1: q.of(-1)}]
    sol = linal.solve(q, m, {0: q.of(3), 1: q.of(1)})
    assert sol == {0: Fraction(2), 1: Fraction(1)}
    assert linal.solve(q, [{0: q.of(1)}, {0: q.of(1)}], {0: q.of(1), 1: q.of(2)}) is None


def test_subspace_ops_and_quotient():
    q = Field(0)
    e = lambda i: {i: q.one}
    span_a = [e(0), e(1)]
    span_b = [e(0)]
    assert linal.quotient_reps(q, span_a, span_b) == [e(1)]
    # a non-echelon spanning set still gives the reduced section
    skew = [{0: q.one, 1: q.one}, e(2)]
    assert linal.quotient_reps(q, skew + [e(0)], [e(0)]) == [e(1), e(2)]
    with pytest.raises(QuotientUndefined):
        linal.quotient_reps(q, [e(0)], [e(1)])


def test_sparse_rank_agrees_with_dense():
    """Row rank of the sparse rows equals the column rank of the dense matrix."""
    q = Field(0)
    rng = random.Random(11)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[q.of(rng.choice([0, 0, 1, -1, 2])) for _ in range(ncols)]
                 for _ in range(nrows)]
        sparse = [{j: v for j, v in enumerate(r) if v != 0} for r in dense]
        sparse = [r for r in sparse if r]
        columns = [linal.sparse(col) for col in zip(*dense)]
        assert linal.sparse_rank(q, sparse) == linal.sparse_rank(q, columns)


def test_sparse_rank_prime_field():
    f3 = Field(3)
    rows = [{0: 1, 1: 2}, {0: 2, 1: 1}, {0: 1, 1: 1}]
    # first two rows are proportional mod 3 (2*[1,2] = [2,4] = [2,1])
    assert linal.sparse_rank(f3, rows) == 2


def test_prime_check_is_exact_and_fast():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if linal._is_prime(n)] == \
        [n for n in range(3000) if trial_division(n)]
    start = time.perf_counter()
    assert Field.parse("fp:2305843009213693951").characteristic == 2305843009213693951
    assert time.perf_counter() - start < 0.5
    # Carmichael numbers, and a strong pseudoprime to every prime base up to 37
    for n in (561, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime"):
            Field(n)
    with pytest.raises(ValueError, match="too large"):
        Field(linal.MAX_CHARACTERISTIC + 1)


@st.composite
def sparse_matrices(draw):
    """A field (Q or F_7), a column count and sparse rows over it, possibly
    none or empty, some holding explicit zeros."""
    field = Field(draw(st.sampled_from((0, 7))))
    ncols = draw(st.integers(0, 6))
    entry = st.sampled_from((0, 1, -1, 2, 3)).map(field.of)
    row = (st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols) if ncols
           else st.just({}))
    return field, ncols, draw(st.lists(row, max_size=6))


def no_zeros(vectors) -> bool:
    return all(a != 0 for v in vectors for a in v.values())


@settings(max_examples=25, deadline=None)
@given(sparse_matrices())
@example((Field(0), 0, []))
@example((Field(7), 3, [{0: 0, 1: 0, 2: 0}, {}]))
@example((Field(0), 0, [{}, {}]))
def test_rref_is_the_reduced_row_echelon_form(case):
    field, _, rows = case
    ech, pivots = linal.rref(field, rows)
    assert len(ech) == len(pivots)
    assert pivots == sorted(set(pivots))
    assert no_zeros(ech)
    for r, (row, pc) in enumerate(zip(ech, pivots)):
        assert all(c >= pc for c in row)
        assert [other.get(pc, 0) for other in ech] == [field.one if s == r else 0
                                                      for s in range(len(ech))]
    assert (linal.sparse_rank(field, rows + ech) == linal.sparse_rank(field, rows)
            == linal.sparse_rank(field, ech) == len(ech))


@settings(max_examples=50, deadline=None)
@given(sparse_matrices(), st.data())
def test_sparse_elimination_keeps_its_contracts(case, data):
    field, ncols, rows = case
    rank = linal.sparse_rank(field, rows)
    ker = linal.kernel_basis(field, rows, ncols)
    assert len(ker) == ncols - rank
    assert linal.sparse_rank(field, ker) == len(ker)
    for v in ker:
        for row in rows:
            total = field.zero
            for c, a in row.items():
                total = field.add(total, field.mul(a, v.get(c, field.zero)))
            assert total == 0
    basis = linal.span_basis(field, rows)
    assert (linal.sparse_rank(field, rows + basis) == rank
            == linal.sparse_rank(field, basis) == len(basis))
    # a subspace: some of the rows and a combination of two of them
    sub = rows[:data.draw(st.integers(0, len(rows)))]
    if len(rows) >= 2:
        combo = dict(rows[0])
        linal.add_multiple(field, combo, field.of(2), rows[-1])
        sub = sub + [combo]
    reps = linal.quotient_reps(field, rows, sub)
    assert len(reps) == rank - linal.sparse_rank(field, sub)
    assert no_zeros(ker) and no_zeros(basis) and no_zeros(reps)


@st.composite
def sparse_products(draw):
    """A field (Q or F_7), sparse structure constants on a basis of size n
    (entries mostly empty) and two sparse vectors of length n."""
    field = Field(draw(st.sampled_from((0, 7))))
    n = draw(st.integers(0, 5))
    scalar = st.sampled_from((1, -1, 2, 3, Fraction(1, 2))).map(field.of)
    vector = st.dictionaries(st.integers(0, n - 1), scalar, max_size=n) if n else st.just({})
    table = [[draw(vector) for _ in range(n)] for _ in range(n)]
    return field, n, table, draw(vector), draw(vector)


@settings(max_examples=50, deadline=None)
@given(sparse_products())
def test_contract_is_the_bilinear_product_of_the_table(case):
    field, n, table, u, v = case
    du, dv = linal.dense(field, n, u), linal.dense(field, n, v)
    expected = linal.zero_vector(field, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = table[i][j].get(k, field.zero)
                expected[k] = field.add(expected[k], field.mul(field.mul(du[i], dv[j]), c))
    got = linal.contract(field, table, u, v)
    assert all(c != 0 for c in got.values())
    assert linal.dense(field, n, got) == expected
