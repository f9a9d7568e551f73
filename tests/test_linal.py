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
    rows = [[q.of(1), q.of(2), q.of(3)],
            [q.of(2), q.of(4), q.of(6)],
            [q.of(0), q.of(1), q.of(1)]]
    ech, pivots = linal.rref(q, rows)
    assert len(ech) == 2
    assert pivots == [0, 1]
    assert linal.rank(q, rows) == 2


def test_kernel_basis_matches_rank():
    q = Field(0)
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[q.of(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        ker = linal.kernel_basis(q, m, ncols=ncols)
        assert len(ker) == ncols - linal.rank(q, m)
        for v in ker:
            assert all(sum((r[j] * v[j] for j in range(ncols)), q.zero) == 0
                       for r in m)


def test_kernel_basis_empty_matrix():
    q = Field(0)
    ker = linal.kernel_basis(q, [], ncols=3)
    assert len(ker) == 3


def test_solve():
    q = Field(0)
    m = [[q.of(1), q.of(1)], [q.of(1), q.of(-1)]]
    sol = linal.solve(q, m, [q.of(3), q.of(1)])
    assert sol == [Fraction(2), Fraction(1)]
    assert linal.solve(q, [[q.of(1)], [q.of(1)]], [q.of(1), q.of(2)]) is None


def test_subspace_ops_and_quotient():
    q = Field(0)
    e = lambda i: linal.unit_vector(q, 3, i)
    span_a = [e(0), e(1)]
    span_b = [e(0)]
    assert linal.intersect(q, span_a, span_b) == [e(0)]
    assert linal.intersect(q, [e(0), e(1)], [e(1), e(2)]) == [e(1)]
    assert linal.intersect(q, [e(0)], [e(1)]) == []
    assert linal.quotient_reps(q, span_a, span_b) == [e(1)]
    # a non-echelon spanning set still gives the reduced section
    skew = [linal.vec_add(q, e(0), e(1)), e(2)]
    assert linal.quotient_reps(q, skew + [e(0)], [e(0)]) == [e(1), e(2)]
    with pytest.raises(QuotientUndefined):
        linal.quotient_reps(q, [e(0)], [e(1)])


def test_sparse_rank_agrees_with_dense():
    q = Field(0)
    rng = random.Random(11)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[q.of(rng.choice([0, 0, 1, -1, 2])) for _ in range(ncols)]
                 for _ in range(nrows)]
        sparse = [{j: v for j, v in enumerate(r) if v != 0} for r in dense]
        sparse = [r for r in sparse if r]
        assert linal.sparse_rank(q, sparse) == linal.rank(q, dense)


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
def matrices(draw):
    """A field (Q or F_7) and a rows x cols matrix, possibly empty, mostly zeros."""
    field = Field(draw(st.sampled_from((0, 7))))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, 3)).map(field.of)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return field, draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=25, deadline=None)
@given(matrices())
@example((Field(0), []))
@example((Field(7), [[0, 0, 0], [0, 0, 0]]))
@example((Field(0), [[], []]))
def test_rref_is_the_reduced_row_echelon_form(case):
    field, rows = case
    ech, pivots = linal.rref(field, rows)
    assert len(ech) == len(pivots)
    assert pivots == sorted(set(pivots))
    for r, (row, pc) in enumerate(zip(ech, pivots)):
        assert all(a == 0 for a in row[:pc])
        assert [other[pc] for other in ech] == [field.one if s == r else 0
                                               for s in range(len(ech))]
    assert (linal.rank(field, rows + ech) == linal.rank(field, rows)
            == linal.rank(field, ech) == len(ech))
    sparse = [{c: a for c, a in enumerate(row) if a != 0} for row in rows]
    assert linal.sparse_rank(field, sparse) == len(ech)


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
