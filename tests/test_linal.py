import copy
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quiverhh import linal
from quiverhh.errors import QuotientUndefined
from quiverhh.linal import Field
import reference


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
    for c in (0, 5):
        f = Field(c)
        assert f.zero is f.zero and f.one is f.one
        assert type(f.zero) is int and type(f.one) is int
        assert (f.zero, f.one) == (0, 1)
    assert repr(Field(0).zero) == "0" and repr(Field(0).one) == "1"
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
        rows = [reference.sparse(r) for r in m]
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
    assert reference.quotient_reps(q, span_a, span_b) == [e(1)]
    # a non-echelon spanning set still gives the reduced section
    skew = [{0: q.one, 1: q.one}, e(2)]
    assert reference.quotient_reps(q, skew + [e(0)], [e(0)]) == [e(1), e(2)]
    with pytest.raises(QuotientUndefined):
        reference.quotient_reps(q, [e(0)], [e(1)])


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
        columns = [reference.sparse(col) for col in zip(*dense)]
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
    reps = reference.quotient_reps(field, rows, sub)
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
    du, dv = reference.dense(field, n, u), reference.dense(field, n, v)
    expected = [field.zero] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = table[i][j].get(k, field.zero)
                expected[k] = field.add(expected[k], field.mul(field.mul(du[i], dv[j]), c))
    got = linal.contract(field, table, u, v)
    assert all(c != 0 for c in got.values())
    assert reference.dense(field, n, got) == expected


# -- the scalar representation over Q: an int when integral --------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# as drawn: ints, integral Fractions such as Fraction(4, 2), and proper ones
raw_rationals = st.one_of(st.integers(-3, 3), rationals)


def is_normal(a) -> bool:
    """An int, or a Fraction that is not an integer."""
    return type(a) is int or (type(a) is Fraction and a.denominator != 1)


def fraction_rref(m: list) -> tuple[list, list]:
    """Gauss-Jordan on a dense matrix in Fractions only: (rows, pivots)."""
    m = [[Fraction(a) for a in row] for row in m]
    pivots: list = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


@st.composite
def rational_rows(draw):
    ncols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), raw_rationals, max_size=ncols)
    return ncols, draw(st.lists(row, max_size=6))


@settings(max_examples=80, deadline=None)
@given(rational_rows())
# back-substitution leaves 3/2 - 1/2 * 1 = 1 in a reduced row
@example((3, [{0: 1, 1: Fraction(1, 2), 2: Fraction(3, 2)}, {1: 1, 2: 1}]))
def test_rational_elimination_is_fraction_gauss_jordan_with_int_entries(case):
    ncols, rows = case
    q = Field(0)
    ref_rows, ref_pivots = fraction_rref([reference.dense(q, ncols, r) for r in rows])
    ech, pivots = linal.rref(q, rows)
    assert pivots == ref_pivots
    assert [reference.dense(q, ncols, r) for r in ech] == ref_rows
    free = [c for c in range(ncols) if c not in ref_pivots]
    ref_kernel = [[Fraction(int(k == c)) for k in range(ncols)] for c in free]
    for row, pc in zip(ref_rows, ref_pivots):
        for v, c in zip(ref_kernel, free):
            v[pc] = -row[c]
    ker = linal.kernel_basis(q, rows, ncols)
    assert [reference.dense(q, ncols, v) for v in ker] == ref_kernel
    assert all(is_normal(a) for v in ech + ker for a in v.values())


@settings(max_examples=80, deadline=None)
@given(raw_rationals, raw_rationals)
def test_rational_field_operations_return_int_when_integral(a, b):
    q = Field(0)
    results = [(q.of(a), a), (q.add(q.of(a), q.of(b)), a + b),
               (q.sub(q.of(a), q.of(b)), a - b), (q.mul(q.of(a), q.of(b)), a * b)]
    if a != 0:
        results.append((q.inv(q.of(a)), 1 / Fraction(a)))
    for got, want in results:
        assert got == want and is_normal(got)


def test_the_shared_zero_entry_is_read_only():
    """Every zero structure constant is linal.ZERO, so a write into it
    raises at once instead of changing all of them."""
    assert linal.ZERO == {} and not linal.ZERO
    with pytest.raises(TypeError):
        linal.ZERO[0] = 1
    with pytest.raises(TypeError):
        linal.add_multiple(Field(0), linal.ZERO, 1, {0: 1})
    assert linal.ZERO == {}


@pytest.mark.parametrize("field", [Field(5), Field(0)], ids=["F5", "Q"])
def test_elimination_leaves_its_input_rows_alone(field):
    """Pivot rows with lead 1 are kept as they are, and those with lead -1
    negated: each is the elimination's own copy, never an input dict, so
    back-substitution cannot write into the caller's rows."""
    two = Fraction(4, 2) if field.characteristic == 0 else 2  # a Fraction over Q
    rows = [{0: 1, 4: two}, {1: field.neg(1), 2: 1}, {0: 1, 1: 1, 3: two},
            {2: field.neg(1), 3: 1}]
    before = copy.deepcopy(rows)
    types = lambda vectors: [[type(a) for a in v.values()] for v in vectors]  # noqa: E731
    for out in (linal.rref(field, rows)[0], linal.span_basis(field, rows),
                linal.kernel_basis(field, rows, 5)):
        assert rows == before and types(rows) == types(before)
        assert not any(v is r for v in out for r in rows)
        assert no_zeros(out) and all(is_normal(a) for v in out for a in v.values())
