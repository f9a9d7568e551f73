import pathlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import algebra, linal
from quiverhh.algebra import Presentation, Relation, build_algebra
from quiverhh.dsl import load_presentation
from quiverhh.errors import InvalidArrow, NotAdmissible, NotFiniteDimensional, TooLarge
from quiverhh.linal import Field
from quiverhh.quiver import Quiver
import reference
from reference import is_associative

Q = Field(0)


def presentation(vertices, arrows, relations, field=Q, cap=64):
    quiver = Quiver.make(vertices, arrows)
    return Presentation(quiver, tuple(Relation(tuple(terms)) for terms in relations),
                        field, cap)


def build(*args, **kwargs):
    return build_algebra(presentation(*args, **kwargs))


def test_path_algebra_of_dag():
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "2", "3")], [])
    # e1, e2, e3, a, b, ab
    assert t.dim == 6
    assert t.rad_dims == [6, 3, 1, 0]
    ab = t.path_vector(("a", "b"))
    assert ab == t.multiply(t.path_vector(("a",)), t.path_vector(("b",)))
    assert ab == {t.path_index[("a", "b")]: 1}


def test_truncated_polynomial_ring():
    t = build(["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]])
    assert t.dim == 3
    assert t.rad_dims == [3, 2, 1, 0]
    x = t.path_vector(("x",))
    x2 = t.multiply(x, x)
    assert x2 == t.path_vector(("x", "x")) != {}
    assert t.multiply(x2, x) == {}


def test_non_monomial_relation_rewrites():
    # bc rewrites to -ad, so bc and ad coincide up to sign in the quotient
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
              [[(1, ("a", "c"))], [(1, ("b", "d"))],
               [(1, ("a", "d")), (1, ("b", "c"))]])
    assert t.dim == 8  # three idempotents, four arrows, one length-2 class
    bc = t.path_vector(("b", "c"))
    ad = t.path_vector(("a", "d"))
    assert bc == {k: t.field.neg(v) for k, v in ad.items()} != {}
    assert t.path_vector(("a", "c")) == {}


def test_overlap_completion_detects_hidden_relations():
    # relations x^2 - yx and xy force other length-two products to collapse
    t = build(["1"], [("x", "1", "1"), ("y", "1", "1")],
              [[(1, ("x", "x")), (-1, ("y", "x"))],
               [(1, ("x", "y"))],
               [(1, ("y", "y"))]])
    assert is_associative(t.field, t.products)
    assert t.rad_dims[-1] == 0


def test_infinite_dimensional_rejected():
    with pytest.raises(NotFiniteDimensional):
        build(["1"], [("x", "1", "1")], [], cap=20)


def test_bare_arrow_relation_rejected():
    with pytest.raises(NotAdmissible):
        build(["1", "2"], [("a", "1", "2")], [[(1, ("a",))]])


def test_an_empty_library_relation_is_refused():
    """The front ends never build one; a library caller can."""
    with pytest.raises(NotAdmissible, match="empty relation"):
        build(["1"], [("x", "1", "1")], [[]])


def test_non_parallel_relation_rejected():
    with pytest.raises(NotAdmissible):
        build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "2", "3")],
              [[(1, ("a", "b")), (1, ("b",) * 2)]])


def test_non_admissible_power_series_style_rejected():
    # x^3 = x^4 gives an idempotent-like radical that never vanishes
    with pytest.raises((NotAdmissible, NotFiniteDimensional)):
        build(["1"], [("x", "1", "1")],
              [[(1, ("x", "x", "x")), (-1, ("x", "x", "x", "x"))]], cap=12)


def test_unknown_arrow_in_normal_form():
    t = build(["1"], [("x", "1", "1")], [[(1, ("x", "x"))]])
    with pytest.raises(InvalidArrow):
        t.normal_form([(1, ("z",))])


def test_trivial_path_in_normal_form_is_an_invalid_arrow():
    # the trivial paths of all vertices share the empty tuple
    t = build(["1", "2"], [("a", "1", "2")], [])
    with pytest.raises(InvalidArrow, match="trivial path"):
        t.normal_form([(1, ())])
    with pytest.raises(InvalidArrow, match="trivial path"):
        t.path_vector(())


def test_associativity_on_sample():
    t = build(["1", "2"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "1")],
              [[(1, ("a", "c"))], [(1, ("c", "a"))], [(1, ("c", "b"))],
               [(1, ("b", "c", "b"))]])
    assert is_associative(t.field, t.products)
    assert t.rad_dims[-1] == 0


def test_prime_field_build():
    f3 = Field(3)
    t = build(["1"], [("x", "1", "1")], [[(1, ("x", "x", "x"))]], field=f3)
    assert t.dim == 3
    x = t.path_vector(("x",))
    assert t.multiply(t.multiply(x, x), x) == {}


def test_unit_and_idempotents():
    t = build(["1", "2"], [("a", "1", "2")], [])
    one = t.unit()
    assert one == {0: 1, 1: 1}
    for i in range(t.dim):
        v = {i: t.field.one}
        assert t.multiply(one, v) == v
        assert t.multiply(v, one) == v


def paths_of_length(t, n):
    """Every composable path of n arrows."""
    paths = [()]
    for _ in range(n):
        paths = [p + (a.label,) for p in paths
                 for a in (t.quiver.arrows if not p else t.quiver.arrows_from(
                     t.quiver.arrow(p[-1]).target))]
    return paths


# ab = cde in the five-arrow square with a longer side: a relation between
# paths of lengths two and three
AB_CDE = (["1", "2", "3", "4", "5"],
          [("a", "1", "2"), ("b", "2", "5"), ("c", "1", "3"), ("d", "3", "4"), ("e", "4", "5")],
          [[(1, ("a", "b")), (-1, ("c", "d", "e"))]])


def ladder(n):
    """The commutative ladder A_2 x A_n: two rows of n vertices, each square
    commuting."""
    vertices = [f"{r}{j}" for r in "uv" for j in range(n)]
    arrows = ([(f"{r}{j}", f"{r}{j}", f"{r}{j + 1}") for r in "uv" for j in range(n - 1)]
              + [(f"s{j}", f"u{j}", f"v{j}") for j in range(n)])
    relations = [[(1, (f"u{j}", f"s{j + 1}")), (-1, (f"s{j}", f"v{j}"))] for j in range(n - 1)]
    return vertices, arrows, relations


def radsq_cycle(n):
    """The n-cycle of double arrows with every path of length two zero."""
    arrows = [(f"{s}{i}", str(i), str((i + 1) % n)) for i in range(n) for s in "ab"]
    relations = [[(1, (x, y))] for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    return [str(i) for i in range(n)], arrows, relations


def test_completion_queues_no_overlap_of_two_monomial_rules(monkeypatch):
    """Two monomial rules have a zero S-polynomial: on the radical-square-zero
    16-cycle (64 monomial relations) completion installs each relation
    once, and reduces none of the 128 overlaps."""
    added = []
    add = algebra._Rewriter.add

    def counted(self, poly):
        added.append(poly)
        return add(self, poly)

    monkeypatch.setattr(algebra._Rewriter, "add", counted)
    t = build(*radsq_cycle(16))
    assert len(t.groebner) == 64 and t.rad_dims == [48, 32, 0]
    assert len(added) == 64


@pytest.mark.parametrize("vertices,arrows,relations", [
    (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], []),
    (["1"], [("x", "1", "1")], [[(1, ("x",) * 5)]]),
    # x^2 = y^3 is not homogeneous, so x^2 lies in rad^3
    (["1"], [("x", "1", "1"), ("y", "1", "1")],
     [[(1, ("x", "x")), (-1, ("y", "y", "y"))], [(1, ("x", "y"))], [(1, ("y", "x"))]]),
    (["1", "2", "3"],
     [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
     [[(1, ("a", "c"))], [(1, ("b", "d"))], [(1, ("a", "d")), (1, ("b", "c"))]]),
    AB_CDE,
    ladder(3),
], ids=["dag", "truncated_loop", "non_homogeneous", "commutative_square", "ab_cde",
        "ladder_3"])
def test_radical_powers_match_products_of_arrows(vertices, arrows, relations):
    """rad^n is spanned by the images of the paths of length >= n; a path
    as long as the Loewy length is zero in A.  The last two have arrows
    leaving vertices other than the sources of the rows of rad^n."""
    t = build(vertices, arrows, relations)
    loewy = len(t.rad_dims) - 1
    assert not any(t.path_vector(p) for p in paths_of_length(t, loewy))
    for n in range(loewy + 2):
        if n == 0:
            spanning = [{i: t.field.one} for i in range(t.dim)]
        else:
            spanning = [t.path_vector(p) for m in range(n, loewy)
                        for p in paths_of_length(t, m)]
        assert t.radical_power_basis(n) == linal.span_basis(t.field, spanning)


def test_non_homogeneous_relation_deepens_the_radical():
    t = build(["1"], [("x", "1", "1"), ("y", "1", "1")],
              [[(1, ("x", "x")), (-1, ("y", "y", "y"))], [(1, ("x", "y"))], [(1, ("y", "x"))]])
    assert t.rad_dims == [5, 4, 2, 1, 0]
    assert t.radical_power_basis(3) == [t.path_vector(("x", "x"))]


def test_non_terminating_radical_filtration_is_not_admissible():
    # x^3 = x^4 leaves rad^4 = rad^3 = span(x^3), which never vanishes
    with pytest.raises(NotAdmissible, match="radical filtration does not terminate"):
        build(["1"], [("x", "1", "1")],
              [[(1, ("x", "x", "x")), (-1, ("x", "x", "x", "x"))]], cap=12)


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))
X2_Y3 = ("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n"
         "relation x*x - y*y*y\nrelation x*y\nrelation y*x\n")


def filtration_outcomes(presentation):
    """The radical filtration of a build and that of the row-reducing
    reference on the same table columns: each the list of bases or the
    NotAdmissible message; None when the build stops before the filtration."""
    seen = []
    real = algebra._radical_filtration

    def both(field, basis_paths, columns, drops):
        try:
            seen.append(reference.radical_filtration(field, basis_paths, columns))
        except NotAdmissible as e:
            seen.append(str(e))
        return real(field, basis_paths, columns, drops)

    with mock.patch.object(algebra, "_radical_filtration", both):
        try:
            got = build_algebra(presentation).rad_bases
        except NotAdmissible as e:
            got = str(e)
        except NotFiniteDimensional:
            return None
    return got, seen[0]


FIELDS = st.sampled_from([Field(0), Field(2), Field(3), Field(5)])


@st.composite
def mixed_length_presentations(draw):
    """<x, y>/(x^a - c*y^b, xy, yx) with 2 <= a < b <= 6, whose products
    y^(b-1) * y = c^-1 x^a drop in length; one loop with x^a - c*x^b,
    which is not admissible; or random binomials with every path of length
    4 zero."""
    field = draw(FIELDS)
    p = field.characteristic
    c = draw(st.sampled_from([1, -1, 2, 3, -4, 6]).filter(lambda c: p == 0 or c % p))
    a = draw(st.integers(2, 5))
    b = draw(st.integers(a + 1, 6))
    kind = draw(st.sampled_from(["xy", "x", "random"]))
    if kind == "xy":
        q = Quiver.make(["1"], [("x", "1", "1"), ("y", "1", "1")])
        rels = [[(1, ("x",) * a), (-c, ("y",) * b)], [(1, ("x", "y"))], [(1, ("y", "x"))]]
        return Presentation(q, tuple(Relation(tuple(r)) for r in rels), field, 12)
    if kind == "x":
        q = Quiver.make(["1"], [("x", "1", "1")])
        rel = Relation(((1, ("x",) * a), (-c, ("x",) * b)))
        return Presentation(q, (rel,), field, 12)
    return draw(random_binomials(field))


@st.composite
def random_binomials(draw, field, truncated=True):
    """Random monomials and binomials of lengths 2 to 4 on at most two
    vertices and three arrows; truncated, every path of length 4 is zero
    too, so that the completion ends, else the cap is 3, at which some
    completions are refused."""
    vertices = ["1", "2"][:draw(st.integers(1, 2))]
    arrows = [(f"a{k}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
              for k in range(draw(st.integers(1, 3)))]
    q = Quiver.make(vertices, arrows)
    paths = {1: [(l,) for l, _, _ in arrows]}
    for n in range(2, 5):
        paths[n] = [w + (l,) for w in paths[n - 1] for l, s, _ in arrows
                    if q.arrow(w[-1]).target == s]
    ends = {w: (q.arrow(w[0]).source, q.arrow(w[-1]).target)
            for n in (2, 3, 4) for w in paths[n]}
    rels = [Relation(((1, w),)) for w in paths[4]] if truncated else []
    for _ in range(draw(st.integers(0, 3))):
        if not paths[2] + paths[3]:
            break
        u = draw(st.sampled_from(paths[2] + paths[3]))
        parallel = [w for w in ends if ends[w] == ends[u] and w != u]
        terms = [(1, u)]
        if parallel and draw(st.booleans()):
            terms.append((draw(st.sampled_from([1, -1, 2, 3])), draw(st.sampled_from(parallel))))
        rels.append(Relation(tuple(terms)))
    return Presentation(q, tuple(rels), field, 12 if truncated else 3)


@settings(max_examples=150, deadline=None)
@given(mixed_length_presentations())
def test_radical_filtration_matches_the_row_reducing_reference(presentation):
    """rad_bases equals, row for row, the reduced bases that the reference
    finds by row reduction of rad^n times every arrow, and both refuse the
    same presentations as not admissible."""
    outcomes = filtration_outcomes(presentation)
    if outcomes is not None:
        got, expected = outcomes
        assert got == expected


A8_DOUBLED = ("field Q\nvertex " + " ".join(map(str, range(1, 9)))
              + "".join(f"\narrow a{i} {i} {i + 1}" for i in range(1, 8)) + "\narrow b 1 2\n")
X15_F5 = "field fp:5\nvertex 1\narrow x 1 1\nrelation " + "*".join(["x"] * 15) + "\n"


@pytest.mark.parametrize("text,reduced,nonempty", [
    (A8_DOUBLED, [], False),
    (X15_F5, [("x",) * 15], False),
    (X2_Y3, [("x", "x", "x"), ("x", "x", "y"), ("x", "y"), ("y", "x"), ("y", "y", "x"),
             ("y", "y", "y")], True),
], ids=["a8_doubled", "x15_fp5", "x2_y3"])
def test_table_fill_reduces_only_words_that_are_not_normal(text, reduced, nonempty):
    """A product whose word is a basis monomial is read from the index: the
    fill sends to the rewriter only the words of a basis monomial and an
    arrow that are not normal.  Under homogeneous relations no product
    drops in length, so the radical filtration hands span_basis only empty
    lists; x^2 = y^3 makes y^2 * y drop to x^2, and a nonempty call."""
    words, calls = [], []
    complete, span_basis = algebra._complete, linal.span_basis

    def completed(*args):
        rw = complete(*args)
        reduce = rw.reduce

        def reduce_in_fill(poly):
            words.extend(poly)
            return reduce(poly)

        rw.reduce = reduce_in_fill
        return rw

    def spanned(field, vectors):
        calls.append(list(vectors))
        return span_basis(field, vectors)

    with mock.patch.object(algebra, "_complete", completed), \
            mock.patch.object(linal, "span_basis", spanned):
        t = build_algebra(load_presentation(text))
    assert sorted(words) == sorted(reduced)
    assert not any(w in t.path_index for w in words)
    assert len(calls) == len(t.rad_bases) - 2
    assert any(calls) == nonempty
    assert t.rad_bases == reference.radical_filtration(t.field, t.basis_paths, t.columns)


@pytest.mark.parametrize("text", [p.read_text() for p in CORPUS] + [X2_Y3],
                         ids=[p.stem for p in CORPUS] + ["x2_y3"])
def test_proper_factors_of_rule_words_and_basis_monomials_are_indexed(text):
    """The product rule reads prefixes and suffixes of these words by index."""
    t = build_algebra(load_presentation(text))
    assert t.path_index == {p: i for i, p in enumerate(t.basis_paths) if p}
    words = [w for g in t.groebner for w in g] + list(t.path_index)
    for w in words:
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                if j - i < len(w):
                    assert w[i:j] in t.path_index, (w, w[i:j])


def assert_products_are_reductions(t):
    """products[i][j] stores no zero and is empty unless basis_i and basis_j
    compose; a vertex acts as the identity, and each product of nontrivial
    paths is the normal form of their word, reduced by the rewriter."""
    for i, p in enumerate(t.basis_paths):
        for j, q in enumerate(t.basis_paths):
            entry = t.products[i][j]
            assert all(c != 0 for c in entry.values())
            if t.basis_target[i] != t.basis_source[j]:
                assert entry == {}
            elif not p or not q:
                assert entry == {j if not p else i: 1}
            else:
                assert entry == t.path_vector(p + q)


def test_zero_products_are_the_one_shared_read_only_entry():
    """A_8 with its first arrow doubled (dim 43, 1,849 cells) has 155 nonzero
    products: only those get a dict of their own, and every zero entry of
    products and of columns is linal.ZERO."""
    vertices = [str(i) for i in range(1, 9)]
    arrows = [("b", "1", "2")] + [(f"a{i}", str(i), str(i + 1)) for i in range(1, 8)]
    t = build(vertices, arrows, [])
    assert t.dim == 43
    cells = [e for row in t.products for e in row]
    assert sum(1 for e in cells if e) == 155
    entries = cells + [e for column in t.columns.values() for e in column]
    assert len({id(e) for e in entries}) <= 156
    assert all(e is linal.ZERO for e in entries if not e)


SPARSE_CASES = {
    "x15_fp5": lambda: build(["1"], [("x", "1", "1")], [[(1, ("x",) * 15)]], field=Field(5)),
    "ab_cde": lambda: build(*AB_CDE),
    "radsq_cycle_4": lambda: build(*radsq_cycle(4)),
    "ladder_4": lambda: build(*ladder(4)),
}


@pytest.mark.parametrize("case", CORPUS + list(SPARSE_CASES),
                         ids=lambda c: getattr(c, "stem", c))
def test_sparse_products_are_the_dense_table(case):
    if case in SPARSE_CASES:
        t = SPARSE_CASES[case]()
    else:
        t = build_algebra(load_presentation(case.read_text()))
    assert_products_are_reductions(t)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_products_by_a_basis_vector_read_the_table(path):
    """linal.combine over the column k or the row k of the table is the
    product u * x_k or x_k * u that linal.contract forms with a unit
    vector, for every x_k and every u among the basis vectors, the rows of
    the radical filtration and one vector with every coefficient set; the
    table keeps the column of each arrow as read there."""
    t = build_algebra(load_presentation(path.read_text()))
    f, table = t.field, t.products
    assert t.columns == {a: [row[a] for row in table]
                         for a, p in enumerate(t.basis_paths) if len(p) == 1}
    weights = {i: c for i in range(t.dim) if (c := f.of(i + 2))}
    for k in range(t.dim):
        unit, column = {k: f.one}, [row[k] for row in table]
        for u in [v for basis in t.rad_bases for v in basis] + [weights]:
            assert linal.combine(f, (u, column)) == linal.contract(f, table, u, unit)
            assert linal.combine(f, (u, table[k])) == linal.contract(f, table, unit, u)


WORDS = st.lists(st.sampled_from("xy"), min_size=1, max_size=6).map(tuple)


@st.composite
def binomial_presentations(draw):
    """Two loops x, y over Q or F_p with x^a, y^b, xy - c*yx and one or two
    random binomials u + c*v of length 2..4, possibly of unequal lengths;
    xy - c*yx keeps the algebra finite-dimensional."""
    field = Field(draw(st.sampled_from([0, 5, 7])))
    coef = st.sampled_from([1, -1, 2, -3, Fraction(2, 3), Fraction(-1, 2)])
    long_words = st.lists(st.sampled_from("xy"), min_size=2, max_size=4).map(tuple)
    rels = [[(1, ("x",) * draw(st.integers(2, 5)))], [(1, ("y",) * draw(st.integers(2, 5)))],
            [(1, ("x", "y")), (draw(coef), ("y", "x"))]]
    for _ in range(draw(st.integers(1, 2))):
        u = draw(long_words)
        v = draw(long_words.filter(lambda w: w != u))
        rels.append([(draw(coef), u), (draw(coef), v)])
    return presentation(["1"], [("x", "1", "1"), ("y", "1", "1")], rels, field=field)


@settings(max_examples=40, deadline=None)
@given(binomial_presentations())
def test_sparse_products_are_the_dense_table_on_binomial_presentations(p):
    assert_products_are_reductions(build_algebra(p))


@settings(max_examples=60, deadline=None)
@given(binomial_presentations(), st.data())
def test_rewriting_is_a_reduced_complete_system(p, data):
    """The completed rules of a binomial presentation are reduced (normal
    tails, no lead a factor of another), monic and confluent, lengths
    holds exactly the lead lengths, and reduction is linear onto normal
    monomials."""
    t = build_algebra(p)
    field, rw = t.field, t.rewriter
    key = lambda path: (len(path), [rw.order[l] for l in path])  # length-then-lex
    assert rw.lengths == sorted({len(lead) for lead in rw.rules})
    for lead, rule in rw.rules.items():
        tail = dict(list(rule.items())[1:])
        assert rw.reduce(tail) == tail
        assert not any(other != lead and lead in [other[i:i + len(lead)]
                                                  for i in range(len(other))]
                       for other in rw.rules)
    for g in t.groebner:
        assert list(g) == sorted(g, key=key, reverse=True)
        assert g[next(iter(g))] == 1
        assert rw.reduce(g) == {}

    def poly():
        words = data.draw(st.lists(WORDS, min_size=1, max_size=4, unique=True))
        return {w: field.of(data.draw(st.integers(1, 4))) for w in words}

    p, q = poly(), poly()
    c = field.of(data.draw(st.sampled_from([1, -1, 3, Fraction(1, 2)])))
    combo, image = dict(p), rw.reduce(p)
    linal.add_multiple(field, combo, c, q)
    linal.add_multiple(field, image, c, rw.reduce(q))
    assert rw.reduce(combo) == image
    for red in (rw.reduce(p), rw.reduce(q), rw.reduce(combo)):
        for path in red:
            assert not any(path[i:i + len(lead)] == lead
                           for lead in rw.rules for i in range(len(path))), path
    assert is_associative(field, t.products)


def completions(presentation):
    """The rules of the completion of a presentation's relations and those
    of the interreducing reference on the same generators: each the rule
    dict or the NotFiniteDimensional message."""
    seen = []
    real = algebra._complete

    def both(*args):
        try:
            expected = reference.complete(*args).rules
        except NotFiniteDimensional as e:
            expected = str(e)
        try:
            rw = real(*args)
        except NotFiniteDimensional as e:
            seen.append((str(e), expected))
            raise
        seen.append((rw.rules, expected))
        return rw

    with mock.patch.object(algebra, "_complete", both):
        try:
            build_algebra(presentation)
        except (NotAdmissible, NotFiniteDimensional):
            pass
    return seen[0]


@settings(max_examples=200, deadline=None)
@given(st.one_of(binomial_presentations(),
                 FIELDS.flatmap(random_binomials),
                 FIELDS.flatmap(lambda f: random_binomials(f, truncated=False))))
def test_completion_matches_the_interreducing_reference(presentation):
    """A reduced rewriting system is unique for the order: the completion
    from one heap of critical pairs gives the reference's rules, each with
    its lead first, and refuses the same presentations."""
    got, expected = completions(presentation)
    assert got == expected
    if isinstance(got, dict):
        assert all(next(iter(rule)) == lead for lead, rule in got.items())


@pytest.mark.parametrize("relations", [[[(1, ("x", "y", "y"))], [(1, ("x", "y"))]],
                                       [[(1, ("x", "y"))], [(1, ("x", "y", "y"))]]],
                         ids=["xyy_first", "xy_first"])
def test_window_length_is_read_off_the_reduced_leads(relations):
    """xy is a factor of xyy, so the reduced system is xy alone, in either
    order of installing them, and the windows of the infinitely many
    normal words y^a x^b have length 1."""
    with pytest.raises(NotFiniteDimensional, match="repeats a factor of length 1,"):
        build(["1"], [("x", "1", "1"), ("y", "1", "1")], relations, cap=16)


def outcome(f, *args):
    """f(*args), or the NotFiniteDimensional it raises."""
    try:
        return f(*args)
    except NotFiniteDimensional as e:
        return e


@settings(max_examples=200, deadline=None)
@given(st.one_of(binomial_presentations(),
                 FIELDS.flatmap(random_binomials),
                 FIELDS.flatmap(lambda f: random_binomials(f, truncated=False))))
def test_normal_words_match_the_graph_of_words_reference(presentation):
    """On the same completed system, the walks in the graph of lead
    prefixes list the reference's basis whenever the reference finishes,
    and both refuse the same presentations; with the cap past the window
    length, where the reference runs its cycle test, with equal messages."""
    seen = []
    real = algebra._normal_monomials

    def both(q, rw, cap):
        span = max(rw.lengths, default=2) - 1
        seen.append((outcome(real, q, rw, cap),
                     outcome(reference.normal_monomials, q, rw, cap), cap > span))
        return real(q, rw, cap)

    with mock.patch.object(algebra, "_normal_monomials", both):
        try:
            build_algebra(presentation)
        except (NotAdmissible, NotFiniteDimensional):
            pass
    if seen:
        got, expected, past_span = seen[0]
        if isinstance(expected, list):
            assert got == expected
        else:
            assert isinstance(got, NotFiniteDimensional)
            if past_span:
                assert str(got) == str(expected)


def test_a_cycle_is_refused_before_any_word_is_listed():
    """x * y^5 has no self-overlap, so it is its own reduced system, and
    every power of x is a normal word: the graph of lead prefixes says so
    at cap 4, below the window length 5, where listing the words level by
    level would stop at the cap instead."""
    with pytest.raises(NotFiniteDimensional, match="repeats a factor of length 5,"):
        build(["1"], [("x", "1", "1"), ("y", "1", "1")], [[(1, ("x",) + ("y",) * 5)]], cap=4)


COMMUTATIVE_CUBES = ("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n"
                     "relation x*y - y*x\nrelation x*x*x\nrelation y*y*y\n")


def test_the_rewriter_refuses_a_build_past_its_step_budget(monkeypatch):
    """MAX_STEPS bounds the heap pops of reduce over one build, counted in
    the loop: a build of exactly the budget passes, one step less refuses."""
    p = load_presentation(COMMUTATIVE_CUBES)
    steps = build_algebra(p).rewriter.steps
    assert 0 < steps < algebra.MAX_STEPS
    monkeypatch.setattr(algebra, "MAX_STEPS", steps)
    assert build_algebra(p).dim == 9
    monkeypatch.setattr(algebra, "MAX_STEPS", steps - 1)
    with pytest.raises(TooLarge, match=f"rewriting exceeds {steps - 1} reduction steps"):
        build_algebra(p)
