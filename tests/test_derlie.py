import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import derlie, linal
from quiverhh.algebra import Presentation, Relation, build_algebra
from quiverhh.analysis import run_analyze
from quiverhh.derlie import (DerivationLayout, HH1Result, delta_defined, delta_map,
                             derivation_space, hh1, inner_space, lie_from_quotient,
                             loop_criterion, radical_part, radical_preserving)
from quiverhh.dsl import load_presentation
from quiverhh.errors import DeltaUndefined, InvalidArrow, UnsupportedCharacteristic
from quiverhh.kron import decomposition_report, maximal_chains
from quiverhh.linal import Field
from quiverhh.quiver import Quiver, reptype_radsq
from test_algebra import radsq_cycle
from test_kron import linked_cycle
import reference

Q = Field(0)


def presentation(vertices, arrows, relations, field=Q):
    quiver = Quiver.make(vertices, arrows)
    rels = tuple(Relation(tuple(terms)) for terms in relations)
    return Presentation(quiver, rels, field)


def build(vertices, arrows, relations, field=Q):
    return build_algebra(presentation(vertices, arrows, relations, field))


def sl2_image(dm, vec):
    """(x, y, z) of the sl2 image of a sparse source vector, read from the
    H, E and F rows of the projection."""
    return tuple(dm.field.of(sum(row.get(k, 0) * c for k, c in vec.items()))
                 for row in dm.rows)


def truncated_loop(n, field=Q):
    return build(["1"], [("x", "1", "1")], [[(1, ("x",) * n)]], field=field)


def test_truncated_loop_derivations():
    for n in (3, 4, 5):
        t = truncated_loop(n)
        layout, der = derivation_space(t)
        assert len(der) == n - 1
        # the echelon basis is exactly x -> x^i for i = 1..n-1
        for i, v in enumerate(der, start=1):
            assert reference.sparse_value(layout, v, "x") == {t.path_index[("x",) * i]: 1}


def test_truncated_loop_bracket_table():
    """Every structure constant of HH1 and HH1_rad of k[x]/(x^n) against
    the Witt closed form [x^i d, x^j d] = (j - i) x^(i+j-1) d, zero once
    i + j - 1 >= n.  Der is spanned by the x^m d with m >= 1, and also by
    d = x^0 d when p | n (d(x^n) = n x^(n-1) d(x)); Inn = 0.  HH1 lists the
    radical-preserving classes first, so x^0 d is its last basis vector."""
    for n, field in [(4, Q), (10, Field(5)), (15, Field(5)), (10, Field(7)), (15, Field(7))]:
        t = truncated_loop(n, field)
        assert t.basis_paths == [("x",) * m for m in range(n)]
        divides = field.characteristic and n % field.characteristic == 0
        full = hh1(t)
        for rad_only, lie in ((False, full.lie), (True, radical_part(full).lie)):
            exps = list(range(1, n)) + ([0] if divides and not rad_only else [])
            assert [reference.sparse_value(lie.layout, v, "x") for v in lie.reps] == \
                [{m: field.one} for m in exps]
            at = {m: r for r, m in enumerate(exps)}
            for r, i in enumerate(exps):
                for s, j in enumerate(exps):
                    c = field.of(j - i)
                    expected = {at[i + j - 1]: c} if c and i + j - 1 < n else {}
                    assert lie.structure[r][s] == expected, (n, field, rad_only, i, j)


def test_truncated_loop_solvable_chain():
    lie = hh1(truncated_loop(5)).lie
    assert lie.is_solvable()


def test_witt_algebra_mod_3():
    t = truncated_loop(3, field=Field(3))
    layout, der = derivation_space(t)
    assert len(der) == 3  # x -> 1 is also a derivation since 3x^2 = 0
    rad = radical_preserving(layout, der)
    assert len(rad) == 2
    full = hh1(t)
    assert not full.lie.is_solvable()
    radl = radical_part(full)
    assert radl.lie.is_solvable()


def test_loop_criterion():
    rep = loop_criterion(truncated_loop(3))
    assert rep.orders == {"x": 3}
    assert rep.holds
    rep3 = loop_criterion(truncated_loop(3, field=Field(3)))
    assert rep3.orders == {"x": 3}
    assert not rep3.holds
    rep5 = loop_criterion(truncated_loop(3, field=Field(5)))
    assert rep5.holds


def test_loop_criterion_reads_pivots_of_rows_with_several_entries():
    # y^2 = y*x^2 puts y^2 in rad^3; with x*y = 2*y*x - y^2, rad^3 is spanned
    # by x^3 and x*y - 2*y*x, a stored row with two nonzero entries
    t = build(["1"], [("x", "1", "1"), ("y", "1", "1")],
              [[(1, ("y", "y")), (-1, ("y", "x", "x"))],
               [(1, ("x", "y")), (-2, ("y", "x")), (1, ("y", "y"))],
               [(1, ("x",) * 4)]])
    assert t.rad_dims == [7, 6, 4, 2, 0]
    assert any(len(row) > 1 for row in t.rad_bases[3])
    assert loop_criterion(t).orders == {"x": 4, "y": 2}


def kronecker_table(field=Q):
    return build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [], field=field)


def test_kronecker_spaces():
    t = kronecker_table()
    layout, der = derivation_space(t)
    assert len(der) == 4  # gl2 acting on the arrow span
    inn = inner_space(layout)
    assert len(inn) == 1
    res = hh1(t)
    assert res.lie.dim == 3
    assert not res.lie.is_solvable()


def test_inner_derivations_are_derivations():
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")],
              [[(1, ("a", "c"))]])
    layout, der = derivation_space(t)
    inn = inner_space(layout)
    der_ech = linal.span_basis(t.field, der)
    for v in inn:
        assert not linal.reduce_against(t.field, v, der_ech)


def test_delta_defined():
    q = Quiver.make(["1", "2", "3"],
                    [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")])
    assert delta_defined(q, "a", "b")
    assert not delta_defined(q, "a", "c")
    assert not delta_defined(q, "c", "c")  # one isolated arrow is not a pair
    q2 = Quiver.make(["1", "2"],
                     [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])
    assert not delta_defined(q2, "a", "b")  # a third parallel arrow intrudes


def test_delta_map_on_kronecker():
    res = radical_part(hh1(kronecker_table()))
    dm = delta_map(res.lie, "a", "b")
    assert dm.surjective
    assert linal.kernel_basis(dm.field, dm.rows, dm.dim) == []
    # images must satisfy the sl2 bracket through the quotient bracket
    f = res.lie.field
    for i in range(res.lie.dim):
        for j in range(res.lie.dim):
            (ax, ay, az), (bx, by, bz) = sl2_image(dm, {i: f.one}), sl2_image(dm, {j: f.one})
            x = f.sub(f.mul(ay, bz), f.mul(az, by))
            y = f.mul(f.of(2), f.sub(f.mul(ax, by), f.mul(ay, bx)))
            z = f.mul(f.of(2), f.sub(f.mul(bx, az), f.mul(ax, bz)))
            assert sl2_image(dm, res.lie.structure[i][j]) == (x, y, z)


def test_delta_map_refuses_characteristic_two():
    res = radical_part(hh1(kronecker_table(field=Field(2))))
    with pytest.raises(UnsupportedCharacteristic):
        delta_map(res.lie, "a", "b")


def test_delta_map_refuses_non_isolated_pair():
    t = build(["1", "2"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")], [])
    res = radical_part(hh1(t))
    with pytest.raises(DeltaUndefined):
        delta_map(res.lie, "a", "b")


def test_delta_map_refuses_an_undeclared_arrow():
    res = radical_part(hh1(kronecker_table()))
    with pytest.raises(InvalidArrow, match="'zz'"):
        delta_map(res.lie, "a", "zz")
    with pytest.raises(InvalidArrow, match="'zz'"):
        delta_defined(res.lie.layout.table.quiver, "zz", "b")


def test_jacobi_identity_on_quotient():
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
              [[(1, ("a", "c"))], [(1, ("b", "d"))],
               [(1, ("a", "d")), (1, ("b", "c"))]])
    assert_bracket_axioms(hh1(t).lie)


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))


def assert_bracket_axioms(lie):
    """Antisymmetry and the Jacobi identity on basis triples, each double
    bracket contracted through the structure constants."""
    f, dim, structure = lie.field, lie.dim, lie.structure
    for i in range(dim):
        for j in range(dim):
            assert structure[i][j] == {k: f.neg(c) for k, c in structure[j][i].items()}
            for k in range(dim):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    linal.add_multiple(f, total, f.one,
                                       linal.contract(f, structure, {a: f.one}, structure[b][c]))
                assert total == {}


def test_zero_brackets_are_the_one_shared_read_only_entry():
    """On the radical-square-zero 8-cycle of double arrows (dim HH1 = 25)
    only a nonzero bracket gets a dict of its own, every zero bracket is
    linal.ZERO, and [x_j, x_i] is the negation of [x_i, x_j]."""
    lie = derlie.hh1(build(*radsq_cycle(8))).lie
    s, neg = lie.structure, lie.field.neg
    assert lie.dim == 25
    entries = [e for row in s for e in row]
    assert len({id(e) for e in entries}) <= 1 + sum(1 for e in entries if e)
    assert all(e is linal.ZERO for e in entries if not e)
    assert all(s[j][i] == {k: neg(c) for k, c in s[i][j].items()}
               for i in range(lie.dim) for j in range(lie.dim))


def bracket_by_commutators(res):
    """Every bracket entry the direct way: the commutator of the actions on
    all of A, composed column by column, read on the arrows and solved in
    (reps | inn) coordinates."""
    lie, layout = res.lie, res.layout
    t = layout.table
    f = t.field
    acts = [reference.action_columns(layout, v, range(t.dim)) for v in lie.reps]
    inn = inner_space(layout)
    cols = lie.reps + inn
    matrix = [{k: col[r] for k, col in enumerate(cols) if r in col} for r in range(layout.size)]

    def apply(act, u):
        out = {}
        for k, c in u.items():
            linal.add_multiple(f, out, c, act[k])
        return out

    table = []
    for i in range(lie.dim):
        row = []
        for j in range(lie.dim):
            comm = {}
            for s, (label, bi) in enumerate(layout.slots):
                a = t.arrow_index(label)
                c = f.sub(apply(acts[i], acts[j][a]).get(bi, 0),
                          apply(acts[j], acts[i][a]).get(bi, 0))
                if c != 0:
                    comm[s] = c
            sol = linal.solve(f, matrix, comm)
            assert sol is not None
            row.append({k: a for k, a in sol.items() if k < lie.dim})
        table.append(row)
    return table


@pytest.mark.parametrize("path", CORPUS + ["x15_fp5"],
                         ids=lambda p: getattr(p, "stem", p))
def test_batched_bracket_matches_commutators(path):
    if path == "x15_fp5":
        t = truncated_loop(15, field=Field(5))
    else:
        t = build_algebra(load_presentation(path.read_text()))
    full = hh1(t)
    for res in (full, radical_part(full)):
        assert res.lie.structure == bracket_by_commutators(res)
        assert_bracket_axioms(res.lie)


def test_bracket_leaving_the_space_is_refused():
    # Inn + {a -> b} + {b -> a} on the Kronecker quiver is not closed:
    # [E, F] = H = (a -> a) - (b -> b) lies outside it.
    t = kronecker_table()
    layout, _ = derivation_space(t)
    inn = inner_space(layout)

    def arrow_to(a, b):
        return {layout.slots.index((a, t.arrow_index(b))): t.field.one}

    section = [arrow_to("a", "b"), arrow_to("b", "a")]
    with pytest.raises(AssertionError, match="left the derivation space"):
        lie_from_quotient(layout, section, inn)


@pytest.mark.parametrize("t", [kronecker_table(), truncated_loop(10, Field(3))],
                         ids=["kronecker_Q", "x10_fp3"])
def test_radical_part_is_the_full_hh1_when_the_cut_keeps_der(monkeypatch, t):
    """With no loop, or with a loop of order 10 prime to 3, every derivation
    preserves the radical: the full HH1 is returned and nothing is bracketed."""
    full = hh1(t)
    calls = []
    monkeypatch.setattr(derlie, "lie_from_quotient", lambda *args: calls.append(args))
    assert radical_part(full) is full
    assert calls == []


def test_hh1_rad_shares_the_lie_algebra_when_the_cut_is_a_no_op():
    kron = run_analyze(presentation(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], []))
    assert kron.hh1_rad.lie is kron.hh1.lie
    report = run_analyze(presentation(["1"], [("x", "1", "1")], [[(1, ("x",) * 15)]],
                                      field=Field(5)))
    assert report.hh1_rad.lie is not report.hh1.lie
    assert (report.hh1.lie.dim, report.hh1_rad.lie.dim) == (15, 14)
    assert report.hh1_rad.lie.structure == radical_part(hh1(report.table)).lie.structure


def test_derived_series_is_computed_once():
    lie = hh1(truncated_loop(5)).lie
    first = lie.derived_series()
    first.append(-1)
    assert lie.derived_series() == first[:-1]
    assert "_derived_dims" in vars(lie)


def derived_series_of_all_ordered_pairs(lie, start):
    """The derived series with [S, S] spanned by [u, v] for every ordered
    pair of S's echelon basis, the diagonal included."""
    f = lie.field
    cur = linal.span_basis(f, start)
    dims = [len(cur)]
    while cur:
        prods = [linal.contract(f, lie.structure, u, v) for u in cur for v in cur]
        nxt = linal.span_basis(f, [p for p in prods if p])
        dims.append(len(nxt))
        if len(nxt) == len(cur):
            break
        cur = nxt
    return dims


@pytest.mark.parametrize("case", CORPUS + [1, 2, 3, 4],
                         ids=lambda c: getattr(c, "stem", f"radsq_cycle_{c}"))
def test_derived_series_brackets_each_pair_once(case):
    """The derived series of HH1 and HH1_rad, from the whole algebra and from
    two subspaces, equals the one that brackets every ordered pair."""
    p = (presentation(*radsq_cycle(case)) if isinstance(case, int)
         else load_presentation(case.read_text()))
    report = run_analyze(p)
    for lie in (report.hh1.lie, report.hh1_rad.lie):
        f, dim = lie.field, lie.dim
        full = [{i: f.one} for i in range(dim)]
        evens = [{i: f.one} for i in range(0, dim, 2)]
        sums = [{i: f.one, (i + 1) % dim: f.one} for i in range(dim - 1)]
        assert lie.derived_series() == derived_series_of_all_ordered_pairs(lie, full)
        for start in (evens, sums):
            assert lie.derived_series(start) == derived_series_of_all_ordered_pairs(lie, start)


@st.composite
def radical_square_zero(draw):
    """A quiver on up to three vertices with up to four arrows, every path of
    length two set to zero, over Q or F_7."""
    vertices = [str(v) for v in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         min_size=1, max_size=4))
    arrows = [(f"a{k}", s, t) for k, (s, t) in enumerate(ends)]
    relations = [[(1, (x, y))] for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    return build(vertices, arrows, relations, field=Field(draw(st.sampled_from((0, 7)))))


@settings(max_examples=25, deadline=None)
@given(radical_square_zero())
def test_bracket_is_a_lie_bracket_on_radical_square_zero_algebras(table):
    full = hh1(table)
    assert_bracket_axioms(full.lie)
    assert_bracket_axioms(radical_part(full).lie)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_analysis_reads_products_from_the_table(path, monkeypatch):
    t = build_algebra(load_presentation(path.read_text()))

    def no_rewriting(poly):
        raise AssertionError(f"rewriter called on {poly} after build_algebra")

    monkeypatch.setattr(t.rewriter, "reduce", no_rewriting)
    rad = radical_part(hh1(t))
    loop_criterion(t)
    decomposition_report(rad, reptype_radsq(t.quiver), chains=maximal_chains(t))


# algebras where the product d(p)*a of the product rule reduces through a
# binomial rule, which a monomial algebra never does
BINOMIAL = {
    # x^2 = y^3 and xy = yx = 0: y^3 rewrites to x^2
    "x2_eq_y3": lambda: build(["1"], [("x", "1", "1"), ("y", "1", "1")],
                              [[(1, ("x", "x")), (-1, ("y", "y", "y"))],
                               [(1, ("x", "y"))], [(1, ("y", "x"))]]),
    # the two-loop algebra of the loop criterion test above
    "two_loops": lambda: build(["1"], [("x", "1", "1"), ("y", "1", "1")],
                               [[(1, ("y", "y")), (-1, ("y", "x", "x"))],
                                [(1, ("x", "y")), (-2, ("y", "x")), (1, ("y", "y"))],
                                [(1, ("x",) * 4)]]),
    # the commutative square: c*d rewrites to a*b
    "commutative_square": lambda: build(["1", "2", "3", "4"],
                                        [("a", "1", "2"), ("b", "2", "4"),
                                         ("c", "1", "3"), ("d", "3", "4")],
                                        [[(1, ("a", "b")), (-1, ("c", "d"))]]),
}


PRODUCT_RULE_CASES = CORPUS + ["x15_fp5"] + list(BINOMIAL)


def product_rule_table(case):
    if case == "x15_fp5":
        return truncated_loop(15, field=Field(5))
    if case in BINOMIAL:
        return BINOMIAL[case]()
    return build_algebra(load_presentation(case.read_text()))


def complete_double_radsq(n):
    """K_n with rad^2 = 0: two arrows v -> w for every ordered pair v != w,
    and every path of length two zero."""
    vertices = [str(v) for v in range(n)]
    arrows = [(f"{s}{v}{w}", v, w) for v in vertices for w in vertices if v != w for s in "ab"]
    relations = [[(1, (x, y))] for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    return build(vertices, arrows, relations)


@pytest.mark.parametrize("case", ["K3_radsq"] + PRODUCT_RULE_CASES,
                         ids=lambda c: getattr(c, "stem", c))
def test_constraint_rows_read_each_generator_against_its_own_arrows(case):
    """Each generator's terms, read against the slots of the arrows it holds,
    give the rows of the per-arrow filtered form.  On K_3 with rad^2 = 0
    (48 relations, 24 slots) d(x) y and x d(y) are paths of length two, so
    there is no row and every slot is a derivation."""
    t = complete_double_radsq(3) if case == "K3_radsq" else product_rule_table(case)
    layout = DerivationLayout(t)
    rows = derlie._constraint_rows(layout)
    assert rows == reference.constraint_rows(layout)
    if case == "K3_radsq":
        assert (len(t.groebner), layout.size, rows) == (48, 24, [])


def path_factor(t, w):
    """A word as an element of A, the empty word as the unit."""
    return t.path_vector(w) if w else t.unit()


@pytest.mark.parametrize("path", PRODUCT_RULE_CASES, ids=lambda p: getattr(p, "stem", p))
def test_action_columns_are_the_product_rule(path):
    """The sparse columns on the monomials parallel to the arrows equal the
    product rule written out at every position with ``multiply``, for each
    derivation of a basis of Der and for the slot vector of all ones, which
    need not be a derivation."""
    t = product_rule_table(path)
    f = t.field
    layout, der = derivation_space(t)
    parallel = sorted({bi for _, bi in layout.slots})
    for v in der + [dict.fromkeys(range(layout.size), f.one)]:
        cols = reference.action_columns(layout, v, parallel)
        assert sorted(cols) == parallel
        for j in parallel:
            assert all(c != 0 for c in cols[j].values())
            w = t.basis_paths[j]
            expected = {}
            for k, label in enumerate(w):
                term = t.multiply(t.multiply(path_factor(t, w[:k]),
                                             reference.sparse_value(layout, v, label)),
                                  path_factor(t, w[k + 1:]))
                linal.add_multiple(f, expected, f.one, term)
            assert cols[j] == expected


@pytest.mark.parametrize("path", PRODUCT_RULE_CASES, ids=lambda p: getattr(p, "stem", p))
def test_unit_images_are_the_product_rule(path):
    """The per-slot images that the constraint rows and the bracket read:
    for each slot s = (a, m) and each prefix p of the words of a, d_s(p) is
    the sum of p<k x_m p>k over the positions k where p holds a, written
    out with ``multiply``; exactly the nonzero images are kept."""
    t = product_rule_table(path)
    f = t.field
    layout = DerivationLayout(t)
    for s, (label, m) in enumerate(layout.slots):
        images = layout.unit_images(s)
        prefixes = {w[:n] for w in layout.words[label] for n in range(1, len(w) + 1)}
        assert set(images) <= prefixes
        for p in prefixes:
            expected = {}
            for k in (k for k, x in enumerate(p) if x == label):
                term = t.multiply(t.multiply(path_factor(t, p[:k]), {m: f.one}),
                                  path_factor(t, p[k + 1:]))
                linal.add_multiple(f, expected, f.one, term)
            assert images.get(p, {}) == expected, (layout.slots[s], p)


@pytest.mark.parametrize("path", PRODUCT_RULE_CASES, ids=lambda p: getattr(p, "stem", p))
def test_steps_list_each_prefix_once_after_its_own_prefix(path):
    """The step list of an arrow holds each nonempty prefix of its words
    once, as (q + (a,), q, a), and the step of q comes first."""
    layout = DerivationLayout(product_rule_table(path))
    for label, words in layout.words.items():
        steps = derlie._steps(words)
        assert {p for p, _, _ in steps} == {w[:n] for w in words for n in range(1, len(w) + 1)}
        assert len(steps) == len({p for p, _, _ in steps})
        at = {p: k for k, (p, _, _) in enumerate(steps)}
        for k, (p, q, a) in enumerate(steps):
            assert p == q + (a,) and at.get(q, -1) < k


@pytest.mark.parametrize("n,field", [(32, Q), (48, Q), (15, Field(5)), (48, Field(3))],
                         ids=["x32_Q", "x48_Q", "x15_fp5", "x48_fp3"])
def test_unit_images_of_a_truncated_loop_have_the_closed_form(n, field):
    """On k[x]/(x^n) the slot (x, x^m) sends x^k to k x^(k-1+m): the images
    hold exactly the prefixes x^k with k - 1 + m < n and k nonzero in k,
    the rule word x^n included, and no other key."""
    t = truncated_loop(n, field)
    layout = DerivationLayout(t)
    p = field.characteristic
    for s, (label, m) in enumerate(layout.slots):
        assert label == "x" and t.basis_paths[m] == ("x",) * m
        expected = {("x",) * k: {k - 1 + m: field.of(k)} for k in range(1, n + 1)
                    if k - 1 + m < n and not (p and k % p == 0)}
        assert layout.unit_images(s) == expected, (n, p, m)


@pytest.mark.parametrize("n,field", [(15, Field(5)), (32, Q)], ids=["x15_fp5", "x32_Q"])
def test_action_columns_take_one_product_rule_step_per_monomial(monkeypatch, n, field):
    """Each image is d(p a) = d(p) a + p d(a) from the image of its prefix:
    at most two table reads (``linal.combine``) per basis monomial of
    length >= 2, where expanding the product rule at every position takes
    about 2L for length L."""
    t = truncated_loop(n, field)
    layout = DerivationLayout(t)
    vec = dict.fromkeys(range(layout.size), field.one)
    combine = linal.combine
    calls = []

    def counted(*args):
        calls.append(args)
        return combine(*args)

    monkeypatch.setattr(linal, "combine", counted)
    reference.action_columns(layout, vec, range(t.dim))
    longer = sum(len(p) >= 2 for p in t.basis_paths)
    assert longer == n - 2
    assert 0 < len(calls) <= 2 * longer


# -- binomial relations: closed forms, and Q against a large prime --------


def quantum_plane(n, c=1, field=Q):
    """k[x,y]/(xy - c yx, x^n, y^n); commutative for c = 1."""
    return presentation(["1"], [("x", "1", "1"), ("y", "1", "1")],
                        [[(1, ("x", "y")), (-c, ("y", "x"))],
                         [(1, ("x",) * n)], [(1, ("y",) * n)]], field)


# presentations whose radical cut drops a derivation moving a loop of order
# p to the unit: (table, dims of HH1 and HH1_rad, derived series of HH1_rad)
PROPER_CUTS = {
    "x10_fp5": (lambda: truncated_loop(10, Field(5)), (10, 9), [9, 8, 6, 2, 0]),
    "x15_fp5": (lambda: truncated_loop(15, Field(5)), (15, 14), [14, 13, 11, 7, 0]),
    "plane3_fp3": (lambda: build_algebra(quantum_plane(3, field=Field(3))), (18, 16), [16, 15, 15]),
    # Inn != 0: Der 6, Inn 3 and HH1 = [HH1, HH1]; the cut keeps 5 of Der
    "loop_and_arrow_fp3": (lambda: build(["1", "2"], [("x", "1", "1"), ("a", "1", "2")],
                                         [[(1, ("x",) * 3)]], Field(3)), (3, 2), [2, 1, 0]),
    # a Kronecker pair beside the loop: m = 1
    "kronecker_and_loop_fp3": (lambda: build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"),
                                                               ("x", "3", "3")],
                                             [[(1, ("x",) * 3)]], Field(3)), (6, 5), [5, 4, 3, 3]),
}


@pytest.mark.parametrize("case", list(PROPER_CUTS))
def test_radical_part_is_the_leading_block_of_hh1(monkeypatch, case):
    """HH1 lists the radical-preserving classes first, so HH1_rad is read
    off its structure constants with no bracket: it agrees with the cut's
    own quotient section bracketed on a fresh layout, and its block is the
    bracket of its representatives."""
    make, dims, series = PROPER_CUTS[case]
    t = make()
    full = hh1(t)
    layout, der = derivation_space(t)
    inn = inner_space(layout)
    cut = radical_preserving(layout, der)
    ref = HH1Result(lie_from_quotient(layout, reference.quotient_reps(t.field, cut, inn), inn),
                    cut, inn, cut)
    calls = []
    monkeypatch.setattr(derlie, "lie_from_quotient", lambda *args: calls.append(args))
    monkeypatch.setattr(DerivationLayout, "unit_images", lambda *args: calls.append(args))
    rad = radical_part(full)
    monkeypatch.undo()
    assert calls == [] and rad.layout is full.layout
    assert (full.lie.dim, rad.lie.dim) == dims
    # the representatives with Inn span the cut, not a subalgebra of Der of its dimension
    assert linal.span_basis(t.field, rad.lie.reps + inn) == linal.span_basis(t.field, cut)
    assert rad.lie.derived_series() == series
    assert ((rad.lie.dim, rad.der_dim, rad.inn_dim, rad.lie.derived_series(),
             rad.lie.is_solvable())
            == (ref.lie.dim, ref.der_dim, ref.inn_dim, ref.lie.derived_series(),
                ref.lie.is_solvable()))
    fresh = lie_from_quotient(DerivationLayout(t), rad.lie.reps, rad.inn)
    assert fresh.structure == rad.lie.structure


BRACKET_CASES = {
    **{path.stem: lambda path=path: build_algebra(load_presentation(path.read_text()))
       for path in CORPUS},
    **{case: lambda case=case: PROPER_CUTS[case][0]() for case in PROPER_CUTS},
    **BINOMIAL,
    "x15_fp5": lambda: truncated_loop(15, Field(5)),
    "x15_fp7": lambda: truncated_loop(15, Field(7)),
    "linked_cycle16": lambda: build_algebra(load_presentation(linked_cycle(16))),
}


@pytest.mark.parametrize("case", list(BRACKET_CASES))
def test_bracket_from_unit_images_matches_the_action_columns(case):
    """The commutators built from the per-slot images of the unit
    derivations give the structure constants of the reference, which
    extends each representative to every parallel monomial first."""
    t = BRACKET_CASES[case]()
    full = hh1(t)
    lie = full.lie
    assert lie.structure == reference.bracket_structure(DerivationLayout(t), lie.reps, full.inn)


@pytest.mark.parametrize("case", ["x15_fp5", "linked_cycle16"])
def test_hh1_walks_the_product_rule_at_most_once_per_slot(monkeypatch, case):
    """The constraint rows and the bracket share one ``_extend`` walk per
    slot of the layout, over one ``_steps`` list per arrow."""
    t = BRACKET_CASES[case]()
    calls = {"_extend": [], "_steps": []}

    def counted(name):
        original = getattr(derlie, name)

        def call(*args):
            calls[name].append(args)
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(derlie, name, counted(name))
    full = hh1(t)
    assert 0 < len(calls["_extend"]) <= full.layout.size
    assert 0 < len(calls["_steps"]) <= len(t.quiver.arrows)


@pytest.mark.parametrize("case,m", [("x15_fp5", 0), ("linked_cycle16", 1)])
def test_hh1_drops_the_per_slot_images_after_the_bracket(case, m):
    """The bracket is the last reader of the per-slot images and of the
    step lists, so the layout that hh1 returns holds neither; HH1_rad and
    the chain report, which read only the slot positions, still run on it
    and walk nothing again."""
    t = BRACKET_CASES[case]()
    full = hh1(t)
    assert full.layout._images == {} and full.layout._steps == {}
    rad = radical_part(full)
    rep = decomposition_report(rad, reptype_radsq(t.quiver), chains=maximal_chains(t))
    assert rep.m == m
    assert rad.layout is full.layout and full.layout._images == full.layout._steps == {}


@pytest.mark.parametrize("n,p", [(3, 0), (4, 0), (5, 0), (6, 0), (3, 3), (5, 5), (6, 3)])
def test_commutative_truncated_plane_has_the_closed_form_hh1(n, p):
    """A is commutative, so Inn = 0, and Der is the pairs (d(x), d(y)) with
    d(x^n) = n x^(n-1) d(x) = 0.  Where n is invertible that puts d(x) in
    (x) and d(y) in (y): dim HH1 = dim HH1_rad = 2n(n-1).  Where p | n
    every pair is a derivation, dim HH1 = 2n^2, and HH1_rad drops the two
    derivations moving x or y to the unit."""
    report = run_analyze(quantum_plane(n, field=Field(p)))
    dims = (report.hh1.lie.dim, report.hh1_rad.lie.dim, report.hh1.inn_dim)
    assert dims == ((2 * n * (n - 1),) * 2 + (0,) if p == 0 else (2 * n * n, 2 * (n * n - 1), 0))


@pytest.mark.parametrize("c", [2, 3, Fraction(2, 3)], ids=str)
@pytest.mark.parametrize("n", [3, 4])
def test_quantum_plane_quotients_agree_over_q_and_a_large_prime(n, c):
    """c^k != 1 for 0 < k < 2n in Q and in F_1000003 alike, so the
    quotient has the same cohomology over both; it matches the oracle."""
    sections = []
    for p in (0, 1000003):
        report = run_analyze(quantum_plane(n, c, Field(p)))
        d = report.hh1_sections()
        sections.append({key: d[key] for key in ("hh1", "hh1_rad")})
        assert report.oracle_dim == d["hh1"]["dim"]
    assert sections[0] == sections[1]
    assert {"der_dim", "inn_dim", "dim", "derived_dims"} <= set(sections[0]["hh1"])


# -- the torus: weights from homogeneous relations -------------------------


def torus_weights(p):
    """Each arrow's weight under the torus of p: a basis over Q of the
    arrow weightings that make every relation homogeneous, from one row per
    relation and extra term, multidegree(first term) - multidegree(term)."""
    labels = [a.label for a in p.quiver.arrows]
    rows = []
    for rel in p.relations:
        (_, first), *rest = rel.terms
        for _, path in rest:
            degree = Counter(map(labels.index, first))
            degree.subtract(map(labels.index, path))
            rows.append({k: v for k, v in degree.items() if v})
    basis = linal.kernel_basis(Q, rows, len(labels))
    return {label: tuple(w.get(k, 0) for w in basis) for k, label in enumerate(labels)}


TORUS_CASES = {
    **{path.stem: lambda path=path: load_presentation(path.read_text()) for path in CORPUS},
    "plane7_Q": lambda: quantum_plane(7),
    "plane9_fp3": lambda: quantum_plane(9, field=Field(3)),
}


@pytest.mark.parametrize("case", list(TORUS_CASES))
def test_the_bracket_is_additive_in_the_torus_weights(case):
    """Derivations split into weight spaces, a slot (a, m) weighing
    wt(m) - wt(a), and [L_u, L_v] lies in L_(u+v): each representative of
    HH1 has one weight on its support, and every nonzero structure
    constant c_ij^k has w_i + w_j = w_k."""
    p = TORUS_CASES[case]()
    arrow = torus_weights(p)
    rank = len(next(iter(arrow.values())))

    def add(*weights):
        return tuple(map(sum, zip((0,) * rank, *weights)))

    lie = hh1(build_algebra(p)).lie
    paths = lie.layout.table.basis_paths
    slot = [add(*(arrow[x] for x in paths[m]), tuple(-c for c in arrow[a]))
            for a, m in lie.layout.slots]
    weights = []
    for rep in lie.reps:
        assert len({slot[s] for s in rep}) == 1
        weights.append(slot[next(iter(rep))])
    for i, row in enumerate(lie.structure):
        for j, entry in enumerate(row):
            assert all(add(weights[i], weights[j]) == weights[k] for k in entry), (i, j)
