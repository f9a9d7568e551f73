import functools
import gc
import itertools
import json
import pathlib
import random
import weakref

import pytest

import reference
from quiverhh import derlie, kron, linal
from quiverhh.algebra import Presentation, Relation, build_algebra
from quiverhh.analysis import AnalysisOptions, run_analyze
from quiverhh.cli import main
from quiverhh.derlie import LieAlgebra, delta_map, hh1, radical_part
from quiverhh.dsl import load_presentation
from quiverhh.errors import DeltaUndefined, UnsupportedCharacteristic
from quiverhh.kron import (decomposition_report, is_surjective_chain, kronecker_pairs,
                           maximal_chains, standard_relations_literal)
from quiverhh.linal import Field
from quiverhh.quiver import Quiver, reptype_radsq
from test_theorem import brauer_graph_algebras

Q = Field(0)


def build(vertices, arrows, relations, field=Q):
    quiver = Quiver.make(vertices, arrows)
    rels = tuple(Relation(tuple(terms)) for terms in relations)
    return build_algebra(Presentation(quiver, rels, field))


def kronecker():
    return build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [])


def chain_two():
    return build(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3"),
         ("e", "3", "4")],
        [[(1, ("a", "c"))], [(1, ("b", "d"))], [(1, ("a", "d")), (1, ("b", "c"))],
         [(1, ("c", "e"))], [(1, ("d", "e"))]])


def triangle():
    rels = [[(1, ("a", "c"))], [(1, ("b", "d"))], [(1, ("a", "d")), (1, ("b", "c"))],
            [(1, ("c", "e"))], [(1, ("d", "f"))], [(1, ("c", "f")), (1, ("d", "e"))],
            [(1, ("e", "a"))], [(1, ("f", "b"))], [(1, ("e", "b")), (1, ("f", "a"))]]
    return build(["1", "2", "3"],
                 [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"),
                  ("d", "2", "3"), ("e", "3", "1"), ("f", "3", "1")], rels)


def test_pairs_detection():
    pairs = kronecker_pairs(kronecker())
    assert len(pairs) == 1
    assert pairs[0].labels == ("a", "b")
    assert pairs[0].delta_defined

    triple = build(["1", "2", "3"],
                   [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2"),
                    ("d", "2", "3")],
                   [[(1, (x, "d"))] for x in "abc"])
    assert kronecker_pairs(triple) == []


def test_single_pair_chain():
    chains = maximal_chains(kronecker())
    assert len(chains) == 1
    assert chains[0].shape == "Linear"
    assert [p.labels for p in chains[0].pairs] == [("a", "b")]


def test_linear_chain_of_two():
    chains = maximal_chains(chain_two())
    assert len(chains) == 1
    assert chains[0].shape == "Linear"
    assert [p.labels for p in chains[0].pairs] == [("a", "b"), ("c", "d")]


def test_cyclic_chain_canonical_rotation():
    t = triangle()
    chains = maximal_chains(t)
    assert len(chains) == 1
    chain = chains[0]
    assert chain.shape == "Cyclic"
    assert [p.labels for p in chain.pairs] == [("a", "b"), ("c", "d"), ("e", "f")]
    assert chain.rotations == 3


def test_a_cyclic_chain_without_its_wrap_around_link_is_its_only_rotation():
    # the chain closes up at vertex 1, but every product of e or f with a
    # or b vanishes, so no other rotation of it is a chain
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"),
               ("d", "2", "3"), ("e", "3", "1"), ("f", "3", "1")],
              [[(1, (x, y))] for x in "ef" for y in "ab"])
    (chain,) = maximal_chains(t)
    assert chain.shape == "Cyclic"
    assert [p.labels for p in chain.pairs] == [("a", "b"), ("c", "d"), ("e", "f")]
    assert chain.rotations == 1


def test_chain_blocked_by_vanishing_products():
    # all length-two paths zero: no chain can link the two pairs
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
              [[(1, (x, y))] for x in "ab" for y in "cd"])
    chains = maximal_chains(t)
    assert len(chains) == 2
    assert all(len(c.pairs) == 1 for c in chains)


def test_double_loop_shape():
    t = build(["1"], [("a", "1", "1"), ("b", "1", "1")],
              [[(1, ("a", "a"))], [(1, ("b", "b"))],
               [(1, ("a", "b")), (1, ("b", "a"))]])
    chains = maximal_chains(t)
    assert len(chains) == 1
    assert chains[0].shape == "DoubleLoop"


def test_standard_relations_literal():
    t = chain_two()
    chain = maximal_chains(t)[0]
    rep = standard_relations_literal(t, chain)
    assert rep.s1 and rep.s2 and rep.s3 and rep.witnesses == []

    t2 = build(["1", "2", "3"],
               [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
               [[(1, ("a", "c"))], [(1, ("b", "d"))]])
    chain2 = maximal_chains(t2)[0]
    rep2 = standard_relations_literal(t2, chain2)
    assert not rep2.s2
    assert any("a*d" in w and "b*c" in w for w in rep2.witnesses)


def test_every_s2_link_is_tested():
    """Both links of the non-standard chain of three fail their skew sum, and
    the second is a witness too, though the first has already failed S2."""
    path = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "chain3_nonstandard.dsl"
    t = build_algebra(load_presentation(path.read_text()))
    rep = standard_relations_literal(t, maximal_chains(t)[0])
    assert rep.s1 and not rep.s2 and rep.s3
    assert rep.witnesses == ["a*d + b*c", "c*f + d*e"]


def test_witnesses_follow_the_chain_order():
    # two S1 witnesses; iterating a set of labels made their order vary
    # with the string hash seed from one run to the next
    t = build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")], [])
    rep = standard_relations_literal(t, maximal_chains(t)[0])
    assert rep.witnesses == ["a*c", "b*c"]


def test_surjectivity():
    t = chain_two()
    h = radical_part(hh1(t))
    chain = maximal_chains(t)[0]
    rep = is_surjective_chain(h, chain)
    assert rep.surjective
    assert rep.kernels_coincide
    assert set(rep.per_pair_image_dims.values()) == {3}


def test_decomposition_report_counts():
    t = triangle()
    h = radical_part(hh1(t))
    rep = decomposition_report(h, reptype_radsq(t.quiver), chains=maximal_chains(t))
    assert rep.m == 1
    assert h.lie.dim == 4
    assert rep.r_dim == 1
    assert not h.lie.is_solvable()
    assert rep.joint_kernel_dim == 1
    assert rep.joint_kernel_derived_dims[-1] == 0
    assert rep.consistency_ok
    assert rep.flags["qs_nonwild_compatible"]


@pytest.mark.parametrize("relations", [
    [[(1, ("a", "c"))], [(1, ("a", "d"))]],  # only the pair (c, d) projects onto sl2
    [[(1, ("a", "c"))], [(1, ("b", "c"))]],  # only the pair (a, b) projects onto sl2
])
def test_joint_kernel_follows_the_surjective_pair(relations):
    t = build(["1", "2", "3"],
              [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
              relations)
    rep = decomposition_report(radical_part(hh1(t)), reptype_radsq(t.quiver),
                               chains=maximal_chains(t))
    assert rep.m == 1
    assert sorted(rep.surjectivity[0].per_pair_image_dims.values()) == [2, 3]
    assert rep.joint_kernel_dim == rep.r_dim == 2
    assert rep.joint_kernel_derived_dims[-1] == 0


def test_a_report_without_sl2_summands_computes_the_derived_series_once(monkeypatch):
    """With m = 0 the joint kernel is all of HH1_rad, so its derived series
    is the one already computed for the whole algebra."""
    t = build(["1"], [("x", "1", "1")], [[(1, ("x",) * 15)]], field=Field(5))
    h = radical_part(hh1(t))
    calls = []
    real = LieAlgebra._derived

    def counted(self, start):
        calls.append(len(start))
        return real(self, start)

    monkeypatch.setattr(LieAlgebra, "_derived", counted)
    rep = decomposition_report(h, reptype_radsq(t.quiver), chains=maximal_chains(t))
    assert rep.m == 0
    assert rep.joint_kernel_dim == h.lie.dim
    assert rep.joint_kernel_derived_dims == h.lie.derived_series()
    assert calls == [h.lie.dim]


def test_decomposition_refuses_characteristic_two():
    t = build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [], field=Field(2))
    h = radical_part(hh1(t))
    with pytest.raises(UnsupportedCharacteristic):
        decomposition_report(h, reptype_radsq(t.quiver), chains=maximal_chains(t))


def test_standard_implies_surjective_here():
    for t in (kronecker(), chain_two(), triangle()):
        h = radical_part(hh1(t))
        for chain in maximal_chains(t):
            rel = standard_relations_literal(t, chain)
            if rel.s1 and rel.s2 and rel.s3:
                assert is_surjective_chain(h, chain).surjective


def radsq_cycle(n):
    """The n-cycle of double arrows with every path of length two zero."""
    arrows = [(f"{s}{i}", str(i), str((i + 1) % n)) for i in range(n) for s in "ab"]
    relations = [[(1, (x, y))] for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    return build([str(i) for i in range(n)], arrows, relations)


def intersect(field, span_a, span_b):
    """Basis of span(span_a) & span(span_b): the vectors sum a_i u_i with
    sum a_i u_i = sum b_j w_j, from the kernel of the map (a, b) -> that
    difference, one coordinate per row."""
    rows: dict = {}
    for k, u in enumerate(span_a):
        for r, c in u.items():
            rows.setdefault(r, {})[k] = c
    for k, w in enumerate(span_b, start=len(span_a)):
        for r, c in w.items():
            rows.setdefault(r, {})[k] = field.neg(c)
    out = []
    for coeffs in linal.kernel_basis(field, list(rows.values()), len(span_a) + len(span_b)):
        v: dict = {}
        for k, c in coeffs.items():
            if k < len(span_a):
                linal.add_multiple(field, v, c, span_a[k])
        out.append(v)
    return linal.span_basis(field, out)


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))

# 1 => 2 => 3 with no relations: both pairs project onto sl2, along
# different kernels
DOUBLE_PAIR_CHAIN = """\
field Q
vertex 1 2 3
arrow a 1 2
arrow b 1 2
arrow c 2 3
arrow d 2 3
"""

# corpus files, radical-square-zero n-cycles by n, and DSL text
CASES = CORPUS + [3, 4, 5, 6, DOUBLE_PAIR_CHAIN]


def case_id(case):
    if isinstance(case, int):
        return f"radsq_cycle{case}"
    return getattr(case, "stem", "double_pair_chain")


def case_table(case):
    if isinstance(case, int):
        return radsq_cycle(case)
    return build_algebra(load_presentation(case if isinstance(case, str) else case.read_text()))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_joint_kernel_is_the_intersection_of_the_class_kernels(case):
    """The report stacks the sl2 rows of each surjective class; intersecting
    the kernels of those projections one class at a time gives the same space."""
    t = case_table(case)
    h = radical_part(hh1(t))
    rep = decomposition_report(h, reptype_radsq(t.quiver), chains=maximal_chains(t))
    f, lie = t.field, h.lie
    expected = [{i: f.one} for i in range(lie.dim)]
    for chain, s in zip(rep.classes, rep.surjectivity):
        if not s.surjective:
            continue
        first = next(dm for dm in (delta_map(lie, p.a, p.b)
                                   for p in chain.pairs if p.delta_defined)
                     if dm.surjective)
        expected = intersect(f, expected, linal.kernel_basis(f, first.rows, first.dim))
    assert linal.span_basis(f, rep.joint_kernel) == expected
    assert rep.joint_kernel_dim == len(expected)
    if isinstance(case, int):
        assert rep.m == case and rep.joint_kernel_dim == lie.dim - 3 * case


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_projections_compared_by_their_rows_agree_with_their_kernels(case):
    """A subspace fixes its annihilator, so two projections have the same
    kernel exactly when their rows span the same space: the report's
    comparison of echelons equals the comparison of the kernels."""
    t = case_table(case)
    h = radical_part(hh1(t))
    rep = decomposition_report(h, reptype_radsq(t.quiver), chains=maximal_chains(t))
    f = t.field
    for chain, s in zip(rep.classes, rep.surjectivity):
        kernels = []
        for p in chain.pairs:
            if not p.delta_defined:
                continue
            dm = delta_map(h.lie, p.a, p.b)
            kernel = linal.kernel_basis(f, dm.rows, dm.dim)
            assert dm.rank == dm.dim - len(kernel) == s.per_pair_image_dims[p.labels]
            if dm.surjective:
                kernels.append(linal.span_basis(f, kernel))
        assert s.kernels_coincide == all(k == kernels[0] for k in kernels)


def test_surjective_pairs_with_different_kernels():
    """On 1 => 2 => 3 both pairs project onto sl2 but along different
    kernels.  The joint kernel is then 3-dimensional and perfect (its
    derived series is [3, 3]): HH1 is sl2 + sl2, not m = 1 copy of sl2
    plus a solvable ideal, so the report is flagged inconsistent."""
    report = run_analyze(load_presentation(DOUBLE_PAIR_CHAIN))
    d = report.to_dict()
    assert d["m"] == 1
    (cl,) = d["chains"]["classes"]
    assert cl["per_pair_image_dims"] == {"a*b": 3, "c*d": 3}
    assert cl["kernels_coincide"] is False
    assert d["chains"]["joint_kernel_dim"] == 3
    assert d["chains"]["joint_kernel_derived_dims"] == [3, 3]
    assert d["chains"]["consistency_ok"] is False
    assert "the joint kernel is not solvable" in report.to_text()


def test_the_chain_report_computes_one_kernel_and_tests_each_link_once(monkeypatch):
    """On the radical-square-zero 16-cycle each pair's projection is
    compared by its rows, so the joint kernel is the only kernel computed,
    and each of the 16 links p -> q has its cross products tested once.
    On the linked 8-cycle the whole analysis tests each of its 8 links
    once: the walk that closes the cycle also counts its rotations."""
    t = radsq_cycle(16)
    h = radical_part(hh1(t))
    kernels, links = [], []
    kernel_basis, survives = linal.kernel_basis, kron._cross_product_survives

    def counted_kernel(*args):
        kernels.append(args)
        return kernel_basis(*args)

    def counted_link(*args):
        links.append(args)
        return survives(*args)

    monkeypatch.setattr(linal, "kernel_basis", counted_kernel)
    rep = decomposition_report(h, reptype_radsq(t.quiver), chains=maximal_chains(t))
    assert rep.m == 16 and len(kernels) == 1
    monkeypatch.setattr(kron, "_cross_product_survives", counted_link)
    assert len(maximal_chains(t)) == 16  # no link survives: one chain per pair
    assert len(links) == 16
    links.clear()
    report = run_analyze(load_presentation(linked_cycle(8)))
    assert [chain.rotations for chain in report.chain_report.classes] == [8]
    assert len(links) == 8


def test_an_analysis_frees_its_table_without_the_garbage_collector():
    """A reference cycle (such as a recursive closure over the table) keeps
    every analysed table alive until the next full collection."""
    q = Quiver.make(["1", "2", "3"],
                    [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")])
    p = Presentation(q, (Relation(((1, ("a", "c")),)),), Q)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        report = run_analyze(p)
        assert report.chain_report.classes
        table = weakref.ref(report.table)
        del report
        assert table() is None
    finally:
        if enabled:
            gc.enable()


def radical_cube_zero(vertices, arrows):
    """DSL text of the path algebra over Q modulo every path of length three."""
    lines = ["field Q", "vertex " + " ".join(vertices)]
    lines += [f"arrow {x} {s} {t}" for x, s, t in arrows]
    lines += [f"relation {x}*{y}*{z}" for x, _, tx in arrows for y, sy, ty in arrows
              if tx == sy for z, sz, _ in arrows if ty == sz]
    return "\n".join(lines) + "\n"


def linked_cycle(n):
    """The n-cycle of double arrows a_i, b_i: i -> i + 1 with rad^3 = 0: every
    pair links to the next, the last to the first."""
    return radical_cube_zero([str(i) for i in range(n)],
                             [(f"{s}{i}", str(i), str((i + 1) % n))
                              for i in range(n) for s in "ab"])


def complete_double(n):
    """Two arrows between each ordered pair of the n vertices, rad^3 = 0: at
    each vertex n - 1 pairs start and n - 1 end, so for n >= 3 the links branch."""
    vertices = [str(i) for i in range(n)]
    return radical_cube_zero(vertices, [(f"{s}{v}{w}", v, w) for v in vertices
                                        for w in vertices if v != w for s in "ab"])


def random_radical_cube_zero(rng, field):
    """A presentation with rad^3 = 0 on at most five vertices: two to four
    groups of one to three parallel arrows (groups with the same ends merge),
    declared in random order, each path of length two zero with probability
    0.3, some parallel paths of length two made proportional, and every
    other path of length three zero."""
    vertices = [str(v) for v in range(rng.randint(1, 5))]
    arrows = []
    for _ in range(rng.randint(2, 4)):
        s, t = rng.choice(vertices), rng.choice(vertices)
        for _ in range(rng.choice([1, 2, 2, 3])):
            arrows.append((f"x{len(arrows)}", s, t))
    rng.shuffle(arrows)
    ends = {x: (s, t) for x, s, t in arrows}
    two = [(x, y) for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    zero = {p for p in two if rng.random() < 0.3}
    rels = [((1, p),) for p in zero]
    rels += [((1, u), (rng.choice([1, -1, 2]), v)) for u, v in itertools.combinations(two, 2)
             if ends[u[0]][0] == ends[v[0]][0] and ends[u[1]][1] == ends[v[1]][1]
             and rng.random() < 0.1]
    rels += [((1, p + (z,)),) for p in two for z, sz, _ in arrows
             if ends[p[1]][1] == sz and p not in zero and (p[1], z) not in zero]
    return Presentation(Quiver.make(vertices, arrows), tuple(map(Relation, rels)), field)


def test_the_walk_of_the_links_gives_every_simple_path_that_is_maximal():
    """Against the reference, which lists every simple path of the link graph
    and keeps the maximal ones, on random presentations with rad^3 = 0 over
    Q, F_3 and F_5: the same chains and rotation counts wherever the links
    do not branch, and a refusal, on a wild algebra, wherever they do."""
    rng = random.Random(1)
    linked = rotated = branched = 0
    for _ in range(200):
        p = random_radical_cube_zero(rng, Field(rng.choice([0, 3, 5])))
        t = build_algebra(p)
        try:
            chains = maximal_chains(t)
        except DeltaUndefined:
            assert reptype_radsq(p.quiver) == "Wild", p
            branched += 1
            continue
        expected = reference.maximal_chains(t)
        assert chains == expected, p  # rotations included
        linked += any(len(c.pairs) > 1 for c in chains)
        rotated += any(c.rotations > 1 for c in chains)
    assert linked and rotated and branched, (linked, rotated, branched)


def test_a_linked_cycle_is_kept_as_its_least_rotation():
    """The walk meets (e,f) first, as it is declared first, but the chain is
    kept as its least rotation."""
    t = build_algebra(load_presentation(radical_cube_zero(
        ["1", "2", "3"], [("e", "3", "1"), ("f", "3", "1"), ("a", "1", "2"),
                          ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")])))
    (chain,) = maximal_chains(t)
    assert chain.shape == "Cyclic"
    assert [p.labels for p in chain.pairs] == [("a", "b"), ("c", "d"), ("e", "f")]
    assert chain.rotations == 3


def test_pairs_that_branch_are_refused(tmp_path, capsys, monkeypatch):
    """On the complete double quiver on three vertices two pairs start at
    each vertex: analyze and chains refuse the chains from the table,
    before derlie.hh1 is called, and hh1 still computes HH1."""
    text = complete_double(3)
    with pytest.raises(DeltaUndefined, match=r"branch at vertex [012]:"):
        maximal_chains(build_algebra(load_presentation(text)))
    f = tmp_path / "complete3.dsl"
    f.write_text(text)
    calls = []
    monkeypatch.setattr(derlie, "hh1", lambda *args: calls.append(args))
    with pytest.raises(DeltaUndefined, match=r"branch at vertex [012]:"):
        run_analyze(load_presentation(text))
    capsys.readouterr()
    for command in ("analyze", "chains"):
        assert main([command, str(f)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("refused: Kronecker pairs branch")
    monkeypatch.undo()
    assert calls == []
    assert main(["hh1", str(f), "--json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["hh1"]["dim"] == 70


def test_the_linked_eight_cycle():
    """dim HH1 = 3n + 1 on the linked n-cycle with rad^3 = 0, as the oracle
    confirms, and its one chain gives m = 1 from 8 rotations.  The algebra
    is wild and HH1 is sl2^8 + k, so the joint kernel is not solvable and
    the report is flagged inconsistent."""
    d = run_analyze(load_presentation(linked_cycle(8)), AnalysisOptions(oracle=True)).to_dict()
    assert d["algebra"]["dim"] == 56
    assert d["hh1"]["dim"] == d["oracle"]["bar_hh1_dim"] == 25
    assert d["m"] == 1
    (cl,) = d["chains"]["classes"]
    assert (cl["shape"], cl["rotations"], len(cl["pairs"])) == ("Cyclic", 8, 8)
    assert d["chains"]["joint_kernel_derived_dims"] == [22, 21, 21]
    assert d["chains"]["consistency_ok"] is False


CORPUS_Q = [p for p in CORPUS if not load_presentation(p.read_text()).field.characteristic]


@pytest.mark.parametrize("case", CORPUS_Q + [3, 4],
                         ids=lambda c: f"double_arrow_cycle{c}" if isinstance(c, int) else c.stem)
def test_the_levi_factor_by_the_killing_form_has_dimension_3m(case):
    """Over Q, HH1_rad is m copies of sl2 plus a solvable ideal, so its Levi
    factor, read off the Killing form and not off the chains, has dimension
    3m: on the corpus and on the radical-square-zero 3- and 4-cycles of
    double arrows (m = 3 and 4)."""
    t = case_table(case)
    h = radical_part(hh1(t))
    m = decomposition_report(h, "Tame", chains=maximal_chains(t)).m
    assert reference.levi_dim(h.lie) == 3 * m
    if isinstance(case, int):
        assert m == case


@pytest.mark.parametrize("text, levi", [(DOUBLE_PAIR_CHAIN, 6), (linked_cycle(3), 9)],
                         ids=["double_pair_chain", "linked_cycle3"])
def test_the_levi_factor_exceeds_3m_where_the_report_is_flagged(text, levi):
    """On 1 => 2 => 3 HH1 is sl2 + sl2, and on the linked 3-cycle with
    rad^3 = 0 it is sl2^3 + k, though one chain gives m = 1: the Killing
    form sees the summands the chains miss, where consistency_ok is False."""
    report = run_analyze(load_presentation(text))
    assert report.chain_report.m == 1
    assert report.chain_report.consistency_ok is False
    assert reference.levi_dim(report.hh1_rad.lie) == levi


def disjoint_union(first, second):
    """The product of two presentations over one field as one presentation,
    with the labels of the first prefixed by "l." and of the second by "r."."""
    vertices, arrows, relations = [], [], []
    for tag, p in (("l.", first), ("r.", second)):
        vertices += [tag + v for v in p.quiver.vertices]
        arrows += [(tag + a.label, tag + a.source, tag + a.target) for a in p.quiver.arrows]
        relations += [Relation(tuple((c, tuple(tag + x for x in path)) for c, path in r.terms))
                      for r in p.relations]
    return Presentation(Quiver.make(vertices, arrows), tuple(relations), first.field)


def summed_series(a, b):
    """The derived series of a product from its factors': the termwise sum,
    each factor padded with its last value, up to the first repeat or 0."""
    n = max(len(a), len(b)) + 1
    sums = [x + y for x, y in zip(a + a[-1:] * n, b + b[-1:] * n)]
    out = sums[:1]
    for s in sums[1:]:
        if not out[-1] or (len(out) > 1 and out[-1] == out[-2]):
            break
        out.append(s)
    return out


@functools.cache
def two_rotation_brauer(p):
    """The two Brauer graph algebras of the tier-1 sweep over F_p (Q for
    p = 0) whose m = 1 comes from a Cyclic chain with two rotations."""
    found = []
    for presentation in brauer_graph_algebras(Field(p)):
        cr = run_analyze(presentation, AnalysisOptions(assert_nonwild=True)).chain_report
        if cr.m == 1 and any(c.shape == "Cyclic" and c.rotations == 2 for c in cr.classes):
            found.append(presentation)
    assert len(found) == 2
    return found


def factor(case):
    """A factor of PRODUCTS: a corpus file, or (p, i) for the i-th of
    ``two_rotation_brauer(p)``."""
    if isinstance(case, pathlib.Path):
        return load_presentation(case.read_text())
    return two_rotation_brauer(case[0])[case[1]]


PRODUCTS = [(p, CORPUS_Q[(k + 1) % len(CORPUS_Q)]) for k, p in enumerate(CORPUS_Q)]
PRODUCTS += [(CORPUS[0].parent / "kronecker.dsl", CORPUS[0].parent / f"{name}.dsl")
             for name in ("kronecker", "radsq_tail_3")]
# m = 2 inside the theorem: a product of tame algebras is tame
PRODUCTS += [((p, i), (p, j)) for p in (0, 3) for i, j in ((0, 0), (0, 1), (1, 1))]


def product_id(first, second):
    if isinstance(first, pathlib.Path):
        return f"{first.stem}+{second.stem}"
    return f"brauer{first[1]}+brauer{second[1]}_" + ("Q" if first[0] == 0 else f"fp{first[0]}")


@pytest.mark.parametrize("first, second", PRODUCTS,
                         ids=[product_id(p, q) for p, q in PRODUCTS])
def test_the_invariants_of_a_product_are_the_sums_of_its_factors(first, second):
    """HH1(A x B) = HH1(A) + HH1(B) as Lie algebras, and so for HH1_rad:
    the dimensions, m, the oracle and the derived series add.  The products
    of two Brauer graph algebras with one Cyclic chain of two rotations each
    give m = 2 with linked chains, within the theorem's hypotheses."""
    options = AnalysisOptions(oracle=True)
    a, b = (run_analyze(factor(case), options) for case in (first, second))
    union = run_analyze(disjoint_union(a.presentation, b.presentation), options)
    for key in ("hh1", "hh1_rad"):
        got, x, y = (getattr(r, key).lie for r in (union, a, b))
        assert got.dim == x.dim + y.dim
        assert got.derived_series() == summed_series(x.derived_series(), y.derived_series())
    assert union.oracle_dim == a.oracle_dim + b.oracle_dim == union.hh1.lie.dim
    assert union.chain_report.m == a.chain_report.m + b.chain_report.m
    assert a.chain_report.consistency_ok and b.chain_report.consistency_ok
    assert union.chain_report.consistency_ok
    if product_id(first, second) == "kronecker+radsq_tail_3":
        assert (union.hh1.lie.dim, union.chain_report.m, union.oracle_dim) == (6, 2, 6)
    if isinstance(first, tuple):
        cr = union.chain_report
        assert (union.hh1.lie.dim, union.hh1_rad.lie.dim, cr.m, union.oracle_dim) == (8, 8, 2, 8)
        assert cr.joint_kernel_derived_dims == [2, 0]
        assert union.hh1.lie.derived_series() == [8, 6, 6]
        nonwild = AnalysisOptions(assert_nonwild=True)
        assert run_analyze(union.presentation, nonwild).chain_report.consistency_ok
        if first[0] == 0:
            assert reference.levi_dim(union.hh1_rad.lie) == 6
