"""Acceptance suite: one test and one printed pass/fail line per criterion.

All comparisons are exact (rational or prime-field arithmetic); there are
no tolerances anywhere.
"""

import functools
import pathlib
import random

from quiverhh import linal
from quiverhh.algebra import Presentation, build_algebra
from quiverhh.analysis import AnalysisOptions, run_analyze
from quiverhh.derlie import delta_defined, delta_map, derivation_space, hh1
from quiverhh.dsl import load_presentation
from quiverhh.errors import TooLarge
from quiverhh.kron import (decomposition_report, kronecker_pairs,
                           maximal_chains, standard_relations_literal,
                           is_surjective_chain)
from quiverhh.oracle import bar_hh1_dim
from quiverhh.quiver import Quiver, hereditary_hh1_dim
from reference import action_columns, sparse_value

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
STEMS = sorted(p.stem for p in CORPUS.glob("*.dsl"))


@functools.lru_cache(maxsize=None)
def presentation(stem):
    return load_presentation((CORPUS / f"{stem}.dsl").read_text())


@functools.lru_cache(maxsize=None)
def table(stem):
    return build_algebra(presentation(stem))


@functools.lru_cache(maxsize=None)
def analysis(stem):
    return run_analyze(presentation(stem))


def _report(number, text):
    print(f"criterion {number:02d} ({text}): PASS", flush=True)


def _sl2_images(dm):
    """(x, y, z) of x*H + y*E + z*F, the sl2 image of each source basis
    vector, read from the H, E and F rows of the projection."""
    return [tuple(row.get(k, dm.field.zero) for row in dm.rows) for k in range(dm.dim)]


def _sl2_bracket(field, a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    x = field.sub(field.mul(ay, bz), field.mul(az, by))
    y = field.mul(field.of(2), field.sub(field.mul(ax, by), field.mul(ay, bx)))
    z = field.mul(field.of(2), field.sub(field.mul(bx, az), field.mul(ax, bz)))
    return (x, y, z)


def _bracket(lie, u, v):
    return linal.contract(lie.field, lie.structure, u, v)


def test_criterion_01_kronecker_sl2():
    rep = analysis("kronecker")
    assert rep.hh1.lie.dim == 3
    assert not rep.hh1.lie.is_solvable()
    assert rep.chain_report.m == 1
    lie = rep.hh1_rad.lie
    dm = delta_map(lie, "a", "b")
    field = lie.field
    assert dm.surjective and linal.kernel_basis(field, dm.rows, dm.dim) == []
    units = [{k: field.one} for k in range(3)]
    h, e, f = (linal.solve(field, dm.rows, u) for u in units)
    two = field.of(2)
    assert _bracket(lie, h, e) == {k: field.mul(two, c) for k, c in e.items()}
    assert _bracket(lie, h, f) == {k: field.neg(field.mul(two, c)) for k, c in f.items()}
    assert _bracket(lie, e, f) == h
    _report(1, "Kronecker algebra gives sl2")


def test_criterion_02_linear_chain_of_two():
    rep = analysis("chain2_standard")
    assert rep.hh1.lie.dim == 3
    cr = rep.chain_report
    assert cr.m == 1
    assert cr.r_dim == 0
    surj = cr.surjectivity[0]
    assert set(surj.per_pair_image_dims.values()) == {3}
    assert len(surj.per_pair_image_dims) == 2
    assert surj.kernels_coincide
    _report(2, "two-pair chain: both pairs surjective, equal kernels")


def test_criterion_03_chain_of_three_without_skew_relation():
    rep = analysis("chain3_nonstandard")
    assert rep.hh1.lie.dim == 3
    assert rep.hh1.lie.is_solvable()
    cr = rep.chain_report
    assert cr.m == 0
    std = cr.standard[0]
    assert not std.s2
    assert any("a*d" in w and "b*c" in w for w in std.witnesses)
    _report(3, "unlinkable chain of three: solvable, m = 0")


def test_criterion_04_loops_only():
    rep = analysis("loops_solvable")
    assert rep.hh1.lie.dim == 4
    assert rep.hh1.lie.is_solvable()
    assert kronecker_pairs(table("loops_solvable")) == []
    _report(4, "loop-decorated line: solvable, no pairs")


def test_criterion_05_cyclic_chain_of_three():
    rep = analysis("cycle3_standard")
    assert rep.hh1.lie.dim == 4
    assert not rep.hh1.lie.is_solvable()
    cr = rep.chain_report
    assert cr.m == 1
    assert cr.r_dim == 1
    (chain,) = cr.classes
    assert chain.shape == "Cyclic" and len(chain.pairs) == 3
    assert chain.rotations == 3
    _report(5, "triangle of pairs: one cyclic class, remainder dim 1")


def test_criterion_06_radical_square_zero_triangle():
    rep = analysis("radsq_cycle3")
    assert rep.hh1.lie.dim == 10
    assert rep.chain_report.m == 3
    _report(6, "radical-square-zero triangle: dim 10, m = 3")


def test_criterion_07_pair_with_tail():
    rep = analysis("pair_with_tail")
    assert rep.hh1.lie.dim == 2
    assert rep.hh1.lie.is_solvable()
    assert rep.chain_report.m == 0
    names = [c.name for c in rep.graph.components]
    assert "~A1" in names
    _report(7, "pair with tail: solvable despite a Euclidean component")


def test_criterion_08_truncated_loop_brackets():
    for n in (3, 4, 5):
        rep = analysis(f"nilpotent_loop_{n}")
        res = rep.hh1
        assert res.der_dim == n - 1
        lie = res.lie
        t = table(f"nilpotent_loop_{n}")
        # generator p is the derivation x -> x^(p+1)
        for p, v in enumerate(lie.reps, start=1):
            assert sparse_value(lie.layout, v, "x") == {t.path_index[("x",) * p]: 1}
        # [x_0, x_q] = q x_q: ad x_0 has nonzero eigenvalues, so L is not nilpotent
        for p in range(n - 1):
            for q in range(n - 1):
                expected = {p + q: q - p} if p + q < n - 1 and p != q else {}
                assert lie.structure[p][q] == expected
        assert lie.is_solvable()
    _report(8, "truncated loop: graded bracket table, solvable not nilpotent")


def test_criterion_09_witt_algebra():
    rep = analysis("nilpotent_loop_3_f3")
    assert rep.hh1.der_dim == 3
    assert not rep.hh1.lie.is_solvable()
    assert rep.hh1_rad.lie.dim == 2
    assert rep.hh1_rad.lie.dim < rep.hh1.lie.dim
    assert rep.hh1_rad.lie.is_solvable()
    assert not rep.loops.holds
    assert rep.loops.orders == {"x": 3}
    _report(9, "cube-zero loop over F3: Witt algebra, criterion fails")


def test_criterion_10_symmetric_two_cycle():
    rep = analysis("trivial_extension_k2")
    cr = rep.chain_report
    assert cr.m == 1
    assert not rep.hh1_rad.lie.is_solvable()
    (chain,) = cr.classes
    assert chain.shape == "Cyclic" and len(chain.pairs) == 2
    std = cr.standard[0]
    assert std.s1 and std.s2 and std.s3
    _report(10, "symmetric double-arrow two-cycle: cyclic standard chain")


def test_criterion_11_double_arrow_with_tail_family():
    for n in (3, 4, 5):
        rep = analysis(f"radsq_tail_{n}")
        assert rep.septype == "Tame"
        assert not rep.hh1.lie.is_solvable()
        assert rep.chain_report.m == 1
    _report(11, "tame radical-square-zero family: non-solvable, m = 1")


def test_criterion_12_oracle_agreement():
    for stem in STEMS:
        t = table(stem)
        assert bar_hh1_dim(t) == hh1(t).lie.dim, stem
    _report(12, "brute-force cochain dimension matches on all corpus algebras")


def _check_leibniz(t):
    """d(x y) = d(x) y + x d(y) on basis pairs, with every product by the
    sparse ``multiply`` and d extended to all of A by ``reference.action_columns``."""
    layout, der = derivation_space(t)
    field = t.field
    for v in der:
        cols = action_columns(layout, v, range(t.dim))

        def apply(x):
            out = {}
            for k, c in x.items():
                linal.add_multiple(field, out, c, cols[k])
            return out

        for i in range(t.dim):
            bi = {i: field.one}
            for j in range(t.dim):
                bj = {j: field.one}
                rhs = t.multiply(cols[i], bj)
                linal.add_multiple(field, rhs, field.one, t.multiply(bi, cols[j]))
                assert apply(t.multiply(bi, bj)) == rhs


def _check_jacobi(lie):
    f = lie.field
    e = lambda m: {m: f.one}
    for i in range(lie.dim):
        for j in range(lie.dim):
            for k in range(lie.dim):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    linal.add_multiple(f, total, f.one,
                                       _bracket(lie, e(a), _bracket(lie, e(b), e(c))))
                assert total == {}


def _slot_sl2(t, layout, vec, a_label, b_label):
    field = t.field
    ia, ib = t.arrow_index(a_label), t.arrow_index(b_label)
    va = sparse_value(layout, vec, a_label)
    vb = sparse_value(layout, vec, b_label)
    half = field.inv(field.of(2))
    return (field.mul(half, field.sub(va.get(ia, 0), vb.get(ib, 0))), vb.get(ia, 0),
            va.get(ib, 0))


def test_criterion_13_property_suite():
    from quiverhh.derlie import inner_space
    for stem in STEMS:
        t = table(stem)
        rep = analysis(stem)
        _check_leibniz(t)
        _check_jacobi(rep.hh1.lie)
        if t.field.characteristic == 2:
            continue
        pairs = kronecker_pairs(t)
        layout = rep.hh1_rad.layout
        inn = inner_space(layout)
        lie = rep.hh1_rad.lie
        for pair in pairs:
            if not pair.delta_defined:
                continue
            # inner derivations land in the kernel of the sl2 extraction
            for v in inn:
                assert _slot_sl2(t, layout, v, pair.a, pair.b) == \
                    (t.field.zero, t.field.zero, t.field.zero)
            # the extraction respects brackets
            dm = delta_map(lie, pair.a, pair.b)
            images = _sl2_images(dm)
            for i in range(lie.dim):
                for j in range(lie.dim):
                    im = tuple(lie.field.of(sum(row.get(k, 0) * c
                                                for k, c in lie.structure[i][j].items()))
                               for row in dm.rows)
                    assert im == _sl2_bracket(lie.field, images[i], images[j])
        # radical criterion transfers to the cohomology dimensions
        if rep.loops.holds:
            assert rep.hh1.lie.dim == rep.hh1_rad.lie.dim
        # literal chain relations force surjectivity
        for chain in maximal_chains(t):
            rel = standard_relations_literal(t, chain)
            if rel.s1 and rel.s2 and rel.s3:
                assert is_surjective_chain(rep.hh1_rad, chain).surjective, stem
    _report(13, "Leibniz, Jacobi, kernel and transfer properties on the corpus")


def _random_acyclic_quiver(rng):
    n = rng.randint(2, 6)
    vertices = [str(i) for i in range(n)]
    narrows = rng.randint(1, 8)
    arrows = []
    for k in range(narrows):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        arrows.append((f"a{k}", str(i), str(j)))
    return Quiver.make(vertices, arrows)


def test_criterion_14_hereditary_formula_vs_oracle():
    rng = random.Random(20250826)
    done = 0
    while done < 50:
        q = _random_acyclic_quiver(rng)
        t = build_algebra(Presentation(q, (), linal.Field(0)))
        try:
            brute = bar_hh1_dim(t)
        except TooLarge:
            continue
        assert hereditary_hh1_dim(q) == brute, q
        done += 1
    _report(14, "Euler-characteristic formula agrees with the oracle, 50 runs")


def _perturb(p, rng):
    arrows = list(p.quiver.arrows)
    rng.shuffle(arrows)
    quiver = Quiver.make(list(p.quiver.vertices),
                         [(a.label, a.source, a.target) for a in arrows])
    scalars = [1, 2, 4, 5, -1, -2]
    relations = []
    for rel in p.relations:
        c = rng.choice(scalars)
        relations.append(type(rel)(tuple((c * coef, path)
                                         for coef, path in rel.terms)))
    return Presentation(quiver, tuple(relations), p.field, p.max_length_cap)


def test_criterion_15_invariance_under_presentation_noise():
    rng = random.Random(97)
    done = 0
    idx = 0
    while done < 20:
        stem = STEMS[idx % len(STEMS)]
        idx += 1
        base = analysis(stem)
        perturbed = run_analyze(_perturb(presentation(stem), rng))
        assert perturbed.table.dim == base.table.dim
        assert perturbed.table.rad_dims == base.table.rad_dims
        assert perturbed.hh1.lie.dim == base.hh1.lie.dim
        assert perturbed.hh1_rad.lie.dim == base.hh1_rad.lie.dim
        assert (perturbed.chain_report is None) == (base.chain_report is None)
        if base.chain_report is not None:
            assert perturbed.chain_report.m == base.chain_report.m
            assert perturbed.chain_report.r_dim == base.chain_report.r_dim
        done += 1
    _report(15, "m and dimensions stable under declaration order and rescaling")
