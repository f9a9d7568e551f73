"""The paper's theorem checked over every small radical-square-zero algebra,
every small Brauer graph algebra and every small gentle algebra.

A radical-square-zero algebra has the representation type of its separated
quiver (Gabriel; Dlab-Ringel and Nazarova for tame type), which is what the
report's ``septype`` computes, so the non-wild cases are known without the
pipeline.  Brauer graph algebras and gentle algebras are special biserial,
so of finite or tame type (Wald-Waschbüsch 1985; Butler-Ringel 1987).  On
each non-wild algebra HH1_rad must split as m copies of sl2 plus a solvable
ideal of dimension dim - 3m.
"""

import itertools
from collections import Counter

import pytest

from quiverhh.algebra import Presentation, Relation
from quiverhh.analysis import AnalysisOptions, run_analyze
from quiverhh.errors import NotFiniteDimensional
from quiverhh.linal import Field
from quiverhh.quiver import Quiver


def connected(vertices, ends):
    reached = {vertices[0]}
    for _ in vertices:
        reached |= {w for s, t in ends for v, w in ((s, t), (t, s)) if v in reached}
    return len(reached) == len(vertices)


def small_quivers():
    """Every connected quiver on the labelled vertices 1..n, n <= 3, with at
    most four arrows (a multiset of ordered vertex pairs), as its vertices
    and its arrows."""
    for n in (1, 2, 3):
        vertices = [str(v) for v in range(1, n + 1)]
        pairs = list(itertools.product(vertices, repeat=2))
        for k in range(5):
            for ends in itertools.combinations_with_replacement(pairs, k):
                if connected(vertices, ends):
                    yield vertices, [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)]


def radical_square_zero_algebras(field):
    """Every small quiver with every path of length two a relation."""
    for vertices, arrows in small_quivers():
        relations = tuple(Relation(((1, (x, y)),)) for x, _, tx in arrows
                          for y, sy, _ in arrows if tx == sy)
        yield Presentation(Quiver.make(vertices, arrows), relations, field)


@pytest.mark.parametrize("p", [0, 3], ids=["Q", "fp3"])
def test_the_theorem_holds_on_every_small_radical_square_zero_algebra(p):
    """The oracle agrees everywhere, and on every non-wild algebra the
    joint kernel of the m surjective sl2 projections is solvable of
    dimension dim HH1_rad - 3m, as the consistency flag says.

    A mutation that drops the F row of each surjective projection from the
    joint kernel fails 54 algebras per field.  Radical square zero has no
    chain links, so every chain is a single pair: a wrong count of the
    rotations of a closed chain does not show here."""
    seen = nonwild = 0
    for presentation in radical_square_zero_algebras(Field(p)):
        report = run_analyze(presentation, AnalysisOptions(oracle=True))
        assert report.oracle_dim == report.hh1.lie.dim, presentation
        seen += 1
        if report.septype == "Wild":
            continue
        nonwild += 1
        cr = report.chain_report
        assert cr.consistency_ok, presentation
        assert cr.joint_kernel_derived_dims[-1] == 0, presentation
        assert cr.joint_kernel_dim == report.hh1_rad.lie.dim - 3 * cr.m, presentation
    assert (seen, nonwild) == (467, 247)


def brauer_graph_algebras(field):
    """Every connected Brauer graph with one or two edges and vertex
    multiplicities 1 or 2, none truncated (one end and multiplicity 1).
    The ends 2i and 2i + 1 belong to edge i, and a permutation sigma of
    the ends lists the ends at each vertex in cyclic order, one cycle per
    vertex.  The quiver has a vertex per edge and an arrow a_h from the
    edge of h to that of sigma(h); C_h is the cycle a_h a_sigma(h) ...
    around the vertex of h, to the power of its multiplicity m, and the
    relations are C_h^m - C_h'^m' for the two ends of each edge, a_h a_g
    when g is not sigma(h), and C_h^m a_h."""
    for edges in (1, 2):
        ends = range(2 * edges)
        for sigma in itertools.permutations(ends):
            around = {}
            for h in ends:
                cycle = [h]
                while sigma[cycle[-1]] != h:
                    cycle.append(sigma[cycle[-1]])
                around[h] = cycle
            vertices = sorted({min(c) for c in around.values()})
            if not connected(vertices, [(min(around[2 * i]), min(around[2 * i + 1]))
                                        for i in range(edges)]):
                continue
            quiver = Quiver.make([str(i) for i in range(edges)],
                                 [(f"a{h}", str(h // 2), str(sigma[h] // 2)) for h in ends])
            for mults in itertools.product((1, 2), repeat=len(vertices)):
                m = {h: mults[vertices.index(min(around[h]))] for h in ends}
                if any(len(around[h]) == 1 and m[h] == 1 for h in ends):
                    continue
                cyc = {h: tuple(f"a{g}" for g in around[h]) * m[h] for h in ends}
                relations = ([((1, cyc[2 * i]), (-1, cyc[2 * i + 1])) for i in range(edges)]
                             + [((1, (f"a{h}", f"a{g}")),) for h in ends for g in ends
                                if g // 2 == sigma[h] // 2 and g != sigma[h]]
                             + [((1, cyc[h] + (f"a{h}",)),) for h in ends])
                yield Presentation(quiver, tuple(map(Relation, relations)), field)


@pytest.mark.parametrize("p", [0, 3], ids=["Q", "fp3"])
def test_the_theorem_holds_on_every_small_brauer_graph_algebra(p):
    """The 47 Brauer graph algebras on at most two edges have binomial
    relations and linked Kronecker pairs.  The type is taken from the
    family, not from septype, which is exact only for radical square zero.
    The oracle agrees, and the joint kernel is solvable of dimension
    dim HH1_rad - 3m.  Two edges between two vertices, each of
    multiplicity 1, give m = 1 from a cyclic chain with two rotations."""
    seen, two_rotations = 0, 0
    for presentation in brauer_graph_algebras(Field(p)):
        report = run_analyze(presentation, AnalysisOptions(oracle=True, assert_nonwild=True))
        assert report.oracle_dim == report.hh1.lie.dim, presentation
        cr = report.chain_report
        assert cr.consistency_ok, presentation
        assert cr.joint_kernel_derived_dims[-1] == 0, presentation
        assert cr.joint_kernel_dim == report.hh1_rad.lie.dim - 3 * cr.m, presentation
        seen += 1
        two_rotations += cr.m == 1 and any(
            chain.shape == "Cyclic" and chain.rotations == 2 for chain in cr.classes)
    assert (seen, two_rotations) == (47, 2)


def gentle_algebras(field):
    """Every small quiver with one to four arrows, at most two arrows in and
    two out at each vertex, with every set of zero relations of length two
    that is gentle: each arrow b has, on each side, at most one arrow whose
    product with b is nonzero and at most one whose product is zero.  Some
    of these quotients are infinite dimensional."""
    for vertices, arrows in small_quivers():
        sources, targets = Counter(s for _, s, _ in arrows), Counter(t for _, _, t in arrows)
        if not arrows or max(sources.values()) > 2 or max(targets.values()) > 2:
            continue
        paths = [(x, y) for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
        for k in range(len(paths) + 1):
            for zero in itertools.combinations(paths, k):
                if is_gentle(arrows, paths, zero):
                    relations = tuple(Relation(((1, p),)) for p in zero)
                    yield Presentation(Quiver.make(vertices, arrows), relations, field)


def is_gentle(arrows, paths, zero) -> bool:
    for x, _, _ in arrows:
        for side in (0, 1):
            vanishes = [p in zero for p in paths if p[side] == x]
            if vanishes.count(True) > 1 or vanishes.count(False) > 1:
                return False
    return True


@pytest.mark.parametrize("p", [0, 3], ids=["Q", "fp3"])
def test_the_theorem_holds_on_every_small_gentle_algebra(p):
    """Gentle algebras have zero relations that let an arrow product survive,
    so linked Kronecker pairs.  Each finite-dimensional one passes the checks
    of the Brauer graph sweep; the others are refused as infinite
    dimensional.  Twelve have a chain of two or more pairs, and two have
    m > 0."""
    seen = refused = linked = with_sl2 = 0
    for presentation in gentle_algebras(Field(p)):
        try:
            report = run_analyze(presentation,
                                 AnalysisOptions(oracle=True, assert_nonwild=True))
        except NotFiniteDimensional:
            refused += 1
            continue
        assert report.oracle_dim == report.hh1.lie.dim, presentation
        cr = report.chain_report
        assert cr.consistency_ok, presentation
        assert cr.joint_kernel_derived_dims[-1] == 0, presentation
        assert cr.joint_kernel_dim == report.hh1_rad.lie.dim - 3 * cr.m, presentation
        seen += 1
        linked += any(len(chain.pairs) > 1 for chain in cr.classes)
        with_sl2 += cr.m > 0
    assert (seen, refused, linked, with_sl2) == (424, 406, 12, 2)
