"""The paper's theorem checked over every small radical-square-zero algebra.

A radical-square-zero algebra has the representation type of its separated
quiver (Gabriel; Dlab-Ringel and Nazarova for tame type), which is what the
report's ``septype`` computes, so the non-wild cases are known without the
pipeline.  On each of them HH1_rad must split as m copies of sl2 plus a
solvable ideal of dimension dim - 3m.
"""

import itertools

import pytest

from quiverhh.algebra import Presentation, Relation
from quiverhh.analysis import AnalysisOptions, run_analyze
from quiverhh.linal import Field
from quiverhh.quiver import Quiver


def connected(vertices, ends):
    reached = {vertices[0]}
    for _ in vertices:
        reached |= {w for s, t in ends for v, w in ((s, t), (t, s)) if v in reached}
    return len(reached) == len(vertices)


def radical_square_zero_algebras(field):
    """Every connected quiver on the labelled vertices 1..n, n <= 3, with at
    most four arrows (a multiset of ordered vertex pairs), every path of
    length two a relation."""
    for n in (1, 2, 3):
        vertices = [str(v) for v in range(1, n + 1)]
        pairs = list(itertools.product(vertices, repeat=2))
        for k in range(5):
            for ends in itertools.combinations_with_replacement(pairs, k):
                if not connected(vertices, ends):
                    continue
                arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)]
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
