import pytest

from quiverhh.algebra import Presentation, Relation, build_algebra
from quiverhh.derlie import hh1
from quiverhh.errors import UnsupportedCharacteristic
from quiverhh.kron import (decomposition_report, equivalence_classes,
                           is_surjective_chain, kronecker_pairs, maximal_chains,
                           standard_relations_literal)
from quiverhh.linal import Field
from quiverhh.quiver import Quiver, reptype_radsq

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
    pairs, oversized = kronecker_pairs(kronecker())
    assert len(pairs) == 1 and not oversized
    assert pairs[0].labels == ("a", "b")
    assert pairs[0].delta_defined

    triple = build(["1", "2", "3"],
                   [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2"),
                    ("d", "2", "3")],
                   [[(1, (x, "d"))] for x in "abc"])
    pairs, oversized = kronecker_pairs(triple)
    assert pairs == []
    assert oversized == [["a", "b", "c"]]


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
    classes = equivalence_classes(t, chains)
    assert len(classes) == 1
    assert classes[0].size == 3


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
    assert rep.all_hold and rep.witnesses == []

    t2 = build(["1", "2", "3"],
               [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"), ("d", "2", "3")],
               [[(1, ("a", "c"))], [(1, ("b", "d"))]])
    chain2 = maximal_chains(t2)[0]
    rep2 = standard_relations_literal(t2, chain2)
    assert not rep2.s2
    assert any("a*d" in w and "b*c" in w for w in rep2.witnesses)


def test_witnesses_follow_the_chain_order():
    # two S1 witnesses; iterating a set of labels made their order vary
    # with the string hash seed from one run to the next
    t = build(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")], [])
    rep = standard_relations_literal(t, maximal_chains(t)[0])
    assert rep.witnesses == ["a*c", "b*c"]


def test_surjectivity():
    t = chain_two()
    h = hh1(t, rad_only=True)
    chain = maximal_chains(t)[0]
    rep = is_surjective_chain(t, h, chain)
    assert rep.surjective
    assert rep.kernels_coincide
    assert set(rep.per_pair_image_dims.values()) == {3}


def test_decomposition_report_counts():
    t = triangle()
    h = hh1(t, rad_only=True)
    rep = decomposition_report(t, h, reptype_radsq(t.quiver))
    assert rep.m == 1
    assert rep.hh1_rad_dim == 4
    assert rep.r_dim == 1
    assert not rep.solvable
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
    rep = decomposition_report(t, hh1(t, rad_only=True), reptype_radsq(t.quiver))
    assert rep.m == 1
    assert sorted(rep.surjectivity[0].per_pair_image_dims.values()) == [2, 3]
    assert rep.joint_kernel_dim == rep.r_dim == 2
    assert rep.joint_kernel_derived_dims[-1] == 0


def test_decomposition_refuses_characteristic_two():
    t = build(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [], field=Field(2))
    h = hh1(t, rad_only=True)
    with pytest.raises(UnsupportedCharacteristic):
        decomposition_report(t, h, reptype_radsq(t.quiver))


def test_standard_implies_surjective_here():
    for t in (kronecker(), chain_two(), triangle()):
        h = hh1(t, rad_only=True)
        for chain in maximal_chains(t):
            if standard_relations_literal(t, chain).all_hold:
                assert is_surjective_chain(t, h, chain).surjective
