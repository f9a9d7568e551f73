"""Kronecker pairs, maximal chains and the sl2-summand count m.

A Kronecker pair is a parallel class of exactly two arrows.  Chains link
pairs head to tail where a cross product survives; unless A is wild the
links form disjoint paths and cycles.  Maximal chains, each standing for its
class of rotations, split the radical-preserving part of HH1 into m
copies of sl2 plus a solvable remainder.
"""

from __future__ import annotations

from . import linal
from .algebra import AlgebraTable
from .derlie import DeltaMap, HH1Result, delta_defined, delta_map
from .errors import DeltaUndefined, UnsupportedCharacteristic
from .quiver import reptype_radsq  # noqa: F401  bench/spans.py wraps kron.reptype_radsq
from .value import Value


class KroneckerPair(Value, fields=("a", "b", "source", "target", "delta_defined")):
    def __init__(self, a: str, b: str, source: str, target: str, delta_defined: bool):
        self.a, self.b, self.source, self.target = a, b, source, target
        self.delta_defined = delta_defined

    @property
    def labels(self):
        return (self.a, self.b)


class KroneckerChain(Value, fields=("pairs", "shape", "rotations")):
    """pairs: tuple of KroneckerPair; shape: DoubleLoop, Cyclic or Linear;
    rotations: the number of rotations of pairs that are maximal chains."""

    def __init__(self, pairs: tuple, shape: str, rotations: int):
        self.pairs, self.shape, self.rotations = pairs, shape, rotations

    def key(self):
        return tuple(p.labels for p in self.pairs)


def kronecker_pairs(table: AlgebraTable) -> list:
    """All parallel double-arrow pairs, ordered by declaration.  A parallel
    class of three or more arrows admits no pair."""
    q = table.quiver
    classes: dict = {}
    for arrow in q.arrows:
        classes.setdefault((arrow.source, arrow.target), []).append(arrow.label)
    return [KroneckerPair(*labels, src, tgt, delta_defined(q, *labels))
            for (src, tgt), labels in classes.items() if len(labels) == 2]


def _arrow_product(table: AlgebraTable, x: str, y: str) -> dict:
    """The product x*y of two arrows, as a sparse vector read from the table."""
    return table.products[table.arrow_index(x)][table.arrow_index(y)]


def _cross_product_survives(table: AlgebraTable, p: KroneckerPair,
                            q: KroneckerPair) -> bool:
    return any(_arrow_product(table, x, y) for x in (p.a, p.b) for y in (q.a, q.b))


def _chain_shape(pairs) -> str:
    if len(pairs) == 1 and pairs[0].source == pairs[0].target:
        return "DoubleLoop"
    if pairs[0].source == pairs[-1].target:
        return "Cyclic"
    return "Linear"


def maximal_chains(table: AlgebraTable):
    """Maximal Kronecker chains, one per rotation class, cyclic ones as
    their least rotation.

    Two links out of one pair, or into one, join a vertex of the separated
    quiver to two others by double edges, so A/rad^2 and A are wild: that
    raises DeltaUndefined.  Otherwise the links are disjoint paths, each one
    chain, and cycles, whose maximal chains are all their rotations."""
    pairs = kronecker_pairs(table)
    following, preceding = {}, {}
    for p in pairs:
        for q in pairs:
            if q is not p and p.target == q.source and _cross_product_survives(table, p, q):
                if p in following or q in preceding:
                    raise DeltaUndefined(
                        f"Kronecker pairs branch at vertex {p.target}: the algebra "
                        f"is wild, and its chains are not defined")
                following[p], preceding[q] = q, p
    # the paths from their first pairs, then what is left: the cycles
    chains, seen = [], set()
    for start in [p for p in pairs if p not in preceding] + pairs:
        if start in seen:
            continue
        seq = [start]
        while following.get(seq[-1], start) is not start:
            seq.append(following[seq[-1]])
        seen.update(seq)
        rotations = 1
        if start in preceding:
            # pairs have distinct labels, so the least rotation starts at the least pair
            i = seq.index(min(seq, key=lambda p: p.labels))
            seq, rotations = seq[i:] + seq[:i], len(seq)
        chains.append(KroneckerChain(tuple(seq), _chain_shape(seq), rotations))
    return sorted(chains, key=KroneckerChain.key)


class SurjectivityReport:
    """per_pair_image_dims: pair labels -> rank of its sl2 projection;
    delta: the projection of the first surjective pair, or None."""

    def __init__(self, per_pair_image_dims: dict, kernels_coincide: bool,
                 delta: DeltaMap | None):
        self.per_pair_image_dims = per_pair_image_dims
        self.kernels_coincide, self.delta = kernels_coincide, delta

    @property
    def surjective(self) -> bool:
        return self.delta is not None


def is_surjective_chain(h: HH1Result, chain: KroneckerChain) -> SurjectivityReport:
    """Test the sl2 projection along each isolated pair of the chain.

    Surjective means some pair's projection hits all of sl2; for chains
    where that happens all surjective pairs must cut out the same kernel,
    that is, their projections must have rows of the same span.
    """
    maps = [delta_map(h.lie, p.a, p.b) for p in chain.pairs if p.delta_defined]
    surjective = [dm for dm in maps if dm.surjective]
    coincide = all(dm.echelon == surjective[0].echelon for dm in surjective)
    return SurjectivityReport({dm.pair: dm.rank for dm in maps}, coincide,
                              surjective[0] if surjective else None)


class StandardRelationsReport:
    def __init__(self, s1: bool, s2: bool, s3: bool, witnesses: list):
        self.s1, self.s2, self.s3, self.witnesses = s1, s2, s3, witnesses


def standard_relations_literal(table: AlgebraTable,
                               chain: KroneckerChain) -> StandardRelationsReport:
    """Check the chain relations verbatim in the given presentation.

    (S1) every product of a chain arrow with a non-chain arrow vanishes;
    (S2) along the chain, a_i a_{i+1} = 0, b_i b_{i+1} = 0 and
    a_i b_{i+1} + b_i a_{i+1} = 0; (S3) the same triple at the wrap-around
    when the chain closes up.  No base change is attempted.  Every product
    or sum is tested, every link of S2 included, and each failing one is a
    witness.
    """
    chain_arrows = [x for p in chain.pairs for x in p.labels]
    others = [x.label for x in table.quiver.arrows if x.label not in chain_arrows]
    witnesses = []

    def vanishes(*products) -> bool:
        total: dict = {}
        for x, y in products:
            linal.add_multiple(table.field, total, table.field.one, _arrow_product(table, x, y))
        if total:
            witnesses.append(" + ".join(f"{x}*{y}" for x, y in products))
        return not total

    # arrows that do not compose have the empty product in the table
    s1 = all([vanishes(path) for c in chain_arrows for d in others
              for path in ((c, d), (d, c))])

    def triple(p: KroneckerPair, r: KroneckerPair) -> bool:
        return all([vanishes((p.a, r.a)), vanishes((p.b, r.b)),
                    vanishes((p.a, r.b), (p.b, r.a))])

    s2 = all([triple(chain.pairs[i], chain.pairs[i + 1])
              for i in range(len(chain.pairs) - 1)])
    s3 = chain.shape == "Linear" or triple(chain.pairs[-1], chain.pairs[0])
    return StandardRelationsReport(s1, s2, s3, witnesses)


class ChainReport:
    """classes: the maximal chains, one per rotation class, with one
    SurjectivityReport and one StandardRelationsReport per chain in
    surjectivity and standard;
    joint_kernel: sparse basis of the kernel onto the m sl2 summands."""

    def __init__(self, classes: list, surjectivity: list, standard: list, m: int,
                 r_dim: int, joint_kernel: list, joint_kernel_derived_dims: list,
                 flags: dict, consistency_ok: bool):
        self.classes, self.surjectivity, self.standard = classes, surjectivity, standard
        self.m, self.r_dim, self.joint_kernel = m, r_dim, joint_kernel
        self.joint_kernel_derived_dims = joint_kernel_derived_dims
        self.flags, self.consistency_ok = flags, consistency_ok

    @property
    def joint_kernel_dim(self) -> int:
        return len(self.joint_kernel)


def decomposition_report(h: HH1Result, septype: str, assert_nonwild: bool = False, *,
                         chains: list) -> ChainReport:
    """Assemble m, the solvable remainder and the hypothesis flags.

    septype, the separated quiver's verdict (``GraphClass.reptype``), and
    chains (``maximal_chains``) come from the analysis.

    m counts the rotation classes of maximal chains whose sl2 projection
    is surjective; under the stated hypotheses (characteristic not 2 and
    non-wild type) the radical-preserving part of HH1 splits as m copies
    of sl2 plus a solvable ideal of dimension dim - 3m.
    """
    table = h.layout.table
    field = table.field
    if field.characteristic == 2:
        raise UnsupportedCharacteristic(
            "the decomposition count needs 2 to be invertible")
    surj = [is_surjective_chain(h, chain) for chain in chains]
    std = [standard_relations_literal(table, chain) for chain in chains]
    m = sum(1 for s in surj if s.surjective)
    lie = h.lie
    derived = lie.derived_series()
    solvable = lie.is_solvable()
    r_dim = lie.dim - 3 * m

    # kernel of the combined projection onto the m sl2 summands: the
    # stacked rows of each surjective class's first surjective pair
    rows = [row for s in surj if s.surjective for row in s.delta.rows]
    kernel = linal.kernel_basis(field, rows, lie.dim)
    # with no sl2 summand the joint kernel is all of L
    joint_derived = lie.derived_series(kernel) if rows else list(derived)

    flags = {
        "char_ne_2": True,
        "qs_nonwild_compatible": septype != "Wild",
        "user_asserted_nonwild": assert_nonwild,
    }
    conditional = flags["qs_nonwild_compatible"] or flags["user_asserted_nonwild"]
    # HH1_rad is m copies of sl2 plus the joint kernel, a solvable ideal
    consistency_ok = not conditional or (solvable == (m == 0) and joint_derived[-1] == 0)
    return ChainReport(chains, surj, std, m, r_dim, kernel, joint_derived, flags,
                       consistency_ok)

