"""Kronecker pairs, maximal chains and the sl2-summand count m.

A Kronecker pair is a parallel class of exactly two arrows.  Chains link
pairs head to tail, subject to at least one of the four cross products
surviving in the algebra; maximal chains and their rotation classes drive
the decomposition of the radical-preserving part of HH1 into m copies of
sl2 plus a solvable remainder.
"""

from __future__ import annotations

from . import linal
from .algebra import AlgebraTable
from .derlie import DeltaMap, HH1Result, delta_defined, delta_map
from .errors import UnsupportedCharacteristic
from .quiver import reptype_radsq  # noqa: F401  bench/spans.py wraps kron.reptype_radsq
from .value import Value


class KroneckerPair(Value, fields=("a", "b", "source", "target", "delta_defined")):
    def __init__(self, a: str, b: str, source: str, target: str, delta_defined: bool):
        self.a, self.b, self.source, self.target = a, b, source, target
        self.delta_defined = delta_defined

    @property
    def labels(self):
        return (self.a, self.b)


class KroneckerChain(Value, fields=("pairs", "shape")):
    """pairs: tuple of KroneckerPair; shape: DoubleLoop, Cyclic or Linear."""

    def __init__(self, pairs: tuple, shape: str):
        self.pairs, self.shape = pairs, shape

    @property
    def arrow_labels(self):
        out = []
        for p in self.pairs:
            out.extend([p.a, p.b])
        return out

    @property
    def is_closed(self) -> bool:
        return self.pairs[0].source == self.pairs[-1].target

    def key(self):
        return tuple(p.labels for p in self.pairs)


def kronecker_pairs(table: AlgebraTable):
    """All parallel double-arrow pairs, ordered by declaration.

    Returns (pairs, oversized) where oversized lists parallel classes of
    three or more arrows; those classes admit no pair and already force
    wild type through the separated quiver.
    """
    q = table.quiver
    classes: dict = {}
    for arrow in q.arrows:
        classes.setdefault((arrow.source, arrow.target), []).append(arrow.label)
    pairs = []
    oversized = []
    for (src, tgt), labels in classes.items():
        if len(labels) == 2:
            a, b = labels
            pairs.append(KroneckerPair(a, b, src, tgt,
                                       delta_defined(q, a, b)))
        elif len(labels) > 2:
            oversized.append(labels)
    return pairs, oversized


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
    """Maximal Kronecker chains, cyclic ones as their smallest rotation."""
    pairs, _ = kronecker_pairs(table)

    def can_follow(p: KroneckerPair, q: KroneckerPair) -> bool:
        return (q is not p and p.target == q.source
                and _cross_product_survives(table, p, q))

    # every chain, depth first from each pair in order; an explicit stack,
    # because a recursive closure is a reference cycle that keeps the table
    # alive until the next full garbage collection
    all_chains = []
    stack = [(p,) for p in reversed(pairs)]
    while stack:
        seq = stack.pop()
        all_chains.append(seq)
        stack.extend(seq + (q,) for q in reversed(pairs)
                     if q not in seq and can_follow(seq[-1], q))

    def extendable(seq) -> bool:
        return any(q not in seq and (can_follow(seq[-1], q) or can_follow(q, seq[0]))
                   for q in pairs)

    maximal = [seq for seq in all_chains if not extendable(seq)]
    # each sequence is enumerated once; a closed chain is kept as the least
    # of its rotations that are themselves maximal chains
    maximal_set = set(maximal)
    chains = {}
    for seq in maximal:
        shape = _chain_shape(seq)
        if shape == "Cyclic":
            seq = min((rot for rot in (seq[i:] + seq[:i] for i in range(len(seq)))
                       if rot in maximal_set),
                      key=lambda rot: tuple(p.labels for p in rot))
        chain = KroneckerChain(seq, shape)
        chains[chain.key()] = chain
    return sorted(chains.values(), key=KroneckerChain.key)


class ChainClass:
    """size: the number of rotations realised as chains."""

    def __init__(self, representative: KroneckerChain, size: int):
        self.representative, self.size = representative, size


def equivalence_classes(table: AlgebraTable, chains) -> list:
    """Rotation orbits; non-closed chains are singletons."""
    out = []
    for chain in chains:
        if chain.shape != "Cyclic":
            out.append(ChainClass(chain, 1))
            continue
        seq = list(chain.pairs)
        size = 0
        for i in range(len(seq)):
            rot = seq[i:] + seq[:i]
            ok = all(_cross_product_survives(table, rot[k], rot[k + 1])
                     for k in range(len(rot) - 1))
            if ok:
                size += 1
        out.append(ChainClass(chain, size))
    return out


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


def is_surjective_chain(table: AlgebraTable, h: HH1Result,
                        chain: KroneckerChain) -> SurjectivityReport:
    """Test the sl2 projection along each isolated pair of the chain.

    Surjective means some pair's projection hits all of sl2; for chains
    where that happens all surjective pairs must cut out the same kernel.
    """
    dims = {}
    surjective = []
    for pair in chain.pairs:
        if not pair.delta_defined:
            continue
        dm = delta_map(h.lie, pair.a, pair.b)
        dims[pair.labels] = dm.rank
        if dm.surjective:
            surjective.append(dm)
    kernels = [linal.span_basis(table.field, dm.kernel) for dm in surjective]
    coincide = all(k == kernels[0] for k in kernels)
    return SurjectivityReport(dims, coincide, surjective[0] if surjective else None)


class StandardRelationsReport:
    def __init__(self, s1: bool, s2: bool, s3: bool, witnesses: list):
        self.s1, self.s2, self.s3, self.witnesses = s1, s2, s3, witnesses

    @property
    def all_hold(self) -> bool:
        return self.s1 and self.s2 and self.s3


def standard_relations_literal(table: AlgebraTable,
                               chain: KroneckerChain) -> StandardRelationsReport:
    """Check the chain relations verbatim in the given presentation.

    (S1) every product of a chain arrow with a non-chain arrow vanishes;
    (S2) along the chain, a_i a_{i+1} = 0, b_i b_{i+1} = 0 and
    a_i b_{i+1} + b_i a_{i+1} = 0; (S3) the same triple at the wrap-around
    when the chain closes up.  No base change is attempted.
    """
    q = table.quiver
    chain_arrows = set(chain.arrow_labels)
    witnesses = []

    def vanishes(*products) -> bool:
        total: dict = {}
        for x, y in products:
            linal.add_multiple(table.field, total, table.field.one, _arrow_product(table, x, y))
        return not total

    s1 = True
    for c in chain.arrow_labels:
        for arrow in q.arrows:
            d = arrow.label
            if d in chain_arrows:
                continue
            for path in ((c, d), (d, c)):
                if (q.arrow(path[0]).target == q.arrow(path[1]).source
                        and not vanishes(path)):
                    s1 = False
                    witnesses.append("*".join(path))

    def triple(p: KroneckerPair, r: KroneckerPair) -> bool:
        ok = True
        if not vanishes((p.a, r.a)):
            ok = False
            witnesses.append(f"{p.a}*{r.a}")
        if not vanishes((p.b, r.b)):
            ok = False
            witnesses.append(f"{p.b}*{r.b}")
        if not vanishes((p.a, r.b), (p.b, r.a)):
            ok = False
            witnesses.append(f"{p.a}*{r.b} + {p.b}*{r.a}")
        return ok

    s2 = all(triple(chain.pairs[i], chain.pairs[i + 1])
             for i in range(len(chain.pairs) - 1))
    s3 = True
    if chain.is_closed:
        s3 = triple(chain.pairs[-1], chain.pairs[0])
    return StandardRelationsReport(s1, s2, s3, witnesses)


class ChainReport:
    """classes: list of ChainClass, with one SurjectivityReport and one
    StandardRelationsReport per class in surjectivity and standard;
    joint_kernel: sparse basis of the kernel onto the m sl2 summands."""

    def __init__(self, classes: list, surjectivity: list, standard: list, m: int,
                 hh1_rad_dim: int, solvable: bool, derived_dims: list, r_dim: int,
                 joint_kernel: list, joint_kernel_derived_dims: list, flags: dict,
                 consistency_ok: bool):
        self.classes, self.surjectivity, self.standard = classes, surjectivity, standard
        self.m, self.hh1_rad_dim, self.r_dim = m, hh1_rad_dim, r_dim
        self.solvable, self.derived_dims = solvable, derived_dims
        self.joint_kernel = joint_kernel
        self.joint_kernel_derived_dims = joint_kernel_derived_dims
        self.flags, self.consistency_ok = flags, consistency_ok

    @property
    def joint_kernel_dim(self) -> int:
        return len(self.joint_kernel)


def decomposition_report(table: AlgebraTable, h: HH1Result, septype: str,
                         assert_nonwild: bool = False) -> ChainReport:
    """Assemble m, the solvable remainder and the hypothesis flags.

    septype is the representation-type verdict of the separated quiver
    (``GraphClass.reptype``), which the analysis has already computed.

    m counts the rotation classes of maximal chains whose sl2 projection
    is surjective; under the stated hypotheses (characteristic not 2 and
    non-wild type) the radical-preserving part of HH1 splits as m copies
    of sl2 plus a solvable ideal of dimension dim - 3m.
    """
    field = table.field
    if field.characteristic == 2:
        raise UnsupportedCharacteristic(
            "the decomposition count needs 2 to be invertible")
    chains = maximal_chains(table)
    classes = equivalence_classes(table, chains)
    surj = [is_surjective_chain(table, h, cl.representative) for cl in classes]
    std = [standard_relations_literal(table, cl.representative) for cl in classes]
    m = sum(1 for s in surj if s.surjective)
    lie = h.lie
    derived = lie.derived_series()
    solvable = derived[-1] == 0
    r_dim = lie.dim - 3 * m

    # kernel of the combined projection onto the m sl2 summands: the
    # stacked rows of each surjective class's first surjective pair
    rows = [row for s in surj if s.surjective for row in s.delta.rows]
    kernel = linal.kernel_basis(field, rows, lie.dim)
    if not rows:  # no sl2 summand: the joint kernel is all of L
        joint_derived = list(derived)
    elif kernel:
        joint_derived = lie.derived_series(kernel)
    else:
        joint_derived = [0]

    flags = {
        "char_ne_2": True,
        "qs_nonwild_compatible": septype != "Wild",
        "user_asserted_nonwild": assert_nonwild,
    }
    conditional = flags["qs_nonwild_compatible"] or flags["user_asserted_nonwild"]
    consistency_ok = (not conditional) or (solvable == (m == 0))
    return ChainReport(classes, surj, std, m, lie.dim, solvable, derived,
                       r_dim, kernel, joint_derived, flags, consistency_ok)

