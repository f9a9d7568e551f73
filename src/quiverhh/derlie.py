"""Derivations, inner derivations and the Lie algebra structure on HH1.

Derivations are normalised to vanish on the vertex idempotents; such a
derivation is determined by its values on arrows, and the value on an
arrow a lies in the span of basis monomials parallel to a.  The unknowns
of the linear problem are those coefficients, one block per arrow in
declaration order; a derivation is a sparse slot vector (slot position ->
nonzero coefficient), the form ``linal`` eliminates on.

A derivation extends from the arrows to paths by the product rule
d(p a) = d(p) a + p d(a) (``_extend``), p a proper prefix of a normal
monomial or of a rule word, so a basis monomial: one ``linal.combine`` of
the column of a and the row of p per step, listed once per arrow
(``_steps``).  The extension is linear in the values on arrows, so each
slot walks its arrow's steps once, for its unit derivation, and keeps the
nonzero images (``DerivationLayout.unit_images``) the constraint rows and
the bracket of HH1 read.
"""

from __future__ import annotations

import functools

from . import linal
from .algebra import AlgebraTable
from .errors import DeltaUndefined, QuotientUndefined, UnsupportedCharacteristic
from .linal import Field
from .quiver import Quiver


class DerivationLayout:
    """Coordinate layout for the derivations of table: one slot per (arrow,
    parallel basis monomial).  slots: list of (arrow label, basis index);
    position: slot -> its position in slots; blocks: arrow label -> list of
    slot positions; words: arrow label -> the monomials parallel to an
    arrow, shortest first, then the rule words, that hold it."""

    def __init__(self, table: AlgebraTable):
        self.table, self.slots, self.blocks = table, [], {}
        parallel: dict = {}  # (source, target) -> the basis indices between them
        for i, ends in enumerate(zip(table.basis_source, table.basis_target)):
            parallel.setdefault(ends, []).append(i)
        for arrow in table.quiver.arrows:
            n = len(self.slots)
            self.slots += [(arrow.label, i) for i in parallel[arrow.source, arrow.target]]
            self.blocks[arrow.label] = list(range(n, len(self.slots)))
        self.position = {slot: s for s, slot in enumerate(self.slots)}
        words = [table.basis_paths[i] for i in sorted({bi for _, bi in self.slots})]
        words += [w for g in table.groebner for w in g]
        self.words = {label: [w for w in words if label in w] for label in self.blocks}
        self._images, self._steps = {}, {}  # slot -> unit_images; label -> _steps

    @property
    def size(self) -> int:
        return len(self.slots)

    def unit_images(self, s: int) -> dict:
        """d_s(w) != 0 for the unit derivation d_s of slot s = (a, m), sending
        a to x_m and every other arrow to 0, and each prefix w of the words of
        a: one ``_extend`` walk of the ``_steps`` of a, on the first call."""
        images = self._images.get(s)
        if images is None:
            label, m = self.slots[s]
            if label not in self._steps:
                self._steps[label] = _steps(self.words[label])
            values = {label: {m: self.table.field.one}}
            images = self._images[s] = _extend(self.table, values, self._steps[label])
        return images


def _steps(words) -> list:
    """(p, q, a) with p = q + (a,) for each nonempty prefix p of the words,
    each prefix once and after q."""
    prefixes = dict.fromkeys(w[:k] for w in words for k in range(1, len(w) + 1))
    return [(p, p[:-1], p[-1]) for p in prefixes]


def _extend(t: AlgebraTable, values: dict, steps) -> dict:
    """The nonzero d(p) = d(q) a + q d(a) for the steps (p, q, a) of a
    ``_steps`` list, where d(a) = values.get(a, 0): prefix -> sparse vector.
    A step with d(q) = 0 and d(a) = 0 gives 0 with no table read."""
    field, columns, products, index = t.field, t.columns, t.products, t.path_index
    images: dict = {}
    for p, q, a in steps:
        da, dq = values.get(a, {}), images.get(q, {})
        if q and (da or dq):
            da = linal.combine(field, (dq, columns[index[(a,)]]), (da, products[index[q]]))
        if da:
            images[p] = da
    return images


def _constraint_rows(layout: DerivationLayout) -> list:
    """Sparse linear conditions on the slot vector forcing delta(g) = 0 for
    all reduced rewriting generators g: one row per generator and nonzero
    coordinate of A.  The entry in column s is that coordinate of d_s(g),
    for the unit derivation d_s of slot s, walked only for the arrows of g;
    a word of g without the arrow of s has no stored image."""
    t = layout.table
    field = t.field
    rows = []
    for g in t.groebner:
        by_coord: dict = {}  # coordinate of delta(g) -> its row
        for label in dict.fromkeys(l for w in g for l in w):
            for s in layout.blocks[label]:
                images = layout.unit_images(s)
                delta: dict = {}  # d_s(g), from the nonzero images of its words
                for w, c in g.items():
                    if img := images.get(w):
                        linal.add_multiple(field, delta, c, img)
                for coord, a in delta.items():
                    by_coord.setdefault(coord, {})[s] = a
        rows.extend(by_coord[coord] for coord in sorted(by_coord))
    return rows


def derivation_space(table: AlgebraTable):
    """Basis (slot vectors) of the idempotent-killing derivations of A."""
    layout = DerivationLayout(table)
    rows = _constraint_rows(layout)
    basis = linal.kernel_basis(table.field, rows, layout.size)
    return layout, basis


def inner_space(layout: DerivationLayout) -> list:
    """Span of the inner derivations [u, -] for u a diagonal basis monomial.

    Every inner derivation class contains such a combination: subtracting
    the off-diagonal part of u changes [u, -] by a derivation that is zero
    on every arrow once values are matched by endpoints, and the trivial
    paths give zero.
    """
    t = layout.table
    field = t.field
    zero = field.zero
    products = t.products
    slots = [(t.arrow_index(label), bi) for label, bi in layout.slots]
    vecs = []
    for i in range(t.dim):
        if t.basis_source[i] != t.basis_target[i]:
            continue
        # slot (a, bi) of [u, -] is the bi coordinate of u*a - a*u
        vec = {}
        for s, (a, bi) in enumerate(slots):
            val = field.sub(products[i][a].get(bi, zero), products[a][i].get(bi, zero))
            if val != 0:
                vec[s] = val
        vecs.append(vec)
    return linal.span_basis(field, vecs)


def radical_preserving(layout: DerivationLayout, der_basis: list) -> list:
    """Subspace of derivations mapping the radical into itself.

    The only way a derivation value can leave the radical is through the
    trivial-path coefficient of a loop, so the cut is one linear condition
    per loop arrow.
    """
    t = layout.table
    field = t.field
    conditions = [layout.position[arrow.label, t.quiver.vertices.index(arrow.source)]
                  for arrow in t.quiver.arrows if arrow.source == arrow.target]
    if not conditions or not der_basis:
        return list(der_basis)
    rows = [{k: b[pos] for k, b in enumerate(der_basis) if pos in b} for pos in conditions]
    vecs = [linal.combine(field, (combo, der_basis))
            for combo in linal.kernel_basis(field, rows, len(der_basis))]
    return linal.span_basis(field, vecs)


class LoopReport:
    """orders: loop label -> least n with a^n in rad^(n+1); holds: char k divides no order."""

    def __init__(self, orders: dict, holds: bool):
        self.orders, self.holds = orders, holds


def loop_criterion(table: AlgebraTable) -> LoopReport:
    """Radical-depth orders of loops and the divisibility test on them.

    When the test holds every derivation preserves the radical, so the
    radical cut is a no-op; a failing loop in characteristic p pinpoints
    why HH1 and its radical-preserving part can differ.
    """
    t = table
    field = t.field
    p = field.characteristic
    # the stored bases are already reduced; rad^n = 0 past the Loewy length
    rad = t.rad_bases + [[]]
    orders = {}
    for arrow in t.quiver.arrows:
        if arrow.source != arrow.target:
            continue
        a = t.arrow_index(arrow.label)
        power = {a: field.one}
        n = 1
        while linal.reduce_against(field, power, rad[n + 1]):
            power = linal.combine(field, (power, t.columns[a]))
            n += 1
        orders[arrow.label] = n
    holds = p == 0 or all(n % p != 0 for n in orders.values())
    return LoopReport(orders, holds)


class LieAlgebra:
    """Finite-dimensional Lie algebra with explicit structure constants.

    structure[i][j] is the sparse coordinate vector of [x_i, x_j] in the
    chosen basis, the shared read-only ``linal.ZERO`` when zero (no caller
    writes into an entry); ``linal.contract`` on it brackets any two vectors.
    The basis vectors are classes of the derivation slot vectors in reps,
    written on layout.
    """

    def __init__(self, field: Field, dim: int, structure: list,
                 layout: DerivationLayout, reps: list):
        self.field, self.dim, self.structure = field, dim, structure
        self.layout, self.reps = layout, reps

    def derived_series(self, start: list | None = None) -> list:
        """Dimensions of the iterated bracket-of-itself chain from span(start),
        by default from the whole algebra (computed once per algebra)."""
        if start is None:
            return list(self._derived_dims)
        return self._derived(start)

    @functools.cached_property
    def _derived_dims(self) -> list:
        return self._derived([{i: self.field.one} for i in range(self.dim)])

    def _derived(self, start: list) -> list:
        """Dimensions of S = span(start), [S, S], ... until the dimension stops
        falling.  [S, S] is spanned by the brackets of the pairs a < b of the
        echelon basis of S: [u, u] = 0 and [v, u] = -[u, v].  When S = L, as
        first in ``_derived_dims``, they are the structure constants, i < j."""
        field, structure = self.field, self.structure
        cur = linal.span_basis(field, start)
        dims = [len(cur)]
        while cur:
            if len(cur) == self.dim:
                prods = (e for i, row in enumerate(structure) for e in row[i + 1:])
            else:
                prods = (linal.contract(field, structure, u, v)
                         for a, u in enumerate(cur) for v in cur[a + 1:])
            nxt = linal.span_basis(field, [p for p in prods if p])
            dims.append(len(nxt))
            if len(nxt) == len(cur):
                break
            cur = nxt
        return dims

    def is_solvable(self) -> bool:
        """The derived series of the whole algebra ends at 0."""
        return self._derived_dims[-1] == 0


def lie_from_quotient(layout: DerivationLayout, reps: list, inn: list) -> LieAlgebra:
    """Lie algebra on span(reps + inn) / span(inn), bracketed on reps, a
    section of the quotient: reps + inn must be linearly independent.

    The commutator [d_i, d_j] is a derivation, so it is fixed by its slot
    vector: the coordinate bi of d_i(d_j(a)) - d_j(d_i(a)) for each slot
    (a, bi).  The extension to paths is linear in the values on arrows, so
    with d_j(a) = sum of d_j[(a, m)] x_m and d_i = sum of d_i[s] d_s over
    the unit derivations d_s of the slots, d_i(d_j(a)) is the sum of
    d_i[s] d_j[(a, m)] d_s(x_m), read from the per-slot images of the
    layout (``unit_images``).  By antisymmetry only the d(d-1)/2
    commutators with i < j are computed; they are written in
    (reps | inn) coordinates by one row reduction of
    [reps | inn | commutators], and the reps part is the bracket.  The
    commutators lie in the span exactly when the pivots of that reduction
    are the reps and inn columns and nothing else.
    """
    field = layout.table.field
    paths = layout.table.basis_paths
    d = len(reps)
    slots, position = layout.slots, layout.position
    # each representative as its unit derivations, with its coefficients and
    # with their negatives, and as the words of its values
    units = [[(layout.unit_images(s), c) for s, c in v.items()] for v in reps]
    negated = [[(unit, field.neg(c)) for unit, c in u] for u in units]
    values = [[(slots[s][0], paths[slots[s][1]], c) for s, c in v.items()] for v in reps]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    comms = []
    for i, j in pairs:
        # d_i(d_j(a)) - d_j(d_i(a)), over the nonzero slots (a, m) of each
        images: dict = {}
        for acts, y in ((units[i], j), (negated[j], i)):
            for label, w, c in values[y]:
                for unit, b in acts:
                    if img := unit.get(w):
                        linal.add_multiple(field, images.setdefault(label, {}),
                                           field.mul(b, c), img)
        comms.append({position[label, bi]: c for label, img in images.items()
                      for bi, c in img.items()})
    base = d + len(inn)
    matrix = [{} for _ in range(layout.size)]
    for k, col in enumerate(reps + inn + comms):
        for r, c in col.items():
            matrix[r][k] = c
    ech, pivots = linal.rref(field, matrix)
    if pivots != list(range(base)):
        raise AssertionError("bracket left the derivation space")
    brackets: dict = {}  # (i, j) with i < j -> the sparse vector of [x_i, x_j]
    for r in range(d):
        for col, c in ech[r].items():
            if col >= base:
                brackets.setdefault(pairs[col - base], {})[r] = c
    structure = [[linal.ZERO] * d for _ in range(d)]
    for (i, j), entry in brackets.items():
        structure[i][j] = entry
        structure[j][i] = {r: field.neg(c) for r, c in entry.items()}
    return LieAlgebra(field, d, structure, layout, reps)


class HH1Result:
    """The Lie algebra lie on der/inn; der: basis of Der, or of its
    radical-preserving part; inn: basis of Inn; cut: basis of the
    radical-preserving part of Der."""

    def __init__(self, lie: LieAlgebra, der: list, inn: list, cut: list):
        self.lie, self.der, self.inn, self.cut = lie, der, inn, cut
        self.layout, self.der_dim, self.inn_dim = lie.layout, len(der), len(inn)


def hh1(table: AlgebraTable) -> HH1Result:
    """HH1(A) as an explicit Lie algebra.  Its section lists the reduced
    echelon section of cut / Inn first and, when the cut is proper, that of
    Der modulo Inn and those next, so HH1_rad is the leading block."""
    field = table.field
    layout, der = derivation_space(table)
    inn = inner_space(layout)  # reduced echelon
    cut = radical_preserving(layout, der)
    reps = linal.span_basis(field, [linal.reduce_against(field, v, inn) for v in cut])
    if len(reps) != len(cut) - len(inn):
        raise QuotientUndefined("Inn is not inside the radical-preserving derivations")
    if len(cut) < len(der):
        ech = inn + reps
        reps += linal.span_basis(field, [linal.reduce_against(field, v, ech) for v in der])
    lie = lie_from_quotient(layout, reps, inn)
    layout._images, layout._steps = {}, {}  # the bracket is their last reader
    return HH1Result(lie, der, inn, cut)


def radical_part(full: HH1Result) -> HH1Result:
    """HH1_rad of full = hh1(table): the leading d x d block of its
    structure constants, d = dim cut - dim Inn, with no bracket computed.
    When the cut keeps all of Der this is full itself."""
    lie, d = full.lie, len(full.cut) - full.inn_dim
    if d == lie.dim:
        return full
    block = [row[:d] for row in lie.structure[:d]]
    if any(k >= d for row in block for entry in row for k in entry):
        raise AssertionError("bracket left the radical-preserving derivations")
    rad = LieAlgebra(lie.field, d, block, lie.layout, lie.reps[:d])
    return HH1Result(rad, full.cut, full.inn, full.cut)


# -- the rank-one cut down to sl2 -----------------------------------------


def delta_defined(quiver: Quiver, a_label: str, b_label: str) -> bool:
    """The only arrows out of a's source and into a's target: an isolated parallel pair."""
    a = quiver.arrow(a_label)
    quiver.arrow(b_label)  # an unknown label raises InvalidArrow
    pair = {a_label, b_label}
    return (len(pair) == 2 and pair == {x.label for x in quiver.arrows_from(a.source)}
            == {x.label for x in quiver.arrows_to(a.target)})


class DeltaMap:
    """Projection of a derivation Lie algebra onto sl2 along a parallel pair.
    rows: sparse H, E and F rows ([H,E]=2E, [H,F]=-2F, [E,F]=H), indexed by
    source basis vector; dim: the source's; echelon: the reduced echelon
    basis of the span of rows.  The kernel is the annihilator of that span,
    so two projections of one source have the same kernel exactly when
    their echelons are equal."""

    def __init__(self, field: Field, pair: tuple, rows: list, dim: int, echelon: list):
        self.field, self.pair, self.rows = field, pair, rows
        self.dim, self.echelon = dim, echelon

    @property
    def rank(self) -> int:
        return len(self.echelon)

    @property
    def surjective(self) -> bool:
        return self.rank == 3


def delta_map(lie: LieAlgebra, a_label: str, b_label: str) -> DeltaMap:
    """Read off the sl2 component of each class along the pair (a, b).

    For a representative derivation d with
    d(a) = caa*a + cab*b + ..., d(b) = cba*a + cbb*b + ...,
    the image is x*H + y*E + z*F with x = (caa - cbb)/2, y = cba, z = cab.
    """
    layout = lie.layout
    table = layout.table
    field = table.field
    if field.characteristic == 2:
        raise UnsupportedCharacteristic(
            "the sl2 projection needs 2 to be invertible")
    if not delta_defined(table.quiver, a_label, b_label):
        raise DeltaUndefined(
            f"the pair ({a_label}, {b_label}) is not isolated at its endpoints")
    ia = table.arrow_index(a_label)
    ib = table.arrow_index(b_label)
    pos = layout.position
    aa, bb = pos[a_label, ia], pos[b_label, ib]
    ba, ab = pos[b_label, ia], pos[a_label, ib]
    half = field.inv(field.of(2))
    zero = field.zero
    rows = [{}, {}, {}]
    for k, rep in enumerate(lie.reps):
        x = field.sub(rep.get(aa, zero), rep.get(bb, zero))
        for row, c in zip(rows, (x and field.mul(half, x), rep.get(ba, zero),
                                 rep.get(ab, zero))):
            if c != 0:
                row[k] = c
    return DeltaMap(field, (a_label, b_label), rows, lie.dim, linal.span_basis(field, rows))
