"""Derivations, inner derivations and the Lie algebra structure on HH1.

Derivations are normalised to vanish on the vertex idempotents; such a
derivation is determined by its values on arrows, and the value on an
arrow a lies in the span of basis monomials parallel to a.  The unknowns
of the linear problem are those coefficients, one block per arrow in
declaration order; a derivation is a sparse slot vector (slot position ->
nonzero coefficient), the form ``linal`` eliminates on.

A derivation extends from the arrows to paths one arrow at a time by the
product rule d(p a) = d(p) a + p d(a) (``_extend``).  A proper prefix of
a normal monomial or of a rule word is normal, so p is a basis monomial
and both products are read from the table: two contractions per path,
given the image of its prefix.
"""

from __future__ import annotations

import functools

from . import linal
from .algebra import AlgebraTable
from .errors import DeltaUndefined, UnsupportedCharacteristic
from .linal import Field
from .quiver import Quiver
from .value import Value


class DerivationLayout:
    """Coordinate layout for derivations: one slot per (arrow, parallel basis
    monomial).  slots: list of (arrow label, basis index); blocks: arrow
    label -> list of slot positions."""

    def __init__(self, table: AlgebraTable, slots: list, blocks: dict):
        self.table, self.slots, self.blocks = table, slots, blocks

    @property
    def size(self) -> int:
        return len(self.slots)

    def sparse_value(self, vec: dict, arrow_label: str) -> dict:
        """The element delta(arrow) of A as a sparse vector."""
        return {self.slots[pos][1]: vec[pos] for pos in self.blocks[arrow_label]
                if pos in vec}

    def value(self, vec: dict, arrow_label: str) -> list:
        """The element delta(arrow) of A as a coefficient vector."""
        t = self.table
        return linal.dense(t.field, t.dim, self.sparse_value(vec, arrow_label))

    def action_columns(self, vec: dict, indices) -> dict:
        """Images of the basis monomials in indices under the derivation
        extended to all of A by the product rule: index -> sparse vector.

        Each image is d(p a) = d(p) a + p d(a) from the image of its prefix
        p, itself a basis monomial (see _extend).  Idempotents map to zero.
        """
        t = self.table
        values = {label: self.sparse_value(vec, label) for label in self.blocks}
        paths = [t.basis_paths[j] for j in indices]
        images = _extend(t, values, paths)
        return {j: images[p] if p else {} for j, p in zip(indices, paths)}

    def action_matrix(self, vec: dict) -> list:
        """dim x dim matrix of the derivation extended to all of A by the product rule.

        Column j is the image of basis monomial j (see action_columns).
        """
        t = self.table
        cols = self.action_columns(vec, range(t.dim))
        return [[cols[j].get(i, t.field.zero) for j in range(t.dim)] for i in range(t.dim)]


def _extend(t: AlgebraTable, values: dict, words) -> dict:
    """d(p) for every nonempty prefix p of the words (basis monomials or
    rule words), each by the product rule from the image of its own prefix,
    where d(a) = values.get(a, 0): prefix -> sparse vector.  Each word is
    walked on from its longest prefix already imaged."""
    field = t.field
    one = field.one
    products = t.products
    images: dict = {}
    for w in words:
        n = len(w) if images else 0
        while n and w[:n] not in images:
            n -= 1
        head = w[:n]
        for a in w[n:]:
            da = values.get(a)
            if head:
                dp = images[head]
                img = linal.contract(field, products, dp, {t.arrow_index(a): one}) if dp else {}
                if da:
                    pda = linal.contract(field, products, {t.path_index[head]: one}, da)
                    if img:
                        linal.add_multiple(field, img, one, pda)
                    else:
                        img = pda
            else:
                img = dict(da) if da else {}
            head += (a,)
            images[head] = img
    return images


def derivation_layout(table: AlgebraTable) -> DerivationLayout:
    slots = []
    blocks: dict = {}
    for arrow in table.quiver.arrows:
        block = []
        for i in range(table.dim):
            if (table.basis_source[i] == arrow.source
                    and table.basis_target[i] == arrow.target):
                block.append(len(slots))
                slots.append((arrow.label, i))
        blocks[arrow.label] = block
    return DerivationLayout(table, slots, blocks)


def _constraint_rows(layout: DerivationLayout) -> list:
    """Sparse linear conditions on the slot vector forcing delta(g) = 0 for
    all reduced rewriting generators g: one row per generator and nonzero
    coordinate of A.  The entry in column s is that coordinate of d_s(g),
    for the unit derivation d_s of slot s; only the slots of arrows
    occurring in g can give one."""
    t = layout.table
    field = t.field
    one = field.one
    rows = []
    for g in t.groebner:
        by_coord: dict = {}  # coordinate of delta(g) -> its row
        for label, block in layout.blocks.items():
            words = [w for w in g if label in w]
            if not words:
                continue
            for s in block:
                images = _extend(t, {label: {layout.slots[s][1]: one}}, words)
                total: dict = {}
                for w in words:
                    linal.add_multiple(field, total, g[w], images[w])
                for coord, a in total.items():
                    by_coord.setdefault(coord, {})[s] = a
        rows.extend(by_coord[coord] for coord in sorted(by_coord))
    return rows


def derivation_space(table: AlgebraTable):
    """Basis (slot vectors) of the idempotent-killing derivations of A."""
    layout = derivation_layout(table)
    rows = _constraint_rows(layout)
    basis = linal.kernel_basis(table.field, rows, layout.size)
    return layout, basis


def inner_space(table: AlgebraTable, layout: DerivationLayout) -> list:
    """Span of the inner derivations [u, -] for u a diagonal basis monomial.

    Every inner derivation class contains such a combination: subtracting
    the off-diagonal part of u changes [u, -] by a derivation that is zero
    on every arrow once values are matched by endpoints, and the trivial
    paths give zero.
    """
    t = table
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


def radical_preserving(table: AlgebraTable, layout: DerivationLayout,
                       der_basis: list) -> list:
    """Subspace of derivations mapping the radical into itself.

    The only way a derivation value can leave the radical is through the
    trivial-path coefficient of a loop, so the cut is one linear condition
    per loop arrow.
    """
    t = table
    field = t.field
    conditions = []
    for arrow in t.quiver.arrows:
        if arrow.source != arrow.target:
            continue
        ev = t.idempotent_index(arrow.source)
        for pos in layout.blocks[arrow.label]:
            if layout.slots[pos][1] == ev:
                conditions.append(pos)
    if not conditions or not der_basis:
        return list(der_basis)
    rows = [{k: b[pos] for k, b in enumerate(der_basis) if pos in b} for pos in conditions]
    vecs = []
    for combo in linal.kernel_basis(field, rows, len(der_basis)):
        vec: dict = {}
        for k, c in combo.items():
            linal.add_multiple(field, vec, c, der_basis[k])
        vecs.append(vec)
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
        a = {t.arrow_index(arrow.label): field.one}
        power = a
        n = 1
        while linal.reduce_against(field, power, rad[n + 1]):
            power = linal.contract(field, t.products, power, a)
            n += 1
        orders[arrow.label] = n
    holds = p == 0 or all(n % p != 0 for n in orders.values())
    return LoopReport(orders, holds)


class LieAlgebra:
    """Finite-dimensional Lie algebra with explicit structure constants.

    structure[i][j] is the sparse coordinate vector of [x_i, x_j] in the
    chosen basis, and bracket[i][j] the same vector as a list.  For
    cohomology quotients the basis vectors are derivation slot vectors
    kept in `reps` together with their layout.
    """

    def __init__(self, field: Field, dim: int, structure: list,
                 layout: DerivationLayout | None = None, reps: list | None = None):
        self.field, self.dim, self.structure = field, dim, structure
        self.layout, self.reps = layout, reps

    @functools.cached_property
    def bracket(self) -> list:
        """The bracket table as coordinate lists."""
        return [[linal.dense(self.field, self.dim, e) for e in row] for row in self.structure]

    def bracket_of(self, u: list, v: list) -> list:
        prod = linal.contract(self.field, self.structure, linal.sparse(u), linal.sparse(v))
        return linal.dense(self.field, self.dim, prod)

    def product_span(self, span_a: list, span_b: list) -> list:
        prods = (linal.contract(self.field, self.structure, u, v)
                 for u in span_a for v in span_b)
        return linal.span_basis(self.field, [p for p in prods if p])

    def _full(self) -> list:
        return [{i: self.field.one} for i in range(self.dim)]

    def _series(self, cur: list, step) -> list:
        """Dimensions of cur, step(cur), ... until the dimension stops falling."""
        dims = [len(cur)]
        while cur:
            nxt = step(cur)
            dims.append(len(nxt))
            if len(nxt) == len(cur):
                break
            cur = nxt
        return dims

    def derived_series(self, start: list | None = None) -> list:
        """Dimensions of the iterated bracket-of-itself chain from span(start),
        by default from the whole algebra (computed once per algebra)."""
        if start is None:
            return list(self._derived_dims)
        return self._derived(start)

    @functools.cached_property
    def _derived_dims(self) -> list:
        return self._derived(self._full())

    def _derived(self, start: list) -> list:
        """[S, S] is spanned by the brackets of the pairs a < b of the
        echelon basis of S: [u, u] = 0 and [v, u] = -[u, v]."""
        field, structure = self.field, self.structure

        def step(s: list) -> list:
            prods = (linal.contract(field, structure, u, v)
                     for a, u in enumerate(s) for v in s[a + 1:])
            return linal.span_basis(field, [p for p in prods if p])

        return self._series(linal.span_basis(field, start), step)

    def lower_central_series(self) -> list:
        full = self._full()
        return self._series(full, lambda s: self.product_span(full, s))

    def is_solvable(self, start: list | None = None) -> bool:
        return self.derived_series(start)[-1] == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1] == 0


def lie_from_quotient(table: AlgebraTable, layout: DerivationLayout,
                      der_basis: list, inn_basis: list) -> LieAlgebra:
    """Lie algebra on Der/Inn with bracket computed on representatives.

    The commutator [d_i, d_j] is a derivation, so it is fixed by its slot
    vector: the coordinate bi of d_i(d_j(a)) - d_j(d_i(a)) for each slot
    (a, bi).  The value of a representative on an arrow a lives on the
    monomials parallel to a, so each representative's action is needed
    only on the monomials parallel to some arrow: those sparse columns
    are computed once per representative, and each term is a combination
    of them.  By antisymmetry only the d(d-1)/2 commutators with i < j are
    computed; they are written in (reps | inn) coordinates by one row
    reduction of [reps | inn | commutators], and the reps part is the
    bracket.  The commutators lie in Der exactly when the pivots of that
    reduction are the reps and inn columns and nothing else.
    """
    field = table.field
    reps = linal.quotient_reps(field, der_basis, inn_basis)
    d = len(reps)
    slots = layout.slots
    slot_of = {slot: s for s, slot in enumerate(slots)}
    parallel = sorted({bi for _, bi in slots})
    cols = [layout.action_columns(v, parallel) for v in reps]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    comms = []
    for i, j in pairs:
        # d_i(d_j(a)) - d_j(d_i(a)), over the nonzero slots (a, m) of each
        images: dict = {}
        for s, c in reps[j].items():
            label, m = slots[s]
            linal.add_multiple(field, images.setdefault(label, {}), c, cols[i][m])
        for s, c in reps[i].items():
            label, m = slots[s]
            linal.add_multiple(field, images.setdefault(label, {}), field.neg(c), cols[j][m])
        comms.append({slot_of[label, bi]: c for label, img in images.items()
                      for bi, c in img.items()})
    base = len(reps) + len(inn_basis)
    matrix = [{} for _ in range(layout.size)]
    for k, col in enumerate(reps + inn_basis + comms):
        for r, c in col.items():
            matrix[r][k] = c
    ech, pivots = linal.rref(field, matrix)
    if pivots != list(range(base)):
        raise AssertionError("bracket left the derivation space")
    structure = [[{} for _ in range(d)] for _ in range(d)]
    for r in range(d):
        for col, c in ech[r].items():
            if col >= base:
                i, j = pairs[col - base]
                structure[i][j][r] = c
                structure[j][i][r] = field.neg(c)
    return LieAlgebra(field, d, structure, layout, reps)


class HH1Result:
    """der: basis of Der, or of its radical-preserving part; inn: basis of Inn."""

    def __init__(self, lie: LieAlgebra, der_dim: int, inn_dim: int,
                 layout: DerivationLayout, der: list, inn: list):
        self.lie, self.der_dim, self.inn_dim = lie, der_dim, inn_dim
        self.layout, self.der, self.inn = layout, der, inn


def hh1(table: AlgebraTable, rad_only: bool = False,
        full: HH1Result | None = None) -> HH1Result:
    """HH1(A), or its radical-preserving part, as an explicit Lie algebra.

    ``full`` is an earlier ``hh1(table)`` of the same table whose Der and
    Inn are reused instead of solving the constraints again.  With
    ``rad_only``, when the cut keeps all of Der, ``full`` itself is
    returned: equal spans have the same quotient section, so the bracket
    would come out the same.
    """
    if full is None:
        layout, der = derivation_space(table)
        inn = inner_space(table, layout)
    else:
        layout, der, inn = full.layout, full.der, full.inn
    if rad_only:
        cut = radical_preserving(table, layout, der)
        if full is not None and len(cut) == len(der):
            return full
        der = cut
    lie = lie_from_quotient(table, layout, der, inn)
    return HH1Result(lie, len(der), len(inn), layout, der, inn)


# -- the rank-one cut down to sl2 -----------------------------------------


class Sl2Element(Value, fields=("x", "y", "z")):
    """x*H + y*E + z*F in the basis with [H,E]=2E, [H,F]=-2F, [E,F]=H."""

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z


def delta_defined(quiver: Quiver, a_label: str, b_label: str) -> bool:
    """The arrows form a parallel pair isolated at both endpoints."""
    a = quiver.arrow(a_label)
    b = quiver.arrow(b_label)
    if a_label == b_label:
        return False
    if a.source != b.source or a.target != b.target:
        return False
    outgoing = {x.label for x in quiver.arrows_from(a.source)}
    incoming = {x.label for x in quiver.arrows_to(a.target)}
    return outgoing == {a_label, b_label} and incoming == {a_label, b_label}


class DeltaMap:
    """Projection of a derivation Lie algebra onto sl2 along a parallel pair.
    rows: sparse H, E and F rows, indexed by source basis vector; dim: the
    dimension of the source; kernel: sparse coordinate vectors spanning it."""

    def __init__(self, field: Field, pair: tuple, rows: list, dim: int, kernel: list):
        self.field, self.pair, self.rows = field, pair, rows
        self.dim, self.kernel = dim, kernel

    @property
    def rank(self) -> int:
        return self.dim - len(self.kernel)

    @property
    def surjective(self) -> bool:
        return self.rank == 3

    @property
    def images(self) -> list:
        """Sl2Element per basis vector of the source."""
        zero = self.field.zero
        return [Sl2Element(*(row.get(k, zero) for row in self.rows))
                for k in range(self.dim)]

    def image_of(self, coords: list) -> Sl2Element:
        """Sl2Element of the source vector with coordinate list coords."""
        return Sl2Element(*(self.field.of(sum(a * coords[k] for k, a in row.items()))
                            for row in self.rows))


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
    half = field.inv(field.of(2))
    zero = field.zero
    rows = [{}, {}, {}]
    for k, rep in enumerate(lie.reps):
        va = layout.sparse_value(rep, a_label)
        vb = layout.sparse_value(rep, b_label)
        x = field.mul(half, field.sub(va.get(ia, zero), vb.get(ib, zero)))
        for row, c in zip(rows, (x, vb.get(ia, zero), va.get(ib, zero))):
            if c != 0:
                row[k] = c
    kernel = linal.kernel_basis(field, rows, lie.dim)
    return DeltaMap(field, (a_label, b_label), rows, lie.dim, kernel)
