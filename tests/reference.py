"""Independent references the tests compare the package against: the full
Hochschild complex of a bare table, with all d^2 unknowns, the
associativity check it relies on, the quotient section of one span
modulo another, a derivation extended from its slot vector to every basis
monomial, the bracket of derivations from the action columns of each
representative, the derivation constraint rows filtered per arrow,
the completion that interreduces every rule after
each new one, the normal words listed up to the longest lead with a cycle
test on the graph of those words, the radical filtration by row
reduction of every power, the Tits-form classification by elimination
over Fraction, the maximal Kronecker chains as every simple path of the
link graph that cannot be extended, with the rotations of each that are
chains too, the Levi dimension of a Lie algebra over Q from its Killing
form, and conversions between sparse vectors and coordinate lists."""

import itertools
from collections import Counter
from fractions import Fraction

from quiverhh import linal
from quiverhh.algebra import AlgebraTable, _Rewriter
from quiverhh.derlie import _extend, _steps
from quiverhh.errors import (NotAdmissible, NotAssociative, NotFiniteDimensional,
                             QuotientUndefined, TooLarge)
from quiverhh.kron import (KroneckerChain, _chain_shape, _cross_product_survives,
                           kronecker_pairs)
from quiverhh.linal import Field
from quiverhh.oracle import MAX_ORACLE_UNKNOWNS, _cocycle_rows
from quiverhh.quiver import Quiver


def sparse(v: list) -> dict:
    """The nonzero entries of a dense vector, as a dict index -> scalar."""
    return {i: a for i, a in enumerate(v) if a != 0}


def dense(field: Field, n: int, v: dict) -> list:
    """The dense vector of length n with the entries of a sparse one."""
    out = [field.zero] * n
    for i, a in v.items():
        out[i] = a
    return out


def quotient_reps(field: Field, span_a: list[dict], span_b: list[dict]) -> list[dict]:
    """Reduced echelon section of span_a modulo span_b, from any spanning
    sets.  Only defined when span_b is contained in span_a."""
    if linal.sparse_rank(field, [*span_a, *span_b]) != linal.sparse_rank(field, span_a):
        raise QuotientUndefined("span_b is not contained in span_a")
    ech = linal.span_basis(field, span_b)
    return linal.span_basis(field, [linal.reduce_against(field, v, ech) for v in span_a])


def sparse_value(layout, vec: dict, label: str) -> dict:
    """d(a) for the arrow a named label, as a sparse vector of A, where d
    is the derivation with slot vector vec on layout."""
    return {layout.slots[pos][1]: vec[pos] for pos in layout.blocks[label] if pos in vec}


def action_columns(layout, vec: dict, indices) -> dict:
    """Images of the basis monomials in indices under the derivation with
    slot vector vec, extended to all of A by the product rule
    d(p a) = d(p) a + p d(a) (``derlie._extend`` over ``derlie._steps``):
    index -> sparse vector.  Idempotents map to zero."""
    t = layout.table
    values = {label: sparse_value(layout, vec, label) for label in layout.blocks}
    paths = [t.basis_paths[j] for j in indices]
    images = _extend(t, values, _steps(paths))
    return {j: images.get(p, {}) for j, p in zip(indices, paths)}


def bracket_structure(layout, reps: list, inn: list) -> list:
    """The structure constants of span(reps + inn) / span(inn) on reps, as
    the package once bracketed: each representative extended to every
    monomial parallel to an arrow by ``action_columns``, then each
    commutator d_i(d_j(a)) - d_j(d_i(a)) summed over the nonzero slots
    (a, m) of d_j and of d_i, and written in (reps | inn) coordinates by
    one row reduction."""
    field = layout.table.field
    d = len(reps)
    slots, position = layout.slots, layout.position
    parallel = sorted({m for _, m in slots})
    cols = [action_columns(layout, v, parallel) for v in reps]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    comms = []
    for i, j in pairs:
        images: dict = {}
        for s, c in reps[j].items():
            label, m = slots[s]
            linal.add_multiple(field, images.setdefault(label, {}), c, cols[i][m])
        for s, c in reps[i].items():
            label, m = slots[s]
            linal.add_multiple(field, images.setdefault(label, {}), field.neg(c), cols[j][m])
        comms.append({position[label, bi]: c for label, img in images.items()
                      for bi, c in img.items()})
    base = d + len(inn)
    matrix = [{} for _ in range(layout.size)]
    for k, col in enumerate(reps + inn + comms):
        for r, c in col.items():
            matrix[r][k] = c
    ech, pivots = linal.rref(field, matrix)
    assert pivots == list(range(base)), "bracket left the derivation space"
    structure = [[{} for _ in range(d)] for _ in range(d)]
    for r in range(d):
        for col, c in ech[r].items():
            if col >= base:
                i, j = pairs[col - base]
                structure[i][j][r] = c
                structure[j][i][r] = field.neg(c)
    return structure


def constraint_rows(layout) -> list:
    """The rows of ``derlie._constraint_rows`` as the package once built
    them: for each generator g and each arrow, the terms of g whose word
    holds the arrow, read against each slot of that arrow."""
    t = layout.table
    rows = []
    for g in t.groebner:
        by_coord: dict = {}
        for label, block in layout.blocks.items():
            terms = {w: c for w, c in g.items() if label in w}
            if not terms:
                continue
            for s in block:
                images = layout.unit_images(s)
                delta: dict = {}
                for w, c in terms.items():
                    if img := images.get(w):
                        linal.add_multiple(t.field, delta, c, img)
                for coord, a in delta.items():
                    by_coord.setdefault(coord, {})[s] = a
        rows.extend(by_coord[coord] for coord in sorted(by_coord))
    return rows


def levi_dim(lie) -> int:
    """dim L - dim Rad(L) for a Lie algebra over Q, where Rad(L) is
    {x : kappa(x, [L, L]) = 0} (Cartan's criterion, characteristic 0) and
    kappa(x_i, x_j) = sum_{k,l} c_ik^l c_jl^k is the Killing form read from
    ``structure``.  That difference is the rank of x -> kappa(x, y) over the
    brackets y; dense, O(d^4)."""
    field, d, c = lie.field, lie.dim, lie.structure
    kappa = [[sum(c[i][k].get(m, 0) * c[j][m].get(k, 0) for k in range(d) for m in range(d))
              for j in range(d)] for i in range(d)]
    brackets = [y for row in c for y in row if y]
    return linal.sparse_rank(field, [{i: v for i in range(d)
                                      if (v := sum(kappa[i][j] * a for j, a in y.items()))}
                                     for y in brackets])


def is_associative(field: Field, table: list) -> bool:
    """(x_i x_j) x_k == x_i (x_j x_k) for all basis triples of a sparse table."""
    d = len(table)
    one = field.one
    return all(linal.contract(field, table, table[i][j], {k: one})
               == linal.contract(field, table, {i: one}, table[j][k])
               for i in range(d) for j in range(d) for k in range(d))


def flat(i: int, j: int, d: int) -> int:
    """Index of the (i, j) entry of a linear map: coefficient of basis i
    in the image of basis j."""
    return i * d + j


def full_columns(d: int) -> list[dict]:
    """The column map of the full complex: every entry of a map A -> A."""
    return [{c: flat(c, j, d) for c in range(d)} for j in range(d)]


def derivations_from_table(field: Field, table, idempotents=None) -> list:
    """Basis of the Leibniz maps of a bare sparse table, as sparse flattened
    matrices (see ``flat``), from the full complex with all d^2 unknowns.

    With a complete orthogonal set of idempotents given (sparse vectors),
    the maps are also required to kill them, matching the arrow-level
    convention.
    """
    d = len(table)
    if d * d > MAX_ORACLE_UNKNOWNS:
        raise TooLarge(f"oracle limited to {MAX_ORACLE_UNKNOWNS} unknowns, got {d * d}")
    if not is_associative(field, table):
        raise NotAssociative("multiplication table is not associative")
    rows = _cocycle_rows(field, table, full_columns(d), itertools.product(range(d), repeat=2))
    for e in idempotents or ():
        rows += [{flat(c, j, d): a for j, a in e.items()} for c in range(d)]
    return linal.kernel_basis(field, rows, d * d)


def interreduce(rw: _Rewriter) -> bool:
    """Reduce each rule by the others until none changes; True if any did."""
    any_change = False
    changed = True
    while changed:
        changed = False
        for lead in list(rw.rules):
            rule = rw.rules.pop(lead)
            if rw.add(rule) != lead or rw.rules[lead] != rule:
                changed = True
        any_change = any_change or changed
    return any_change


def complete(field: Field, order, gens: list, cap: int) -> _Rewriter:
    """The reduced rewriting system of the ideal of gens, as the package's
    completion once found it: after every new rule, all rules are
    interreduced and every overlap of two leads is listed again, and every
    resolved overlap is forgotten when a rule changed; the next overlap is
    the least pending one by degree.  NotFiniteDimensional, with the
    package's message, past overlap degree 2 * cap for a lead longer than
    cap + 1."""
    rw = _Rewriter(field, order)
    for g in gens:
        rw.add(g)
    interreduce(rw)
    done: set = set()
    pending: set = set()

    def enqueue_all():
        leads = list(rw.rules)
        short = {u for u in leads if len(rw.rules[u]) == 1 and len(u) <= cap + 1}
        for u in leads:
            for v in leads:
                if u in short and v in short:
                    continue
                for t in range(1, min(len(u), len(v))):
                    if u[len(u) - t:] == v[:t] and (u, v, t) not in done:
                        pending.add((u, v, t))

    enqueue_all()
    while pending:
        trip = min(pending, key=lambda p: (len(p[0]) + len(p[1]) - p[2], p))
        pending.discard(trip)
        done.add(trip)
        u, v, t = trip
        if u not in rw.rules or v not in rw.rules:
            continue
        if len(u) + len(v) - t > 2 * cap and max(len(u), len(v)) > cap + 1:
            raise NotFiniteDimensional("overlap degree exceeds the length cap")
        spoly = {p + v[t:]: c for p, c in rw.rules[u].items()}
        linal.add_multiple(field, spoly, field.neg(field.one),
                           {u[:len(u) - t] + p: c for p, c in rw.rules[v].items()})
        if rw.add(spoly) is not None:
            if interreduce(rw):
                done.clear()
            enqueue_all()
    return rw


def normal_monomials(q: Quiver, rw: _Rewriter, cap: int) -> list:
    """The basis of normal words of a reduced rewriting system, as the
    package once listed it: level by level, and at the length span one
    shorter than the longest lead, the graph linking each normal word w of
    that length to w[1:] + (l,) when w + (l,) is normal (Ufnarovskii) is
    peeled (Kahn); a word left means a cycle.  NotFiniteDimensional, with
    the package's messages, on a cycle or on a word past the length cap."""
    out = [() for _ in q.vertices]
    level = [(a.label,) for a in q.arrows]
    arrows_from = {v: [a.label for a in q.arrows_from(v)] for v in q.vertices}
    target = {a.label: a.target for a in q.arrows}
    lengths = {len(lead) for lead in rw.rules}
    span = max(lengths, default=2) - 1
    length = 1
    while level:
        out.extend(level)
        nxt = []
        for path in level:
            for label in arrows_from[target[path[-1]]]:
                cand = path + (label,)
                if not any(cand[-ll:] in rw.rules for ll in lengths):
                    nxt.append(cand)
        if nxt and length >= cap:
            raise NotFiniteDimensional(
                f"normal monomials persist past the length cap {cap}")
        if length == span:
            links, entering = {}, Counter(w[1:] for w in nxt)
            for w in nxt:
                links.setdefault(w[:-1], []).append(w[1:])
            peeled = [w for w in level if not entering[w]]
            for w in peeled:  # grows while it is read
                for x in links.get(w, ()):
                    entering[x] -= 1
                    if not entering[x]:
                        peeled.append(x)
            if len(peeled) < len(level):
                raise NotFiniteDimensional(f"a normal monomial repeats a factor of length "
                                           f"{span}, so dim A is infinite")
        level = nxt
        length += 1
    return out


def radical_filtration(field: Field, basis_paths: list, columns: dict) -> list[list[dict]]:
    """Reduced sparse bases of rad^0 = A, rad^1, ... down to the first zero
    power, as rad^(n+1) = span(rad^n * arrows) by row reduction of the
    products of every row of rad^n with every arrow column; NotAdmissible,
    with the package's message, when a nonzero power does not shrink."""
    full = [{i: field.one} for i in range(len(basis_paths))]
    bases = [full, [u for u, p in zip(full, basis_paths) if p]]
    while bases[-1]:
        prods = (linal.combine(field, (u, col)) for u in bases[-1] for col in columns.values())
        cur = linal.span_basis(field, [v for v in prods if v])
        if cur and len(cur) >= len(bases[-1]):
            raise NotAdmissible(
                "radical filtration does not terminate; the ideal is not admissible")
        bases.append(cur)
    return bases


def classify_component(q: Quiver, verts: list) -> tuple:
    """(verdict, name) of one connected component from the Tits form
    C = 2*Id - Adj, by elimination over Fraction without pivoting: the
    pivots are D_k / D_(k-1), positive exactly while the leading principal
    minors are, and their product is det C."""
    vs = sorted(verts)
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    cmat = [[Fraction(2 * int(i == j)) for j in range(n)] for i in range(n)]
    degree = [0] * n
    for a in q.arrows:
        if a.source in idx:
            if a.source == a.target:
                return "Neither", None
            i, j = idx[a.source], idx[a.target]
            cmat[i][j] -= 1
            cmat[j][i] -= 1
            degree[i] += 1
            degree[j] += 1
    det = Fraction(1)
    for k, row in enumerate(cmat):
        pivot = row[k]
        if pivot <= 0:
            if pivot < 0 or k < n - 1:
                return "Neither", None
            if sum(degree) == 2 * n:
                kind = "A"
            else:
                kind = "E" if degree.count(3) == 1 and max(degree) == 3 else "D"
            return "Euclidean", f"~{kind}{n - 1}"
        det *= pivot
        for below in cmat[k + 1:]:
            f = below[k] / pivot
            if f:
                for j in range(k + 1, n):
                    below[j] -= f * row[j]
    kind = "A" if det == n + 1 else "D" if det == 4 else "E"
    return "Dynkin", f"{kind}{n}"


def maximal_chains(table: AlgebraTable):
    """Maximal Kronecker chains, cyclic ones as their smallest rotation,
    each with the number of its rotations that are maximal chains."""
    pairs = kronecker_pairs(table)
    # the links p -> q, each tested once: q starts where p ends and some
    # cross product survives; preceding holds the same links reversed
    following = {p: [q for q in pairs if q is not p and p.target == q.source
                     and _cross_product_survives(table, p, q)] for p in pairs}
    preceding: dict = {p: [] for p in pairs}
    for p, qs in following.items():
        for q in qs:
            preceding[q].append(p)

    # every chain, depth first from each pair in order; an explicit stack,
    # because a recursive closure is a reference cycle that keeps the table
    # alive until the next full garbage collection
    all_chains = []
    stack = [(p,) for p in reversed(pairs)]
    while stack:
        seq = stack.pop()
        all_chains.append(seq)
        stack.extend(seq + (q,) for q in reversed(following[seq[-1]]) if q not in seq)

    def extendable(seq) -> bool:
        return any(q not in seq for q in following[seq[-1]] + preceding[seq[0]])

    maximal = [seq for seq in all_chains if not extendable(seq)]
    # each sequence is enumerated once; a chain is kept as the least of its
    # rotations that are themselves maximal chains, and counts them
    maximal_set = set(maximal)
    chains = {}
    for seq in maximal:
        rotations = [rot for rot in (seq[i:] + seq[:i] for i in range(len(seq)))
                     if rot in maximal_set]
        least = min(rotations, key=lambda rot: tuple(p.labels for p in rot))
        chain = KroneckerChain(least, _chain_shape(least), len(rotations))
        chains[chain.key()] = chain
    return sorted(chains.values(), key=KroneckerChain.key)
