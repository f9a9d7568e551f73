"""Finite-dimensional bound quiver algebras as explicit multiplication tables.

A presentation (quiver, relations, field) is completed into a rewriting system
under the length-then-lex order on paths (arrows ordered by declaration,
longer paths larger).  A rule is a monic polynomial, a sparse row keyed by
path, and ``linal.add_multiple`` does all the rewriting arithmetic; a lead
factor is read from each position of a path while the word is a proper prefix
of a lead.  Completion installs each polynomial of a worklist, sends back the
rules whose lead the new one makes reducible, and resolves the overlaps of
leads from one heap, lowest degree first; one past degree 2 * cap with a lead
longer than cap + 1 is refused, and those of two monomial rules (a zero
S-polynomial) are queued only to be so refused.  One reduction of each tail
gives the reduced system.  Its normal monomials, the basis of the quotient,
are the walks in a graph on the lead prefixes, finite exactly when it has no
cycle.  A product of basis monomials whose word is normal is that basis
vector; any other product with an arrow is its word fully reduced, and every
longer product follows from these by arrow prefix, as b * (w * a) =
(b * w) * a.  The radical filtration is built once per algebra from path
length and the few products that reduce to shorter monomials (relations need
not be homogeneous in path length), and its bases are kept on the table.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import islice

from . import linal
from .errors import InvalidArrow, NotAdmissible, NotFiniteDimensional, TooLarge
from .linal import Field
from .quiver import Quiver
from .value import Value

Path = tuple  # tuple of arrow labels; the empty tuple never appears in relations
Poly = dict   # Path -> scalar
MAX_STEPS = 250_000  # heap pops of _Rewriter.reduce per rewriter; tier-1 needs under 5,000
MAX_LENGTH = 64  # default cap on the length of a normal word; the front ends refuse one below 1


class Relation(Value, fields=("terms",)):
    """k-linear combination of paths by the rules of relation_poly: terms is a
    tuple of (coefficient, Path), the coefficient an int or Fraction."""

    def __init__(self, terms: tuple):
        self.terms = terms


class Presentation(Value, fields=("quiver", "relations", "field", "max_length_cap")):
    def __init__(self, quiver: Quiver, relations: tuple, field: Field,
                 max_length_cap: int = MAX_LENGTH):
        self.quiver, self.relations = quiver, relations
        self.field, self.max_length_cap = field, max_length_cap


def relation_poly(q: Quiver, field: Field, rel: Relation) -> Poly:
    """rel as a polynomial over field, else NotAdmissible, InvalidArrow or
    ZeroDivisionError: it has terms, each a composable path of length >= 2 on
    declared arrows, all parallel, coefficients defined in field, sum nonzero."""
    arrow, poly, ends = q.by_label, {}, None
    for coef, path in rel.terms:
        for before, label in zip((None, *path), path):
            if label not in arrow:
                raise InvalidArrow(f"relation uses undeclared arrow {label!r}")
            if before is not None and arrow[before].target != arrow[label].source:
                raise NotAdmissible(f"path {'*'.join(path)} is not composable")
        if len(path) < 2:
            raise NotAdmissible(f"relation monomial {'*'.join(path) or '(trivial)'} has length < 2")
        if (ep := (arrow[path[0]].source, arrow[path[-1]].target)) != (ends := ends or ep):
            raise NotAdmissible("relation terms are not parallel")
        linal.add_multiple(field, poly, field.of(coef), {tuple(path): field.one})
    if not poly:
        raise NotAdmissible("relation cancels to zero" if rel.terms else "empty relation")
    return poly


class _Rewriter:
    """Two-sided rewriting system: lead path -> monic rule, lead first."""

    def __init__(self, field: Field, order: dict):
        self.field = field
        self.order = order  # arrow label -> declaration index
        self.rules: dict[Path, Poly] = {}
        self.prefixes: set[Path] = set()  # proper prefixes of leads; while completing, stale too
        self.steps = 0  # heap pops of reduce, refused past MAX_STEPS

    def reduce(self, poly: Poly) -> Poly:
        """Normal form of poly, terms in decreasing order.  The largest term
        is normal, and final, or is pre * lead * post: it then cancels with
        coef * (pre * rule * post), whose other terms are smaller, so no
        path returns once popped.  Each path is keyed once, as it enters
        work, on a heap; an entry whose path has left work is skipped."""
        order, work, out = self.order, dict(poly), {}
        heap = sorted((-len(p), [-order[l] for l in p], p) for p in work)  # sorted, so a heap
        steps = self.steps
        while heap:
            path = heappop(heap)[2]
            if (steps := steps + 1) > MAX_STEPS:
                raise TooLarge(f"rewriting exceeds {MAX_STEPS} reduction steps")
            if (coef := work.pop(path, None)) is None:
                continue
            hit = self._find_factor(path)
            if hit is None:
                out[path] = coef
                continue
            pos, lead = hit
            pre, post = path[:pos], path[pos + len(lead):]
            terms = {pre + p + post: c for p, c in islice(self.rules[lead].items(), 1, None)}
            for p in terms.keys() - work.keys():
                heappush(heap, (-len(p), [-order[l] for l in p], p))
            linal.add_multiple(self.field, work, self.field.neg(coef), terms)
        self.steps = steps
        return out

    def _find_factor(self, path: Path):
        """The leftmost lead factor of path, shortest first, read while a lead prefix."""
        for pos in range(len(path)):
            for end in range(pos + 1, len(path) + 1):
                if (word := path[pos:end]) in self.rules:
                    return pos, word
                if word not in self.prefixes:
                    break
        return None

    def add(self, poly: Poly) -> Path | None:
        """Reduce and, if nonzero, install as a monic rule; returns its lead."""
        red = self.reduce(poly)
        if not red:
            return None
        lead = next(iter(red))
        rule: Poly = {}
        linal.add_multiple(self.field, rule, self.field.inv(red[lead]), red)
        self.rules[lead] = rule
        self.prefixes.update(lead[:i] for i in range(1, len(lead)))
        return lead


def _complete(field: Field, order: dict, gens: list[Poly], cap: int) -> _Rewriter:
    """The reduced rewriting system of the ideal of gens (Knuth-Bendix), from
    a worklist of polynomials and a heap of critical pairs."""
    rw = _Rewriter(field, order)
    rules, work, pairs = rw.rules, list(gens), []
    while work or pairs:
        if not work:
            degree, u, v, t = heappop(pairs)
            if u not in rules or v not in rules:
                continue
            if degree > 2 * cap and max(len(u), len(v)) > cap + 1:
                raise NotFiniteDimensional("overlap degree exceeds the length cap")
            # ambiguity word w = u * v[t:] = u[:-t] * v; the S-polynomial
            # rule_u * v[t:] - u[:-t] * rule_v, in which w cancels
            spoly = {p + v[t:]: c for p, c in rules[u].items()}
            linal.add_multiple(field, spoly, field.neg(field.one),
                               {u[:len(u) - t] + p: c for p, c in rules[v].items()})
            work.append(spoly)
            continue
        lead = rw.add(work.pop())
        if lead is None:
            continue
        n = len(lead)  # a lead that has the new one as a factor is reducible now
        for old in [o for o in rules if len(o) > n
                    and any(o[i:i + n] == lead for i in range(len(o) - n + 1))]:
            work.append(rules.pop(old))
        # the proper overlaps (u, v, t): the suffix of length t of u is a prefix
        # of v; two monomial rules have a zero S-polynomial, so their overlaps
        # are queued only when a lead is longer than cap + 1, to be refused
        short = len(rules[lead]) == 1 and n <= cap + 1
        for other in rules:
            if short and len(rules[other]) == 1 and len(other) <= cap + 1:
                continue
            for u, v in {(lead, other), (other, lead)}:
                for t in range(1, min(len(u), len(v))):
                    if u[len(u) - t:] == v[:t]:
                        heappush(pairs, (len(u) + len(v) - t, u, v, t))
    for lead, rule in rules.items():
        rules[lead] = {lead: rule[lead], **rw.reduce(dict(islice(rule.items(), 1, None)))}
    rw.prefixes = {lead[:i] for lead in rules for i in range(1, len(lead))}
    return rw


# -- the algebra table -----------------------------------------------------


class AlgebraTable:
    """Certified basis and multiplication table of A = kQ/I.

    basis paths: trivial paths first (empty tuple, one per vertex, in
    vertex order), then arrows, then longer normal monomials in
    length-then-lex order.  products[i][j] is the sparse coefficient
    vector (dict index -> nonzero scalar) of basis_i * basis_j, zero
    unless target(i) = source(j): the unit vector of their word when it is
    normal, else that word reduced when basis_j is an arrow, else
    (basis_i * w) * a for basis_j = w * a, read from the column of a;
    columns maps each arrow index a to the list of products[i][a] for
    every i.  Every zero entry of both is the one shared read-only
    ``linal.ZERO``, and no caller writes into an entry.  These sparse
    structure constants are behind every product
    (``multiply``, the radical filtration, the derivation action, the
    chain tests and the oracle).  path_index maps each nontrivial basis
    path to its index; factors of a normal monomial are normal, so every
    proper factor of a basis path or of a rule word in groebner is found
    there.  basis_source and basis_target give each basis path's
    endpoints.  rad_bases holds the reduced sparse bases of rad^0 = A,
    rad^1, ..., 0: that of rad^n is E_n, rows with no entry on a monomial
    of length >= n, then the unit vectors of those monomials.
    """

    def __init__(self, field: Field, quiver: Quiver, basis_paths: list[Path],
                 basis_source: list[str], basis_target: list[str],
                 products: list[list[dict]], columns: dict, path_index: dict,
                 groebner: list[Poly], rewriter: _Rewriter, rad_bases: list[list[dict]]):
        self.field, self.quiver, self.basis_paths = field, quiver, basis_paths
        self.basis_source, self.basis_target = basis_source, basis_target
        self.products, self.columns, self.path_index = products, columns, path_index
        self.groebner, self.rewriter, self.rad_bases = groebner, rewriter, rad_bases

    @property
    def rad_dims(self) -> list[int]:
        """dim rad^n for n = 0 .. Loewy length."""
        return [len(b) for b in self.rad_bases]

    @property
    def dim(self) -> int:
        return len(self.basis_paths)

    def arrow_index(self, label: str) -> int:
        return self.path_index[(label,)]

    def unit(self) -> dict:
        return {i: self.field.one for i in range(len(self.quiver.vertices))}

    def multiply(self, u: dict, v: dict) -> dict:
        return linal.contract(self.field, self.products, u, v)

    def normal_form(self, terms) -> dict:
        """Image in A of a linear combination of (coef, nonempty path) terms.

        Terms with mismatched endpoints are reduced independently; unknown
        arrow labels and the trivial path raise InvalidArrow; non-composable
        terms vanish.  Each term is reduced by the rewriter, not read from
        the table: the direct reference for the products.
        """
        field = self.field
        vec: dict = {}
        for coef, path in terms:
            path = tuple(path)
            if not path:
                raise InvalidArrow("a trivial path is not a word in the arrows")
            arrows = [self.quiver.arrow(l) for l in path]
            if any(x.target != y.source for x, y in zip(arrows, arrows[1:])):
                continue
            red = self.rewriter.reduce({path: field.of(coef)})
            linal.add_multiple(field, vec, field.one,
                               {self.path_index[p]: c for p, c in red.items()})
        return vec

    def path_vector(self, path) -> dict:
        return self.normal_form([(1, tuple(path))])

    def radical_power_basis(self, n: int) -> list[dict]:
        """Reduced echelon basis of rad(A)^n, as sparse vectors; rad^0 = A."""
        bases = self.rad_bases
        return [dict(v) for v in bases[n]] if n < len(bases) else []


def build_algebra(p: Presentation) -> AlgebraTable:
    q = p.quiver
    field = p.field
    order = {a.label: i for i, a in enumerate(q.arrows)}
    gens = [relation_poly(q, field, rel) for rel in p.relations]
    rw = _complete(field, order, gens, p.max_length_cap)

    basis_paths = _normal_monomials(q, rw, p.max_length_cap)
    # the trivial paths come first, one per vertex in vertex order
    basis_source = [q.arrow(path[0]).source if path else q.vertices[i]
                    for i, path in enumerate(basis_paths)]
    basis_target = [q.arrow(path[-1]).target if path else q.vertices[i]
                    for i, path in enumerate(basis_paths)]

    # trivial paths share the empty tuple and are told apart by position
    index = {path: i for i, path in enumerate(basis_paths) if path}
    dim = len(basis_paths)
    nverts = len(q.vertices)
    one = field.one
    ending = {v: [] for v in q.vertices}
    for i, v in enumerate(basis_target):
        ending[v].append(i)
    # only composable pairs are filled: a vertex acts as the identity, a normal
    # word is its basis vector, other products with an arrow are reduced, and
    # basis_i * (w * a) is (basis_i * w) * a, from the column of a, built first
    products = [[linal.ZERO] * dim for _ in range(dim)]
    columns = {}
    drops = []  # (len(basis_i), basis_i * a) with a term no longer than basis_i
    for j, path in enumerate(basis_paths):
        for i in ending[basis_source[j]]:
            if i < nverts or j < nverts:
                entry = {j if i < nverts else i: one}
            elif (word := basis_paths[i] + path) in index:
                entry = {index[word]: one}
            elif len(path) == 1:
                red = rw.reduce({word: one})
                entry = {index[p]: c for p, c in red.items()}
                if any(len(p) < len(word) for p in red):
                    drops.append((len(word) - 1, entry))
            else:
                entry = linal.combine(
                    field, (products[i][index[path[:-1]]], columns[index[path[-1:]]]))
            products[i][j] = entry or linal.ZERO
        if len(path) == 1:
            columns[j] = [row[j] for row in products]
    return AlgebraTable(field, q, basis_paths, basis_source, basis_target, products, columns,
                        index, list(rw.rules.values()), rw,
                        _radical_filtration(field, basis_paths, columns, drops))


def _normal_monomials(q: Quiver, rw: _Rewriter, cap: int) -> list[Path]:
    arrows_from = {v: [a.label for a in q.arrows_from(v)] for v in q.vertices}
    target = {a.label: a.target for a in q.arrows}
    lengths = {len(lead) for lead in rw.rules}
    # the state of a normal word w is its longest suffix that is a proper
    # prefix of a lead, else its last arrow.  A lead ending w + (l,) is, less
    # l, such a suffix of w, so no longer than the state: whether w + (l,) is
    # normal, and its state, depend on state + (l,) alone.  The normal words
    # are the walks in the graph of states (Ufnarovskii's graph, on the
    # prefixes of the leads as in Aho-Corasick), finite when it has no cycle
    links, entering = {}, {}
    states = [(a.label,) for a in q.arrows]
    for state in states:  # grows while it is read
        if state in links:
            continue
        links[state] = []
        for label in arrows_from[target[state[-1]]]:
            cand = state + (label,)
            if not any(cand[-ll:] in rw.rules for ll in lengths):
                nxt = next((cand[i:] for i in range(len(cand) - 1) if cand[i:] in rw.prefixes),
                           (label,))
                links[state].append(nxt)  # ends with label
                states.append(nxt)
                entering[nxt] = entering.get(nxt, 0) + 1
    # peel the states no link enters (Kahn): a state left is on or after a cycle
    peeled = [state for state in links if state not in entering]
    for state in peeled:  # grows while it is read
        for nxt in links[state]:
            entering[nxt] -= 1
            if not entering[nxt]:
                peeled.append(nxt)
    if len(peeled) < len(links):
        span = max(lengths, default=2) - 1
        raise NotFiniteDimensional(f"a normal monomial repeats a factor of length "
                                   f"{span}, so dim A is infinite")
    out: list[Path] = [() for _ in q.vertices]
    level = [((a.label,), (a.label,)) for a in q.arrows]  # (normal word, its state)
    length = 1
    while level:
        out.extend(w for w, _ in level)
        level = [(w + nxt[-1:], nxt) for w, state in level for nxt in links[state]]
        if level and length >= cap:
            raise NotFiniteDimensional(
                f"normal monomials persist past the length cap {cap}")
        length += 1
    return out


def _radical_filtration(field: Field, basis_paths: list[Path], columns: dict,
                        drops: list) -> list[list[dict]]:
    """Reduced sparse bases of rad^0 = A, rad^1, ... down to the first zero power.

    A basis monomial of length L lies in rad^L and longer ones come later,
    so rad^n has the basis E_n, then the unit vectors of the monomials of
    length >= n.  As rad^(n+1) = rad^n * arrows, E_(n+1) is the reduced
    basis of the parts of length <= n of E_n times each arrow and of the
    drops of monomials of length >= n; with none, no rows are eliminated.
    """
    units = [{i: field.one} for i in range(len(basis_paths))]
    bases, ech = [units, units[bisect_left(basis_paths, 1, key=len):]], []
    while bases[-1]:
        n = len(bases) - 1
        start = bisect_left(basis_paths, n + 1, key=len)
        prods = [linal.combine(field, (u, col)) for u in ech for col in columns.values()]
        prods += [entry for length, entry in drops if length >= n]
        ech = linal.span_basis(field, [{k: c for k, c in v.items() if k < start}
                                       for v in prods])
        cur = ech + units[start:]
        if cur and len(cur) >= len(bases[-1]):
            raise NotAdmissible(
                "radical filtration does not terminate; the ideal is not admissible")
        bases.append(cur)
    return bases
