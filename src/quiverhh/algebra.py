"""Finite-dimensional bound quiver algebras as explicit multiplication tables.

A presentation (quiver, relations, field) is completed into a rewriting
system under the length-then-lex order on paths (arrows ordered by
declaration, longer paths larger).  A rule is a monic polynomial, a
sparse row keyed by path, and ``linal.add_multiple`` does all the rewriting
arithmetic.  Overlap ambiguities are resolved until confluence; the
finiteness certificate is the exhaustion of normal monomials at some
length.  The basis of the quotient is the set of normal monomials.  The
product of a basis monomial and an arrow is their concatenation, fully
reduced; every longer product follows from these by arrow prefix, as
b * (w * a) = (b * w) * a.  The radical filtration is built once per
algebra, as rad^(n+1) = span(rad^n * arrows) by exact row reduction
(relations need not be homogeneous in path length), and its bases are
kept on the table.
"""

from __future__ import annotations

from itertools import islice

from . import linal
from .errors import InvalidArrow, NotAdmissible, NotFiniteDimensional
from .linal import Field
from .quiver import Quiver
from .value import Value

Path = tuple  # tuple of arrow labels; the empty tuple never appears in relations
Poly = dict   # Path -> scalar


class Relation(Value, fields=("terms",)):
    """k-linear combination of parallel paths of length >= 2: terms is a tuple
    of (coefficient, Path), the coefficient an int or Fraction before coercion."""

    def __init__(self, terms: tuple):
        self.terms = terms


class Presentation(Value, fields=("quiver", "relations", "field", "max_length_cap")):
    def __init__(self, quiver: Quiver, relations: tuple, field: Field,
                 max_length_cap: int = 64):
        self.quiver, self.relations = quiver, relations
        self.field, self.max_length_cap = field, max_length_cap


class _Order:
    """Length-then-lex monomial order keyed on arrow declaration index."""

    def __init__(self, quiver: Quiver):
        self.index = {a.label: i for i, a in enumerate(quiver.arrows)}

    def key(self, path: Path):
        # tuple() of a list allocates the exact size from the tuple free
        # list; tuple() of a generator grows by resizing, and every such
        # key freed parks on the free list until a full garbage collection
        return (len(path), tuple([self.index[l] for l in path]))


def _validate_relation(q: Quiver, rel: Relation) -> None:
    if not rel.terms:
        raise NotAdmissible("empty relation")
    endpoints = None
    for coef, path in rel.terms:
        if len(path) < 2:
            raise NotAdmissible(f"relation monomial {'*'.join(path) or '(trivial)'} has length < 2")
        for label in path:
            if label not in {a.label for a in q.arrows}:
                raise InvalidArrow(f"unknown arrow {label!r}")
        for x, y in zip(path, path[1:]):
            if q.arrow(x).target != q.arrow(y).source:
                raise NotAdmissible(f"path {'*'.join(path)} is not composable")
        ep = (q.arrow(path[0]).source, q.arrow(path[-1]).target)
        if endpoints is None:
            endpoints = ep
        elif ep != endpoints:
            raise NotAdmissible("relation terms are not parallel")


class _Rewriter:
    """Two-sided rewriting system: lead path -> monic rule, lead first."""

    def __init__(self, field: Field, order: _Order):
        self.field = field
        self.order = order
        self.rules: dict[Path, Poly] = {}

    def reduce(self, poly: Poly) -> Poly:
        """Normal form of poly, terms in decreasing order.  The largest term
        is normal, and final, or is pre * lead * post: it then cancels with
        coef * (pre * rule * post), whose other terms are smaller."""
        work = dict(poly)
        out: Poly = {}
        while work:
            path = max(work, key=self.order.key)
            coef = work.pop(path)
            hit = self._find_factor(path)
            if hit is None:
                out[path] = coef
                continue
            pos, lead = hit
            pre, post = path[:pos], path[pos + len(lead):]
            rest = islice(self.rules[lead].items(), 1, None)
            linal.add_multiple(self.field, work, self.field.neg(coef),
                               {pre + p + post: c for p, c in rest})
        return out

    def _find_factor(self, path: Path):
        for lead in self.rules:
            ll = len(lead)
            if ll > len(path):
                continue
            for pos in range(len(path) - ll + 1):
                if path[pos:pos + ll] == lead:
                    return pos, lead
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
        return lead

    def interreduce(self) -> bool:
        """Reduce each rule by the others until none changes; True if any did."""
        any_change = False
        changed = True
        while changed:
            changed = False
            for lead in list(self.rules):
                rule = self.rules.pop(lead)
                if self.add(rule) != lead or self.rules[lead] != rule:
                    changed = True
            any_change = any_change or changed
        return any_change


def _overlaps(u: Path, v: Path):
    """Proper overlap ambiguities: a suffix of u equals a prefix of v."""
    for t in range(1, min(len(u), len(v))):
        if u[len(u) - t:] == v[:t]:
            yield t


def _complete(field: Field, order: _Order, gens: list[Poly], cap: int) -> _Rewriter:
    rw = _Rewriter(field, order)
    for g in gens:
        rw.add(g)
    rw.interreduce()
    done: set = set()
    pending: set = set()

    def enqueue_all():
        leads = list(rw.rules)
        for u in leads:
            for v in leads:
                for t in _overlaps(u, v):
                    trip = (u, v, t)
                    if trip not in done:
                        pending.add(trip)

    enqueue_all()
    while pending:
        trip = min(pending, key=lambda p: (len(p[0]) + len(p[1]) - p[2], p))
        pending.discard(trip)
        done.add(trip)
        u, v, t = trip
        if u not in rw.rules or v not in rw.rules:
            continue
        if len(u) + len(v) - t > 2 * cap:
            raise NotFiniteDimensional("overlap degree exceeds the length cap")
        # ambiguity word w = u * v[t:] = u[:-t] * v; the S-polynomial
        # rule_u * v[t:] - u[:-t] * rule_v, in which w cancels
        spoly = {p + v[t:]: c for p, c in rw.rules[u].items()}
        linal.add_multiple(field, spoly, field.neg(field.one),
                           {u[:len(u) - t] + p: c for p, c in rw.rules[v].items()})
        lead = rw.add(spoly)
        if lead is not None:
            if rw.interreduce():
                done.clear()
            enqueue_all()
    return rw


# -- the algebra table -----------------------------------------------------


class AlgebraTable:
    """Certified basis and multiplication table of A = kQ/I.

    basis paths: trivial paths first (empty tuple, one per vertex, in
    vertex order), then arrows, then longer normal monomials in
    length-then-lex order.  products[i][j] is the sparse coefficient
    vector (dict index -> nonzero scalar) of basis_i * basis_j, empty
    unless target(i) = source(j); only the products with an arrow are
    reduced, and basis_i * (w * a) is (basis_i * w) * a, one contraction
    of entries already built.  These sparse structure constants are
    behind every product (``multiply``, the radical filtration, the
    derivation action, the chain tests and the oracle).  path_index maps
    each nontrivial basis path to its index; factors of a normal monomial
    are normal, so every proper factor of a basis path or of a rule word
    in groebner is found there.  basis_source and basis_target give each
    basis path's endpoints, and rad_bases holds the reduced sparse bases
    of rad^0 = A, rad^1, ..., 0.
    """

    def __init__(self, field: Field, quiver: Quiver, basis_paths: list[Path],
                 basis_source: list[str], basis_target: list[str],
                 products: list[list[dict]], path_index: dict, groebner: list[Poly],
                 rewriter: _Rewriter, rad_bases: list[list[dict]]):
        self.field, self.quiver, self.basis_paths = field, quiver, basis_paths
        self.basis_source, self.basis_target = basis_source, basis_target
        self.products, self.path_index = products, path_index
        self.groebner, self.rewriter, self.rad_bases = groebner, rewriter, rad_bases

    @property
    def rad_dims(self) -> list[int]:
        """dim rad^n for n = 0 .. Loewy length."""
        return [len(b) for b in self.rad_bases]

    @property
    def dim(self) -> int:
        return len(self.basis_paths)

    def idempotent_index(self, v: str) -> int:
        return self.quiver.vertices.index(v)

    def arrow_index(self, label: str) -> int:
        return self.path_index[(label,)]

    def zero(self) -> list:
        return linal.zero_vector(self.field, self.dim)

    def unit(self) -> list:
        v = self.zero()
        for i in range(len(self.quiver.vertices)):
            v[i] = self.field.one
        return v

    def multiply(self, u: list, v: list) -> list:
        prod = linal.contract(self.field, self.products, linal.sparse(u), linal.sparse(v))
        return linal.dense(self.field, self.dim, prod)

    def normal_form(self, terms) -> list:
        """Image in A of a linear combination of (coef, nonempty path) terms.

        Terms with mismatched endpoints are reduced independently; unknown
        arrow labels raise InvalidArrow; non-composable terms vanish.
        """
        field = self.field
        labels = {a.label for a in self.quiver.arrows}
        vec = self.zero()
        for coef, path in terms:
            coef = field.of(coef)
            path = tuple(path)
            for l in path:
                if l not in labels:
                    raise InvalidArrow(f"unknown arrow {l!r}")
            if any(self.quiver.arrow(x).target != self.quiver.arrow(y).source
                   for x, y in zip(path, path[1:])):
                continue
            red = self.rewriter.reduce({path: coef})
            for p, c in red.items():
                k = self.path_index[p]
                vec[k] = field.add(vec[k], c)
        return vec

    def path_vector(self, path) -> list:
        return self.normal_form([(1, tuple(path))])

    def radical_power_basis(self, n: int) -> list[list]:
        """Echelonized basis of rad(A)^n, as coefficient vectors; rad^0 = A."""
        bases = self.rad_bases
        if n >= len(bases):
            return []
        return [linal.dense(self.field, self.dim, v) for v in bases[n]]


def build_algebra(p: Presentation) -> AlgebraTable:
    q = p.quiver
    field = p.field
    order = _Order(q)
    gens: list[Poly] = []
    for rel in p.relations:
        _validate_relation(q, rel)
        poly: Poly = {}
        for coef, path in rel.terms:
            linal.add_multiple(field, poly, field.of(coef), {tuple(path): field.one})
        if poly:
            gens.append(poly)
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
    # only composable pairs are filled: a vertex acts as the identity, only a
    # product with an arrow is reduced, and basis_i * (w * a) is
    # (basis_i * w) * a, read from the columns of w and a, which come first
    products = [[{} for _ in range(dim)] for _ in range(dim)]
    for j, path in enumerate(basis_paths):
        for i in ending[basis_source[j]]:
            if i < nverts or j < nverts:
                products[i][j] = {j if i < nverts else i: one}
            elif len(path) == 1:
                red = rw.reduce({basis_paths[i] + path: one})
                products[i][j] = {index[p]: c for p, c in red.items()}
            else:
                products[i][j] = linal.contract(field, products, products[i][index[path[:-1]]],
                                                {index[path[-1:]]: one})
    return AlgebraTable(field, q, basis_paths, basis_source, basis_target, products, index,
                        list(rw.rules.values()), rw,
                        _radical_filtration(field, basis_paths, basis_source, basis_target,
                                            products))


def _normal_monomials(q: Quiver, rw: _Rewriter, cap: int) -> list[Path]:
    lengths = sorted({len(lead) for lead in rw.rules})
    out: list[Path] = [() for _ in q.vertices]
    level: list[Path] = [(a.label,) for a in q.arrows]
    arrows_from = {v: [a.label for a in q.arrows_from(v)] for v in q.vertices}
    target = {a.label: a.target for a in q.arrows}
    length = 1
    while level:
        out.extend(level)
        if length >= cap:
            raise NotFiniteDimensional(
                f"normal monomials persist past the length cap {cap}")
        nxt: list[Path] = []
        for path in level:
            for label in arrows_from[target[path[-1]]]:
                cand = path + (label,)
                if not any(cand[-ll:] in rw.rules for ll in lengths):
                    nxt.append(cand)
        level = nxt
        length += 1
    return out


def _radical_filtration(field: Field, basis_paths: list[Path], basis_source: list[str],
                        basis_target: list[str], products: list[list[dict]]) -> list[list[dict]]:
    """Reduced sparse bases of rad^0 = A, rad^1, ... down to the first zero power.

    rad^(n+1) = span(rad^n * rad) is spanned by rad^n times the arrows alone,
    since a path of length n + 1 is a path of length n followed by an arrow.
    Elimination only combines rows that share a pivot column, so each
    reduced row u lies in one e_s * rad^n * e_t, with t the target of its
    first basis monomial, and is multiplied only by the arrows leaving t.
    """
    full = [{i: field.one} for i in range(len(basis_paths))]
    arrows_from: dict = {}
    for i, p in enumerate(basis_paths):
        if len(p) == 1:
            arrows_from.setdefault(basis_source[i], []).append({i: field.one})
    bases = [full, [u for u, p in zip(full, basis_paths) if p]]
    while bases[-1]:
        prods = (linal.contract(field, products, u, a) for u in bases[-1]
                 for a in arrows_from.get(basis_target[min(u)], ()))
        cur = linal.span_basis(field, [v for v in prods if v])
        if cur and len(cur) >= len(bases[-1]):
            raise NotAdmissible(
                "radical filtration does not terminate; the ideal is not admissible")
        bases.append(cur)
    return bases
