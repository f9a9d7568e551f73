"""Quiver combinatorics: separated quiver, Dynkin/Euclidean recognition,
representation type of radical-square-zero algebras, hereditary HH^1 dimension.

A connected underlying graph is classified by its Tits form
C = 2*Id - Adj: positive definite is Dynkin, positive semidefinite with
nullity one is Euclidean.  Verdict and catalogue name both come from the
pivots of one elimination of C (see _classify_component).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAcyclic
from .value import Value


class Arrow(Value, fields=("label", "source", "target")):
    def __init__(self, label: str, source: str, target: str):
        self.label, self.source, self.target = label, source, target


class Quiver(Value, fields=("vertices", "arrows")):
    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        by_label = {}
        vset = set(vertices)
        for a in arrows:
            if a.label in by_label:
                raise ValueError(f"duplicate arrow label {a.label!r}")
            by_label[a.label] = a
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.label!r} references undeclared vertex")
        self.vertices, self.arrows, self._by_label = vertices, arrows, by_label

    @staticmethod
    def make(vertices, arrows) -> "Quiver":
        """arrows: iterable of (label, source, target) triples."""
        return Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))

    def arrow(self, label: str) -> Arrow:
        return self._by_label[label]

    def arrows_from(self, v: str) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_to(self, v: str) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]


def separated_quiver(q: Quiver) -> Quiver:
    """Double the vertex set; each arrow a: i -> j becomes a^s: i -> j'."""
    primed = {v: v + "'" for v in q.vertices}
    vertices = tuple(q.vertices) + tuple(primed[v] for v in q.vertices)
    arrows = tuple(Arrow(a.label + "s", a.source, primed[a.target]) for a in q.arrows)
    return Quiver(vertices, arrows)


# -- underlying multigraph and its components -----------------------------


def _components(q: Quiver) -> list[list[str]]:
    parent = {v: v for v in q.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a in q.arrows:
        ra, rb = find(a.source), find(a.target)
        if ra != rb:
            parent[ra] = rb
    comps: dict[str, list[str]] = {}
    for v in q.vertices:
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


class ComponentVerdict(Value, fields=("vertices", "verdict", "name")):
    """verdict: Dynkin, Euclidean or Neither; name: e.g. A3 or ~A1, None for Neither."""

    def __init__(self, vertices: tuple[str, ...], verdict: str, name: str | None):
        self.vertices, self.verdict, self.name = vertices, verdict, name


class GraphClass(Value, fields=("components",)):
    def __init__(self, components: tuple[ComponentVerdict, ...]):
        self.components = components

    @property
    def reptype(self) -> str:
        """Representation type of the radical-square-zero algebra whose
        separated quiver this classifies: Finite iff a union of Dynkin
        graphs, Tame iff Dynkin plus at least one Euclidean, Wild otherwise.
        """
        verdicts = {c.verdict for c in self.components}
        if verdicts <= {"Dynkin"}:
            return "Finite"
        if verdicts <= {"Dynkin", "Euclidean"}:
            return "Tame"
        return "Wild"


def _classify_component(q: Quiver, verts: list[str]) -> ComponentVerdict:
    """Verdict and name from one elimination of the Tits form C = 2*Id - Adj.

    Elimination without pivoting stops at the first pivot that is not
    positive.  All pivots positive: C is positive definite, so Dynkin
    (Sylvester).  Only the last pivot zero: the leading minors are positive
    and det C = 0, so C is semidefinite of nullity one, so Euclidean.  A zero
    pivot any earlier is a singular proper subgraph, which no Euclidean graph
    has, so Neither.  The product of the pivots is det C: n + 1 on A_n, 4 on
    D_n and 9 - n on E_n.
    """
    vs = tuple(sorted(verts))
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    neither = ComponentVerdict(vs, "Neither", None)
    cmat = [[Fraction(2 * int(i == j)) for j in range(n)] for i in range(n)]
    degree = [0] * n
    for a in q.arrows:
        if a.source in idx:
            # a loop is classed Neither; separated quivers never have one
            if a.source == a.target:
                return neither
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
                return neither
            if sum(degree) == 2 * n:  # as many edges as vertices
                kind = "A"
            else:
                kind = "E" if degree.count(3) == 1 and max(degree) == 3 else "D"
            return ComponentVerdict(vs, "Euclidean", f"~{kind}{n - 1}")
        det *= pivot
        for below in cmat[k + 1:]:
            f = below[k] / pivot
            if f:
                for j in range(k + 1, n):
                    below[j] -= f * row[j]
    kind = "A" if det == n + 1 else "D" if det == 4 else "E"
    return ComponentVerdict(vs, "Dynkin", f"{kind}{n}")


def classify_components(q: Quiver) -> GraphClass:
    """Per-component Dynkin/Euclidean/Neither verdict on the underlying graph."""
    return GraphClass(tuple(_classify_component(q, c) for c in _components(q)))


def reptype_radsq(q: Quiver) -> str:
    """Representation type of the radical-square-zero algebra with quiver q.

    Exact only for radical-square-zero algebras; see GraphClass.reptype.
    """
    return classify_components(separated_quiver(q)).reptype


def _topo_order(q: Quiver) -> list[str]:
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        indeg[a.target] += 1
    stack = [v for v in q.vertices if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for a in q.arrows_from(v):
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                stack.append(a.target)
    if len(order) != len(q.vertices):
        raise NotAcyclic("quiver has a directed cycle")
    return order


def path_counts(q: Quiver) -> dict[tuple[str, str], int]:
    """Number of directed paths (length >= 0) between all vertex pairs; acyclic only."""
    order = _topo_order(q)
    counts = {(u, v): 0 for u in q.vertices for v in q.vertices}
    for v in q.vertices:
        counts[(v, v)] = 1
    for u in reversed(order):
        for a in q.arrows_from(u):
            for w in q.vertices:
                counts[(u, w)] += counts[(a.target, w)]
    return counts


def hereditary_hh1_dim(q: Quiver) -> int:
    """dim HH^1 of the path algebra of an acyclic quiver.

    Per connected component: 1 - #vertices + sum over arrows of the number
    of directed paths from the arrow's source to its target; summed over
    components.  Zero exactly for unions of trees.
    """
    counts = path_counts(q)  # raises NotAcyclic when there is a cycle
    ncomp = len(_components(q))
    total = ncomp - len(q.vertices)
    for a in q.arrows:
        total += counts[(a.source, a.target)]
    return total
