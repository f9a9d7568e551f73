"""Quiver combinatorics: separated quiver, Dynkin/Euclidean recognition,
representation type of radical-square-zero algebras, hereditary HH^1 dimension.

A connected underlying graph is classified by its Tits form
C = 2*Id - Adj: positive definite is Dynkin, positive semidefinite with
nullity one is Euclidean.  Verdict and catalogue name come from the pivots
of one integer (Bareiss) elimination of C: its leading principal minors,
det C last (see _classify_component).
"""

from __future__ import annotations

from .errors import InvalidArrow, NotAcyclic
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
        self.vertices, self.arrows, self.by_label = vertices, arrows, by_label  # label -> Arrow

    @staticmethod
    def make(vertices, arrows) -> "Quiver":
        """arrows: iterable of (label, source, target) triples."""
        return Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))

    def arrow(self, label: str) -> Arrow:
        try:
            return self.by_label[label]
        except KeyError:
            raise InvalidArrow(f"unknown arrow {label!r}") from None

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

    Bareiss elimination without pivoting, in integers: the k-th pivot is the
    leading principal minor D_k, so the last is det C.  It stops at the
    first pivot that is not positive.  All pivots positive: C is positive
    definite, so Dynkin (Sylvester).  Only the last pivot zero: the leading
    minors are positive and det C = 0, so C is semidefinite of nullity one,
    so Euclidean.  A zero pivot any earlier is a singular proper subgraph,
    which no Euclidean graph has, so Neither.  det C is n + 1 on A_n, 4 on
    D_n and 9 - n on E_n.
    """
    vs = tuple(sorted(verts))
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    neither = ComponentVerdict(vs, "Neither", None)
    cmat = [[2 * int(i == j) for j in range(n)] for i in range(n)]
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
    d = 1  # the previous pivot, D_0 = 1 at first; each division by it is exact
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
        for below in cmat[k + 1:]:
            f = below[k]
            below[k + 1:] = [(x * pivot - f * y) // d for x, y in zip(below[k + 1:], row[k + 1:])]
        d = pivot
    kind = "A" if d == n + 1 else "D" if d == 4 else "E"
    return ComponentVerdict(vs, "Dynkin", f"{kind}{n}")


def classify_components(q: Quiver) -> GraphClass:
    """Per-component Dynkin/Euclidean/Neither verdict on the underlying graph."""
    return GraphClass(tuple(_classify_component(q, c) for c in _components(q)))


def reptype_radsq(q: Quiver) -> str:
    """Representation type of the radical-square-zero algebra with quiver q.

    Exact only for radical-square-zero algebras; see GraphClass.reptype.
    """
    return classify_components(separated_quiver(q)).reptype


def hereditary_hh1_dim(q: Quiver) -> int:
    """dim HH^1 of the path algebra of an acyclic quiver (Happel).

    Per connected component: 1 - #vertices + sum over arrows of the number
    of directed paths from the arrow's source to its target; summed over
    components.  Zero exactly for unions of trees.  Raises NotAcyclic when
    the quiver has a directed cycle.
    """
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        indeg[a.target] += 1
    order = [v for v in q.vertices if indeg[v] == 0]
    for v in order:  # Kahn's order: the list grows while it is walked
        for a in q.arrows_from(v):
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                order.append(a.target)
    if len(order) != len(q.vertices):
        raise NotAcyclic("quiver has a directed cycle")
    paths: dict = {}  # v -> {w: number of paths from v to w}, each w reached from v
    for v in reversed(order):
        paths[v] = {v: 1}
        for a in q.arrows_from(v):
            for w, n in paths[a.target].items():
                paths[v][w] = paths[v].get(w, 0) + n
    total = len(_components(q)) - len(q.vertices)
    return total + sum(paths[a.source].get(a.target, 0) for a in q.arrows)
