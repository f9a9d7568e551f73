"""Quiver combinatorics: separated quiver, Dynkin/Euclidean recognition,
representation type of radical-square-zero algebras, hereditary HH^1 dimension.

Classification of underlying graphs is done through the quadratic form
C = 2*Id - Adj (positive definite = Dynkin, positive semidefinite with
nullity one = Euclidean); catalogue names are attached afterwards by
matching degree patterns.  The quadratic form is the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction

from .errors import NotAcyclic


@dataclass(frozen=True)
class Arrow:
    label: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _by_label: dict = dfield(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        by_label = {}
        vset = set(self.vertices)
        for a in self.arrows:
            if a.label in by_label:
                raise ValueError(f"duplicate arrow label {a.label!r}")
            by_label[a.label] = a
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.label!r} references undeclared vertex")
        object.__setattr__(self, "_by_label", by_label)

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

    def has_loops(self) -> bool:
        return any(a.source == a.target for a in self.arrows)


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


@dataclass(frozen=True)
class ComponentVerdict:
    vertices: tuple[str, ...]
    verdict: str          # "Dynkin", "Euclidean" or "Neither"
    name: str | None      # e.g. "A3", "~A1"; None for Neither


@dataclass(frozen=True)
class GraphClass:
    components: tuple[ComponentVerdict, ...]

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


def _principal_minor_sums(mat: list[list[Fraction]]) -> list[Fraction]:
    """e_1..e_n with e_k = sum of principal k x k minors (Faddeev-LeVerrier).

    For a symmetric matrix: all eigenvalues >= 0 iff all e_k >= 0.
    """
    n = len(mat)
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    cs = []
    for k in range(1, n + 1):
        m = _matmul(mat, m)
        c = sum(m[i][i] for i in range(n)) / k
        cs.append(c)
        for i in range(n):
            m[i][i] -= c
    # the recursion yields the characteristic polynomial coefficients c_k
    # with x^n - c_1 x^(n-1) - c_2 x^(n-2) - ...; the k-th elementary
    # symmetric function of the eigenvalues is (-1)^(k+1) c_k
    return [c if k % 2 == 0 else -c for k, c in enumerate(cs)]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _classify_component(q: Quiver, verts: list[str]) -> ComponentVerdict:
    vs = sorted(verts)
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    # loops make the Tits form indefinite straight away
    for a in q.arrows:
        if a.source in idx and a.source == a.target:
            return ComponentVerdict(tuple(vs), "Neither", None)
    adj = [[Fraction(0)] * n for _ in range(n)]
    for a in q.arrows:
        if a.source in idx and a.target in idx:
            i, j = idx[a.source], idx[a.target]
            adj[i][j] += 1
            adj[j][i] += 1
    cmat = [[Fraction(2 * int(i == j)) - adj[i][j] for j in range(n)] for i in range(n)]
    es = _principal_minor_sums(cmat)
    psd = all(e >= 0 for e in es)
    if not psd:
        return ComponentVerdict(tuple(vs), "Neither", None)
    det = es[-1] if es else Fraction(1)
    if det > 0:
        return ComponentVerdict(tuple(vs), "Dynkin", _dynkin_name(adj, n))
    nullity_one = n >= 2 and es[-2] > 0
    if nullity_one:
        return ComponentVerdict(tuple(vs), "Euclidean", _euclidean_name(adj, n))
    return ComponentVerdict(tuple(vs), "Neither", None)


def _degrees(adj, n):
    return [sum(int(adj[i][j]) for j in range(n)) for i in range(n)]


def _arm_lengths(adj, n, center):
    """Lengths of the simple arms hanging off a branch vertex of a tree."""
    arms = []
    for j in range(n):
        if adj[center][j] != 0:
            length = 1
            prev, cur = center, j
            while True:
                nxt = [k for k in range(n) if adj[cur][k] != 0 and k != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
    return sorted(arms)


def _dynkin_name(adj, n) -> str:
    degs = _degrees(adj, n)
    if n == 1:
        return "A1"
    if max(degs) <= 2:
        return f"A{n}"
    center = degs.index(3)
    arms = _arm_lengths(adj, n, center)
    if arms[:2] == [1, 1]:
        return f"D{n}"
    return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}.get(tuple(arms), f"D{n}")


def _euclidean_name(adj, n) -> str:
    degs = _degrees(adj, n)
    if n == 2 and adj[0][1] == 2:
        return "~A1"
    if max(degs) <= 2:
        return f"~A{n - 1}"
    if max(degs) == 4 or degs.count(3) == 2:
        return f"~D{n - 1}"
    center = degs.index(3)
    arms = _arm_lengths(adj, n, center)
    return {(2, 2, 2): "~E6", (1, 3, 3): "~E7", (1, 2, 5): "~E8"}.get(tuple(arms), f"~D{n - 1}")


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
