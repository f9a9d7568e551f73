import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import quiver as quiver_mod
from quiverhh.analysis import run_analyze
from quiverhh.cli import main
from quiverhh.dsl import load_presentation
from quiverhh.errors import NotAcyclic
from quiverhh.quiver import (Quiver, classify_components, hereditary_hh1_dim,
                             reptype_radsq, separated_quiver)
import reference


def q_make(vertices, arrows):
    return Quiver.make(vertices, arrows)


def test_quiver_validation():
    with pytest.raises(ValueError):
        q_make(["1", "1"], [])
    with pytest.raises(ValueError):
        q_make(["1"], [("a", "1", "2")])
    with pytest.raises(ValueError):
        q_make(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_arrow_lookup():
    q = q_make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    assert q.arrow("a").target == "2"
    assert [a.label for a in q.arrows_from("1")] == ["a"]
    assert [a.label for a in q.arrows_to("1")] == ["b"]


def test_separated_quiver_doubles_vertices():
    q = q_make(["1", "2"], [("a", "1", "2"), ("x", "1", "1")])
    s = separated_quiver(q)
    assert len(s.vertices) == 4
    assert len(s.arrows) == 2
    for a in s.arrows:
        assert not a.source.endswith("'")
        assert a.target.endswith("'")


CLASSIFY_CASES = [
    # (arrows over implied vertices, expected verdict, expected name)
    ([("a", "1", "2")], "Dynkin", "A2"),
    ([("a", "1", "2"), ("b", "2", "3")], "Dynkin", "A3"),
    ([("a", "1", "2"), ("b", "1", "2")], "Euclidean", "~A1"),
    ([("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")], "Euclidean", "~A2"),
    ([("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")], "Dynkin", "D4"),
    ([("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0"), ("d", "4", "0")],
     "Euclidean", "~D4"),
    ([("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")], "Neither", None),
    ([("x", "1", "1")], "Neither", None),
]


@pytest.mark.parametrize("arrows,verdict,name", CLASSIFY_CASES)
def test_classify_component(arrows, verdict, name):
    vertices = sorted({v for a in arrows for v in (a[1], a[2])})
    gc = classify_components(q_make(vertices, arrows))
    assert len(gc.components) == 1
    assert gc.components[0].verdict == verdict
    assert gc.components[0].name == name


def test_classify_e_series():
    # E6: path of five with one extra vertex on the middle
    arrows = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
              ("d", "4", "5"), ("e", "3", "6")]
    gc = classify_components(q_make(["1", "2", "3", "4", "5", "6"], arrows))
    assert gc.components[0].name == "E6"
    # extended E6: arms of length 2,2,2
    arrows = [("a", "1", "2"), ("b", "2", "0"), ("c", "3", "4"),
              ("d", "4", "0"), ("e", "5", "6"), ("f", "6", "0")]
    gc = classify_components(q_make(["0", "1", "2", "3", "4", "5", "6"], arrows))
    assert gc.components[0].verdict == "Euclidean"
    assert gc.components[0].name == "~E6"


def test_reptype_screen():
    loop = q_make(["1"], [("x", "1", "1")])
    assert reptype_radsq(loop) == "Finite"
    kron = q_make(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    assert reptype_radsq(kron) == "Tame"
    triple = q_make(["1", "2"], [(l, "1", "2") for l in "abc"])
    assert reptype_radsq(triple) == "Wild"


def test_path_counts_and_acyclicity():
    """Happel's formula counts every path from an arrow's source to its
    target: 1 - 3 + 1 + 1 + 2 with c parallel to a*b, and 1 - 3 + 2 + 2 + 2
    + 2 + 5 with two arrows 1 -> 2, two arrows 2 -> 3 and e: 1 -> 3 beside
    their four products; a directed cycle or a loop is refused."""
    q = q_make(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    assert hereditary_hh1_dim(q) == 2
    doubled = q_make(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3"),
                                       ("d", "2", "3"), ("e", "1", "3")])
    assert hereditary_hh1_dim(doubled) == 11
    for arrows in ([("a", "1", "2"), ("b", "2", "1")], [("x", "2", "2")]):
        with pytest.raises(NotAcyclic):
            hereditary_hh1_dim(q_make(["0", "1", "2"], [("t", "0", "1")] + arrows))


def test_hereditary_dim_examples():
    # a tree has first cohomology zero
    tree = q_make(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])
    assert hereditary_hh1_dim(tree) == 0
    # two parallel arrows: three-dimensional
    kron = q_make(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    assert hereditary_hh1_dim(kron) == 3
    # bipartite orientation of a square: one loop in the underlying graph
    square = q_make(["1", "2", "3", "4"],
                    [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4"),
                     ("d", "1", "4")])
    assert hereditary_hh1_dim(square) == 1


def test_hereditary_dim_random_trees():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 7)
        vertices = [str(i) for i in range(n)]
        arrows = []
        for i in range(1, n):
            j = rng.randrange(i)
            # orient parent to child to keep the quiver acyclic
            arrows.append((f"a{i}", str(j), str(i)))
        assert hereditary_hh1_dim(q_make(vertices, arrows)) == 0


def test_one_classification_per_analysis(monkeypatch, capsys):
    path = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "kronecker.dsl"
    calls = []
    classify = quiver_mod.classify_components
    monkeypatch.setattr(quiver_mod, "classify_components",
                        lambda q: calls.append(q) or classify(q))
    report = run_analyze(load_presentation(path.read_text()))
    assert len(calls) == 1
    assert report.septype == report.to_dict()["septype"]["verdict"] == "Tame"
    assert main(["septype", str(path)]) == 0
    assert len(calls) == 2 and capsys.readouterr().out.startswith(
        "separated quiver type: Tame\n")


def tree_arms(*arms):
    """A tree with arms of the given lengths hanging off the vertex c."""
    arrows = []
    for i, length in enumerate(arms):
        prev = "c"
        for k in range(length):
            cur = f"{i}_{k}"
            arrows.append((f"a{i}_{k}", prev, cur))
            prev = cur
    return arrows


def path_graph(n):
    return [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)]


def cycle_graph(n):
    return [(f"a{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]


def euclidean_d(n):
    """~D_n: a path of n - 3 vertices with two leaves at each end (at the
    single vertex when n = 4)."""
    arrows = path_graph(n - 3)
    for end, leaves in ((0, "pq"), (n - 4, "rs")):
        arrows += [(f"b{leaf}", f"v{end}", leaf) for leaf in leaves]
    return arrows


CATALOGUE = (
    [(f"A{n}", path_graph(n), "Dynkin", f"A{n}") for n in range(1, 10)]
    + [(f"D{n}", tree_arms(1, 1, n - 3), "Dynkin", f"D{n}") for n in range(4, 10)]
    + [(f"E{n}", tree_arms(1, 2, n - 4), "Dynkin", f"E{n}") for n in (6, 7, 8)]
    + [("~A1", [("a", "1", "2"), ("b", "2", "1")], "Euclidean", "~A1")]
    + [(f"~A{n}", cycle_graph(n + 1), "Euclidean", f"~A{n}") for n in range(2, 8)]
    + [(f"~D{n}", euclidean_d(n), "Euclidean", f"~D{n}") for n in range(4, 9)]
    + [("~E6", tree_arms(2, 2, 2), "Euclidean", "~E6"),
       ("~E7", tree_arms(1, 3, 3), "Euclidean", "~E7"),
       ("~E8", tree_arms(1, 2, 5), "Euclidean", "~E8")]
    + [("T(2,3,7)", tree_arms(1, 2, 6), "Neither", None),
       ("T(3,3,4)", tree_arms(2, 2, 3), "Neither", None),
       ("T(2,4,5)", tree_arms(1, 3, 4), "Neither", None),
       ("star5", tree_arms(1, 1, 1, 1, 1), "Neither", None),
       ("~D4+pendant", tree_arms(1, 1, 1, 2), "Neither", None),
       # the double edge is eliminated first, so the zero pivot is not last
       ("~A1+pendant", [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")], "Neither", None),
       ("triple", [(l, "1", "2") for l in "abc"], "Neither", None),
       ("loop", [("x", "1", "1")], "Neither", None)]
)


@pytest.mark.parametrize("arrows,verdict,name",
                         [case[1:] for case in CATALOGUE], ids=[case[0] for case in CATALOGUE])
def test_classify_catalogue(arrows, verdict, name):
    # A1 is the one case without arrows
    vertices = sorted({v for a in arrows for v in (a[1], a[2])}) or ["v0"]
    gc = classify_components(q_make(vertices, arrows))
    assert [(c.verdict, c.name) for c in gc.components] == [(verdict, name)]


def exact_det(mat):
    """Determinant over Fraction by elimination with row exchanges."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return det


@st.composite
def connected_multigraphs(draw):
    """A connected loop-free multigraph on 1..7 vertices, edge multiplicity
    at most 3, as an edge-multiplicity dict on vertex pairs i < j."""
    n = draw(st.integers(1, 7))
    mult = {}
    for v in range(1, n):
        mult[(draw(st.integers(0, v - 1)), v)] = draw(st.integers(1, 3))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            mult[pair] = draw(st.integers(1, 3))
    return n, mult


@settings(max_examples=150, deadline=None)
@given(connected_multigraphs(), st.randoms(use_true_random=False))
def test_classify_matches_principal_minors(graph, rng):
    n, mult = graph
    cmat = [[2 * int(i == j) - mult.get((min(i, j), max(i, j)), 0) * int(i != j)
             for j in range(n)] for i in range(n)]
    minors = [exact_det([[cmat[i][j] for j in sub] for i in sub])
              for size in range(1, n + 1) for sub in itertools.combinations(range(n), size)]
    arrows = [(f"a{i}_{j}_{k}", str(i), str(j))
              for (i, j), m in mult.items() for k in range(m)]
    gc = classify_components(q_make([str(v) for v in range(n)], arrows))
    (component,) = gc.components
    assert (component.verdict == "Dynkin") == all(m > 0 for m in minors)
    assert (component.verdict == "Euclidean") == (all(m >= 0 for m in minors)
                                                  and minors[-1] == 0)
    # relabelled, reordered and reoriented, the elimination runs in another
    # vertex order; verdict and name must not change
    names = rng.sample(range(100, 1000), n)
    relabel = [(label, f"w{names[int(t)]}", f"w{names[int(s)]}") if rng.random() < 0.5
               else (label, f"w{names[int(s)]}", f"w{names[int(t)]}")
               for label, s, t in arrows]
    rng.shuffle(relabel)
    vertices = [f"w{k}" for k in names]
    rng.shuffle(vertices)
    (moved,) = classify_components(q_make(vertices, relabel)).components
    assert (moved.verdict, moved.name) == (component.verdict, component.name)


@st.composite
def multigraphs(draw):
    """A loop-free multigraph on 1..10 vertices, in general disconnected:
    a forest in which each vertex hangs from an earlier one with chance
    3/4, then up to three further edges; each edge has multiplicity 1..2
    and a random orientation."""
    n = draw(st.integers(1, 10))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n) if draw(st.integers(0, 3))]
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
    arrows = []
    for i, j in edges:
        for _ in range(draw(st.integers(1, 2))):
            s, t = (i, j) if draw(st.booleans()) else (j, i)
            arrows.append((f"a{len(arrows)}", f"v{s}", f"v{t}"))
    return q_make([f"v{v}" for v in range(n)], arrows)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_classify_matches_the_fraction_elimination(q):
    """The integer elimination gives each component the verdict and name of
    the elimination over Fraction it replaced."""
    got = [(c.verdict, c.name) for c in classify_components(q).components]
    assert got == [reference.classify_component(q, c) for c in quiver_mod._components(q)]
