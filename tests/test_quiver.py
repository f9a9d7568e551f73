import pathlib
import random

import pytest

from quiverhh import quiver as quiver_mod
from quiverhh.analysis import run_analyze
from quiverhh.cli import main
from quiverhh.dsl import load_presentation
from quiverhh.errors import NotAcyclic
from quiverhh.quiver import (Quiver, classify_components, hereditary_hh1_dim,
                             path_counts, reptype_radsq, separated_quiver)


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
    assert not q.has_loops()
    assert q_make(["1"], [("x", "1", "1")]).has_loops()


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
    q = q_make(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    counts = path_counts(q)
    assert counts[("1", "3")] == 2
    assert counts[("1", "1")] == 1
    assert counts[("3", "1")] == 0
    cyc = q_make(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(NotAcyclic):
        path_counts(cyc)


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
    assert len(calls) == 2 and capsys.readouterr().out.startswith("Tame\n")
