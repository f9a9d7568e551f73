"""The records are plain classes: the value types compare and hash by their
fields, and importing the package generates no code."""

import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import quiverhh
from quiverhh.algebra import Presentation, Relation
from quiverhh.analysis import AnalysisOptions
from quiverhh.kron import KroneckerPair
from quiverhh.linal import Field
from quiverhh.quiver import Arrow, Quiver

SRC = pathlib.Path(quiverhh.__file__).resolve().parents[1]


def test_import_loads_neither_dataclasses_nor_inspect():
    # modules loaded before the import (a site hook, say) do not count
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules)\n"
            "import quiverhh, quiverhh.cli, quiverhh.oracle\n"
            "assert quiverhh.__file__.startswith(sys.path[0]), quiverhh.__file__\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert "quiverhh.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)


QUIVER = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
RELATION = Relation(((Fraction(1), ("a",)), (Fraction(-1), ("b",))))

# (record, the same fields in a new record, one field changed, its fields as a tuple)
VALUES = [
    (Field(5), Field(5), Field(7), (5,)),
    (Arrow("a", "1", "2"), Arrow("a", "1", "2"), Arrow("a", "1", "1"), ("a", "1", "2")),
    (QUIVER, Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))),
     Quiver(("1", "2"), (Arrow("a", "1", "2"),)), (QUIVER.vertices, QUIVER.arrows)),
    (RELATION, Relation(((Fraction(1), ("a",)), (Fraction(-1), ("b",)))),
     Relation(((Fraction(1), ("a",)),)), (RELATION.terms,)),
    (Presentation(QUIVER, (RELATION,), Field(0)),
     Presentation(Quiver.make(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]),
                  (RELATION,), Field(0), 64),
     Presentation(QUIVER, (RELATION,), Field(0), 32), (QUIVER, (RELATION,), Field(0), 64)),
    (KroneckerPair("a", "b", "1", "2", True), KroneckerPair("a", "b", "1", "2", True),
     KroneckerPair("a", "b", "1", "2", False), ("a", "b", "1", "2", True)),
]


@pytest.mark.parametrize("record, same, other, fields", VALUES,
                         ids=[type(v[0]).__name__ for v in VALUES])
def test_value_records_compare_and_hash_by_their_fields(record, same, other, fields):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert record != fields and fields != record
    assert len(fields) > 1 or record != fields[0]
    assert {record: 1}[same] == 1


def test_records_of_different_types_are_unequal():
    records = [v[0] for v in VALUES]
    for i, r in enumerate(records):
        for s in records[i + 1:]:
            assert r != s
    assert Arrow("a", "1", "2") != KroneckerPair("a", "1", "2", "2", False)


def test_quiver_equality_ignores_the_arrow_lookup():
    a = Quiver.make(["1", "2"], [("a", "1", "2")])
    b = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    assert a == b and hash(a) == hash(b)
    assert b.arrow("a") is b.arrows[0]
    assert repr(b) == ("Quiver(vertices=('1', '2'), "
                       "arrows=(Arrow(label='a', source='1', target='2'),))")


@pytest.mark.parametrize("vertices, arrows, message", [
    (("1", "1"), (), "duplicate vertex"),
    (("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "2", "1")), "duplicate arrow label 'a'"),
    (("1",), (Arrow("a", "1", "2"),), "undeclared vertex"),
])
def test_quiver_rejects_bad_vertices_and_labels(vertices, arrows, message):
    with pytest.raises(ValueError, match=message):
        Quiver(vertices, arrows)


def test_constructor_defaults_and_keywords():
    assert vars(AnalysisOptions()) == {"oracle": False, "decompose": False,
                                       "assert_nonwild": False}
    options = AnalysisOptions(oracle=True, assert_nonwild=True)
    assert (options.oracle, options.decompose, options.assert_nonwild) == (True, False, True)
    p = Presentation(QUIVER, (RELATION,), Field(0))
    assert p.max_length_cap == 64
    assert Presentation(quiver=QUIVER, relations=(), field=Field(3),
                        max_length_cap=8).max_length_cap == 8
    assert Field().characteristic == 0
