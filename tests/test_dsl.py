import json
import re
import string
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import dsl
from quiverhh.algebra import Presentation, Relation
from quiverhh.dsl import (load_presentation, parse_presentation,
                          presentation_from_json, presentation_to_json,
                          render_presentation)
from quiverhh.errors import ParseError, TooLarge
from quiverhh.linal import Field
from quiverhh.quiver import Quiver

SAMPLE = """
# comment line
field Q
vertex 1 2 3
arrow a 1 2
arrow b 1 2
arrow c 2 3
relation a*c          # trailing comment
relation 2/3 * (a*c) - (b*c)
"""


def test_parse_basic():
    p = parse_presentation(SAMPLE)
    assert p.field.characteristic == 0
    assert p.quiver.vertices == ("1", "2", "3")
    assert [a.label for a in p.quiver.arrows] == ["a", "b", "c"]
    assert len(p.relations) == 2
    terms = dict((path, coef) for coef, path in p.relations[1].terms)
    assert terms[("a", "c")] == Fraction(2, 3)
    assert terms[("b", "c")] == Fraction(-1)


def test_roundtrip_dsl():
    p = parse_presentation(SAMPLE)
    text = render_presentation(p)
    assert parse_presentation(text) == p


def test_roundtrip_json():
    p = parse_presentation(SAMPLE)
    data = presentation_to_json(p)
    again = presentation_from_json(json.dumps(data))
    assert again == p


def test_integral_coefficients_are_ints_in_both_front_ends():
    """A coefficient is an int when it is integral, 4/2 included, and a
    Fraction otherwise; the JSON front end gives the same types."""
    p = parse_presentation("field Q\nvertex 1\narrow x 1 1\n"
                           "relation 2*x*x - 1/2*(x*x*x)\nrelation 4/2 * (x*x*x*x)\n")
    types = [[type(c) for c, _ in rel.terms] for rel in p.relations]
    assert types == [[int, Fraction], [int]]
    assert [c for rel in p.relations for c, _ in rel.terms] == [2, Fraction(-1, 2), 2]
    assert repr(p.relations[1]) == "Relation(terms=((2, ('x', 'x', 'x', 'x')),))"
    again = presentation_from_json(json.dumps(presentation_to_json(p)))
    assert again == p
    assert [[type(c) for c, _ in rel.terms] for rel in again.relations] == types


def test_load_sniffs_format():
    p = parse_presentation(SAMPLE)
    as_json = json.dumps(presentation_to_json(p))
    assert load_presentation(as_json) == p
    assert load_presentation(SAMPLE) == p


def test_field_override():
    p = parse_presentation(SAMPLE, field_override="fp:5")
    assert p.field.characteristic == 5


def test_expression_expansion():
    text = """
field Q
vertex 1 2
arrow a 1 2
arrow b 1 2
arrow c 2 2
relation (a + b) * c * 2 - a * c * 2
"""
    p = parse_presentation(text)
    assert p.relations[0].terms == ((Fraction(2), ("b", "c")),)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("field R\nvertex 1\n", 1),
        ("field Q\nvertex 1 1\n", 2),
        ("field Q\nvertex 1\narrow a 1\n", 3),
        ("field Q\nvertex 1\narrow a 1 1\nrelation a*z\n", 4),
        ("field Q\nvertex 1\narrow a 1 1\nrelation a* \n", 4),
        ("field Q\nvertex 1\narrow a 1 1\nrelation (a*a\n", 4),
        ("field Q\nvertex 1\nbogus x\n", 3),
    ]
    for text, line in cases:
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.line == line


def test_an_unexpected_character_is_placed_in_the_relation_text():
    """The character is named and placed, not the whitespace before it."""
    for relation, column in [("a$a", 2), ("a $a", 3), ("a*a\t$", 5)]:
        with pytest.raises(ParseError) as err:
            parse_presentation(f"field Q\nvertex 1\narrow a 1 1\nrelation {relation}\n")
        assert str(err.value) == f"line 4, col {column}: unexpected character '$'"


def test_a_directive_may_be_followed_by_any_whitespace():
    """A tab or a run of spaces after the directive reads as one space."""
    single = parse_presentation(SAMPLE)
    for sep in ("\t", "   ", " \t "):
        text = "\n".join(sep.join(line.split(" ", 1)) if line[:1].isalpha() else line
                         for line in SAMPLE.splitlines())
        assert parse_presentation(text) == single, repr(sep)


def test_missing_field_rejected():
    with pytest.raises(ParseError):
        parse_presentation("vertex 1\n")


def test_duplicate_arrow_rejected():
    text = "field Q\nvertex 1\narrow a 1 1\narrow a 1 1\n"
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_bad_json_rejected():
    with pytest.raises(ParseError):
        presentation_from_json("{not json")
    with pytest.raises(ParseError):
        presentation_from_json(json.dumps({"field": "Q"}))


def test_json_relations_follow_the_dsl_rules():
    """Like terms combine and zero terms drop in both front ends alike; a
    relation that cancels to zero is refused (tests/test_cli.py)."""
    dsl = ("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n"
           "relation x*x*x - x*x*x + 0*(y*y) + x*y + 1/2*(x*y)\n"
           "relation y*x + y*x\n")

    def relation(*terms):
        return [{"coef": c, "path": list(path)} for c, path in terms]
    data = {"field": "Q", "vertices": ["1"],
            "arrows": [{"label": l, "src": "1", "dst": "1"} for l in "xy"],
            "relations": [relation(("1", "xxx"), ("-1", "xxx"), ("0", "yy"),
                                   ("1", "xy"), ("1/2", "xy")),
                          relation(("1", "yx"), ("1", "yx"))]}
    p = parse_presentation(dsl)
    assert presentation_from_json(json.dumps(data)) == p
    assert render_presentation(p).splitlines()[-2:] == [
        "relation 3/2 * (x*y)", "relation 2 * (y*x)"]


def both_formats(field, vertices, arrows, relations):
    """The same items as DSL text and as JSON text; a relation is a list of
    (coefficient string, labels) terms."""
    lines = [f"field {field}", "vertex " + " ".join(vertices)]
    lines += [f"arrow {label} {src} {dst}" for label, src, dst in arrows]
    lines += ["relation " + " + ".join(f"{c}*({'*'.join(path)})" for c, path in rel)
              for rel in relations]
    data = {"field": field, "vertices": vertices,
            "arrows": [{"label": label, "src": src, "dst": dst} for label, src, dst in arrows],
            "relations": [[{"coef": c, "path": list(path)} for c, path in rel]
                          for rel in relations]}
    return "\n".join(lines) + "\n", json.dumps(data)


LOOP_X = (["1"], [("x", "1", "1")])
A_TO_B = (["1", "2"], [("a", "1", "2"), ("b", "2", "1")])


@pytest.mark.parametrize("field, vertices, arrows, relations, message", [
    ("R", *LOOP_X, [], "unknown field descriptor 'R' (expected 'Q' or 'fp:p')"),
    ("fp:4", *LOOP_X, [], "characteristic must be 0 or prime, got 4"),
    ("Q", ["1", "1'"], [], [], "bad vertex name \"1'\""),
    ("Q", ["1", "2", "1"], [], [], "duplicate vertex '1'"),
    ("Q", [], [], [], "no vertices declared"),
    ("Q", ["1"], [("2a", "1", "1")], [], "bad arrow label '2a'"),
    ("Q", ["1"], [("x", "1", "1"), ("x", "1", "1")], [], "duplicate arrow label 'x'"),
    ("Q", ["1"], [("x", "1", "2")], [], "arrow 'x' uses an undeclared vertex"),
    ("Q", *LOOP_X, [[("1", "xy")]], "relation uses undeclared arrow 'y'"),
    ("Q", *LOOP_X, [[("1", "xx"), ("-1", "xx")]], "relation cancels to zero"),
    ("fp:3", *LOOP_X, [[("1/3", "xx")]], "denominator of 1/3 vanishes mod 3"),
    ("Q", *LOOP_X, [[("1", "x")]], "relation monomial x has length < 2"),
    ("Q", *A_TO_B, [[("1", "aa")]], "path a*a is not composable"),
    ("Q", *A_TO_B, [[("1", "ab"), ("-1", "ba")]], "relation terms are not parallel"),
    ("fp:3", *LOOP_X, [[("3", "xx")]], "relation cancels to zero"),
], ids=["field", "characteristic", "vertex_name", "duplicate_vertex", "no_vertices",
        "label", "duplicate_label", "endpoint", "undeclared_arrow", "cancelling",
        "denominator", "short", "not_composable", "not_parallel", "zero_in_the_field"])
def test_both_formats_refuse_alike(field, vertices, arrows, relations, message):
    """One set of rules: the same refusal from either format, the DSL's
    with its relation's line number in front."""
    dsl_text, json_text = both_formats(field, vertices, arrows, relations)
    errors = []
    for text in (dsl_text, json_text):
        with pytest.raises(ParseError) as err:
            load_presentation(text)
        errors.append(str(err.value))
    assert errors[1] == message
    assert re.sub(r"\Aline \d+: ", "", errors[0]) == message
    if relations:  # the first relation's line, after the field, vertex and arrow lines
        assert errors[0].startswith(f"line {3 + len(arrows)}: ")


def test_a_relation_zero_in_the_overriding_field_is_refused_at_its_line():
    """3*x*x is nonzero over Q but zero over F_3, under --field as under its own field."""
    dsl_text, json_text = both_formats("Q", *LOOP_X, [[("3", "xx")]])
    assert load_presentation(dsl_text).relations[0].terms == ((3, ("x", "x")),)
    with pytest.raises(ParseError, match=r"\Aline 4: relation cancels to zero\Z"):
        load_presentation(dsl_text, field_override="fp:3")
    with pytest.raises(ParseError, match=r"\Arelation cancels to zero\Z"):
        load_presentation(json_text, field_override="fp:3")


@pytest.mark.parametrize("cap", [0, -1])
def test_a_length_cap_below_one_is_refused(cap):
    for text in both_formats("Q", *LOOP_X, [[("1", "xx")]]):
        with pytest.raises(ParseError, match=r"\Alength cap must be at least 1\Z"):
            load_presentation(text, max_length_cap=cap)


@pytest.mark.parametrize("coef", ["0.1", "1e3", "+1", " 1", "1/0", "1/-2", "x"])
def test_a_json_coefficient_string_follows_the_dsl_number_syntax(coef):
    """An optionally signed n or n/m, as a relation in the DSL writes it."""
    _, text = both_formats("Q", *LOOP_X, [[(coef, "xx")]])
    with pytest.raises(ParseError, match="bad presentation JSON"):
        presentation_from_json(text)
    _, text = both_formats("Q", *LOOP_X, [[("-3/6", "xx")]])
    assert presentation_from_json(text).relations[0].terms == ((Fraction(-1, 2), ("x", "x")),)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on the digits of an int")
def test_an_integer_past_the_digit_limit_is_a_parse_error():
    """Reading its digits raises ValueError, in the DSL's number and in JSON alike."""
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match=r"\Aline 4, col 1: Exceeds the limit"):
        load_presentation(f"field Q\nvertex 1\narrow x 1 1\nrelation {digits}*(x*x)\n")
    _, text = both_formats("Q", *LOOP_X, [[("1", "xx")]])
    with pytest.raises(ParseError, match=r"\Abad JSON: Exceeds the limit"):
        load_presentation(text.replace('"1", "path"', digits + ', "path"'))


def test_a_name_may_be_declared_after_its_use():
    p = parse_presentation("relation a*b\narrow b 2 1\nfield Q\narrow a 1 2\nvertex 1 2\n")
    assert p == parse_presentation("field Q\nvertex 1 2\narrow b 2 1\narrow a 1 2\n"
                                   "relation a*b\n")


def test_a_relation_is_refused_once_its_expansion_passes_the_step_budget(monkeypatch):
    """Past MAX_STEPS terms a relation could never finish its first reduction;
    an expansion that combining keeps small is not refused."""
    monkeypatch.setattr(dsl, "MAX_STEPS", 100)
    text = "field Q\nvertex 1\narrow x 1 1\narrow y 1 1\nrelation "
    assert len(parse_presentation(text + "*".join(["(x+y)"] * 6)).relations[0].terms) == 64
    with pytest.raises(TooLarge, match="relation expands past 100 terms"):
        parse_presentation(text + "*".join(["(x+y)"] * 7))
    relation = parse_presentation(text + "*".join(["(x+x*x)"] * 18)).relations[0]
    assert len(relation.terms) == 19


def test_a_second_field_line_is_refused():
    text = "field Q\nvertex 1\nfield fp:3\n"
    for override in (None, "fp:5"):
        with pytest.raises(ParseError, match="duplicate field declaration") as err:
            parse_presentation(text, field_override=override)
        assert err.value.line == 3


BODY = "vertex 1\narrow x 1 1\nrelation x*x\n"


def dsl_text(field):
    """BODY in the DSL, with the field line when field is not None."""
    return (f"field {field}\n" if field is not None else "") + BODY


def json_text(field):
    """BODY as JSON, with the "field" key when field is not None."""
    data = presentation_to_json(parse_presentation("field Q\n" + BODY))
    del data["field"]
    if field is not None:
        data["field"] = field
    return json.dumps(data)


@pytest.mark.parametrize("front_end", [dsl_text, json_text], ids=["dsl", "json"])
@pytest.mark.parametrize("field", [None, "fp:4"], ids=["missing", "fp4"])
def test_the_declared_field_is_checked_under_an_override(front_end, field):
    """Both front ends require a valid declared field even when --field
    overrides it; the override then wins over a valid one."""
    with pytest.raises(ParseError, match="field|characteristic"):
        load_presentation(front_end(field), field_override="Q")
    p = load_presentation(front_end("fp:3"), field_override="Q")
    assert p.field.characteristic == 0


NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=3)


@st.composite
def presentations(draw):
    """A quiver on up to three vertices with up to four arrows, names and
    labels drawn from letters, digits and '_' (so some labels start with a
    digit), and up to three relations of up to three terms, each a
    composable path of one to three arrows with a nonzero Fraction
    coefficient, over Q or F_p; terms are in the front ends' order."""
    vertices = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    labels = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    quiver = Quiver.make(vertices, [(label, draw(st.sampled_from(vertices)),
                                     draw(st.sampled_from(vertices))) for label in labels])
    coef = st.fractions(-5, 5, max_denominator=6).filter(bool)

    def path():
        arrows = [draw(st.sampled_from(quiver.arrows))]
        for _ in range(draw(st.integers(0, 2))):
            following = quiver.arrows_from(arrows[-1].target)
            if following:
                arrows.append(draw(st.sampled_from(following)))
        return tuple(a.label for a in arrows)

    relations = []
    for _ in range(draw(st.integers(0, 3))):
        terms = {path(): draw(coef) for _ in range(draw(st.integers(1, 3)))}
        relations.append(Relation(tuple((terms[w], w) for w in sorted(terms))))
    return Presentation(quiver, tuple(relations), Field(draw(st.sampled_from((0, 2, 3, 5, 7)))))


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_each_front_end_round_trips_or_refuses(p):
    """Both front ends refuse exactly the presentations with an arrow label
    starting with a digit, a coefficient whose denominator vanishes in the
    field, a relation term shorter than two arrows, a relation whose terms
    are not parallel or one whose every coefficient is zero in the field,
    and read every other one back as written."""
    char = p.field.characteristic
    arrow = {a.label: a for a in p.quiver.arrows}
    refusable = (any(a.label[0].isdigit() for a in p.quiver.arrows)
                 or any(char and c.denominator % char == 0
                        for rel in p.relations for c, _ in rel.terms)
                 or any(len(w) < 2 for rel in p.relations for _, w in rel.terms)
                 or any(len({(arrow[w[0]].source, arrow[w[-1]].target)
                             for _, w in rel.terms}) > 1 for rel in p.relations)
                 or any(char and all(c.numerator % char == 0 for c, _ in rel.terms)
                        for rel in p.relations))
    for write, read in ((render_presentation, parse_presentation),
                        (lambda q: json.dumps(presentation_to_json(q)), presentation_from_json)):
        try:
            again = read(write(p))
        except ParseError:
            assert refusable
        else:
            assert not refusable
            assert again == p
