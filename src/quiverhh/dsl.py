"""Line-oriented presentation format and the equivalent JSON schema.

    field Q              # or: field fp:5
    vertex 1 2 3
    arrow a 1 2
    arrow b 1 2
    relation a*b
    relation 2/3 * (a*b) - (b*a)

Paths compose left to right: "a*b" is a followed by b.  Relation
expressions allow +, -, integer or fraction coefficients, '*' products
and parentheses; products of sums are expanded, refused once an expansion
passes MAX_STEPS terms.  Names are letters, digits and '_'; an arrow label
must not start with a digit.  A name may be declared anywhere in the file.

Each front end only reads its format into the same items; _presentation
applies every rule of a presentation to them, those of a relation by
algebra.relation_poly at the relation's line, so both refuse alike.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import MAX_LENGTH, MAX_STEPS, Presentation, Relation, relation_poly
from .errors import InvalidArrow, NotAdmissible, ParseError, TooLarge
from .linal import Field, _integral
from .quiver import Quiver

_NUMBER = r"\d+/\d+|\d+"
_SIGNED_NUMBER = re.compile(rf"-?(?:{_NUMBER})\Z")
_TOKEN = re.compile(rf"\s*(?:({_NUMBER})|([A-Za-z_][A-Za-z_0-9]*)|([()+*-]))")
_NAME = re.compile(r"[A-Za-z_0-9]+\Z")
# an arrow label is an identifier token: a relation reads 2*2 as the number 4
_LABEL = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _tokenize(text: str, line_no: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:  # name the character, not the whitespace before it
            bad = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", line_no, bad + 1)
        group = m.lastindex  # the one alternative that matched
        tokens.append((("num", "ident", "op")[group - 1], m.group(group), m.start(group) + 1))
        pos = m.end()
    return tokens


def _number(text: str):
    """The value of an optionally signed number n or n/m; an int when integral."""
    if "/" in text and not int(text.partition("/")[2]):
        raise ValueError(f"zero denominator in {text!r}")
    return _integral(Fraction(text))


class _ExprParser:
    """Recursive descent over the relation token stream.

    A parsed expression is a list of (coefficient, path) terms with the
    path a tuple of arrow labels; products distribute over sums.
    """

    def __init__(self, tokens, line_no):
        self.tokens, self.pos, self.line_no = tokens, 0, line_no

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line_no)
        self.pos += 1
        return tok

    def parse(self):
        terms = self.expr()
        if (tok := self.peek()) is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", self.line_no, tok[2])
        return terms

    def expr(self):
        out = self.term()
        while (tok := self.peek()) is not None and tok[0] == "op" and tok[1] in "+-":
            self.take()
            rhs = self.term()
            out = _combine(out + (rhs if tok[1] == "+" else [(-c, p) for c, p in rhs]))
        return out

    def term(self):
        out = self.factor()
        while (tok := self.peek()) is not None and tok[0] == "op" and tok[1] == "*":
            self.take()
            rhs = self.factor()
            out = _combine((c1 * c2, p1 + p2) for c1, p1 in out for c2, p2 in rhs)
        return out

    def factor(self):
        kind, val, col = self.take()
        if kind == "num":
            try:
                return [(_number(val), ())]
            except ValueError as exc:
                raise ParseError(str(exc), self.line_no, col) from None
        if kind == "ident":
            return [(1, (val,))]
        if kind == "op" and val == "(":
            inner = self.expr()
            if (tok := self.peek()) is None or tok[1] != ")":
                raise ParseError("missing closing parenthesis", self.line_no, col)
            self.take()
            return inner
        if kind == "op" and val == "-":
            return [(-c, p) for c, p in self.factor()]
        raise ParseError(f"unexpected token {val!r}", self.line_no, col)


def _combine(terms):
    """Like terms summed, zero sums dropped; an integral coefficient is an int.

    Refused once more than MAX_STEPS paths appear, as a product of sums is
    expanded: the first reduction of so many terms would pass the step budget.
    """
    acc = {}
    for c, p in terms:
        acc[p] = acc.get(p, 0) + c
        if len(acc) > MAX_STEPS:
            raise TooLarge(f"relation expands past {MAX_STEPS} terms")
    return [(_integral(c), p) for p, c in acc.items() if c != 0]


def _parse_field(text: str, line_no: int | None = None) -> Field:
    try:
        return Field.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _presentation(field, vertices, arrows, relations, field_override: str | None,
                  max_length_cap: int) -> Presentation:
    """The presentation of the items either front end reads, by the one set of
    rules of both: field is (text, line), or None when undeclared; vertices
    are (name, line), arrows (label, source, target, line) and relations
    (terms, line), each term (coefficient, path of labels); a JSON line is None.
    """
    if max_length_cap < 1:
        raise ParseError("length cap must be at least 1")
    if field is None:
        raise ParseError("missing field declaration")
    field = _parse_field(*field)  # declared and valid under an override too
    if field_override is not None:
        field = _parse_field(field_override)
    names: dict = {}  # name -> None, in the order declared
    for name, line_no in vertices:
        if not isinstance(name, str) or not _NAME.match(name):
            raise ParseError(f"bad vertex name {name!r}", line_no)
        if name in names:
            raise ParseError(f"duplicate vertex {name!r}", line_no)
        names[name] = None
    if not names:
        raise ParseError("no vertices declared")
    labels: dict = {}  # label -> (label, source, target), in the order declared
    for label, src, dst, line_no in arrows:
        if not isinstance(label, str) or not _LABEL.match(label):
            raise ParseError(f"bad arrow label {label!r}", line_no)
        if label in labels:
            raise ParseError(f"duplicate arrow label {label!r}", line_no)
        if src not in names or dst not in names:
            raise ParseError(f"arrow {label!r} uses an undeclared vertex", line_no)
        labels[label] = (label, src, dst)
    quiver = Quiver.make(names, labels.values())
    out = []
    for terms, line_no in relations:
        terms = _combine(terms)
        if not terms:
            raise ParseError("relation cancels to zero", line_no)
        try:
            relation_poly(quiver, field, Relation(tuple(terms)))
        except (NotAdmissible, InvalidArrow, ZeroDivisionError) as exc:
            raise ParseError(str(exc), line_no) from None
        out.append(Relation(tuple(sorted(terms, key=lambda t: t[1]))))
    return Presentation(quiver, tuple(out), field, max_length_cap)


def parse_presentation(text: str, field_override: str | None = None,
                       max_length_cap: int = MAX_LENGTH) -> Presentation:
    field = None
    vertices, arrows, relations = [], [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, rest = (line.split(None, 1) + [""])[:2]
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field declaration", line_no)
            field = (rest, line_no)
        elif head == "vertex":
            vertices += [(name, line_no) for name in rest.split()]
        elif head == "arrow":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError("arrow needs: label source target", line_no)
            arrows.append((*parts, line_no))
        elif head == "relation":
            tokens = _tokenize(rest, line_no)
            if not tokens:
                raise ParseError("empty relation", line_no)
            relations.append((_ExprParser(tokens, line_no).parse(), line_no))
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    return _presentation(field, vertices, arrows, relations, field_override, max_length_cap)


def render_presentation(p: Presentation) -> str:
    lines = [f"field {p.field.describe()}"]
    lines.append("vertex " + " ".join(p.quiver.vertices))
    for a in p.quiver.arrows:
        lines.append(f"arrow {a.label} {a.source} {a.target}")
    for rel in p.relations:
        lines.append("relation " + _render_terms(rel.terms))
    return "\n".join(lines) + "\n"


def _render_terms(terms) -> str:
    parts = []
    for i, (coef, path) in enumerate(terms):
        coef = Fraction(coef)
        mono = "*".join(path)
        neg = coef < 0
        mag = -coef if neg else coef
        body = mono if mag == 1 else f"{mag} * ({mono})"
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def presentation_to_json(p: Presentation) -> dict:
    return {
        "field": p.field.describe(),
        "vertices": list(p.quiver.vertices),
        "arrows": [{"label": a.label, "src": a.source, "dst": a.target}
                   for a in p.quiver.arrows],
        "relations": [[{"coef": str(Fraction(c)), "path": list(path)}
                       for c, path in rel.terms]
                      for rel in p.relations],
    }


def presentation_from_json(data, field_override: str | None = None,
                           max_length_cap: int = MAX_LENGTH) -> Presentation:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as exc:  # a syntax error, placed in the message, or too long an int
            raise ParseError(f"bad JSON: {exc}") from None
    try:
        field = (data["field"], None)
        vertices = [(v, None) for v in _array(data["vertices"], "vertices")]
        arrows = [(a["label"], a["src"], a["dst"], None) for a in data["arrows"]]
        relations = [([(_coefficient(t["coef"]), tuple(_array(t["path"], "path"))) for t in rel],
                      None) for rel in data["relations"]]
        # inside the try: a name of the wrong JSON type, a list, is unhashable
        return _presentation(field, vertices, arrows, relations, field_override, max_length_cap)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad presentation JSON: {exc}") from None


def _coefficient(value):
    """A JSON coefficient: an integer, or a string in the DSL's number syntax,
    an optionally signed n or n/m; a float would carry its binary rounding into
    the field, and a bool is not a number."""
    if isinstance(value, str):
        if not _SIGNED_NUMBER.match(value):
            raise ValueError(f"coefficient {value!r} is not a number n or n/m")
        return _number(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"coefficient must be an integer or a string, got {value!r}")
    return value


def _array(value, key: str) -> list:
    """A JSON array; a string would otherwise be split into characters."""
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be an array, got {value!r}")
    return value


def load_presentation(text: str, field_override: str | None = None,
                      max_length_cap: int = MAX_LENGTH) -> Presentation:
    """Accept either the DSL or the JSON schema, sniffing the format."""
    parse = presentation_from_json if text.lstrip().startswith("{") else parse_presentation
    try:
        return parse(text, field_override, max_length_cap)
    except RecursionError:
        raise ParseError("presentation is nested too deeply") from None
