"""Line-oriented presentation format and the equivalent JSON schema.

    field Q              # or: field fp:5
    vertex 1 2 3
    arrow a 1 2
    arrow b 1 2
    relation a*b
    relation 2/3 * (a*b) - (b*a)

Paths compose left to right: "a*b" is a followed by b.  Relation
expressions allow +, -, integer or fraction coefficients, '*' products
and parentheses; products of sums are expanded.  Names are letters, digits
and '_'; an arrow label must not start with a digit.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import Presentation, Relation
from .errors import ParseError
from .linal import Field, _integral
from .quiver import Quiver

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+*-]))")
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
        num, ident, op = m.groups()
        if num is not None:
            if "/" in num and not int(num.partition("/")[2]):
                raise ParseError(f"zero denominator in {num!r}", line_no, m.start(1) + 1)
            tokens.append(("num", Fraction(num) if "/" in num else int(num), m.start(1) + 1))
        elif ident is not None:
            tokens.append(("ident", ident, m.start(2) + 1))
        elif op is not None:
            tokens.append(("op", op, m.start(3) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive descent over the relation token stream.

    A parsed expression is a list of (coefficient, path) terms with the
    path a tuple of arrow labels; products distribute over sums.
    """

    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

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
        if self.peek() is not None:
            kind, val, col = self.peek()
            raise ParseError(f"unexpected token {val!r}", self.line_no, col)
        return terms

    def expr(self):
        out = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return out
            op = self.take()[1]
            rhs = self.term()
            if op == "-":
                rhs = [(-c, p) for c, p in rhs]
            out = _combine(out + rhs)

    def term(self):
        out = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return out
            self.take()
            rhs = self.factor()
            out = _combine([(c1 * c2, p1 + p2) for c1, p1 in out for c2, p2 in rhs])

    def factor(self):
        kind, val, col = self.take()
        if kind == "num":
            return [(val, ())]
        if kind == "ident":
            return [(1, (val,))]
        if kind == "op" and val == "(":
            inner = self.expr()
            tok = self.peek()
            if tok is None or tok[1] != ")":
                raise ParseError("missing closing parenthesis", self.line_no, col)
            self.take()
            return inner
        if kind == "op" and val == "-":
            inner = self.factor()
            return [(-c, p) for c, p in inner]
        raise ParseError(f"unexpected token {val!r}", self.line_no, col)


def _combine(terms):
    """Like terms summed, zero sums dropped; an integral coefficient is an int."""
    acc = {}
    for c, p in terms:
        acc[p] = acc.get(p, 0) + c
    return [(_integral(c), p) for p, c in acc.items() if c != 0]


def _relation(terms, labels, line_no: int | None = None) -> Relation:
    """The relation of the terms by the rules of both front ends: declared arrows
    only, like terms combined, zero terms dropped, sorted, not cancelling to zero."""
    for _, path in terms:
        for label in path:
            if label not in labels:
                raise ParseError(f"relation uses undeclared arrow {label!r}", line_no)
    terms = _combine(terms)
    if not terms:
        raise ParseError("relation cancels to zero", line_no)
    return Relation(tuple(sorted(terms, key=lambda t: t[1])))


def _parse_field(text: str, line_no: int | None = None) -> Field:
    try:
        return Field.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _check_coefficients(field: Field, relations, lines) -> None:
    """Reject a coefficient whose denominator vanishes in the field."""
    for rel, line_no in zip(relations, lines):
        for coef, _ in rel.terms:
            try:
                field.of(coef)
            except ZeroDivisionError as exc:
                raise ParseError(str(exc), line_no) from None


def parse_presentation(text: str, field_override: str | None = None,
                       max_length_cap: int = 64) -> Presentation:
    field = None
    vertices: dict = {}  # name -> None, in the order declared
    arrows: dict = {}    # label -> (label, source, target), in the order declared
    relations: list = []
    relation_lines: list = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field declaration", line_no)
            field = _parse_field(rest, line_no)
        elif head == "vertex":
            for name in rest.split():
                if not _NAME.match(name):
                    raise ParseError(f"bad vertex name {name!r}", line_no)
                if name in vertices:
                    raise ParseError(f"duplicate vertex {name!r}", line_no)
                vertices[name] = None
        elif head == "arrow":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError("arrow needs: label source target", line_no)
            label, src, dst = parts
            if not _LABEL.match(label):
                raise ParseError(f"bad arrow label {label!r}", line_no)
            if label in arrows:
                raise ParseError(f"duplicate arrow label {label!r}", line_no)
            if src not in vertices or dst not in vertices:
                raise ParseError(f"arrow {label!r} uses an undeclared vertex", line_no)
            arrows[label] = (label, src, dst)
        elif head == "relation":
            tokens = _tokenize(rest, line_no)
            if not tokens:
                raise ParseError("empty relation", line_no)
            terms = _ExprParser(tokens, line_no).parse()
            relations.append(_relation(terms, arrows, line_no))
            relation_lines.append(line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if field is None:
        raise ParseError("missing field declaration")
    if field_override is not None:
        field = _parse_field(field_override)
    _check_coefficients(field, relations, relation_lines)
    if not vertices:
        raise ParseError("no vertices declared")
    quiver = Quiver.make(vertices, arrows.values())
    return Presentation(quiver, tuple(relations), field, max_length_cap)


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
                           max_length_cap: int = 64) -> Presentation:
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", exc.lineno, exc.colno) from None
    try:
        field = Field.parse(data["field"])  # declared and valid under an override too
        field = field if field_override is None else Field.parse(field_override)
        vertices = _array(data["vertices"], "vertices")
        arrows = [(a["label"], a["src"], a["dst"]) for a in data["arrows"]]
        for name, rule in [(v, _NAME) for v in vertices] + [(a[0], _LABEL) for a in arrows]:
            if not isinstance(name, str) or not rule.match(name):
                raise ValueError(f"bad name {name!r}")
        if not vertices:
            raise ValueError("no vertices declared")
        # duplicate vertices or labels and undeclared endpoints raise ValueError
        quiver = Quiver.make(vertices, arrows)
        labels = {a[0] for a in arrows}
        relations = []
        for rel in data["relations"]:
            terms = [(_coefficient(t["coef"]), tuple(_array(t["path"], "path"))) for t in rel]
            relations.append(_relation(terms, labels))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad presentation JSON: {exc}") from None
    _check_coefficients(field, relations, [None] * len(relations))
    return Presentation(quiver, tuple(relations), field, max_length_cap)


def _coefficient(value):
    """A JSON coefficient: an integer or a string, an int when integral; a float
    would carry its binary rounding into the field, and a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"coefficient must be an integer or a string, got {value!r}")
    return _integral(Fraction(value))


def _array(value, key: str) -> list:
    """A JSON array; a string would otherwise be split into characters."""
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be an array, got {value!r}")
    return value


def load_presentation(text: str, field_override: str | None = None,
                      max_length_cap: int = 64) -> Presentation:
    """Accept either the DSL or the JSON schema, sniffing the format."""
    parse = presentation_from_json if text.lstrip().startswith("{") else parse_presentation
    try:
        return parse(text, field_override, max_length_cap)
    except RecursionError:
        raise ParseError("presentation is nested too deeply") from None
