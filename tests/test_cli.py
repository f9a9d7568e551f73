import gc
import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import algebra, analysis, cli, derlie, dsl, errors, kron, oracle
from quiverhh.algebra import build_algebra
from quiverhh.cli import main

KRONECKER = """\
field Q
vertex 1 2
arrow a 1 2
arrow b 1 2
"""


@pytest.fixture
def kronecker_file(tmp_path):
    f = tmp_path / "kronecker.dsl"
    f.write_text(KRONECKER)
    return str(f)


def test_analyze_text(kronecker_file, capsys):
    assert main(["analyze", kronecker_file]) == 0
    out = capsys.readouterr().out
    assert "dim A: 4" in out
    assert "m = 1" in out


def test_analyze_json(kronecker_file, capsys):
    assert main(["analyze", kronecker_file, "--json", "--oracle"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hh1"]["dim"] == 3
    assert data["m"] == 1
    assert data["oracle"]["matches_hh1"]


def test_subcommands(kronecker_file, capsys):
    assert main(["hh1", kronecker_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hh1"]["dim"] == 3

    assert main(["chains", kronecker_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m"] == 1

    assert main(["septype", kronecker_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "Tame"

    assert main(["oracle", kronecker_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bar_hh1_dim"] == 3


def test_field_override(kronecker_file, capsys):
    assert main(["analyze", kronecker_file, "--field", "fp:5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algebra"]["field"] == "fp:5"


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.dsl"
    f.write_text("field Q\nvertex 1\narrow a 1 1\nrelation a*zzz\n")
    assert main(["analyze", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_not_admissible_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.dsl"
    # a bare arrow in a relation violates admissibility
    f.write_text("field Q\nvertex 1 2\narrow a 1 2\narrow b 1 2\nrelation a - b\n")
    assert main(["analyze", str(f)]) == 2


def test_infinite_dimensional_exit_code(tmp_path):
    f = tmp_path / "free.dsl"
    f.write_text("field Q\nvertex 1\narrow x 1 1\n")
    assert main(["analyze", str(f), "--max-length", "10"]) == 2


def test_long_monomial_overlaps_are_refused_at_the_cap(tmp_path, capsys):
    """x^25 and y^25 are monomial rules longer than the cap 10: their overlaps
    are still queued, and completion refuses them before any basis is walked."""
    f = tmp_path / "xy25.dsl"
    f.write_text("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n"
                 + "".join(f"relation {'*'.join(a * 25)}\n" for a in "xy"))
    assert main(["analyze", str(f), "--max-length", "10"]) == 2
    assert capsys.readouterr().err == "error: overlap degree exceeds the length cap\n"


A3 = "field Q\nvertex 1 2 3\narrow a 1 2\narrow b 2 3\n"
RADSQ_CYCLE3 = (pathlib.Path(__file__).resolve().parent.parent / "corpus"
                / "radsq_cycle3.dsl").read_text()


def truncated_loop(n):
    return f"field Q\nvertex 1\narrow x 1 1\nrelation {'*'.join('x' * n)}\n"


# x^3 + y^2 is installed first, as a binomial rule; y^2, installed after,
# makes it x^3 alone, whose overlap with itself (degree 5) passes 2 * cap
TAIL_KILLED = ("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\nrelation y*y\nrelation x*y\n"
               "relation y*x\nrelation x*x*x + y*y\n")


@pytest.mark.parametrize("text, cap, dim", [
    (KRONECKER, "1", 4), (A3, "2", 6), (A3, "1", None), (truncated_loop(2), "1", 2),
    (truncated_loop(3), "2", 3), (truncated_loop(11), "10", 11), (RADSQ_CYCLE3, "1", 9),
    (TAIL_KILLED, "2", 4)],
    ids=["kronecker_at_1", "A3_at_2", "A3_at_1", "x2_at_1", "x3_at_2", "x11_at_10",
         "radsq_cycle3_at_1", "x3_plus_y2_at_2"])
def test_the_length_cap_refuses_only_a_longer_normal_word(tmp_path, capsys, text, cap, dim):
    """The cap N allows normal words of length N: the Kronecker quiver's
    longest is 1 and A_3's is 2 (a*b), so only A_3 at cap 1 is refused; a
    lead of length N + 1, as in k[x]/(x^(N+1)) or a radical square zero
    algebra at cap 1, is allowed, though its overlaps pass 2N."""
    f = tmp_path / "p.dsl"
    f.write_text(text)
    assert main(["analyze", str(f), "--max-length", cap]) == (2 if dim is None else 0)
    out, err = capsys.readouterr()
    if dim is None:
        assert err == "error: normal monomials persist past the length cap 1\n"
    else:
        assert err == "" and f"dim A: {dim}\n" in out


@pytest.mark.parametrize("extra, renders", [([], 1), (["--json"], 0)], ids=["text", "json"])
def test_analyze_renders_the_text_only_when_it_prints_it(kronecker_file, monkeypatch,
                                                         extra, renders):
    rendered = []
    monkeypatch.setattr(cli, "render_text",
                        lambda d: rendered.append(d) or analysis.render_text(d))
    assert main(["analyze", kronecker_file] + extra) == 0
    assert len(rendered) == renders


def test_char2_decompose_refused(tmp_path, capsys):
    f = tmp_path / "k.dsl"
    f.write_text(KRONECKER)
    assert main(["analyze", str(f), "--field", "fp:2", "--decompose"]) == 3
    assert "refused" in capsys.readouterr().err


def test_char2_without_decompose_skips_chains(tmp_path, capsys):
    f = tmp_path / "k.dsl"
    f.write_text(KRONECKER)
    assert main(["analyze", str(f), "--field", "fp:2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m"] is None
    assert data["chains"]["skipped"] == "characteristic 2"
    assert data["flags"]["char_ne_2"] is False


def test_missing_file_exit_code(capsys):
    assert main(["analyze", "/nonexistent/file.dsl"]) == 2


def json_input(vertices, arrows, relations=(), field="Q") -> bytes:
    return json.dumps({
        "field": field, "vertices": vertices,
        "arrows": [{"label": l, "src": s, "dst": t} for l, s, t in arrows],
        "relations": [[{"coef": "1", "path": path}] for path in relations],
    }).encode()


LOOP = "field Q\nvertex 1\narrow x 1 1\nrelation "
CANCELLING = json.dumps({
    "field": "Q", "vertices": ["1"], "arrows": [{"label": "x", "src": "1", "dst": "1"}],
    "relations": [[{"coef": "1", "path": ["x"] * 3}, {"coef": "-1", "path": ["x"] * 3}]],
}).encode()


@pytest.mark.parametrize("content,extra,fragment", [
    (b"field Q\nvertex \xe9\n", [], "utf-8"),
    (None, [], "Is a directory"),
    (KRONECKER.encode(), ["--field", "fp:4"], "prime"),
    (KRONECKER.encode(), ["--field", "bogus"], "unknown field"),
    (b"field fp:3\nvertex 1\narrow x 1 1\nrelation 1/3*(x*x)\n", [], "line 4"),
    (KRONECKER.encode(), ["--field", "fp:3317044064679887385961981"], "too large"),
    (json_input(["1", "1"], []), [], "duplicate vertex"),
    (json_input(["1"], [("a", "1", "1"), ("a", "1", "1")]), [], "duplicate arrow label"),
    (json_input(["1"], [("a", "1", "2")]), [], "undeclared vertex"),
    (json_input(["1"], [(5, "1", "1")]), [], "bad arrow label 5"),
    (json_input(["1", "1'"], [("a", "1", "1'")]), [], "bad vertex name \"1'\""),
    (json_input([], []), [], "no vertices declared"),
    (json_input(["1"], [("a", "1", "1")], [[["a"], "a"]]), [], "bad presentation JSON"),
    (json_input(["1"], [("a", "1", "1")], [["a", "b"]]), [], "undeclared arrow"),
    (json_input("12", []), [], "'vertices' must be an array"),
    (json_input(["1"], [("a", "1", "1")], ["aa"]), [], "'path' must be an array"),
    (b"field Q\nvertex 1 2\narrow a' 1 2\n", [], "bad arrow label"),
    (json_input(["1"], [], field=5), [], "must be a string, got 5"),
    (json_input(["1"], [], field=None), [], "must be a string, got None"),
    (json_input(["1"], [], field=["Q"]), [], "must be a string, got ['Q']"),
    ((LOOP + "(" * 3000 + "x*x" + ")" * 3000).encode(), [], "nested too deeply"),
    ((LOOP + "-" * 3000 + "x*x").encode(), [], "nested too deeply"),
    (b'{"field": "Q", "vertices": ' + b"[" * 100000 + b"]" * 100000 + b"}", [],
     "nested too deeply"),
    (CANCELLING, [], "relation cancels to zero"),
    ((LOOP + "1/00 * (x*x)").encode(), [], "zero denominator in '1/00'"),
    (CANCELLING.replace(b'"-1"', b'"-1/0"'), [], "bad presentation JSON"),
    (CANCELLING.replace(b'"-1"', b'0.1'), [], "must be an integer or a string, got 0.1"),
    (CANCELLING.replace(b'"-1"', b'true'), [], "must be an integer or a string, got True"),
    (b"field Q\nvertex 1\narrow 2 1 1\nrelation 2*2\n", [], "bad arrow label '2'"),
    (json_input(["1"], [("2a", "1", "1")]), [], "bad arrow label '2a'"),
    (b"field Q\nvertex 1\nfield fp:3\n", ["--field", "fp:5"], "duplicate field"),
    ((KRONECKER + "relation a a\n").encode(), [], "line 5, col 3: unexpected token 'a'"),
    ((KRONECKER + "relation *a\n").encode(), [], "line 5, col 1: unexpected token '*'"),
    (b"field Q\nvertex 1'\n", [], "line 2: bad vertex name \"1'\""),
    (b"field Q\nvertex 1\narrow a 1 2\n", [], "line 3: arrow 'a' uses an undeclared vertex"),
    ((LOOP + "# nothing to relate").encode(), [], "line 4: empty relation"),
    (b"field Q\nvertex\n", [], "no vertices declared"),
    (b"field Q\nvertex 1 2\narrow a 1 2\narrow b 2 1\nrelation a*b - b*a\n", [],
     "line 5: relation terms are not parallel"),
    (b"field Q\nvertex 1 2\narrow a 1 2\nrelation a*a\n", [],
     "line 4: path a*a is not composable"),
    ((LOOP + "x*x\nrelation x").encode(), [], "line 5: relation monomial x has length < 2"),
    (b"field fp:3\nvertex 1\narrow x 1 1\nrelation 3*x*x\n", [],
     "line 4: relation cancels to zero"),
    ((LOOP + "3*x*x").encode(), ["--field", "fp:3"], "line 4: relation cancels to zero"),
    (KRONECKER.encode(), ["--max-length", "0"], "length cap must be at least 1"),
    (KRONECKER.encode(), ["--max-length", "-1"], "length cap must be at least 1"),
], ids=["non_utf8", "directory", "fp4", "bogus_field", "denominator_mod_p",
        "fp_too_large", "json_duplicate_vertex", "json_duplicate_arrow",
        "json_undeclared_vertex", "json_non_string_label", "json_primed_vertex",
        "json_no_vertices", "json_nested_path", "json_undeclared_arrow",
        "json_string_vertices", "json_string_path", "dsl_primed_arrow",
        "json_int_field", "json_null_field", "json_list_field",
        "dsl_deep_parentheses", "dsl_deep_minus", "json_deep_arrays",
        "json_cancelling_relation", "dsl_zero_denominator", "json_zero_denominator",
        "json_float_coefficient", "json_bool_coefficient", "dsl_digit_label",
        "json_digit_label", "dsl_second_field", "dsl_juxtaposed_arrows",
        "dsl_leading_product", "dsl_primed_vertex", "dsl_undeclared_vertex",
        "dsl_comment_only_relation", "dsl_bare_vertex_line", "dsl_non_parallel",
        "dsl_not_composable", "dsl_short_term", "dsl_zero_in_the_field",
        "dsl_zero_in_the_overriding_field", "cap_0", "cap_negative"])
def test_bad_input_is_one_error_line(tmp_path, capsys, content, extra, fragment):
    path = tmp_path / "input.dsl"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["analyze", str(path)] + extra) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert fragment in err and "Traceback" not in err


class ClosedPipe:
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_a_closed_stdout_exits_1_without_a_traceback(kronecker_file, tmp_path, capsys,
                                                     monkeypatch, extra):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        assert main(["analyze", kronecker_file] + extra) == 1
    assert capsys.readouterr().err == ""


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_analyze_prints_the_frozen_json_byte_for_byte(path, capsys):
    """A dict comparison cannot tell True from 1 or 1.0, nor key order or
    indentation; the printed text can."""
    assert main(["analyze", str(path), "--json", "--oracle"]) == 0
    expected = path.with_name(path.stem + ".expected.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("stem, extra, lines", [
    ("kronecker", ["--field", "fp:2"],
     ["chains: skipped (characteristic 2)", "flags: char_ne_2=False"]),
    ("chain3_nonstandard", [],
     ["  chain (a,b) (c,d) (e,f) [Linear]: not surjective, non-standard"]),
])
def test_analyze_text_prints_the_chain_lines(stem, extra, lines, capsys):
    assert main(["analyze", str(CORPUS[0].parent / f"{stem}.dsl")] + extra) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(line in out for line in lines)


# each subcommand's --json output, as a function of the full frozen report
SECTIONS = {
    "hh1": lambda d: {k: d[k] for k in ("hh1", "hh1_rad", "loop_criterion")},
    "chains": lambda d: {k: d[k] for k in ("chains", "m", "flags")},
    "septype": lambda d: d["septype"],
    "oracle": lambda d: {"bar_hh1_dim": d["oracle"]["bar_hh1_dim"]},
}


@pytest.mark.parametrize("command", SECTIONS)
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_subcommand_prints_its_sections_of_the_frozen_report(path, command, capsys):
    expected = json.loads(path.with_name(path.stem + ".expected.json").read_text())
    assert main([command, str(path), "--json"]) == 0
    section = SECTIONS[command](expected)
    assert capsys.readouterr().out == json.dumps(section, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_subcommand_text_is_its_block_of_the_analyze_text(path, capsys):
    """Without --json, hh1, chains and septype each print a run of whole
    lines of the analyze text; oracle prints its dimension alone."""
    assert main(["analyze", str(path)]) == 0
    report = capsys.readouterr().out.splitlines()
    for command in ("hh1", "chains", "septype"):
        assert main([command, str(path)]) == 0
        block = capsys.readouterr().out.splitlines()
        assert block and any(report[k:k + len(block)] == block
                             for k in range(len(report))), command
    expected = json.loads(path.with_name(path.stem + ".expected.json").read_text())
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == f"oracle HH1 dim: {expected['oracle']['bar_hh1_dim']}\n"


def test_chains_in_characteristic_2_prints_the_skipped_sections(kronecker_file, capsys):
    assert main(["analyze", kronecker_file, "--field", "fp:2", "--json"]) == 0
    expected = SECTIONS["chains"](json.loads(capsys.readouterr().out))
    assert main(["chains", kronecker_file, "--field", "fp:2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert expected == {"chains": {"skipped": "characteristic 2"}, "m": None,
                        "flags": {"char_ne_2": False}}


STAGES = ((analysis, "build_algebra"), (cli, "build_algebra"), (derlie, "hh1"),
          (derlie, "radical_part"), (derlie, "derivation_space"),
          (derlie, "loop_criterion"), (kron, "decomposition_report"),
          (oracle, "bar_hh1_dim"))
HH1 = {"hh1": 1, "radical_part": 1, "derivation_space": 1}


@pytest.mark.parametrize("argv,expected", [
    (["hh1"], {"build_algebra": 1, **HH1, "loop_criterion": 1}),
    (["chains"], {"build_algebra": 1, **HH1, "decomposition_report": 1}),
    (["septype"], {}),
    (["oracle"], {"build_algebra": 1, "bar_hh1_dim": 1}),
    (["analyze", "--oracle"], {"build_algebra": 1, **HH1, "loop_criterion": 1,
                               "decomposition_report": 1, "bar_hh1_dim": 1}),
], ids=["hh1", "chains", "septype", "oracle", "analyze_oracle"])
def test_each_subcommand_computes_only_what_it_prints(argv, expected, monkeypatch,
                                                      capsys):
    calls = Counter()
    for module, name in STAGES:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    path = CORPUS[0].parent / "loops_solvable.dsl"
    assert main([argv[0], str(path)] + argv[1:]) == 0
    assert calls == Counter(expected)


INFINITE = {
    "free_on_two_loops": "field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n",
    "binomial_fp5": "field fp:5\nvertex 1\narrow x 1 1\narrow y 1 1\nrelation x*x*x*x\n"
                    "relation y*y*y*y\nrelation y*y*x - 2*x*x*x*y\n"
                    "relation y*y*y - y*y*y*x*y\n",
    "x5_beside_two_loops": "field Q\nvertex 1\narrow x 1 1\narrow y 1 1\narrow z 1 1\n"
                           "relation x*x*x*x*x\n",
}


@pytest.mark.parametrize("text", INFINITE.values(), ids=list(INFINITE))
def test_an_infinite_quotient_is_refused_by_a_repeated_factor(text, tmp_path, capsys):
    """Each quotient has infinitely many normal words.  Counted up to the
    default length cap they exhaust memory, so the refusal must come from
    a cycle among the normal words of the window length, well below the
    cap: checked first at cap 10, where counting alone would reach the
    cap, then through the CLI."""
    p = dsl.load_presentation(text, max_length_cap=10)
    with pytest.raises(errors.NotFiniteDimensional, match="repeats a factor"):
        build_algebra(p)
    f = tmp_path / "infinite.dsl"
    f.write_text(text)
    assert main(["analyze", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repeats a factor" in err and err.count("\n") == 1


EXIT_CODES = {
    errors.ParseError: 2, errors.NotAdmissible: 2, errors.NotFiniteDimensional: 2,
    errors.InvalidArrow: 2, errors.QuiverHHError: 3, errors.QuotientUndefined: 3,
    errors.NotAcyclic: 3, errors.DeltaUndefined: 3, errors.UnsupportedCharacteristic: 3,
    errors.TooLarge: 3, errors.NotAssociative: 3,
}


def test_every_error_class_exits_with_its_documented_code(kronecker_file, monkeypatch,
                                                          capsys):
    assert set(EXIT_CODES) == {c for c in vars(errors).values() if isinstance(c, type)
                               and issubclass(c, errors.QuiverHHError)}
    for cls, code in EXIT_CODES.items():
        def fail(args, cls=cls):
            raise cls("the message")
        monkeypatch.setattr(cli, "_load", fail)
        assert main(["hh1", kronecker_file]) == code, cls.__name__
        prefix = "error" if code == 2 else "refused"
        assert capsys.readouterr().err == f"{prefix}: the message\n"


def test_running_out_of_memory_is_one_refusal_line(kronecker_file, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(cli, "_load", exhausted)
    assert main(["analyze", kronecker_file]) == 3
    assert capsys.readouterr() == ("", "refused: out of memory\n")


def as_json(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


@pytest.mark.parametrize("path, field", [(p, None) for p in CORPUS]
                         + [(CORPUS[0].with_name("kronecker.dsl"), "fp:2")],
                         ids=[p.stem for p in CORPUS] + ["kronecker-fp2"])
def test_the_report_writer_prints_what_json_dumps_prints(path, field):
    """Every subcommand's payload, the full report with the oracle among
    them; over F_2 the chain sections hold "m": null."""
    p = dsl.load_presentation(path.read_text(), field_override=field)
    payloads = {command: payload_of(p, analysis.AnalysisOptions(oracle=True))
                for command, (_, payload_of, _) in cli.COMMANDS.items()}
    for command, payload in payloads.items():
        assert cli._dumps(payload) == as_json(payload), command
    assert field is None or payloads["chains"]["m"] is None


REPORT_TEXT = st.text() | st.text('"\\/\x00\x01\x1f\x7f\n\t é€😀 ab')
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | REPORT_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(REPORT_VALUES)
def test_the_report_writer_is_json_dumps_on_any_report_value(value):
    assert cli._dumps(value) == as_json(value)


@pytest.mark.parametrize("value", [1.5, (1, 2), (), {"a": [0.5]}, {"a": (1,)}, {1: 2},
                                   {"a": {None: 0}}, Fraction(1, 2), {"a"}])
def test_the_report_writer_refuses_a_type_no_report_holds(value):
    """No report holds a float, tuple, set, Fraction or non-string key, and
    the writer prints none of them: json.dumps would print a float, a tuple
    as a list and an int key as a string."""
    with pytest.raises(TypeError):
        cli._dumps(value)


@pytest.mark.parametrize("stem", ["kronecker", "radsq_cycle3", "chain3_nonstandard"])
def test_analyze_json_leaves_no_cyclic_garbage(stem, capsys):
    """With the collector off, a second run of analyze --json --oracle leaves
    no object that only the collector could free."""
    argv = ["analyze", str(CORPUS[0].with_name(f"{stem}.dsl")), "--json", "--oracle"]
    assert main(argv) == 0  # warm-up: lazy imports and caches
    gc.disable()
    try:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_rewriting_past_its_step_budget_is_one_refusal_line(tmp_path, monkeypatch, capsys):
    f = tmp_path / "cubes.dsl"
    f.write_text("field Q\nvertex 1\narrow x 1 1\narrow y 1 1\n"
                 "relation x*y - y*x\nrelation x*x*x\nrelation y*y*y\n")
    monkeypatch.setattr(algebra, "MAX_STEPS", 20)
    assert main(["analyze", str(f)]) == 3
    assert capsys.readouterr() == ("", "refused: rewriting exceeds 20 reduction steps\n")
