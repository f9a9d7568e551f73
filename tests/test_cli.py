import json
import pathlib

import pytest

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


def json_input(vertices, arrows, relations=()) -> bytes:
    return json.dumps({
        "field": "Q", "vertices": vertices,
        "arrows": [{"label": l, "src": s, "dst": t} for l, s, t in arrows],
        "relations": [[{"coef": "1", "path": path}] for path in relations],
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
    (json_input(["1"], [(5, "1", "1")]), [], "bad name 5"),
    (json_input(["1", "1'"], [("a", "1", "1'")]), [], "bad name"),
    (json_input([], []), [], "no vertices declared"),
    (json_input(["1"], [("a", "1", "1")], [[["a"], "a"]]), [], "bad presentation JSON"),
    (json_input(["1"], [("a", "1", "1")], [["a", "b"]]), [], "undeclared arrow"),
    (json_input("12", []), [], "'vertices' must be an array"),
    (json_input(["1"], [("a", "1", "1")], ["aa"]), [], "'path' must be an array"),
    (b"field Q\nvertex 1 2\narrow a' 1 2\n", [], "bad arrow label"),
], ids=["non_utf8", "directory", "fp4", "bogus_field", "denominator_mod_p",
        "fp_too_large", "json_duplicate_vertex", "json_duplicate_arrow",
        "json_undeclared_vertex", "json_non_string_label", "json_primed_vertex",
        "json_no_vertices", "json_nested_path", "json_undeclared_arrow",
        "json_string_vertices", "json_string_path", "dsl_primed_arrow"])
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


CORPUS = sorted((pathlib.Path(__file__).resolve().parent.parent / "corpus").glob("*.dsl"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_analyze_prints_the_frozen_json_byte_for_byte(path, capsys):
    """A dict comparison cannot tell True from 1 or 1.0, nor key order or
    indentation; the printed text can."""
    assert main(["analyze", str(path), "--json", "--oracle"]) == 0
    expected = path.with_name(path.stem + ".expected.json").read_text()
    assert capsys.readouterr().out == expected
