"""Command-line front end.

Exit codes: 0 success, 2 input errors (unreadable or non-UTF-8 file,
parse, unknown, non-prime or too large --field, a coefficient whose
denominator vanishes in the field, admissibility, finiteness), 3 refused
operations (unsupported characteristic, oversized oracle).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dsl, oracle, quiver as quiver_mod
from .algebra import build_algebra
from .analysis import AnalysisOptions, run_analyze
from .errors import (DeltaUndefined, InvalidArrow, NotAdmissible,
                     NotFiniteDimensional, ParseError, TooLarge,
                     UnsupportedCharacteristic)

INPUT_ERRORS = (ParseError, NotAdmissible, NotFiniteDimensional, InvalidArrow)
REFUSALS = (UnsupportedCharacteristic, TooLarge, DeltaUndefined)


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load(args):
    text = _read_input(args.input)
    return dsl.load_presentation(text, field_override=args.field,
                                 max_length_cap=args.max_length)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    p = _load(args)
    options = AnalysisOptions(oracle=args.oracle, decompose=args.decompose,
                              assert_nonwild=args.assert_nonwild)
    report = run_analyze(p, options)
    _emit(args, report.to_dict(), report.to_text())
    return 0


def cmd_hh1(args) -> int:
    p = _load(args)
    report = run_analyze(p, AnalysisOptions())
    d = report.to_dict()
    payload = {"hh1": d["hh1"], "hh1_rad": d["hh1_rad"],
               "loop_criterion": d["loop_criterion"]}
    text = []
    for key, name in (("hh1", "HH1"), ("hh1_rad", "HH1_rad")):
        h = d[key]
        text.append(f"{name}: dim {h['dim']}, "
                    + ("solvable" if h["solvable"] else "not solvable"))
    _emit(args, payload, "\n".join(text) + "\n")
    return 0


def cmd_chains(args) -> int:
    p = _load(args)
    options = AnalysisOptions(decompose=True, assert_nonwild=args.assert_nonwild)
    report = run_analyze(p, options)
    d = report.to_dict()
    payload = {"chains": d["chains"], "m": d["m"], "flags": d["flags"]}
    text = [f"m = {d['m']}"]
    for cl in d["chains"]["classes"]:
        pairs = " ".join("(" + ",".join(pr) + ")" for pr in cl["pairs"])
        text.append(f"{pairs} [{cl['shape']}] "
                    + ("surjective" if cl["surjective"] else "not surjective"))
    _emit(args, payload, "\n".join(text) + "\n")
    return 0


def cmd_septype(args) -> int:
    p = _load(args)
    graph = quiver_mod.classify_components(quiver_mod.separated_quiver(p.quiver))
    verdict = graph.reptype
    payload = {
        "verdict": verdict,
        "components": [{"vertices": list(c.vertices), "verdict": c.verdict,
                        "name": c.name} for c in graph.components],
    }
    text = [verdict]
    for c in graph.components:
        text.append(f"  {{{', '.join(c.vertices)}}}: {c.verdict}"
                    + (f" ({c.name})" if c.name else ""))
    _emit(args, payload, "\n".join(text) + "\n")
    return 0


def cmd_oracle(args) -> int:
    p = _load(args)
    table = build_algebra(p)
    dim = oracle.bar_hh1_dim(table)
    _emit(args, {"bar_hh1_dim": dim}, f"oracle HH1 dim: {dim}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverhh",
        description="First Hochschild cohomology of bound quiver algebras: "
                    "Lie structure, solvability and Kronecker chain analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "analyze": ("full report", cmd_analyze),
        "hh1": ("HH1 and its radical part", cmd_hh1),
        "chains": ("Kronecker chains and m", cmd_chains),
        "septype": ("separated-quiver classification", cmd_septype),
        "oracle": ("brute-force HH1 dimension", cmd_oracle),
    }
    for name, (help_text, func) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", help="presentation file (DSL or JSON), '-' for stdin")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--field", default=None,
                        help="override the field (Q or fp:P)")
        sp.add_argument("--max-length", type=int, default=64,
                        help="cap on rewriting lengths before giving up")
        if name == "analyze":
            sp.add_argument("--oracle", action="store_true",
                            help="cross-check HH1 with the brute-force path")
            sp.add_argument("--decompose", action="store_true",
                            help="require the sl2 decomposition (refuses char 2)")
        if name in ("analyze", "chains"):
            sp.add_argument("--assert-nonwild", action="store_true",
                            help="treat the algebra as non-wild even if the "
                                 "separated-quiver screen is inconclusive")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except REFUSALS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
