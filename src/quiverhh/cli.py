"""Command-line front end.

Each subcommand builds one staged analysis and computes only what it
prints. Exit codes: 0 success, 1 stdout closed by its reader before the
output was written (no traceback), 2 input errors (unreadable or non-UTF-8
file, parse, unknown, non-prime or too large --field, a coefficient whose
denominator vanishes in the field, admissibility, finiteness), 3 every
other error of the package, a refused or failed operation (unsupported
characteristic, oversized oracle, undefined Delta map, chains or quotient, a
cyclic quiver where an acyclic one is needed, a table that is not
associative or whose idempotents the oracle cannot trust).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dsl
from .algebra import build_algebra  # noqa: F401  bench/spans.py wraps cli.build_algebra
from .analysis import AnalysisOptions, AnalysisReport, render_text, run_analyze
from .errors import (InvalidArrow, NotAdmissible, NotFiniteDimensional,
                     ParseError, QuiverHHError)

INPUT_ERRORS = (ParseError, NotAdmissible, NotFiniteDimensional, InvalidArrow)


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


def cmd_analyze(args) -> tuple[dict, str]:
    options = AnalysisOptions(oracle=args.oracle, decompose=args.decompose,
                              assert_nonwild=args.assert_nonwild)
    d = run_analyze(_load(args), options).to_dict()
    return d, "" if args.json else render_text(d)


def cmd_hh1(args) -> tuple[dict, str]:
    d = AnalysisReport(_load(args)).hh1_sections()
    text = [f"{name}: dim {d[key]['dim']}, "
            + ("solvable" if d[key]["solvable"] else "not solvable")
            for key, name in (("hh1", "HH1"), ("hh1_rad", "HH1_rad"))]
    return d, "\n".join(text) + "\n"


def cmd_chains(args) -> tuple[dict, str]:
    options = AnalysisOptions(decompose=True, assert_nonwild=args.assert_nonwild)
    d = AnalysisReport(_load(args), options).chain_sections()
    text = [f"m = {d['m']}"]
    for cl in d["chains"]["classes"]:
        pairs = " ".join("(" + ",".join(pr) + ")" for pr in cl["pairs"])
        text.append(f"{pairs} [{cl['shape']}] "
                    + ("surjective" if cl["surjective"] else "not surjective"))
    return d, "\n".join(text) + "\n"


def cmd_septype(args) -> tuple[dict, str]:
    d = AnalysisReport(_load(args)).septype_section()
    text = [d["verdict"]]
    for c in d["components"]:
        text.append(f"  {{{', '.join(c['vertices'])}}}: {c['verdict']}"
                    + (f" ({c['name']})" if c["name"] else ""))
    return d, "\n".join(text) + "\n"


def cmd_oracle(args) -> tuple[dict, str]:
    dim = AnalysisReport(_load(args)).oracle_dim
    return {"bar_hh1_dim": dim}, f"oracle HH1 dim: {dim}\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parse_args leaves it unchanged."""
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
    """Run one subcommand; each returns its JSON payload and its text."""
    args = build_parser().parse_args(argv)
    try:
        payload, text = args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuiverHHError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    try:
        if args.json:
            sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null
        # device, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
