"""Command-line front end.

Each subcommand computes only what it prints, its block of the ``analyze``
report. Exit codes: 0 success, 1 stdout closed by its reader before the output
was written (no traceback), 2 input errors (unreadable or non-UTF-8 file,
parse, unknown, non-prime or too large --field, a coefficient whose
denominator vanishes in the field, admissibility, finiteness), 3 every other
error of the package, a refused or failed operation (unsupported
characteristic, a size guard, undefined Delta map, chains or quotient, a
table whose idempotents the oracle cannot trust) and running out of memory."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _str

from . import dsl
from .algebra import MAX_LENGTH, build_algebra  # noqa: F401  bench/spans.py wraps cli.build_algebra
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


def _dumps(x, indent="\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True) of a report; other types raise TypeError."""
    if type(x) in (int, bool) or x is None:
        return "null" if x is None else str(x).lower()  # True as true
    inner = indent + "  "
    if type(x) is dict:
        items, ends = [_str(k) + ": " + _dumps(x[k], inner) for k in sorted(x)], "{}"
    elif type(x) is list:
        items, ends = [_dumps(v, inner) for v in x], "[]"
    else:
        return _str(x)  # a TypeError unless x is a str
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


# name -> (help, payload as a function of (presentation, options), the
# report key its text is rendered under, or None for a payload of report keys)
COMMANDS = {
    "analyze": ("full report", lambda p, o: run_analyze(p, o).to_dict(), None),
    "hh1": ("HH1 and its radical part", lambda p, o: AnalysisReport(p, o).hh1_sections(), None),
    "chains": ("Kronecker chains and m", lambda p, o: AnalysisReport(p, o).chain_sections(), None),
    "septype": ("separated-quiver classification",
                lambda p, o: AnalysisReport(p, o).septype_section(), "septype"),
    "oracle": ("brute-force HH1 dimension",
               lambda p, o: {"bar_hh1_dim": AnalysisReport(p, o).oracle_dim}, "oracle"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quiverhh",
        description="First Hochschild cohomology of bound quiver algebras: "
                    "Lie structure, solvability and Kronecker chain analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", help="presentation file (DSL or JSON), '-' for stdin")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--field", default=None,
                        help="override the field (Q or fp:P)")
        sp.add_argument("--max-length", type=int, default=MAX_LENGTH,
                        help="cap on the length of a normal word, at least 1")
        if name == "analyze":
            sp.add_argument("--oracle", action="store_true",
                            help="cross-check HH1 with the brute-force path")
            sp.add_argument("--decompose", action="store_true",
                            help="require the sl2 decomposition (refuses char 2)")
        if name in ("analyze", "chains"):
            sp.add_argument("--assert-nonwild", action="store_true",
                            help="treat the algebra as non-wild even if the "
                                 "separated-quiver screen is inconclusive")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: print its payload as JSON, or its text, which is
    its block of the ``analyze`` text."""
    args = build_parser().parse_args(argv)
    _, payload_of, key = COMMANDS[args.command]
    options = AnalysisOptions(**{flag: getattr(args, flag, False)
                                 for flag in ("oracle", "decompose", "assert_nonwild")})
    try:
        payload = payload_of(_load(args), options)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuiverHHError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return 3
    try:
        if args.json:
            sys.stdout.write(_dumps(payload) + "\n")
        else:
            sys.stdout.write(render_text(payload if key is None else {key: payload}))
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
