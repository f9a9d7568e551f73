"""Benchmark inputs, the timed unit of work, and the per-case correctness gate.

Three families are generated from the workload seed; the fourth is the
hand-written corpus.  The seed renames vertices and arrows and permutes
the order in which vertices, arrows and relations are declared, which
changes the monomial order and the basis order but no invariant.  For
the corpus the seed only shuffles the order in which the files run.

Every check in this module runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field

# Cases at or below this dim A are also checked against the brute-force
# cochain oracle, whose cost grows like dim^4 (about 0.2 s at dim 19).
ORACLE_MAX_DIM = 16

# Family sizes; each workload's last case is its largest.
RADSQ_SIZES = (3, 4)
HEREDITARY_SIZES = (4, 6, 8)
TRUNCATED_SIZES = (10, 15)
TRUNCATED_PRIMES = (5, 7)  # 5 divides every size, 7 divides none
CORPUS_LARGEST = "radsq_cycle3"  # the slowest corpus file at the seed

WORKLOADS = ("radsq_cycles", "hereditary_paths", "truncated_loops_fp", "corpus_cli")


@dataclass
class Case:
    """One timed input: DSL text (generated) or a corpus file path."""

    name: str
    text: str
    params: dict = field(default_factory=dict)
    path: str | None = None       # corpus file, run through the CLI
    expected: str | None = None   # frozen CLI output for corpus files


# -- generators ------------------------------------------------------------


def _render(rng: random.Random, field_name: str, vertices: list, arrows: list,
            relations: list) -> str:
    """DSL text of a presentation after a seeded relabelling.

    ``arrows`` holds (label, source, target); ``relations`` holds monomial
    relations as tuples of arrow labels.  Names are drawn without
    replacement and the vertex, arrow and relation lists are shuffled.
    """
    vname = dict(zip(vertices, (f"v{k}" for k in rng.sample(range(100, 1000), len(vertices)))))
    aname = dict(zip((a[0] for a in arrows),
                     (f"x{k}" for k in rng.sample(range(100, 1000), len(arrows)))))
    vs = [vname[v] for v in vertices]
    rng.shuffle(vs)
    arrs = [(aname[l], vname[s], vname[t]) for l, s, t in arrows]
    rng.shuffle(arrs)
    rels = ["*".join(aname[l] for l in path) for path in relations]
    rng.shuffle(rels)
    lines = [f"field {field_name}", "vertex " + " ".join(vs)]
    lines += [f"arrow {l} {s} {t}" for l, s, t in arrs]
    lines += [f"relation {r}" for r in rels]
    return "\n".join(lines) + "\n"


def radsq_cycle(n: int, rng: random.Random) -> str:
    """n-cycle of double arrows over Q with every path of length two zero."""
    arrows = [(f"{s}{i}", i, (i + 1) % n) for i in range(n) for s in "ab"]
    relations = [(x, y) for x, _, tx in arrows for y, sy, _ in arrows if tx == sy]
    return _render(rng, "Q", list(range(n)), arrows, relations)


def hereditary_path(n: int, rng: random.Random) -> str:
    """Linear quiver A_n over Q with its first arrow doubled, no relations."""
    arrows = [("b0", 0, 1)] + [(f"a{i}", i, i + 1) for i in range(n - 1)]
    return _render(rng, "Q", list(range(n)), arrows, [])


def truncated_loop(n: int, p: int, rng: random.Random) -> str:
    """k[x]/(x^n) over F_p."""
    return _render(rng, f"fp:{p}", [0], [("x", 0, 0)], [("x",) * n])


def generated_specs(workload: str) -> list:
    """(case name, params) in run order; the last one is the largest."""
    if workload == "radsq_cycles":
        return [(f"radsq_{n}", {"n": n}) for n in RADSQ_SIZES]
    if workload == "hereditary_paths":
        return [(f"hereditary_{n}", {"n": n}) for n in HEREDITARY_SIZES]
    if workload == "truncated_loops_fp":
        return [(f"loop_{n}_fp{p}", {"n": n, "p": p})
                for n in TRUNCATED_SIZES for p in TRUNCATED_PRIMES]
    raise ValueError(workload)


def generate(workload: str, params: dict, seed: int) -> str:
    rng = random.Random(f"{workload}:{seed}:{sorted(params.items())}")
    if workload == "radsq_cycles":
        return radsq_cycle(params["n"], rng)
    if workload == "hereditary_paths":
        return hereditary_path(params["n"], rng)
    return truncated_loop(params["n"], params["p"], rng)


def make_cases(workload: str, seed: int, root) -> list:
    """The workload's cases for this seed; the largest case is named by
    ``largest_case``."""
    if workload == "corpus_cli":
        files = sorted((root / "corpus").glob("*.dsl"))
        if not files:
            raise FileNotFoundError(f"no corpus files under {root / 'corpus'}")
        random.Random(f"{workload}:{seed}").shuffle(files)
        return [Case(f.stem, f.read_text(), path=str(f),
                     expected=(f.parent / f"{f.stem}.expected.json").read_text())
                for f in files]
    return [Case(name, generate(workload, params, seed), params)
            for name, params in generated_specs(workload)]


def largest_case(workload: str) -> str:
    if workload == "corpus_cli":
        return CORPUS_LARGEST
    return generated_specs(workload)[-1][0]


# -- the timed unit --------------------------------------------------------


def run_case(mods: dict, case: Case):
    """Presentation text in, report out, as ``quiverhh analyze --json``.

    Generated cases return (presentation, report, report dict); corpus
    cases return (exit code, stdout text) of the CLI.
    """
    if case.path is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mods["cli"].main(["analyze", case.path, "--json", "--oracle"])
        return rc, buf.getvalue()
    p = mods["dsl"].parse_presentation(case.text)
    report = mods["analysis"].run_analyze(p)
    return p, report, report.to_dict()


# -- the gate --------------------------------------------------------------


def closed_form_errors(mods: dict, workload: str, params: dict, d: dict,
                       quiver) -> list:
    """Mismatches between a report dict and the family's closed forms."""
    hh1, rad = d["hh1"]["dim"], d["hh1_rad"]["dim"]
    n = params["n"]
    errors = []
    if workload == "radsq_cycles":
        # Cibils 1998: sum of |parallel class|^2 - |Q0| + 1 = 4n - n + 1.
        if hh1 != 3 * n + 1 or rad != 3 * n + 1:
            errors.append(f"HH1 {hh1}, HH1_rad {rad}, expected {3 * n + 1}")
        if d["m"] != n:
            errors.append(f"m = {d['m']}, expected {n}")
    elif workload == "hereditary_paths":
        from_formula = mods["quiver"].hereditary_hh1_dim(quiver)
        if hh1 != from_formula:
            errors.append(f"HH1 {hh1}, Happel's formula gives {from_formula}")
    else:
        p = params["p"]
        want = n if n % p == 0 else n - 1
        if hh1 != want or rad != n - 1:
            errors.append(f"HH1 {hh1}, HH1_rad {rad}, expected {want} and {n - 1}")
        orders = list(d["loop_criterion"]["orders"].values())
        if orders != [n]:
            errors.append(f"loop orders {orders}, expected [{n}]")
    return errors


def gate(mods: dict, workload: str, case: Case, out, full: bool, first: bool) -> list:
    """Every reason the case's output is wrong; empty when it is right.

    A ``full`` check adds the oracle on small algebras and, for the
    workload's ``first`` case, a run through the CLI, which must print the
    library's report.  The program is deterministic, so a run makes them
    on its first pass (and on every traced pass, so that traced passes
    stay alike) and the cheap checks on every pass.
    """
    if case.path is not None:
        rc, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        return [] if text == case.expected else ["output differs from the frozen JSON"]
    p, report, d = out
    errors = []
    if mods["dsl"].render_presentation(p) != case.text:
        errors.append("presentation does not round-trip through the DSL")
    errors += closed_form_errors(mods, workload, case.params, d, p.quiver)
    if full and report.table.dim <= ORACLE_MAX_DIM:
        brute = mods["oracle"].bar_hh1_dim(report.table)
        if brute != d["hh1"]["dim"]:
            errors.append(f"oracle gives {brute}, report {d['hh1']['dim']}")
    if full and first:
        buf = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(case.text)
        try:
            with contextlib.redirect_stdout(buf):
                rc = mods["cli"].main(["analyze", "-", "--json"])
        finally:
            sys.stdin = stdin
        if rc != 0 or buf.getvalue() != json.dumps(d, indent=2, sort_keys=True) + "\n":
            errors.append("the CLI does not print the library's report")
    return errors
