"""Seeded fuzz of the console script: ``python tests/fuzz_console.py [N]``.

Renders N fixed draws (derandomized hypothesis) of ``test_dsl.presentations``
as DSL files and runs ``quiverhh analyze`` from PATH on each, under a 1 GB
address-space limit (as ``ulimit -v 1000000``) and a 20 s timeout.  Every
run must exit 0, 2 or 3 with at most one line on stderr and no traceback,
and a refusal by a rule of a relation must name the relation's line.  Exits
1 and lists the cases that fail.  Not collected by pytest: it starts a
process per case.
"""

import collections
import pathlib
import re
import resource
import subprocess
import sys
import tempfile

from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from test_dsl import presentations  # noqa: E402

from quiverhh.dsl import render_presentation  # noqa: E402

LIMIT = 1_000_000 * 1024  # bytes, as ulimit -v 1000000
TIMEOUT = 20  # seconds per case
RELATION_RULES = ("empty relation", "relation uses undeclared arrow", "has length < 2",
                  "is not composable", "relation terms are not parallel",
                  "relation cancels to zero", "vanishes mod")


def draws(n: int) -> list:
    """The n presentations hypothesis draws with derandomize=True: the same
    on every run with one hypothesis version."""
    out = []

    @settings(max_examples=n, derandomize=True, database=None, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(presentations())
    def collect(p):
        out.append(p)
    collect()
    return out


def check(path: pathlib.Path) -> tuple:
    """(outcome, why the run on path fails or None); the outcome is the exit
    code and the stderr line without its line number."""
    try:
        run = subprocess.run(
            ["quiverhh", "analyze", str(path)], capture_output=True, text=True,
            timeout=TIMEOUT,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)))
    except subprocess.TimeoutExpired:
        return "timeout", f"no exit within {TIMEOUT} s"
    err = run.stderr
    outcome = f"exit {run.returncode} " + re.sub(r"line \d+(, col \d+)?: ", "", err.strip())
    if run.returncode not in (0, 2, 3):
        return outcome, f"exit {run.returncode}: {err[-300:]!r}"
    if len(err.splitlines()) > 1 or "Traceback" in err:
        return outcome, f"more than one stderr line: {err[-300:]!r}"
    if any(rule in err for rule in RELATION_RULES) and not re.match(r"error: line \d+: ", err):
        return outcome, f"a relation refusal without its line: {err!r}"
    return outcome, None


def main(n: int) -> int:
    outcomes, failures = collections.Counter(), []
    with tempfile.TemporaryDirectory() as tmp:
        for i, p in enumerate(draws(n)):
            path = pathlib.Path(tmp, f"case{i:03}.dsl")
            path.write_text(render_presentation(p))
            outcome, why = check(path)
            outcomes[outcome] += 1
            if why is not None:
                failures.append(f"{path.name}: {why}\n{path.read_text()}")
    for outcome, count in sorted(outcomes.items()):
        print(f"{count:4} {outcome}")
    print(f"{sum(outcomes.values())} cases, {len(failures)} failed")
    print("\n".join(failures), end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
