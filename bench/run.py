"""Benchmark of ``quiverhh analyze`` on four workloads.

    python3 bench/run.py --workload radsq_cycles --seed 1 --seconds 30 --trace 0

One process, one thread.  The run sets up (imports ``quiverhh`` from
``src/``, generates the inputs from the seed and parses them once) several
times and keeps the median, then repeats passes over the workload's cases
until ``--seconds`` have gone.  Each case is timed from presentation text
to report dict and then checked by the gate in ``workloads.py`` outside
the timed region; a case that fails records no timing.

The host is shared and its speed drifts by tens of percent over minutes,
in process CPU time as well as wall time.  So the run times a fixed
reference loop (``reference_s``, plain Python that calls nothing of
``quiverhh``) before and after each set-up and each pass, and reports the
end-to-end times in reference seconds: wall seconds times
``REFERENCE_S`` over the mean of the two reference timings around them.
That is the time the work would take on a host that runs the reference
loop in ``REFERENCE_S`` seconds.  The raw wall medians and the measured
reference go to stderr.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate and the metrics are per layer (see ``spans.py``); the spans are
written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = ("dsl", "algebra", "linal", "derlie", "kron", "quiver", "oracle",
          "analysis", "cli")
SETUP_REPEATS = 9
MIN_PASSES = 3         # untraced passes; a traced run makes as many traced ones
# Median time of ``reference_s`` on the host of bench/baseline.json
# (Xeon at 2.1 GHz, Python 3.11.7); fixed, so that reference seconds are
# comparable between runs and commits.
REFERENCE_S = 0.05
REFERENCE_REPS = 3


def _reference_work() -> int:
    """Gauss-Jordan elimination over Q on a fixed 14 x 14 matrix and a
    dict of tuple keys: the kind of work ``quiverhh`` does, in code of
    its own."""
    n = 14
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(n)]
         for i in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    d = {}
    for i in range(60):
        for j in range(60):
            d[(i, j)] = (i * j + d.get((j, i), 0)) % 97
    return rank + sum(d.values())


def reference_s() -> float:
    """Wall seconds of ``REFERENCE_REPS`` runs of the reference loop, with
    the garbage collector off so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REFERENCE_REPS):
            _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Reference:
    """Reference timings around consecutive measured intervals: the one
    after an interval is also the one before the next."""

    def __init__(self):
        reference_s()                       # warm-up
        self.before = reference_s()
        self.measured = []                  # mean reference time per interval

    def factor(self) -> float:
        """Reference seconds per wall second over the interval since the
        last call."""
        after = reference_s()
        self.measured.append((self.before + after) / 2)
        self.before = after
        return REFERENCE_S / self.measured[-1]


def import_quiverhh(root: pathlib.Path) -> dict:
    """Fresh import of every layer, dropping any earlier import first."""
    src = root / "src"
    if not (src / "quiverhh" / "__init__.py").is_file():
        raise ImportError(f"no quiverhh package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "quiverhh" or m.startswith("quiverhh.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"quiverhh.{layer}") for layer in LAYERS}


def setup(workload: str, seed: int, root: pathlib.Path = ROOT):
    """(seconds, layer modules, cases): import, generate and parse once."""
    start = time.perf_counter()
    mods = import_quiverhh(root)
    cases = workloads.make_cases(workload, seed, root)
    for case in cases:
        mods["dsl"].load_presentation(case.text)
    return time.perf_counter() - start, mods, cases


class Measurement:
    """Timings, failures and traced per-pass layer metrics of one run."""

    def __init__(self, largest: str):
        self.largest = largest
        self.attempted = 0
        self.failed = 0
        self.pass_s = {False: [], True: []}   # traced? -> complete pass totals
        self.largest_s = []                   # untraced only
        self.ref_pass_s = []                  # untraced, in reference seconds
        self.ref_largest_s = []
        self.reference_s = None               # median reference timing
        self.layers = []                      # per traced pass: metric -> value

    def record_pass(self, times: dict, ncases: int, traced: bool, factor: float) -> None:
        """``factor`` turns this pass's wall seconds into reference seconds."""
        if len(times) == ncases:
            self.pass_s[traced].append(sum(times.values()))
            if not traced:
                self.ref_pass_s.append(sum(times.values()) * factor)
        if not traced and self.largest in times:
            self.largest_s.append(times[self.largest])
            self.ref_largest_s.append(times[self.largest] * factor)


def run_pass(mods: dict, workload: str, cases: list, full: bool, tracer=None,
             pass_no: int = 0) -> dict:
    """Time every case once; returns case name -> seconds for the ones
    that passed the gate (``full`` as in ``workloads.gate``).  Failures
    are reported on stderr."""
    times = {}
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = (pass_no, case.name)
        start = time.perf_counter()
        try:
            out = workloads.run_case(mods, case)
            elapsed = time.perf_counter() - start
            errors = workloads.gate(mods, workload, case, out, full, first=i == 0)
        except Exception as exc:  # a crashing case is a failed case, not a crashed run
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            print(f"FAIL {workload}/{case.name}: {'; '.join(errors)}", file=sys.stderr)
        else:
            times[case.name] = elapsed
    return times


def measure(mods: dict, workload: str, cases: list, seconds: float, trace: bool,
            largest: str | None = None):
    """Repeat passes for ``seconds``; traced runs alternate untraced and
    traced passes.  Returns (Measurement, Tracer or None)."""
    m = Measurement(largest or workloads.largest_case(workload))
    tracer = spans.Tracer(mods) if trace else None
    reference = Reference()
    start = time.perf_counter()
    last = 0.0
    pass_no = 0
    while pass_no < MIN_PASSES * (2 if trace else 1) or \
            time.perf_counter() - start + last <= seconds:
        traced = trace and pass_no % 2 == 1
        began = time.perf_counter()
        if traced:
            with tracer:
                times = run_pass(mods, workload, cases, True, tracer, pass_no)
            recorded = [(sid, s) for sid, s in enumerate(tracer.spans)
                        if s[4][0] == pass_no]
            counts = sum((c for case, c in tracer.counts.items() if case[0] == pass_no),
                         Counter())
            layer = spans.layer_totals(recorded, counts)
            layer.update(tracer.sizes.get((pass_no, m.largest), {}))
            m.layers.append(layer)
        else:
            times = run_pass(mods, workload, cases, full=pass_no == 0)
        m.attempted += len(cases)
        m.failed += len(cases) - len(times)
        last = time.perf_counter() - began
        m.record_pass(times, len(cases), traced, reference.factor())
        pass_no += 1
    m.reference_s = _median(reference.measured)
    return m, tracer


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(m: Measurement, setup_s: float) -> dict:
    """Times in reference seconds (see the module docstring)."""
    return {
        "pass_s": (_median(m.ref_pass_s), "s"),
        "largest_case_s": (_median(m.ref_largest_s), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(m: Measurement) -> dict:
    out = {}
    for name in (list(spans.TOTAL_TIME) + list(spans.SELF_TIME)):
        out[name] = (_median([layer[name] for layer in m.layers]), "s")
    for name in list(spans.CALLS) + list(spans.SIZES):
        out[name] = (statistics.median_low([layer.get(name, 0) for layer in m.layers]),
                     "count")
    traced, untraced = _median(m.pass_s[True]), _median(m.pass_s[False])
    out["trace.overhead_ratio"] = (traced / untraced if traced and untraced else None,
                                   "ratio")
    out["error_rate"] = (m.failed / m.attempted, "ratio")
    return out


def write_spans(tracer, path: pathlib.Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, start, end, parent, (pass_no, case)) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent, "pass": pass_no,
                                 "case": case}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    reference = Reference()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, mods, cases = setup(args.workload, args.seed)
            setups.append(seconds * reference.factor())
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setups)

    m, tracer = measure(mods, args.workload, cases, args.seconds, bool(args.trace))
    if tracer is not None:
        write_spans(tracer, ROOT / ".bench_out" /
                    f"trace_{args.workload}_seed{args.seed}.jsonl")
        metrics = per_layer_metrics(m)
    else:
        metrics = end_to_end_metrics(m, setup_s)
    print(f"wall medians: pass {_median(m.pass_s[False])} s, largest case "
          f"{_median(m.largest_s)} s; reference loop {m.reference_s} s "
          f"(nominal {REFERENCE_S} s)", file=sys.stderr)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
