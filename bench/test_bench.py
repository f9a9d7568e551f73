"""Tests of the benchmark itself: generators, gate, tracer and result line.

    python -m pytest -q bench
"""

import contextlib
import gc
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GENERATED = ("radsq_cycles", "hereditary_paths", "truncated_loops_fp")


@pytest.fixture(scope="module")
def mods():
    return run.import_quiverhh(run.ROOT)


def small_case(workload, params, seed=0):
    name = f"{workload}_{'_'.join(map(str, params.values()))}"
    return workloads.Case(name, workloads.generate(workload, params, seed), params)


@pytest.mark.parametrize("workload", GENERATED)
def test_generators_round_trip_and_follow_the_seed(mods, workload):
    dsl = mods["dsl"]
    for name, params in workloads.generated_specs(workload):
        texts = {seed: workloads.generate(workload, params, seed) for seed in (0, 1, 2)}
        assert workloads.generate(workload, params, 1) == texts[1]
        if workload != "truncated_loops_fp":  # one vertex, one arrow: only names change
            assert len(set(texts.values())) == 3, name
        for text in texts.values():
            assert dsl.render_presentation(dsl.parse_presentation(text)) == text


@pytest.mark.parametrize("seed", (0, 5))
def test_generators_produce_the_closed_form_sizes(mods, seed):
    build = mods["algebra"].build_algebra
    parse = mods["dsl"].parse_presentation
    for n in (3, 4, 6):
        p = parse(workloads.generate("radsq_cycles", {"n": n}, seed))
        assert (len(p.quiver.vertices), len(p.quiver.arrows), len(p.relations)) \
            == (n, 2 * n, 4 * n)
        assert build(p).dim == 3 * n
    for n in (3, 5, 8):
        p = parse(workloads.generate("hereditary_paths", {"n": n}, seed))
        assert mods["quiver"].hereditary_hh1_dim(p.quiver) == 3
        # n trivial paths, 2 paths 0 -> j and 1 path i -> j (1 <= i < j)
        assert build(p).dim == n + 2 * (n - 1) + (n - 1) * (n - 2) // 2
    for n, p_ in ((10, 5), (10, 7)):
        p = parse(workloads.generate("truncated_loops_fp", {"n": n, "p": p_}, seed))
        assert build(p).dim == n and p.field.characteristic == p_


@pytest.mark.parametrize("workload,params", [
    ("radsq_cycles", {"n": 3}),
    ("hereditary_paths", {"n": 4}),
    ("truncated_loops_fp", {"n": 6, "p": 3}),
    ("truncated_loops_fp", {"n": 6, "p": 5}),
])
def test_gate_passes_correct_reports_and_catches_wrong_ones(mods, workload, params):
    case = small_case(workload, params)
    out = workloads.run_case(mods, case)
    assert workloads.gate(mods, workload, case, out, True, True) == []
    p, report, d = out
    d["hh1"]["dim"] += 1
    assert workloads.closed_form_errors(mods, workload, params, d, p.quiver)


def test_corpus_gate_is_exact(mods):
    case = next(c for c in workloads.make_cases("corpus_cli", 0, run.ROOT)
                if c.name == "kronecker")
    rc, text = workloads.run_case(mods, case)
    assert workloads.gate(mods, "corpus_cli", case, (rc, text), True, True) == []
    assert workloads.gate(mods, "corpus_cli", case, (rc, text + " "), True, True)
    assert workloads.gate(mods, "corpus_cli", case, (2, text), True, True)


def traced_run(mods, case, workload):
    return run.measure(mods, workload, [case], 0, trace=True, largest=case.name)


def test_traced_sizes_equal_the_report(mods):
    case = small_case("radsq_cycles", {"n": 3})
    m, _ = traced_run(mods, case, "radsq_cycles")
    _, report, d = workloads.run_case(mods, case)
    for layer in m.layers:
        assert layer["algebra.dim"] == d["algebra"]["dim"] == 9
        assert layer["algebra.loewy_length"] == len(d["algebra"]["rad_dims"]) - 1
        assert layer["derlie.der_dim"] == d["hh1"]["der_dim"]
        assert layer["derlie.inn_dim"] == d["hh1"]["inn_dim"]
        assert layer["derlie.hh1_dim"] == d["hh1"]["dim"] == 10
        assert layer["derlie.slots"] == report.hh1.layout.size
        assert layer["derlie.hh1_calls"] == 2 + 2  # the case, then its CLI check
        assert layer["kron.chains"] == 2 * 3


def test_traced_counts_repeat_exactly(mods):
    case = small_case("truncated_loops_fp", {"n": 6, "p": 3})
    counted = list(spans.CALLS) + list(spans.SIZES)
    runs = [traced_run(mods, case, "truncated_loops_fp")[0] for _ in range(2)]
    per_pass = [{k: layer[k] for k in counted} for m in runs for layer in m.layers]
    assert len(per_pass) == 2 * run.MIN_PASSES
    assert all(p == per_pass[0] for p in per_pass)
    assert per_pass[0]["linal.rref_calls"] > 0 and per_pass[0]["algebra.dim"] == 6


def test_tracer_restores_every_wrapped_name(mods):
    originals = {(path, attr): spans._owner(mods, path).__dict__[attr]
                 for path, attr, _ in spans.SPANNED + spans.COUNTED}
    hh1 = mods["derlie"].hh1
    case = small_case("truncated_loops_fp", {"n": 5, "p": 5})
    _, tracer = traced_run(mods, case, "truncated_loops_fp")
    assert tracer.spans
    assert mods["derlie"].hh1 is hh1
    for (path, attr), original in originals.items():
        assert spans._owner(mods, path).__dict__[attr] is original, (path, attr)


def test_self_time_excludes_children():
    ms = 1_000_000
    recorded = [
        (0, ("analysis.run_analyze", 0, 10 * ms, None, (1, "c"))),
        (1, ("derlie.hh1", 1 * ms, 7 * ms, 0, (1, "c"))),
        (2, ("linal.rref", 2 * ms, 3 * ms, 1, (1, "c"))),
        (3, ("linal.rref", 8 * ms, 9 * ms, 0, (1, "c"))),
    ]
    out = spans.layer_totals(recorded, spans.Counter())
    assert out["analysis.run_analyze_self_s"] == pytest.approx(0.003)
    assert out["derlie.hh1_s"] == pytest.approx(0.006)
    assert out["linal.rref_s"] == pytest.approx(0.002)


def test_reference_factor_scales_to_the_nominal_time():
    reference = run.Reference()
    factor = reference.factor()
    assert factor == pytest.approx(run.REFERENCE_S / reference.measured[-1])
    assert reference.measured[-1] > 0
    assert gc.isenabled()


@pytest.mark.parametrize("trace", ("0", "1"))
def test_result_line(trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", "corpus_cli", "--seed", "3", "--seconds", "1",
                       "--trace", trace])
    result = json.loads(buf.getvalue().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 15 * run.MIN_PASSES * (1 + int(trace))
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "radsq_cycles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
