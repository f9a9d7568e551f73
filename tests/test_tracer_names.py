"""The benchmark's tracer wraps names by looking them up in their owners'
own ``__dict__``; a refactor that moves or renames one breaks the traced
benchmark run with a KeyError while every other test stays green."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    spans = load_spans()
    entries = spans.SPANNED + spans.COUNTED
    mods = {path.partition(".")[0]: importlib.import_module(
                f"quiverhh.{path.partition('.')[0]}") for path, _, _ in entries}
    missing = [(path, attr) for path, attr, _ in entries
               if attr not in vars(spans._owner(mods, path))]
    assert missing == []
