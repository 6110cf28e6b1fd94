import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_the_package(monkeypatch):
    # the benchmark's --trace pass wraps each (module, attr) in TRACED, so a
    # renamed or deleted function breaks it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look the module up
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        module = importlib.import_module(f"consensuskit.{module_name}")
        assert callable(getattr(module, attr, None)), f"consensuskit.{module_name}.{attr}"
