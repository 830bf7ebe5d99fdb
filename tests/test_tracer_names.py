"""The benchmark tracer (perfbench/tracing.py) rebinds holotree functions by
name; a rename inside holotree must fail here, not only in a traced run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # standard library imports only
    assert tracing.TRACED
    missing = [
        f"holotree.{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"holotree.{layer}"), name, None))
    ]
    assert missing == []
