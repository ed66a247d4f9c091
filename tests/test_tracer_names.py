"""The benchmark tracer wraps epflab functions by name; every name it
lists must still exist, or only a traced benchmark run would notice."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_name_existing_functions():
    tracer = _load_tracer()
    names = [name for names in tracer.LAYERS.values() for name in names]
    assert names
    for name in names:
        importlib.import_module(f"epflab.{name.split('.')[0]}")
        _, _, obj = tracer._resolve(name)
        assert callable(obj), name
    assert set(tracer.OBSERVERS) <= set(tracer.LAYERS)
