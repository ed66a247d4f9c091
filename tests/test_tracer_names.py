"""The benchmark tracer wraps epflab functions by name; every name it
lists must still exist, or only a traced benchmark run would notice."""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

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


def test_tracer_counts_eigensolver_calls_per_sdp_evaluation():
    # The per-layer numerics.eig_sym metrics read these counts: one PSD
    # distance per linear F on toy-sdp-1, two per in-domain c1-sdp F.
    tracer_module = _load_tracer()
    for name in {name.split(".")[0] for names in tracer_module.LAYERS.values() for name in names}:
        importlib.import_module(f"epflab.{name}")
    from epflab.harness import make_penalty
    from epflab.problems import get_problem

    problem = get_problem("toy-sdp-1")
    x = np.array([0.4, 0.9])
    for kind, expected in (("c1-sdp", 2), ("linear", 1)):
        penalty = make_penalty(problem, kind)
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            assert math.isfinite(penalty(x, 2.0)), kind
        finally:
            tracer.uninstall()
        tracer.end_task()
        assert tracer.layer("numerics.eig_sym", "calls") == expected, kind
        assert tracer.layer("harness.F", "calls") == 1, kind
