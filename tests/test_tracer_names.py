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


def _sdp3():
    """min ||x - (1, 1)||^2 s.t. G(x) <= 0 of order 3, with off-diagonal
    entries, so every PSD distance takes LAPACK's eigensolver."""
    from epflab.problems import affine_problem

    g0 = np.array([[-0.5, 0.1, 0.0], [0.1, -0.5, 0.2], [0.0, 0.2, -1.0]])
    g1 = np.array([[1.0, 0.0, 0.25], [0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
    g2 = np.diag([0.0, -1.0, 0.5])
    return affine_problem("sdp3", [-3.0, -3.0], [3.0, 3.0], penalties=("linear", "c1-sdp"),
                          weight=1.0, center=[1.0, 1.0], sdp=(g0, [g1, g2]), certificate=None)


def test_tracer_counts_eigensolver_calls_per_sdp_evaluation():
    # The per-layer numerics.eig_sym metrics read these counts: one PSD
    # distance per linear F, two per in-domain c1-sdp F, each a LAPACK
    # eigensolver call from order 3 on.  A 2x2 distance (toy-sdp-1) runs
    # on floats and makes none.
    tracer_module = _load_tracer()
    for name in {name.split(".")[0] for names in tracer_module.LAYERS.values() for name in names}:
        importlib.import_module(f"epflab.{name}")
    from epflab.harness import make_penalty
    from epflab.problems import get_problem

    x = np.array([0.4, 0.9])
    for problem, per_kind in ((get_problem("toy-sdp-1"), (("c1-sdp", 0), ("linear", 0))),
                              (_sdp3(), (("c1-sdp", 2), ("linear", 1)))):
        for kind, expected in per_kind:
            penalty = make_penalty(problem, kind)
            tracer = tracer_module.Tracer()
            tracer.install()
            try:
                assert math.isfinite(penalty(x, 2.0)), (problem.name, kind)
            finally:
                tracer.uninstall()
            tracer.end_task()
            assert tracer.layer("numerics.eig_sym", "calls") == expected, (problem.name, kind)
            assert tracer.layer("harness.F", "calls") == 1, (problem.name, kind)


def test_tracer_counts_one_cholesky_solve_per_c1_state():
    # The per-layer numerics.chol_solve metrics read these counts: the
    # multiplier estimate of an in-domain C1 F is one solve, and an F
    # outside the barrier domain makes none.
    tracer_module = _load_tracer()
    for name in {name.split(".")[0] for names in tracer_module.LAYERS.values() for name in names}:
        importlib.import_module(f"epflab.{name}")
    from epflab.harness import make_penalty
    from epflab.problems import get_problem

    for name, kind, point, expected in (("toy-socp-1", "c1-socp", [0.9, 1.1], 1),
                                        ("toy-sdp-1", "c1-sdp", [0.4, 0.9], 1),
                                        ("toy-socp-1", "c1-socp", [-3.0, -3.0], 0),
                                        ("toy-sdp-1", "c1-sdp", [-3.0, -3.0], 0)):
        penalty = make_penalty(get_problem(name), kind)
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            value = penalty(np.array(point), 2.0)
        finally:
            tracer.uninstall()
        tracer.end_task()
        assert math.isfinite(value) == (expected == 1), (name, point)
        assert tracer.layer("numerics.chol_solve", "calls") == expected, (name, point)
        assert tracer.layer("harness.F", "calls") == 1, (name, point)
