"""The names that ``perfbench/tracing.py`` patches must keep existing.

The tracer wraps package attributes by name, placeholders kept only for it
included, and reads some of their arguments by position; deleting a name or
moving such an argument breaks every traced benchmark run.
"""

from pathlib import Path

import numpy as np

import tdqho.pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    undo = Tracer().patch()
    try:
        patched = {attr for _, attr, _ in undo}
        assert {"integrate_adaptive", "solve_beta", "solve_ermakov", "__call__"} <= patched
        for owner, attr, original in undo:
            assert vars(owner)[attr] is not original, attr
    finally:
        Tracer.unpatch(undo)
    for owner, attr, original in undo:
        # the tracer's wrappers set __wrapped__; package code does not
        assert not hasattr(original, "__wrapped__"), attr
        assert vars(owner)[attr] is original, attr


def test_tracer_counts_query_times_at_argument_3(monkeypatch):
    # the tracer counts pipeline.coefficients_points from args[3] of
    # pipeline.coefficients, which coefficients_at must reach by module name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    params = tdqho.QuadraticParams.from_dict({"m": 1.0, "omega": 1.0, "horizon": 4.0})
    tracer = Tracer()
    undo = tracer.patch()
    try:
        tracer.enabled = True
        sol = tdqho.pipeline.solve(params, n_samples=50)
        sol.coefficients_at(np.linspace(0.0, 4.0, 256))
        tracer.enabled = False
        metrics, spans = tracer.layer_metrics()
    finally:
        Tracer.unpatch(undo)
    assert metrics["pipeline.coefficients_points"] == 256
    assert spans["pipeline.solve"]["spans"] == 1
