"""The names that ``perfbench/tracing.py`` patches must keep existing.

The tracer wraps package attributes by name, placeholders kept only for it
included; deleting one breaks every traced benchmark run.
"""

from pathlib import Path

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
