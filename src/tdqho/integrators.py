"""Placeholders for two names that ``perfbench/tracing.py`` patches.

The pipeline solves its auxiliary systems with Magnus steps and no longer
uses a Runge-Kutta driver. These names stay only so that the tracer's
patches resolve, until the tracer reads a run record instead (ROADMAP item
5). Neither does anything.
"""


class DenseOutput:
    def __call__(self, t):
        raise NotImplementedError("tdqho has no Runge-Kutta dense output")


def integrate_adaptive(*args, **kwargs):
    raise NotImplementedError("tdqho has no Runge-Kutta integrator")
