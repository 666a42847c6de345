"""Experiment harness: one runner per paper table/figure.

Each module exposes a ``run(...)`` returning an
:class:`~repro.eval.runners.ExperimentResult` whose ``render()`` prints
the same rows/series the paper reports, side by side with the published
values where available.  The ``benchmarks/`` directory wraps these in
pytest-benchmark targets.
"""

from repro.eval.runners import (
    ExperimentResult,
    EXPERIMENTS,
    register,
)
from repro.eval import table1, fig4, fig5, fig6, fig7, fig10, fig11, fig12

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "register",
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
]
