"""Experiment registry and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.utils.formatting import format_table


@dataclass
class ExperimentResult:
    """One reproduced table/figure.

    ``headers``/``rows`` hold the tabular data; ``notes`` records
    paper-vs-measured commentary that EXPERIMENTS.md consumes.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        text = format_table(
            self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}"
        )
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text


#: Registry of experiment runners keyed by experiment id.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator registering a runner under ``experiment_id``."""

    def wrap(fn):
        EXPERIMENTS[experiment_id] = fn
        return fn

    return wrap


__all__ = ["ExperimentResult", "EXPERIMENTS", "register"]
