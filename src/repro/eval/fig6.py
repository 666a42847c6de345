"""Figure 6(c)/(d) — partition choice vs inter-tile traffic.

(c): memory-read kernel traffic (Eq. 2) over the external-memory
partition sweep — row-wise is (near-)optimal, column-wise is
quadratically worse.

(d): forward-backward kernel traffic (Eq. 3) over the linkage partition
sweep — both extremes are suboptimal; the optimum is the near-square grid
(4x4 at Nt=16).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.partition import (
    forward_backward_traffic,
    memory_read_traffic,
    optimal_linkage_partition,
)
from repro.eval.runners import ExperimentResult, register

DEFAULT_TILE_COUNTS = (4, 16, 32, 48, 64)


@register("fig6c")
def run_memory_read(
    memory_size: int = 1024,
    word_size: int = 64,
    tile_counts: Sequence[int] = DEFAULT_TILE_COUNTS,
) -> ExperimentResult:
    """Figure 6(c): memory-read traffic vs external partition."""
    widths = (1, 2, 4, 8, 16, 32)
    rows = []
    for nt in tile_counts:
        cells = []
        baseline = None
        for nt_w in widths:
            if nt % nt_w != 0:
                cells.append("-")
                continue
            nt_h = nt // nt_w
            traffic = memory_read_traffic(memory_size, word_size, nt, nt_h, nt_w)
            if baseline is None:
                baseline = traffic if traffic > 0 else 1.0
            cells.append(f"{traffic / baseline:.2f}x")
        rows.append([f"Nt={nt}"] + cells)
    return ExperimentResult(
        experiment_id="fig6c",
        title="Memory-read kernel traffic vs external-memory partition (Eq. 2)",
        headers=["tiles"] + [f"Nt_w={w}" for w in widths],
        rows=rows,
        notes=[
            "normalized to the row-wise partition (Nt_w=1); paper: keep "
            "Nt_w low — row-wise is advantageous",
        ],
    )


@register("fig6d")
def run_forward_backward(
    tile_counts: Sequence[int] = DEFAULT_TILE_COUNTS,
) -> ExperimentResult:
    """Figure 6(d): forward-backward traffic vs linkage partition."""
    widths = (1, 2, 4, 8, 16, 32, 64)
    rows = []
    optima = []
    for nt in tile_counts:
        cells = []
        best = None
        for nt_w in widths:
            if nt % nt_w != 0 or nt_w > nt:
                cells.append("-")
                continue
            nt_h = nt // nt_w
            traffic = forward_backward_traffic(nt, nt_h, nt_w)
            best = traffic if best is None else min(best, traffic)
            cells.append(f"{traffic:.2f}")
        normalized = [
            c if c == "-" else f"{float(c) / best:.2f}x" for c in cells
        ]
        rows.append([f"Nt={nt}"] + normalized)
        if nt == 16:
            optima.append(optimal_linkage_partition(1024, 16))
    notes = [
        "normalized to each row's optimum; both row-wise (left) and "
        "column-wise (right) extremes are suboptimal",
    ]
    if optima:
        notes.append(
            f"optimizer result at Nt=16: {optima[0][0]}x{optima[0][1]} "
            "(paper: 4x4)"
        )
    return ExperimentResult(
        experiment_id="fig6d",
        title="Forward-backward kernel traffic vs linkage partition (Eq. 3)",
        headers=["tiles"] + [f"Nt_w={w}" for w in widths],
        rows=rows,
        notes=notes,
    )
