"""HiMA architecture configuration and prototype presets.

The three named prototypes of the paper's evaluation:

* **HiMA-baseline** — H-tree NoC (as MANNA), centralized usage sort at
  the CT, row-wise linkage partition.
* **HiMA-DNC** — all architectural features: multi-mode HiMA-NoC,
  two-stage usage sort, optimal submatrix-wise linkage partition.
* **HiMA-DNC-D** — HiMA-DNC plus the distributed DNC-D model (optionally
  with usage skimming and the approximate softmax).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.utils.validation import (
    DTYPE_CHOICES,
    check_in,
    check_probability,
    check_positive,
)

_NOC_CHOICES = ("hima", "htree", "bintree", "mesh", "star", "ring")


@dataclass(frozen=True)
class HiMAConfig:
    """Full architecture + workload configuration.

    Defaults follow the paper's prototypes: ``N x W = 1024 x 64``, ``R=4``
    read heads, ``Nt=16`` PTs, 500 MHz, 32-bit datapath.
    """

    memory_size: int = 1024
    word_size: int = 64
    num_reads: int = 4
    num_tiles: int = 16
    hidden_size: int = 256

    # Architectural features (Figure 11(a) ladder).
    noc: str = "hima"
    two_stage_sort: bool = True
    submatrix_partition: bool = True

    # Algorithmic features (Section 5).
    distributed: bool = False
    skim_fraction: float = 0.0
    approx_softmax: bool = False

    #: Memory-access policy (see :mod:`repro.core.access`).  ``"dense"``
    #: is the verbatim paper path; ``"sparse"`` is Rae-style top-K
    #: content addressing with K-row sparse write/linkage updates and
    #: truncated read weightings — O(K·N) per step instead of O(N^2).
    #: Sparse access generalizes the ``skim_fraction`` argpartition idiom
    #: to every N-scaling phase, so the two are mutually exclusive; it
    #: owns the allocation order directly (argpartition + stable
    #: tie-break), bypassing the two-stage sorter, and is not available
    #: for the distributed (DNC-D) model whose state is view-sharded.
    access_policy: str = "dense"

    #: Rows kept per addressing step under ``access_policy="sparse"``
    #: (the K of top-K).  Must satisfy ``1 <= K <= memory_size``; at
    #: K = N the sparse path matches the dense path to <=1e-10 (bitwise
    #: through the write phase).  Must be 0 (unset) under dense access.
    access_top_k: int = 0

    # Implementation parameters.
    macs_per_cycle: int = 2048  # per-PT M-M engine throughput
    link_words_per_cycle: int = 32  # NoC link width (words/flit)
    clock_hz: float = 500e6
    sequence_length: int = 8  # timesteps per inference "test"
    dtype: str = "float64"  # engine-wide numeric policy (see DTYPE_CHOICES)

    #: Kernel backend for the hot path (see :mod:`repro.core.backend`):
    #: ``"reference"`` is bitwise the ``numpy_ref`` oracle, ``"tuned"``
    #: adds BLAS/fused variants on the same kernels (within
    #: ``VERIFY_TOLERANCES``, faster at large N), or any name added with
    #: ``register_backend``.  The default honours the ``REPRO_BACKEND``
    #: environment variable (CI runs whole suites under the tuned
    #: backend this way); explicit ``backend=`` always wins.
    backend: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", "reference")
    )

    def __post_init__(self):
        check_positive("memory_size", self.memory_size)
        check_positive("word_size", self.word_size)
        check_positive("num_reads", self.num_reads)
        check_positive("num_tiles", self.num_tiles)
        check_in("noc", self.noc, _NOC_CHOICES)
        check_probability("skim_fraction", self.skim_fraction)
        check_in("access_policy", self.access_policy, ("dense", "sparse"))
        if self.access_policy == "sparse":
            if not (1 <= self.access_top_k <= self.memory_size):
                raise ConfigError(
                    f"access_top_k must be in [1, memory_size] under sparse "
                    f"access, got {self.access_top_k} (memory_size="
                    f"{self.memory_size})"
                )
            if self.distributed:
                raise ConfigError(
                    "access_policy='sparse' is incompatible with the "
                    "distributed (DNC-D) model: sparse access runs over "
                    "one memory block, and DNC-D needs one per tile"
                )
            if self.skim_fraction > 0.0:
                raise ConfigError(
                    "access_policy='sparse' subsumes usage skimming; set "
                    "skim_fraction=0.0"
                )
        elif self.access_top_k != 0:
            raise ConfigError(
                f"access_top_k ({self.access_top_k}) requires "
                f"access_policy='sparse'"
            )
        check_positive("macs_per_cycle", self.macs_per_cycle)
        check_positive("link_words_per_cycle", self.link_words_per_cycle)
        check_positive("sequence_length", self.sequence_length)
        check_in("dtype", self.dtype, DTYPE_CHOICES)
        # Deferred import: backend.py imports kernels.py which imports
        # this module; by the time a config is *constructed* all three
        # are fully loaded.
        from repro.core.backend import check_backend_name

        check_backend_name(self.backend)
        if self.memory_size % self.num_tiles != 0:
            raise ConfigError(
                f"memory_size ({self.memory_size}) must be divisible by "
                f"num_tiles ({self.num_tiles})"
            )
        if self.num_tiles & (self.num_tiles - 1):
            raise ConfigError(
                f"num_tiles must be a power of two, got {self.num_tiles}"
            )

    # ------------------------------------------------------------------
    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype every engine state/weight buffer uses."""
        return np.dtype(self.dtype)

    @property
    def masked_dense_min_occupancy(self) -> float:
        """Occupancy fraction from which a masked step runs in place.

        In place, a masked :meth:`~repro.core.engine.TiledEngine.step`
        runs the per-row kernels over the whole resident batch and the
        O(N^2) write phase advances the active slots where they live;
        the compact form gathers the active rows, steps them out of
        place and scatters them back.  ``0.0`` (in place at any
        occupancy) under sparse access and from
        :data:`repro.core.kernels.MIN_BLOCKED_N` rows, DNC and DNC-D
        alike; ``1.0`` (in place at full occupancy only) below that
        size, where copying the small N^2 fields costs less than running
        every per-row kernel over the whole capacity.  Derived, not
        settable: the engine reads it once at construction.
        """
        from repro.core.kernels import MIN_BLOCKED_N

        if self.access_policy == "sparse" or self.memory_size >= MIN_BLOCKED_N:
            return 0.0
        return 1.0

    @property
    def local_rows(self) -> int:
        """External-memory rows per PT (row-wise partition)."""
        return self.memory_size // self.num_tiles

    @property
    def linkage_partition(self) -> Tuple[int, int]:
        """Linkage submatrix grid ``(Nt_h, Nt_w)``.

        Submatrix-wise: the Eq. (3) optimum (near-square, e.g. 4x4 at
        ``Nt=16``); otherwise row-wise ``(Nt, 1)``.
        """
        if not self.submatrix_partition:
            return (self.num_tiles, 1)
        from repro.core.partition import optimal_linkage_partition

        return optimal_linkage_partition(self.memory_size, self.num_tiles)

    @property
    def effective_sort_length(self) -> int:
        """Usage entries entering the sorter after skimming."""
        skimmed = int(math.floor(self.skim_fraction * self.memory_size))
        return self.memory_size - (skimmed if skimmed > 1 else 0)

    # ------------------------------------------------------------------
    # Prototype presets
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, **overrides) -> "HiMAConfig":
        """HiMA-baseline: H-tree NoC, centralized sort, row-wise linkage."""
        base = dict(
            noc="htree", two_stage_sort=False, submatrix_partition=False,
            distributed=False,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def hima_dnc(cls, **overrides) -> "HiMAConfig":
        """HiMA-DNC: all architectural features."""
        return cls(**overrides)

    @classmethod
    def hima_dncd(cls, skim_fraction: float = 0.0, **overrides) -> "HiMAConfig":
        """HiMA-DNC-D: distributed model (optionally skimming/approx)."""
        base = dict(distributed=True, skim_fraction=skim_fraction)
        base.update(overrides)
        return cls(**base)

    def with_features(self, **changes) -> "HiMAConfig":
        """Functional update (frozen dataclass helper)."""
        return replace(self, **changes)


__all__ = ["HiMAConfig", "DTYPE_CHOICES"]
