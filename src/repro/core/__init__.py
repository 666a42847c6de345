"""HiMA core: the paper's primary contribution.

* :mod:`repro.core.config` — architecture configuration and the three
  prototype presets (HiMA-baseline, HiMA-DNC, HiMA-DNC-D),
* :mod:`repro.core.kernels` — the Table 1 kernel registry,
* :mod:`repro.core.backend` — pluggable kernel backends for the hot
  path (reference / tuned),
* :mod:`repro.core.partition` — submatrix-wise partition traffic models
  (Eqs. 1-3) and optimizers,
* :mod:`repro.core.mapping` — memory-to-tile placement,
* :mod:`repro.core.engine` — functional tiled execution with traffic
  accounting (validated against the monolithic reference DNC),
* :mod:`repro.core.perf_model` — the cycle-level performance model,
* :mod:`repro.core.baselines` — Farm / MANNA / GPU / CPU reference models,
* :mod:`repro.core.metrics` — throughput, area- and energy-efficiency.
"""

from repro.core.config import HiMAConfig
from repro.core.backend import (
    KernelBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.core.kernels import KERNEL_REGISTRY, KernelSpec, table1_rows
from repro.core.partition import (
    Partition,
    content_weighting_traffic,
    memory_read_traffic,
    forward_backward_traffic,
    linkage_distribution_traffic,
    factor_pairs,
    optimal_external_partition,
    optimal_linkage_partition,
)
from repro.core.mapping import MemoryMap
from repro.core.engine import TiledEngine, TrafficLog
from repro.core.perf_model import HiMAPerformanceModel, KernelCycles
from repro.core.baselines import BASELINES, BaselineSpec, gpu_reference, cpu_reference
from repro.core.metrics import EfficiencyMetrics, compare_designs

__all__ = [
    "HiMAConfig",
    "KernelBackend",
    "available_backends",
    "make_backend",
    "register_backend",
    "KERNEL_REGISTRY",
    "KernelSpec",
    "table1_rows",
    "Partition",
    "content_weighting_traffic",
    "memory_read_traffic",
    "forward_backward_traffic",
    "linkage_distribution_traffic",
    "factor_pairs",
    "optimal_external_partition",
    "optimal_linkage_partition",
    "MemoryMap",
    "TiledEngine",
    "TrafficLog",
    "HiMAPerformanceModel",
    "KernelCycles",
    "BASELINES",
    "BaselineSpec",
    "gpu_reference",
    "cpu_reference",
    "EfficiencyMetrics",
    "compare_designs",
]
