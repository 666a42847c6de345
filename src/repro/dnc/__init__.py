"""Differentiable Neural Computer — functional model, distributed variant,
approximations, and the instrumented numpy reference.

Layout
------
* :mod:`repro.dnc.interface` — interface-vector codec (controller <-> memory
  unit, the ``v_i`` / ``v_r`` arrows of the paper's Figure 1/2).
* :mod:`repro.dnc.addressing` — the differentiable DNC kernels (content
  weighting, retention/usage/allocation, linkage/precedence, forward-
  backward), matching the taxonomy of the paper's Table 1.
* :mod:`repro.dnc.memory` — the memory unit: one soft-write + soft-read step.
* :mod:`repro.dnc.model` — the full DNC (LSTM controller + memory unit).
* :mod:`repro.dnc.distributed` — DNC-D (paper Section 5.1): per-tile local
  memory units with a trainable weighted read-vector merge.
* :mod:`repro.dnc.approx` — usage skimming and PLA+LUT softmax approximation
  (paper Section 5.2).
* :mod:`repro.dnc.numpy_ref` — inference-only, instrumented numpy DNC: the
  oracle the engine is checked against and the kernel profiler behind
  Table 1 / Figure 4.
* :mod:`repro.dnc.state` — :class:`~repro.dnc.state.NumpyDNCState`, the
  inference state the oracle, the engine and the serving layer step, and
  its versioned checkpoint format.
* :mod:`repro.dnc.dncd_ref` — the per-tile DNC-D oracle, built from the
  ``numpy_ref`` kernels.
"""

from repro.dnc.interface import Interface, InterfaceSpec
from repro.dnc.memory import MemoryState, MemoryUnit, AddressingOptions
from repro.dnc.model import DNC, DNCConfig
from repro.dnc.distributed import DNCD, DNCDConfig
from repro.dnc.approx import SoftmaxApproximator, skim_usage
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig
from repro.dnc.instrumentation import KernelCategory, KernelRecorder

__all__ = [
    "Interface",
    "InterfaceSpec",
    "MemoryState",
    "MemoryUnit",
    "AddressingOptions",
    "DNC",
    "DNCConfig",
    "DNCD",
    "DNCDConfig",
    "SoftmaxApproximator",
    "skim_usage",
    "NumpyDNC",
    "NumpyDNCConfig",
    "KernelCategory",
    "KernelRecorder",
]
