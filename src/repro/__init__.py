"""HiMA reproduction: a history-based memory access engine for the DNC.

Full Python reproduction of *HiMA: A Fast and Scalable History-based
Memory Access Engine for Differentiable Neural Computer* (Tao & Zhang,
MICRO 2021), including:

* a trainable DNC / DNC-D model stack on a from-scratch autodiff engine
  (:mod:`repro.autodiff`, :mod:`repro.nn`, :mod:`repro.dnc`),
* synthetic workloads standing in for bAbI (:mod:`repro.tasks`),
* a cycle-level NoC simulator with all compared topologies
  (:mod:`repro.noc`),
* hardware component models — sorters, compute fabric, calibrated 40 nm
  area/power libraries (:mod:`repro.hw`),
* the HiMA engine itself: partition optimizer, tiled functional execution
  with traffic accounting, and the end-to-end performance model
  (:mod:`repro.core`),
* experiment runners regenerating every table and figure of the paper's
  evaluation (:mod:`repro.eval`).

Quickstart::

    from repro.core import HiMAConfig, HiMAPerformanceModel
    model = HiMAPerformanceModel(HiMAConfig.hima_dnc())
    print(model.inference_time_us(), "us per test")
"""

from repro.core.config import HiMAConfig
from repro.core.perf_model import HiMAPerformanceModel
from repro.core.engine import TiledEngine
from repro.dnc import DNC, DNCConfig, DNCD, DNCDConfig
from repro.dnc.numpy_ref import NumpyDNC, NumpyDNCConfig
from repro.hw.area_model import AreaModel
from repro.hw.power_model import PowerModel
from repro.serve import (
    MicroBatcher,
    ServerMetrics,
    SessionServer,
    SessionStore,
)

__version__ = "1.2.0"

__all__ = [
    "HiMAConfig",
    "HiMAPerformanceModel",
    "TiledEngine",
    "DNC",
    "DNCConfig",
    "DNCD",
    "DNCDConfig",
    "NumpyDNC",
    "NumpyDNCConfig",
    "MicroBatcher",
    "ServerMetrics",
    "SessionServer",
    "SessionStore",
    "AreaModel",
    "PowerModel",
    "__version__",
]
