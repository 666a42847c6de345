"""Small argument-validation helpers raising :class:`repro.errors.ConfigError`."""

from __future__ import annotations

from typing import Iterable

from repro.errors import ConfigError

#: Engine-wide numeric dtype policy choices (single source of truth for
#: HiMAConfig, NumpyDNCConfig, and the bench schema).  ``float64`` is the
#: exact reference mode; ``float32`` halves state-memory bandwidth at
#: reduced precision.  Lives here so config (core) and the reference
#: model (dnc) can share it without a cross-layer import.
DTYPE_CHOICES = ("float64", "float32")


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Require ``value`` to be a positive power of two."""
    if value < 1 or (value & (value - 1)) != 0:
        raise ConfigError(f"{name} must be a power of two, got {value!r}")


def check_in(name: str, value: object, allowed: Iterable) -> None:
    """Require ``value`` to be one of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
