"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.dnc.model import DNC, DNCConfig


def pytest_addoption(parser):
    # pyproject.toml sets ``timeout`` for pytest-timeout.  Where the
    # plugin is not installed the key would be unknown; registering it
    # (inert) keeps the run free of PytestConfigWarning, so CI can turn
    # that warning into an error and catch a misspelt ini key.
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini(
            "timeout",
            "per-test timeout in seconds (inert: pytest-timeout is not installed)",
        )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dnc_config():
    """A DNC small enough for gradient checks and fast training."""
    return DNCConfig(
        input_size=5, output_size=3, memory_size=8, word_size=4,
        num_reads=2, hidden_size=12,
    )


@pytest.fixture
def small_dnc(small_dnc_config):
    return DNC(small_dnc_config, rng=0)


@pytest.fixture
def small_hima_config():
    """A HiMA config small enough for fast engine/perf tests."""
    return HiMAConfig(
        memory_size=64, word_size=16, num_reads=2, num_tiles=4,
        hidden_size=32, sequence_length=4,
    )
