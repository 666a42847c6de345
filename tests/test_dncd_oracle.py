"""DNC-D against its independent per-tile oracle (paper Section 5.1).

The oracle, :func:`repro.dnc.dncd_ref.dncd_step`, steps every tile's
complete soft write and read on its own ``n = N / Nt`` rows with a Python
loop over tiles, from the :mod:`repro.dnc.numpy_ref` kernels and the
engine's controller, output layer and weights; it shares no code with
the engine's block-axis memory step.

The engine is pinned against it to 1e-10 (float64) in every step form:
solo ``run``, ``run_batch`` and masked partial ticks on a resident
state, below and from ``MIN_BLOCKED_N`` rows (compact and in place).
"""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.core.kernels import MIN_BLOCKED_N
from repro.dnc.dncd_ref import dncd_step
from repro.dnc.numpy_ref import NumpyDNCState

TOL = 1e-10
STEPS = 16


def max_state_error(a, b):
    return max(
        float(np.max(np.abs(getattr(a, name) - getattr(b, name))))
        for name in NumpyDNCState.FIELDS
    )


CONFIGS = [
    pytest.param(64, 4, 0.0, False, id="n64-nt4"),
    pytest.param(64, 4, 0.2, True, id="n64-nt4-skim-approx"),
    pytest.param(256, 16, 0.0, False, id="n256-nt16"),
    pytest.param(256, 16, 0.2, True, id="n256-nt16-skim-approx"),
]


def make_engine(memory_size, num_tiles, skim, approx):
    return TiledEngine(HiMAConfig.hima_dncd(
        memory_size=memory_size, num_tiles=num_tiles, word_size=16,
        num_reads=2, hidden_size=32, skim_fraction=skim,
        approx_softmax=approx, dtype="float64",
    ), rng=0)


@pytest.mark.parametrize("memory_size, num_tiles, skim, approx", CONFIGS)
def test_solo_run_matches_oracle(memory_size, num_tiles, skim, approx):
    engine = make_engine(memory_size, num_tiles, skim, approx)
    inputs = np.random.default_rng(1).standard_normal((STEPS, 16))
    ys = engine.run(inputs)
    state = engine.initial_state()
    for t in range(STEPS):
        y, state = dncd_step(engine, inputs[t], state)
        assert float(np.max(np.abs(ys[t] - y))) <= TOL


@pytest.mark.parametrize("memory_size, num_tiles, skim, approx", CONFIGS)
def test_run_batch_matches_oracle(memory_size, num_tiles, skim, approx):
    engine = make_engine(memory_size, num_tiles, skim, approx)
    inputs = np.random.default_rng(2).standard_normal((STEPS, 4, 16))
    ys = engine.run_batch(inputs)
    state = engine.initial_state(batch_size=4)
    for t in range(STEPS):
        y, state = dncd_step(engine, inputs[t], state)
        assert float(np.max(np.abs(ys[t] - y))) <= TOL


@pytest.mark.parametrize("memory_size, num_tiles, skim, approx", [
    pytest.param(64, 4, 0.2, True, id="compact-n64"),
    pytest.param(MIN_BLOCKED_N, 8, 0.0, False, id="in-place-n128"),
    pytest.param(256, 16, 0.2, True, id="in-place-n256-skim-approx"),
])
def test_masked_partial_ticks_match_oracle(memory_size, num_tiles, skim, approx):
    """Only the active slots advance, each as the oracle steps it."""
    engine = make_engine(memory_size, num_tiles, skim, approx)
    rng = np.random.default_rng(3)
    capacity = 6
    state = engine.initial_state(batch_size=capacity)
    expected = engine.initial_state(batch_size=capacity)
    masks = [
        np.arange(capacity), np.array([4, 1, 3]), np.array([0]),
        np.array([5, 0, 2, 1, 4, 3]), np.array([True, False] * 3),
        np.array([2, 3, 4, 5]),
    ]
    for tick in range(STEPS):
        active = masks[tick % len(masks)]
        idx = np.flatnonzero(active) if active.dtype == bool else active
        x = rng.standard_normal((capacity, 16))
        y, state = engine.step(x, state, active=active)
        y_sub, sub = dncd_step(engine, x[idx], expected.take_rows(idx))
        expected.write_rows(idx, sub)
        assert float(np.max(np.abs(y[idx] - y_sub))) <= TOL
        inactive = np.setdiff1d(np.arange(capacity), idx)
        assert not y[inactive].any()
        assert max_state_error(state, expected) <= TOL
