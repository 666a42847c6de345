"""DNC-D against an independent per-tile oracle (paper Section 5.1).

DNC-D splits memory into ``Nt`` local tiles: every tile runs the complete
soft write and read on its own ``n = N / Nt`` rows, with its own ``n x n``
linkage, and the ``Nt`` read vectors merge at the CT with weight ``1/Nt``.
The oracle below computes exactly that with a Python loop over tiles,
built only from the :mod:`repro.dnc.numpy_ref` kernels (content scores,
retention, usage, the stable or skimmed order, allocation, erase/write,
linkage, precedence, forward/backward, read merge).  It shares nothing
with the engine but the controller, the output layer and the weights.

The engine is pinned against it to 1e-10 (float64) in every step form:
solo ``run``, ``run_batch`` and masked partial ticks on a resident
state, below and from ``MIN_BLOCKED_N`` rows (compact and in place).
"""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine
from repro.core.kernels import MIN_BLOCKED_N
from repro.dnc import numpy_ref as K
from repro.dnc.approx import skimmed_sort_order
from repro.dnc.numpy_ref import NumpyDNCState

TOL = 1e-10
STEPS = 16


def oracle_step(engine, x, state):
    """One DNC-D step, tile by tile; ``x``/``state`` batched or not."""
    cfg = engine.config
    nt = cfg.num_tiles
    n = cfg.memory_size // nt
    softmax = engine.reference._softmax
    lstm_h, lstm_c, iface = engine._controller(x, state)
    new = {
        name: np.zeros_like(getattr(state, name))
        for name in ("memory", "usage", "precedence", "linkage",
                     "write_w", "read_w")
    }
    read_vecs = 0.0
    for t in range(nt):
        rows = slice(t * n, (t + 1) * n)
        memory = state.memory[..., rows, :]
        read_prev = state.read_w[..., rows]
        scores = K.content_scores(memory, iface.write_key[..., None, :])
        content_w = softmax(iface.write_strength * scores[..., 0, :])
        psi = K.retention(iface.free_gates, read_prev)
        usage = K.usage_update(
            state.usage[..., rows], state.write_w[..., rows], psi
        )
        if cfg.skim_fraction > 0.0:
            order = skimmed_sort_order(usage, cfg.skim_fraction)
        else:
            order = np.argsort(usage, axis=-1, kind="stable")
        alloc = K.allocation_from_order(usage, order)
        write_w = K.write_weight_merge(
            content_w, alloc, iface.write_gate, iface.allocation_gate
        )
        memory = K.erase_write(memory, write_w, iface.erase, iface.write_vector)
        prev_p = state.precedence[..., rows]
        linkage = K.linkage_update(
            state.linkage[..., rows, rows], write_w, prev_p
        )
        precedence = K.precedence_update(prev_p, write_w)
        content_r = softmax(
            iface.read_strengths[..., None]
            * K.content_scores(memory, iface.read_keys)
        )
        fwd, bwd = K.forward_backward(linkage, read_prev)
        read_w = K.read_weight_merge(content_r, fwd, bwd, iface.read_modes)
        read_vecs = read_vecs + K.read_vectors(memory, read_w) / nt
        new["memory"][..., rows, :] = memory
        new["usage"][..., rows] = usage
        new["precedence"][..., rows] = precedence
        new["linkage"][..., rows, rows] = linkage
        new["write_w"][..., rows] = write_w
        new["read_w"][..., rows] = read_w
    y = engine._output(lstm_h, read_vecs)
    return y, NumpyDNCState(
        read_vecs=read_vecs, lstm_h=lstm_h, lstm_c=lstm_c, **new
    )


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
        y, state = oracle_step(engine, inputs[t], state)
        assert float(np.max(np.abs(ys[t] - y))) <= TOL


@pytest.mark.parametrize("memory_size, num_tiles, skim, approx", CONFIGS)
def test_run_batch_matches_oracle(memory_size, num_tiles, skim, approx):
    engine = make_engine(memory_size, num_tiles, skim, approx)
    inputs = np.random.default_rng(2).standard_normal((STEPS, 4, 16))
    ys = engine.run_batch(inputs)
    state = engine.initial_state(batch_size=4)
    for t in range(STEPS):
        y, state = oracle_step(engine, inputs[t], state)
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
        y_sub, sub = oracle_step(engine, x[idx], expected.take_rows(idx))
        expected.write_rows(idx, sub)
        assert float(np.max(np.abs(y[idx] - y_sub))) <= TOL
        inactive = np.setdiff1d(np.arange(capacity), idx)
        assert not y[inactive].any()
        assert max_state_error(state, expected) <= TOL
