"""Per-tile numpy oracle of the engine's DNC-D (paper Section 5.1).

DNC-D splits memory into ``Nt`` local tiles: every tile runs the complete
soft write and read on its own ``n = N / Nt`` rows, with its own ``n x n``
linkage, and the ``Nt`` read vectors merge at the CT with weight ``1/Nt``.
:func:`dncd_step` computes exactly that with a Python loop over tiles,
built only from the :mod:`repro.dnc.numpy_ref` kernels (content scores,
retention, usage, the stable or skimmed order, allocation, erase/write,
linkage, precedence, forward/backward, read merge).  Of a
:class:`repro.core.engine.TiledEngine`, which runs DNC-D as one step over
a block axis, it uses only what DNC-D does not change: the controller,
the output layer, the weights and the configured softmax.
``TiledEngine.verify_against_reference`` judges a DNC-D engine against
it.

The global state keeps the ``(..., N, N)`` linkage layout of the DNC;
only its ``Nt`` diagonal ``n x n`` blocks are ever non-zero.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dnc import numpy_ref as K
from repro.dnc.approx import skimmed_sort_order
from repro.dnc.state import NumpyDNCState

def dncd_step(
    engine, x: np.ndarray, state: NumpyDNCState
) -> Tuple[np.ndarray, NumpyDNCState]:
    """One DNC-D step of ``engine``'s model, tile by tile;
    ``x``/``state`` batched or not."""
    cfg = engine.config
    num_tiles = cfg.num_tiles
    n = cfg.memory_size // num_tiles
    softmax = engine.reference._softmax
    x = np.asarray(x, dtype=cfg.np_dtype)
    lstm_h, lstm_c, iface = engine._controller(x, state)
    new = {
        name: np.zeros_like(getattr(state, name))
        for name in ("memory", "usage", "precedence", "linkage",
                     "write_w", "read_w")
    }
    read_vecs = 0.0
    for t in range(num_tiles):
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
        read_vecs = read_vecs + K.read_vectors(memory, read_w) / num_tiles
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


def dncd_run(engine, inputs: np.ndarray) -> np.ndarray:
    """Step an unbatched ``(T, input_size)`` sequence from the zero state."""
    state = engine.initial_state()
    outputs = []
    for x in inputs:
        y, state = dncd_step(engine, x, state)
        outputs.append(y)
    return np.stack(outputs)


__all__ = ["dncd_run", "dncd_step"]
