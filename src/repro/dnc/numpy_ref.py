"""Inference-only, instrumented numpy DNC — the repository's oracle.

This is the "functional model of DNC in Python" the paper verified its RTL
against (Section 7).  It serves two roles:

1. **Kernel profiling** — every kernel is wrapped in
   :class:`~repro.dnc.instrumentation.KernelRecorder` timing/counting, which
   regenerates Table 1's access columns and the Figure 4 CPU breakdown;
   with no autodiff tape, large (1024 x 64) profiling runs stay fast.
2. **Reference semantics** — the tiled execution engine
   (:mod:`repro.core.engine`) reuses the module-level kernel functions on
   partitioned state and is tested for exact agreement with this model.

:class:`NumpyDNC` has one step body, shape-polymorphic over a leading
batch dimension; an unbatched step is that body at ``B = 1``.  The state
it steps, :class:`~repro.dnc.state.NumpyDNCState`, lives in
:mod:`repro.dnc.state` with its checkpoint format.

The kernel functions are exact numpy mirrors of
:mod:`repro.dnc.addressing`; the test suite asserts both paths agree to
float64 precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dnc.approx import SoftmaxApproximator, skimmed_sort_order
from repro.dnc.instrumentation import KernelRecorder
from repro.dnc.state import NumpyDNCState
from repro.errors import ConfigError
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import DTYPE_CHOICES, check_in

_EPSILON = 1e-6
_NORM_EPSILON = 1e-8

# ---------------------------------------------------------------------------
# Module-level numpy kernels (shared with the tiled engine)
#
# Every kernel is *shape-polymorphic*: the documented unbatched shapes may
# carry arbitrary leading dimensions (a batch ``B``, or the tiled engine's
# ``(B, Nt)`` shard stack) and the kernel vectorizes over them.  The 1-D
# forms compute exactly what they always did.
# ---------------------------------------------------------------------------


def l2_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unit-normalize along ``axis`` with an epsilon floor."""
    norms = np.sqrt((x * x).sum(axis=axis, keepdims=True) + _NORM_EPSILON)
    return x / norms


def exact_softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exped = np.exp(shifted)
    return exped / exped.sum(axis=axis, keepdims=True)


def content_scores(memory: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosine similarity between memory rows and keys: ``(..., H, N)``."""
    mem_unit = l2_normalize(memory, axis=-1)
    key_unit = l2_normalize(keys, axis=-1)
    return key_unit @ np.swapaxes(mem_unit, -1, -2)


def retention(free_gates: np.ndarray, prev_read_w: np.ndarray) -> np.ndarray:
    """``psi[i] = prod_r (1 - f_r w_r[r, i])`` for ``(..., R)``/``(..., R, N)``."""
    return np.prod(1.0 - free_gates[..., :, None] * prev_read_w, axis=-2)


def usage_update(
    prev_usage: np.ndarray, prev_write_w: np.ndarray, psi: np.ndarray
) -> np.ndarray:
    return (prev_usage + prev_write_w - prev_usage * prev_write_w) * psi


def allocation_from_order(usage: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Allocation weighting given a (possibly partially sorted) order.

    ``usage`` and ``order`` are ``(..., N)``; the cumulative free-space
    product runs along the last axis of every leading slice independently.
    """
    safe = usage * (1.0 - _EPSILON) + _EPSILON
    sorted_usage = np.take_along_axis(safe, order, axis=-1)
    ones = np.ones(sorted_usage.shape[:-1] + (1,), dtype=sorted_usage.dtype)
    prod_before = np.concatenate(
        [ones, np.cumprod(sorted_usage[..., :-1], axis=-1)], axis=-1
    )
    sorted_alloc = (1.0 - sorted_usage) * prod_before
    alloc = np.empty_like(sorted_alloc)
    np.put_along_axis(alloc, order, sorted_alloc, axis=-1)
    return alloc


def write_weight_merge(
    content_w: np.ndarray, alloc_w: np.ndarray, g_w, g_a
) -> np.ndarray:
    """Gates are scalars, or broadcastable arrays under batching."""
    return g_w * (g_a * alloc_w + (1.0 - g_a) * content_w)


def erase_write(
    memory: np.ndarray, write_w: np.ndarray, erase: np.ndarray, value: np.ndarray
) -> np.ndarray:
    """``(..., N, W)`` memory update; ``erase``/``value`` broadcast to it.

    Computed as ``memory * (1 - w x e) + w x v`` with in-place passes —
    batched, the full-size temporaries otherwise dominate the kernel.
    """
    w_col = write_w[..., :, None]
    keep = np.multiply(w_col, erase[..., None, :])
    np.subtract(1.0, keep, out=keep)
    keep *= memory
    keep += w_col * value[..., None, :]
    return keep


def linkage_update(
    prev_linkage: np.ndarray, write_w: np.ndarray, prev_precedence: np.ndarray
) -> np.ndarray:
    n = write_w.shape[-1]
    decay = 1.0 - write_w[..., :, None] - write_w[..., None, :]
    updated = decay * prev_linkage + (
        write_w[..., :, None] * prev_precedence[..., None, :]
    )
    updated[..., np.arange(n), np.arange(n)] = 0.0
    return updated


def precedence_update(prev_p: np.ndarray, write_w: np.ndarray) -> np.ndarray:
    return (1.0 - write_w.sum(axis=-1, keepdims=True)) * prev_p + write_w


def forward_backward(
    linkage: np.ndarray, prev_read_w: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``f_r = L w_r``, ``b_r = L^T w_r`` for all R heads at once."""
    forward = prev_read_w @ np.swapaxes(linkage, -1, -2)
    backward = prev_read_w @ linkage
    return forward, backward


def read_weight_merge(
    content_r: np.ndarray,
    forward: np.ndarray,
    backward: np.ndarray,
    read_modes: np.ndarray,
) -> np.ndarray:
    return (
        read_modes[..., 0:1] * backward
        + read_modes[..., 1:2] * content_r
        + read_modes[..., 2:3] * forward
    )


def read_vectors(memory: np.ndarray, read_w: np.ndarray) -> np.ndarray:
    return read_w @ memory


# ---------------------------------------------------------------------------
# Interface parsing (numpy)
# ---------------------------------------------------------------------------


def _oneplus(x: np.ndarray) -> np.ndarray:
    return 1.0 + np.log1p(np.exp(np.minimum(x, 30.0))) + np.maximum(x - 30.0, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


@dataclass
class NumpyInterface:
    """Parsed numpy interface components (mirrors ``dnc.interface``).

    Unbatched, the shapes are as annotated and the three gates are Python
    floats.  With a leading batch dimension (``flat`` of shape ``(B, L)``)
    every field gains the leading ``B`` and the gates become ``(B, 1)``
    arrays so they broadcast against per-slot weightings.
    """

    read_keys: np.ndarray  # (R, W)
    read_strengths: np.ndarray  # (R,)
    write_key: np.ndarray  # (W,)
    write_strength: float  # or (B, 1)
    erase: np.ndarray  # (W,)
    write_vector: np.ndarray  # (W,)
    free_gates: np.ndarray  # (R,)
    allocation_gate: float  # or (B, 1)
    write_gate: float  # or (B, 1)
    read_modes: np.ndarray  # (R, 3)


def parse_interface(flat: np.ndarray, word_size: int, num_reads: int) -> NumpyInterface:
    """Split and squash a flat interface vector (numpy mirror).

    ``flat`` is ``(L,)`` or batched ``(..., L)``; fields are split along
    the last axis and keep the leading dimensions.
    """
    w, r = word_size, num_reads
    expected = w * r + 3 * w + 5 * r + 3
    if flat.shape[-1] != expected:
        raise ConfigError(
            f"interface length {flat.shape[-1]} does not match expected {expected}"
        )
    lead = flat.shape[:-1]
    cursor = [0]

    def take(count: int) -> np.ndarray:
        piece = flat[..., cursor[0] : cursor[0] + count]
        cursor[0] += count
        return piece

    read_keys = take(r * w).reshape(lead + (r, w))
    read_strengths = _oneplus(take(r))
    write_key = take(w)
    write_strength = _oneplus(take(1))
    erase = _sigmoid(take(w))
    write_vector = take(w)
    free_gates = _sigmoid(take(r))
    allocation_gate = _sigmoid(take(1))
    write_gate = _sigmoid(take(1))
    read_modes = exact_softmax(take(3 * r).reshape(lead + (r, 3)), axis=-1)
    if not lead:  # unbatched: gates are plain floats, as ever
        write_strength = float(write_strength[0])
        allocation_gate = float(allocation_gate[0])
        write_gate = float(write_gate[0])
    return NumpyInterface(
        read_keys,
        read_strengths,
        write_key,
        write_strength,
        erase,
        write_vector,
        free_gates,
        allocation_gate,
        write_gate,
        read_modes,
    )


# ---------------------------------------------------------------------------
# The instrumented model
# ---------------------------------------------------------------------------


@dataclass
class NumpyDNCConfig:
    """Configuration of the instrumented reference DNC.

    Defaults match the paper's profiling setup (Figure 4 caption):
    ``N x W = 1024 x 64``, 1-layer LSTM of size 256.
    """

    input_size: int = 64
    output_size: int = 64
    memory_size: int = 1024
    word_size: int = 64
    num_reads: int = 4
    hidden_size: int = 256
    skim_fraction: float = 0.0
    softmax_approx: Optional[SoftmaxApproximator] = None
    #: Numeric policy for weights, state, and kernel buffers.  ``float64``
    #: is the exact reference mode; ``float32`` trades precision for
    #: memory bandwidth on the N^2 linkage kernels.
    dtype: str = "float64"

    def __post_init__(self):
        # Fail at construction, not at the first np_dtype access deep in
        # a step; np_dtype itself stays check-free on the hot path.
        check_in("dtype", self.dtype, DTYPE_CHOICES)

    @property
    def interface_size(self) -> int:
        w, r = self.word_size, self.num_reads
        return w * r + 3 * w + 5 * r + 3

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)


class NumpyDNC:
    """Instrumented, inference-only DNC with randomly initialized weights.

    Weight values do not matter for profiling (the dataflow is
    input-independent); a seed keeps runs reproducible.  The
    :attr:`recorder` accumulates per-kernel statistics across steps.
    """

    def __init__(self, config: NumpyDNCConfig, rng: SeedLike = 0):
        rng = new_rng(rng)
        self.config = config
        self.recorder = KernelRecorder()
        c = config
        dt = c.np_dtype
        controller_in = c.input_size + c.num_reads * c.word_size
        scale = 0.1
        # Weights are drawn in float64 for seed-stable values, then cast
        # to the policy dtype: a float32 model holds the rounded float64
        # weights, so cross-dtype comparisons see the same parameters.
        self.w_x = (scale * rng.standard_normal(
            (controller_in, 4 * c.hidden_size))).astype(dt, copy=False)
        self.w_h = (scale * rng.standard_normal(
            (c.hidden_size, 4 * c.hidden_size))).astype(dt, copy=False)
        self.b = np.zeros(4 * c.hidden_size, dtype=dt)
        self.w_if = (scale * rng.standard_normal(
            (c.hidden_size, c.interface_size))).astype(dt, copy=False)
        self.b_if = np.zeros(c.interface_size, dtype=dt)
        self.w_y = (scale * rng.standard_normal(
            (c.hidden_size + c.num_reads * c.word_size, c.output_size)
        )).astype(dt, copy=False)
        self.b_y = np.zeros(c.output_size, dtype=dt)

    # ------------------------------------------------------------------
    def load_from_dnc(self, dnc) -> None:
        """Copy weights from a trained :class:`repro.dnc.model.DNC`.

        Used by the agreement tests: the instrumented numpy path and the
        autodiff path must produce bit-identical float64 outputs.
        """
        c = self.config
        model_cfg = dnc.config
        if (model_cfg.memory_size, model_cfg.word_size, model_cfg.num_reads,
                model_cfg.hidden_size) != (c.memory_size, c.word_size,
                                           c.num_reads, c.hidden_size):
            raise ConfigError("DNC configuration does not match NumpyDNCConfig")
        dt = c.np_dtype
        self.w_x = dnc.controller.w_x.data.astype(dt)
        self.w_h = dnc.controller.w_h.data.astype(dt)
        self.b = dnc.controller.bias.data.astype(dt)
        self.w_if = dnc.interface_layer.weight.data.astype(dt)
        self.b_if = dnc.interface_layer.bias.data.astype(dt)
        self.w_y = dnc.output_layer.weight.data.astype(dt)
        self.b_y = dnc.output_layer.bias.data.astype(dt)

    # ------------------------------------------------------------------
    def initial_state(self, batch_size: Optional[int] = None) -> NumpyDNCState:
        """Zero state; with ``batch_size`` every field gains a leading ``B``."""
        c = self.config
        dt = c.np_dtype
        lead = () if batch_size is None else (int(batch_size),)
        return NumpyDNCState(
            memory=np.zeros(lead + (c.memory_size, c.word_size), dtype=dt),
            usage=np.zeros(lead + (c.memory_size,), dtype=dt),
            precedence=np.zeros(lead + (c.memory_size,), dtype=dt),
            linkage=np.zeros(lead + (c.memory_size, c.memory_size), dtype=dt),
            write_w=np.zeros(lead + (c.memory_size,), dtype=dt),
            read_w=np.zeros(lead + (c.num_reads, c.memory_size), dtype=dt),
            read_vecs=np.zeros(lead + (c.num_reads, c.word_size), dtype=dt),
            lstm_h=np.zeros(lead + (c.hidden_size,), dtype=dt),
            lstm_c=np.zeros(lead + (c.hidden_size,), dtype=dt),
        )

    def _softmax(self, scores: np.ndarray, axis: int = -1) -> np.ndarray:
        if self.config.softmax_approx is not None:
            return self.config.softmax_approx.softmax(scores, axis=axis)
        return exact_softmax(scores, axis=axis)

    # ------------------------------------------------------------------
    def step(self, x: np.ndarray, state: NumpyDNCState) -> Tuple[np.ndarray, NumpyDNCState]:
        """One instrumented timestep; returns ``(y, new_state)``.

        ``x`` is ``(B, input_size)`` with a matching batched ``state``
        (see :meth:`initial_state`): every kernel runs once, stacked over
        the batch, and the recorder's counters scale by ``B`` (one logical
        kernel invocation processing ``B`` sequences).  An unbatched
        ``x (input_size,)`` and state run the same body as a batch of one
        (``[None]`` views in, ``[0]`` views out), so their counts are the
        per-sequence formulas.  Inputs are cast to the configured dtype so
        a float32 model never silently upcasts.
        """
        x = np.asarray(x, dtype=self.config.np_dtype)
        if x.ndim == 1:
            y, new_state = self.step(x[None], NumpyDNCState(**{
                name: getattr(state, name)[None] for name in NumpyDNCState.FIELDS
            }))
            return y[0], NumpyDNCState(**{
                name: getattr(new_state, name)[0] for name in NumpyDNCState.FIELDS
            })
        c = self.config
        n, w, r, h = c.memory_size, c.word_size, c.num_reads, c.hidden_size
        b = x.shape[0]
        rec = self.recorder

        # --- Controller -------------------------------------------------
        controller_in = np.concatenate([x, state.read_vecs.reshape(b, -1)], axis=-1)
        lstm_ops = 2 * b * (controller_in.shape[-1] + h) * 4 * h
        with rec.measure("lstm", ops=lstm_ops):
            gates = controller_in @ self.w_x + state.lstm_h @ self.w_h + self.b
            i_g = _sigmoid(gates[..., 0 * h : 1 * h])
            f_g = _sigmoid(gates[..., 1 * h : 2 * h])
            g_g = np.tanh(gates[..., 2 * h : 3 * h])
            o_g = _sigmoid(gates[..., 3 * h : 4 * h])
            lstm_c = f_g * state.lstm_c + i_g * g_g
            lstm_h = o_g * np.tanh(lstm_c)
            interface_flat = lstm_h @ self.w_if + self.b_if
        interface = parse_interface(interface_flat, w, r)

        # --- Soft write ---------------------------------------------------
        with rec.measure(
            "normalize", ops=b * (2 * n * w + 2 * w), ext_mem=b * n * w,
            state_mem=b * w,
        ):
            mem_unit = l2_normalize(state.memory)
            wkey_unit = l2_normalize(interface.write_key)
        with rec.measure(
            "similarity", ops=b * (2 * n * w + 5 * n), ext_mem=b * n * w,
            state_mem=b * w,
        ):
            scores = (mem_unit @ wkey_unit[..., :, None])[..., 0]
            content_w = self._softmax(interface.write_strength * scores)

        with rec.measure("retention", ops=2 * b * r * n, state_mem=b * r * n):
            psi = retention(interface.free_gates, state.read_w)
        with rec.measure("usage", ops=4 * b * n, state_mem=2 * b * n):
            usage = usage_update(state.usage, state.write_w, psi)
        with rec.measure(
            "usage_sort", ops=int(b * n * max(np.log2(n), 1.0)), state_mem=b * n
        ):
            if c.skim_fraction > 0:
                order = skimmed_sort_order(usage, c.skim_fraction)
            else:
                order = np.argsort(usage, axis=-1, kind="stable")
        with rec.measure("allocation", ops=3 * b * n, state_mem=b * n):
            alloc = allocation_from_order(usage, order)
        with rec.measure("write_weight_merge", ops=4 * b * n, state_mem=b * n):
            write_w = write_weight_merge(
                content_w, alloc, interface.write_gate, interface.allocation_gate
            )
        with rec.measure(
            "memory_write", ops=4 * b * n * w, ext_mem=2 * b * n * w,
            state_mem=b * n,
        ):
            memory = erase_write(
                state.memory, write_w, interface.erase, interface.write_vector
            )

        with rec.measure("linkage", ops=4 * b * n * n, state_mem=2 * b * n * n):
            linkage = linkage_update(state.linkage, write_w, state.precedence)
        with rec.measure("precedence", ops=3 * b * n, state_mem=2 * b * n):
            precedence = precedence_update(state.precedence, write_w)

        # --- Soft read ----------------------------------------------------
        with rec.measure(
            "normalize", ops=b * (2 * n * w + 2 * r * w), ext_mem=b * n * w,
            state_mem=b * r * w,
        ):
            mem_unit = l2_normalize(memory)
            rkey_unit = l2_normalize(interface.read_keys)
        with rec.measure(
            "similarity", ops=b * (2 * r * n * w + 5 * r * n),
            ext_mem=b * n * w, state_mem=b * r * w,
        ):
            rscores = rkey_unit @ np.swapaxes(mem_unit, -1, -2)
            content_r = self._softmax(
                interface.read_strengths[..., None] * rscores, axis=-1
            )
        with rec.measure(
            "forward_backward", ops=4 * b * r * n * n, state_mem=2 * b * n * n
        ):
            fwd, bwd = forward_backward(linkage, state.read_w)
        with rec.measure("read_weight_merge", ops=5 * b * r * n, state_mem=b * r * n):
            read_w = read_weight_merge(content_r, fwd, bwd, interface.read_modes)
        with rec.measure(
            "memory_read", ops=2 * b * r * n * w, ext_mem=b * n * w,
            state_mem=b * r * n,
        ):
            read_vecs = read_vectors(memory, read_w)

        # --- Output -------------------------------------------------------
        with rec.measure("lstm", ops=2 * b * (h + r * w) * c.output_size):
            output_in = np.concatenate([lstm_h, read_vecs.reshape(b, -1)], axis=-1)
            y = output_in @ self.w_y + self.b_y

        new_state = NumpyDNCState(
            memory=memory,
            usage=usage,
            precedence=precedence,
            linkage=linkage,
            write_w=write_w,
            read_w=read_w,
            read_vecs=read_vecs,
            lstm_h=lstm_h,
            lstm_c=lstm_c,
        )
        return y, new_state

    # ------------------------------------------------------------------
    def run(self, inputs: np.ndarray) -> np.ndarray:
        """Run a ``(T, input_size)`` sequence; returns ``(T, output_size)``."""
        state = self.initial_state()
        outputs = np.empty(
            (inputs.shape[0], self.config.output_size), dtype=self.config.np_dtype
        )
        for t in range(inputs.shape[0]):
            outputs[t], state = self.step(inputs[t], state)
        return outputs

    def run_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Run ``(T, B, input_size)`` sequences; returns ``(T, B, output_size)``.

        All ``B`` sequences advance in lock-step through stacked kernels —
        the throughput path batch-of-1-equivalent to ``B`` separate
        :meth:`run` calls.
        """
        if inputs.ndim != 3 or inputs.shape[1] < 1:
            raise ConfigError(
                f"run_batch expects (T, B>=1, input_size) inputs, got {inputs.shape}"
            )
        steps, batch = inputs.shape[0], inputs.shape[1]
        state = self.initial_state(batch_size=batch)
        outputs = np.empty(
            (steps, batch, self.config.output_size), dtype=self.config.np_dtype
        )
        for t in range(steps):
            outputs[t], state = self.step(inputs[t], state)
        return outputs


__all__ = [
    "DTYPE_CHOICES",
    "NumpyDNC",
    "NumpyDNCConfig",
    "NumpyInterface",
    "parse_interface",
    "l2_normalize",
    "exact_softmax",
    "content_scores",
    "retention",
    "usage_update",
    "allocation_from_order",
    "write_weight_merge",
    "erase_write",
    "linkage_update",
    "precedence_update",
    "forward_backward",
    "read_weight_merge",
    "read_vectors",
]
