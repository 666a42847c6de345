"""Kernel registry and stacked shard kernels.

Three things live here:

1. The paper's Table 1 as executable metadata: each :class:`KernelSpec`
   carries the kernel's type (access vs state), category, primitives, and
   callables computing external/state-memory access counts and NoC traffic
   for a given :class:`~repro.core.config.HiMAConfig`.  ``table1_rows``
   renders the table; the test suite checks the formulas against the
   instrumented reference DNC's measured counts.
2. *Stacked* shard kernels used by the tiled engine's vectorized hot
   path: helpers that reshape row-wise shards and linkage diagonal blocks
   into a leading tile axis so all per-tile work runs as one stacked
   einsum/matmul instead of a Python loop over tiles, optionally under an
   additional leading batch axis.
3. The *fused* write-phase kernel :func:`fused_erase_write_linkage`:
   erase+write, temporal-linkage, and precedence updates in one
   cache-blocked sweep over memory rows (bitwise identical to the
   three-pass reference kernels), and its masked in-place companion
   :func:`fused_erase_write_linkage_inplace` for the serving layer's
   resident state arena — one body, shared by every CPU backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import HiMAConfig
from repro.core.partition import (
    forward_backward_traffic_words,
    linkage_distribution_traffic,
)
from repro.dnc.instrumentation import KernelCategory


# ---------------------------------------------------------------------------
# Stacked shard kernels (batched, vectorized hot path)
#
# Shapes are written with ``...`` for arbitrary leading dimensions (none
# for a single sequence, ``B`` for a batch); ``Nt`` is the tile count and
# ``n = N / Nt`` the per-tile shard length.
# ---------------------------------------------------------------------------


def phase_touched_bytes(
    phase: str, *, n: int, w: int, r: int, rows: int, hidden: int,
    read_linkage_passes: int = 2, blocks: int = 1,
) -> int:
    """Elements touched by one engine-step phase for one batch slot.

    The per-phase bytes model behind
    :meth:`repro.core.access.AccessPolicy.bytes_touched`: ``rows`` is the
    access support (``N`` dense, ``K`` sparse), so the N-scaling phases
    report the O(rows·N) footprint the policy actually moves.  These are
    element counts — the caller multiplies by batch and dtype itemsize.
    The estimates deliberately track the dominant arrays only (the same
    granularity as Table 1's access counts), not every temporary.

    ``read_linkage_passes`` is how many times the read phase streams the
    linkage support: 2 for the reference forward + backward matvec pair,
    1 when a backend fuses both sweeps into a single pass over the
    linkage (``KernelBackend.read_linkage_passes`` reports what the
    selected backend actually does).

    ``blocks`` counts the linkage blocks (DNC-D's ``Nt``, the DNC's
    one): a row's linkage support spans its own block only.
    """
    span = n // blocks
    if phase == "controller":
        # LSTM gate blocks over the hidden state.
        return 8 * hidden
    if phase == "content_addressing":
        # Memory scan for scores + the weight support (write or read).
        return n * w + rows * (1 + r)
    if phase == "sort_allocation":
        # Usage/retention/weight vectors + the sorted support.
        return 4 * n + rows
    if phase == "erase_write_linkage":
        # Linkage rows+columns of the support, written memory rows,
        # precedence.
        return 2 * span * rows + rows * w + 2 * n
    if phase == "read":
        # Forward/backward over the linkage support + weighted read.
        return read_linkage_passes * span * rows + r * rows * w + r * n
    if phase == "output":
        return hidden + r * w
    return 0


def shard_vector(x: np.ndarray, num_tiles: int) -> np.ndarray:
    """``(..., N)`` -> ``(..., Nt, n)`` row-wise shard stack (a view)."""
    return x.reshape(x.shape[:-1] + (num_tiles, -1))


def unshard_vector(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`shard_vector`: ``(..., Nt, n)`` -> ``(..., N)``."""
    return x.reshape(x.shape[:-2] + (-1,))


def shard_matrix(x: np.ndarray, num_tiles: int) -> np.ndarray:
    """``(..., N, W)`` -> ``(..., Nt, n, W)`` shard stack (a view)."""
    return x.reshape(x.shape[:-2] + (num_tiles, -1, x.shape[-1]))


def unshard_matrix(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`shard_matrix`: ``(..., Nt, n, W)`` -> ``(..., N, W)``."""
    return x.reshape(x.shape[:-3] + (-1, x.shape[-1]))


def shard_heads(read_w: np.ndarray, num_tiles: int) -> np.ndarray:
    """``(..., R, N)`` read weights -> ``(..., Nt, R, n)`` shard stack."""
    split = read_w.reshape(read_w.shape[:-1] + (num_tiles, -1))
    return np.moveaxis(split, -2, -3)


def unshard_heads(local_read_w: np.ndarray) -> np.ndarray:
    """Inverse of :func:`shard_heads`: ``(..., Nt, R, n)`` -> ``(..., R, N)``."""
    moved = np.moveaxis(local_read_w, -3, -2)
    return moved.reshape(moved.shape[:-2] + (-1,))


def block_diagonal(linkage: np.ndarray, num_tiles: int) -> np.ndarray:
    """Extract the ``Nt`` diagonal ``n x n`` blocks: ``(..., Nt, n, n)``."""
    n_local = linkage.shape[-1] // num_tiles
    grid = linkage.reshape(
        linkage.shape[:-2] + (num_tiles, n_local, num_tiles, n_local)
    )
    return np.einsum("...titj->...tij", grid)


def scatter_block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Place ``(..., Nt, n, n)`` blocks on the diagonal of a zero ``(..., N, N)``.

    The output keeps the blocks' dtype, so the engine-wide dtype policy
    flows through the stacked DNC-D path without silent upcasts.
    """
    num_tiles, n_local = blocks.shape[-3], blocks.shape[-1]
    n = num_tiles * n_local
    out = np.zeros(blocks.shape[:-3] + (n, n), dtype=blocks.dtype)
    for t in range(num_tiles):
        rows = slice(t * n_local, (t + 1) * n_local)
        out[..., rows, rows] = blocks[..., t, :, :]
    return out


def stacked_key_scores(
    local_mem_unit: np.ndarray, key_unit: np.ndarray
) -> np.ndarray:
    """Per-tile content scores ``(..., Nt, n)`` for one write key ``(..., W)``."""
    return np.einsum("...tnw,...w->...tn", local_mem_unit, key_unit)


def stacked_read_scores(
    rkey_unit: np.ndarray, local_mem_unit: np.ndarray
) -> np.ndarray:
    """Per-tile read-head scores ``(..., Nt, R, n)`` for keys ``(..., R, W)``."""
    return np.einsum("...rw,...tnw->...trn", rkey_unit, local_mem_unit)


# ---------------------------------------------------------------------------
# Fused write-phase kernel
# ---------------------------------------------------------------------------

#: Target bytes per streamed linkage panel (the input panel, the output
#: panel and the per-panel temporary each get roughly this much, so the
#: sweep's working set is ~3x this) — sized to sit inside a per-core L2.
PANEL_BYTES = 1 << 18

#: Below this many memory rows one ``(N, N)`` matrix is cache-resident on
#: its own, so the BLAS-backed variants (the tuned backend's rank-1
#: accumulate and fused forward/backward) have nothing to amortize and
#: stay on the plain forms.
MIN_BLOCKED_N = 128


def panel_rows(n: int, row_bytes: int) -> int:
    """Rows of an ``n``-row matrix per streamed panel of ~:data:`PANEL_BYTES`."""
    return max(1, min(n, PANEL_BYTES // row_bytes))


def _scratch_rows(
    scratch: Dict, key: str, rows: int, cols: int, dtype
) -> np.ndarray:
    """C-contiguous ``(rows, cols)`` view of the flat buffer ``scratch[key]``.

    The buffer only ever grows (and is replaced on a dtype change), so a
    caller that keeps ``scratch`` between calls allocates nothing once
    the largest support it sees has been served.
    """
    held = scratch.get(key)
    if held is None or held.dtype != dtype or held.size < rows * cols:
        held = np.empty(rows * cols, dtype=dtype)
        scratch[key] = held
    return held[: rows * cols].reshape(rows, cols)


def _over_lead(vector: np.ndarray, lead: Tuple[int, ...]) -> np.ndarray:
    """``vector (..., W)`` as a ``lead + (W,)`` view, so slots can index it."""
    if vector.shape[:-1] == lead:
        return vector
    return np.broadcast_to(vector, lead + vector.shape[-1:])


def _write_sweep(
    src, dst, write_w, erase, value, scratch, ger, slots=None
) -> None:
    """The one body of the dense write phase, walked in cache-sized panels.

    ``src`` / ``dst`` are ``(memory, linkage, precedence)`` triples with
    at least one lead axis (``erase`` / ``value`` already broadcast to
    it); ``dst`` may be ``src`` itself (every cell's old value is
    consumed by the ufunc that overwrites it, and the precedence is
    rewritten only after the last linkage panel read it).  ``slots``
    restricts the sweep to those indices of the leading axis, one at a
    time; the rest of ``dst`` is not touched.

    The leading axis is walked in chunks and each chunk's linkage in row
    panels of about :data:`PANEL_BYTES`: a large matrix streams through
    one panel at a time — read once, written once, both temporaries hot
    — while small matrices (DNC-D's stacked ``(B, Nt, n, n)`` tiles, a
    toy ``N``) run as one cross-lead slab, i.e. whole-array ufuncs.
    Every update is elementwise per row, so panel and chunk boundaries
    never change a value: per cell this is the ufunc sequence of the
    three ``repro.dnc.numpy_ref`` kernels, bit for bit — except under
    ``ger`` (a BLAS ``?ger`` for the linkage dtype), which folds the
    ``w_i * p_j`` multiply and add into one rank-1 pass per contiguous
    panel, rounding once where the ufuncs round twice.
    """
    memory, linkage, precedence = src
    out_memory, out_linkage, out_precedence = dst
    lead, n = write_w.shape[:-1], write_w.shape[-1]
    width = memory.shape[-1]
    inner = lead[1:]
    itemsize = linkage.dtype.itemsize
    row_bytes = math.prod(inner) * n * itemsize
    rows_per = panel_rows(n, row_bytes)
    # ?ger updates a panel in place only as a 2-D row slice of a C matrix.
    use_ger = (
        ger is not None and not inner
        and out_linkage.strides[-2:] == (row_bytes, itemsize)
    )
    if slots is None:
        slots = range(lead[0])
        per = PANEL_BYTES // (n * row_bytes)  # whole matrices per panel
        if per > 1 and not use_ger:
            slots = [slice(lo, lo + per) for lo in range(0, lead[0], per)]
    # Out of place the outputs double as accumulators (one stream fewer
    # per pass than building in scratch); in place they hold live state.
    in_place = out_memory is memory
    diag = np.arange(n)
    for sl in slots:
        # A single slot (an int) drops its lead axis: plain 2-D operands.
        w = write_w[sl]
        chunk = w.shape[:-1]
        cells = math.prod(chunk)
        w_col = w[..., :, None]
        # Memory rows: m * (1 - w x e) + w x v, reference ufunc order.
        mw = _scratch_rows(
            scratch, "fused.mw", cells * n, width, memory.dtype
        ).reshape(chunk + (n, width))
        # Each outer product first lays its column operand out in the
        # destination, so the ufunc's inner loop runs over contiguous
        # rows rather than a stride-0 broadcast: the same IEEE operation
        # on the same operands per cell (np.einsum would flip the sign
        # of zero).
        m_out = out_memory[sl]
        acc = mw if in_place else m_out
        np.copyto(acc, w_col)
        np.multiply(acc, erase[sl][..., None, :], out=acc)
        np.subtract(1.0, acc, out=acc)
        np.multiply(acc, memory[sl], out=m_out)
        np.copyto(mw, w_col)
        np.multiply(mw, value[sl][..., None, :], out=mw)
        m_out += mw
        # Linkage cells: ((1 - w_i) - w_j) * L + w_i * p_j, zero diagonal.
        one_minus_w = 1.0 - w_col
        w_row = w[..., None, :]
        p = precedence[sl]
        p_row = p[..., None, :]
        link_in, link_out = linkage[sl], out_linkage[sl]
        for r0 in range(0, n, rows_per):
            r1 = min(n, r0 + rows_per)
            t = _scratch_rows(
                scratch, "fused.panel", cells * (r1 - r0), n, linkage.dtype
            ).reshape(chunk + (r1 - r0, n))
            panel = link_out[..., r0:r1, :]
            acc = t if in_place else panel
            np.copyto(acc, one_minus_w[..., r0:r1, :])
            np.subtract(acc, w_row, out=acc)
            np.multiply(acc, link_in[..., r0:r1, :], out=panel)
            if use_ger:
                # panel.T is F-contiguous, so ?ger accumulates in place.
                ger(1.0, p, w[r0:r1], a=panel.T, overwrite_a=1)
            else:
                np.copyto(t, w_col[..., r0:r1, :])
                np.multiply(t, p_row, out=t)
                panel += t
        link_out[..., diag, diag] = 0.0
        # Precedence: (1 - sum w) * p + w, from the *previous* precedence
        # (the panels above have consumed it).
        p_out = out_precedence[sl]
        np.multiply(1.0 - w.sum(axis=-1, keepdims=True), p, out=p_out)
        p_out += w


def fused_erase_write_linkage(
    memory: np.ndarray,
    linkage: np.ndarray,
    precedence: np.ndarray,
    write_w: np.ndarray,
    erase: np.ndarray,
    value: np.ndarray,
    ger: Optional[Callable] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One fused sweep for the DNC write phase: erase+write, linkage, precedence.

    **Contract** (the one a hardware/GPU backend implements as a single
    pass over memory rows):

    * inputs are the *previous* step's ``memory (..., N, W)``,
      ``linkage (..., N, N)``, ``precedence (..., N)`` plus this step's
      ``write_w (..., N)`` and the interface's ``erase`` / ``value``
      write vectors (broadcastable to ``(..., W)``);
    * returns ``(new_memory, new_linkage, new_precedence)`` **bitwise
      identical** to the three-pass sequence
      :func:`repro.dnc.numpy_ref.erase_write` →
      :func:`repro.dnc.numpy_ref.linkage_update` →
      :func:`repro.dnc.numpy_ref.precedence_update` (see
      :func:`_write_sweep`: the per-cell ufunc order is replicated
      exactly, so no tolerance is needed);
    * inputs are never mutated; the outputs are freshly allocated
      arrays the caller owns outright (a resident state is advanced by
      :func:`fused_erase_write_linkage_inplace` instead).

    The fusion wins by streaming the ``N^2`` linkage once, in
    cache-sized row panels, instead of materializing full-size
    intermediates per reference kernel (~4 sweeps).

    ``ger`` — an optional BLAS ``?ger`` matching the linkage dtype: the
    ``w_i * p_j`` accumulate of contiguous panels then rounds once
    (ulp-scale off the oracle on the linkage; memory and precedence
    stay bitwise).
    """
    src = (memory, linkage, precedence)
    dst = tuple(np.empty(a.shape, dtype=a.dtype) for a in src)
    lead = write_w.shape[:-1]
    erase, value = _over_lead(erase, lead), _over_lead(value, lead)
    if not lead:
        # Unbatched: lend the sweep its lead axis (views, no copies).
        _write_sweep(
            tuple(a[None] for a in src), tuple(a[None] for a in dst),
            write_w[None], erase[None], value[None], {}, ger,
        )
    else:
        _write_sweep(src, dst, write_w, erase, value, {}, ger)
    return dst


def fused_erase_write_linkage_inplace(
    memory: np.ndarray,
    linkage: np.ndarray,
    precedence: np.ndarray,
    write_w: np.ndarray,
    erase: np.ndarray,
    value: np.ndarray,
    active: np.ndarray,
    scratch: Optional[Dict] = None,
    ger: Optional[Callable] = None,
) -> None:
    """Masked fused write phase mutating the resident arrays in place.

    The zero-copy companion of :func:`fused_erase_write_linkage` for
    slot-pinned batched state: rows ``active`` (an integer index array
    or boolean mask over the leading batch axis) of ``memory (B, N, W)``,
    ``linkage (B, N, N)`` and ``precedence (B, N)`` are advanced one
    write step **where they live** — no full-capacity input copies, no
    gather of the O(N^2) fields, no linkage-sized scratch — and every
    other row is left bitwise untouched.  Each active row's values are
    bitwise identical to :func:`fused_erase_write_linkage` on that row
    (the same :func:`_write_sweep` runs per slot, source and destination
    coinciding).  The arrays may be non-contiguous *views* of a resident
    state — DNC-D passes its stacked ``(B, Nt, n, ...)`` shard views and
    the write lands in the state's own storage.

    The per-slot loop is deliberate: a vectorized fancy-index pass would
    have to gather the active ``N^2`` rows first, which is exactly the
    copy this kernel exists to avoid.

    ``scratch`` — an optional dict the caller keeps between invocations
    so the two panel temporaries are allocated once rather than per
    call.  ``ger`` — as for :func:`fused_erase_write_linkage`.
    """
    if memory.ndim < 3:
        raise ValueError(
            "fused_erase_write_linkage_inplace needs a leading batch "
            f"axis; got memory of shape {memory.shape}"
        )
    idx = np.asarray(active)
    if idx.dtype == np.bool_:
        idx = np.flatnonzero(idx)
    lead = write_w.shape[:-1]
    state = (memory, linkage, precedence)
    _write_sweep(
        state, state, write_w, _over_lead(erase, lead),
        _over_lead(value, lead), {} if scratch is None else scratch, ger,
        slots=idx,
    )


def sparse_erase_write_linkage_inplace(
    memory: np.ndarray,
    linkage: np.ndarray,
    precedence: np.ndarray,
    write_w: np.ndarray,
    erase: np.ndarray,
    value: np.ndarray,
    active: Optional[np.ndarray] = None,
    scratch: Optional[Dict] = None,
) -> None:
    """K-row sparse write phase mutating the arrays in place.

    The sparse-access companion of
    :func:`fused_erase_write_linkage_inplace`: ``write_w`` rows carry a
    small support ``S`` (top-K content + top-K allocation positions, so
    ``|S| <= 2K``), and the update touches only O(|S|·N) *contiguous*
    cells instead of O(N^2):

    * memory rows in ``S`` get the full erase+write formula
      ``m * (1 - w x e) + w x v`` (reference ufunc order, bitwise);
    * linkage rows in ``S`` get the full
      ``((1 - w_i) - w_j) * L + w_i * p_j`` row update, identical
      ufunc-for-ufunc to :func:`fused_erase_write_linkage`.  Rows
      *outside* ``S`` are left untouched: the dense formula would decay
      their ``S`` columns by ``(1 - w_j)``, but applying that decay is
      a scattered-column pass whose cache traffic is effectively the
      whole matrix — the O(N^2) cost this kernel exists to avoid — so,
      following the sparse-memory literature, stale rows keep their
      outgoing links undecayed until their own next write.  This is the
      kernel's *only* approximation.  At full support (softmax support
      is all ``N`` slots when K = N) every row is in ``S``, the skipped
      term is vacuous, and the kernel is bitwise-identical to
      :func:`fused_erase_write_linkage`;
    * precedence is a dense O(N) elementwise update (same as the fused
      kernel, bitwise), since it is never the hot term.

    The linkage is walked row-major only: the ``S`` rows are gathered
    into one ``(|S|, N)`` scratch buffer, the new rows are built in a
    second one (which the ``w x p`` term then reuses the first for), and
    whole rows are scattered back — no temporary above ``(|S|, W)`` is
    allocated.

    ``scratch`` — a dict the caller keeps between invocations so the two
    row buffers (keys ``"sparse.rows"`` / ``"sparse.new"``, shared with
    :func:`sparse_forward_backward`, at most ``min(2K, N) * N`` elements
    each) are allocated once rather than per call.  The dict is owned by
    exactly one caller at a time: the buffers hold live intermediates
    for the duration of a call, so two threads must never pass the same
    dict (the engine keeps one per backend instance, and backends are
    per-engine).  Without it the buffers are allocated per call.

    Accepts unbatched ``(N, W)/(N, N)/(N,)`` state or batched
    ``(B, ...)``; ``active`` (int indices or bool mask over the leading
    batch axis) restricts the update to the selected slots, leaving the
    rest bitwise untouched — the serving arena's masked tick.
    """
    if memory.ndim == 2:
        if active is not None:
            raise ValueError(
                "sparse_erase_write_linkage_inplace(active=...) needs a "
                f"leading batch axis; got memory of shape {memory.shape}"
            )
        memory, linkage, precedence = (
            memory[None], linkage[None], precedence[None],
        )
        write_w = write_w[None]
        erase = np.asarray(erase)[None] if erase.ndim == 1 else erase
        value = np.asarray(value)[None] if value.ndim == 1 else value
    elif memory.ndim != 3:
        raise ValueError(
            "sparse_erase_write_linkage_inplace supports (N, W) or "
            f"(B, N, W) memory; got shape {memory.shape}"
        )
    if active is None:
        idx = np.arange(memory.shape[0])
    else:
        idx = np.asarray(active)
        if idx.dtype == np.bool_:
            idx = np.flatnonzero(idx)
    if idx.size == 0:
        return
    scratch = {} if scratch is None else scratch
    n = write_w.shape[-1]
    erase_b = np.broadcast_to(erase, write_w.shape[:-1] + erase.shape[-1:])
    value_b = np.broadcast_to(value, write_w.shape[:-1] + value.shape[-1:])
    for s in idx:
        m, link, p, w = memory[s], linkage[s], precedence[s], write_w[s]
        support = np.flatnonzero(w)
        if support.size == 0:
            continue
        w_s = w[support]
        w_col = w_s[:, None]
        # Memory rows S: m * (1 - w x e) + w x v, reference ufunc order.
        mw = np.multiply(w_col, erase_b[s][None, :])
        np.subtract(1.0, mw, out=mw)
        mw *= m[support]
        mw += w_col * value_b[s][None, :]
        # Linkage: full row update for rows in S (snapshot first so the
        # formula reads pre-update values).  Rows outside S are left
        # untouched — see the docstring's approximation note.  The
        # support comes from flatnonzero, so mode="clip" never clamps;
        # it is what lets take write straight into ``out``.
        rows_old = _scratch_rows(
            scratch, "sparse.rows", support.size, n, link.dtype
        )
        new_rows = _scratch_rows(
            scratch, "sparse.new", support.size, n, link.dtype
        )
        np.take(link, support, axis=0, out=rows_old, mode="clip")
        np.subtract(1.0 - w_col, w[None, :], out=new_rows)
        new_rows *= rows_old
        # rows_old is consumed; its buffer now carries the w x p term.
        new_rows += np.multiply(w_col, p[None, :], out=rows_old)
        new_rows[np.arange(support.size), support] = 0.0
        link[support, :] = new_rows
        # Precedence reads old p; the linkage term above already
        # consumed it, so it may now be overwritten: (1 - sum w) * p + w.
        np.multiply(1.0 - w.sum(), p, out=p)
        p += w
        m[support] = mw


def sparse_erase_write_linkage(
    memory: np.ndarray,
    linkage: np.ndarray,
    precedence: np.ndarray,
    write_w: np.ndarray,
    erase: np.ndarray,
    value: np.ndarray,
    scratch: Optional[Dict] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-mutating K-row sparse write phase.

    Copies the state and applies
    :func:`sparse_erase_write_linkage_inplace`, so a plain (unmasked)
    sparse step runs the *same arithmetic* as the arena's in-place
    masked tick — the bitwise plain-vs-masked consistency the serving
    bar depends on.  The O(N^2) linkage copy makes this the cold path;
    resident-state serving goes through the in-place kernel.
    """
    new_memory = memory.copy()
    new_linkage = linkage.copy()
    new_precedence = precedence.copy()
    sparse_erase_write_linkage_inplace(
        new_memory, new_linkage, new_precedence, write_w, erase, value,
        scratch=scratch,
    )
    return new_memory, new_linkage, new_precedence


# ---------------------------------------------------------------------------
# Sparse read-phase kernels (K-support forward/backward + read gather)
# ---------------------------------------------------------------------------


def sparse_forward_backward(
    linkage: np.ndarray,
    vals: np.ndarray,
    idx: np.ndarray,
    scratch: Optional[Dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward/backward matvecs over a top-K read-weight support.

    ``vals``/``idx`` are the ``(..., R, K)`` nonzero read-weight values
    and their index-sorted memory-row indices (from ``SparseAccess``'s
    top-K truncation).  Computes ``f = w_r L^T`` and ``b = w_r L`` over
    the support only — O(R·K·N) instead of the dense O(R·N^2) matmul
    pair.  The dropped terms are exact zeros, so this matches
    :func:`repro.dnc.numpy_ref.forward_backward` on the scattered dense
    weights to rounding.

    Both directions walk the row-major linkage **along its rows**, one
    batch slot at a time:

    * forward needs the ``R·K`` support *columns*.  They are gathered
      for a block of rows at a time (``np.take(L[lo:hi], cols, axis=1,
      out=...)`` — stride-1 inside each row, one sweep over the matrix)
      and each head contracts its ``K`` gathered columns with one
      ``matmul`` into ``f[r, lo:hi]``;
    * backward gathers each head's ``K`` support *rows* into the same
      buffer and contracts with one ``matmul``.

    At ``K = N`` with the identity support nothing is gathered: the
    weights contract against ``L`` directly (the dense matmul pair).

    The per-slot loop makes a batched call bitwise-equal, slot for slot,
    to the unbatched call on that slot (the row-block size depends only
    on ``N``, ``R`` and ``K``).

    ``idx`` is validated once (``0 <= idx < N``, else ``IndexError``):
    the gathers run with ``mode="clip"``, the only mode in which
    ``np.take`` writes straight into ``out=``, and must never clamp.

    ``scratch`` — the caller-kept dict of
    :func:`sparse_erase_write_linkage_inplace` (the gathers reuse its
    ``"sparse.rows"`` buffer, ``K * N`` elements here); same ownership
    contract: one caller at a time, never shared across threads.
    """
    lead = vals.shape[:-2]
    r, k = vals.shape[-2:]
    n = linkage.shape[-1]
    link = linkage.reshape((-1, n, n))
    v = vals.reshape((-1, r, k))
    i = idx.reshape((-1, r, k))
    if i.size and (i.min() < 0 or i.max() >= n):
        raise IndexError(
            f"support indices must lie in [0, {n}); got range "
            f"[{i.min()}, {i.max()}]"
        )
    if k == n and (i == np.arange(n)).all():
        fwd = np.matmul(v, np.swapaxes(link, -1, -2))
        bwd = np.matmul(v, link)
        return fwd.reshape(lead + (r, n)), bwd.reshape(lead + (r, n))
    scratch = {} if scratch is None else scratch
    fwd = np.empty(
        (link.shape[0], r, n), dtype=np.result_type(linkage, vals)
    )
    bwd = np.empty_like(fwd)
    # Row-block height that keeps the (rows, R*K) column gather inside
    # the K*N elements the backward row gather needs anyway.
    block = max(1, n // r)
    for f in range(link.shape[0]):
        link_f, cols = link[f], i[f].reshape(-1)
        for lo in range(0, n, block):
            hi = min(n, lo + block)
            gathered = _scratch_rows(
                scratch, "sparse.rows", hi - lo, r * k, linkage.dtype
            )
            np.take(link_f[lo:hi], cols, axis=1, out=gathered, mode="clip")
            per_head = gathered.reshape(hi - lo, r, k)
            for h in range(r):
                np.matmul(per_head[:, h, :], v[f, h], out=fwd[f, h, lo:hi])
        rows = _scratch_rows(scratch, "sparse.rows", k, n, linkage.dtype)
        for h in range(r):
            np.take(link_f, i[f, h], axis=0, out=rows, mode="clip")
            np.matmul(v[f, h], rows, out=bwd[f, h])
    return fwd.reshape(lead + (r, n)), bwd.reshape(lead + (r, n))


def sparse_read_vectors(
    memory: np.ndarray, vals: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """Weighted read over a top-K read-weight support.

    Same support convention as :func:`sparse_forward_backward`; gathers
    the ≤K memory rows per head and contracts — O(R·K·W) per slot.
    """
    lead = vals.shape[:-2]
    r = vals.shape[-2]
    mem = memory.reshape((-1,) + memory.shape[-2:])
    v = vals.reshape((-1,) + vals.shape[-2:])
    i = idx.reshape((-1,) + idx.shape[-2:])
    fidx = np.arange(mem.shape[0])[:, None, None]
    read_vecs = np.einsum("frk,frkw->frw", v, mem[fidx, i, :])
    return read_vecs.reshape(lead + (r, memory.shape[-1]))


@dataclass(frozen=True)
class KernelSpec:
    """One DNC kernel's Table 1 row."""

    name: str
    kernel_type: str  # "access" or "state"
    category: KernelCategory
    primitives: Tuple[str, ...]
    ext_mem_order: str  # big-O string from Table 1
    state_mem_order: str
    noc_order: str
    ext_mem_accesses: Callable[[HiMAConfig], int]
    state_mem_accesses: Callable[[HiMAConfig], int]
    ops: Callable[[HiMAConfig], int]
    noc_words: Callable[[HiMAConfig], float]


def _no_traffic(config: HiMAConfig) -> float:
    return 0.0


KERNEL_REGISTRY: Dict[str, KernelSpec] = {}


def _register(spec: KernelSpec) -> None:
    KERNEL_REGISTRY[spec.name] = spec


_register(KernelSpec(
    name="normalize",
    kernel_type="access",
    category=KernelCategory.CONTENT_WEIGHTING,
    primitives=("inner-prod",),
    ext_mem_order="O(NW)",
    state_mem_order="O(W)",
    noc_order="O(Nt N)",
    ext_mem_accesses=lambda c: 2 * c.memory_size * c.word_size,
    state_mem_accesses=lambda c: (1 + c.num_reads) * c.word_size,
    ops=lambda c: 4 * c.memory_size * c.word_size
    + 2 * (1 + c.num_reads) * c.word_size,
    # Row-wise external partition keeps normalization local; a column
    # split would cost 2N(Nt_w - 1) (Eq. 1).
    noc_words=_no_traffic,
))

_register(KernelSpec(
    name="similarity",
    kernel_type="access",
    category=KernelCategory.CONTENT_WEIGHTING,
    primitives=("inner-prod", "softmax"),
    ext_mem_order="O(NW)",
    state_mem_order="O(W)",
    noc_order="O(Nt)",
    ext_mem_accesses=lambda c: 2 * c.memory_size * c.word_size,
    state_mem_accesses=lambda c: (1 + c.num_reads) * c.word_size,
    ops=lambda c: 2 * (1 + c.num_reads) * c.memory_size * c.word_size
    + 5 * (1 + c.num_reads) * c.memory_size,
    # Psum exchange + softmax redistribution: 2(Nt-1) per head group.
    noc_words=lambda c: 0.0 if c.distributed
    else 2.0 * (c.num_tiles - 1) * (1 + c.num_reads),
))

_register(KernelSpec(
    name="memory_write",
    kernel_type="access",
    category=KernelCategory.MEMORY_ACCESS,
    primitives=("el-add/sub/mult", "outer-prod"),
    ext_mem_order="O(NW)",
    state_mem_order="O(N)",
    noc_order="O(Nt N)",
    ext_mem_accesses=lambda c: 2 * c.memory_size * c.word_size,
    state_mem_accesses=lambda c: c.memory_size,
    ops=lambda c: 4 * c.memory_size * c.word_size,
    noc_words=_no_traffic,  # element-wise, fully local under row-wise split
))

_register(KernelSpec(
    name="memory_read",
    kernel_type="access",
    category=KernelCategory.MEMORY_ACCESS,
    primitives=("transpose", "mat-vec mult"),
    ext_mem_order="O(NW)",
    state_mem_order="O(N)",
    noc_order="O(Nt N W)",
    ext_mem_accesses=lambda c: c.memory_size * c.word_size,
    state_mem_accesses=lambda c: c.num_reads * c.memory_size,
    ops=lambda c: 2 * c.num_reads * c.memory_size * c.word_size,
    # Row-wise: psum reduction of R read vectors, W(Nt-1) words each.
    noc_words=lambda c: 0.0 if c.distributed
    else float(c.num_reads * c.word_size * (c.num_tiles - 1)),
))

_register(KernelSpec(
    name="retention",
    kernel_type="state",
    category=KernelCategory.HIST_WRITE_WEIGHTING,
    primitives=("el-mult", "vec acc-prod"),
    ext_mem_order="No",
    state_mem_order="O(RN)",
    noc_order="No",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: c.num_reads * c.memory_size,
    ops=lambda c: 2 * c.num_reads * c.memory_size,
    noc_words=_no_traffic,
))

_register(KernelSpec(
    name="usage",
    kernel_type="state",
    category=KernelCategory.HIST_WRITE_WEIGHTING,
    primitives=("el-add/sub/mult",),
    ext_mem_order="No",
    state_mem_order="O(N)",
    noc_order="No",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: 2 * c.memory_size,
    ops=lambda c: 4 * c.memory_size,
    noc_words=_no_traffic,
))

_register(KernelSpec(
    name="usage_sort",
    kernel_type="state",
    category=KernelCategory.HIST_WRITE_WEIGHTING,
    primitives=("sort",),
    ext_mem_order="No",
    state_mem_order="O(N)",
    noc_order="O(N)",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: c.memory_size,
    ops=lambda c: int(
        c.effective_sort_length * max(math.log2(max(c.effective_sort_length, 2)), 1)
    ),
    # Two-stage: sorted shards stream to the CT and sorted order returns.
    noc_words=lambda c: 0.0 if c.distributed else 2.0 * c.effective_sort_length,
))

_register(KernelSpec(
    name="allocation",
    kernel_type="state",
    category=KernelCategory.HIST_WRITE_WEIGHTING,
    primitives=("vec acc-prod",),
    ext_mem_order="No",
    state_mem_order="O(N)",
    noc_order="O(Nt)",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: c.memory_size,
    ops=lambda c: 3 * c.effective_sort_length,
    noc_words=lambda c: 0.0 if c.distributed else float(c.num_tiles - 1),
))

_register(KernelSpec(
    name="write_weight_merge",
    kernel_type="state",
    category=KernelCategory.HIST_WRITE_WEIGHTING,
    primitives=("el-add/sub",),
    ext_mem_order="No",
    state_mem_order="O(N)",
    noc_order="No",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: c.memory_size,
    ops=lambda c: 4 * c.memory_size,
    noc_words=_no_traffic,
))

_register(KernelSpec(
    name="linkage",
    kernel_type="state",
    category=KernelCategory.HIST_READ_WEIGHTING,
    primitives=("mat expand", "outer-prod", "el-add/sub/mult"),
    ext_mem_order="No",
    state_mem_order="O(N^2)",
    noc_order="O(Nt N)",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: (
        2 * (c.memory_size // c.num_tiles) ** 2 * c.num_tiles
        if c.distributed else 2 * c.memory_size**2
    ),
    ops=lambda c: (
        4 * (c.memory_size // c.num_tiles) ** 2 * c.num_tiles
        if c.distributed else 4 * c.memory_size**2
    ),
    noc_words=lambda c: 0.0 if c.distributed else linkage_distribution_traffic(
        c.memory_size, c.num_tiles, *c.linkage_partition
    ),
))

_register(KernelSpec(
    name="precedence",
    kernel_type="state",
    category=KernelCategory.HIST_READ_WEIGHTING,
    primitives=("el-add", "vec acc-sum"),
    ext_mem_order="No",
    state_mem_order="O(N)",
    noc_order="O(Nt)",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: 2 * c.memory_size,
    ops=lambda c: 3 * c.memory_size,
    noc_words=lambda c: 0.0 if c.distributed else float(c.num_tiles - 1),
))

_register(KernelSpec(
    name="forward_backward",
    kernel_type="state",
    category=KernelCategory.HIST_READ_WEIGHTING,
    primitives=("transpose", "mat-vec mult"),
    ext_mem_order="No",
    state_mem_order="O(N^2)",
    noc_order="O(Nt N^2)",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: (
        2 * (c.memory_size // c.num_tiles) ** 2 * c.num_tiles
        if c.distributed else 2 * c.memory_size**2
    ),
    ops=lambda c: (
        4 * c.num_reads * (c.memory_size // c.num_tiles) ** 2 * c.num_tiles
        if c.distributed else 4 * c.num_reads * c.memory_size**2
    ),
    noc_words=lambda c: 0.0 if c.distributed else forward_backward_traffic_words(
        c.memory_size, c.num_reads, c.num_tiles, *c.linkage_partition
    ),
))

_register(KernelSpec(
    name="read_weight_merge",
    kernel_type="state",
    category=KernelCategory.HIST_READ_WEIGHTING,
    primitives=("el-add",),
    ext_mem_order="No",
    state_mem_order="O(RN)",
    noc_order="No",
    ext_mem_accesses=lambda c: 0,
    state_mem_accesses=lambda c: c.num_reads * c.memory_size,
    ops=lambda c: 5 * c.num_reads * c.memory_size,
    noc_words=_no_traffic,
))


def table1_rows(config: HiMAConfig) -> List[List[str]]:
    """Render the registry as Table 1 rows for ``config``."""
    rows = []
    for spec in KERNEL_REGISTRY.values():
        rows.append([
            spec.kernel_type,
            spec.name,
            ", ".join(spec.primitives),
            spec.ext_mem_order,
            f"{spec.ext_mem_accesses(config):,}",
            spec.state_mem_order,
            f"{spec.state_mem_accesses(config):,}",
            spec.noc_order,
            f"{spec.noc_words(config):,.0f}",
        ])
    return rows


__all__ = [
    "KernelSpec",
    "KERNEL_REGISTRY",
    "table1_rows",
    "phase_touched_bytes",
    "shard_vector",
    "unshard_vector",
    "shard_matrix",
    "unshard_matrix",
    "shard_heads",
    "unshard_heads",
    "block_diagonal",
    "scatter_block_diagonal",
    "stacked_key_scores",
    "stacked_read_scores",
    "fused_erase_write_linkage",
    "fused_erase_write_linkage_inplace",
    "sparse_erase_write_linkage",
    "sparse_erase_write_linkage_inplace",
    "sparse_forward_backward",
    "sparse_read_vectors",
]
