"""Memory-access policy layer: dense (verbatim) vs top-K sparse addressing.

The DNC step has exactly five phases whose cost scales with the memory
size ``N``: content-based write weighting, usage-sort/allocation, the
write phase (erase+write, linkage, precedence), the forward/backward
temporal weightings, and the read weighting/read-vector gather.  This
module puts those five phases behind an :class:`AccessPolicy` interface
so :class:`repro.core.engine.TiledEngine` can swap the *addressing
scheme* without touching the controller, the interface parsing, the
retention/usage arithmetic, or any of the serving stack above it.

Two policies:

* :class:`DenseAccess` — the paper's path, verbatim, for the DNC and
  the DNC-D (paper Section 5.1), which is the DNC over ``Nt`` local
  memory tiles whose reads merge with weight ``1/Nt``.  The policy runs
  the step over ``(..., Nb, n[, ...])`` block views of the state: DNC-D
  tiles, or the DNC's own arrays as its one block (no block axis, so the
  2-D score kernels and the tuned ``?ger`` write path still apply).
* :class:`SparseAccess` — Rae et al.-style sparse access memory: top-K
  content addressing, top-K allocation (the ``skim_fraction``
  argpartition idiom generalized), a K-row sparse write/linkage kernel
  (:func:`repro.core.kernels.sparse_erase_write_linkage_inplace`), sparse
  forward/backward over the previous read weights' support, and top-K
  read-weight truncation.  Per-step cost drops from O(N^2) to O(K·N)
  while the state representation (:class:`repro.dnc.state.NumpyDNCState`)
  stays dense — only the *support* is sparse — so checkpointing,
  migration, and the whole serving stack work unchanged.

  At ``K = N`` the sparse path reproduces the dense path to <=1e-10
  (bitwise through the write phase): the top-K selections become
  index-ordered identity gathers, the allocation reuses the reference
  :func:`repro.dnc.numpy_ref.allocation_from_order` kernel with the same
  stable tie-break, and the sparse write kernel's column+row passes
  reduce to the fused kernel's dense formula.

Traffic accounting is not a policy concern: the step's messages are
fixed by the config, so :meth:`repro.core.mapping.MemoryMap.step_traffic`
builds them once.  Under sparse access the message *pattern* (endpoints,
event order) is the dense one, but the word counts of the N-scaling
messages (linkage segment distribution, usage sort, forward/backward
operands and psums) scale with K rather than N — that is the dataflow a
sparse-access HiMA tile array would move.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core import kernels as SK
from repro.core.config import HiMAConfig
from repro.dnc import numpy_ref as K


def _topk_largest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries along the last axis, index-sorted.

    Index-sorting the selection makes the subsequent gather order
    deterministic and, at ``k = N``, an identity permutation — which is
    what makes the K=N sparse path reduce to the dense arithmetic
    (gather → compute → scatter becomes compute in place).
    """
    n = values.shape[-1]
    if k >= n:
        return np.broadcast_to(np.arange(n), values.shape)
    part = np.argpartition(values, n - k, axis=-1)[..., n - k :]
    return np.sort(part, axis=-1)


def _topk_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries along the last axis, index-sorted."""
    n = values.shape[-1]
    if k >= n:
        return np.broadcast_to(np.arange(n), values.shape)
    part = np.argpartition(values, k - 1, axis=-1)[..., :k]
    return np.sort(part, axis=-1)


class AccessPolicy:
    """Strategy interface for the five N-scaling phases of a DNC step.

    Every method receives the calling engine (for config, backend,
    softmax policy, and the masked-step plumbing).
    """

    #: Top-K policies touch K rows per N-scaling phase (and a sparse
    #: engine steps every masked tick in place, whatever the occupancy).
    is_sparse = False
    name = "dense"
    #: Memory blocks a step runs over: DNC-D's ``Nt`` tiles, else one.
    blocks = 1

    def to_blocks(self, state, interface):
        """``(state, interface)`` with the N-scaling fields as ``(..., Nb,
        n[, ...])`` views and a broadcast block axis on the interface
        fields that meet them; as they are at one block."""
        return state, interface

    def from_blocks(self, engine, state, local):
        """The new state ``local`` in the full layout (as-is at one block)."""
        return local

    def write_content(self, engine, state, interface):
        """Content-based write weighting ``(..., N)`` from the write key."""
        raise NotImplementedError

    def allocation(self, engine, usage):
        """Allocation weighting ``(..., N)`` from the updated usage."""
        raise NotImplementedError

    def write_phase(self, engine, state, write_w, interface):
        """Erase+write, linkage, precedence → ``(memory, linkage, precedence)``.

        Under the engine's masked dense step (``engine._fused_active``
        set) the policy must update the resident arrays of the active
        slots in place and return them; otherwise it must leave
        ``state`` unmutated and return fresh caller-owned arrays.
        """
        raise NotImplementedError

    def read_content(self, engine, memory, interface):
        """Content-based read weighting ``(..., R, N)`` on the new memory."""
        raise NotImplementedError

    def forward_backward(self, engine, linkage, prev_read_w):
        """Temporal forward/backward weightings ``(..., R, N)`` pair."""
        raise NotImplementedError

    def read_weights(self, engine, content_r, fwd, bwd, read_modes):
        """Merge content/forward/backward into the read weighting."""
        raise NotImplementedError

    def read_vectors(self, engine, memory, read_w):
        """Weighted read ``(..., R, W)``."""
        raise NotImplementedError

    # -- profiling ----------------------------------------------------

    def support_rows(self, engine) -> int:
        """Rows of access support per step: ``N`` dense, ``K`` sparse."""
        return engine.config.memory_size

    def bytes_touched(self, phase: str, engine, b: int) -> int:
        """Estimated bytes moved by ``phase`` this step (profiling).

        Feeds the :class:`repro.obs.profiler.PhaseTimer` bytes column:
        the per-slot element model lives in
        :func:`repro.core.kernels.phase_touched_bytes` with the policy
        contributing its support size, so sparse phases report the
        O(K·N) footprint they actually touch.  The read phase's linkage
        pass count comes from the backend (a fused sweep streams the
        linkage once, the reference matvec pair twice); the sparse read
        kernel always gathers both the support rows and columns, so the
        sparse policy keeps the two-pass model over its K-row support.
        """
        cfg = engine.config
        per_slot = SK.phase_touched_bytes(
            phase,
            n=cfg.memory_size,
            w=cfg.word_size,
            r=cfg.num_reads,
            rows=self.support_rows(engine),
            hidden=cfg.hidden_size,
            read_linkage_passes=(
                2 if self.is_sparse else engine.backend.read_linkage_passes
            ),
            blocks=self.blocks,
        )
        return b * per_slot * np.dtype(cfg.np_dtype).itemsize


class DenseAccess(AccessPolicy):
    """The paper's dense addressing path, verbatim, over ``Nb`` blocks.

    ``Nb = Nt`` under DNC-D, else 1.  Per block every phase is the
    DNC's, along the block's ``n`` rows with its own ``n x n`` linkage
    (DNC-D's global linkage keeps only these diagonal blocks), and the
    ``Nb`` read vectors merge with weight ``1/Nb`` (the trained ``alpha``
    lives in :class:`repro.dnc.distributed.DNCD`).
    """

    def __init__(self, config: HiMAConfig):
        self.blocks = config.num_tiles if config.distributed else 1
        # Masked reads loop over the active slots, which costs more than
        # reading the whole batch below MIN_BLOCKED_N rows per block.
        n = config.memory_size // self.blocks
        self._reads_per_slot = n >= SK.MIN_BLOCKED_N

    def to_blocks(self, state, interface):
        nb = self.blocks
        if nb == 1:
            return state, interface
        local = replace(
            state,
            memory=SK.shard_matrix(state.memory, nb),
            usage=SK.shard_vector(state.usage, nb),
            precedence=SK.shard_vector(state.precedence, nb),
            linkage=SK.block_diagonal(state.linkage, nb),
            write_w=SK.shard_vector(state.write_w, nb),
            read_w=SK.shard_heads(state.read_w, nb),
        )

        # Batched gates are (B, 1) and need the block axis; unbatched
        # ones are plain floats and broadcast as they are.
        def gate(g):
            return g[..., None] if isinstance(g, np.ndarray) else g

        return local, replace(
            interface,
            read_strengths=interface.read_strengths[..., None, :],
            write_strength=gate(interface.write_strength),
            erase=interface.erase[..., None, :],
            write_vector=interface.write_vector[..., None, :],
            free_gates=interface.free_gates[..., None, :],
            allocation_gate=gate(interface.allocation_gate),
            write_gate=gate(interface.write_gate),
            read_modes=interface.read_modes[..., None, :, :],
        )

    def from_blocks(self, engine, state, local):
        if self.blocks == 1:
            return local
        # In place, the write phase wrote through the block views.
        fresh = engine._fused_active is None
        return replace(
            local,
            memory=SK.unshard_matrix(local.memory) if fresh else state.memory,
            usage=SK.unshard_vector(local.usage),
            precedence=(
                SK.unshard_vector(local.precedence) if fresh
                else state.precedence
            ),
            linkage=(
                SK.scatter_block_diagonal(local.linkage) if fresh
                else state.linkage
            ),
            write_w=SK.unshard_vector(local.write_w),
            read_w=SK.unshard_heads(local.read_w),
        )

    def write_content(self, engine, state, interface):
        # Tiles score with the stacked einsum kernels; one block keeps
        # the 2-D ones (they differ in the last bit, enough to flip a
        # usage near-tie).
        be = engine.backend
        scores = (be.stacked_write_scores if self.blocks > 1
                  else be.write_scores)(state.memory, interface.write_key)
        return engine._softmax(interface.write_strength * scores)

    def allocation(self, engine, usage):
        return K.allocation_from_order(usage, engine._usage_sort(usage))

    def write_phase(self, engine, state, write_w, interface):
        # The backend's fused single-sweep kernel: bitwise the
        # three-pass ``repro.dnc.numpy_ref`` oracle on ``reference``.
        if engine._fused_active is not None:
            # Masked dense step (run_batch included): advance only the
            # active slots, in place on the resident arrays — the
            # inactive N^2 rows are neither read nor written.
            engine.backend.fused_erase_write_linkage_inplace(
                state.memory, state.linkage, state.precedence,
                write_w, interface.erase, interface.write_vector,
                active=engine._fused_active,
            )
            return state.memory, state.linkage, state.precedence
        return engine.backend.fused_erase_write_linkage(
            state.memory, state.linkage, state.precedence,
            write_w, interface.erase, interface.write_vector,
        )

    def read_content(self, engine, memory, interface):
        be = engine.backend
        rscores = (be.stacked_read_scores if self.blocks > 1
                   else be.read_scores)(memory, interface.read_keys)
        return engine._softmax(
            interface.read_strengths[..., None] * rscores, axis=-1
        )

    def forward_backward(self, engine, linkage, prev_read_w):
        # Reference: one stacked matmul pair; tuned: a fused single-pass
        # panel sweep (the profiler's bytes column follows the backend).
        return engine.backend.forward_backward(
            linkage, prev_read_w,
            active=engine._fused_active if self._reads_per_slot else None,
        )

    def read_weights(self, engine, content_r, fwd, bwd, read_modes):
        return engine.backend.read_weight_mix(content_r, fwd, bwd, read_modes)

    def read_vectors(self, engine, memory, read_w):
        # Under the masked dense step the inactive slots' reads are
        # discarded by the scatter, so the backend may skip them.
        reads = engine.backend.read_vectors(
            memory, read_w,
            active=engine._fused_active if self._reads_per_slot else None,
        )
        if self.blocks > 1:
            # Eq. (4) with uniform alpha: the blocks' reads merge at the CT.
            reads = (reads / self.blocks).sum(axis=-3)
        return reads


class SparseAccess(AccessPolicy):
    """Top-K sparse addressing: O(K·N) per step on a dense state.

    The four approximations (everything else stays exact):

    * write content weighting: softmax over the K highest-scoring rows
      (zero elsewhere), so the write support has at most K content rows;
    * allocation: computed over the K *least-used* rows only — the
      ``skim_fraction`` argpartition idiom promoted from sort-skipping
      to the full allocation, reusing the reference
      :func:`repro.dnc.numpy_ref.allocation_from_order` arithmetic with
      its stable index tie-break on the gathered slice;
    * forward/backward: contracted over the previous read weights'
      top-K support instead of the full N×N matmul pair (the discarded
      entries are exactly zero, so this is lossless given the read
      truncation below);
    * read weights: merged weighting truncated to its K largest entries
      per head (unrenormalized, as in Rae et al.), which is what keeps
      the *next* step's forward/backward and read gather sparse.

    The write phase
    (:func:`repro.core.kernels.sparse_erase_write_linkage_inplace`)
    reproduces the dense linkage algebra on the ≤2K written rows;
    rows outside the write support keep their outgoing links undecayed
    until their own next write (the kernel's only approximation —
    vacuous at K = N, where the softmax support is every slot).
    Retention, usage, and precedence are O(N) elementwise and remain
    dense-exact.
    """

    is_sparse = True
    name = "sparse"

    def __init__(self, config: HiMAConfig):
        self.top_k = int(config.access_top_k)
        # ``(read_w, idx, vals)`` handed from read_weights to the
        # read_vectors call of the same step; never outlives a tick.
        self._read_support = None

    def support_rows(self, engine) -> int:
        return min(self.top_k, engine.config.memory_size)

    # -- content ------------------------------------------------------
    def _scatter_softmax(self, engine, scaled, idx):
        """Softmax over the selected entries, zero everywhere else."""
        vals = np.take_along_axis(scaled, idx, axis=-1)
        soft = engine._softmax(vals, axis=-1)
        out = np.zeros_like(scaled)
        np.put_along_axis(out, idx, soft, axis=-1)
        return out

    def write_content(self, engine, state, interface):
        # The similarity scan stays a dense O(N·W) matmul (it is BLAS
        # bound, not the hot term); sparsity enters at the softmax.
        scores = engine.backend.write_scores(state.memory, interface.write_key)
        scaled = interface.write_strength * scores
        return self._scatter_softmax(
            engine, scaled, _topk_largest(scaled, self.top_k)
        )

    # -- allocation ---------------------------------------------------
    def allocation(self, engine, usage):
        idx = _topk_smallest(usage, self.top_k)
        vals = np.take_along_axis(usage, idx, axis=-1)
        # Stable argsort of the gathered slice: ties break toward the
        # lower *memory* index because ``idx`` is index-sorted — the
        # same tie order as the dense stable argsort, which is what
        # makes K=N reproduce the dense allocation bitwise.
        sub_order = np.argsort(vals, axis=-1, kind="stable")
        alloc_k = K.allocation_from_order(vals, sub_order)
        alloc = np.zeros_like(usage)
        np.put_along_axis(alloc, idx, alloc_k, axis=-1)
        return alloc

    # -- write phase --------------------------------------------------
    def write_phase(self, engine, state, write_w, interface):
        if engine._fused_active is not None:
            # Masked dense step: advance the active slots in place on
            # the resident arrays, touching only the written rows of
            # the O(N^2) fields.
            engine.backend.sparse_erase_write_linkage_inplace(
                state.memory, state.linkage, state.precedence,
                write_w, interface.erase, interface.write_vector,
                active=engine._fused_active,
            )
            return state.memory, state.linkage, state.precedence
        # Plain (caller-owned state) step: same arithmetic on copies —
        # the bitwise plain-vs-masked consistency the serving bar needs.
        return engine.backend.sparse_erase_write_linkage(
            state.memory, state.linkage, state.precedence,
            write_w, interface.erase, interface.write_vector,
        )

    # -- read ---------------------------------------------------------
    def read_content(self, engine, memory, interface):
        rscores = engine.backend.read_scores(memory, interface.read_keys)
        scaled = interface.read_strengths[..., None] * rscores
        return self._scatter_softmax(
            engine, scaled, _topk_largest(scaled, self.top_k)
        )

    def forward_backward(self, engine, linkage, prev_read_w):
        # f = w_r L^T / b = w_r L contracted over the previous read
        # weights' support: the weights are non-negative with at most K
        # nonzeros per head (read truncation), so the dropped terms are
        # exact zeros.  The policy owns the support selection; the
        # row-major gather/contract kernel lives on the backend seam.
        idx = _topk_largest(prev_read_w, self.top_k)
        vals = np.take_along_axis(prev_read_w, idx, axis=-1)
        return engine.backend.sparse_forward_backward(linkage, vals, idx)

    def read_weights(self, engine, content_r, fwd, bwd, read_modes):
        read_w = engine.backend.read_weight_mix(content_r, fwd, bwd, read_modes)
        # Truncate to the K largest entries per head (no renormalize,
        # following Rae et al.) so the recurrent read support stays
        # sparse.  At K=N this is an identity copy.
        idx = _topk_largest(read_w, self.top_k)
        vals = np.take_along_axis(read_w, idx, axis=-1)
        out = np.zeros_like(read_w)
        np.put_along_axis(out, idx, vals, axis=-1)
        self._read_support = (out, idx, vals)
        return out

    def read_vectors(self, engine, memory, read_w):
        # The support read_weights just selected is the support of the
        # array it returned; reselect only for any other array.
        support, self._read_support = self._read_support, None
        if support is not None and support[0] is read_w:
            _, idx, vals = support
        else:
            idx = _topk_largest(read_w, self.top_k)
            vals = np.take_along_axis(read_w, idx, axis=-1)
        return engine.backend.sparse_read_vectors(memory, vals, idx)


def make_access_policy(config: HiMAConfig) -> AccessPolicy:
    """Instantiate the policy named by ``config.access_policy``."""
    if config.access_policy == "sparse":
        return SparseAccess(config)
    return DenseAccess(config)


__all__ = [
    "AccessPolicy",
    "DenseAccess",
    "SparseAccess",
    "make_access_policy",
]
