"""Optional torch kernel backend (CPU or CUDA); self-registers on import.

Importing this module requires torch (``pip install repro-hima[torch]``);
:func:`repro.core.backend._ensure_torch_registered` imports it lazily and
swallows the ImportError, so the rest of the package never depends on
torch being present.

The backend computes the hot-path kernels in torch on
``cuda`` when available (else CPU), round-tripping numpy arrays at the
seam: the engine's state stays numpy (the serving stack's arenas, wire
formats, and checkpoints are unchanged), and only the O(N^2) write
phase and the content-addressing matmuls cross into torch.  Under the
dtype policy the *storage* dtype is numpy (``bfloat16``/``float16``
store as float32 — see ``repro.utils.validation.STORAGE_DTYPES``) while
this backend computes in the true reduced precision, which is what the
per-dtype ``VERIFY_TOLERANCES`` entries absorb.

Half-precision note: l2 normalization accumulates the sum of squares in
float32 when computing in ``float16``/``bfloat16`` — the reference
epsilon (1e-8) underflows float16 and a zero-initialized memory would
normalize to NaN otherwise.  This is the standard mixed-precision
recipe and is covered by the dtype tolerances, not the bitwise bars.

The sparse write phase stays on the numpy reference kernels (it is
O(K·N) and gather-bound, not a bandwidth problem), as does the batched
argsort.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import torch

from repro.core import kernels as SK
from repro.core.backend import KernelBackend, register_backend

_COMPUTE_DTYPES = {
    "float64": torch.float64,
    "float32": torch.float32,
    "float16": torch.float16,
    "bfloat16": torch.bfloat16,
}

_NORM_EPSILON = 1e-8


class TorchBackend(KernelBackend):
    """Torch implementation of the hot-path kernels; numpy in, numpy out."""

    name = "torch"
    supported_dtypes = ("float64", "float32", "float16", "bfloat16")

    def __init__(self, config):
        super().__init__()
        self.device = torch.device(
            "cuda" if torch.cuda.is_available() else "cpu"
        )
        self.compute_dtype = _COMPUTE_DTYPES[config.dtype]
        # Numpy storage dtype the engine's state arrays use (float32 for
        # the reduced-precision compute dtypes).
        self._storage = config.np_dtype
        self._storage_torch = _COMPUTE_DTYPES[self._storage.name]
        # The read phase computes in torch too (forward/backward, mix,
        # gather).  The linkage still feeds two matmuls (torch owns the
        # blocking), so the base class's two-pass bytes model stands.

    # -- seam crossings ----------------------------------------------------
    def _to(self, array: np.ndarray) -> torch.Tensor:
        tensor = torch.from_numpy(np.ascontiguousarray(array))
        return tensor.to(device=self.device, dtype=self.compute_dtype)

    def _from(self, tensor: torch.Tensor) -> np.ndarray:
        return tensor.to(dtype=self._storage_torch).cpu().numpy()

    def _unit(self, tensor: torch.Tensor) -> torch.Tensor:
        if self.compute_dtype in (torch.float16, torch.bfloat16):
            wide = tensor.to(torch.float32)
            norms = torch.sqrt(
                (wide * wide).sum(dim=-1, keepdim=True) + _NORM_EPSILON
            )
            return (wide / norms).to(self.compute_dtype)
        norms = torch.sqrt(
            (tensor * tensor).sum(dim=-1, keepdim=True) + _NORM_EPSILON
        )
        return tensor / norms

    # -- content addressing ------------------------------------------------
    def write_scores(self, memory, write_key):
        mem_unit = self._unit(self._to(memory))
        key_unit = self._unit(self._to(write_key))
        scores = torch.matmul(mem_unit, key_unit.unsqueeze(-1)).squeeze(-1)
        return self._from(scores)

    def read_scores(self, memory, read_keys):
        mem_unit = self._unit(self._to(memory))
        rkey_unit = self._unit(self._to(read_keys))
        scores = torch.matmul(rkey_unit, mem_unit.transpose(-1, -2))
        return self._from(scores)

    def stacked_write_scores(self, local_mem, write_key):
        mem_unit = self._unit(self._to(local_mem))
        key_unit = self._unit(self._to(write_key))
        scores = torch.einsum("...tnw,...w->...tn", mem_unit, key_unit)
        return self._from(scores)

    def stacked_read_scores(self, local_mem, read_keys):
        mem_unit = self._unit(self._to(local_mem))
        rkey_unit = self._unit(self._to(read_keys))
        scores = torch.einsum("...rw,...tnw->...trn", rkey_unit, mem_unit)
        return self._from(scores)

    # -- read phase ----------------------------------------------------
    # Dense read kernels in torch; the masked ``active=`` forms ride the
    # base class's per-slot loop (which re-enters these on each active
    # slot), and the K-support sparse forms stay on the
    # inherited numpy kernels — they are gather-bound, not a bandwidth
    # problem, same as the sparse write phase.

    def forward_backward(self, linkage, read_w, active=None):
        if active is not None:
            return super().forward_backward(linkage, read_w, active=active)
        link_t = self._to(linkage)
        rw_t = self._to(read_w)
        fwd = torch.matmul(rw_t, link_t.transpose(-1, -2))
        bwd = torch.matmul(rw_t, link_t)
        return self._from(fwd), self._from(bwd)

    def read_weight_mix(self, content_w, fwd, bwd, read_modes, active=None):
        if active is not None:
            return super().read_weight_mix(
                content_w, fwd, bwd, read_modes, active=active
            )
        modes = self._to(read_modes)
        mixed = (
            modes[..., 0:1] * self._to(bwd)
            + modes[..., 1:2] * self._to(content_w)
            + modes[..., 2:3] * self._to(fwd)
        )
        return self._from(mixed)

    def read_vectors(self, memory, read_w, active=None):
        if active is not None:
            return super().read_vectors(memory, read_w, active=active)
        reads = torch.matmul(self._to(read_w), self._to(memory))
        return self._from(reads)

    # -- fused dense write phase -------------------------------------------
    def _fused_torch(
        self,
        memory: torch.Tensor,
        linkage: torch.Tensor,
        precedence: torch.Tensor,
        write_w: torch.Tensor,
        erase: torch.Tensor,
        value: torch.Tensor,
    ) -> Tuple[torch.Tensor, torch.Tensor, torch.Tensor]:
        w_col = write_w.unsqueeze(-1)
        new_memory = (
            memory * (1.0 - w_col * erase.unsqueeze(-2))
            + w_col * value.unsqueeze(-2)
        )
        new_linkage = (
            ((1.0 - w_col) - write_w.unsqueeze(-2)) * linkage
            + w_col * precedence.unsqueeze(-2)
        )
        new_linkage.diagonal(dim1=-2, dim2=-1).zero_()
        new_precedence = (
            (1.0 - write_w.sum(dim=-1, keepdim=True)) * precedence + write_w
        )
        return new_memory, new_linkage, new_precedence

    def fused_erase_write_linkage(
        self, memory, linkage, precedence, write_w, erase, value
    ):
        new_m, new_l, new_p = self._fused_torch(
            self._to(memory), self._to(linkage), self._to(precedence),
            self._to(write_w), self._to(erase), self._to(value),
        )
        return self._from(new_m), self._from(new_l), self._from(new_p)

    def fused_erase_write_linkage_inplace(
        self, memory, linkage, precedence, write_w, erase, value,
        active, scratch=None,
    ):
        if memory.ndim < 3:
            raise ValueError(
                "fused_erase_write_linkage_inplace needs a leading batch "
                f"axis; got memory of shape {memory.shape}"
            )
        idx = np.asarray(active)
        if idx.dtype == np.bool_:
            idx = np.flatnonzero(idx)
        if idx.size == 0:
            return
        erase_b = np.broadcast_to(erase, write_w.shape[:-1] + erase.shape[-1:])
        value_b = np.broadcast_to(value, write_w.shape[:-1] + value.shape[-1:])
        # Gather the active slots, compute in torch, scatter back.  The
        # per-row arithmetic is elementwise (plus a per-row sum), so a
        # row's values match the plain full-batch step regardless of
        # batch composition — the plain-vs-masked consistency the
        # serving bar needs.
        sub_m, sub_l, sub_p = self._fused_torch(
            self._to(memory[idx]), self._to(linkage[idx]),
            self._to(precedence[idx]), self._to(write_w[idx]),
            self._to(erase_b[idx]), self._to(value_b[idx]),
        )
        memory[idx] = self._from(sub_m)
        linkage[idx] = self._from(sub_l)
        precedence[idx] = self._from(sub_p)


register_backend("torch", TorchBackend)
