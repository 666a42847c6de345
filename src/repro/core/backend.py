"""Pluggable kernel backends for the engine's bandwidth-bound hot path.

The O(N^2) erase/write/linkage phase and the content-addressing matmuls
dominate step time exactly where production configs live (N >= 256,
float64) — the numpy-on-CPU reference path saturates memory bandwidth
there, not arithmetic.  This module puts a seam under
:mod:`repro.core.kernels`: a :class:`KernelBackend` owns the hot-path
kernels (fused write phase, sparse write phase, content scores, batched
argsort), the engine constructs one per instance from
``HiMAConfig(backend=...)``, and every access policy / masked serving
path dispatches through it.

Two backends ship:

* ``reference`` — bitwise the ``repro.dnc.numpy_ref`` oracle.  The
  dense write phase is the shared cache-blocked sweep of
  :mod:`repro.core.kernels` (per cell the oracle's ufunc sequence, so
  panel boundaries never change a value), the read phase and content
  scores are the oracle's own expressions, and the sparse forms are the
  shared row-major kernels, held to the same oracle.
* ``tuned`` — the same write sweep plus what is genuinely different:
  a BLAS ``?ger`` rank-1 accumulate per linkage panel (scipy present,
  ``N >= MIN_BLOCKED_N``; scipy is imported when a tuned backend is
  built, see :func:`_ger_table`), cosine scores with the row norms factored
  out of the matmul, a fused single-pass forward/backward and a
  scratch-resident read-weight mix.  Versus ``reference`` on identical
  inputs: **memory, precedence and the read-weight mix are always
  bitwise; the linkage is bitwise unless ``?ger`` engages** (then it
  rounds once per cell where the ufuncs round twice); the content
  scores and the fused backward psum are tolerance-level.  Trajectories
  stay within ``VERIFY_TOLERANCES``.

Backend instances are **per-engine** (scratch buffers are not shared
across the sharded serving stack's thread pools); ``make_backend``
returns a fresh instance every call.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core import kernels as SK
from repro.dnc import numpy_ref as K
from repro.errors import ConfigError


def _ger_table() -> Dict[str, Callable]:
    """The module's ``_GER``: BLAS ``?ger`` routines by dtype for the
    tuned backend's rank-1 linkage accumulation, loaded on first use.

    scipy is an optional accelerant with a large import footprint, so
    it is imported here — when a :class:`TunedBackend` is built or
    ``_GER`` is first read — and never by a reference engine.  Without scipy the table is empty and
    the tuned write phase is the reference one: the shared sweep's
    multiply-plus-add, bit for bit.  Only the exact-match single/double
    routines are used — ``get_blas_funcs`` would silently upcast other
    dtypes through a copy, defeating the in-place update.  Once loaded
    the table is a plain module global, so replacing or emptying
    ``_GER`` changes what the next lookup sees.
    """
    table = globals().get("_GER")
    if table is None:
        try:
            from scipy.linalg import blas
        except ImportError:
            table = {}
        else:
            table = {"<f4": blas.sger, "<f8": blas.dger}
        globals()["_GER"] = table
    return table


def __getattr__(name: str):
    if name == "_GER":
        return _ger_table()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "KernelBackend",
    "ReferenceBackend",
    "TunedBackend",
    "available_backends",
    "check_backend_name",
    "make_backend",
    "register_backend",
]


class KernelBackend:
    """Hot-path kernel set behind the engine's write/content phases.

    Subclasses override the kernel methods; the contracts (shapes,
    ufunc-order bitwise guarantees, ``active``/``scratch``
    semantics) are those of the :mod:`repro.core.kernels` functions each
    method shadows.  The base class supplies what every CPU backend
    shares: the numpy batched argsort, the dense write sweep, the read
    phase, the sparse kernels, and the per-instance scratch dict those
    kernels (and the tuned backend's read phase) keep their reused
    buffers in — so a subclass ``__init__`` must call
    ``super().__init__()``, and one instance must never be driven from
    two threads at once.
    """

    #: Registry name; set by subclasses.
    name = "abstract"

    #: How many times the read phase streams the linkage support: 2 for
    #: the separate forward + backward matvecs, 1 for a fused
    #: single-pass sweep.  A backend whose :meth:`forward_backward`
    #: picks its kernel per call shape sets it on every call, so it
    #: names the kernel that last ran.  Feeds the
    #: :func:`repro.core.kernels.phase_touched_bytes` read model so the
    #: profiler's bytes column reflects what the kernel actually moved.
    read_linkage_passes = 2

    def __init__(self):
        #: Resident scratch, one dict per backend instance (and backends
        #: are per-engine): the in-place dense sweep's two panel
        #: temporaries and the sparse kernels' two row buffers live here,
        #: as do the tuned backend's read-phase temporaries.
        self._scratch: Dict = {}

    def _buf(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype).str)
        held = self._scratch.get(key)
        if held is None:
            held = np.empty(shape, dtype=dtype)
            self._scratch[key] = held
        return held

    # -- content addressing ------------------------------------------------
    def write_scores(self, memory: np.ndarray, write_key: np.ndarray) -> np.ndarray:
        """Raw cosine scores ``(..., N)`` of one write key against memory."""
        raise NotImplementedError

    def read_scores(self, memory: np.ndarray, read_keys: np.ndarray) -> np.ndarray:
        """Raw cosine scores ``(..., R, N)`` of the read keys against memory."""
        raise NotImplementedError

    def stacked_write_scores(
        self, local_mem: np.ndarray, write_key: np.ndarray
    ) -> np.ndarray:
        """Per-tile write scores ``(..., Nt, n)`` for the stacked DNC-D path."""
        raise NotImplementedError

    def stacked_read_scores(
        self, local_mem: np.ndarray, read_keys: np.ndarray
    ) -> np.ndarray:
        """Per-tile read scores ``(..., Nt, R, n)`` for the stacked DNC-D path."""
        raise NotImplementedError

    # -- batched sorter ----------------------------------------------------
    def argsort(self, values: np.ndarray) -> np.ndarray:
        """Stable ascending argsort along the last axis."""
        return np.argsort(values, axis=-1, kind="stable")

    # -- fused dense write phase -------------------------------------------
    # One body for every CPU backend: the cache-blocked sweep of
    # :func:`repro.core.kernels.fused_erase_write_linkage` (bitwise the
    # ``numpy_ref`` three-pass oracle).  A backend only chooses the
    # sweep's rank-1 accumulate.
    def _ger(self, linkage: np.ndarray) -> Optional[Callable]:
        """BLAS ``?ger`` for the linkage sweep; ``None`` = the oracle ufuncs."""
        return None

    def fused_erase_write_linkage(
        self,
        memory: np.ndarray,
        linkage: np.ndarray,
        precedence: np.ndarray,
        write_w: np.ndarray,
        erase: np.ndarray,
        value: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return SK.fused_erase_write_linkage(
            memory, linkage, precedence, write_w, erase, value,
            ger=self._ger(linkage),
        )

    def fused_erase_write_linkage_inplace(
        self,
        memory: np.ndarray,
        linkage: np.ndarray,
        precedence: np.ndarray,
        write_w: np.ndarray,
        erase: np.ndarray,
        value: np.ndarray,
        active: np.ndarray,
        scratch: Optional[Dict] = None,
    ) -> None:
        SK.fused_erase_write_linkage_inplace(
            memory, linkage, precedence, write_w, erase, value,
            active=active,
            scratch=self._scratch if scratch is None else scratch,
            ger=self._ger(linkage),
        )

    # -- sparse write phase ------------------------------------------------
    def sparse_erase_write_linkage(
        self,
        memory: np.ndarray,
        linkage: np.ndarray,
        precedence: np.ndarray,
        write_w: np.ndarray,
        erase: np.ndarray,
        value: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Delegates to the reference sparse kernel (already O(K·N))."""
        return SK.sparse_erase_write_linkage(
            memory, linkage, precedence, write_w, erase, value,
            scratch=self._scratch,
        )

    def sparse_erase_write_linkage_inplace(
        self,
        memory: np.ndarray,
        linkage: np.ndarray,
        precedence: np.ndarray,
        write_w: np.ndarray,
        erase: np.ndarray,
        value: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> None:
        SK.sparse_erase_write_linkage_inplace(
            memory, linkage, precedence, write_w, erase, value,
            active=active, scratch=self._scratch,
        )

    # -- read phase ----------------------------------------------------
    # The base-class bodies ARE the ``numpy_ref`` oracle (like
    # ``argsort``): forward/backward is the stacked matmul pair of
    # :func:`repro.dnc.numpy_ref.forward_backward`, the mix is the
    # three-term merge, and the gather is ``read_w @ memory``.
    # ``ReferenceBackend`` inherits them unchanged.
    #
    # ``active`` contract (all three dense methods): ``None`` computes
    # the full batch; an index/bool array computes only those leading
    # batch slots and returns zeros in the inactive rows.  The N^2-sized
    # operands are never gathered: each active slot contracts against
    # the resident ``linkage[s]`` / ``memory[s]``, and the kernels are
    # independent per batch element, so per-slot results are
    # bitwise-equal to the full-batch call on the same rows — the
    # masked-step semantics of ``TiledEngine._step_masked_dense``.

    @staticmethod
    def _active_index(active, batch_like: np.ndarray) -> np.ndarray:
        if batch_like.ndim < 3:
            raise ValueError(
                "read kernels with active= need a leading batch axis; got "
                f"shape {batch_like.shape}"
            )
        idx = np.asarray(active)
        if idx.dtype == np.bool_:
            idx = np.flatnonzero(idx)
        return idx

    def forward_backward(
        self,
        linkage: np.ndarray,
        read_w: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Temporal weightings ``f = w_r L^T``, ``b = w_r L`` (both ``(..., R, N)``)."""
        if active is not None:
            fwd = np.zeros_like(read_w)
            bwd = np.zeros_like(read_w)
            for s in self._active_index(active, linkage):
                fwd[s], bwd[s] = self.forward_backward(linkage[s], read_w[s])
            return fwd, bwd
        return K.forward_backward(linkage, read_w)

    def read_weight_mix(
        self,
        content_w: np.ndarray,
        fwd: np.ndarray,
        bwd: np.ndarray,
        read_modes: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Three-mode merge of backward/content/forward weightings."""
        if active is not None:
            idx = self._active_index(active, content_w)
            out = np.zeros_like(content_w)
            if idx.size:
                modes_b = np.broadcast_to(
                    read_modes, content_w.shape[:-1] + read_modes.shape[-1:]
                )
                out[idx] = self.read_weight_mix(
                    content_w[idx], fwd[idx], bwd[idx], modes_b[idx]
                )
            return out
        return K.read_weight_merge(content_w, fwd, bwd, read_modes)

    def read_vectors(
        self,
        memory: np.ndarray,
        read_w: np.ndarray,
        active: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Weighted read ``(..., R, W)`` of memory under the read weights."""
        if active is not None:
            out = np.zeros(
                read_w.shape[:-1] + (memory.shape[-1],), dtype=memory.dtype
            )
            for s in self._active_index(active, memory):
                out[s] = self.read_vectors(memory[s], read_w[s])
            return out
        return K.read_vectors(memory, read_w)

    # K-support sparse forms: ``vals``/``idx`` are the top-K read-weight
    # support from ``SparseAccess`` (O(R·K·N) / O(R·K·W) gather-bound
    # kernels — every CPU backend shares the numpy reference bodies).
    # The forward/backward gathers and the sparse write phase share the
    # instance's two row buffers in ``_scratch``.
    def sparse_forward_backward(
        self, linkage: np.ndarray, vals: np.ndarray, idx: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return SK.sparse_forward_backward(
            linkage, vals, idx, scratch=self._scratch
        )

    def sparse_read_vectors(
        self, memory: np.ndarray, vals: np.ndarray, idx: np.ndarray
    ) -> np.ndarray:
        return SK.sparse_read_vectors(memory, vals, idx)


class ReferenceBackend(KernelBackend):
    """Bitwise the ``repro.dnc.numpy_ref`` oracle.

    The content scores below are the oracle's expressions; the dense
    write phase (the shared panel sweep, oracle ufunc order per cell),
    the read phase and the sparse forms are inherited from the base
    class — one body for every CPU backend.
    """

    name = "reference"

    def write_scores(self, memory, write_key):
        key_unit = K.l2_normalize(write_key)
        mem_unit = K.l2_normalize(memory)
        return (mem_unit @ key_unit[..., :, None])[..., 0]

    def read_scores(self, memory, read_keys):
        rkey_unit = K.l2_normalize(read_keys)
        return rkey_unit @ np.swapaxes(K.l2_normalize(memory), -1, -2)

    def stacked_write_scores(self, local_mem, write_key):
        key_unit = K.l2_normalize(write_key)
        return SK.stacked_key_scores(K.l2_normalize(local_mem), key_unit)

    def stacked_read_scores(self, local_mem, read_keys):
        rkey_unit = K.l2_normalize(read_keys)
        return SK.stacked_read_scores(rkey_unit, K.l2_normalize(local_mem))


class TunedBackend(ReferenceBackend):
    """The reference kernels plus what is genuinely different on a CPU.

    Where the win comes from on bandwidth-bound configs (N >= 256, the
    whole write-phase working set past L3):

    * the ``w_i * p_j`` rank-1 accumulation of the shared write sweep
      rides one BLAS ``?ger`` pass over each hot linkage panel instead
      of the multiply-into-scratch plus add — one FMA pass, and on
      compute-throttled hosts one fewer elementwise kernel launch per
      panel.  Below :data:`repro.core.kernels.MIN_BLOCKED_N` rows, for
      non-contiguous operands and without scipy the sweep keeps the
      oracle ufuncs: the write phase is then ``reference``'s, bit for
      bit;
    * the read phase's forward/backward matvec pair fuses into one
      blocked pass over the same row panels (see
      :meth:`forward_backward`): the linkage is streamed from DRAM once
      per tick instead of twice, and the read-weight mix rides resident
      scratch (:meth:`read_weight_mix`, bitwise on the reference);
    * content addressing factors the memory row norms out of the cosine
      dot product (see the note above the score methods): the matmul
      runs on raw memory and the small score panel is rescaled, instead
      of materializing a full unit-normalized copy of memory per call.
      The stacked DNC-D score paths stay on the inherited reference
      arithmetic — distributed tiles are small enough that the factored
      form has nothing to amortize.

    Which fields are bitwise on which backend is stated once, in the
    module docstring; trajectory-level equivalence is pinned in
    ``tests/test_backends.py``.
    """

    name = "tuned"
    #: The fused forward/backward sweep streams the linkage once; a call
    #: that falls back to the reference pair sets 2 (see
    #: :meth:`forward_backward`).
    read_linkage_passes = 1

    def __init__(self):
        super().__init__()
        _ger_table()  # scipy loads at engine build, not in a timed step

    def _ger(self, linkage):
        if linkage.shape[-1] < SK.MIN_BLOCKED_N:
            return None
        return _ger_table().get(linkage.dtype.str)

    # -- content addressing ------------------------------------------------
    # Factored cosine scores: the reference materializes a full
    # unit-normalized copy of memory (an N*W write plus an N*W divide)
    # per addressing call; algebraically the row norms factor out of the
    # dot product, so the tuned form runs the matmul on raw memory and
    # rescales the (H, N) score panel by ``1/sqrt(|m_i|^2 + eps)`` —
    # same epsilon-floored math, O(H*N) divisions instead of O(N*W),
    # and no full-size normalized temporary.  (An ``out=``-routed
    # variant of the *reference* arithmetic was also A/B'd and measured
    # slower — BLAS picks a better path when it owns the output; the
    # win here is doing less work, not routing the same work.)

    def write_scores(self, memory, write_key):
        key_unit = K.l2_normalize(write_key)
        sq = np.einsum("...nw,...nw->...n", memory, memory)
        scores = (memory @ key_unit[..., :, None])[..., 0]
        scores /= np.sqrt(sq + K._NORM_EPSILON)
        return scores

    def read_scores(self, memory, read_keys):
        rkey_unit = K.l2_normalize(read_keys)
        sq = np.einsum("...nw,...nw->...n", memory, memory)
        scores = rkey_unit @ np.swapaxes(memory, -1, -2)
        scores /= np.sqrt(sq + K._NORM_EPSILON)[..., None, :]
        return scores

    # -- read phase ----------------------------------------------------
    def forward_backward(self, linkage, read_w, active=None):
        """Fused single-pass forward/backward over linkage row panels.

        The reference runs two full matmuls (``w_r L^T`` then
        ``w_r L``), streaming the N^2 linkage from DRAM twice per tick.
        Here each cache-resident row panel ``L[r0:r1]`` feeds *both*
        contractions while hot: the backward accumulates
        ``b += w_r[:, r0:r1] @ L[r0:r1]`` (a rank-panel update into a
        scratch psum) and the forward writes
        ``f[:, r0:r1] = w_r @ L[r0:r1].T`` — one read sweep of the
        linkage total.  Forward rows keep the reference's full-length
        dot products; the backward's panel-blocked reduction reorders
        the sum, so the result is tolerance-level (not bitwise) vs the
        reference — bounded by ``VERIFY_TOLERANCES`` and pinned in
        ``tests/test_backends.py``.

        Delegates to the reference pair below
        :data:`repro.core.kernels.MIN_BLOCKED_N` (both matmuls already
        fit in cache), under ``active=`` (the masked base path re-enters
        here once per active slot), and for non-contiguous operands.
        """
        n = linkage.shape[-1]
        if (
            active is not None
            or n < SK.MIN_BLOCKED_N
            or not (linkage.flags.c_contiguous and read_w.flags.c_contiguous)
        ):
            self.read_linkage_passes = 2
            return super().forward_backward(linkage, read_w, active=active)
        self.read_linkage_passes = 1
        r = read_w.shape[-2]
        lin3 = linkage.reshape((-1, n, n))
        rw3 = read_w.reshape((-1, r, n))
        # Outputs become step intermediates the caller retains (read_w
        # derives from them), so they must be fresh, never scratch.
        fwd = np.empty_like(read_w)
        bwd = np.empty_like(read_w)
        fwd3 = fwd.reshape((-1, r, n))
        bwd3 = bwd.reshape((-1, r, n))
        rows_per = SK.panel_rows(n, n * linkage.dtype.itemsize)
        tmp = self._buf("read.psum", (r, n), linkage.dtype)
        for b in range(lin3.shape[0]):
            lin_b, rw_b = lin3[b], rw3[b]
            fwd_b, bwd_b = fwd3[b], bwd3[b]
            bwd_b[...] = 0.0
            for r0 in range(0, n, rows_per):
                r1 = min(n, r0 + rows_per)
                panel = lin_b[r0:r1]
                # Backward psum: the panel's rows contracted against the
                # matching read-weight columns, accumulated while hot.
                np.matmul(rw_b[:, r0:r1], panel, out=tmp)
                bwd_b += tmp
                # Forward columns r0:r1: full-length dot products against
                # the same resident panel's rows.
                np.matmul(rw_b, panel.T, out=fwd_b[:, r0:r1])
        return fwd, bwd

    def read_weight_mix(self, content_w, fwd, bwd, read_modes, active=None):
        """Scratch-resident three-term merge; bitwise == reference.

        Same association as the reference expression
        (``(m0*b + m1*c) + m2*f`` evaluated left to right), so only the
        temporaries change: two resident buffers instead of five fresh
        ``(.., R, N)`` allocations per step.
        """
        if active is not None:
            return super().read_weight_mix(
                content_w, fwd, bwd, read_modes, active=active
            )
        # Output becomes the state's read weighting: fresh, not scratch.
        out = np.multiply(read_modes[..., 0:1], bwd)
        tmp = self._buf("read.mix", out.shape, out.dtype)
        np.multiply(read_modes[..., 1:2], content_w, out=tmp)
        out += tmp
        np.multiply(read_modes[..., 2:3], fwd, out=tmp)
        out += tmp
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

BackendFactory = Callable[..., KernelBackend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register ``factory(config) -> KernelBackend`` under ``name``."""
    _REGISTRY[name] = factory


register_backend("reference", lambda config: ReferenceBackend())
register_backend("tuned", lambda config: TunedBackend())


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def check_backend_name(name: str) -> None:
    """Require a registered backend name; raises :class:`ConfigError`."""
    if name not in _REGISTRY:
        raise ConfigError(
            f"backend must be one of {available_backends()} (or a name "
            f"registered via repro.core.backend.register_backend), "
            f"got {name!r}"
        )


def make_backend(config) -> KernelBackend:
    """Construct a fresh backend instance for one engine.

    Raises :class:`ConfigError` when ``config.backend`` is not registered.
    """
    check_backend_name(config.backend)
    return _REGISTRY[config.backend](config)
