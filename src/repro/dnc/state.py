"""The DNC's full inference state and its checkpoint wire format.

:class:`NumpyDNCState` is the one state type of the repository: the
oracle (:mod:`repro.dnc.numpy_ref`), the tiled engine
(:mod:`repro.core.engine`) and the serving layer (:mod:`repro.serve`)
all step, gather, scatter and checkpoint it.  It carries no model
semantics — only the field layout, batch row helpers and the versioned
``to_bytes``/``from_bytes`` format a session migrates with.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError


@dataclass
class NumpyDNCState:
    """Full inference state of the reference DNC.

    Unbatched states hold the canonical shapes (``memory (N, W)``,
    ``usage (N,)``, ...); batched states carry a leading batch dimension
    on every field (``memory (B, N, W)``, ``usage (B, N)``, ...).
    """

    memory: np.ndarray
    usage: np.ndarray
    precedence: np.ndarray
    linkage: np.ndarray
    write_w: np.ndarray
    read_w: np.ndarray
    read_vecs: np.ndarray
    lstm_h: np.ndarray
    lstm_c: np.ndarray

    #: Field names in declaration order; the stack/unstack helpers and the
    #: serving layer's gather/scatter iterate this rather than hard-coding
    #: the state layout twice.
    FIELDS = (
        "memory", "usage", "precedence", "linkage", "write_w",
        "read_w", "read_vecs", "lstm_h", "lstm_c",
    )

    @property
    def batch_size(self) -> Optional[int]:
        """Leading batch dimension, or ``None`` for an unbatched state."""
        return None if self.usage.ndim == 1 else self.usage.shape[0]

    @property
    def nbytes(self) -> int:
        """Total bytes held across all state fields."""
        return sum(getattr(self, name).nbytes for name in self.FIELDS)

    @property
    def row_nbytes(self) -> int:
        """Bytes of one batch row (one session's full recurrent context).

        For an unbatched state this is simply :attr:`nbytes`.
        """
        b = self.batch_size
        return self.nbytes if b is None else self.nbytes // b

    def copy(self) -> "NumpyDNCState":
        """Deep copy: every field owns a fresh contiguous array."""
        return type(self)(**{
            name: getattr(self, name).copy() for name in self.FIELDS
        })

    # ------------------------------------------------------------------
    # Checkpoint serialization (the serving layer's migration primitive)
    # ------------------------------------------------------------------

    #: ``to_bytes`` wire format: magic, little-endian uint16 version +
    #: uint32 header length, a JSON header recording every field's dtype
    #: and shape, then the raw C-order field bytes in header order.
    BYTES_MAGIC = b"HIMASTATE"
    BYTES_VERSION = 1

    def to_bytes(self) -> bytes:
        """Serialize the state to a self-describing byte string.

        The round trip through :meth:`from_bytes` is **bitwise** and
        dtype-preserving for any dtype policy and for batched and
        unbatched states alike — the payload is the exact C-order bytes
        of every field, prefixed with a versioned header, so a
        checkpoint taken on one engine restores bit-identically on any
        other engine with the same configuration (the session-migration
        contract of :mod:`repro.serve`).
        """
        header = json.dumps({
            "fields": {
                name: [getattr(self, name).dtype.str,
                       list(getattr(self, name).shape)]
                for name in self.FIELDS
            },
        }).encode("utf-8")
        parts = [
            self.BYTES_MAGIC,
            struct.pack("<HI", self.BYTES_VERSION, len(header)),
            header,
        ]
        parts.extend(
            np.ascontiguousarray(getattr(self, name)).tobytes()
            for name in self.FIELDS
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "NumpyDNCState":
        """Reconstruct a state serialized by :meth:`to_bytes`.

        Every returned field owns a fresh contiguous array (the payload
        can be dropped immediately).  Raises
        :class:`~repro.errors.ConfigError` for a payload that is not a
        state checkpoint: wrong magic, unknown version, a truncated or
        oversized body, or a header whose field set does not match
        :attr:`FIELDS`.
        """
        magic_len = len(cls.BYTES_MAGIC)
        prefix_len = magic_len + struct.calcsize("<HI")
        if len(payload) < prefix_len or payload[:magic_len] != cls.BYTES_MAGIC:
            raise ConfigError("from_bytes: payload is not a state checkpoint")
        version, header_len = struct.unpack(
            "<HI", payload[magic_len:prefix_len]
        )
        if version != cls.BYTES_VERSION:
            raise ConfigError(
                f"from_bytes: unsupported checkpoint version {version} "
                f"(this build reads version {cls.BYTES_VERSION})"
            )
        body_start = prefix_len + header_len
        if len(payload) < body_start:
            raise ConfigError("from_bytes: truncated checkpoint header")
        try:
            header = json.loads(payload[prefix_len:body_start])
            fields = header["fields"]
        except (ValueError, KeyError, TypeError):
            raise ConfigError(
                "from_bytes: malformed checkpoint header"
            ) from None
        if tuple(fields) != cls.FIELDS:
            raise ConfigError(
                f"from_bytes: checkpoint fields {tuple(fields)} do not "
                f"match the state layout {cls.FIELDS}"
            )
        arrays = {}
        offset = body_start
        for name, (dtype_str, shape) in fields.items():
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            end = offset + count * dtype.itemsize
            if end > len(payload):
                raise ConfigError(
                    f"from_bytes: truncated checkpoint body at field {name!r}"
                )
            arrays[name] = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            ).reshape(shape).copy()
            offset = end
        if offset != len(payload):
            raise ConfigError(
                f"from_bytes: {len(payload) - offset} trailing bytes after "
                "the last checkpoint field"
            )
        return cls(**arrays)

    # ------------------------------------------------------------------
    def _require_batched(self, op: str) -> int:
        if self.batch_size is None:
            raise ConfigError(f"{op} expects a batched state")
        return self.batch_size

    def take_rows(self, idx: np.ndarray) -> "NumpyDNCState":
        """Copy batch rows ``idx`` (in the given order) into a new state.

        The vectorized gather behind the engine's masked step: one fancy
        index per field instead of a Python loop over sessions.  Rows in
        the result follow the order of ``idx`` exactly, and every field
        is a fresh copy (fancy indexing never returns a view).
        """
        self._require_batched("take_rows")
        return type(self)(**{
            name: getattr(self, name)[idx] for name in self.FIELDS
        })

    def write_rows(self, idx: np.ndarray, other: "NumpyDNCState") -> None:
        """Scatter ``other``'s rows into this state's rows ``idx`` in place.

        The inverse of :meth:`take_rows`: ``other`` row ``k`` lands in
        this state's row ``idx[k]``; all other rows are untouched (the
        masked-step guarantee for sessions sitting a tick out).
        """
        self._require_batched("write_rows")
        for name in self.FIELDS:
            getattr(self, name)[idx] = getattr(other, name)

    # ------------------------------------------------------------------
    @classmethod
    def stack(cls, states: Sequence["NumpyDNCState"]) -> "NumpyDNCState":
        """Pack unbatched states into one batched state (leading axis ``K``).

        Every input must be unbatched and hold the same field shapes and
        dtypes; element ``i`` of the result is bitwise the ``i``-th input
        (``np.stack`` copies, so the batched state shares no memory with
        the inputs).  Raises :class:`~repro.errors.ConfigError` on an
        empty sequence, a batched input, or mismatched shapes/dtypes.
        """
        if not states:
            raise ConfigError("cannot stack an empty sequence of states")
        first = states[0]
        for i, state in enumerate(states):
            if state.batch_size is not None:
                raise ConfigError(
                    f"stack expects unbatched states; states[{i}] has "
                    f"batch_size={state.batch_size}"
                )
            for name in cls.FIELDS:
                a, b = getattr(first, name), getattr(state, name)
                if a.shape != b.shape or a.dtype != b.dtype:
                    raise ConfigError(
                        f"states[{i}].{name} has shape {b.shape} dtype "
                        f"{b.dtype}, expected {a.shape} {a.dtype}"
                    )
        return cls(**{
            name: np.stack([getattr(s, name) for s in states])
            for name in cls.FIELDS
        })

    def unstack(self) -> List["NumpyDNCState"]:
        """Split a batched state into ``B`` independent unbatched states.

        The inverse of :meth:`stack`: each returned state is a contiguous
        copy (it does not alias the batched buffers, so the batched state
        can be dropped without pinning ``B x N^2`` linkage arrays), and
        ``stack(batched.unstack())`` round-trips bitwise.  Raises
        :class:`~repro.errors.ConfigError` on an unbatched state.
        """
        if self.batch_size is None:
            raise ConfigError("unstack expects a batched state")
        # .copy() (not ascontiguousarray, which returns a *view* of an
        # already-contiguous slice) so per-session states never alias the
        # batched buffers.
        return [
            type(self)(**{
                name: getattr(self, name)[i].copy()
                for name in self.FIELDS
            })
            for i in range(self.batch_size)
        ]


__all__ = ["NumpyDNCState"]
