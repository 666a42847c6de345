"""Resident-slot state arena: session state that never leaves the batch.

:class:`StateArena` is the serving layer's answer to the per-tick
gather/scatter tax: instead of packing K independent unbatched states
into a fresh batched state every scheduler tick (and unpacking them
right after), every session is pinned to one **slot** — one row of a
single preallocated ``(B_max, ...)`` batched
:class:`~repro.dnc.state.NumpyDNCState` — at ``open_session`` time
and lives there until it closes or is evicted.  The engine's masked
step (:meth:`repro.core.engine.TiledEngine.step` with ``active=``)
then advances the dispatched slots *in place*, so per-session state is
copied exactly twice in its lifetime:

* **join** — one slot write (:meth:`bind` zeroes the row; a checkpoint
  restore goes through :meth:`write_slot`);
* **leave/drain** — one slot read (:meth:`read_slot`), which is also
  the checkpoint path.

Slot lifetime: a slot freed by :meth:`release` returns to the free list
and is reused by the next :meth:`bind` (lowest-numbered free slot
first, so occupancy stays dense at the front of the arena and the
engine's zero-copy dense fast path triggers whenever every slot is
dispatched).  Freed slots are *not* scrubbed — :meth:`bind` resets the
row, so a departed session's state is unreachable through the API.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.dnc.state import NumpyDNCState
from repro.errors import CapacityError, ConfigError


class StateArena:
    """Slot-pinned resident batched state for up to ``capacity`` sessions.

    ``state_factory`` is :meth:`TiledEngine.initial_state` (or anything
    with the same ``batch_size=`` signature); the arena allocates the
    full ``(capacity, ...)`` batched state once, up front — admission
    control (the session store's capacity) is what bounds memory, so
    serving never allocates per-session linkage matrices on the fly.
    """

    def __init__(self, state_factory, capacity: int):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: The resident batched state.  The *object* is the stable handle
        #: (the engine's dense masked step rebinds its field arrays in
        #: place of a copy-back pass); slot ``i`` is row ``i`` of every
        #: field at any moment.
        self.state: NumpyDNCState = state_factory(batch_size=capacity)
        if self.state.batch_size != capacity:
            raise ConfigError(
                f"state_factory produced batch_size={self.state.batch_size}, "
                f"expected {capacity}"
            )
        self._slot_of: Dict[str, int] = {}
        #: Free slots, highest first, so ``pop()`` hands out the lowest.
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._slot_of

    @property
    def occupancy(self) -> int:
        """Number of bound slots."""
        return len(self._slot_of)

    @property
    def row_nbytes(self) -> int:
        """State bytes of one slot (one session's full recurrent context)."""
        return self.state.row_nbytes

    def slot_of(self, session_id: str) -> int:
        try:
            return self._slot_of[session_id]
        except KeyError:
            raise ConfigError(
                f"session {session_id!r} is not bound to a slot"
            ) from None

    def indices(self, session_ids: Sequence[str]) -> np.ndarray:
        """Slots for ``session_ids``, preserving the given order.

        Order preservation matters for numerics: the engine's compact
        masked form (partial ticks of dense engines below
        ``kernels.MIN_BLOCKED_N`` rows) gathers rows in this order, so
        dispatch order — not slot numbering — determines batch row order
        there.
        """
        return np.fromiter(
            (self.slot_of(sid) for sid in session_ids),
            dtype=np.intp, count=len(session_ids),
        )

    # ------------------------------------------------------------------
    def bind(self, session_id: str) -> int:
        """Pin a new session to a free slot; resets the row to zeros.

        Returns the slot index.  Raises
        :class:`~repro.errors.CapacityError` when the arena is full and
        :class:`~repro.errors.ConfigError` for a duplicate id.
        """
        if session_id in self._slot_of:
            raise ConfigError(
                f"session {session_id!r} is already bound to slot "
                f"{self._slot_of[session_id]}"
            )
        if not self._free:
            raise CapacityError(
                f"state arena full ({self.capacity} slots bound)"
            )
        slot = self._free.pop()
        for name in NumpyDNCState.FIELDS:
            getattr(self.state, name)[slot] = 0.0
        self._slot_of[session_id] = slot
        return slot

    def release(self, session_id: str) -> int:
        """Unpin a session; its slot returns to the free list."""
        slot = self.slot_of(session_id)
        del self._slot_of[session_id]
        self._free.append(slot)
        return slot

    # ------------------------------------------------------------------
    def read_slot(self, session_id: str) -> NumpyDNCState:
        """Copy a session's row out as an unbatched state (checkpoint read).

        The returned state owns its arrays — it survives the arena (and
        the session) and can be fed back through :meth:`write_slot` or
        the engine's unbatched step.
        """
        slot = self.slot_of(session_id)
        return NumpyDNCState(**{
            name: getattr(self.state, name)[slot].copy()
            for name in NumpyDNCState.FIELDS
        })

    def write_slot(self, session_id: str, state: NumpyDNCState) -> None:
        """Overwrite a session's row from an unbatched state (restore).

        Raises :class:`~repro.errors.ConfigError` for a batched input or
        mismatched field shapes/dtypes (a checkpoint from a different
        engine config cannot land in this arena).
        """
        slot = self.slot_of(session_id)
        if state.batch_size is not None:
            raise ConfigError("write_slot expects an unbatched state")
        for name in NumpyDNCState.FIELDS:
            dst = getattr(self.state, name)
            src = getattr(state, name)
            if src.shape != dst.shape[1:] or src.dtype != dst.dtype:
                raise ConfigError(
                    f"write_slot: field {name!r} has shape {src.shape} dtype "
                    f"{src.dtype}, expected {dst.shape[1:]} {dst.dtype}"
                )
            dst[slot] = src


__all__ = ["StateArena"]
