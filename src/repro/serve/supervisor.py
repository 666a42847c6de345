"""Crash-recovery bookkeeping for process-level serving.

:class:`CheckpointSupervisor` is the front door's durable memory of every
session served by a :class:`~repro.serve.proc.ProcCluster`: the last
checkpoint each worker shipped (the versioned
:meth:`~repro.dnc.state.NumpyDNCState.to_bytes` payload plus the
step count it captures) and the *replay log* — every input submitted
since that checkpoint, in per-session step order.  Together those two
pieces reconstruct any session on a fresh worker process after a crash:

1. restore the checkpoint (bitwise, by the wire-format contract), or
   open a fresh session when none was taken yet (a zeroed initial state
   is exactly what the original open produced);
2. re-submit the logged inputs in order.  Steps that had already
   completed recompute the same values (the engine is deterministic —
   bitwise at equal dispatch order, <= 1e-10 vs solo stepping in any
   interleaving), and steps that were still pending complete normally.

The supervisor is transport-agnostic and holds no process handles; the
cluster calls :meth:`on_submit` / :meth:`on_checkpoint` / :meth:`on_close`
as events happen and :meth:`recovery_plan` when a worker dies.  Log
memory is bounded by the checkpoint cadence: :meth:`on_checkpoint`
prunes every logged input the checkpoint already covers.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError


class CheckpointSupervisor:
    """Per-session checkpoints + replay logs for worker crash recovery."""

    def __init__(self):
        #: session id -> (checkpoint payload, steps completed at capture)
        self._checkpoints: Dict[str, Tuple[bytes, int]] = {}
        #: session id -> FIFO of (step index, input) not yet checkpointed
        self._logs: Dict[str, Deque[Tuple[int, np.ndarray]]] = {}
        #: session id -> next step index to assign on submit
        self._next_step: Dict[str, int] = {}
        #: Checkpoint payloads accepted over this supervisor's lifetime.
        self.checkpoints_taken = 0
        #: Sessions rebuilt through :meth:`recovery_plan`.
        self.sessions_recovered = 0
        #: worker index -> flight-recorder dump (last-K tick records)
        #: captured at the moment the worker died.  Filled by
        #: :meth:`on_worker_death`; later deaths of the same worker slot
        #: overwrite earlier dumps (the newest crash is the one being
        #: debugged).
        self.postmortems: Dict[int, List[dict]] = {}
        #: Worker deaths reported via :meth:`on_worker_death`.
        self.worker_postmortems = 0

    # ------------------------------------------------------------------
    def __contains__(self, session_id: str) -> bool:
        return session_id in self._next_step

    def sessions(self) -> List[str]:
        """Tracked session ids, in open order."""
        return list(self._next_step)

    def log_depth(self, session_id: str) -> int:
        """Logged (not yet checkpointed) inputs for ``session_id``."""
        return len(self._logs.get(session_id, ()))

    def checkpoint_steps(self, session_id: str) -> int:
        """Steps baked into ``session_id``'s checkpoint (0 when none)."""
        checkpoint = self._checkpoints.get(session_id)
        return checkpoint[1] if checkpoint is not None else 0

    # ------------------------------------------------------------------
    def on_open(self, session_id: str) -> None:
        """A session opened fresh (zeroed state, step counter at 0)."""
        if session_id in self._next_step:
            raise ConfigError(
                f"supervisor already tracks session {session_id!r}"
            )
        self._next_step[session_id] = 0
        self._logs[session_id] = deque()

    def on_restore(self, session_id: str, payload: bytes) -> None:
        """A session opened *from* a checkpoint supplied by the caller.

        The payload becomes the session's recovery baseline and its step
        counter restarts at 0 — step indices are relative to the last
        checkpoint, not to the session's absolute lifetime.
        """
        if session_id in self._next_step:
            raise ConfigError(
                f"supervisor already tracks session {session_id!r}"
            )
        self._next_step[session_id] = 0
        self._logs[session_id] = deque()
        self._checkpoints[session_id] = (payload, 0)

    def on_submit(self, session_id: str, x: np.ndarray) -> int:
        """Log one submitted input; returns its per-session step index.

        The input is copied — clients commonly reuse one buffer per
        step, and the replay log must keep the submitted values.
        """
        try:
            step = self._next_step[session_id]
        except KeyError:
            raise ConfigError(
                f"supervisor does not track session {session_id!r}"
            ) from None
        self._next_step[session_id] = step + 1
        self._logs[session_id].append((step, np.array(x, copy=True)))
        return step

    def on_checkpoint(
        self, session_id: str, payload: bytes, steps_completed: int
    ) -> None:
        """Accept a fresh checkpoint; prune the log it supersedes.

        ``steps_completed`` counts the session's completed steps *in the
        supervisor's step index space* — every logged input with a lower
        index is baked into the checkpointed state and can be dropped.
        """
        if session_id not in self._next_step:
            raise ConfigError(
                f"supervisor does not track session {session_id!r}"
            )
        self._checkpoints[session_id] = (payload, steps_completed)
        log = self._logs[session_id]
        while log and log[0][0] < steps_completed:
            log.popleft()
        self.checkpoints_taken += 1

    def on_close(self, session_id: str) -> None:
        """Forget a closed/evicted session (idempotent)."""
        self._next_step.pop(session_id, None)
        self._logs.pop(session_id, None)
        self._checkpoints.pop(session_id, None)

    # ------------------------------------------------------------------
    def on_worker_death(self, worker: int, records: List[dict]) -> None:
        """Store a dead worker's flight-recorder dump for postmortem.

        ``records`` is the oldest-first last-K tick history the cluster's
        :class:`~repro.obs.recorder.FlightRecorder` kept for the worker
        (each entry: ``tick``, ``spans``, ``phase_stats``).  Stored even
        when empty so callers can distinguish "worker died with no
        recorded ticks" from "death never reported".
        """
        self.postmortems[worker] = list(records)
        self.worker_postmortems += 1

    # ------------------------------------------------------------------
    def recovery_plan(
        self, session_id: str
    ) -> Tuple[Optional[bytes], List[Tuple[int, np.ndarray]]]:
        """How to rebuild ``session_id`` on a fresh worker.

        Returns ``(checkpoint_payload_or_None, replay)`` where ``replay``
        is the logged ``(step index, input)`` list to re-submit in order
        after restoring the checkpoint (or after a fresh open when no
        checkpoint was ever taken — the new zeroed state matches the
        original open bitwise, so full replay is exact too).
        """
        if session_id not in self._next_step:
            raise ConfigError(
                f"supervisor does not track session {session_id!r}"
            )
        checkpoint = self._checkpoints.get(session_id)
        payload = checkpoint[0] if checkpoint is not None else None
        replay = [(step, x) for step, x in self._logs[session_id]]
        self.sessions_recovered += 1
        return payload, replay


__all__ = ["CheckpointSupervisor"]
