"""Per-session DNC state management: create / touch / TTL+LRU evict.

A *session* is one user's independent DNC sequence.  Its recurrent
state (dominated by the ``N x N`` linkage matrix) lives in a
:class:`~repro.serve.arena.StateArena` slot; :class:`SessionStore`
provides the admission/eviction bookkeeping around it — a capacity limit
plus idle-session eviction is what lets one engine serve an open-ended
user population within the arena's preallocated batch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.errors import CapacityError, ConfigError


@dataclass
class SessionRecord:
    """One live session's eviction bookkeeping (the arena owns its state)."""

    session_id: str
    created_tick: int
    last_active_tick: int
    steps_completed: int = 0


class SessionStore:
    """Capacity-bounded mapping of session id -> :class:`SessionRecord`.

    Eviction policy, in order:

    1. **TTL** — sessions idle for more than ``ttl_ticks`` scheduler
       ticks are dropped by :meth:`evict_expired` (the server runs this
       every tick).
    2. **LRU** — when :meth:`create` finds the store full after expiring
       TTL victims, it drops the least-recently-active session if
       ``lru_evict`` is enabled, else raises
       :class:`~repro.errors.CapacityError`.

    Sessions named in a ``protect`` set (the server passes the sessions
    with queued requests) are never evicted — dropping state out from
    under an in-flight request would corrupt that user's sequence.
    """

    def __init__(
        self,
        capacity: int = 64,
        ttl_ticks: Optional[int] = None,
        lru_evict: bool = True,
        on_evict: Optional[Callable[[str, str], None]] = None,
    ):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if ttl_ticks is not None and ttl_ticks < 1:
            raise ConfigError(f"ttl_ticks must be >= 1 or None, got {ttl_ticks}")
        self.capacity = capacity
        self.ttl_ticks = ttl_ticks
        self.lru_evict = lru_evict
        #: Called as ``on_evict(session_id, reason)`` with reason ``"ttl"``
        #: or ``"lru"`` whenever the store drops a session on its own
        #: (never for an explicit :meth:`remove`).  The server uses this
        #: to count evictions and drop any stale queue.
        self.on_evict = on_evict
        #: LRU order: first entry is the least recently active.
        self._records: "OrderedDict[str, SessionRecord]" = OrderedDict()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._records

    def ids(self) -> List[str]:
        """Session ids, least recently active first."""
        return list(self._records)

    def get(self, session_id: str) -> SessionRecord:
        try:
            return self._records[session_id]
        except KeyError:
            raise ConfigError(f"unknown session {session_id!r}") from None

    # ------------------------------------------------------------------
    def create(
        self,
        session_id: str,
        tick: int,
        protect: Optional[Set[str]] = None,
    ) -> SessionRecord:
        """Admit a new session, evicting (TTL, then LRU) to make room.

        Returns the new record; raises
        :class:`~repro.errors.CapacityError` when the store is full and
        no evictable victim exists, and
        :class:`~repro.errors.ConfigError` for a duplicate id.
        """
        if session_id in self._records:
            raise ConfigError(f"session {session_id!r} already exists")
        if len(self._records) >= self.capacity:
            self.evict_expired(tick, protect=protect)
        if len(self._records) >= self.capacity:
            victim = self._lru_victim(protect) if self.lru_evict else None
            if victim is None:
                raise CapacityError(
                    f"session store full ({self.capacity} sessions, none evictable)"
                )
            self.remove(victim)
            if self.on_evict is not None:
                self.on_evict(victim, "lru")
        record = SessionRecord(
            session_id=session_id,
            created_tick=tick,
            last_active_tick=tick,
        )
        self._records[session_id] = record
        return record

    def touch(self, session_id: str, tick: int) -> SessionRecord:
        """Mark activity: refreshes TTL and moves to the LRU tail."""
        record = self.get(session_id)
        record.last_active_tick = tick
        self._records.move_to_end(session_id)
        return record

    def remove(self, session_id: str) -> SessionRecord:
        record = self.get(session_id)
        del self._records[session_id]
        return record

    # ------------------------------------------------------------------
    def evict_expired(
        self, tick: int, protect: Optional[Set[str]] = None
    ) -> List[str]:
        """Drop sessions idle for more than ``ttl_ticks``; returns their ids."""
        if self.ttl_ticks is None:
            return []
        protect = protect or set()
        expired = [
            sid
            for sid, record in self._records.items()
            if sid not in protect
            and tick - record.last_active_tick > self.ttl_ticks
        ]
        for sid in expired:
            del self._records[sid]
            if self.on_evict is not None:
                self.on_evict(sid, "ttl")
        return expired

    def _lru_victim(self, protect: Optional[Set[str]]) -> Optional[str]:
        protect = protect or set()
        for sid in self._records:  # OrderedDict: least recent first
            if sid not in protect:
                return sid
        return None


__all__ = ["SessionRecord", "SessionStore"]
