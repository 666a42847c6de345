"""Session routing policies for the sharded serving cluster.

Two pluggable policy surfaces, both consumed by
:class:`repro.serve.cluster.ShardedServer` (and so by its process
transport, :class:`repro.serve.proc.ProcCluster`):

* :class:`PlacementPolicy` — where a **new** session opens.
  :class:`LeastLoadedPlacement` (the default) packs onto the
  emptiest shard; :class:`ConsistentHashPlacement` routes by a stable
  hash of the session id (or a routing key extracted from it, e.g. a
  tenant prefix), so co-keyed sessions land together and placement
  survives process restarts — the property a distributed front-end
  tier needs.

* :class:`RebalancePolicy` — which **live** sessions migrate between
  shards after a tick.  :class:`HotSpotRebalance` drains the
  most-loaded shard toward the least-loaded one whenever the session
  spread exceeds a threshold, which is exactly the corrective a
  hash-placed Zipf-skewed workload needs (see
  :func:`repro.serve.loadgen.generate_zipf_scripts`).

Every policy is deterministic: the same inputs produce the same
decisions, so a cluster trace replays exactly — the serving layer's
reproducibility contract extends through routing.  Hashes come from
:mod:`hashlib` (``blake2b``), never Python's salted ``hash()``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


def _stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key``."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class PlacementPolicy:
    """Chooses the shard a new session opens on."""

    def place(self, session_id: str, shards: Sequence) -> int:
        """Index into ``shards`` for ``session_id``.

        ``shards`` are the cluster's shard handles (in-process
        :class:`~repro.serve.shard.EngineShard` or worker-process
        :class:`~repro.serve.proc.ProcWorker`); policies may read their
        ``load`` / ``queue_depth`` but must not mutate them.
        """
        raise NotImplementedError


class LeastLoadedPlacement(PlacementPolicy):
    """Fewest open sessions wins; ties break on queue depth, then index."""

    def place(self, session_id: str, shards: Sequence) -> int:
        return min(
            range(len(shards)),
            key=lambda i: (shards[i].load, shards[i].queue_depth, i),
        )


class ConsistentHashPlacement(PlacementPolicy):
    """Stable hash-ring placement with virtual nodes.

    ``key_of`` extracts the routing key from the session id (default:
    the id itself); sessions sharing a key always land on the same
    shard, and the ring's ``replicas`` virtual nodes per shard keep the
    key space split evenly.  Because the ring is built from stable
    hashes, placement is identical across processes and runs — and
    changing the shard count remaps only the keys whose ring arc moved,
    not the whole population.
    """

    def __init__(
        self,
        replicas: int = 64,
        key_of: Optional[Callable[[str], str]] = None,
    ):
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self.key_of = key_of
        #: shard count -> (sorted ring point hashes, shard index per point)
        self._rings: Dict[int, Tuple[List[int], List[int]]] = {}

    def _ring(self, num_shards: int) -> Tuple[List[int], List[int]]:
        ring = self._rings.get(num_shards)
        if ring is None:
            points = sorted(
                (_stable_hash(f"shard-{shard}-vnode-{replica}"), shard)
                for shard in range(num_shards)
                for replica in range(self.replicas)
            )
            ring = ([p for p, _ in points], [s for _, s in points])
            self._rings[num_shards] = ring
        return ring

    def place(self, session_id: str, shards: Sequence) -> int:
        key = session_id if self.key_of is None else self.key_of(session_id)
        hashes, owners = self._ring(len(shards))
        index = bisect.bisect_right(hashes, _stable_hash(key))
        return owners[index % len(owners)]


class RebalancePolicy:
    """Plans checkpoint-based session migrations after each cluster tick."""

    def plan(self, shards: Sequence) -> List[Tuple[str, int, int]]:
        """``(session_id, src_shard, dst_shard)`` moves to apply now.

        ``shards`` are the cluster's shard handles; policies read only
        the handle surface (``load``, ``queue_depth``, ``capacity``,
        ``session_ids()``).  Called by the cluster's ``run_tick``
        between ticks, when no batch is in flight; the cluster executes
        the moves in order and skips any that turned stale (session
        closed meanwhile, destination full).
        """
        raise NotImplementedError


class HotSpotRebalance(RebalancePolicy):
    """Move sessions off the hottest shard when the spread grows too wide.

    Each tick, while the most-loaded shard holds more than
    ``max_spread`` sessions above the least-loaded one (and the
    destination has a free slot), the hottest shard's least-recently
    active session migrates — up to ``max_moves`` per tick, so
    rebalancing trickles instead of thundering.  LRU-first victims make
    the move cheapest in expectation: the idlest session is the least
    likely to have a request in flight next tick.
    """

    def __init__(self, max_spread: int = 2, max_moves: int = 1):
        if max_spread < 1:
            raise ConfigError(f"max_spread must be >= 1, got {max_spread}")
        if max_moves < 1:
            raise ConfigError(f"max_moves must be >= 1, got {max_moves}")
        self.max_spread = max_spread
        self.max_moves = max_moves

    def plan(self, shards: Sequence) -> List[Tuple[str, int, int]]:
        moves: List[Tuple[str, int, int]] = []
        loads = [shard.load for shard in shards]
        planned = set()
        for _ in range(self.max_moves):
            hot = max(range(len(shards)), key=lambda i: (loads[i], -i))
            cold = min(range(len(shards)), key=lambda i: (loads[i], i))
            if loads[hot] - loads[cold] <= self.max_spread:
                break
            if loads[cold] >= shards[cold].capacity:
                break
            victim = next(
                (
                    sid for sid in shards[hot].session_ids()  # LRU first
                    if sid not in planned
                ),
                None,
            )
            if victim is None:
                break
            planned.add(victim)
            moves.append((victim, hot, cold))
            loads[hot] -= 1
            loads[cold] += 1
        return moves


__all__ = [
    "PlacementPolicy",
    "LeastLoadedPlacement",
    "ConsistentHashPlacement",
    "RebalancePolicy",
    "HotSpotRebalance",
]
