"""Synthetic open-loop load for the session server.

The generator produces deterministic "Poisson-ish" traffic: session
arrival gaps and lengths are drawn from exponential/geometric
distributions through a seeded :mod:`numpy.random` generator, so a given
seed always replays the identical workload — load tests stay
reproducible while still exercising ragged, asynchronous arrival
patterns.  Two workload styles mix the per-step inputs:

* ``"copy"`` — a copy-task-shaped session: random sign patterns to
  store, then a zeroed recall phase;
* ``"recall"`` — an associative-recall-shaped session: alternating
  sparse key vectors and dense value vectors.

:func:`run_open_loop` replays the scripts against any server object in
the stack; :func:`run_rolling_restart` does the same while SIGKILLing
:class:`~repro.serve.proc.ProcCluster` workers mid-stream.  Timing the
stack is ``perf/``'s job (``python3 perf/run.py``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serve.batcher import StepRequest
from repro.serve.metrics import tenant_of
from repro.utils.rng import SeedLike, new_rng

WORKLOAD_KINDS = ("copy", "recall")


@dataclass(frozen=True)
class SessionScript:
    """One scripted session: when it arrives and every input it will send."""

    session_id: str
    arrival_tick: int
    kind: str
    inputs: np.ndarray  # (T, input_size)

    @property
    def length(self) -> int:
        return int(self.inputs.shape[0])


def _copy_inputs(gen: np.random.Generator, length: int, input_size: int) -> np.ndarray:
    """Store random sign patterns, then recall over zero inputs."""
    store = max(1, length // 2)
    xs = np.zeros((length, input_size))
    xs[:store] = gen.integers(0, 2, size=(store, input_size)) * 2.0 - 1.0
    return xs

def _recall_inputs(gen: np.random.Generator, length: int, input_size: int) -> np.ndarray:
    """Alternate sparse key vectors with dense value vectors."""
    xs = gen.standard_normal((length, input_size))
    keys = np.zeros((length, input_size))
    hot = gen.integers(0, input_size, size=length)
    keys[np.arange(length), hot] = 2.0
    xs[::2] = keys[::2]
    return xs


_WORKLOADS = {"copy": _copy_inputs, "recall": _recall_inputs}


def generate_zipf_scripts(
    input_size: int,
    num_sessions: int = 32,
    num_tenants: int = 8,
    zipf_exponent: float = 1.2,
    mean_session_len: float = 8.0,
    mean_interarrival_ticks: float = 1.0,
    kinds: Sequence[str] = WORKLOAD_KINDS,
    rng: SeedLike = 0,
) -> List[SessionScript]:
    """Tenant-skewed open-loop traffic: the hot-shard generator.

    Like :func:`generate_scripts`, but every session belongs to a
    *tenant* drawn from a truncated Zipf distribution over
    ``num_tenants`` tenants (tenant ``k`` with weight ``(k+1) **
    -zipf_exponent``), and session ids carry the tenant as a routing
    prefix — ``t03-copy-7`` — that :func:`tenant_of` extracts.  Routed
    through tenant-keyed consistent hashing, the head tenants pile onto
    a few shards, which is precisely the imbalance a
    :class:`~repro.serve.router.RebalancePolicy` exists to fix; load
    tests use this mix to exercise migration under realistic skew.

    Determinism: one seed fixes the whole trace — tenants, arrival
    ticks, lengths, kinds, and every input value — exactly like the
    uniform generator (pinned in ``tests/test_serve_store.py``).
    """
    for kind in kinds:
        if kind not in _WORKLOADS:
            raise ConfigError(
                f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}"
            )
    if num_tenants < 1:
        raise ConfigError(f"num_tenants must be >= 1, got {num_tenants}")
    if zipf_exponent <= 0.0:
        raise ConfigError(
            f"zipf_exponent must be positive, got {zipf_exponent}"
        )
    gen = new_rng(rng)
    ranks = np.arange(1, num_tenants + 1, dtype=float)
    weights = ranks ** -zipf_exponent
    weights /= weights.sum()
    scripts: List[SessionScript] = []
    tick = 0.0
    for i in range(num_sessions):
        if mean_interarrival_ticks > 0 and i > 0:
            tick += gen.exponential(mean_interarrival_ticks)
        tenant = int(gen.choice(num_tenants, p=weights))
        length = 1 + int(gen.geometric(1.0 / max(mean_session_len - 1.0, 1.0)))
        kind = kinds[int(gen.integers(0, len(kinds)))]
        scripts.append(SessionScript(
            session_id=f"t{tenant:02d}-{kind}-{i}",
            arrival_tick=int(tick),
            kind=kind,
            inputs=_WORKLOADS[kind](gen, length, input_size),
        ))
    return scripts


def generate_scripts(
    input_size: int,
    num_sessions: int = 16,
    mean_session_len: float = 8.0,
    mean_interarrival_ticks: float = 1.0,
    kinds: Sequence[str] = WORKLOAD_KINDS,
    rng: SeedLike = 0,
) -> List[SessionScript]:
    """Deterministic open-loop arrival schedule (same seed, same traffic).

    Arrival gaps are exponential with mean ``mean_interarrival_ticks``
    (0 makes every session arrive at tick 0 — maximum concurrency);
    session lengths are ``1 + Geometric`` with mean ``mean_session_len``
    (min 2 steps, for ``mean_session_len >= 2``); workload kinds are
    drawn uniformly from ``kinds``.
    """
    for kind in kinds:
        if kind not in _WORKLOADS:
            raise ConfigError(
                f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}"
            )
    gen = new_rng(rng)
    scripts: List[SessionScript] = []
    tick = 0.0
    for i in range(num_sessions):
        if mean_interarrival_ticks > 0 and i > 0:
            tick += gen.exponential(mean_interarrival_ticks)
        length = 1 + int(gen.geometric(1.0 / max(mean_session_len - 1.0, 1.0)))
        kind = kinds[int(gen.integers(0, len(kinds)))]
        scripts.append(SessionScript(
            session_id=f"{kind}-{i}",
            arrival_tick=int(tick),
            kind=kind,
            inputs=_WORKLOADS[kind](gen, length, input_size),
        ))
    return scripts


def run_open_loop(
    server,
    scripts: Sequence[SessionScript],
    max_ticks: int = 100_000,
) -> Dict[str, List[StepRequest]]:
    """Replay scripted sessions against a server; returns per-session results.

    ``server`` is anything with the serving surface — a
    :class:`~repro.serve.SessionServer` /
    :class:`~repro.serve.shard.EngineShard` or a multi-shard
    :class:`~repro.serve.cluster.ShardedServer` (``open_session`` /
    ``submit`` / ``run_tick`` / ``queue_depth`` / ``tick``).

    Open-loop: sessions arrive on their scripted ticks whatever the
    server's backlog.  Each session submits its whole input stream at
    arrival (the batcher serializes steps within a session).  Admission
    control sheds whole *streams*, never a step out of the middle of
    one: a refused open leaves that session's id mapped to an empty
    result list, and a refused mid-stream submit (queue backpressure)
    drops the session's remaining steps — submitting step ``t+1`` after
    a lost step ``t`` would silently put the session on a different
    trajectory than its script.
    """
    results: Dict[str, List[StepRequest]] = {s.session_id: [] for s in scripts}
    pending = sorted(scripts, key=lambda s: (s.arrival_tick, s.session_id))
    arrivals = iter(pending)
    next_script = next(arrivals, None)
    for _ in range(max_ticks):
        while next_script is not None and next_script.arrival_tick <= server.tick:
            if server.open_session(next_script.session_id) is not None:
                for x in next_script.inputs:
                    request = server.submit(next_script.session_id, x)
                    if request is None:
                        break
                    results[next_script.session_id].append(request)
            next_script = next(arrivals, None)
        if next_script is None and server.queue_depth == 0:
            return results
        server.run_tick()
    raise ConfigError(f"load did not drain within {max_ticks} ticks")


def run_rolling_restart(
    cluster,
    scripts: Sequence[SessionScript],
    kill_every_ticks: int = 8,
    max_ticks: int = 100_000,
) -> Tuple[Dict[str, List[StepRequest]], int]:
    """Open-loop replay with a rolling SIGKILL drill against a ProcCluster.

    Identical traffic semantics to :func:`run_open_loop`, but every
    ``kill_every_ticks`` cluster ticks one worker — round-robin across
    the cluster — is SIGKILLed mid-stream while its sessions have live
    traffic.  The cluster's checkpoint/replay recovery must carry every
    affected session through on a replacement process; callers assert
    that the results match solo stepping exactly as in the never-killed
    run.  Returns ``(per-session results, workers killed)``.
    """
    if kill_every_ticks < 1:
        raise ConfigError(
            f"kill_every_ticks must be >= 1, got {kill_every_ticks}"
        )
    results: Dict[str, List[StepRequest]] = {s.session_id: [] for s in scripts}
    pending = sorted(scripts, key=lambda s: (s.arrival_tick, s.session_id))
    arrivals = iter(pending)
    next_script = next(arrivals, None)
    kills = 0
    for tick in range(max_ticks):
        while next_script is not None and next_script.arrival_tick <= cluster.tick:
            if cluster.open_session(next_script.session_id) is not None:
                for x in next_script.inputs:
                    request = cluster.submit(next_script.session_id, x)
                    if request is None:
                        break
                    results[next_script.session_id].append(request)
            next_script = next(arrivals, None)
        if next_script is None and cluster.queue_depth == 0:
            return results, kills
        if tick > 0 and tick % kill_every_ticks == 0 and cluster.queue_depth > 0:
            cluster.kill_worker(kills % cluster.num_workers)
            kills += 1
        cluster.run_tick()
    raise ConfigError(f"load did not drain within {max_ticks} ticks")


__all__ = [
    "WORKLOAD_KINDS",
    "SessionScript",
    "tenant_of",
    "generate_scripts",
    "generate_zipf_scripts",
    "run_open_loop",
    "run_rolling_restart",
]
