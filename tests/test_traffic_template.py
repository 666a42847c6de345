"""Traffic as a per-tick program: every ``TrafficLog`` observable pinned to
the literal per-tile logging loops and a list-backed, fold-the-oldest-half
log.

The engine records one precomputed template per step, scaled by the
slots it advanced.  The oracle below is the dataflow written out the
long way — one ``add`` per message, per tile, per step, into a log that
really appends and really folds — so the template's content and order,
the scale per step form, and the computed compaction window are all
checked against a reading of the dataflow that shares no code with them.
"""

import numpy as np
import pytest

from repro.core.config import HiMAConfig
from repro.core.engine import TiledEngine, TrafficEvent
from repro.core.perf_model import HiMAPerformanceModel
from repro.noc.packet import Message


class ListTrafficLog:
    """Append one event at a time; past ``max_events``, fold the oldest
    events into running aggregates until ``max_events // 2`` remain."""

    def __init__(self, ct_node, max_events=None):
        self.ct_node = ct_node
        self.max_events = max_events
        self.events = []
        self.dropped_events = 0
        self.folded = []

    def add(self, kernel, src, dst, words):
        if words <= 0 or src == dst:
            return
        self.events.append(TrafficEvent(kernel, src, dst, int(words)))
        if self.max_events is not None and len(self.events) > self.max_events:
            count = len(self.events) - self.max_events // 2
            self.folded += self.events[:count]
            del self.events[:count]
            self.dropped_events += count

    def everything(self):
        return self.folded + self.events

    def total_words(self):
        return sum(e.words for e in self.everything())

    def words_by_kernel(self):
        totals = {}
        for e in self.everything():
            totals[e.kernel] = totals.get(e.kernel, 0) + e.words
        return totals

    def inter_pt_words(self):
        ct = self.ct_node
        return sum(
            e.words for e in self.everything() if ct not in (e.src, e.dst)
        )

    def messages(self, link_words_per_cycle, kernel=None):
        return [
            Message(
                self.dropped_events + i, e.src, e.dst,
                size=max(1, -(-e.words // link_words_per_cycle)),
            )
            for i, e in enumerate(self.events)
            if kernel is None or e.kernel == kernel
        ]


def literal_step(log, engine, b):
    """One step's messages, tile by tile, as the engine dataflow moves them."""
    cfg, mmap = engine.config, engine.memory_map
    nt, ct = cfg.num_tiles, mmap.ct_node
    r, w = cfg.num_reads, cfg.word_size
    for t in range(nt):
        log.add("interface_broadcast", ct, t,
                b * engine.reference.config.interface_size)
    if cfg.distributed:
        for t in range(nt):
            log.add("read_vector_collect", t, ct, b * r * w)
        return
    sparse = cfg.access_policy == "sparse"
    rows = max(1, cfg.access_top_k // nt) if sparse else mmap.rows_per_tile
    # Write-key similarity: local (max, exp-sum) psums up, global pair back.
    for t in range(nt):
        log.add("similarity", t, ct, 2 * b)
    for t in range(nt):
        log.add("similarity", ct, t, 2 * b)
    if sparse:
        sort_rows = rows
    elif cfg.skim_fraction > 0.0:
        sort_rows = max(1, cfg.effective_sort_length // nt)
    else:
        sort_rows = cfg.local_rows
    for t in range(nt):
        log.add("usage_sort", t, ct, b * sort_rows)
        log.add("usage_sort", ct, t, b * sort_rows)
    for hop in range(nt - 1):
        log.add("allocation", hop, hop + 1, b)
    for t in range(nt):
        block_rows, block_cols = mmap.linkage_block(t)
        for owner in mmap.row_segment_owners(block_rows):
            log.add("linkage", owner, t, b * rows)
        for owner in mmap.row_segment_owners(block_cols):
            log.add("linkage", owner, t, 2 * b * rows)
    for hop in range(nt - 1):
        log.add("precedence", hop, hop + 1, b)
    log.add("precedence", nt - 1, ct, b)
    for t in range(nt):
        log.add("similarity", t, ct, 2 * b * r)
    for t in range(nt):
        log.add("similarity", ct, t, 2 * b * r)
    chain = (rows, rows) if sparse else (mmap.block_rows, mmap.block_cols)
    for t in range(nt):
        block_rows, block_cols = mmap.linkage_block(t)
        for owner in mmap.row_segment_owners(block_cols):
            log.add("forward_backward", owner, t, b * r * rows)
        for owner in mmap.row_segment_owners(block_rows):
            log.add("forward_backward", owner, t, b * r * rows)
        bi, bj = mmap.linkage_grid_index(t)
        if bj + 1 < mmap.nt_w:
            log.add("forward_backward", t, t + 1, b * r * chain[0])
        if bi + 1 < mmap.nt_h:
            log.add("forward_backward", t, t + mmap.nt_w, b * r * chain[1])
    for t in range(nt):
        log.add("memory_read", t, ct, b * r * w)


def observables(log):
    kernels = sorted(log.words_by_kernel())
    return {
        "events": [(e.kernel, e.src, e.dst, e.words) for e in log.events],
        "messages": [(m.msg_id, m.src, m.dst, m.size) for m in log.messages(8)],
        "by_kernel_messages": {
            k: [(m.msg_id, m.src, m.dst, m.size)
                for m in log.messages(8, kernel=k)]
            for k in kernels
        },
        "total_words": log.total_words(),
        "words_by_kernel": list(log.words_by_kernel().items()),
        "inter_pt_words": log.inter_pt_words(),
        "dropped_events": log.dropped_events,
    }


CELLS = {
    "dense": {},
    "rowwise": {"submatrix_partition": False},
    "dncd": {"distributed": True},
    "dncd_skim": {"distributed": True, "skim_fraction": 0.2},
    "sparse": {"access_policy": "sparse", "access_top_k": 16},
}
B, TICKS = 4, 40


def drive(engine, mode, rng):
    """Yield the slot count each of ``TICKS`` steps advances."""
    if mode == "unbatched":
        state = engine.initial_state()
        for _ in range(TICKS):
            _, state = engine.step(rng.standard_normal(16), state)
            yield 1
        return
    state = engine.initial_state(batch_size=B)
    for t in range(TICKS):
        x = rng.standard_normal((B, 16))
        if mode == "batched":
            _, state = engine.step(x, state)
            yield B
            continue
        if mode == "full":
            active = rng.permutation(B)
        else:
            # Partial occupancy, with an empty tick now and then.
            active = rng.choice(B, size=t % B, replace=False)
        engine.step(x, state, active=active)
        yield active.size


@pytest.mark.parametrize("max_events", [None, 16, 4096])
@pytest.mark.parametrize(
    "mode", ["unbatched", "batched", "compact", "dense_capacity", "full"]
)
@pytest.mark.parametrize("cell", list(CELLS))
def test_every_observable_matches_the_literal_loops(cell, mode, max_events):
    # Partial dense ticks gather below kernels.MIN_BLOCKED_N rows and
    # step in place from it.
    config = HiMAConfig(
        memory_size=128 if mode == "dense_capacity" else 64, word_size=16,
        num_reads=2, num_tiles=8, hidden_size=32, **CELLS[cell],
    )
    engine = TiledEngine(config, rng=0, traffic_max_events=max_events)
    oracle = ListTrafficLog(config.num_tiles, max_events)
    for step, slots in enumerate(drive(engine, mode, np.random.default_rng(7))):
        if slots:
            literal_step(oracle, engine, slots)
        if step % 13 == 0:  # reading mid-run must not disturb the log
            assert observables(engine.traffic) == observables(oracle)
    assert observables(engine.traffic) == observables(oracle)
    if max_events is not None:
        assert len(engine.traffic.events) <= max_events


def test_add_is_the_one_message_record():
    log = TiledEngine(
        HiMAConfig(memory_size=64, word_size=16, num_reads=2, num_tiles=4,
                   hidden_size=32),
        rng=0, traffic_max_events=6,
    ).traffic
    oracle = ListTrafficLog(4, 6)
    for i in range(30):
        for target in (log, oracle):
            target.add("linkage", i % 5, (i + 2) % 5, i % 4 * 7)
    assert observables(log) == observables(oracle)


def test_steady_masked_ticks_build_no_events_until_read(monkeypatch):
    """The served tick records its traffic without materializing a
    single :class:`TrafficEvent`; only reading ``events`` expands."""
    config = HiMAConfig.hima_dnc(
        backend="reference", memory_size=256, word_size=64, num_reads=4,
        num_tiles=16, hidden_size=256, dtype="float64",
    )
    engine = TiledEngine(config, rng=0, traffic_max_events=4096)
    built = []
    original = TrafficEvent.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TrafficEvent, "__init__", counting)
    rng = np.random.default_rng(0)
    slots = 16
    state = engine.initial_state(batch_size=slots)
    for t in range(16):
        live = (6, 9, 13, 16)[t % 4]  # partial and full, all in place
        engine.step(
            rng.standard_normal((slots, config.word_size)), state,
            active=np.sort(rng.choice(slots, size=live, replace=False)),
        )
    assert engine.traffic.total_words() > 0
    assert engine.traffic.words_by_kernel()
    assert built == []
    events = engine.traffic.events
    assert 0 < len(events) <= 4096 and len(built) == len(events)


def test_hop_words_from_pair_aggregates_match_the_event_walk():
    model = HiMAPerformanceModel(
        HiMAConfig(memory_size=64, word_size=16, num_reads=2, num_tiles=8,
                   hidden_size=32)
    )
    got = model._hop_words()
    hops = model.noc.routing.hops
    walked = 0.0
    for e in model._engine.traffic.events:
        walked += e.words * hops(e.src, e.dst)
    assert got == walked > 0
