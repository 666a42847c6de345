"""Memory-to-tile placement.

External memory and the length-``N`` state memories are partitioned
row-wise (the Eq. 1/2 optimum): tile ``t`` owns rows
``[t*N/Nt, (t+1)*N/Nt)``.  The ``N x N`` linkage is partitioned
submatrix-wise on an ``Nt_h x Nt_w`` grid (the Eq. 3 optimum); tile
``t = bi*Nt_w + bj`` owns block ``(bi, bj)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.core.config import HiMAConfig
from repro.errors import ConfigError


class TrafficTemplate:
    """One step's inter-tile messages at one slot's word counts.

    HiMA's traffic is fixed by the partition and the dataflow, not by
    the data, so a step's message list is built once: parallel int
    arrays ``kernel`` (an index into :attr:`kernels`), ``src``, ``dst``
    and ``words``, in the order the dataflow moves them.  A step over
    ``b`` slots moves ``b * words[i]`` on message ``i``.  Self-messages
    and zero-word messages are dropped here, once, and the per-kernel,
    inter-PT (neither end the CT) and per-``(src, dst)`` word totals are
    precomputed for the log's aggregates.
    """

    def __init__(
        self, events: Iterable[Tuple[str, int, int, int]], ct_node: int
    ):
        #: ``(kernel, src, dst, words)`` per kept message, in order.
        self.rows = tuple(e for e in events if e[3] > 0 and e[1] != e[2])
        self.size = len(self.rows)
        self.kernels = tuple(dict.fromkeys(e[0] for e in self.rows))
        ids = {k: i for i, k in enumerate(self.kernels)}
        self.kernel = np.array([ids[e[0]] for e in self.rows], dtype=np.intp)
        self.src, self.dst, self.words = (
            np.array([e[c] for e in self.rows], dtype=np.int64)
            for c in (1, 2, 3)
        )
        self.total_words = int(self.words.sum())
        self.words_by_kernel = {
            k: int(self.words[self.kernel == i].sum())
            for i, k in enumerate(self.kernels)
        }
        inter_pt = (self.src != ct_node) & (self.dst != ct_node)
        self.inter_pt_words = int(self.words[inter_pt].sum())
        self.words_by_pair: Dict[Tuple[int, int], int] = {}
        for _, src, dst, words in self.rows:
            pair = (src, dst)
            self.words_by_pair[pair] = self.words_by_pair.get(pair, 0) + words


class MemoryMap:
    """Row/block ownership for one :class:`HiMAConfig`."""

    def __init__(self, config: HiMAConfig):
        self.config = config
        self.num_tiles = config.num_tiles
        self.memory_size = config.memory_size
        self.rows_per_tile = config.local_rows
        self.nt_h, self.nt_w = config.linkage_partition
        if self.memory_size % self.nt_h or self.memory_size % self.nt_w:
            raise ConfigError(
                f"linkage grid {self.nt_h}x{self.nt_w} does not divide "
                f"N={self.memory_size}"
            )
        self.block_rows = self.memory_size // self.nt_h
        self.block_cols = self.memory_size // self.nt_w

    # ------------------------------------------------------------------
    # Row-wise external/state memories
    # ------------------------------------------------------------------
    def external_rows(self, tile: int) -> slice:
        """External-memory rows owned by ``tile``."""
        self._check_tile(tile)
        start = tile * self.rows_per_tile
        return slice(start, start + self.rows_per_tile)

    def owner_of_row(self, row: int) -> int:
        """The tile owning external-memory row ``row``."""
        if not 0 <= row < self.memory_size:
            raise ConfigError(f"row {row} out of range 0..{self.memory_size - 1}")
        return row // self.rows_per_tile

    # ------------------------------------------------------------------
    # Submatrix-wise linkage memory
    # ------------------------------------------------------------------
    def linkage_grid_index(self, tile: int) -> Tuple[int, int]:
        """Block coordinates ``(bi, bj)`` of ``tile`` in the linkage grid."""
        self._check_tile(tile)
        return divmod(tile, self.nt_w)

    def linkage_block(self, tile: int) -> Tuple[slice, slice]:
        """``(row_slice, col_slice)`` of ``tile``'s linkage submatrix."""
        bi, bj = self.linkage_grid_index(tile)
        rows = slice(bi * self.block_rows, (bi + 1) * self.block_rows)
        cols = slice(bj * self.block_cols, (bj + 1) * self.block_cols)
        return rows, cols

    def row_segment_owners(self, row_slice: slice) -> Tuple[int, ...]:
        """External-memory tiles whose rows intersect ``row_slice``."""
        first = self.owner_of_row(row_slice.start)
        last = self.owner_of_row(row_slice.stop - 1)
        return tuple(range(first, last + 1))

    # ------------------------------------------------------------------
    # One step's traffic
    # ------------------------------------------------------------------
    def step_traffic(self, interface_size: int) -> TrafficTemplate:
        """The inter-tile messages of one step of this config, per slot.

        DNC-D tiles talk only to the CT: the interface broadcast and the
        read-vector collection.  DNC follows the kernel chain —
        interface broadcast; write-key similarity psums (local max and
        exp-sum to the CT, the global pair back); usage shards to the
        CT's sorter and the merged order back; the allocation product's
        hand-off ring; the linkage segments each block fetches from the
        row-wise owners of its rows (``w_w``) and columns (``w_w``,
        ``p``); the precedence psum ring ending at the CT; the read-key
        similarity psums; forward/backward operand segments plus the
        psum chains along each block row and column; the read-vector
        psums to the CT.  Sparse access keeps that pattern, but the
        N-scaling messages carry ``K // Nt`` rows instead of a shard.
        """
        cfg = self.config
        nt, ct = self.num_tiles, self.ct_node
        r, w = cfg.num_reads, cfg.word_size
        tiles = range(nt)
        events = [("interface_broadcast", ct, t, interface_size) for t in tiles]
        if cfg.distributed:
            events += [("read_vector_collect", t, ct, r * w) for t in tiles]
            return TrafficTemplate(events, ct)
        if cfg.access_policy == "sparse":
            rows = sort_rows = max(1, cfg.access_top_k // nt)
            chain = (rows, rows)
        else:
            rows = sort_rows = self.rows_per_tile
            if cfg.skim_fraction > 0.0:
                sort_rows = max(1, cfg.effective_sort_length // nt)
            chain = (self.block_rows, self.block_cols)
        # Per block: (tile, row-wise owners of its rows, of its columns,
        # grid coordinates bi, bj).
        blocks = [
            (t,) + tuple(map(self.row_segment_owners, self.linkage_block(t)))
            + self.linkage_grid_index(t)
            for t in tiles
        ]

        def psums(kernel, words):
            return [(kernel, t, ct, words) for t in tiles] + [
                (kernel, ct, t, words) for t in tiles
            ]

        def ring(kernel):
            return [(kernel, hop, hop + 1, 1) for hop in range(nt - 1)]

        events += psums("similarity", 2)
        for t in tiles:
            events += [("usage_sort", t, ct, sort_rows),
                       ("usage_sort", ct, t, sort_rows)]
        events += ring("allocation")
        for t, row_owners, col_owners, _, _ in blocks:
            events += [("linkage", o, t, rows) for o in row_owners]
            events += [("linkage", o, t, 2 * rows) for o in col_owners]
        events += ring("precedence") + [("precedence", nt - 1, ct, 1)]
        events += psums("similarity", 2 * r)
        for t, row_owners, col_owners, bi, bj in blocks:
            events += [("forward_backward", o, t, r * rows) for o in col_owners]
            events += [("forward_backward", o, t, r * rows) for o in row_owners]
            if bj + 1 < self.nt_w:
                events.append(("forward_backward", t, t + 1, r * chain[0]))
            if bi + 1 < self.nt_h:
                events.append(
                    ("forward_backward", t, t + self.nt_w, r * chain[1])
                )
        events += [("memory_read", t, ct, r * w) for t in tiles]
        return TrafficTemplate(events, ct)

    # ------------------------------------------------------------------
    @property
    def ct_node(self) -> int:
        """CT node id in the matching NoC topology."""
        return self.num_tiles

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.num_tiles:
            raise ConfigError(
                f"tile {tile} out of range 0..{self.num_tiles - 1}"
            )


__all__ = ["MemoryMap", "TrafficTemplate"]
