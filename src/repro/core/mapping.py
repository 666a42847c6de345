"""Memory-to-tile placement.

External memory and the length-``N`` state memories are partitioned
row-wise (the Eq. 1/2 optimum): tile ``t`` owns rows
``[t*N/Nt, (t+1)*N/Nt)``.  The ``N x N`` linkage is partitioned
submatrix-wise on an ``Nt_h x Nt_w`` grid (the Eq. 3 optimum); tile
``t = bi*Nt_w + bj`` owns block ``(bi, bj)``.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.config import HiMAConfig
from repro.errors import ConfigError


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
        #: Per-tile linkage dataflow, fixed by the partition and so
        #: computed once: ``(tile, row_owners, col_owners, bi, bj)`` —
        #: the row-wise owners of the tile's block rows / columns and its
        #: grid coordinates.  The traffic loggers walk this every step.
        self.linkage_dataflow = tuple(
            (t,) + tuple(map(self.row_segment_owners, self.linkage_block(t)))
            + self.linkage_grid_index(t)
            for t in range(self.num_tiles)
        )

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
    @property
    def ct_node(self) -> int:
        """CT node id in the matching NoC topology."""
        return self.num_tiles

    def _check_tile(self, tile: int) -> None:
        if not 0 <= tile < self.num_tiles:
            raise ConfigError(
                f"tile {tile} out of range 0..{self.num_tiles - 1}"
            )


__all__ = ["MemoryMap"]
