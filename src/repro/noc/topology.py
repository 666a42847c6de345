"""NoC topology builders.

A :class:`Topology` is an undirected graph of router nodes.  Processing
tiles (PTs) are numbered ``0 .. num_pts-1``; the controller tile (CT) and
any internal tree routers get higher ids.  All builders take the PT count
and return the same dataclass, so simulators and experiments are
topology-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class Topology:
    """An NoC: graph, tile roles, and (optional) grid positions.

    ``graph`` nodes are ints; ``pt_nodes`` lists processing tiles in tile
    order; ``ct_node`` is the controller tile.  ``positions`` maps grid
    topologies' nodes to ``(row, col)`` for diagonal/transpose patterns.
    """

    name: str
    graph: nx.Graph
    pt_nodes: List[int]
    ct_node: int
    positions: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def num_pts(self) -> int:
        return len(self.pt_nodes)

    def degree(self, node: int) -> int:
        return self.graph.degree[node]


def _new_graph() -> "nx.Graph":
    """An empty graph.  ``networkx`` is imported here, by the builders,
    so importing :mod:`repro.noc` (the engine does, for
    :class:`~repro.noc.packet.Message`) does not load it."""
    import networkx as nx

    return nx.Graph()


def _grid_dims(num_tiles: int) -> Tuple[int, int]:
    """Near-square grid (rows x cols) with ``rows*cols >= num_tiles``.

    Trailing grid cells may stay unused; a 17-tile design (16 PTs + CT)
    becomes a 4x5 grid, and 25 tiles the paper's 5x5 example.
    """
    rows = max(int(round(math.sqrt(num_tiles))), 1)
    cols = int(math.ceil(num_tiles / rows))
    return rows, cols


def build_mesh(num_pts: int, diagonal: bool = False, name: str = "mesh") -> Topology:
    """2-D mesh of ``num_pts + 1`` tiles (PTs + CT), optionally with
    diagonal links (the HiMA-NoC).  The CT sits at the grid center, as in
    the paper's 5x5 example (Figure 5(c))."""
    check_positive("num_pts", num_pts)
    total = num_pts + 1
    rows, cols = _grid_dims(total)
    graph = _new_graph()
    positions: Dict[int, Tuple[int, int]] = {}

    center = min((rows // 2) * cols + (cols // 2), total - 1)

    def node_id(cell: int) -> int:
        # The CT occupies the central grid cell; PTs fill the remaining
        # cells in row-major order, keeping ids 0..num_pts-1.
        if cell == center:
            return num_pts
        return cell if cell < center else cell - 1

    for cell in range(total):
        r, c = divmod(cell, cols)
        node = node_id(cell)
        graph.add_node(node)
        positions[node] = (r, c)

    def present(r: int, c: int) -> bool:
        return 0 <= r < rows and 0 <= c < cols and r * cols + c < total

    for cell in range(total):
        r, c = divmod(cell, cols)
        u = node_id(cell)
        neighbors = [(r, c + 1), (r + 1, c)]
        if diagonal:
            neighbors += [(r + 1, c + 1), (r + 1, c - 1)]
        for nr, nc in neighbors:
            if present(nr, nc):
                graph.add_edge(u, node_id(nr * cols + nc))
    return Topology(name, graph, list(range(num_pts)), num_pts, positions)


def build_hima(num_pts: int) -> Topology:
    """HiMA-NoC: mesh plus diagonal links (paper Figure 5(c))."""
    return build_mesh(num_pts, diagonal=True, name="hima")


def build_star(num_pts: int) -> Topology:
    """Star: every PT one hop from the CT."""
    check_positive("num_pts", num_pts)
    graph = _new_graph()
    ct = num_pts
    for pt in range(num_pts):
        graph.add_edge(pt, ct)
    return Topology("star", graph, list(range(num_pts)), ct)


def build_ring(num_pts: int) -> Topology:
    """Ring through all PTs and the CT."""
    check_positive("num_pts", num_pts)
    graph = _new_graph()
    ct = num_pts
    order = list(range(num_pts)) + [ct]
    for i, node in enumerate(order):
        graph.add_edge(node, order[(i + 1) % len(order)])
    return Topology("ring", graph, list(range(num_pts)), ct)


def _tree_levels(num_pts: int) -> int:
    if num_pts == 1:
        return 0
    levels = int(math.ceil(math.log2(num_pts)))
    if 2**levels != num_pts:
        raise ConfigError(
            f"tree topologies require a power-of-two PT count, got {num_pts}"
        )
    return levels


def build_htree(num_pts: int, name: str = "htree") -> Topology:
    """MANNA's H-tree [33]: PTs at the leaves, CT at the root.

    Traffic between two leaves climbs to their lowest common ancestor and
    back down — the congestion bottleneck the paper identifies (worst
    case ``2*log2(num_pts)`` hops).
    """
    levels = _tree_levels(num_pts)
    graph = _new_graph()
    # Level 0: leaves 0..num_pts-1 (the PTs).  Internal nodes numbered
    # upward; the single root is the CT.
    current = list(range(num_pts))
    next_id = num_pts
    level_nodes: List[List[int]] = [current]
    while len(current) > 1:
        parents = []
        for i in range(0, len(current), 2):
            parent = next_id
            next_id += 1
            graph.add_edge(current[i], parent)
            graph.add_edge(current[i + 1], parent)
            parents.append(parent)
        level_nodes.append(parents)
        current = parents
    ct = current[0] if num_pts > 1 else next_id
    if num_pts == 1:
        graph.add_edge(0, ct)
    topo = Topology(name, graph, list(range(num_pts)), ct)
    topo.positions = {}  # trees carry no grid geometry
    return topo


def build_bintree(num_pts: int) -> Topology:
    """MAERI-style binary tree [22]: an H-tree plus configurable links
    between adjacent sub-trees at each level."""
    topo = build_htree(num_pts, name="bintree")
    graph = topo.graph
    # Reconstruct levels: leaves, then parents in creation order.
    levels = _tree_levels(num_pts)
    current = list(range(num_pts))
    next_id = num_pts
    all_levels = [current]
    while len(current) > 1:
        parents = list(range(next_id, next_id + len(current) // 2))
        next_id += len(current) // 2
        all_levels.append(parents)
        current = parents
    # Adjacent sub-tree links: neighbours within each internal level.
    for level in all_levels[:-1]:
        for i in range(len(level) - 1):
            graph.add_edge(level[i], level[i + 1])
    return topo


TOPOLOGY_BUILDERS: Dict[str, Callable[[int], Topology]] = {
    "mesh": lambda n: build_mesh(n, diagonal=False),
    "hima": build_hima,
    "star": build_star,
    "ring": build_ring,
    "htree": build_htree,
    "bintree": build_bintree,
}


def build_topology(name: str, num_pts: int) -> Topology:
    """Build a topology by name (one of :data:`TOPOLOGY_BUILDERS`)."""
    if name not in TOPOLOGY_BUILDERS:
        raise ConfigError(
            f"unknown topology {name!r}; choose from {sorted(TOPOLOGY_BUILDERS)}"
        )
    return TOPOLOGY_BUILDERS[name](num_pts)


__all__ = [
    "Topology",
    "build_topology",
    "build_mesh",
    "build_hima",
    "build_star",
    "build_ring",
    "build_htree",
    "build_bintree",
    "TOPOLOGY_BUILDERS",
]
