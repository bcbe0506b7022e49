"""Topological graph over classified network edges.

Edges become graph edges by snapping their polyline endpoints into shared
nodes. Interior crossings deliberately do not create nodes: two lines that
cross mid-span without sharing an endpoint stay in separate components,
because unconnected crossings are a real-world condition the diagnostics
must be able to see, not a defect to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Point2D, Polyline, point_to_polyline_distance, polyline_length
from .spindex import GridIndex

__all__ = [
    "NetworkNode",
    "NetworkEdge",
    "Graph",
    "Undershoot",
    "ComponentStats",
    "build_graph",
    "connected_components",
    "dangling_nodes",
    "detect_undershoots",
    "component_zipf",
    "local_component_count",
]

DEFAULT_SNAP_TOLERANCE = 0.001
DEFAULT_UNDERSHOOT_THRESHOLD = 3.0


@dataclass
class NetworkNode:
    id: int
    location: Point2D
    degree: int = 0


@dataclass
class NetworkEdge:
    """A classified infrastructure edge, with topology filled in by build_graph."""

    id: str
    geometry: Polyline
    infra_category: str
    mapping_model: str
    directionality: str
    attributes: dict = field(default_factory=dict)
    from_node: int | None = None
    to_node: int | None = None
    component_id: int | None = None


@dataclass
class Graph:
    nodes: dict[int, NetworkNode]
    edges: dict[str, NetworkEdge]
    adjacency: dict[int, list[str]]
    component_index: dict[int, list[str]]

    def incident_edges(self, node_id: int) -> list[str]:
        return self.adjacency.get(node_id, [])

    def adjacent_nodes(self, node_id: int) -> set[int]:
        out = set()
        for eid in self.adjacency.get(node_id, []):
            e = self.edges[eid]
            out.add(e.from_node if e.to_node == node_id else e.to_node)
        out.discard(node_id)
        return out


@dataclass(frozen=True)
class Undershoot:
    node_id: int
    nearest_edge_id: str
    gap_distance: float


@dataclass(frozen=True)
class ComponentStats:
    component_id: int
    edge_count: int
    length_m: float


class _NodeTable:
    """Snaps endpoint coordinates into node ids.

    A node keeps the location of the first endpoint that created it; later
    endpoints within the tolerance reuse it without moving it. With zero
    tolerance only exact coordinate matches share a node.
    """

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.nodes: dict[int, NetworkNode] = {}
        if tolerance == 0.0:
            self._exact: dict[tuple[float, float], int] = {}
            self._index = None
        else:
            self._exact = None
            self._index = GridIndex(cell_size=max(tolerance * 4.0, 1e-9))

    def node_for(self, pt: Point2D) -> int:
        if self._exact is not None:
            key = (pt.x, pt.y)
            nid = self._exact.get(key)
            if nid is None:
                nid = len(self.nodes)
                self.nodes[nid] = NetworkNode(nid, pt)
                self._exact[key] = nid
            return nid
        best = None
        for nid in self._index.query_point(pt.x, pt.y, self.tolerance):
            d = self.nodes[nid].location.distance_to(pt)
            if d <= self.tolerance and (best is None or (d, nid) < best):
                best = (d, nid)
        if best is not None:
            return best[1]
        nid = len(self.nodes)
        self.nodes[nid] = NetworkNode(nid, pt)
        self._index.insert(nid, (pt.x, pt.y, pt.x, pt.y))
        return nid


def build_graph(dataset, snap_tolerance: float = DEFAULT_SNAP_TOLERANCE) -> Graph:
    """Build the topology graph for a classified dataset.

    Endpoints within ``snap_tolerance`` of an existing node share it.
    Component ids are assigned densely from 0 in first-edge order. Edge
    objects are annotated in place with their node and component ids.

    Parameters
    ----------
    dataset : object with an ``edges`` list of NetworkEdge
    snap_tolerance : float
        Endpoint snap distance in meters, >= 0. Kept deliberately tiny by
        default: aggressive snapping would repair exactly the gaps this
        module is meant to measure.
    """
    if snap_tolerance < 0:
        raise ValueError("snap_tolerance must be >= 0")
    table = _NodeTable(snap_tolerance)
    edges: dict[str, NetworkEdge] = {}
    adjacency: dict[int, list[str]] = {}
    for edge in dataset.edges:
        a = table.node_for(edge.geometry.vertices[0])
        b = table.node_for(edge.geometry.vertices[-1])
        edge.from_node = a
        edge.to_node = b
        table.nodes[a].degree += 1
        table.nodes[b].degree += 1
        edges[edge.id] = edge
        adjacency.setdefault(a, []).append(edge.id)
        if b != a:
            adjacency.setdefault(b, []).append(edge.id)

    # union-find over nodes, then dense component ids in first-edge order
    parent = list(range(len(table.nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for edge in edges.values():
        ra, rb = find(edge.from_node), find(edge.to_node)
        if ra != rb:
            parent[rb] = ra

    root_to_component: dict[int, int] = {}
    component_index: dict[int, list[str]] = {}
    for edge in edges.values():
        root = find(edge.from_node)
        cid = root_to_component.setdefault(root, len(root_to_component))
        edge.component_id = cid
        component_index.setdefault(cid, []).append(edge.id)

    return Graph(nodes=table.nodes, edges=edges, adjacency=adjacency, component_index=component_index)


def connected_components(g: Graph, policy=None) -> list[ComponentStats]:
    """Per-component edge counts and lengths, largest first.

    Lengths use the infrastructure-length multiplier when a policy is
    given, raw geometric length otherwise. Ties in length keep component
    id order.
    """
    edges = list(g.edges.values())
    length = [polyline_length(e.geometry) * (policy.factor_for(e) if policy is not None else 1.0) for e in edges]
    # component ids are dense; bincount adds each component's edges in edge order
    totals = np.bincount([e.component_id for e in edges], length, minlength=len(g.component_index)).tolist()
    stats = [ComponentStats(cid, len(g.component_index[cid]), totals[cid]) for cid in sorted(g.component_index)]
    stats.sort(key=lambda s: (-s.length_m, s.component_id))
    return stats


def dangling_nodes(g: Graph) -> list[int]:
    """Ids of all degree-1 nodes, ascending."""
    return sorted(n.id for n in g.nodes.values() if n.degree == 1)


def detect_undershoots(g: Graph, threshold: float = DEFAULT_UNDERSHOOT_THRESHOLD) -> list[Undershoot]:
    """Dangling nodes lying within ``threshold`` of a foreign edge.

    A qualifying edge must not be incident to the dangling node, nor to
    any node adjacent to it; the exclusion keeps a node's own continuation
    geometry from being reported as a gap. The nearest qualifying edge
    wins, ties by edge id.
    """
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    if not g.edges:
        return []
    mean_len = sum(polyline_length(e.geometry) for e in g.edges.values()) / len(g.edges)
    index = GridIndex(cell_size=max(threshold * 4.0, mean_len, 1e-9))
    for eid in g.edges:
        index.insert(eid, g.edges[eid].geometry.bbox)

    out = []
    for nid in dangling_nodes(g):
        node = g.nodes[nid]
        excluded = set(g.incident_edges(nid))
        for adj in g.adjacent_nodes(nid):
            excluded.update(g.incident_edges(adj))
        best = None
        for eid in index.query_point(node.location.x, node.location.y, threshold):
            if eid in excluded:
                continue
            d = point_to_polyline_distance(node.location, g.edges[eid].geometry)
            if 0.0 < d <= threshold and (best is None or (d, eid) < best):
                best = (d, eid)
        if best is not None:
            out.append(Undershoot(nid, best[1], best[0]))
    return out


def component_zipf(g: Graph, policy=None) -> list[tuple[int, float]]:
    """Component lengths ranked descending, 1-based, for log-log plotting."""
    return [(rank, s.length_m) for rank, s in enumerate(connected_components(g, policy), start=1)]


def local_component_count(g: Graph, cells) -> dict:
    """Distinct components each grid cell intersects.

    Cells intersecting no edge are absent from the result, not zero.
    """
    cells.check(g.edges)
    component = [e.component_id for e in g.edges.values()]
    distinct = {(c, component[e]) for c, e in zip(cells.cell.tolist(), cells.edge.tolist())}
    return cells.grid.sum_by_cell([c for c, _ in distinct])
