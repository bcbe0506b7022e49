"""Topological graph over classified network edges.

Edges become graph edges by snapping their polyline endpoints into shared
nodes. Interior crossings deliberately do not create nodes: two lines that
cross mid-span without sharing an endpoint stay in separate components,
because unconnected crossings are a real-world condition the diagnostics
must be able to see, not a defect to repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Point2D, Polyline, VertexArrays, point_to_polyline_distance
from .spindex import SLACK, BucketJoin

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
    vertices: VertexArrays  # the edges' geometries, in the order of ``edges``

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


def _snap(x: list[float], y: list[float], tolerance: float):
    """Node of each endpoint (x[i], y[i]), and the endpoint that opened each node.

    Endpoints are taken in order. One joins the node with the least
    (distance, id) within ``tolerance``, or opens a node where it lies.
    Endpoints at one coordinate (-0.0 equals 0.0) share their candidates,
    so the distinct coordinates are joined against each other once.
    """
    number: dict[tuple[float, float], int] = {}
    coord = [number.setdefault(xy, len(number)) for xy in zip(x, y)]
    # each coordinate's coordinates in reach, with distances; itself at 0
    near = [[(0.0, u)] for u in range(len(number))]
    if tolerance > 0:
        ux, uy = np.array(list(number), dtype=float).reshape(-1, 2).T
        r = tolerance * (1.0 + SLACK)
        q, p = BucketJoin(ux, uy, r).pairs(ux - r, uy - r, ux + r, uy + r)
        d = np.array(list(map(math.hypot, (ux[p] - ux[q]).tolist(), (uy[p] - uy[q]).tolist())))
        sel = (d <= tolerance) & (p != q)
        for u, v, dv in zip(q[sel].tolist(), p[sel].tolist(), d[sel].tolist()):
            near[u].append((dv, v))

    node_at: dict[int, int] = {}  # coordinate -> node opened there
    node_of: list[int] = []
    opener: list[int] = []
    for i, u in enumerate(coord):
        best = min(((dv, node_at[v]) for dv, v in near[u] if v in node_at), default=None)
        if best is None:
            node_at[u] = len(opener)
            opener.append(i)
            node_of.append(node_at[u])
        else:
            node_of.append(best[1])
    return node_of, opener


def build_graph(dataset, snap_tolerance: float = DEFAULT_SNAP_TOLERANCE) -> Graph:
    """Build the topology graph for a classified dataset.

    Endpoints within ``snap_tolerance`` of an existing node share it; a
    node keeps the location of the endpoint that opened it. Component ids
    are assigned densely from 0 in first-edge order. Edge objects are
    annotated in place with their node and component ids.

    Parameters
    ----------
    dataset : Dataset whose ``edges`` (NetworkEdge, distinct ids) and ``vertices`` the graph keeps
    snap_tolerance : float
        Endpoint snap distance in meters, >= 0. Kept deliberately tiny by
        default: aggressive snapping would repair exactly the gaps this
        module is meant to measure.
    """
    if not (snap_tolerance >= 0 and math.isfinite(snap_tolerance)):
        raise ValueError(f"snap_tolerance must be finite and >= 0, got {snap_tolerance}")
    if len({edge.id for edge in dataset.edges}) < len(dataset.edges):
        raise ValueError(f"dataset {dataset.name!r} repeats an edge id")
    v = dataset.vertices
    end = np.column_stack([v.first, v.last]).ravel()  # each edge's first and last vertex
    x, y = v.x[end].tolist(), v.y[end].tolist()
    node_of, opener = _snap(x, y, snap_tolerance)
    degree = np.bincount(np.array(node_of, dtype=np.intp), minlength=len(opener)).tolist()
    nodes = {nid: NetworkNode(nid, Point2D(x[i], y[i]), degree[nid]) for nid, i in enumerate(opener)}
    edges: dict[str, NetworkEdge] = {}
    adjacency: dict[int, list[str]] = {}
    for edge, a, b in zip(dataset.edges, node_of[0::2], node_of[1::2]):
        edge.from_node = a
        edge.to_node = b
        edges[edge.id] = edge
        adjacency.setdefault(a, []).append(edge.id)
        if b != a:
            adjacency.setdefault(b, []).append(edge.id)

    # union-find over nodes, then dense component ids in first-edge order
    parent = list(range(len(nodes)))

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

    return Graph(nodes=nodes, edges=edges, adjacency=adjacency, component_index=component_index, vertices=v)


def connected_components(g: Graph, policy=None) -> list[ComponentStats]:
    """Per-component edge counts and lengths, largest first.

    Lengths use the infrastructure-length multiplier when a policy is
    given, raw geometric length otherwise. Ties in length keep component
    id order.
    """
    edges = list(g.edges.values())
    factors = np.array([policy.factor_for(e) if policy is not None else 1.0 for e in edges], dtype=float)
    # component ids are dense; bincount adds each component's edges in edge order
    length = g.vertices.length * factors
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
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    dangling = dangling_nodes(g)
    if not dangling:
        return []
    eids = list(g.edges)
    box = np.array([g.edges[eid].geometry.bbox for eid in eids], dtype=float)
    # each edge's bbox grown by the slackened threshold
    r = threshold * (1.0 + SLACK)
    xmin, ymin, xmax, ymax = box[:, 0] - r, box[:, 1] - r, box[:, 2] + r, box[:, 3] + r
    px, py = np.array([(g.nodes[nid].location.x, g.nodes[nid].location.y) for nid in dangling]).T
    # buckets as wide as a typical grown bbox, so a long edge meets many
    # buckets rather than making one bucket hold every node
    extent = np.sort(np.maximum(xmax - xmin, ymax - ymin))
    side = float(extent[len(extent) // 2])
    e, k = BucketJoin(px, py, side).pairs(xmin, ymin, xmax, ymax)
    inside = (xmin[e] <= px[k]) & (px[k] <= xmax[e]) & (ymin[e] <= py[k]) & (py[k] <= ymax[e])

    best: dict[int, tuple[float, str]] = {}
    excluded: dict[int, set] = {}
    for ei, ki in zip(e[inside].tolist(), k[inside].tolist()):
        nid, eid = dangling[ki], eids[ei]
        if nid not in excluded:
            excluded[nid] = set(g.incident_edges(nid)).union(*map(g.incident_edges, g.adjacent_nodes(nid)))
        if eid in excluded[nid]:
            continue
        d = point_to_polyline_distance(g.nodes[nid].location, g.edges[eid].geometry)
        if 0.0 < d <= threshold and (d, eid) < best.get(nid, (math.inf, "")):
            best[nid] = (d, eid)
    return [Undershoot(nid, best[nid][1], best[nid][0]) for nid in dangling if nid in best]


def component_zipf(components: list[ComponentStats]) -> list[tuple[int, float]]:
    """``connected_components`` lengths ranked descending, 1-based, for log-log plotting."""
    return [(rank, s.length_m) for rank, s in enumerate(components, start=1)]


def local_component_count(g: Graph, cells) -> dict:
    """Distinct components each grid cell intersects.

    Cells intersecting no edge are absent from the result, not zero.
    """
    cells.check(g.edges)
    component = [e.component_id for e in g.edges.values()]
    distinct = {(c, component[e]) for c, e in zip(cells.cell.tolist(), cells.edge.tolist())}
    return cells.grid.sum_by_cell([c for c, _ in distinct])
