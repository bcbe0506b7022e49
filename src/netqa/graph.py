"""Topological graph over classified network edges.

Edges become graph edges by snapping their polyline endpoints into shared
nodes. Interior crossings deliberately do not create nodes: two lines that
cross mid-span without sharing an endpoint stay in separate components,
because unconnected crossings are a real-world condition the diagnostics
must be able to see, not a defect to repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import featureio
from .config import DEFAULT_SNAP_TOLERANCE, DEFAULT_UNDERSHOOT_THRESHOLD
from .featureio import _block_text, _feature_lines, _side_by_side, _text_rows, _vertex_parts
from .geometry import _BLOCK_ELEMENTS, VertexArrays, _blocks, _ranges, point_segment_distances
from .ingest import NetworkEdge
from .spindex import SLACK, BucketJoin

__all__ = [
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


class Graph:
    """The topology of a dataset's edges, as columns.

    ``edges`` is the dataset's edge list and ``vertices`` its vertex
    arrays. Node i lies at ``nodes[i]``, the endpoint that opened it, and
    holds ``degree[i]`` edge ends. Edge e runs from node ``ends[e, 0]`` to
    node ``ends[e, 1]`` and lies in component ``component[e]``; components
    are numbered densely from 0 in first-edge order.
    """

    __slots__ = ("edges", "vertices", "nodes", "degree", "ends", "component")

    def __init__(self, edges: list, vertices: VertexArrays, nodes, degree, ends, component):
        self.edges, self.vertices = edges, vertices
        self.nodes, self.degree, self.ends, self.component = nodes, degree, ends, component

    @property
    def component_index(self) -> dict[int, list[str]]:
        """Each component's edge ids, in edge order."""
        index: dict[int, list[str]] = {}
        for edge, cid in zip(self.edges, self.component.tolist()):
            index.setdefault(cid, []).append(edge.id)
        return index


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
    are assigned densely from 0 in first-edge order. The edges are left
    as they are.

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
    node_of, opener = _snap(v.x[end].tolist(), v.y[end].tolist(), snap_tolerance)
    at = end[np.array(opener, dtype=np.intp)]
    ends = np.array(node_of, dtype=np.intp).reshape(-1, 2)

    # union-find over nodes, then dense component ids in first-edge order
    parent = list(range(len(opener)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(node_of[0::2], node_of[1::2]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    number: dict[int, int] = {}
    component = np.array([number.setdefault(find(a), len(number)) for a in node_of[0::2]], dtype=np.intp)

    return Graph(
        edges=dataset.edges,
        vertices=v,
        nodes=np.column_stack([v.x[at], v.y[at]]),
        degree=np.bincount(ends.ravel(), minlength=len(opener)),
        ends=ends,
        component=component,
    )


def connected_components(g: Graph, policy=None) -> list[ComponentStats]:
    """Per-component edge counts and lengths, largest first.

    Lengths use the infrastructure-length multiplier when a policy is
    given, raw geometric length otherwise. Ties in length keep component
    id order.
    """
    factors = np.ones(len(g.edges)) if policy is None else policy.edge_factors(g.edges)
    # component ids are dense; bincount adds each component's edges in edge order
    count = np.bincount(g.component)
    totals = np.bincount(g.component, g.vertices.length * factors, minlength=len(count)).tolist()
    stats = [ComponentStats(cid, n, totals[cid]) for cid, n in enumerate(count.tolist())]
    stats.sort(key=lambda s: (-s.length_m, s.component_id))
    return stats


def dangling_nodes(g: Graph) -> list[int]:
    """Ids of all degree-1 nodes, ascending."""
    return np.flatnonzero(g.degree == 1).tolist()


def detect_undershoots(g: Graph, threshold: float = DEFAULT_UNDERSHOOT_THRESHOLD) -> list[Undershoot]:
    """Dangling nodes lying within ``threshold`` of a foreign edge.

    A dangling node's one edge runs to a far node, and no edge with an end
    at that far node qualifies (the node's own edge among them): the
    exclusion keeps a node's own continuation geometry from being reported
    as a gap. An edge's distance is the least ``point_segment_distances``
    over its pieces. The nearest qualifying edge wins, ties by edge id.
    """
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    dangling = np.flatnonzero(g.degree == 1)
    if not len(dangling):
        return []
    # each edge's bbox, over its run of vertices, grown by the slackened threshold
    v, ends, r = g.vertices, g.ends, threshold * (1.0 + SLACK)
    xmin, ymin = np.minimum.reduceat(v.x, v.first) - r, np.minimum.reduceat(v.y, v.first) - r
    xmax, ymax = np.maximum.reduceat(v.x, v.first) + r, np.maximum.reduceat(v.y, v.first) + r
    px, py = g.nodes[dangling].T
    # buckets as wide as a typical grown bbox, so a long edge meets many
    # buckets rather than making one bucket hold every node
    extent = np.sort(np.maximum(xmax - xmin, ymax - ymin))
    side = float(extent[len(extent) // 2])
    e, k = BucketJoin(px, py, side).pairs(xmin, ymin, xmax, ymax)
    # the node at the other end of each dangling node's one edge
    flat = ends.ravel()
    slot = np.flatnonzero(g.degree[flat] == 1)
    far = np.empty(len(g.degree), dtype=np.intp)
    far[flat[slot]] = flat[slot ^ 1]
    f = far[dangling[k]]
    inside = (xmin[e] <= px[k]) & (px[k] <= xmax[e]) & (ymin[e] <= py[k]) & (py[k] <= ymax[e])
    keep = inside & (ends[e, 0] != f) & (ends[e, 1] != f)
    e, k = e[keep], k[keep]

    # each pair's least distance over the edge's pieces, a block of pieces at a time
    d = np.empty(len(e))
    count = v.last[e] - v.first[e]
    for lo, hi in _blocks(count, _BLOCK_ELEMENTS):
        pair, j = _ranges(v.first[e[lo:hi]], count[lo:hi])
        q = k[lo:hi][pair]
        dist = point_segment_distances(px[q], py[q], v.x[j], v.y[j], v.x[j + 1], v.y[j + 1])
        d[lo:hi] = np.minimum.reduceat(dist, np.cumsum(count[lo:hi]) - count[lo:hi])

    hit = (0.0 < d) & (d <= threshold)
    best: dict[int, tuple[float, str]] = {}
    for ki, ei, di in zip(k[hit].tolist(), e[hit].tolist(), d[hit].tolist()):
        candidate = (di, g.edges[ei].id)
        if candidate < best.get(ki, (math.inf, "")):
            best[ki] = candidate
    nodes = dangling.tolist()
    return [Undershoot(nodes[ki], eid, di) for ki, (di, eid) in sorted(best.items())]


def component_zipf(components: list[ComponentStats]) -> list[tuple[int, float]]:
    """``connected_components`` lengths ranked descending, 1-based, for log-log plotting."""
    return [(rank, s.length_m) for rank, s in enumerate(components, start=1)]


def local_component_count(g: Graph, cells) -> dict:
    """Distinct components each grid cell intersects.

    Cells intersecting no edge are absent from the result, not zero.
    """
    cells.check(g.edges)
    distinct = set(zip(cells.cell.tolist(), g.component[cells.edge].tolist()))
    return cells.grid.sum_by_cell([c for c, _ in distinct])


# ---------------- output layers ----------------

# what opens a vertex of a component line: row 1 on an edge's first vertex
_VERTEX_HEADS = _text_rows(["[", '{"geometry":{"coordinates":[['])


def _undershoot_lines(g, undershoots):
    """One Point feature per undershoot, at its dangling node."""
    nodes = np.array([u.node_id for u in undershoots], dtype=np.int64)
    xy = g.nodes[nodes].reshape(-1, 1, 2)
    gaps = np.array([u.gap_distance for u in undershoots], dtype=float)
    edges = _text_rows([featureio.encode(u.nearest_edge_id) for u in undershoots])

    def spell(rows):
        gap, node = featureio.decimal_text(gaps[rows], featureio.METRIC_DECIMALS), featureio.integer_text(nodes[rows])
        return _vertex_parts(xy[rows]), {"gap_m": gap, "nearest_edge_id": edges[rows], "node_id": node}

    return _feature_lines("Point", len(undershoots), spell)


def _component_lines(g):
    """The component layer of a graph: one line per edge, ``featureio.encode``
    of its LineString feature (``line_feature`` in the tests' conftest.py:
    vertices rounded to 6 decimals, id, component and category), byte for
    byte. An edge has any number of vertices, so its matrix has a row per
    vertex, not per feature as in ``_feature_lines``: ``_vertex_parts`` of
    ``g.vertices``, with the feature's opening on an edge's first vertex
    and the rest on its last.
    """
    v, component = g.vertices, g.component.tolist()
    # about 200 bytes a vertex row: 28 of head, two coordinates of 24 and
    # the edge's closing text on its last vertex
    for e0, e1 in _blocks(v.last - v.first + 1, max(1, featureio._LINE_BLOCK // 256)):
        yield _block_text(_component_matrix(g.edges[e0:e1], component[e0:e1], v, slice(e0, e1)))


def _component_matrix(edges, component, v, rows) -> bytearray:
    """The component lines of ``edges`` in components ``component``, the
    polylines ``rows`` of ``v``, as a zero-padded byte matrix with one row
    per vertex: an edge's first row opens its feature, its last row closes it."""
    first, last = v.first[rows], v.last[rows]
    lo, hi = int(first[0]), int(last[-1]) + 1
    vertices = _vertex_parts(np.stack([v.x[lo:hi], v.y[lo:hi]], 1)[:, None])
    opens = np.zeros(hi - lo, dtype=np.intp)
    opens[first - lo] = 1
    # the feature's keys after "geometry", in encode's order; each distinct
    # component id and category is encoded once
    values = {*component, *(e.infra_category for e in edges)}
    spelled = {value: featureio.encode(value) for value in values}
    tails = _text_rows(
        f']],"type":"LineString"}},"id":{i},"properties":{{"component_id":{spelled[c]},'
        f'"edge_id":{i},"infra_category":{spelled[e.infra_category]}}},"type":"Feature"}},\n'
        for e, c, i in zip(edges, component, map(featureio.encode, (e.id for e in edges)))
    )
    closes = np.zeros((hi - lo, tails.shape[1]), dtype=np.uint8)
    closes[:, :2] = np.frombuffer(b"],", dtype=np.uint8)
    closes[last - lo] = tails
    return _side_by_side((_VERTEX_HEADS[opens], *vertices, closes), hi - lo)
