"""Fixed-radius candidate search: points bucketed on a square grid.

This is the cell method for fixed-radius near neighbours (Bentley, Stanat
and Williams 1977). Queries return a superset of the true hits and callers
apply exact geometry afterwards. Matching, snapping, undershoots and the
weights builder all go through ``BucketJoin``. ``GridIndex``, the old
per-box dict index, has no caller left in netqa; it stays only because
the traced benchmark run (perfbench/layers.py) patches ``GridIndex.query``
by name, and goes when that counter moves to ``BucketJoin.pairs``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _ranges

__all__ = ["BucketJoin", "GridIndex", "SLACK"]

# Relative padding callers add to a search radius. Far above rounding
# error, it keeps every pair an exact distance test would pass while
# coordinates stay below about 10**9 times the radius.
SLACK = 1e-6


def _distinct(sorted_values: np.ndarray) -> np.ndarray:
    # np.unique would import numpy.ma, about 1.4 MB of peak RSS
    keep = np.ones(len(sorted_values), dtype=bool)
    keep[1:] = sorted_values[1:] != sorted_values[:-1]
    return sorted_values[keep]


class BucketJoin:
    """Points sorted by bucket, for box queries.

    Buckets are squares of side ``side``; a bucket's key combines the
    ranks of its column and row among the occupied ones, so keys stay
    small whatever the coordinates.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, side: float):
        if not (side > 0 and math.isfinite(side)):
            raise ValueError(f"side must be positive and finite, got {side}")
        self.side = side
        cx = np.floor(x / side)
        cy = np.floor(y / side)
        self.columns = _distinct(np.sort(cx))
        self.rows = _distinct(np.sort(cy))
        keys = np.searchsorted(self.columns, cx) * len(self.rows) + np.searchsorted(self.rows, cy)
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def _runs(self, xmin, ymin, xmax, ymax):
        # one run of keys per (query, occupied column): query, start, length
        side = self.side
        c0 = np.searchsorted(self.columns, np.floor(xmin / side), "left")
        c1 = np.searchsorted(self.columns, np.floor(xmax / side), "right")
        lo = np.searchsorted(self.rows, np.floor(ymin / side), "left")
        hi = np.searchsorted(self.rows, np.floor(ymax / side), "right")
        query, col = _ranges(c0, np.maximum(c1 - c0, 0))
        base = col * len(self.rows)
        start = np.searchsorted(self.keys, base + lo[query])
        return query, start, np.maximum(np.searchsorted(self.keys, base + hi[query]) - start, 0)

    def counts(self, xmin, ymin, xmax, ymax) -> np.ndarray:
        """The number of points ``pairs`` gives each query box."""
        query, _, length = self._runs(xmin, ymin, xmax, ymax)
        return np.bincount(query, weights=length, minlength=len(xmin)).astype(np.intp)

    def pairs(self, xmin, ymin, xmax, ymax):
        """(query, point) index arrays: every point whose bucket lies in the
        bucket range of a query box, once, grouped by query in query order.

        A box covers the columns ``floor(xmin / side)`` to
        ``floor(xmax / side)``, and rows alike. Rounding is monotone, so a
        point inside a box is always in its range.
        """
        query, start, length = self._runs(xmin, ymin, xmax, ymax)
        run, pos = _ranges(start, length)
        return query[run], self.order[pos]


class GridIndex:
    def __init__(self, cell_size: float):
        if cell_size <= 0 or not math.isfinite(cell_size):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], list] = {}

    def _span(self, bbox):
        xmin, ymin, xmax, ymax = bbox
        c = self.cell_size
        return (
            math.floor(xmin / c),
            math.floor(ymin / c),
            math.floor(xmax / c),
            math.floor(ymax / c),
        )

    def insert(self, item_id, bbox) -> None:
        i0, j0, i1, j1 = self._span(bbox)
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self._cells.setdefault((i, j), []).append(item_id)

    def query(self, bbox) -> list:
        """Ids whose inserted boxes may intersect ``bbox``, sorted."""
        i0, j0, i1, j1 = self._span(bbox)
        found = set()
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                bucket = self._cells.get((i, j))
                if bucket:
                    found.update(bucket)
        return sorted(found)
