"""Attribute-key coverage along the network.

Measures only whether selected keys are present with a nonempty value,
never whether the values are plausible. Shares are weighted by
infrastructure length, so a long untagged edge drags coverage down more
than a short one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TAG_SPECS, TagSpec
from .geometry import _sum_in_order
from .hexgrid import EdgeCells

__all__ = ["TagSpec", "TagShare", "DEFAULT_TAG_SPECS", "tag_presence", "tag_share"]


def tag_presence(edge, spec: TagSpec) -> bool:
    """True iff any of the spec's keys has a nonempty value on the edge."""
    for key in spec.keys:
        value = edge.attributes.get(key)
        if value is not None and value != "":
            return True
    return False


@dataclass(frozen=True)
class TagShare:
    tag_name: str
    global_pct: float | None
    per_cell_pct: dict


def tag_share(edges, spec: TagSpec, cells: EdgeCells, policy=None) -> TagShare:
    """Percent of infrastructure length carrying the tag, global and per cell.

    Lengths are multiplier-adjusted when a policy is given, raw geometric
    otherwise. Cells without infrastructure are absent, not zero.
    """
    cells.check(edges)
    factors = np.ones(len(edges)) if policy is None else policy.edge_factors(edges)
    tagged = np.array([tag_presence(e, spec) for e in edges], dtype=bool)
    length = cells.vertices.length * factors
    total_global = _sum_in_order(length)
    tagged_global = _sum_in_order(length[tagged])
    contribution = cells.length * factors[cells.edge]
    rows = tagged[cells.edge]
    cell_total = cells.grid.sum_by_cell(cells.cell, contribution)
    cell_tagged = cells.grid.sum_by_cell(cells.cell[rows], contribution[rows])
    # tagged and total accumulate the same clip contributions in different
    # orders; clamp away the resulting last-ulp overshoot
    per_cell = {
        cell: min(100.0, max(0.0, 100.0 * cell_tagged.get(cell, 0.0) / cell_total[cell]))
        for cell in sorted(cell_total)
    }
    return TagShare(
        tag_name=spec.name,
        global_pct=min(100.0, 100.0 * tagged_global / total_global) if total_global > 0 else None,
        per_cell_pct=per_cell,
    )
