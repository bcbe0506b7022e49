"""Spatial weights and Moran autocorrelation statistics.

Weights are built on cell centroids, either k-nearest-neighbor or
distance-band, and always row-standardized. Inference is permutation
based: the global statistic permutes values across all cells, the local
statistics use conditional permutation (each cell's own value held fixed,
the rest shuffled). Every cell draws from its own random stream derived
from the run seed and the cell's position in the canonical cell order, so
results are bit-identical no matter how the work is scheduled. The draws
depend on the weights, the seed and the permutation count only, so
``moran_batch`` evaluates every metric over one weights build on one set
of them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import WeightsError, ZeroVarianceError
from .geometry import _blocks, _ranges
from .spindex import SLACK, BucketJoin

log = logging.getLogger(__name__)

__all__ = [
    "SpatialWeights",
    "MoranResult",
    "LisaResult",
    "knn_scheme",
    "distance_band_scheme",
    "scheme_label",
    "build_weights",
    "global_moran",
    "local_moran",
    "moran_batch",
]


def knn_scheme(k: int) -> dict:
    return {"scheme": "knn", "k": int(k)}


def distance_band_scheme(distance_m: float) -> dict:
    return {"scheme": "distance_band", "distance_m": float(distance_m)}


def scheme_label(scheme: dict) -> str:
    """The name a weights scheme goes by in outputs: ``knn6``, ``band250``."""
    kind = scheme.get("scheme")
    if kind == "knn":
        return f"knn{scheme['k']}"
    if kind == "distance_band":
        return f"band{scheme['distance_m']:g}"
    raise WeightsError(f"unknown weights scheme {kind!r}")


@dataclass(frozen=True, eq=False)
class SpatialWeights:
    """Row-standardized neighbor structure over an ordered cell list.

    ``ids`` is the canonical (sorted) cell order. Entry e links cell
    ``row[e]`` to neighbor ``col[e]`` (indices into ``ids``) with weight
    ``weight[e]``, 1/degree of its row: what row-standardizing a binary
    neighbor relation produces. Entries are grouped by row, each row in the
    scheme's neighbor order. ``neighbors``, ``weights``, ``islands`` (cells
    with no neighbors) and ``s0`` are derived from the arrays when read.
    """

    ids: tuple
    scheme: str
    row: np.ndarray
    col: np.ndarray
    weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.row, minlength=self.n)

    def _by_row(self, flat: np.ndarray) -> tuple:
        return tuple(tuple(part.tolist()) for part in np.split(flat, np.cumsum(self.degrees)[:-1]))

    @property
    def neighbors(self) -> tuple:
        return self._by_row(self.col)

    @property
    def weights(self) -> tuple:
        return self._by_row(self.weight)

    @property
    def islands(self) -> tuple:
        return tuple(self.ids[i] for i in np.flatnonzero(self.degrees == 0).tolist())

    @property
    def s0(self) -> float:
        # the sum of the row sums, each row's 1/degree added degree times
        row_sum = {d: sum([1.0 / d] * d) for d in set(self.degrees.tolist()) - {0}}
        return float(sum(row_sum.get(d, 0) for d in self.degrees.tolist()))

    def lag(self, z: np.ndarray) -> np.ndarray:
        # np.bincount over no entries (every cell an island) gives int64
        return np.bincount(self.row, weights=self.weight * z[self.col], minlength=len(z)).astype(float, copy=False)


# Candidate pairs in one block of ``build_weights`` rows: caps memory, not results
_BLOCK_PAIRS = 1 << 13


def build_weights(centroids: dict, scheme: dict) -> SpatialWeights:
    """Build spatial weights over cell centroids.

    Parameters
    ----------
    centroids : dict
        cell id -> object with x/y attributes (or an (x, y) pair). Only
        cells that actually carry the metric belong here; callers exclude
        empty cells before the neighbor search.
    scheme : dict
        ``knn_scheme(k)``, ``distance_band_scheme(d)`` or the same dict from
        a run config. KNN ties at equal distance break on cell id.

    Neighbors come from one ``spindex.BucketJoin`` over the centroids: a
    row keeps the cells of its box ± r·(1 + SLACK) at distance
    ``sqrt((diff*diff).sum())`` ≤ r, all but itself. A band has r = d and
    orders rows by index. KNN starts r where a disc holds k cells at the
    extent's mean density and doubles it for the rows with fewer than k
    others within it (a row's k nearest lie within any r that holds k);
    rows are ordered by (distance, index) and cut to k. Rows are joined in
    blocks of at most ``_BLOCK_PAIRS`` candidates (or one row alone) and cut
    inside their block, so memory is O(n + nnz) plus one block.
    """
    if not centroids:
        raise WeightsError("no cells to build weights over")
    label = scheme_label(scheme)
    ids = tuple(sorted(centroids))
    n = len(ids)
    pts = [centroids[i] for i in ids]
    coords = np.array(
        [(p.x, p.y) if hasattr(p, "x") else (p[0], p[1]) for p in pts], dtype=float
    )
    if not np.isfinite(coords).all():
        raise WeightsError("cell centroids must be finite")
    w, h = np.ptp(coords, axis=0).tolist()
    if scheme["scheme"] == "knn":
        k = scheme["k"]
        if k < 1:
            raise WeightsError("knn needs k >= 1")
        if n <= k:
            raise WeightsError(f"knn with k={k} needs more than {k} cells, got {n}")
        r = math.sqrt(w * h * k / (math.pi * n)) or max(w, h) * k / (2 * n) or 1.0
    else:
        k, r = None, scheme["distance_m"]
        if not r > 0:
            raise WeightsError("distance band must be > 0")
    # any side finds every pair: half of r keeps boxes to 5 × 5 buckets, 1e-150 keeps x / side finite
    join = BucketJoin(coords[:, 0], coords[:, 1], max(min(r * (1.0 + SLACK), max(w, h)) / 2.0, 1e-150))
    degrees = np.full(n, k or 0)  # knn: k a row; a band counts each block's rows
    nbr = np.empty((n, k or 0), dtype=np.intp)  # knn: each row's k neighbors
    cols = []  # band: each block's neighbors, in row order
    todo = np.arange(n)
    while len(todo):
        # above 1e-150 a difference's square does not underflow, so the box holds every cell within r
        pad = max(r * (1.0 + SLACK), 1e-150)
        box = (*(coords[todo] - pad).T, *(coords[todo] + pad).T)
        # counted a chunk of rows at a time, so the join's run arrays stay small
        chunks = range(0, len(todo), _BLOCK_PAIRS)
        counts = np.concatenate([join.counts(*(b[c : c + _BLOCK_PAIRS] for b in box)) for c in chunks])
        short = []
        for lo, hi in _blocks(counts, _BLOCK_PAIRS):
            q, j = join.pairs(*(b[lo:hi] for b in box))
            i = todo[lo:hi]
            diff = coords[i[q]] - coords[j]
            dist = np.sqrt((diff * diff).sum(axis=1))
            near = (dist <= r) & (j != i[q])
            if k is None:
                q, j = q[near], j[near]
                degrees[i] = np.bincount(q, minlength=hi - lo)
                cols.append(j[np.argsort(q * n + j)])
            else:
                full = np.bincount(q[near], minlength=hi - lo) >= k
                keep = near & full[q]
                q, j, dist = q[keep], j[keep], dist[keep]
                order = np.lexsort((j, dist, q))
                # q is grouped by row: a position less its row's first is a rank
                nbr[i[full]] = j[order[np.arange(len(q)) - np.searchsorted(q, q) < k]].reshape(-1, k)
                short.append(i[~full])
        todo = np.concatenate(short) if short else todo[:0]
        r *= 2.0
    row = np.repeat(np.arange(n), degrees)
    col = nbr.ravel() if k else np.concatenate(cols)
    islands = int((degrees == 0).sum())
    if islands:
        log.warning("%d cell(s) have no neighbors under scheme %s", islands, label)
    return SpatialWeights(ids=ids, scheme=label, row=row, col=col, weight=1.0 / degrees[row])


@dataclass(frozen=True)
class MoranResult:
    i: float
    expected_i: float
    pseudo_p: float
    n_permutations: int
    seed: int
    n: int
    scheme: str


def _aligned_values(values: dict, w: SpatialWeights) -> np.ndarray:
    missing = [i for i in w.ids if i not in values]
    if missing:
        raise WeightsError(f"values missing for {len(missing)} cell(s), e.g. {missing[0]!r}")
    return np.array([values[i] for i in w.ids], dtype=float)


def _centered(kind: str, values: dict, w: SpatialWeights) -> np.ndarray:
    """The values in cell order minus their mean; raises when the
    statistic is undefined: fewer than 3 cells, then constant values."""
    v = _aligned_values(values, w)
    if len(v) < 3:
        raise WeightsError(f"{kind} autocorrelation needs >= 3 cells, got {len(v)}")
    z = v - v.mean()
    if float((z * z).sum()) == 0.0:
        raise ZeroVarianceError("autocorrelation undefined for constant values")
    return z


def _check_n_perm(kind: str, n_perm: int) -> None:
    if n_perm < 1:
        raise ValueError(f"{kind} autocorrelation needs n_perm >= 1, got {n_perm}")


def _check_s0(s0: float) -> None:
    if s0 == 0.0:
        raise WeightsError("every cell is an island; no autocorrelation structure")


# Upper bound on the elements the arrays of one block of draws hold
# together: a local block's uniforms and drawn cells, or a global block's
# permutations, permuted values, lags and lag terms. It caps transient
# memory and does not change results.
_BLOCK_ELEMENTS = 1 << 16


def _slots(w: SpatialWeights) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor slot s of every row: ``nbr[s]`` the cells, ``wt[s]`` the
    weights, each of shape (max degree, n); a row with fewer neighbors is
    padded with cell 0 at weight 0.0."""
    degrees = w.degrees
    _, slot = _ranges(np.zeros(w.n, dtype=np.intp), degrees)
    nbr = np.zeros((int(degrees.max(initial=0)), w.n), dtype=np.intp)
    wt = np.zeros(nbr.shape)
    nbr[slot, w.row] = w.col
    wt[slot, w.row] = w.weight
    return nbr, wt


def _moran_rows(zp: np.ndarray, nbr: np.ndarray, wt: np.ndarray, s0: float) -> np.ndarray:
    """Moran's I of each row of ``zp``, a C-contiguous array of value rows
    in cell order.

    Each lag is summed slot by slot from 0.0 in row-entry order, as
    ``SpatialWeights.lag`` sums it, so it has the same bits; a padded slot
    adds ±0.0, which changes no sum that starts from +0.0. Row sums of a
    C-contiguous array have the bits of the 1-D sums of its rows.
    """
    lag = np.zeros(zp.shape)
    term = np.empty(zp.shape)
    for cells, weights in zip(nbr, wt):
        np.take(zp, cells, axis=1, out=term)
        term *= weights
        lag += term
    num = np.multiply(zp, lag, out=lag).sum(axis=1)
    return zp.shape[1] / s0 * num / np.multiply(zp, zp, out=term).sum(axis=1)


def _global_batch(zs: list, w: SpatialWeights, s0: float, n_perm: int, seed: int) -> list:
    """MoranResult of each centered metric in ``zs``.

    Permutation j relabels every metric by the same ``rng.permutation(n)``:
    ``z[perm]`` has the bits of ``rng.permutation(z)`` from the same state.
    A block of permutations is one ``rng.permuted`` call over rows of
    ``arange(n)``, the draws of one ``rng.permutation(n)`` a row; its
    permutations, permuted values, lags and lag terms hold at most
    ``_BLOCK_ELEMENTS`` elements.
    """
    if not zs:
        return []
    n = w.n
    nbr, wt = _slots(w)
    expected = -1.0 / (n - 1)
    observed = [float(_moran_rows(z[None, :], nbr, wt, s0)[0]) for z in zs]
    thresholds = [abs(i - expected) for i in observed]
    extreme = [0] * len(zs)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_ELEMENTS // (4 * n))
    for lo in range(0, n_perm, block):
        perms = rng.permuted(np.broadcast_to(np.arange(n), (min(block, n_perm - lo), n)), axis=1)
        for m, z in enumerate(zs):
            sims = _moran_rows(z[perms], nbr, wt, s0)
            extreme[m] += int((np.abs(sims - expected) >= thresholds[m]).sum())
    return [
        MoranResult(
            i=i,
            expected_i=expected,
            pseudo_p=(e + 1.0) / (n_perm + 1.0),
            n_permutations=n_perm,
            seed=seed,
            n=n,
            scheme=w.scheme,
        )
        for i, e in zip(observed, extreme)
    ]


def global_moran(values: dict, w: SpatialWeights, n_perm: int = 999, seed: int = 0) -> MoranResult:
    """Global autocorrelation via the cross-product statistic.

    The pseudo p-value counts random relabelings of the values whose
    statistic deviates from the expected value -1/(n-1) at least as much
    as the observed one (two-sided), with the +1/(n_perm+1) correction.
    """
    _check_n_perm("global", n_perm)
    z = _centered("global", values, w)
    s0 = w.s0
    _check_s0(s0)
    return _global_batch([z], w, s0, n_perm, seed)[0]


@dataclass(frozen=True)
class LisaResult:
    local_i: dict
    quadrant: dict
    pseudo_p: dict
    significant: dict
    alpha: float
    n_permutations: int
    seed: int
    scheme: str


def _quadrant(z_i: float, lag_i: float) -> str:
    if z_i > 0:
        return "HH" if lag_i > 0 else "HL"
    return "LH" if lag_i > 0 else "LL"


def _sample_others(u: np.ndarray, n: int, cells: np.ndarray) -> np.ndarray:
    """Uniform neighbor draws by Floyd's algorithm (Bentley & Floyd 1987).

    ``u`` holds uniforms in [0, 1) of shape (k, len(cells), draws); each
    ``u[:, b, d]`` becomes one uniform k-subset of the n-1 cells other
    than ``cells[b]``, returned as cell indices in the same shape. Step s
    picks t in [0, n-1-k+s] and takes n-1-k+s instead when t is already
    in the subset, so a subset costs O(k²) comparisons, independent of n.
    """
    k = len(u)
    picks = np.empty(u.shape, dtype=np.intp)
    for s in range(k):
        top = n - 1 - k + s
        # u < 1 keeps u * (top + 1) below top + 1 after rounding
        t = (u[s] * (top + 1)).astype(np.intp)
        taken = (picks[:s] == t).any(axis=0)
        picks[s] = np.where(taken, top, t)
    # index among the other n-1 cells -> index among all cells
    picks += picks >= cells[:, None]
    return picks


def _cell_stream(seed: int, i: int) -> np.random.Generator:
    """Cell i's own random stream for its local permutations."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def _local_batch(zs: list, w: SpatialWeights, n_perm: int, seed: int, alpha: float) -> list:
    """LisaResult of each centered metric in ``zs``.

    The draws of a block of cells serve every metric before the next
    block is drawn, so each cell's stream is built once per call.
    """
    if not zs:
        return []
    n = w.n
    degrees = w.degrees
    lags = [w.lag(z) for z in zs]
    dens = [float((z * z).sum()) for z in zs]
    locals_ = [(n - 1) * z * lag / den for z, lag, den in zip(zs, lags, dens)]
    pvals = [np.ones(n) for _ in zs]
    for degree in sorted(set(degrees.tolist()) - {0}):
        cells = np.nonzero(degrees == degree)[0]
        block = max(1, _BLOCK_ELEMENTS // (2 * n_perm * degree))
        for lo in range(0, len(cells), block):
            idx = cells[lo : lo + block]
            u = np.empty((len(idx), degree, n_perm))
            for row, i in zip(u, idx):
                _cell_stream(seed, int(i)).random(out=row)
            draw = _sample_others(u.transpose(1, 0, 2), n, idx)
            for z, den, local, p in zip(zs, dens, locals_, pvals):
                # row weights are uniform (see SpatialWeights), so the
                # simulated lag is the mean of the drawn values, summed in
                # draw order
                sim_lag = z[draw[0]]
                for picked in draw[1:]:
                    sim_lag += z[picked]
                sim_lag /= degree
                sims = (n - 1) * z[idx, None] * sim_lag / den
                tail = (sims >= local[idx, None]).sum(axis=1)
                tail = np.minimum(tail, n_perm - tail)
                p[idx] = (tail + 1.0) / (n_perm + 1.0)

    ids = w.ids
    return [
        LisaResult(
            local_i={ids[i]: float(local[i]) for i in range(n)},
            quadrant={ids[i]: _quadrant(z[i], lag[i]) for i in range(n)},
            pseudo_p={ids[i]: float(p[i]) for i in range(n)},
            significant={ids[i]: bool(p[i] < alpha and degrees[i] > 0) for i in range(n)},
            alpha=alpha,
            n_permutations=n_perm,
            seed=seed,
            scheme=w.scheme,
        )
        for z, lag, local, p in zip(zs, lags, locals_, pvals)
    ]


def local_moran(
    values: dict,
    w: SpatialWeights,
    n_perm: int = 999,
    seed: int = 0,
    alpha: float = 0.05,
) -> LisaResult:
    """Local autocorrelation with conditional permutation inference.

    Local statistic: I_i = (n-1) * z_i * lag_i / sum(z²), with z the
    mean-deviated values; its mean over cells relates to the global
    statistic as mean(I_i) = I * S0 * (n-1) / n². Quadrants come from the
    signs of z_i and its spatial lag. For each cell, the permutations
    hold z_i fixed and draw its neighbors from the remaining cells; a
    cell's p-value is the smaller tail count with the +1 correction.
    Significance is strict: pseudo_p < alpha. Cells without neighbors get
    local I 0, pseudo p 1, and are never significant.

    Cell i draws a ``(degree, n_perm)`` array of uniforms from its own
    stream ``SeedSequence(entropy=seed, spawn_key=(i,))`` and turns each
    column into a uniform ``degree``-subset of the other n-1 cells with
    Floyd's algorithm, so the cost is O(n·n_perm·degree²) rather than
    O(n²·n_perm). Cells are processed in blocks of equal degree; results
    do not depend on the block size.
    """
    _check_n_perm("local", n_perm)
    z = _centered("local", values, w)
    return _local_batch([z], w, n_perm, seed, alpha)[0]


def moran_batch(
    values_list: list,
    w: SpatialWeights,
    n_perm: int = 999,
    seed: int = 0,
    alpha: float = 0.05,
) -> list:
    """Global and local Moran of several metrics over one weights build.

    The draws depend on the weights, ``seed`` and ``n_perm`` only, never
    on the values, so all metrics are evaluated over one set of them:
    each metric's results have the bits ``global_moran`` and
    ``local_moran`` give it alone. Returns, per entry of ``values_list``,
    a ``(MoranResult, LisaResult)`` pair, or the ``WeightsError`` or
    ``ZeroVarianceError`` that ``global_moran`` raises for it (checked in
    its order: fewer than 3 cells, constant values, every cell an island).
    """
    _check_n_perm("global", n_perm)
    s0 = w.s0
    out = []
    zs = []
    for values in values_list:
        try:
            z = _centered("global", values, w)
            _check_s0(s0)
        except (WeightsError, ZeroVarianceError) as exc:
            out.append(exc)
        else:
            out.append(None)
            zs.append(z)
    pairs = iter(zip(_global_batch(zs, w, s0, n_perm, seed), _local_batch(zs, w, n_perm, seed, alpha)))
    return [next(pairs) if res is None else res for res in out]
