"""The point container, exact nearest-neighbor search, and downsampling.

`PointCloud3` is the one point container: it validates points arriving
from outside the program and is immutable after construction (the backing
array is marked read-only), so it is safe to share across threads.  2D
point sets (edge maps, projections, hull vertices) are plain (N, 2) arrays.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudSRError

DEDUPE_TOL = 1e-9  # grid pitch below which two rows are one point, everywhere
#: largest coordinate magnitude accepted: beyond it squared distances and
#: orientation products overflow float64
COORD_LIMIT = 1e150
#: candidates beyond k asked of the tree, so most ties settle at once; a
#: nearest query asks for 2 first
_RANK_SLACK = 2
_RANK_BLOCK = 1 << 18  # candidate entries per tree query: bounds memory when ties widen it
_TINY = np.finfo(np.float64).tiny  # absolute margin for distances that underflow
_FOLD_CELLS = 1 << 63  # a grid of this many cells or more cannot fold into int64 keys
#: `_distinct` marks an occupancy bitmap for a grid of at most this many
#: cells per key and sorts the keys of a larger one
_BITMAP_CELLS_PER_KEY = 64


# a squared distance moved up or down, clear of the k-d tree's last-ulp
# rounding and of underflow; every comparison that decides which rows the
# tree may have left out pads its sides with these two
def _pad_up(x):
    return x * (1 + 1e-12) + _TINY


def _pad_down(x):
    return x * (1 - 1e-12) - _TINY


class PointCloud3:
    """Immutable ordered collection of 3D points."""

    def __init__(self, points):
        arr = as_point_array(points, 3, "point cloud coordinates").copy()
        if arr.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        arr.setflags(write=False)
        self._points = arr

    @property
    def points(self) -> np.ndarray:
        """Read-only (N, 3) float64 view of the coordinates."""
        return self._points

    def __len__(self) -> int:
        return self._points.shape[0]

    def __repr__(self) -> str:
        return f"PointCloud3({len(self)} points)"


def dedupe_rows(arr: np.ndarray) -> np.ndarray:
    """Indices (ascending) of first representatives of near-duplicate rows.

    Rows are snapped to a grid of pitch `DEDUPE_TOL`; rows sharing a grid
    cell are considered duplicates and the lowest index wins.  A stable
    `lexsort` of the snapped rows' `_cell_keys` groups each cell's rows in
    index order, so the first row of each group is its lowest index (`-0.0`
    and `+0.0` snap to one cell).
    """
    if arr.shape[0] == 0:
        return np.arange(0, dtype=np.intp)
    keys = _cell_keys(np.round(arr / DEDUPE_TOL))
    order = np.lexsort(keys)
    return np.sort(order[_group_starts(keys, order)])


def column_bounds(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column minima and maxima of an (N, D) array, a column at a time:
    numpy's axis-0 min and max are ~10x slower on three columns."""
    cols = range(pts.shape[1])
    return (np.array([pts[:, d].min() for d in cols]),
            np.array([pts[:, d].max() for d in cols]))


def _cell_keys(cells: np.ndarray, spans=None) -> list[np.ndarray]:
    """`lexsort` keys, least significant first, of integral cell rows: equal
    exactly where the rows are, and ordered as the rows sort with column 0
    most significant.  The leading columns fold into one int64 key while
    their spans (by default the rows' own, max - min + 1; given spans bound
    indices from 0 and cost no pass) multiply to fewer than 2^63 cells, and
    each later column is cast to int64.  When a value does not cast (past
    about 9.2e18, or NaN), the float columns are the keys."""
    lows = None
    if spans is None:
        lows, highs = column_bounds(cells)
        # NaN fails both comparisons, and 2.0**63 itself does not cast
        if not all(lo >= -2.0**63 and hi < 2.0**63 for lo, hi in zip(lows, highs)):
            return list(cells.T[::-1])
        lows = [int(lo) for lo in lows]
        spans = [int(hi) - lo + 1 for hi, lo in zip(highs, lows)]
    elif max(spans) > _FOLD_CELLS:  # index s_d - 1 casts up to s_d = 2^63
        return list(cells.T[::-1])
    lead = 1
    while lead < len(spans) and math.prod(spans[:lead + 1]) < _FOLD_CELLS:
        lead += 1
    ints = cells.astype(np.int64)
    # offsets are subtracted in int64 (float subtraction rounds past 2^53),
    # and only under a fold: a lone column's span may exceed int64
    shift = lows is not None and lead > 1
    folded = ints[:, 0] - lows[0] if shift else ints[:, 0]
    for d in range(1, lead):
        folded = folded * spans[d] + (ints[:, d] - lows[d] if shift else ints[:, d])
    return [ints[:, d] for d in reversed(range(lead, len(spans)))] + [folded]


def _group_starts(keys: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Mask over the sorted rows `order` of the first row of each run of equal `keys`."""
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        sk = key[order]
        starts[1:] |= sk[1:] != sk[:-1]
    return starts


def as_point_array(points, dim: int | None, what: str) -> np.ndarray:
    """Coerce an array-like to an (N, D) float64 array, the one entry check
    of every point array: D is `dim` unless that is None, and every entry is
    finite and within COORD_LIMIT, else a ValueError naming `what`."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2D array of points")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {arr.shape[1]}")
    if not np.all(np.abs(arr) <= COORD_LIMIT):  # NaN fails the comparison too
        raise ValueError(f"{what} must be finite and within +/-{COORD_LIMIT:g}")
    return arr


class SpatialIndex:
    """Exact nearest-neighbor index over an immutable point snapshot, and
    the one place where neighbors are ranked.

    A k-d tree (`scipy.spatial.cKDTree`, sliding-midpoint splits) proposes
    candidates; their squared distances are recomputed with the left fold of
    `_sq_dists` and ranked by (distance, index), and a query is widened until
    no point the tree left out can tie with or beat the k-th candidate.  So
    results, including the lowest-index tie rule, are bit-identical to an
    exhaustive linear scan.
    """

    @staticmethod
    def _sq_dists(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
        # per-coordinate accumulation: the exact IEEE operation sequence of a
        # scalar left-fold scan (vectorized reductions may reassociate)
        d = pts[..., 0] - q[..., 0]
        d2 = d * d
        for axis in range(1, pts.shape[-1]):
            d = pts[..., axis] - q[..., axis]
            d2 = d2 + d * d
        return d2

    def __init__(self, points):
        arr = as_point_array(points, None, "indexed point coordinates")
        if arr.shape[0] < 1:
            raise CloudSRError("cannot index an empty point set")
        arr = arr.copy()
        arr.setflags(write=False)
        self._points = arr
        self._tree = cKDTree(arr, copy_data=False, balanced_tree=False)

    @property
    def points(self) -> np.ndarray:
        """Read-only (N, D) float64 copy of the indexed points."""
        return self._points

    @property
    def count(self) -> int:
        return self._points.shape[0]

    def _rank(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, k) indices and squared distances of the k nearest points to
        each query row, each row sorted by (squared distance, index).

        Each round asks the tree for `width` candidates of every unsettled
        row: k + `_RANK_SLACK` = k + 2 first, then twice the last width plus
        one, and so on up to n.  A nearest query (k = 1) asks for 2 first,
        which settles every row whose nearest point is strictly closer than
        its second, and goes on to 5, 11, ... for the rest: 5 settles a
        nearest point that ties with three others, as the corners of a
        square cell do (box-densify-10k's eval leaves 868 rows open at 2, and
        115 of them at 4).  The widths change only the work, never a result.

        On densify's midpoint rounds of a 2,500-point box (k = 5), width
        k + 2 leaves 0-1 of 2,500 and 38-44 of ~8,000 rows open, and k + 4
        none; the tree's cost grows with the width, so k + 1, 2, 3 and 4
        took 20.5, 20.1, 21.1 and 22.8 ms over both rounds."""
        # the tree refuses non-finite queries, and past the bound it loses
        # neighbors whose squared distance overflows
        Q = as_point_array(queries, self._points.shape[1], "query coordinates")
        return self._ranked(Q, k, min(self.count, 2 if k == 1 else k + _RANK_SLACK))

    def _ranked(self, Q: np.ndarray, k: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """One round of `_rank` at `width`, over contiguous blocks of `Q`;
        the rows it leaves open are gathered once and ranked by the next
        round, at width 2 * width + 1."""
        m = Q.shape[0]
        idx = np.empty((m, k), dtype=np.intp)
        sqd = np.empty((m, k), dtype=np.float64)
        open_rows = np.empty(m, dtype=bool)
        step = max(1, _RANK_BLOCK // width)
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            idx[rows], sqd[rows], settled = self._rank_rows(Q[rows], k, width)
            open_rows[rows] = ~settled
        if open_rows.any():
            rows = np.flatnonzero(open_rows)
            idx[rows], sqd[rows] = self._ranked(Q[rows], k, min(self.count, 2 * width + 1))
        return idx, sqd

    def _rank_rows(self, q: np.ndarray, k: int, width: int):
        """(indices, squared distances, settled) of the k best of the tree's
        `width` candidates for each row of `q`; unsettled rows are redone
        wider."""
        _, cand = self._tree.query(q, k=width)
        cand = cand.reshape(q.shape[0], width)
        # np.take gathers rows several times faster than fancy indexing
        d2 = self._sq_dists(np.take(self._points, cand, axis=0), q[:, None, :])
        # the tree returns most rows in (distance, index) order already, so
        # only a row where an adjacent pair's distance falls, or holds while
        # its index falls, is sorted; the rows where no distance holds or
        # falls are passed over first
        maybe = np.flatnonzero((d2[:, 1:] <= d2[:, :-1]).any(axis=1))
        cb, db = cand[maybe], d2[maybe]
        swapped = ((db[:, 1:] < db[:, :-1])
                   | ((db[:, 1:] == db[:, :-1]) & (cb[:, 1:] < cb[:, :-1]))).any(axis=1)
        if swapped.any():
            bad, cb, db = maybe[swapped], cb[swapped], db[swapped]
            order = np.lexsort((cb, db))
            cand[bad] = np.take_along_axis(cb, order, axis=1)
            d2[bad] = np.take_along_axis(db, order, axis=1)
        # tree distances may differ from the left fold in the last ulps, so
        # a row is settled only when its k-th distance is clearly below the
        # last candidate's, hence below every point the tree left out
        settled = (width == self.count) | (d2[:, k - 1] < _pad_down(d2[:, -1]))
        return cand[:, :k], d2[:, :k], settled

    def knn_batch(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors for each query row.

        Returns (indices (M, k), squared distances (M, k)), each row sorted
        ascending with ties broken by lowest index.
        """
        if k < 1:
            raise CloudSRError("k must be at least 1")
        if k > self.count:
            raise CloudSRError(f"k={k} exceeds point count {self.count}")
        return self._rank(queries, k)

    def nearest_batch(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for each query row.

        Returns (indices, squared distances), ties broken by lowest index
        exactly as `knn_batch`.  The tree is asked for 2 candidates per row,
        then 5, 11, ... only for the rows whose nearest point ties with (or
        lies within the tree's rounding of) the last candidate.
        """
        idx, sqd = self._rank(queries, 1)
        return idx[:, 0], sqd[:, 0]

    def candidates(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each query row's k nearest points, in ascending index order, and
        the squared distance of its (k+1)-th nearest, which no other point
        is below; with k points or fewer, every point and +inf."""
        idx, sqd = self.knn_batch(queries, min(k + 1, self.count))
        bound2 = sqd[:, k] if k < self.count else np.full(sqd.shape[0], np.inf)
        return np.sort(idx[:, :k], axis=1), bound2


def settle_limit(bound2: np.ndarray) -> np.ndarray:
    """sqrt(`_pad_down`(bound2)), the distance `nearest_candidate` proves a
    match below: computed once for candidates ranked once."""
    return np.sqrt(np.maximum(_pad_down(bound2), 0.0))


def nearest_candidate(cand_points: np.ndarray, queries: np.ndarray, cand: np.ndarray,
                      limit: np.ndarray, drift2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indices, squared distances, settled): the nearest of each query
    row's candidate rows of some point set, ranked as `SpatialIndex._rank`
    ranks, and whether it is provably the nearest of all rows.

    `cand` (M, C) holds each query's candidates in ascending index order, as
    `SpatialIndex.candidates` returns them, and `cand_points` (M, C, D)
    those rows of the point set.  `limit` (M,) is `settle_limit` of the
    squared distance every other row had from the query then, and `drift2`
    (scalar or (M,)) bounds the square of how far the query and any other
    row have moved relative to each other since.  By the triangle
    inequality no other row can tie or win once sqrt(best) + drift <
    sqrt(bound2); both sides are padded by `_pad_up` and `_pad_down`, so a
    settled row equals the exhaustive scan's.  Unsettled rows need a full
    query.
    """
    d2 = SpatialIndex._sq_dists(cand_points, queries[:, None, :])
    # candidates ascend by index, so the first minimum is the lowest index
    flat = np.argmin(d2, axis=1)
    flat += np.arange(cand.shape[0]) * cand.shape[1]  # where each row starts in `cand`
    best = np.take(d2, flat)
    reach = np.sqrt(_pad_up(best)) + np.sqrt(_pad_up(drift2))
    return np.take(cand, flat), best, reach < limit


def _voxel_spans(extent, edge: float) -> list[int]:
    """Per-axis spans (max voxel index + 1) at edge `edge` of rows whose
    per-axis maxima relative to the voxel origin are `extent`.  Division and
    `floor` are monotone, so the max index is the index of the max row, and
    the spans at an edge bound every row's indices at any larger edge.  A
    Python-integer list: a float product overflows at the smallest edges.
    """
    return [math.floor(e / edge) + 1 for e in extent]


def _voxel_keys(rel: np.ndarray, edge: float, spans: list[int]) -> np.ndarray:
    """One int64 key per row of `rel` (rows relative to the voxel origin)
    for voxels of edge `edge`: equal exactly for rows in the same voxel, and
    ordered as a lexicographic sort of the voxel index rows, column 0 most
    significant.

    The spans s_d, from `_voxel_spans` at `edge` or a smaller edge, bound
    every row's indices.  A grid of fewer than 2^63 cells folds them to the
    one `_cell_keys` key (k0*s1 + k1)*s2 + k2, comparable at every edge from
    the spans' own up.  A larger grid keys each row by its rank among the
    distinct index rows instead, by one `lexsort`; in `binned_centroids`
    only the smallest edge can need it, and on the bench inputs its count
    is skipped.
    """
    # float indices: at the bisection's smallest edge one can exceed int64
    keys = _cell_keys(np.floor(rel / edge), spans)
    if len(keys) == 1:
        return keys[0]
    order = np.lexsort(keys)
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.cumsum(_group_starts(keys, order)) - 1
    return ranks


def _absent(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the `keys` that the ascending array `sorted_keys` lacks."""
    pos = np.searchsorted(sorted_keys, keys)
    absent = pos == sorted_keys.size
    absent[~absent] = sorted_keys[pos[~absent]] != keys[~absent]
    return absent


def _distinct(keys: np.ndarray, cells: int, count: bool = False, inverse: bool = False):
    """Ascending distinct values of an int64 array whose values lie in
    [0, cells), as `np.unique` returns them; with `count` only how many there
    are, and with `inverse` also each key's index among them, as
    `np.unique(return_inverse=True)` gives it.

    A grid of at most `_BITMAP_CELLS_PER_KEY` (64) cells per key marks a
    bool occupancy bitmap, reads the keys off it in order with
    `flatnonzero` (or counts it) and takes the inverse from each occupied
    cell's rank: no sort, and the voxel keys of nearby rows mark nearby
    bytes.  A larger grid sorts the keys and masks the first of each run,
    as the bitmap then costs more to zero and read than the sort.  On the
    voxel keys of densify's 24k-row pools the bitmap counted in 0.17 ms
    against the sort's 0.31 ms at 64 cells per key, broke even near 96 and
    took 0.74 ms against 0.22 ms at 256 (random keys break even at 32-64).
    Without an inverse the sort is not `np.unique`'s: numpy 2.3 and later
    take a hash path for integer keys and sort after it (numpy 2.4, 20,000
    keys: 2.9 ms against 0.15 ms)."""
    if cells <= _BITMAP_CELLS_PER_KEY * keys.size:
        seen = np.zeros(cells, dtype=bool)
        seen[keys] = True
        if count:
            return int(np.count_nonzero(seen))
        uniq = np.flatnonzero(seen)
        if not inverse:
            return uniq
        # int32 ranks fault in half the pages of intp ones
        rank = np.empty(cells, dtype=np.int32 if keys.size < 2**31 else np.intp)
        rank[uniq] = np.arange(uniq.size)
        return uniq, rank[keys]
    if inverse:
        return np.unique(keys, return_inverse=True)
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return int(np.count_nonzero(first)) if count else keys[first]


def _moving_count(rel: np.ndarray, lo: float, hi: float, spans: list[int]):
    """`count(edge)`: the occupied-voxel count of `rel` at an edge inside
    [lo, hi], keying only the rows whose voxel can change across it.

    A row whose voxel index rows at lo and hi are equal keeps them at every
    edge between (division and `floor` are monotone).  Keys folded with
    `spans`, the spans at lo, are comparable at every such edge, so those
    rows are keyed once into the ascending distinct array `settled`, and a
    count keys only the other rows and adds their distinct keys that
    `settled` lacks.
    """
    at_lo = _voxel_keys(rel, lo, spans)
    moving = at_lo != _voxel_keys(rel, hi, spans)
    cells = math.prod(spans)
    settled = _distinct(at_lo[~moving], cells)
    rows = rel[moving]

    def count(edge: float) -> int:
        uniq = _distinct(_voxel_keys(rows, edge, spans), cells)
        return settled.size + int(np.count_nonzero(_absent(settled, uniq)))
    return count


def _voxel_centroids(pts: np.ndarray, rel: np.ndarray, edge: float,
                     spans: list[int]) -> np.ndarray:
    """Centroid of each occupied voxel of `pts`, binned by `rel` (the rows
    relative to the voxel origin) and ordered by voxel key (column 0 most
    significant), as `np.unique(axis=0)` of the voxel index rows orders them.
    At the edges the bisection ends on, a few cells per row, `_distinct`
    groups the rows on its bitmap (0.3 ms against `np.unique`'s 1.0 ms with
    `return_inverse` on 24k rows).
    """
    uniq, inverse = _distinct(_voxel_keys(rel, edge, spans), math.prod(spans), inverse=True)
    m = uniq.shape[0]
    # one `bincount` per column adds each voxel's rows in input order from
    # 0.0, as `np.add.at` would, several times faster
    sums = np.stack([np.bincount(inverse, weights=pts[:, d], minlength=m)
                     for d in range(pts.shape[1])], axis=1)
    counts = np.bincount(inverse, minlength=m).astype(np.float64)
    return sums / counts[:, None]


def drop_closest(pts: np.ndarray, m: int) -> np.ndarray:
    """Ascending indices of the m rows left after repeatedly dropping the
    higher-index row of the closest remaining pair, pairs ordered by
    (squared distance, lower index, higher index).

    A live row's key is its pair with its nearest other live row, ranked by
    `SpatialIndex` (lowest index on ties), so the smallest key is the
    closest pair.  Keys only grow as rows drop, so a heap of them stays a
    lower bound: a top key whose partner is gone is stale, and only its row
    is ranked again, by a `knn_batch` of its 8 nearest rows, doubled until
    one of them lives, which its later re-keys read first.
    """
    n = pts.shape[0]
    index = SpatialIndex(pts)
    alive = np.ones(n, dtype=bool)
    rows = np.arange(n)
    idx, d2 = index.knn_batch(pts, 2)
    # column 0 is the row itself unless a lower-index duplicate ranks first
    col = (idx[:, 0] == rows).astype(np.intp)
    near = idx[rows, col]
    # (squared distance, lower index, higher index, owner row)
    heap = list(zip(d2[rows, col].tolist(), np.minimum(rows, near).tolist(),
                    np.maximum(rows, near).tolist(), rows.tolist()))
    heapq.heapify(heap)
    ranked = {}

    def rekey(i):
        idx, d2 = ranked.get(i, (rows[:0], None))
        while not (live := alive[idx] & (idx != i)).any():
            (idx,), (d2,) = index.knn_batch(pts[i:i + 1], min(n, max(8, 2 * idx.size)))
            ranked[i] = idx, d2
        at = int(np.argmax(live))
        j = int(idx[at])
        return float(d2[at]), min(i, j), max(i, j), i

    for _ in range(n - m):
        _, lo, hi, i = heap[0]
        while not (alive[i] and alive[lo + hi - i]):
            if alive[i]:
                heapq.heapreplace(heap, rekey(i))
            else:
                heapq.heappop(heap)
            _, lo, hi, i = heap[0]
        # the top stays: a dropped owner is skipped, a kept one goes stale
        alive[hi] = False
    return np.flatnonzero(alive)


def binned_centroids(pts: np.ndarray, target: int) -> np.ndarray:
    """Voxel-bin a point array so that at least `target` bins are occupied.

    Bisects the voxel edge length until the occupied-bin count brackets the
    target as tightly as the bisection resolves, then returns the centroids
    of the occupied bins at the edge length found.  When the input has fewer
    than `target` distinct rows no edge length can reach the target; the
    distinct rows themselves are returned.

    Every count is exact, so the bisection takes the path of one full count
    (`_distinct` keys of every row) per step, but most steps read few rows:

    - a full count at an edge whose grid holds at most 64 cells per row, as
      every edge near the target does (2-17 on the bench pools), marks an
      occupancy bitmap rather than sorting the keys;
    - at the smallest edge, the distinct indices of one axis (counted on the
      sorted columns) bound the count from below, so the full count, often
      a `lexsort` of rank keys there, runs only when no axis reaches the
      target;
    - the product of the spans at an edge bounds its count from above, so
      an edge whose grid has fewer than `target` cells is decided unread;
    - once the bracket is narrow enough that few rows can change voxel
      across it, `_moving_count` keys only those rows (25-263 of 5k-24k on
      the bench pools, on about 40 steps).
    """
    origin, top = column_bounds(pts)
    extent = top - origin
    rel = pts - origin  # once: every bisection step bins these rows

    # smallest separating edge: below the smallest positive per-axis gap,
    # every pair of distinct rows lands in different bins
    gaps, columns = [], []
    for d in range(pts.shape[1]):
        col = np.sort(pts[:, d])
        diffs = np.diff(col)
        diffs = diffs[diffs > 0]
        if diffs.size:
            gaps.append(diffs.min())
        columns.append(col - origin[d])  # rel[:, d], sorted: subtraction is monotone
    if not gaps:  # all rows identical
        return pts[:1].copy()
    # ...but no finer than extent / 1e300 and never zero: the voxel keys of
    # finer bins overflow, so rows a subnormal gap apart may share a bin
    lo = max(min(gaps) / 2.0, float(extent.max()) / 1e300,
             np.finfo(np.float64).smallest_subnormal)
    hi = float(np.linalg.norm(extent)) + lo

    axis_bins = max(1 + int(np.count_nonzero(np.diff(np.floor(col / lo)))) for col in columns)
    del columns
    spans = _voxel_spans(extent, lo)
    if (axis_bins < target
            and _distinct(_voxel_keys(rel, lo, spans), math.prod(spans), count=True) < target):
        # fewer distinct rows than requested; return what exists
        return _voxel_centroids(pts, rel, lo, spans)

    moving = None
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = lo < mid < hi
        spans = _voxel_spans(extent, mid)
        cells = math.prod(spans)
        if cells < target:
            up = False
        elif moving is not None:
            up = moving(mid) >= target
        else:
            up = _distinct(_voxel_keys(rel, mid, spans), cells, count=True) >= target
        if up:
            lo = mid
        else:
            hi = mid
        if not inside:
            # mid was lo or hi, so lo and hi are now a fixed point of the
            # step (lo counts >= target, a mid == hi that counts < target
            # stays hi) and the remaining steps would repeat this one
            break
        # across the bracket, a row's index on an axis changes at most
        # about x/lo - x/hi times, at most the farthest row's; below 0.02
        # summed over the axes (0.01-0.03 swept fastest), few rows can move
        if moving is None and float(np.sum(extent / lo - extent / hi)) < 0.02:
            lo_spans = _voxel_spans(extent, lo)
            if math.prod(lo_spans) < _FOLD_CELLS:
                moving = _moving_count(rel, lo, hi, lo_spans)
    return _voxel_centroids(pts, rel, lo, _voxel_spans(extent, lo))


def bin_downsample(cloud: PointCloud3, target_count: int) -> PointCloud3:
    """Downsample a cloud to exactly `target_count` voxel-bin centroids.

    Voxel edge length is bisected until the occupied bins bracket the
    target.  The centroids come in voxel-key order: when the bisection
    hits the count they are the output; an overshoot is cut back by
    `drop_closest`; too few distinct rows are cycled with `np.resize`.
    Asking for the input size returns the input unchanged.
    """
    if target_count <= 0:
        raise CloudSRError("target_count must be positive")
    n = len(cloud)
    if target_count > n:
        raise CloudSRError(f"target_count {target_count} exceeds cloud size {n}")
    if target_count == n:
        return cloud

    out = binned_centroids(cloud.points, target_count)
    if out.shape[0] > target_count:
        out = out[drop_closest(out, target_count)]
    elif out.shape[0] < target_count:
        # degenerate duplicate-heavy cloud: cycle the centroids
        out = np.resize(out, (target_count, out.shape[1]))
    return PointCloud3(out)


def normalize_to_unit(points: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Center (N, 3) points on their bounding-box midpoint and scale to unit size.

    Returns (normalized points, scale, (3,) offset) with max |coordinate| == 1
    after the transform; `norm * scale + offset` inverts it up to float
    rounding.  A zero-extent set keeps scale 1.
    """
    lo, hi = column_bounds(points)
    offset = 0.5 * (lo + hi)
    scale = float(np.max(np.abs(points - offset)))
    if scale == 0.0:
        scale = 1.0
    return (points - offset) / scale, scale, offset
