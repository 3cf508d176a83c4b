"""The point container, exact nearest-neighbor search, and downsampling.

`PointCloud3` is the one point container: it validates points arriving
from outside the program and is immutable after construction (the backing
array is marked read-only), so it is safe to share across threads.  2D
point sets (edge maps, projections, hull vertices) are plain (N, 2) arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyInput, InsufficientPoints, InvalidTarget

DEDUPE_TOL = 1e-9  # grid pitch below which two rows are one point, everywhere
#: largest coordinate magnitude accepted: beyond it squared distances and
#: orientation products overflow float64
COORD_LIMIT = 1e150
_RANK_SLACK = 4  # candidates beyond k asked of the tree, so most ties settle at once
_RANK_BLOCK = 1 << 18  # candidate entries per tree query: bounds memory when ties widen it
_TINY = np.finfo(np.float64).tiny  # absolute margin for distances that underflow


def require_bounded(arr, what):
    """Raise ValueError unless every entry is finite and within COORD_LIMIT."""
    if not np.all(np.abs(arr) <= COORD_LIMIT):  # NaN fails the comparison too
        raise ValueError(f"{what} must be finite and within +/-{COORD_LIMIT:g}")


class PointCloud3:
    """Immutable ordered collection of 3D points."""

    def __init__(self, points):
        arr = np.array(points, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("expected an (N, 3) array of 3D points")
        if arr.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        require_bounded(arr, "point cloud coordinates")
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
    `lexsort` of the snapped keys groups each cell's rows in index order, so
    the first row of each group is its lowest index (`-0.0` and `+0.0` keys
    compare equal and share a cell).
    """
    if arr.shape[0] == 0:
        return np.arange(0, dtype=np.intp)
    # float keys: an int64 cast would wrap beyond about 9.2e9
    keys = np.round(arr / DEDUPE_TOL)
    order = np.lexsort(keys.T)
    sk = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(sk[1:] != sk[:-1], axis=1)
    return np.sort(order[first])


def as_point_array(points, dim: int | None = None) -> np.ndarray:
    """Coerce an array-like to an (N, D) float64 array."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2D array of points")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got {arr.shape[1]}")
    return arr


class SpatialIndex:
    """Exact nearest-neighbor index over an immutable point snapshot, and
    the one place where neighbors are ranked.

    A k-d tree (`scipy.spatial.cKDTree`, sliding-midpoint splits) proposes
    candidates; their squared distances are recomputed with the left fold of
    `_sq_dists` and ranked by (distance, index), and a query is widened until
    no point the tree left out can tie with or beat the k-th candidate.  So
    results, including the lowest-index tie rule, are bit-identical to an
    exhaustive linear scan.  On a shared 2-vCPU VM, densifying a 2.5k-point
    box to 10k points spends about 0.03 s in `knn_batch` and evaluating the
    result 0.04 s in `nearest_batch` (6.4 s and 4.4 s with the flat scan it
    replaced); CD/HD evaluation of 300k against 300k points takes about 4 s.
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
        arr = as_point_array(points)
        if arr.shape[0] < 1:
            raise EmptyInput("cannot index an empty point set")
        require_bounded(arr, "indexed point coordinates")
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

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def _rank(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, k) indices and squared distances of the k nearest points to
        each query row, each row sorted by (squared distance, index)."""
        Q = as_point_array(queries, self.dim)
        # the tree refuses non-finite queries, and past the bound it loses
        # neighbors whose squared distance overflows
        require_bounded(Q, "query coordinates")
        n = self.count
        idx = np.empty((Q.shape[0], k), dtype=np.intp)
        sqd = np.empty((Q.shape[0], k), dtype=np.float64)
        todo = np.arange(Q.shape[0])
        width = min(n, k + _RANK_SLACK)
        while todo.size:
            retry = []
            step = max(1, _RANK_BLOCK // width)
            for lo in range(0, todo.size, step):
                rows = todo[lo:lo + step]
                _, cand = self._tree.query(Q[rows], k=width)
                cand = cand.reshape(rows.size, width)
                d2 = self._sq_dists(self._points[cand], Q[rows, None, :])
                order = np.lexsort((cand, d2))
                at = np.arange(rows.size)[:, None]
                cand, d2 = cand[at, order], d2[at, order]
                idx[rows], sqd[rows] = cand[:, :k], d2[:, :k]  # unsettled rows are redone
                # tree distances may differ from the left fold in the last
                # ulps, so a row is settled only when its k-th distance is
                # clearly below the last candidate's, hence below every
                # point the tree left out
                settled = (width == n) | (d2[:, k - 1] < d2[:, -1] * (1 - 1e-12) - _TINY)
                retry.append(rows[~settled])
            todo = np.concatenate(retry)
            width = min(n, 2 * width)
        return idx, sqd

    def knn_batch(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbors for each query row.

        Returns (indices (M, k), squared distances (M, k)), each row sorted
        ascending with ties broken by lowest index.
        """
        if k < 1:
            raise InsufficientPoints("k must be at least 1")
        if k > self.count:
            raise InsufficientPoints(f"k={k} exceeds point count {self.count}")
        return self._rank(queries, k)

    def nearest_batch(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Nearest neighbor for each query row.

        Returns (indices, squared distances), ties broken by lowest index
        exactly as `knn_batch`.
        """
        idx, sqd = self._rank(queries, 1)
        return idx[:, 0], sqd[:, 0]


def nearest_both_ways(a, b):
    """Both directed nearest-neighbor passes, ((indices into b, squared
    distances) per row of a, the same per row of b into a), behind the
    Chamfer and Hausdorff losses and eval; `combined_loss` makes the same
    two passes with the edge map's index built once."""
    return SpatialIndex(b).nearest_batch(a), SpatialIndex(a).nearest_batch(b)


def _fold_voxel_keys(keys: np.ndarray) -> np.ndarray | None:
    """One int64 key per row of non-negative integral float voxel keys, or
    None when the grid has 2^63 cells or more.

    With per-axis spans s_d = max key + 1, the fold (k0*s1 + k1)*s2 + k2
    (column 0 most significant) is injective and orders rows exactly as a
    lexicographic sort of the key rows.  The cell count is a Python integer
    product: a float one overflows at the bisection's smallest edges.
    """
    # a max per column: numpy's axis-0 max over three columns is ~8x slower
    spans = [int(keys[:, d].max()) + 1 for d in range(keys.shape[1])]
    if math.prod(spans) >= 1 << 63:
        return None
    ints = keys.astype(np.int64)
    folded = ints[:, 0]
    for d in range(1, ints.shape[1]):
        folded = folded * spans[d] + ints[:, d]
    return folded


def _voxel_bin_count(rel: np.ndarray, edge: float) -> int:
    """Number of occupied voxels of edge `edge` over rows `rel` taken
    relative to the voxel origin.

    Sorts the folded one-column key and counts unequal neighbours; a grid of
    2^63 cells or more (on the bench inputs, only the bisection's first,
    smallest edge) falls back to a `lexsort` of the float key columns.  On a
    2-vCPU VM, one count over 300k rows takes 0.03 s folded and 0.2 s by
    `lexsort`.
    """
    # float keys: at the bisection's smallest edge an index can exceed int64
    keys = np.floor(rel / edge)
    folded = _fold_voxel_keys(keys)
    if folded is None:
        keys = keys[np.lexsort(keys.T)]
        return 1 + int(np.count_nonzero(np.any(keys[1:] != keys[:-1], axis=1)))
    folded.sort()
    return 1 + int(np.count_nonzero(folded[1:] != folded[:-1]))


def _voxel_centroids(pts: np.ndarray, rel: np.ndarray, edge: float) -> np.ndarray:
    """Centroid of each occupied voxel of `pts`, binned by `rel` (the rows
    relative to the voxel origin) and ordered by voxel key (column 0 most
    significant).

    `np.unique` of the folded key orders the voxels as `np.unique(axis=0)`
    of the key rows, the fallback for grids of 2^63 cells or more, so the
    groups, their order and the summation order are the same on both paths.
    """
    keys = np.floor(rel / edge)
    folded = _fold_voxel_keys(keys)
    if folded is None:
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    else:
        uniq, inverse = np.unique(folded, return_inverse=True)
    sums = np.zeros((uniq.shape[0], pts.shape[1]))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(np.float64)
    return sums / counts[:, None]


def farthest_point_select(pts: np.ndarray, m: int) -> np.ndarray:
    """Indices of m points chosen by farthest-point (max-min) selection.

    Deterministic: starts from the point farthest from the mean and breaks
    ties by lowest index (np.argmax returns the first maximum).

    Each pick updates only the rows it can change.  A row's `dmin` drops only
    if its distance to the new pick is below that `dmin`, which is at most
    `dmin[nxt]`, the global maximum; so a k-d tree ball of radius
    sqrt(dmin[nxt]) around the pick, padded for the tree's last-ulp rounding
    as in `SpatialIndex._rank`, holds every such row.  Those rows are
    recomputed with the exhaustive scan's expression, so the pick sequence
    is bit-identical to updating every row.  On a shared 2-vCPU VM, ordering
    30k uniform random points takes 0.67 s (22.7 s updating every row).
    """
    d0 = np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)
    chosen = [int(np.argmax(d0))]
    dmin = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    tree = cKDTree(pts, balanced_tree=False)
    while len(chosen) < m:
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        reach = np.sqrt(dmin[nxt] * (1 + 1e-12) + _TINY)
        rows = np.asarray(tree.query_ball_point(pts[nxt], reach, return_sorted=False),
                          dtype=np.intp)
        dmin[rows] = np.minimum(dmin[rows], np.sum((pts[rows] - pts[nxt]) ** 2, axis=1))
    return np.array(chosen, dtype=np.intp)


def binned_centroids(pts: np.ndarray, target: int) -> tuple[np.ndarray, float]:
    """Voxel-bin a point array so that at least `target` bins are occupied.

    Bisects the voxel edge length until the occupied-bin count brackets the
    target as tightly as the bisection resolves, then returns the centroids
    of the occupied bins and the edge length used.  When the input has fewer
    than `target` distinct rows no edge length can reach the target; the
    distinct rows themselves are returned.

    Each of the 57-64 steps is one `_voxel_bin_count`, a sort of one int64
    key per row; only grids of 2^63 cells or more, on the bench inputs just
    the first probe at the smallest separating edge, take its `lexsort`
    fallback.
    """
    origin = pts.min(axis=0)
    extent = pts.max(axis=0) - origin
    rel = pts - origin  # once: every bisection step bins these rows

    # smallest separating edge: below the smallest positive per-axis gap,
    # every pair of distinct rows lands in different bins
    gaps = []
    for d in range(pts.shape[1]):
        diffs = np.diff(np.sort(pts[:, d]))
        diffs = diffs[diffs > 0]
        if diffs.size:
            gaps.append(diffs.min())
    if not gaps:  # all rows identical
        return pts[:1].copy(), 1.0
    # ...but no finer than extent / 1e300 and never zero: the voxel keys of
    # finer bins overflow, so rows a subnormal gap apart may share a bin
    lo = max(min(gaps) / 2.0, float(extent.max()) / 1e300,
             np.finfo(np.float64).smallest_subnormal)
    hi = float(np.linalg.norm(extent)) + lo

    if _voxel_bin_count(rel, lo) < target:
        # fewer distinct rows than requested; return what exists
        return _voxel_centroids(pts, rel, lo), lo

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = lo < mid < hi
        if _voxel_bin_count(rel, mid) >= target:
            lo = mid
        else:
            hi = mid
        if not inside:
            # mid was lo or hi, so lo and hi are now a fixed point of the
            # step (lo counts >= target, a mid == hi that counts < target
            # stays hi) and the remaining steps would repeat this one
            break
    return _voxel_centroids(pts, rel, lo), lo


def bin_downsample(cloud: PointCloud3, target_count: int) -> PointCloud3:
    """Downsample a cloud to exactly `target_count` voxel-bin centroids.

    Voxel edge length is bisected until the occupied bins bracket the
    target, then farthest-point selection among the bin centroids hits the
    count exactly.  Asking for the input size returns the input unchanged.
    """
    if target_count <= 0:
        raise InvalidTarget("target_count must be positive")
    n = len(cloud)
    if target_count > n:
        raise InvalidTarget(f"target_count {target_count} exceeds cloud size {n}")
    if target_count == n:
        return cloud

    centroids, _ = binned_centroids(cloud.points, target_count)
    m = min(target_count, centroids.shape[0])
    out = centroids[farthest_point_select(centroids, m)]
    if out.shape[0] < target_count:
        # degenerate duplicate-heavy cloud: cycle selected centroids
        reps = -(-target_count // out.shape[0])
        out = np.tile(out, (reps, 1))[:target_count]
    return PointCloud3(out)


def normalize_to_unit(points: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Center (N, 3) points on their bounding-box midpoint and scale to unit size.

    Returns (normalized points, scale, (3,) offset) with max |coordinate| == 1
    after the transform; `norm * scale + offset` inverts it up to float
    rounding.  A zero-extent set keeps scale 1.
    """
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    offset = 0.5 * (lo + hi)
    scale = float(np.max(np.abs(points - offset)))
    if scale == 0.0:
        scale = 1.0
    return (points - offset) / scale, scale, offset
