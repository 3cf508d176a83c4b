"""Deterministic cloud densification by iterative kNN-midpoint interpolation.

Each round emits the midpoints between every point and its nearest
neighbors, deduplicates, and repeats until the pool is large enough; the
generated points are then voxel-downsampled so the output hits exactly
rate * input_count while every original point is passed through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CloudSRError
from .geometry import PointCloud3, SpatialIndex, bin_downsample, dedupe_rows

#: bound on target * min(k_interp + 1, target), which exceeds the rows the
#: last midpoint round allocates; it admits a 300k-point frame at rate 4
#: with k_interp 8
MAX_MIDPOINT_ROWS = 300_000 * 4 * (8 + 1)


@dataclass(frozen=True)
class DensifyConfig:
    """Upsampling rate and neighbors interpolated per point.  Coincident
    midpoints merge at `geometry.DEDUPE_TOL`."""

    rate: int = 4
    k_interp: int = 4

    def __post_init__(self):
        if self.rate < 2:
            raise ValueError("rate must be at least 2")
        if self.k_interp < 2:
            raise ValueError("k_interp must be at least 2")


def _midpoint_round(pts: np.ndarray, k_interp: int) -> np.ndarray:
    """Midpoints between each point and its k nearest neighbors (self
    excluded), row by row.  (a+b)/2 == (b+a)/2 exactly, so a pair (r, c)
    with r > c whose mirror (c, r) row c's list holds is left out: that
    copy comes earlier, and `dedupe_rows` would keep it instead."""
    n = pts.shape[0]
    k = min(k_interp + 1, n)  # +1: the nearest neighbor of a point is itself
    nbrs, _ = SpatialIndex(pts).knn_batch(pts, k)
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    mask = rows < cols
    # a pair (r, c) with r > c is kept only when row c's list lacks r
    back = np.flatnonzero(rows > cols)
    mask[back] = ~(np.take(nbrs, cols[back], axis=0) == rows[back, None]).any(axis=1)
    return 0.5 * (np.take(pts, rows[mask], axis=0) + np.take(pts, cols[mask], axis=0))


def densify(cloud: PointCloud3, cfg: DensifyConfig = DensifyConfig()) -> PointCloud3:
    """Upsample a cloud to exactly cfg.rate * len(cloud) points.

    The output is a superset of the input; generated points are midpoints
    (and voxel centroids of midpoints), so they stay inside the input's
    convex hull.  Fully deterministic.
    """
    n_in = len(cloud)
    if n_in < 2:
        raise CloudSRError("densification needs at least 2 points")
    target = cfg.rate * n_in
    # every round's pool is smaller than the target, and _midpoint_round
    # ranks min(k_interp + 1, pool) neighbors per pool row
    if target * min(cfg.k_interp + 1, target) > MAX_MIDPOINT_ROWS:
        raise CloudSRError(
            f"densifying {n_in} points at rate {cfg.rate} with k_interp "
            f"{cfg.k_interp} exceeds {MAX_MIDPOINT_ROWS} midpoint rows")
    originals = cloud.points

    # the working pool starts from the deduped originals; all originals are
    # reinstated verbatim at the end regardless
    keep = dedupe_rows(originals)
    pool = originals[keep]
    n_base = pool.shape[0]
    while pool.shape[0] - n_base < target - n_in:
        mids = _midpoint_round(pool, cfg.k_interp)
        grown = np.vstack([pool, mids])
        grown = grown[dedupe_rows(grown)]
        if grown.shape[0] == pool.shape[0]:
            break  # degenerate cloud stopped producing new points
        pool = grown

    generated = pool[n_base:]
    extra = target - n_in
    if generated.shape[0] > extra:
        generated = bin_downsample(PointCloud3(generated), extra).points
    elif generated.shape[0] < extra:
        # degenerate duplicate-heavy input: cycle what exists
        base = generated if generated.shape[0] else pool
        generated = np.resize(base, (extra, base.shape[1]))
    return PointCloud3(np.vstack([originals, generated]))
