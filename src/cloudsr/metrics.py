"""Count-normalized 3D evaluation metrics.

Unlike the raw 2D training losses, the evaluation Chamfer distance divides
by the total point count of both clouds so scores are comparable across
cloud sizes; the Hausdorff metric needs no normalization.  Clouds can be
jointly rescaled by the ground truth's unit transform first.
"""

from __future__ import annotations

import json
from concurrent import futures
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CloudSRError
from .geometry import PointCloud3, SpatialIndex, as_point_array, normalize_to_unit


@dataclass(frozen=True)
class EvalReport:
    cd: float
    hd: float
    normalized: bool
    pred_count: int
    gt_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _nearest_d2(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distance from each query row to its nearest point."""
    return SpatialIndex(points).nearest_batch(queries)[1]


def eval_metrics(pred: PointCloud3, gt: PointCloud3,
                 normalize: bool = False) -> EvalReport:
    """Chamfer (count-normalized, squared) and Hausdorff (unsquared) between
    a predicted cloud and the ground truth.

    Raises `CloudSRError` when normalizing by a ground truth far smaller
    than the prediction's spread takes the prediction past `COORD_LIMIT`.
    """
    p = pred.points
    g = gt.points
    if normalize:
        g, scale, offset = normalize_to_unit(g)
        with np.errstate(over="ignore"):  # an overflow to inf fails the check below
            p = (p - offset) / scale
        try:
            p = as_point_array(p, 3, "normalized prediction coordinates")
        except ValueError as exc:
            raise CloudSRError(f"{exc}: the ground truth is too small to "
                               "normalize by") from exc

    # the directions share nothing and the k-d tree releases the GIL, so a
    # second CPU, where there is one, runs prediction->GT while this thread
    # runs GT->prediction; each returns the same array on any CPU count, and
    # when both fail the prediction->GT error is the one raised
    with futures.ThreadPoolExecutor(1) as pool:
        pending = pool.submit(_nearest_d2, g, p)
        try:
            d2_gp = _nearest_d2(p, g)
        finally:
            d2_pg = pending.result()
    cd = float((np.sum(d2_pg) + np.sum(d2_gp)) / (len(pred) + len(gt)))
    hd = float(max(np.sqrt(np.max(d2_pg)), np.sqrt(np.max(d2_gp))))
    return EvalReport(cd=cd, hd=hd, normalized=normalize,
                      pred_count=len(pred), gt_count=len(gt))
