"""Count-normalized 3D evaluation metrics.

Unlike the raw 2D training losses, the evaluation Chamfer distance divides
by the total point count of both clouds so scores are comparable across
cloud sizes; the Hausdorff metric needs no normalization.  Clouds can be
jointly rescaled by the ground truth's unit transform first.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import PointCloud3, nearest_both_ways, normalize_to_unit


@dataclass(frozen=True)
class EvalReport:
    cd: float
    hd: float
    normalized: bool
    pred_count: int
    gt_count: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def eval_metrics(pred: PointCloud3, gt: PointCloud3,
                 normalize: bool = False) -> EvalReport:
    """Chamfer (count-normalized, squared) and Hausdorff (unsquared) between
    a predicted cloud and the ground truth."""
    p = pred.points
    g = gt.points
    if normalize:
        g, scale, offset = normalize_to_unit(g)
        p = (p - offset) / scale

    (_, d2_pg), (_, d2_gp) = nearest_both_ways(p, g)
    cd = float((np.sum(d2_pg) + np.sum(d2_gp)) / (len(pred) + len(gt)))
    hd = float(max(np.sqrt(np.max(d2_pg)), np.sqrt(np.max(d2_gp))))
    return EvalReport(cd=cd, hd=hd, normalized=normalize,
                      pred_count=len(pred), gt_count=len(gt))
