"""Count-normalized 3D evaluation metrics.

Unlike the raw 2D training losses, the evaluation Chamfer distance divides
by the total point count of both clouds so scores are comparable across
cloud sizes; the Hausdorff metric needs no normalization.  Clouds can be
jointly rescaled by the ground truth's unit transform first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCloud
from .geometry import PointCloud3, nearest_both_ways, normalize_to_unit


@dataclass(frozen=True)
class EvalReport:
    cd: float
    hd: float
    normalized: bool
    pred_count: int
    gt_count: int
    scale: float  # normalization scale applied (1.0 when not normalized)

    def to_json(self) -> str:
        return json.dumps(
            {
                "cd": self.cd,
                "hd": self.hd,
                "normalized": self.normalized,
                "pred_count": self.pred_count,
                "gt_count": self.gt_count,
            }
        )


def eval_metrics(pred: PointCloud3, gt: PointCloud3,
                 normalize: bool = False) -> EvalReport:
    """Chamfer (count-normalized, squared) and Hausdorff (unsquared) between
    a predicted cloud and the ground truth."""
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("evaluation needs non-empty clouds")
    p = pred.points
    g = gt.points
    scale = 1.0
    if normalize:
        gt_unit, scale, offset = normalize_to_unit(gt)
        p = (p - offset) / scale
        g = gt_unit.points

    (_, d2_pg), (_, d2_gp) = nearest_both_ways(p, g)
    cd = float((np.sum(d2_pg) + np.sum(d2_gp)) / (len(pred) + len(gt)))
    hd = float(max(np.sqrt(np.max(d2_pg)), np.sqrt(np.max(d2_gp))))
    return EvalReport(cd=cd, hd=hd, normalized=normalize,
                      pred_count=len(pred), gt_count=len(gt), scale=scale)
