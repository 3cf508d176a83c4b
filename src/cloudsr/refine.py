"""Edge-guided refinement of 3D point positions.

The combined 2D loss is evaluated on the concave hull of the projected
cloud; its gradient is chained through the projection Jacobian to 3D
displacements of the hull-member points only.  Hull membership and vertex
order are frozen between periodic refreshes, and each iteration takes a
backtracking line-search step, so accepted losses are nonincreasing within
every hull-fixed window.  Every loss evaluation in a window ranks its
matches from the one `MatchTable` its refresh ranked from the hull pixels.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .camera import CameraRig, EPS_Z, pinhole, project_cloud, projection_jacobians
from .densify import DensifyConfig, densify
from .edges import CannyParams, GrayImage, canny
from .errors import AllPointsCulled, CloudSRError, HullFailed
from .geometry import COORD_LIMIT, PointCloud3, SpatialIndex, column_bounds
from .hull import START_K, concave_hull
from .losses import LossReport, LossWeights, MatchTable, combined_loss


@dataclass(frozen=True)
class RefineConfig:
    """Schedule and step-size knobs for the refinement loop."""

    max_iters: int = 200
    hull_refresh_period: int = 10
    initial_step: float = 0.01     # fraction of the cloud half-extent
    backtrack_factor: float = 0.5
    min_step: float = 1e-8
    weights: LossWeights = field(default_factory=LossWeights)
    hull_k: int = START_K
    constant_depth: bool = False   # ablation: freeze z, move points laterally

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.hull_refresh_period < 1:
            raise ValueError("hull_refresh_period must be positive")
        if not self.initial_step > 0 or not self.min_step > 0:
            raise ValueError("step sizes must be positive")
        if not (math.isfinite(self.initial_step) and math.isfinite(self.min_step)):
            raise ValueError("step sizes must be finite")
        if self.min_step > self.initial_step:  # equal: the line search tries one step
            raise ValueError("min_step must not exceed initial_step")
        if not (0.0 < self.backtrack_factor < 1.0):
            raise ValueError("backtrack_factor must be in (0, 1)")
        if self.hull_k < 3:
            raise ValueError("hull_k must be at least 3")


_REL_IMPROVEMENT_STOP = 1e-6


@dataclass
class TraceRecord:
    """State after one refinement iteration (step == 0 when none accepted)."""

    iteration: int
    total: float
    l_cd: float
    l_hd: float
    l_gs: float
    step: float
    hull_size: int
    culled: int


class RefineTrace:
    """Per-iteration observability records of one refinement run, and its exit."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.stop_reason: str | None = None  # set when refine returns

    def accepted_steps(self) -> int:
        return sum(1 for r in self.records if r.step > 0.0)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.records)


def _require_finite(*values: float) -> None:
    """Raise CloudSRError unless the loss and gradient values are finite."""
    if not all(math.isfinite(v) for v in values):
        raise CloudSRError("the loss or its gradient overflows; lower the loss weights")


def _refresh(pts: np.ndarray, rig: CameraRig, cfg: RefineConfig, edges: SpatialIndex,
             likely: np.ndarray | None = None
             ) -> tuple[np.ndarray, int, MatchTable, LossReport]:
    """(members, culled, table, report): the rows of `pts` that are hull
    vertices, in vertex order, how many rows the projection culled, the
    window's match candidates ranked from the hull's pixels, and the loss
    of those pixels.  `likely` (the previous members) only speeds up the
    hull walk.  Raises CloudSRError unless the loss is finite."""
    uv, index_map = project_cloud(pts, rig)
    poly = concave_hull(uv, index_map=index_map, k=cfg.hull_k, likely=likely)
    table = MatchTable.build(edges, poly.vertices)
    report = combined_loss(table, poly.vertices, cfg.weights)
    _require_finite(report.total)
    return poly.source_indices, pts.shape[0] - len(uv), table, report


def _step(cur: np.ndarray, rig: CameraRig, cfg: RefineConfig, table: MatchTable,
          report: LossReport, scale: float) -> tuple[np.ndarray, LossReport, float] | str:
    """One line-search step of the (H, 3) hull members `cur` of loss `report`,
    in lengths of `scale`: (members, loss, step) of the first trial that
    lowers the loss, or the exit "stationary" or "step_underflow".  A trial
    with a member at or behind the near plane or past COORD_LIMIT fails."""
    grad3 = np.einsum("nij,ni->nj", projection_jacobians(cur, rig), report.grad)
    if cfg.constant_depth:
        grad3[:, 2] = 0.0
    gnorm = float(np.linalg.norm(grad3))
    if math.isinf(gnorm) and np.all(np.isfinite(grad3)):
        # the sum of squares overflowed, not the gradient: rescale first
        s = float(np.max(np.abs(grad3)))
        gnorm = s * float(np.linalg.norm(grad3 / s))
    _require_finite(gnorm)
    if gnorm == 0.0:
        return "stationary"
    direction = grad3 / gnorm
    step = cfg.initial_step
    while step >= cfg.min_step:
        trial = cur - step * scale * direction
        uv, z = pinhole(trial, rig)
        if not np.any(z <= EPS_Z) and np.all(np.abs(uv) <= COORD_LIMIT):  # NaN fails too
            trial_report = combined_loss(table, uv, cfg.weights)
            if trial_report.total < report.total:
                return trial, trial_report, step
        step *= cfg.backtrack_factor
    return "step_underflow"


# huge weights or steps overflow quietly: `_require_finite` and `_step`
# turn the inf and NaN they leave into an error or a rejected trial
@np.errstate(over="ignore", invalid="ignore")
def refine(cloud: PointCloud3, edge_map: np.ndarray, rig: CameraRig,
           cfg: RefineConfig = RefineConfig()) -> tuple[PointCloud3, RefineTrace]:
    """Iteratively move hull-member points so the projected hull tracks the
    edge map.  Non-member points are never touched.  The initial hull must
    build.  A loss or gradient that is not finite (loss weights too large)
    raises CloudSRError.

    Returns the refined cloud (same size and order) and the trace, whose
    `stop_reason` names the exit taken: "max_iters", "window_stall" (a
    window lowered the loss by less than a relative 1e-6), "refresh_failed"
    (members left the frame or collapsed, so a refresh built no hull; the
    points reached so far are kept), "stationary" (the gradient is zero) or
    "step_underflow" (no step down to `min_step` lowered the loss).
    """
    if len(edge_map) == 0:
        raise CloudSRError("cannot refine against an empty edge map")
    edges = SpatialIndex(edge_map)

    pts = cloud.points.copy()
    trace = RefineTrace()

    # step lengths are expressed in fractions of the cloud half-extent so the
    # defaults transfer across scene scales
    lo, hi = column_bounds(pts)
    half_extent = float(np.max(hi - lo)) / 2.0

    members, culled, table, report = _refresh(pts, rig, cfg, edges)
    trace.records.append(TraceRecord(0, report.total, report.l_cd, report.l_hd,
                                     report.l_gs, 0.0, len(members), culled))
    window_start = report.total
    trace.stop_reason = "max_iters"  # unless the loop exits early
    for it in range(1, cfg.max_iters + 1):
        if it > 1 and (it - 1) % cfg.hull_refresh_period == 0:
            # window boundary: check progress, then rebuild hull membership
            if window_start - report.total < _REL_IMPROVEMENT_STOP * max(abs(window_start), 1e-30):
                trace.stop_reason = "window_stall"
                break
            try:
                members, culled, table, report = _refresh(pts, rig, cfg, edges, members)
            except (AllPointsCulled, HullFailed):  # members left the frame or collapsed
                trace.stop_reason = "refresh_failed"
                break
            window_start = report.total

        taken = _step(pts[members], rig, cfg, table, report, half_extent)
        if isinstance(taken, str):
            trace.stop_reason, step = taken, 0.0
        else:
            pts[members], report, step = taken
        if taken != "stationary":  # the trace records no iteration at a stationary point
            trace.records.append(TraceRecord(it, report.total, report.l_cd, report.l_hd,
                                             report.l_gs, step, len(members), culled))
        if step == 0.0:
            break

    return PointCloud3(pts), trace


def superres(sparse: PointCloud3, rgb: GrayImage, rig: CameraRig,
             dcfg: DensifyConfig = DensifyConfig(),
             rcfg: RefineConfig = RefineConfig(),
             ccfg: CannyParams = CannyParams()) -> tuple[PointCloud3, RefineTrace]:
    """Full pipeline: edge detection, densification, edge-guided refinement.

    Output cloud has exactly dcfg.rate * len(sparse) points.
    """
    edges = canny(rgb, ccfg)
    if len(edges) == 0:
        raise CloudSRError("edge detection found no edges to align to")
    dense = densify(sparse, dcfg)
    return refine(dense, edges, rig, rcfg)
