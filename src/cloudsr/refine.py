"""Edge-guided refinement of 3D point positions.

The combined 2D loss is evaluated on the concave hull of the projected
cloud; its gradient is chained through the projection Jacobian to 3D
displacements of the hull-member points only.  Hull membership and vertex
order are frozen between periodic refreshes, and each iteration takes a
backtracking line-search step, so accepted losses are nonincreasing within
every hull-fixed window.  Each refresh ranks one `MatchTable` of
nearest-neighbor candidates from its hull pixels; every loss evaluation in
the window ranks its matches from that table, and a match the vertices'
drift leaves unproven gets a full index query.
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
    """Per-iteration observability records for one refinement run."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def accepted_steps(self) -> int:
        return sum(1 for r in self.records if r.step > 0.0)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.records)


def _member_loss(members: np.ndarray, rig: CameraRig, weights: LossWeights,
                 table: MatchTable) -> LossReport | None:
    """Loss of the hull whose vertices are the (H, 3) member rows, matched
    from the window's `table`, or None if a member is at or behind the near
    plane or projects past COORD_LIMIT."""
    uv, z = pinhole(members, rig)
    if np.any(z <= EPS_Z) or not np.all(np.abs(uv) <= COORD_LIMIT):  # NaN fails too
        return None
    return combined_loss(table, uv, weights)


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


# huge weights or steps overflow quietly: `_require_finite` and `_member_loss`
# turn the inf and NaN they leave into an error or a rejected trial
@np.errstate(over="ignore", invalid="ignore")
def refine(cloud: PointCloud3, edge_map: np.ndarray, rig: CameraRig,
           cfg: RefineConfig = RefineConfig()) -> tuple[PointCloud3, RefineTrace]:
    """Iteratively move hull-member points so the projected hull tracks the
    edge map.  Non-member points are never touched.  The initial hull must
    build; a later refresh that cannot (members left the frame or collapsed)
    ends refinement with the points reached so far.  A loss or gradient that
    is not finite (loss weights too large) raises CloudSRError.

    Returns the refined cloud (same size and order) and the trace.
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

    # the one trace site; it reads `report`, `members` and `culled` when called
    def record(iteration: int, step: float) -> None:
        trace.records.append(TraceRecord(iteration, report.total, report.l_cd, report.l_hd,
                                         report.l_gs, step, len(members), culled))

    members, culled, table, report = _refresh(pts, rig, cfg, edges)
    record(0, 0.0)
    window_start_total = report.total

    for it in range(1, cfg.max_iters + 1):
        if it > 1 and (it - 1) % cfg.hull_refresh_period == 0:
            # window boundary: check progress, then rebuild hull membership
            improvement = window_start_total - report.total
            if improvement < _REL_IMPROVEMENT_STOP * max(abs(window_start_total), 1e-30):
                break
            try:
                members, culled, table, report = _refresh(pts, rig, cfg, edges, members)
            except (AllPointsCulled, HullFailed):
                break  # members left the frame or collapsed: keep the progress
            window_start_total = report.total

        cur = pts[members]
        jac = projection_jacobians(cur, rig)   # (H, 2, 3)
        grad3 = np.einsum("nij,ni->nj", jac, report.grad)
        if cfg.constant_depth:
            grad3[:, 2] = 0.0
        gnorm = float(np.linalg.norm(grad3))
        if math.isinf(gnorm) and np.all(np.isfinite(grad3)):
            # the sum of squares overflowed, not the gradient: rescale first
            s = float(np.max(np.abs(grad3)))
            gnorm = s * float(np.linalg.norm(grad3 / s))
        _require_finite(gnorm)
        if gnorm == 0.0:
            break  # stationary point
        direction = grad3 / gnorm

        step = cfg.initial_step
        used_step = 0.0  # stays 0.0 when no step is accepted
        while step >= cfg.min_step:
            trial = cur - step * half_extent * direction
            trial_report = _member_loss(trial, rig, cfg.weights, table)
            if trial_report is not None and trial_report.total < report.total:
                pts[members] = trial
                report, used_step = trial_report, step
                break
            step *= cfg.backtrack_factor

        record(it, used_step)
        if used_step == 0.0:
            break  # step underflow

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
