"""Edge-guided refinement of 3D point positions.

The combined 2D loss is evaluated on the concave hull of the projected
cloud; its gradient is chained through the projection Jacobian to 3D
displacements of the hull-member points only.  Hull membership and vertex
order are frozen between periodic refreshes, and each iteration takes a
backtracking line-search step, so accepted losses are nonincreasing within
every hull-fixed window.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .camera import CameraRig, EPS_Z, pinhole, project_cloud, projection_jacobians
from .densify import DensifyConfig, densify
from .edges import CannyParams, GrayImage, canny
from .errors import EmptyEdgeMap
from .geometry import PointCloud3
from .hull import concave_hull
from .losses import LossReport, LossWeights, combined_loss


@dataclass(frozen=True)
class RefineConfig:
    """Schedule and step-size knobs for the refinement loop."""

    max_iters: int = 200
    hull_refresh_period: int = 10
    initial_step: float = 0.01     # fraction of the cloud half-extent
    backtrack_factor: float = 0.5
    min_step: float = 1e-8
    weights: LossWeights = field(default_factory=LossWeights)
    hull_k: int = 20
    constant_depth: bool = False   # ablation: freeze z, move points laterally

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.hull_refresh_period < 1:
            raise ValueError("hull_refresh_period must be positive")
        if not self.initial_step > 0 or not self.min_step > 0:
            raise ValueError("step sizes must be positive")
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

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def accepted_steps(self) -> int:
        return sum(1 for r in self.records if r.step > 0.0)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.records)


class _FrozenHull:
    """Hull membership and vertex order pinned for one refresh window."""

    def __init__(self, cloud_pts: np.ndarray, rig: CameraRig, hull_k: int):
        uv, index_map = project_cloud(PointCloud3(cloud_pts), rig)
        self.culled = cloud_pts.shape[0] - len(uv)
        poly = concave_hull(uv, index_map=index_map, k=hull_k)
        self.members = poly.source_indices  # 3D rows, one per hull vertex

    def project_members(self, cloud_pts: np.ndarray, rig: CameraRig):
        """Current vertex pixels, or None if a member crossed the near plane."""
        uv, z = pinhole(cloud_pts[self.members], rig)
        if np.any(z <= EPS_Z):
            return None
        return uv

    def loss(self, cloud_pts: np.ndarray, rig: CameraRig,
             weights: LossWeights, edges: np.ndarray) -> LossReport | None:
        verts = self.project_members(cloud_pts, rig)
        if verts is None:
            return None
        return combined_loss(edges, verts, weights)


def refine(cloud: PointCloud3, edge_map: np.ndarray, rig: CameraRig,
           cfg: RefineConfig = RefineConfig()) -> tuple[PointCloud3, RefineTrace]:
    """Iteratively move hull-member points so the projected hull tracks the
    edge map.  Non-member points are never touched.

    Returns the refined cloud (same size and order) and the trace.
    """
    if len(edge_map) == 0:
        raise EmptyEdgeMap("cannot refine against an empty edge map")

    pts = cloud.points.copy()
    trace = RefineTrace()

    # step lengths are expressed in fractions of the cloud half-extent so the
    # defaults transfer across scene scales
    half_extent = float(np.max(pts.max(axis=0) - pts.min(axis=0))) / 2.0
    if half_extent == 0.0:
        half_extent = 1.0

    # the one trace site; it reads `report` and `hull` as they are when called
    def record(iteration: int, step: float) -> None:
        trace.append(TraceRecord(iteration, report.total, report.l_cd, report.l_hd,
                                 report.l_gs, step, len(hull.members), hull.culled))

    hull = _FrozenHull(pts, rig, cfg.hull_k)
    report = hull.loss(pts, rig, cfg.weights, edge_map)
    assert report is not None  # members came from a valid projection
    record(0, 0.0)
    window_start_total = report.total

    for it in range(1, cfg.max_iters + 1):
        if it > 1 and (it - 1) % cfg.hull_refresh_period == 0:
            # window boundary: check progress, then rebuild hull membership
            improvement = window_start_total - report.total
            if improvement < _REL_IMPROVEMENT_STOP * max(abs(window_start_total), 1e-30):
                break
            hull = _FrozenHull(pts, rig, cfg.hull_k)
            report = hull.loss(pts, rig, cfg.weights, edge_map)
            if report is None:
                break
            window_start_total = report.total

        jac = projection_jacobians(pts[hull.members], rig)   # (N, 2, 3)
        grad3 = np.einsum("nij,ni->nj", jac, report.grad)
        if cfg.constant_depth:
            grad3[:, 2] = 0.0
        gnorm = float(np.linalg.norm(grad3))
        if gnorm == 0.0:
            break  # stationary point
        direction = grad3 / gnorm

        step = cfg.initial_step
        used_step = 0.0  # stays 0.0 when no step is accepted
        while step >= cfg.min_step:
            trial = pts.copy()
            trial[hull.members] -= step * half_extent * direction
            trial_report = hull.loss(trial, rig, cfg.weights, edge_map)
            if trial_report is not None and trial_report.total < report.total:
                pts, report, used_step = trial, trial_report, step
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
        raise EmptyEdgeMap("edge detection found no edges to align to")
    dense = densify(sparse, dcfg)
    return refine(dense, edges, rig, rcfg)
