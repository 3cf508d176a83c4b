import math
from dataclasses import replace

import numpy as np
import pytest

from cloudsr.camera import CameraRig, Extrinsics, Intrinsics, pinhole, project_cloud
from cloudsr.densify import DensifyConfig
from cloudsr.edges import GrayImage, canny
from cloudsr.errors import AllPointsCulled, CloudSRError, HullFailed
from cloudsr.geometry import PointCloud3, SpatialIndex, bin_downsample
from cloudsr.hull import concave_hull
from cloudsr.losses import LossWeights, MatchTable, combined_loss
from cloudsr.refine import RefineConfig, RefineTrace, TraceRecord, refine, superres
from cloudsr.synth import SceneSpec, synth_scene

from oracles import random_rotation, two_index_combined_loss


_STOP_REASONS = ("max_iters", "window_stall", "refresh_failed", "stationary", "step_underflow")


def _rig():
    return CameraRig(Intrinsics(100.0, 100.0, 50.0, 50.0), Extrinsics(np.eye(4)),
                     Extrinsics(np.eye(4)), 100, 100)


def _grid_cloud(n=20, extent=0.8, z=2.0, jitter=0.0, seed=0):
    ticks = np.linspace(-extent / 2, extent / 2, n)
    xs, ys = np.meshgrid(ticks, ticks)
    pts = np.stack([xs.ravel(), ys.ravel(), np.full(n * n, z)], axis=1)
    if jitter:
        rng = np.random.default_rng(seed)
        pts = pts.copy()
        pts[:, :2] += rng.uniform(-jitter, jitter, size=(n * n, 2))
    return PointCloud3(pts)


def _square_outline(lo, hi, step=1.0):
    return _rect_outline(lo, hi, lo, hi, step)


def _rect_outline(u_lo, u_hi, v_lo, v_hi, step=1.0):
    us = np.arange(u_lo, u_hi + step / 2, step)
    vs = np.arange(v_lo, v_hi + step / 2, step)
    pts = (
        [(u, v_lo) for u in us]
        + [(u, v_hi) for u in us]
        + [(u_lo, v) for v in vs[1:-1]]
        + [(u_hi, v) for v in vs[1:-1]]
    )
    return np.array(pts, dtype=float)


def _windows(trace, period):
    """Split accepted-loss records into hull-fixed windows."""
    out, cur = [], []
    for rec in trace.records:
        if rec.iteration != 0 and (rec.iteration - 1) % period == 0 and cur:
            out.append(cur)
            cur = []
        cur.append(rec)
    if cur:
        out.append(cur)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        RefineConfig(hull_refresh_period=0)
    with pytest.raises(ValueError):
        RefineConfig(hull_k=2)


def test_min_step_may_not_exceed_initial_step(monkeypatch):
    # a larger minimum tried no step and left the dense cloud unrefined
    with pytest.raises(ValueError, match="min_step must not exceed initial_step"):
        RefineConfig(initial_step=0.01, min_step=0.02)
    with pytest.raises(ValueError, match="step sizes must be finite"):
        RefineConfig(min_step=math.inf)
    # equal: every line search tries the one step
    calls = []
    monkeypatch.setattr("cloudsr.refine.combined_loss",
                        lambda *a: calls.append(1) or combined_loss(*a))
    _, trace = refine(_grid_cloud(20, jitter=0.01), _square_outline(27.0, 73.0), _rig(),
                      RefineConfig(max_iters=5, initial_step=0.01, min_step=0.01))
    assert trace.accepted_steps() > 0
    assert len(calls) == len(trace.records)  # the refresh, then one trial per iteration


def test_empty_edge_map_rejected():
    with pytest.raises(CloudSRError, match="cannot refine against an empty edge map"):
        refine(_grid_cloud(), np.zeros((0, 2)), _rig())


def test_all_points_culled_propagates():
    behind = PointCloud3(np.array([[0.0, 0, -2], [0.1, 0, -2], [0, 0.1, -2]]))
    with pytest.raises(AllPointsCulled):
        refine(behind, _square_outline(20, 80), _rig())


def test_stationary_point_zero_accepted_steps():
    # hull vertices coincide exactly with the edge points and the smoothness
    # term is disabled, so the total gradient vanishes at iteration one
    cloud = PointCloud3(
        [[-0.4, -0.4, 2.0], [0.4, -0.4, 2.0], [0.4, 0.4, 2.0], [-0.4, 0.4, 2.0]]
    )
    edge_map, _ = project_cloud(cloud.points, _rig())
    cfg = RefineConfig(weights=LossWeights(1.0, 1.0, 0.0))
    out, trace = refine(cloud, edge_map, _rig(), cfg)
    np.testing.assert_array_equal(out.points, cloud.points)
    assert trace.accepted_steps() == 0
    assert trace.records[0].total == 0.0
    assert trace.stop_reason == "stationary" and len(trace.records) == 1


def test_identical_points_have_no_hull():
    # one distinct pixel: the hull fails before the zero half-extent scales a step
    cloud = PointCloud3(np.tile([[0.1, -0.2, 2.0]], (6, 1)))
    with pytest.raises(HullFailed, match="need at least 3 distinct points, got 1"):
        refine(cloud, _square_outline(20, 80), _rig())


def test_max_iters_zero_is_identity():
    cloud = _grid_cloud(8)
    out, trace = refine(cloud, _square_outline(20, 80), _rig(),
                        RefineConfig(max_iters=0))
    np.testing.assert_array_equal(out.points, cloud.points)
    assert len(trace.records) == 1  # baseline record only
    assert trace.stop_reason == "max_iters"


def test_offset_square_loss_decreases():
    # irregular boundary (as densification produces); projects near [30, 70]^2
    cloud = _grid_cloud(20, jitter=0.01)
    edge_map = _square_outline(27.0, 73.0)  # 3 px outside
    cfg = RefineConfig(max_iters=80)
    out, trace = refine(cloud, edge_map, _rig(), cfg)

    assert len(out) == len(cloud)
    initial = trace.records[0].total
    final = trace.records[-1].total
    assert final <= 0.5 * initial
    assert trace.accepted_steps() > 0
    assert trace.stop_reason == "max_iters" and trace.records[-1].iteration == 80

    # accepted-loss monotonicity within each hull-fixed window
    for window in _windows(trace, cfg.hull_refresh_period):
        totals = [r.total for r in window]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_perfectly_collinear_boundary_stalls_cleanly():
    # a perfect grid's hull sides are exactly straight: the smoothness term
    # is already minimal there and taxes any motion, so the line search
    # rejects and refinement terminates with the cloud unchanged
    cloud = _grid_cloud(20)
    out, trace = refine(cloud, _square_outline(27.0, 73.0), _rig(),
                        RefineConfig(max_iters=10))
    totals = [r.total for r in trace.records]
    assert totals[-1] <= totals[0]
    assert trace.stop_reason == "step_underflow" and trace.accepted_steps() == 0
    assert trace.records[-1].step == 0.0
    np.testing.assert_array_equal(out.points, cloud.points)


def test_non_hull_points_bit_identical():
    cloud = _grid_cloud(12, jitter=0.008, seed=3)
    edge_map = _square_outline(26.0, 74.0)
    out, trace = refine(cloud, edge_map, _rig(), RefineConfig(max_iters=15))

    proj, imap = project_cloud(cloud.points, _rig())
    members = set(concave_hull(proj, index_map=imap, k=20).source_indices)
    moved = {
        i
        for i in range(len(cloud))
        if not np.array_equal(out.points[i], cloud.points[i])
    }
    # the first window's members come from the same hull; later windows only
    # re-run the hull on a cloud whose non-members never moved
    untouched = set(range(len(cloud))) - moved
    assert moved, "refinement should have moved boundary points"
    for i in untouched:
        assert np.array_equal(out.points[i], cloud.points[i])
    # interior points are never hull members, hence never moved
    interior_example = len(cloud) // 2 + 6  # middle of the grid
    assert interior_example not in members
    assert interior_example not in moved


def test_constant_depth_moves_members_laterally_only():
    cloud = _grid_cloud(20, jitter=0.01)
    pts = cloud.points.copy()
    pts[:, 2] += np.random.default_rng(1).uniform(-0.02, 0.02, len(pts))
    cloud = PointCloud3(pts)
    edge_map = _square_outline(27.0, 73.0)
    cfg = RefineConfig(max_iters=20)
    free, _ = refine(cloud, edge_map, _rig(), cfg)
    assert free.points[:, 2].tobytes() != cloud.points[:, 2].tobytes()

    out, trace = refine(cloud, edge_map, _rig(), replace(cfg, constant_depth=True))
    assert trace.accepted_steps() > 0
    assert out.points[:, 2].tobytes() == cloud.points[:, 2].tobytes()
    assert np.any(out.points[:, :2] != cloud.points[:, :2])


def test_window_stall_stops_at_the_refresh(monkeypatch):
    # the scene of test_offset_square_loss_decreases: unpatched it runs to
    # max_iters; demanding a 90% gain per window stops it at the first
    # window boundary, before that refresh builds a hull
    cloud = _grid_cloud(20, jitter=0.01)
    edge_map = _square_outline(27.0, 73.0)
    cfg = RefineConfig(max_iters=80)
    _, trace = refine(cloud, edge_map, _rig(), cfg)
    assert trace.stop_reason == "max_iters" and trace.records[-1].iteration == 80

    hulls = []
    monkeypatch.setattr("cloudsr.refine.concave_hull",
                        lambda *args, **kw: hulls.append(1) or concave_hull(*args, **kw))
    monkeypatch.setattr("cloudsr.refine._REL_IMPROVEMENT_STOP", 0.9)
    _, trace = refine(cloud, edge_map, _rig(), cfg)
    assert trace.stop_reason == "window_stall"
    assert trace.records[-1].iteration == cfg.hull_refresh_period
    assert len(hulls) == 1


def test_each_refresh_is_warmed_with_the_previous_members(monkeypatch):
    calls = []

    def recording(points, index_map=None, k=20, likely=None):
        poly = concave_hull(points, index_map, k, likely=likely)
        calls.append((likely, poly.source_indices))
        return poly

    monkeypatch.setattr("cloudsr.refine.concave_hull", recording)
    cloud = _grid_cloud(20, jitter=0.01)
    cfg = RefineConfig(max_iters=40, hull_refresh_period=5)
    out, trace = refine(cloud, _square_outline(27.0, 73.0), _rig(), cfg)
    assert len(calls) == 8 and trace.records[-1].iteration == 40
    assert calls[0][0] is None  # the initial hull has no previous one
    for (_, previous), (likely, _) in zip(calls, calls[1:]):
        assert likely is previous
    # the hint changes no byte of the result
    monkeypatch.setattr("cloudsr.refine.concave_hull",
                        lambda points, index_map, k, likely: concave_hull(points, index_map, k))
    cold_out, cold_trace = refine(cloud, _square_outline(27.0, 73.0), _rig(), cfg)
    assert out.points.tobytes() == cold_out.points.tobytes()
    assert trace.to_jsonl() == cold_trace.to_jsonl()


def _synth_case(shape, seed):
    """(sparse cloud, edge map, rig) of a synth scene at a random pose."""
    rng = np.random.default_rng(seed)
    rig = CameraRig(Intrinsics(300.0, 300.0, 160.0, 120.0), Extrinsics(np.eye(4)),
                    Extrinsics(np.eye(4)), 320, 240)
    pose = Extrinsics.from_rt(random_rotation(rng),
                              [*rng.uniform(-0.1, 0.1, 2), rng.uniform(2.0, 2.5)])
    gt, img = synth_scene(SceneSpec(shape, pose, extent=0.5, density=4e3), rig)
    return bin_downsample(gt, 300), canny(img), rig


@pytest.mark.parametrize("scene", ["grid-square", "grid-square-long-steps"] + [
    f"{shape}-{seed}" for shape in ("sphere", "box") for seed in range(3)])
def test_window_match_table_changes_no_byte(monkeypatch, scene):
    # refine ranks each loss call's matches from its window's candidate
    # table; the loss that indexes the vertices anew on every call gives the
    # same cloud and trace.  Long steps move vertices past what the table
    # can settle, so rows fall back to full queries
    cfg = RefineConfig(max_iters=60)
    if scene.startswith("grid-square"):
        cloud, edge_map, rig = _grid_cloud(20, jitter=0.01), _square_outline(27.0, 73.0), _rig()
        if scene.endswith("long-steps"):
            cfg = replace(cfg, initial_step=0.2)
    else:
        shape, seed = scene.split("-")
        cloud, edge_map, rig = _synth_case(shape, int(seed))
    full_queries = []
    nearest_batch = SpatialIndex.nearest_batch
    monkeypatch.setattr(SpatialIndex, "nearest_batch",
                        lambda self, q: full_queries.append(1) or nearest_batch(self, q))
    out, trace = refine(cloud, edge_map, rig, cfg)
    assert trace.accepted_steps() > 0
    assert trace.stop_reason in _STOP_REASONS
    assert bool(full_queries) == scene.endswith("long-steps")
    monkeypatch.setattr("cloudsr.refine.combined_loss", two_index_combined_loss)
    want_out, want_trace = refine(cloud, edge_map, rig, cfg)
    assert out.points.tobytes() == want_out.points.tobytes()
    assert trace.to_jsonl() == want_trace.to_jsonl()


def test_member_leaving_frame_counts_until_refresh():
    # today's behaviour, pinned until ROADMAP item 5 decides it: a member whose
    # pixel leaves the frame inside a hull-fixed window stays in the loss, and
    # the next refresh culls it
    rig = _rig()
    xs, ys = np.meshgrid(np.linspace(-0.96, -0.5, 10), np.linspace(-0.3, 0.3, 10))
    pts = np.stack([xs.ravel(), ys.ravel(), np.full(100, 2.0)], axis=1)
    pts[:, :2] += np.random.default_rng(0).uniform(-0.01, 0.01, size=(100, 2))
    cloud = PointCloud3(pts)  # projects into u in [1.6, 25.5], v in [34.5, 65.5]
    edge_map = _rect_outline(-6.0, 25.0, 35.0, 65.0)  # reaches past the left border
    cfg = RefineConfig(max_iters=5, hull_refresh_period=5, initial_step=0.05,
                       weights=LossWeights(1.0, 1.0, 0.0))
    out, trace = refine(cloud, edge_map, rig, cfg)

    uv, _ = pinhole(out.points, rig)
    left = np.nonzero(uv[:, 0] < 0.0)[0]
    assert left.size > 0
    assert [r.culled for r in trace.records] == [0] * len(trace.records)
    proj, imap = project_cloud(cloud.points, rig)
    members = concave_hull(proj, index_map=imap, k=cfg.hull_k).source_indices
    assert set(left) <= set(members)
    uv = pinhole(out.points[members], rig)[0]
    in_loss = combined_loss(MatchTable.build(SpatialIndex(edge_map), uv), uv, cfg.weights)
    assert trace.records[-1].total == in_loss.total

    _, trace = refine(cloud, edge_map, rig, replace(cfg, max_iters=6))
    assert trace.records[-1].iteration == 6
    assert trace.records[-1].culled == left.size


def test_refresh_without_a_hull_keeps_progress():
    # an edge rectangle reaching far past the left border drags members out
    # of frame; refreshes cull them until fewer than 3 distinct pixels remain,
    # and that refresh ends refinement instead of raising HullFailed
    rig = _rig()
    xs, ys = np.meshgrid(np.linspace(-0.96, -0.5, 6), np.linspace(-0.3, 0.3, 6))
    pts = np.stack([xs.ravel(), ys.ravel(), np.full(36, 2.0)], axis=1)
    pts[:, :2] += np.random.default_rng(0).uniform(-0.01, 0.01, size=(36, 2))
    cloud = PointCloud3(pts)
    edge_map = _rect_outline(-80.0, 25.0, 35.0, 65.0)
    cfg = RefineConfig(max_iters=200, hull_refresh_period=5, initial_step=0.2,
                       weights=LossWeights(1.0, 1.0, 0.0))
    out, trace = refine(cloud, edge_map, rig, cfg)

    last = trace.records[-1]
    assert trace.stop_reason == "refresh_failed"
    assert last.iteration < cfg.max_iters and last.iteration % cfg.hull_refresh_period == 0
    assert last.hull_size == 3 and last.culled > 0
    assert trace.accepted_steps() > 0
    uv, index_map = project_cloud(out.points, rig)
    # the refresh that ended the run
    with pytest.raises(HullFailed, match="need at least 3 distinct points"):
        concave_hull(uv, index_map=index_map, k=cfg.hull_k)
    # the progress is returned, not lost: members moved and none crossed the
    # near plane
    assert np.any(out.points != cloud.points) and np.all(pinhole(out.points, rig)[1] > 0)


def _fail_second_hull(monkeypatch, error):
    """Make refine's second concave_hull call, its first refresh, raise `error`."""
    calls = []

    def failing(*args, **kw):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return concave_hull(*args, **kw)

    monkeypatch.setattr("cloudsr.refine.concave_hull", failing)
    return calls


@pytest.mark.parametrize("error", [
    HullFailed("all points are collinear"),
    AllPointsCulled("no point projects inside the image frame"),
], ids=["hull-failed", "all-points-culled"])
def test_refresh_that_has_no_hull_ends_refinement(monkeypatch, error):
    # the scene of test_offset_square_loss_decreases: unpatched it refreshes
    # at iteration 11; a refresh that raises one of the two errors refine
    # catches ends the run with the points of the first window
    cloud = _grid_cloud(20, jitter=0.01)
    edge_map = _square_outline(27.0, 73.0)
    cfg = RefineConfig(max_iters=80)
    reached, first_window = refine(cloud, edge_map, _rig(),
                                   replace(cfg, max_iters=cfg.hull_refresh_period))
    calls = _fail_second_hull(monkeypatch, error)
    out, trace = refine(cloud, edge_map, _rig(), cfg)
    assert len(calls) == 2
    assert trace.stop_reason == "refresh_failed"
    assert trace.records[-1].iteration == cfg.hull_refresh_period
    assert trace.to_jsonl() == first_window.to_jsonl()
    assert out.points.tobytes() == reached.points.tobytes()
    assert out.points.tobytes() != cloud.points.tobytes()


def test_refresh_with_another_data_error_propagates(monkeypatch):
    # any other CloudSRError at a refresh, such as an overflowing loss, is
    # not a missing hull: it leaves refine
    calls = _fail_second_hull(
        monkeypatch, CloudSRError("the loss or its gradient overflows; lower the loss weights"))
    with pytest.raises(CloudSRError, match="the loss or its gradient overflows") as info:
        refine(_grid_cloud(20, jitter=0.01), _square_outline(27.0, 73.0), _rig(),
               RefineConfig(max_iters=80))
    assert type(info.value) is CloudSRError
    assert len(calls) == 2


def test_gs_only_descent_nonincreasing():
    rng = np.random.default_rng(0)
    angles = np.sort(rng.uniform(0, 2 * np.pi, 40))
    radii = rng.uniform(0.3, 0.4, 40)
    pts = np.stack(
        [radii * np.cos(angles), radii * np.sin(angles), np.full(40, 2.0)], axis=1
    )
    cloud = PointCloud3(pts)
    cfg = RefineConfig(max_iters=30, weights=LossWeights(0.0, 0.0, 1.0))
    out, trace = refine(cloud, _square_outline(30, 70), _rig(), cfg)
    totals = [r.total for r in trace.records]
    for window in _windows(trace, cfg.hull_refresh_period):
        w = [r.total for r in window]
        assert all(b <= a + 1e-12 for a, b in zip(w, w[1:]))
    assert totals[-1] <= totals[0]


def test_refine_deterministic():
    cloud = _grid_cloud(14, jitter=0.008, seed=5)
    edge_map = _square_outline(27.0, 73.0)
    cfg = RefineConfig(max_iters=25)
    out1, tr1 = refine(cloud, edge_map, _rig(), cfg)
    out2, tr2 = refine(cloud, edge_map, _rig(), cfg)
    assert np.array_equal(out1.points, out2.points)
    assert tr1.to_jsonl() == tr2.to_jsonl()


def test_trace_jsonl_schema():
    trace = RefineTrace()
    trace.records.append(TraceRecord(0, 1.0, 2.0, 3.0, 4.0, 0.5, 10, 2))
    line = trace.to_jsonl().strip()
    import json

    data = json.loads(line)
    assert list(data) == [
        "iteration", "total", "l_cd", "l_hd", "l_gs", "step", "hull_size", "culled",
    ]


def test_superres_empty_edges_raises():
    cloud = _grid_cloud(8)
    flat = GrayImage(np.full((64, 64), 0.5))
    with pytest.raises(CloudSRError, match="edge detection found no edges to align to"):
        superres(cloud, flat, _rig())


def test_superres_end_to_end_counts():
    sparse = _grid_cloud(8)  # 64 points
    img = np.zeros((100, 100))
    img[30:71, 30:71] = 1.0  # silhouette matching the projected square
    rgb = GrayImage(img)
    cfg = RefineConfig(max_iters=12)
    out, trace = superres(sparse, rgb, _rig(), DensifyConfig(rate=4), cfg)
    assert len(out) == 4 * len(sparse)
    # originals lead the output in order; interior ones are never hull
    # members, hence never moved
    interior = 3 * 8 + 3  # row 3, col 3 of the 8x8 grid
    np.testing.assert_array_equal(out.points[interior], sparse.points[interior])
    assert len(trace.records) >= 1
