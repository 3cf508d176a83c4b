import json

import numpy as np
import pytest

from cloudsr.camera import CameraRig, Extrinsics, Intrinsics, project_cloud
from cloudsr.edges import CannyParams, canny
from cloudsr.errors import ShapeOutOfFrame
from cloudsr.geometry import PointCloud3, normalize_to_unit
from cloudsr.metrics import eval_metrics
from cloudsr.synth import SceneSpec, synth_scene

from oracles import brute_chamfer, brute_hausdorff


def _rig(fx=800.0, w=640, h=480):
    return CameraRig(Intrinsics(fx, fx, w / 2.0, h / 2.0), Extrinsics(np.eye(4)),
                     Extrinsics(np.eye(4)), w, h)


# -- eval_metrics -----------------------------------------------------------------


def test_eval_identical_clouds():
    cloud = PointCloud3(np.random.default_rng(0).normal(size=(50, 3)))
    rep = eval_metrics(cloud, cloud)
    assert rep.cd == 0.0
    assert rep.hd == 0.0
    assert (rep.pred_count, rep.gt_count) == (50, 50)


def test_eval_single_point_offset_closed_form():
    delta = 0.25
    pred = PointCloud3([[delta, 0.0, 0.0]])
    gt = PointCloud3([[0.0, 0.0, 0.0]])
    rep = eval_metrics(pred, gt)
    assert rep.cd == pytest.approx(delta**2, rel=1e-15)
    assert rep.hd == pytest.approx(delta, rel=1e-15)


def test_eval_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.uniform(size=(int(rng.integers(1, 120)), 3))
        b = rng.uniform(size=(int(rng.integers(1, 120)), 3))
        rep = eval_metrics(PointCloud3(a), PointCloud3(b))
        want_cd = brute_chamfer(a, b) / (len(a) + len(b))
        assert rep.cd == pytest.approx(want_cd, rel=1e-12)
        assert rep.hd == pytest.approx(brute_hausdorff(a, b), rel=1e-12)


def test_eval_normalized_uses_gt_transform():
    rng = np.random.default_rng(2)
    gt = rng.uniform(size=(40, 3)) * 4.0
    pred = gt + 0.1
    r_plain = eval_metrics(PointCloud3(pred), PointCloud3(gt))
    r_norm = eval_metrics(PointCloud3(pred), PointCloud3(gt), normalize=True)
    _, scale, _ = normalize_to_unit(gt)
    assert r_norm.normalized
    assert scale > 1.0
    assert r_norm.hd == pytest.approx(r_plain.hd / scale, rel=1e-12)
    assert r_norm.cd == pytest.approx(r_plain.cd / scale**2, rel=1e-12)


def test_eval_json_schema():
    cloud = PointCloud3([[0.0, 0, 0]])
    data = json.loads(eval_metrics(cloud, cloud).to_json())
    assert list(data) == ["cd", "hd", "normalized", "pred_count", "gt_count"]


# -- synth_scene -------------------------------------------------------------------


def _plane_spec(extent=0.5, density=4e4, z=2.0):
    return SceneSpec(
        shape="square-plane",
        pose=Extrinsics.from_rt(np.eye(3), [0.0, 0.0, z]),
        extent=extent,
        density=density,
    )


def test_plane_grid_counts_and_depth():
    spec = SceneSpec(
        shape="square-plane",
        pose=Extrinsics.from_rt(np.eye(3), [0.0, 0.0, 2.0]),
        extent=1.0,
        density=1e4,
    )
    cloud, img = synth_scene(spec, _rig(fx=500.0))
    assert len(cloud) == 10_000
    assert np.all(cloud.points[:, 2] == 2.0)
    assert (img.width, img.height) == (640, 480)
    assert set(np.unique(img.pixels)) == {0.0, 1.0}


def test_plane_silhouette_edges_near_analytic_boundary():
    spec = _plane_spec()
    rig = _rig()
    cloud, img = synth_scene(spec, rig)
    edge_map = canny(img, CannyParams())
    assert len(edge_map) > 0
    # analytic projected square: center pixel +- fx * (extent/2) / z
    half = 800.0 * 0.25 / 2.0
    lo_u, hi_u = 320.0 - half, 320.0 + half
    lo_v, hi_v = 240.0 - half, 240.0 + half
    for u, v in edge_map:
        d_edges = min(
            abs(u - lo_u), abs(u - hi_u), abs(v - lo_v), abs(v - hi_v)
        )
        inside_u = lo_u - 1.5 <= u <= hi_u + 1.5
        inside_v = lo_v - 1.5 <= v <= hi_v + 1.5
        assert d_edges <= 1.5 and inside_u and inside_v


def test_sphere_points_on_radius():
    spec = SceneSpec(
        shape="sphere",
        pose=Extrinsics.from_rt(np.eye(3), [0.0, 0.0, 2.0]),
        extent=0.4,
        density=2e4,
    )
    cloud, img = synth_scene(spec, _rig())
    r = np.linalg.norm(cloud.points - [0.0, 0.0, 2.0], axis=1)
    np.testing.assert_allclose(r, 0.2, atol=1e-9)
    assert img.pixels.max() == 1.0  # silhouette rendered


def test_box_visible_faces_project_in_frame():
    spec = SceneSpec(
        shape="box",
        pose=Extrinsics.from_rt(np.eye(3), [0.0, 0.0, 2.0]),
        extent=0.4,
        density=1e4,
    )
    rig = _rig()
    cloud, img = synth_scene(spec, rig)
    proj, imap = project_cloud(cloud.points, rig)
    assert len(proj) == len(cloud)
    # only camera-facing faces sampled: nothing deeper than the box center
    assert cloud.points[:, 2].max() <= 2.0 + 1e-12


def test_out_of_frame_raises():
    spec = SceneSpec(
        shape="square-plane",
        pose=Extrinsics.from_rt(np.eye(3), [0.0, 0.0, 0.3]),  # too close: overflows
        extent=0.5,
        density=1e4,
    )
    with pytest.raises(ShapeOutOfFrame):
        synth_scene(spec, _rig())


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(shape="torus", pose=Extrinsics(np.eye(4)))
    with pytest.raises(ValueError):
        SceneSpec(shape="box", pose=Extrinsics(np.eye(4)), fg=0.5, bg=0.5)
