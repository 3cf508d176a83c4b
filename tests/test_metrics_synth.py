import json
import threading

import numpy as np
import pytest

from cloudsr import metrics
from cloudsr.camera import CameraRig, Extrinsics, Intrinsics, project_cloud
from cloudsr.edges import CannyParams, canny
from cloudsr.errors import CloudSRError
from cloudsr.geometry import PointCloud3, normalize_to_unit
from cloudsr.metrics import eval_metrics
from cloudsr.synth import SceneSpec, _camera_center_in_tof, scene_from_dict, synth_scene

from oracles import (brute_chamfer, brute_hausdorff, random_rotation, silhouette_mask,
                     six_face_box_samples, square_samples)


def _rot(axis, deg):
    """Rotation by deg about the x or z axis."""
    c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    i, j = (1, 2) if axis == "x" else (0, 1)
    r = np.eye(3)
    r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
    return r


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


def _eval_clouds(kind, rng):
    """(prediction, ground truth) arrays of one kind: uniform, lattice rows
    whose nearest points tie four or more ways, rows repeated many times,
    or a prediction far larger than the ground truth."""
    if kind == "random":
        return rng.uniform(size=(300, 3)), rng.uniform(size=(280, 3))
    if kind == "lattice":
        grid = np.stack(np.meshgrid(*[np.arange(7.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
        return grid + [0.5, 0.5, 0.0], grid[::2] * 2.0
    if kind == "duplicates":
        base = rng.integers(0, 3, size=(12, 3)).astype(float)
        return np.repeat(base, 25, axis=0), base[rng.integers(0, 12, 90)]
    return rng.normal(size=(2000, 3)), rng.normal(size=(7, 3))


_NEAREST_D2 = metrics._nearest_d2


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "unequal"])
def test_eval_concurrent_directions_equal_serial(monkeypatch, kind, normalize):
    # prediction->GT (the direction that indexes the ground truth) runs on
    # the pool's worker and GT->prediction on the calling thread; each
    # returns the bytes of a serial call, so the report is the serial pass's
    # float for float, and it equals the exhaustive scans
    pred, gt = _eval_clouds(kind, np.random.default_rng(3))
    ran = {}

    def recorded(points, queries):
        d2 = _NEAREST_D2(points, queries)
        ran["gt" if len(points) == len(gt) else "pred"] = (threading.current_thread(), d2)
        return d2

    monkeypatch.setattr(metrics, "_nearest_d2", recorded)
    report = eval_metrics(PointCloud3(pred), PointCloud3(gt), normalize)
    if normalize:
        gt, scale, offset = normalize_to_unit(gt)
        pred = (pred - offset) / scale
    d2_pg, d2_gp = _NEAREST_D2(gt, pred), _NEAREST_D2(pred, gt)
    assert ran["gt"][0] is not threading.current_thread()
    assert ran["pred"][0] is threading.current_thread()
    assert ran["gt"][1].tobytes() == d2_pg.tobytes()
    assert ran["pred"][1].tobytes() == d2_gp.tobytes()
    assert report.cd == float((np.sum(d2_pg) + np.sum(d2_gp)) / (len(pred) + len(gt)))
    assert report.hd == float(max(np.sqrt(np.max(d2_pg)), np.sqrt(np.max(d2_gp))))
    assert report.cd == pytest.approx(brute_chamfer(pred, gt) / (len(pred) + len(gt)),
                                      rel=1e-12)
    assert report.hd == pytest.approx(brute_hausdorff(pred, gt), rel=1e-12)


class _DirectionFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [("gt",), ("pred",), ("gt", "pred")])
def test_eval_direction_errors_surface_as_in_the_serial_pass(monkeypatch, failing):
    # an error in the worker's direction (the one that indexes the ground
    # truth) reaches the caller with its type and message, as does one on
    # the calling thread; when both fail, the serial pass's first error,
    # the worker's, wins
    rng = np.random.default_rng(4)
    pred, gt = PointCloud3(rng.uniform(size=(30, 3))), PointCloud3(rng.uniform(size=(20, 3)))
    threads = {}

    def refusing(points, queries):
        name = "pred" if len(points) == 30 else "gt"
        threads[name] = threading.current_thread()
        if name in failing:
            raise _DirectionFailed(f"indexing {name}")
        return _NEAREST_D2(points, queries)

    monkeypatch.setattr(metrics, "_nearest_d2", refusing)
    with pytest.raises(_DirectionFailed, match=f"^indexing {failing[0]}$"):
        eval_metrics(pred, gt)
    assert threads["gt"] is not threading.current_thread()
    assert threads["pred"] is threading.current_thread()


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
    with pytest.raises(CloudSRError, match="some surface samples project out of frame"):
        synth_scene(spec, _rig())


@pytest.mark.parametrize("shape", ["square-plane", "box", "sphere"])
def test_silhouette_matches_replaced_forms(shape):
    """The ray-cast silhouette equals, bit for bit, the forms it replaced:
    the convex hull of projected corners (square, box), the per-pixel
    sphere test (sphere)."""
    rng = np.random.default_rng(["square-plane", "box", "sphere"].index(shape))
    for _ in range(100):
        e_tof = Extrinsics.from_rt(_rot("z", rng.uniform(-5, 5)), rng.uniform(-0.03, 0.03, 3))
        rig = CameraRig(Intrinsics(300.0, 300.0, 160.0, 120.0), Extrinsics(np.eye(4)),
                        e_tof, 320, 240)
        pose = Extrinsics.from_rt(random_rotation(rng),
                                  [*rng.uniform(-0.1, 0.1, 2), rng.uniform(2.0, 3.0)])
        spec = SceneSpec(shape, pose, extent=rng.uniform(0.2, 0.6), density=2e3)
        _, img = synth_scene(spec, rig)
        np.testing.assert_array_equal(img.pixels, silhouette_mask(spec, rig).astype(float))


@pytest.mark.parametrize("shape", ["square-plane", "box"])
def test_samples_match_hand_written_faces(shape):
    """Square and box samples equal, bit for bit, the square and the six
    box faces written out one by one, with the camera on both sides of
    every face."""
    rng = np.random.default_rng(["square-plane", "box"].index(shape))
    sides = set()
    for _ in range(200):
        e_tof = Extrinsics.from_rt(_rot("z", rng.uniform(-5, 5)), rng.uniform(-0.03, 0.03, 3))
        rig = CameraRig(Intrinsics(300.0, 300.0, 160.0, 120.0), Extrinsics(np.eye(4)),
                        e_tof, 320, 240)
        pose = Extrinsics.from_rt(random_rotation(rng),
                                  [*rng.uniform(-0.1, 0.1, 2), rng.uniform(2.0, 3.0)])
        spec = SceneSpec(shape, pose, extent=rng.uniform(0.2, 0.6), density=2e3)
        cloud, _ = synth_scene(spec, rig)
        cam_local = pose.rotation.T @ (_camera_center_in_tof(rig) - pose.translation)
        if shape == "box":
            local = six_face_box_samples(spec.extent, spec.density, cam_local)
        else:
            local = square_samples(spec.extent, spec.density)
        want = local @ pose.rotation.T + pose.translation
        assert cloud.points.tobytes() == want.tobytes()
        # (axis, face, camera outside it) for all six faces
        h = spec.extent / 2.0
        sides |= {(axis, sign, bool(sign * cam_local[axis] > h))
                  for axis in range(3) for sign in (-1, 1)}
    assert len(sides) == 12


def test_silhouette_outline_on_pixel_centers():
    spec = _plane_spec()  # outline at u, v = 320 +- 100 and 240 +- 100
    rig = _rig()
    _, img = synth_scene(spec, rig)
    np.testing.assert_array_equal(img.pixels, silhouette_mask(spec, rig).astype(float))
    assert img.pixels[240, [219, 220, 420, 421]].tolist() == [0.0, 1.0, 1.0, 0.0]
    assert img.pixels[[139, 140, 340, 341], 320].tolist() == [0.0, 1.0, 1.0, 0.0]


_SOME_OUT = "some surface samples project out of frame"


@pytest.mark.parametrize("shape,rot_x_deg,t,extent,density,message", [
    ("square-plane", 80.0, [0.0, 0.0, 0.5], 2.0, 4e4, _SOME_OUT),
    # one sample, in frame
    ("square-plane", 80.0, [0.0, 0.0, 0.5], 2.0, 0.25, "silhouette touches the image border"),
    ("box", 30.0, [0.3, 0.0, 0.05], 0.4, 1e4, _SOME_OUT),
    ("sphere", 0.0, [0.09, 0.0, 0.24], 0.5, 1e4, _SOME_OUT),
    # wholly behind: no sample projects
    ("sphere", 0.0, [0.0, 0.0, -3.0], 0.5, 1e4, "no surface sample projects in frame"),
], ids=["square", "square-one-sample", "box", "sphere", "sphere-behind"])
def test_shape_not_wholly_in_front_raises(shape, rot_x_deg, t, extent, density, message):
    """A shape across the camera's z = 0 plane, or behind it, is out of frame."""
    spec = SceneSpec(shape, Extrinsics.from_rt(_rot("x", rot_x_deg), t), extent, density)
    if extent * np.sqrt(density) == 1.0:  # the one sample sits at the pose origin
        assert len(project_cloud(np.array([t]), _rig())[1]) == 1
    with pytest.raises(CloudSRError, match=message):
        synth_scene(spec, _rig())


def test_camera_inside_box_is_named():
    spec = SceneSpec("box", Extrinsics.from_rt(np.eye(3), [0.0, 0.0, 0.1]), 0.5, 1e4)
    with pytest.raises(CloudSRError, match="the camera is inside the box"):
        synth_scene(spec, _rig())


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(shape="torus", pose=Extrinsics(np.eye(4)))
    with pytest.raises(ValueError):
        SceneSpec(shape="box", pose=Extrinsics(np.eye(4)), fg=0.5, bg=0.5)


@pytest.mark.parametrize("pose,message", [
    (np.eye(4).ravel().tolist()[:12] + [0.5, 0.0, 0.0, 1.0],
     "pose: extrinsic bottom row must be [0, 0, 0, 1]"),
    (np.eye(4).ravel().tolist()[:15], "pose must hold 16 numbers, got 15"),
    ([[1.0, 0.0], [0.0, 1.0]], "pose must hold 16 numbers, got 4"),
])
def test_bad_pose_error_names_its_key(pose, message):
    with pytest.raises(CloudSRError) as info:
        scene_from_dict({"shape": "box", "pose": pose})
    assert str(info.value) == f"bad scene spec: {message}"
