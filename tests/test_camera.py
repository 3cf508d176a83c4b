import json

import numpy as np
import pytest

from cloudsr.camera import (
    EPS_Z,
    CameraRig,
    Extrinsics,
    Intrinsics,
    load_rig,
    pinhole,
    project_cloud,
    projection_jacobians,
)
from cloudsr.errors import AllPointsCulled, CloudSRError

from oracles import project_homogeneous, random_rotation


def _rig(fx=100.0, fy=100.0, cx=50.0, cy=50.0, w=100, h=100,
         e_rgb=None, e_tof=None):
    return CameraRig(
        Intrinsics(fx, fy, cx, cy),
        e_rgb or Extrinsics(np.eye(4)),
        e_tof or Extrinsics(np.eye(4)),
        w, h,
    )


def _project(p, rig):
    """Pixel of one point through the batched kernel."""
    uv, _ = pinhole(np.asarray(p, dtype=np.float64).reshape(1, 3), rig)
    return uv[0]


def _jacobian(p, rig):
    """2x3 Jacobian of one point through the batched path."""
    return projection_jacobians(np.asarray(p, dtype=np.float64).reshape(1, 3), rig)[0]


def _to_rgb(p, rig):
    """Depth-frame point in the RGB frame via the rig's public transform."""
    return rig.rotation @ np.asarray(p, dtype=np.float64) + rig.translation


def _random_parts(rng):
    """(intrinsics, e_rgb, e_tof) of a random rig."""
    fx, fy = rng.uniform(50, 900, 2)
    cx, cy = rng.uniform(100, 500, 2)
    e_rgb = Extrinsics.from_rt(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
    e_tof = Extrinsics.from_rt(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))
    return Intrinsics(fx, fy, cx, cy), e_rgb, e_tof


def _random_rig(rng):
    return CameraRig(*_random_parts(rng), 1000, 800)


# -- extrinsics / rig validation ----------------------------------------------


def test_extrinsics_rejects_non_orthonormal():
    bad = np.eye(4)
    bad[0, 1] = 0.01
    with pytest.raises(CloudSRError, match="rotation block fails orthonormality tolerance"):
        Extrinsics(bad)


def test_extrinsics_rejects_reflection():
    m = np.eye(4)
    m[0, 0] = -1.0  # det -1
    with pytest.raises(CloudSRError, match=r"rotation block must have determinant \+1"):
        Extrinsics(m)


# -- frame transform -----------------------------------------------------------


def test_frame_transform_identity():
    p = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(_to_rgb(p, _rig()), p)


def test_frame_transform_translation():
    rig = _rig(e_tof=Extrinsics.from_rt(np.eye(3), [1.0, 0.0, 0.0]))
    assert np.array_equal(_to_rgb([0.0, 0.0, 5.0], rig), [1.0, 0.0, 5.0])


def test_frame_transform_shared_pose_cancels():
    rng = np.random.default_rng(1)
    shared = Extrinsics.from_rt(random_rotation(rng), [0.1, 0.2, -0.3])
    rig = _rig(e_rgb=shared, e_tof=shared)
    p = np.array([0.4, -0.7, 2.0])
    out = _to_rgb(p, rig)
    np.testing.assert_allclose(out, p, atol=1e-12)


def test_frame_transform_is_rigid():
    rng = np.random.default_rng(2)
    rig = _random_rig(rng)
    for _ in range(50):
        p, q = rng.normal(size=(2, 3))
        tp = _to_rgb(p, rig)
        tq = _to_rgb(q, rig)
        assert abs(np.linalg.norm(tp - tq) - np.linalg.norm(p - q)) < 1e-9


def test_rig_transform_is_read_only():
    rig = _random_rig(np.random.default_rng(9))
    with pytest.raises(ValueError):
        rig.rotation[0, 0] = 2.0
    with pytest.raises(ValueError):
        rig.translation[0] = 2.0


# -- projection ----------------------------------------------------------------


def test_project_principal_point():
    assert _project([0.0, 0.0, 4.0], _rig()) == pytest.approx([50.0, 50.0])


def test_project_hand_example():
    u, v = _project([1.0, 2.0, 10.0], _rig())
    assert (u, v) == (60.0, 70.0)


def test_project_behind_camera():
    # the kernel never raises; it reports the depth and callers cull
    uv, z = pinhole(np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
                    _rig())
    assert list(z <= EPS_Z) == [True, True, False]
    np.testing.assert_array_equal(uv[2], [50.0, 50.0])


def test_project_scale_invariance_identity_extrinsics():
    rng = np.random.default_rng(3)
    rig = _rig()
    for _ in range(50):
        p = rng.uniform([-0.5, -0.5, 1.0], [0.5, 0.5, 5.0])
        lam = rng.uniform(0.1, 10.0)
        a = _project(p, rig)
        b = _project(lam * p, rig)
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_project_matches_homogeneous_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        parts = _random_parts(rng)
        rig = CameraRig(*parts, 1000, 800)
        p = rng.uniform(-1, 1, 3)
        u, v, z = project_homogeneous(p, *parts)
        if z <= 0.1:
            continue
        uv, got_z = pinhole(p[None, :], rig)
        np.testing.assert_allclose(uv[0], [u, v], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got_z[0], z, rtol=1e-12, atol=1e-12)


def test_project_cloud_all_in_frame():
    rig = _rig()
    pts = np.array([[0, 0, 4], [0.1, 0.1, 2], [-0.2, 0.3, 3]])
    proj, imap = project_cloud(pts, rig)
    assert len(proj) == 3
    assert list(imap) == [0, 1, 2]


def test_project_cloud_culls_behind():
    pts = [[0.0, 0.0, 2.0]] * 10
    pts[4] = [0.0, 0.0, -2.0]
    proj, imap = project_cloud(np.array(pts), _rig())
    assert len(proj) == 9
    assert 4 not in set(imap)


def test_project_cloud_culls_out_of_frame():
    pts = np.array([[0, 0, 2], [50.0, 0, 2]])  # second lands far right
    proj, imap = project_cloud(pts, _rig())
    assert list(imap) == [0]


def test_project_cloud_matches_pointwise():
    rng = np.random.default_rng(5)
    parts = _random_parts(rng)
    rig = CameraRig(*parts, 1000, 800)
    pts = rng.uniform(-1, 1, size=(200, 3))
    try:
        proj, imap = project_cloud(pts, rig)
    except AllPointsCulled:
        pytest.skip("random rig culled everything")
    for row, src in enumerate(imap):
        u, v, _ = project_homogeneous(pts[src], *parts)
        np.testing.assert_allclose(
            proj[row], [u, v], rtol=1e-12, atol=1e-12
        )


def test_project_cloud_all_culled():
    with pytest.raises(AllPointsCulled):
        project_cloud(np.array([[0, 0, -1.0]]), _rig())


# -- jacobian -------------------------------------------------------------------


def test_jacobian_identity_rig_on_axis():
    j = _jacobian([0.0, 0.0, 10.0], _rig())
    np.testing.assert_allclose(j, [[10.0, 0, 0], [0, 10.0, 0]], atol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-6
    checked = 0
    while checked < 200:
        rig = _random_rig(rng)
        p = rng.uniform(-1, 1, 3)
        z = _to_rgb(p, rig)[2]
        if z <= 0.1:
            continue
        jac = _jacobian(p, rig)
        fd = np.zeros((2, 3))
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            hi = _project(p + e, rig)
            lo = _project(p - e, rig)
            fd[:, axis] = (hi - lo) / (2 * h)
        assert np.max(np.abs(jac - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5
        checked += 1


def test_jacobian_rotation_chain_rule():
    rng = np.random.default_rng(7)
    rot = random_rotation(rng)
    rig_rotated = _rig(e_tof=Extrinsics.from_rt(rot, [0, 0, 0]))
    rig_id = _rig()
    p = np.array([0.2, -0.1, 3.0])
    j_rotated = _jacobian(p, rig_rotated)
    j_id_at_rp = _jacobian(rot @ p, rig_id)
    np.testing.assert_allclose(j_rotated, j_id_at_rp @ rot, atol=1e-12)


def test_jacobian_behind_camera():
    with pytest.raises(CloudSRError, match="a point is at or behind the near plane"):
        _jacobian([0.0, 0.0, -2.0], _rig())
    # one bad row fails the whole batch
    with pytest.raises(CloudSRError, match="a point is at or behind the near plane"):
        projection_jacobians(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]), _rig())


def test_batched_jacobians_match_single():
    rng = np.random.default_rng(8)
    rig = _random_rig(rng)
    pts = rng.uniform(-0.3, 0.3, size=(40, 3))
    pts[:, 2] = rng.uniform(1.0, 3.0, 40)
    # keep only points safely in front
    keep = np.array([_to_rgb(p, rig)[2] > 0.1 for p in pts])
    pts = pts[keep]
    batch = projection_jacobians(pts, rig)
    k = rig.k_rgb
    for i, p in enumerate(pts):
        # closed-form perspective Jacobian composed with the rotation, per point
        x, y, z = _to_rgb(p, rig)
        persp = np.array([[k.fx / z, 0.0, -k.fx * x / (z * z)],
                          [0.0, k.fy / z, -k.fy * y / (z * z)]])
        np.testing.assert_allclose(batch[i], persp @ rig.rotation, atol=1e-12)


# -- calibration file -----------------------------------------------------------


def _calib_dict():
    return {
        "k_rgb": {"fx": 525.0, "fy": 525.0, "cx": 319.5, "cy": 239.5},
        "e_rgb": list(np.eye(4).ravel()),
        "e_tof": list(Extrinsics.from_rt(np.eye(3), [0.05, 0.0, 0.0]).matrix.ravel()),
        "width": 640,
        "height": 480,
    }


def test_load_rig_round_trip(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text(json.dumps(_calib_dict()))
    rig = load_rig(path)
    assert (rig.width, rig.height) == (640, 480)
    assert rig.k_rgb.fx == 525.0
    # e_rgb is the identity, so the depth-to-RGB transform is e_tof
    assert rig.rotation.tobytes() == np.eye(3).tobytes()
    np.testing.assert_allclose(rig.translation, [0.05, 0.0, 0.0])


def test_load_rig_takes_integral_floats_and_nested_int_matrices(tmp_path):
    data = _calib_dict()
    data.update(width=640.0, height=480.0, e_rgb=np.eye(4, dtype=int).tolist())
    path = tmp_path / "calib.json"
    path.write_text(json.dumps(data))
    rig = load_rig(path)
    assert (rig.width, rig.height) == (640, 480) and type(rig.width) is int
    # the nested int identity e_rgb leaves e_tof's transform bit for bit
    assert rig.rotation.tobytes() == np.eye(3).tobytes()
    assert rig.translation.tobytes() == np.array([0.05, 0.0, 0.0]).tobytes()


def test_load_rig_rejects_bad_rotation(tmp_path):
    data = _calib_dict()
    bad = np.eye(4)
    bad[0, 0] = 1.001  # breaks orthonormality beyond 1e-6
    data["e_rgb"] = list(bad.ravel())
    path = tmp_path / "calib.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CloudSRError, match="rotation block fails orthonormality tolerance"):
        load_rig(path)


@pytest.mark.parametrize("key", ["e_rgb", "e_tof"])
def test_load_rig_extrinsic_error_names_its_key(tmp_path, key):
    data = _calib_dict()
    data[key] = [np.inf] + list(np.eye(4).ravel()[1:])
    path = tmp_path / "calib.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CloudSRError) as info:
        load_rig(path)
    assert str(info.value) == f"bad calibration data: {key}: extrinsic matrix must be finite"


def test_load_rig_rejects_missing_keys(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text(json.dumps({"width": 640}))
    with pytest.raises(CloudSRError, match="bad calibration data: 'k_rgb'"):
        load_rig(path)
