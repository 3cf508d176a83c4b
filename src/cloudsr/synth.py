"""Synthetic test scenes: a sampled surface plus its rendered silhouette.

The ground-truth cloud samples the camera-visible surface on a uniform
grid; the image is a hard-edged silhouette (foreground where the ray through
a pixel center hits the shape), so edge detection recovers the shape
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .camera import (CameraRig, Extrinsics, json_extrinsics, json_number, json_object,
                     load_json, project_cloud)
from .edges import GrayImage
from .errors import AllPointsCulled, CloudSRError
from .geometry import PointCloud3

SHAPES = ("square-plane", "box", "sphere")

#: bound on extent^2 * density, the samples on one square face (4.2M samples,
#: 100 MB of float64 coordinates), checked before any sample is allocated
MAX_FACE_SAMPLES = 1 << 22
#: bound on the calibrated width * height (a 3840 x 2160 frame fits), checked
#: before the per-pixel ray and mask arrays are allocated
MAX_PIXELS = 1 << 23


@dataclass(frozen=True)
class SceneSpec:
    """A single shape posed in the depth-camera frame.

    pose defaults to the identity; extent is the side length for
    square-plane/box and the diameter for sphere; density is surface
    samples per square meter.
    """

    shape: str
    pose: Extrinsics = Extrinsics(np.eye(4))
    extent: float = 0.5
    density: float = 4e4
    fg: float = 1.0
    bg: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}")
        if not 0 < self.extent < np.inf:
            raise ValueError("extent must be positive and finite")
        if not 0 < self.density < np.inf:
            raise ValueError("density must be positive and finite")
        if self.extent * self.extent * self.density > MAX_FACE_SAMPLES:
            raise ValueError(
                f"extent^2 * density exceeds {MAX_FACE_SAMPLES} samples per face")
        for v in (self.fg, self.bg):
            if not (0.0 <= v <= 1.0):
                raise ValueError("intensities must lie in [0, 1]")
        if self.fg == self.bg:
            raise ValueError("foreground and background must differ")


def scene_from_dict(data: dict) -> SceneSpec:
    """Build a scene from the scene JSON schema: SceneSpec's fields by name,
    shape required, pose a row-major 16-element array, the rest numbers."""
    try:
        given = dict(json_object(data, [f.name for f in fields(SceneSpec)], "the file"))
        for key in sorted(given.keys() - {"shape", "pose"}):
            given[key] = json_number(given[key], key)
        if "pose" in given:
            given["pose"] = json_extrinsics(given["pose"], "pose")
        return SceneSpec(**given)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CloudSRError(f"bad scene spec: {exc}") from exc


def load_scene(path) -> SceneSpec:
    """Load a scene JSON file (see scene_from_dict)."""
    return scene_from_dict(load_json(path, "scene"))


def _camera_center_in_tof(rig: CameraRig) -> np.ndarray:
    """RGB camera origin expressed in the depth frame."""
    return -rig.rotation.T @ rig.translation


def _square_local(extent: float, density: float, axis: int, at: float) -> np.ndarray:
    """Cell-centered samples of the square of side `extent` normal to `axis`
    at coordinate `at`; the other two axes, in order, take the column and
    row ticks of an n x n grid of cell centers."""
    n = max(1, round(extent * np.sqrt(density)))
    ticks = ((np.arange(n) + 0.5) / n - 0.5) * extent
    a, b = np.meshgrid(ticks, ticks)
    return np.insert(np.stack([a.ravel(), b.ravel()], axis=1), axis, at, axis=1)


def _box_local(extent: float, density: float, cam_local: np.ndarray):
    """Cell-centered samples of the camera-facing faces of a cube, in the
    order z-, z+, y-, y+, x-, x+."""
    h = extent / 2.0
    visible = [_square_local(extent, density, axis, sign * h)
               for axis in (2, 1, 0) for sign in (-1.0, 1.0)
               if sign * (cam_local[axis] - sign * h) > 0]
    if not visible:  # only a camera inside the box faces no face
        raise CloudSRError("the camera is inside the box")
    return np.vstack(visible)


def _sphere_local(extent: float, density: float, cam_local: np.ndarray) -> np.ndarray:
    """Ring-grid samples of the camera-facing hemisphere."""
    r = extent / 2.0
    d = cam_local.copy()
    norm = np.linalg.norm(d)
    if norm == 0:
        d = np.array([0.0, 0.0, -1.0])
    else:
        d /= norm
    # orthonormal frame around the view axis
    helper = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(d, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)

    spacing = 1.0 / np.sqrt(density)
    n_rings = max(1, round((np.pi / 2.0) * r / spacing))
    pts = [r * d]  # pole
    for i in range(1, n_rings + 1):
        polar = (np.pi / 2.0) * i / n_rings
        ring_r = r * np.sin(polar)
        n_on_ring = max(1, round(2.0 * np.pi * ring_r / spacing))
        ang = 2.0 * np.pi * np.arange(n_on_ring) / n_on_ring
        ring = (
            r * np.cos(polar) * d[None, :]
            + ring_r * np.cos(ang)[:, None] * e1[None, :]
            + ring_r * np.sin(ang)[:, None] * e2[None, :]
        )
        pts.append(ring)
    return np.vstack([p.reshape(-1, 3) for p in pts])


def _silhouette(spec: SceneSpec, rig: CameraRig, cam_local: np.ndarray) -> np.ndarray:
    """(H, W) mask of the pixels whose center ray hits the shape.

    Works in the shape's frame: every ray starts at the camera center
    cam_local.  The sphere is hit when the ray's closest approach lies ahead
    of the camera and within the radius; square and box are slab tests, the
    square being a box of zero depth.  Boundaries count as hits.
    """
    k = rig.k_rgb
    a = (np.arange(rig.width) - k.cx) / k.fx
    b = ((np.arange(rig.height) - k.cy) / k.fy)[:, None]
    m = spec.pose.rotation.T @ rig.rotation.T
    d = [m[i, 0] * a + m[i, 1] * b + m[i, 2] for i in range(3)]
    o = cam_local
    h = spec.extent / 2.0
    if spec.shape == "sphere":
        od = o[0] * d[0] + o[1] * d[1] + o[2] * d[2]
        dd = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        return (od < 0) & (od * od >= dd * (o @ o - h * h))
    half = (h, h, 0.0 if spec.shape == "square-plane" else h)
    near, far = 0.0, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for oi, di, hi in zip(o, d, half):
            t1, t2 = (-hi - oi) / di, (hi - oi) / di
            near = np.maximum(near, np.minimum(t1, t2))
            far = np.minimum(far, np.maximum(t1, t2))
    return near <= far


def synth_scene(spec: SceneSpec, rig: CameraRig):
    """Build (ground-truth cloud, silhouette image) for a scene.

    Raises CloudSRError unless every surface sample projects in-frame
    and the silhouette stays clear of the image border.
    """
    if rig.width * rig.height > MAX_PIXELS:
        raise CloudSRError(
            f"{rig.width}x{rig.height} frame exceeds {MAX_PIXELS} pixels")
    pose_r = spec.pose.rotation
    pose_t = spec.pose.translation
    cam_tof = _camera_center_in_tof(rig)
    cam_local = pose_r.T @ (cam_tof - pose_t)

    if spec.shape == "square-plane":
        local = _square_local(spec.extent, spec.density, 2, 0.0)
    elif spec.shape == "box":
        local = _box_local(spec.extent, spec.density, cam_local)
    else:
        local = _sphere_local(spec.extent, spec.density, cam_local)
    world = local @ pose_r.T + pose_t
    cloud = PointCloud3(world)

    try:
        _, index_map = project_cloud(world, rig)
    except AllPointsCulled as exc:
        raise CloudSRError("no surface sample projects in frame") from exc
    if index_map.size != len(world):
        raise CloudSRError("some surface samples project out of frame")

    mask = _silhouette(spec, rig, cam_local)
    if (mask[0, :].any() or mask[-1, :].any()
            or mask[:, 0].any() or mask[:, -1].any()):
        raise CloudSRError("silhouette touches the image border")
    img = np.where(mask, spec.fg, spec.bg)
    return cloud, GrayImage(img)
