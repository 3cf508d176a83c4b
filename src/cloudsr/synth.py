"""Synthetic test scenes: a sampled surface plus its rendered silhouette.

The ground-truth cloud samples the camera-visible surface on a uniform
grid; the image is a hard-edged silhouette (foreground inside the projected
shape), so edge detection recovers the shape boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraRig, Extrinsics, pinhole, project_cloud
from .edges import GrayImage
from .errors import FrameTooLarge, ShapeOutOfFrame
from .geometry import PointCloud3
from .hull import monotone_chain, orient

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

    extent is the side length for square-plane/box and the diameter for
    sphere; density is surface samples per square meter.
    """

    shape: str
    pose: Extrinsics
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


def _camera_center_in_tof(rig: CameraRig) -> np.ndarray:
    """RGB camera origin expressed in the depth frame."""
    return -rig.rotation.T @ rig.translation


def _grid(n: int) -> np.ndarray:
    """n uniform cell-center offsets in (-0.5, 0.5)."""
    return (np.arange(n) + 0.5) / n - 0.5


def _square_local(extent: float, density: float) -> np.ndarray:
    n = max(1, round(extent * np.sqrt(density)))
    ticks = _grid(n) * extent
    xs, ys = np.meshgrid(ticks, ticks)
    return np.stack([xs.ravel(), ys.ravel(), np.zeros(n * n)], axis=1)


def _box_local(extent: float, density: float, cam_local: np.ndarray):
    """Cell-centered samples of the camera-facing faces of a cube."""
    n = max(1, round(extent * np.sqrt(density)))
    ticks = _grid(n) * extent
    a, b = np.meshgrid(ticks, ticks)
    a, b = a.ravel(), b.ravel()
    h = extent / 2.0
    faces = [
        (np.stack([a, b, np.full_like(a, -h)], 1), np.array([0.0, 0, -1])),
        (np.stack([a, b, np.full_like(a, h)], 1), np.array([0.0, 0, 1])),
        (np.stack([a, np.full_like(a, -h), b], 1), np.array([0.0, -1, 0])),
        (np.stack([a, np.full_like(a, h), b], 1), np.array([0.0, 1, 0])),
        (np.stack([np.full_like(a, -h), a, b], 1), np.array([-1.0, 0, 0])),
        (np.stack([np.full_like(a, h), a, b], 1), np.array([1.0, 0, 0])),
    ]
    visible = []
    for pts, normal in faces:
        center = normal * h
        if np.dot(normal, cam_local - center) > 0:
            visible.append(pts)
    if not visible:
        raise ShapeOutOfFrame("no box face is camera-visible")
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


def _pixel_rays(rig: CameraRig):
    """Unnormalized RGB-frame ray directions through every pixel center."""
    k = rig.k_rgb
    us, vs = np.meshgrid(np.arange(rig.width), np.arange(rig.height))
    return np.stack(
        [(us - k.cx) / k.fx, (vs - k.cy) / k.fy, np.ones_like(us, dtype=float)],
        axis=2,
    )


def _convex_silhouette_mask(rig: CameraRig, tof_pts: np.ndarray) -> np.ndarray:
    """Pixels whose centers fall inside the convex hull of projected points."""
    proj, z = pinhole(tof_pts, rig)
    if np.any(z <= 0):
        raise ShapeOutOfFrame("shape extends behind the camera")
    hull = proj[monotone_chain(proj)]

    us, vs = np.meshgrid(np.arange(rig.width, dtype=float),
                         np.arange(rig.height, dtype=float))
    pixels = np.stack([us, vs], axis=-1)
    inside = np.ones(us.shape, dtype=bool)
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        inside &= orient(a, b, pixels) >= 0.0  # CCW hull: inside is left of every edge
    return inside


def _sphere_silhouette_mask(rig: CameraRig, center_tof: np.ndarray,
                            radius: float) -> np.ndarray:
    c = rig.rotation @ center_tof + rig.translation
    if c[2] <= radius:
        raise ShapeOutOfFrame("sphere extends behind the camera")
    rays = _pixel_rays(rig)
    norms = np.linalg.norm(rays, axis=2)
    along = rays @ c / norms
    perp2 = float(c @ c) - along**2
    return (along > 0) & (perp2 <= radius * radius)


def synth_scene(spec: SceneSpec, rig: CameraRig):
    """Build (ground-truth cloud, silhouette image) for a scene.

    Raises ShapeOutOfFrame unless every surface sample projects in-frame
    and the silhouette stays clear of the image border.
    """
    if rig.width * rig.height > MAX_PIXELS:
        raise FrameTooLarge(
            f"{rig.width}x{rig.height} frame exceeds {MAX_PIXELS} pixels")
    pose_r = spec.pose.rotation
    pose_t = spec.pose.translation
    cam_tof = _camera_center_in_tof(rig)
    cam_local = pose_r.T @ (cam_tof - pose_t)

    if spec.shape == "square-plane":
        local = _square_local(spec.extent, spec.density)
    elif spec.shape == "box":
        local = _box_local(spec.extent, spec.density, cam_local)
    else:
        local = _sphere_local(spec.extent, spec.density, cam_local)
    world = local @ pose_r.T + pose_t
    cloud = PointCloud3(world)

    _, index_map = project_cloud(world, rig)
    if index_map.size != len(world):
        raise ShapeOutOfFrame("some surface samples project out of frame")

    if spec.shape == "sphere":
        mask = _sphere_silhouette_mask(rig, pose_t, spec.extent / 2.0)
    else:
        h = spec.extent / 2.0
        if spec.shape == "square-plane":
            corners_local = np.array(
                [[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]]
            )
        else:
            corners_local = np.array(
                [[sx * h, sy * h, sz * h]
                 for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
            )
        corners = corners_local @ pose_r.T + pose_t
        mask = _convex_silhouette_mask(rig, corners)

    if (mask[0, :].any() or mask[-1, :].any()
            or mask[:, 0].any() or mask[:, -1].any()):
        raise ShapeOutOfFrame("silhouette touches the image border")
    img = np.where(mask, spec.fg, spec.bg)
    return cloud, GrayImage(img)
