"""RGB-D rig calibration and 3D-to-pixel projection.

The projection chain transforms a depth-camera-frame point into the RGB
camera frame with the two rig extrinsics, then applies the pinhole
intrinsics and the perspective divide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AllPointsCulled, BehindCamera, CalibrationError

#: near-plane cutoff in meters; points at or behind it have no projection
EPS_Z = 1e-6

_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class Intrinsics:
    """Zero-skew pinhole intrinsics (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


class Extrinsics:
    """4x4 rigid transform (orthonormal rotation block, [0,0,0,1] bottom row)."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(4, 4)
        if not np.all(np.isfinite(m)):
            raise CalibrationError("extrinsic matrix must be finite")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > _ORTHO_TOL:
            raise CalibrationError("extrinsic bottom row must be [0, 0, 0, 1]")
        r = m[:3, :3]
        # an orthonormal block has no entry beyond 1, and the bound keeps the
        # product below from overflowing on absurd input
        if (np.max(np.abs(r)) > 1.0 + _ORTHO_TOL
                or np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL):
            raise CalibrationError("rotation block fails orthonormality tolerance")
        if np.linalg.det(r) < 0:
            raise CalibrationError("rotation block must have determinant +1")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @property
    def rotation(self) -> np.ndarray:
        return self._m[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self._m[:3, 3]

    def inverse(self) -> "Extrinsics":
        """Closed-form rigid inverse [R^T | -R^T t]."""
        r = self.rotation.T
        out = np.eye(4)
        out[:3, :3] = r
        out[:3, 3] = -r @ self.translation
        return Extrinsics(out)

    @classmethod
    def from_rt(cls, rotation, translation) -> "Extrinsics":
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=np.float64)
        m[:3, 3] = np.asarray(translation, dtype=np.float64)
        return cls(m)

    def __repr__(self) -> str:
        return f"Extrinsics({self._m.tolist()})"


class CameraRig:
    """RGB intrinsics plus the RGB/TOF extrinsic pair of an RGB-D camera.

    The RGB extrinsic is inverted once here and the combined depth-to-RGB
    transform cached, since every projection reuses it.
    """

    def __init__(self, k_rgb: Intrinsics, e_rgb: Extrinsics, e_tof: Extrinsics,
                 width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        self.k_rgb = k_rgb
        self.e_rgb = e_rgb
        self.e_tof = e_tof
        self.width = int(width)
        self.height = int(height)
        chain = e_rgb.inverse().matrix @ e_tof.matrix
        # read-only rotation block and translation of the depth-to-RGB transform
        self.rotation = np.ascontiguousarray(chain[:3, :3])
        self.translation = np.ascontiguousarray(chain[:3, 3])
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)


def _rgb_frame(points: np.ndarray, rig: CameraRig) -> np.ndarray:
    """(N, 3) depth-frame points expressed in the RGB camera frame."""
    return points @ rig.rotation.T + rig.translation


def pinhole(points: np.ndarray, rig: CameraRig) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) depth-frame points to RGB pixels.

    Returns (uv (N, 2), z (N,)) with z the RGB-frame depth.  Nothing is
    culled and nothing raises: pixels of points with z <= EPS_Z are
    meaningless (possibly inf/NaN), and callers decide what to drop.
    """
    xyz = _rgb_frame(points, rig)
    z = xyz[:, 2]
    k = rig.k_rgb
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * xyz[:, 0] / z + k.cx
        v = k.fy * xyz[:, 1] / z + k.cy
    return np.stack([u, v], axis=1), z


def project_cloud(points: np.ndarray, rig: CameraRig) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) points, keeping those in front of the camera and in frame.

    Returns (uv (M, 2), index_map (M,)) where index_map[i] is the source
    row of pixel i.  Culled count is N minus M.
    """
    uv, z = pinhole(points, rig)
    u, v = uv[:, 0], uv[:, 1]
    keep = (z > EPS_Z) & (u >= 0.0) & (u < rig.width) & (v >= 0.0) & (v < rig.height)
    index_map = np.nonzero(keep)[0]
    if index_map.size == 0:
        raise AllPointsCulled("no point projects inside the image frame")
    return uv[keep], index_map


def projection_jacobians(points: np.ndarray, rig: CameraRig) -> np.ndarray:
    """Batched (N, 2, 3) Jacobians d(u, v)/d(x, y, z) of the full chain.

    Perspective Jacobian at each RGB-frame point, composed with the rigid
    rotation (translation has zero derivative).  Raises BehindCamera unless
    every depth clears EPS_Z.
    """
    xyz = _rgb_frame(points, rig)
    z = xyz[:, 2]
    if np.any(z <= EPS_Z):
        raise BehindCamera("a point is at or behind the near plane")
    k = rig.k_rgb
    n = points.shape[0]
    persp = np.zeros((n, 2, 3))
    persp[:, 0, 0] = k.fx / z
    persp[:, 1, 1] = k.fy / z
    persp[:, 0, 2] = -k.fx * xyz[:, 0] / (z * z)
    persp[:, 1, 2] = -k.fy * xyz[:, 1] / (z * z)
    return persp @ rig.rotation


def rig_from_dict(data: dict) -> CameraRig:
    """Build a rig from the calibration JSON schema.

    Expected keys: k_rgb {fx, fy, cx, cy}, e_rgb and e_tof as row-major
    16-element arrays, width, height.
    """
    try:
        kd = data["k_rgb"]
        intr = Intrinsics(float(kd["fx"]), float(kd["fy"]),
                          float(kd["cx"]), float(kd["cy"]))
        e_rgb = Extrinsics(np.array(data["e_rgb"], dtype=np.float64).reshape(4, 4))
        e_tof = Extrinsics(np.array(data["e_tof"], dtype=np.float64).reshape(4, 4))
        return CameraRig(intr, e_rgb, e_tof, int(data["width"]), int(data["height"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CalibrationError(f"bad calibration data: {exc}") from exc


def load_rig(path) -> CameraRig:
    """Load a calibration JSON file (see rig_from_dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
            raise CalibrationError(f"calibration file is not valid JSON: {exc}") from exc
    return rig_from_dict(data)
