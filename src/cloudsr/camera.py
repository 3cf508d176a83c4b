"""RGB-D rig calibration and 3D-to-pixel projection.

The projection chain transforms a depth-camera-frame point into the RGB
camera frame with the two rig extrinsics, then applies the pinhole
intrinsics and the perspective divide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import AllPointsCulled, CloudSRError

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


class Extrinsics:
    """4x4 rigid transform (orthonormal rotation block, [0,0,0,1] bottom row)."""

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64).reshape(4, 4)
        if not np.all(np.isfinite(m)):
            raise CloudSRError("extrinsic matrix must be finite")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > _ORTHO_TOL:
            raise CloudSRError("extrinsic bottom row must be [0, 0, 0, 1]")
        r = m[:3, :3]
        # an orthonormal block has no entry beyond 1, and the bound keeps the
        # product below from overflowing on absurd input
        if (np.max(np.abs(r)) > 1.0 + _ORTHO_TOL
                or np.max(np.abs(r.T @ r - np.eye(3))) > _ORTHO_TOL):
            raise CloudSRError("rotation block fails orthonormality tolerance")
        if np.linalg.det(r) < 0:
            raise CloudSRError("rotation block must have determinant +1")
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

    The RGB extrinsic is inverted once here, in closed form [R^T | -R^T t],
    and the combined depth-to-RGB transform cached, since every projection
    reuses it; the rig keeps no other part of the two extrinsics.
    """

    def __init__(self, k_rgb: Intrinsics, e_rgb: Extrinsics, e_tof: Extrinsics,
                 width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be at least 1x1")
        self.k_rgb = k_rgb
        self.width = int(width)
        self.height = int(height)
        r = e_rgb.rotation.T
        rgb_inverse = np.eye(4)
        rgb_inverse[:3, :3] = r
        rgb_inverse[:3, 3] = -r @ e_rgb.translation
        chain = rgb_inverse @ e_tof.matrix
        # read-only rotation block and translation of the depth-to-RGB transform
        self.rotation = np.ascontiguousarray(chain[:3, :3])
        self.translation = np.ascontiguousarray(chain[:3, 3])
        self.rotation.setflags(write=False)
        self.translation.setflags(write=False)


def rgb_frame(points: np.ndarray, rig: CameraRig) -> np.ndarray:
    """(N, 3) depth-frame points expressed in the RGB camera frame."""
    return points @ rig.rotation.T + rig.translation


def pinhole(points: np.ndarray, rig: CameraRig) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) depth-frame points to RGB pixels.

    Returns (uv (N, 2), z (N,)) with z the RGB-frame depth.  Nothing is
    culled and nothing raises: pixels of points with z <= EPS_Z are
    meaningless (possibly inf/NaN), and callers decide what to drop.
    """
    xyz = rgb_frame(points, rig)
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
    rotation (translation has zero derivative).  Raises CloudSRError unless
    every depth clears EPS_Z.
    """
    xyz = rgb_frame(points, rig)
    z = xyz[:, 2]
    if np.any(z <= EPS_Z):
        raise CloudSRError("a point is at or behind the near plane")
    k = rig.k_rgb
    n = points.shape[0]
    persp = np.zeros((n, 2, 3))
    persp[:, 0, 0] = k.fx / z
    persp[:, 1, 1] = k.fy / z
    persp[:, 0, 2] = -k.fx * xyz[:, 0] / (z * z)
    persp[:, 1, 2] = -k.fy * xyz[:, 1] / (z * z)
    return persp @ rig.rotation


def load_json(path, what: str):
    """The decoded UTF-8 JSON file at `path`.  Bad JSON, bad UTF-8 and an
    integer past Python's digit limit raise CloudSRError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise CloudSRError(f"{what} file is not valid JSON: {exc}") from exc


def json_object(value, keys, what: str) -> dict:
    """`value`, which must be a JSON object with no key outside `keys`."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must hold a JSON object, got {type(value).__name__}")
    unknown = sorted(value.keys() - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}")
    return value


def json_number(value, what: str) -> float:
    """A number read from JSON, as a float.  Booleans and strings are not
    numbers, whatever they would convert to."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a number, got {type(value).__name__}")
    return float(value)


def json_extrinsics(value, what: str) -> Extrinsics:
    """A JSON array of 16 numbers, flat or nested, as the row-major 4x4 of an
    `Extrinsics`; a matrix it refuses raises ValueError naming `what`."""
    cells = np.array(value, dtype=object).ravel()
    if cells.size != 16:
        raise ValueError(f"{what} must hold 16 numbers, got {cells.size}")
    matrix = np.array([json_number(x, what) for x in cells]).reshape(4, 4)
    try:
        return Extrinsics(matrix)
    except CloudSRError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def rig_from_dict(data: dict) -> CameraRig:
    """Build a rig from the calibration JSON schema.

    An object of exactly the keys k_rgb {fx, fy, cx, cy}, e_rgb and e_tof as
    row-major 16-element arrays, width, height.  Every value must be a JSON
    number, and width and height integral ones.
    """
    try:
        data = json_object(data, ("k_rgb", "e_rgb", "e_tof", "width", "height"), "the file")
        kd = json_object(data["k_rgb"], ("fx", "fy", "cx", "cy"), "k_rgb")
        intr = Intrinsics(**{key: json_number(value, key) for key, value in kd.items()})
        e_rgb = json_extrinsics(data["e_rgb"], "e_rgb")
        e_tof = json_extrinsics(data["e_tof"], "e_tof")
        width, height = (json_number(data[key], key) for key in ("width", "height"))
        if not (width.is_integer() and height.is_integer()):
            raise ValueError("width and height must be integers")
        return CameraRig(intr, e_rgb, e_tof, int(width), int(height))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CloudSRError(f"bad calibration data: {exc}") from exc


def load_rig(path) -> CameraRig:
    """Load a calibration JSON file (see rig_from_dict)."""
    return rig_from_dict(load_json(path, "calibration"))
