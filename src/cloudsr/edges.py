"""Grayscale images and the Canny edge detector.

The detector follows the classic five-step pipeline: Gaussian smoothing,
Sobel gradients, non-maximum suppression along the quantized gradient
direction, double thresholding relative to the peak gradient magnitude,
and hysteresis tracking by 8-connected flooding from strong pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import CloudSRError

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T
_NO_EDGES = np.zeros((0, 2))
_NO_EDGES.setflags(write=False)


class GrayImage:
    """Immutable grayscale image, row-major float64 intensities in [0, 1]."""

    def __init__(self, pixels):
        arr = np.array(pixels, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("expected a non-empty 2D intensity array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pixel intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("pixel intensities must lie in [0, 1]")
        arr.setflags(write=False)
        self._pixels = arr

    @property
    def pixels(self) -> np.ndarray:
        return self._pixels

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


@dataclass(frozen=True)
class CannyParams:
    """Detector knobs: Gaussian sigma plus thresholds as fractions of the
    image's maximum gradient magnitude (scale invariant)."""

    sigma: float = 1.4
    low: float = 0.1
    high: float = 0.2

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if not (0.0 < self.low < self.high):
            raise ValueError("thresholds must satisfy 0 < low < high")


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized discrete Gaussian of radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    # below sigma ~ 1e-154, 2*sigma^2 is tiny or 0: the off-centre taps go to
    # exp(-inf) = 0 and the centre tap can be 0/0, so it is set to the exact
    # exp(-0) = 1.0 that every sigma gives it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))
    k[radius] = 1.0
    return k / k.sum()


def _smoothed_array(pixels: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge-clamp border replication."""
    k = gaussian_kernel(sigma)
    out = ndimage.correlate1d(pixels, k, axis=0, mode="nearest")
    return ndimage.correlate1d(out, k, axis=1, mode="nearest")


def _sobel(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel (Gx, Gy) arrays of a 2D intensity array, borders clamped."""
    if pixels.shape[0] < 3 or pixels.shape[1] < 3:
        raise CloudSRError("gradient needs at least a 3x3 image")
    return (ndimage.correlate(pixels, _SOBEL_X, mode="nearest"),
            ndimage.correlate(pixels, _SOBEL_Y, mode="nearest"))


def _nonmax_suppress(mag: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                     rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Which of the pixels (rows, cols) survive thinning of ridges to
    single-pixel width along the quantized gradient direction.

    A pixel survives when its magnitude is >= the neighbor against the
    direction and strictly > the neighbor along it; the asymmetry breaks
    exact plateau ties so a symmetric two-pixel ridge keeps one pixel.
    A neighbor outside the image reads +inf, so a border pixel survives only
    when its direction runs along the border.
    """
    h, w = mag.shape
    padded = np.full((h + 2, w + 2), np.inf)
    padded[1:-1, 1:-1] = mag
    # fold direction to [0, pi) and quantize to 4 bins of 45 degrees; the
    # -pi and pi ends of atan2 both map to bin 0 here
    folded = np.mod(np.arctan2(gy[rows, cols], gx[rows, cols]), np.pi)
    bins = np.round(folded / (np.pi / 4.0)).astype(np.int64) % 4
    # (row, col) step along the gradient direction per bin
    steps = np.array([(0, 1), (1, 1), (1, 0), (1, -1)])
    dr, dc = steps[bins, 0], steps[bins, 1]
    m = mag[rows, cols]
    r, c = rows + 1, cols + 1
    return (m >= padded[r - dr, c - dc]) & (m > padded[r + dr, c + dc])


def canny(img: GrayImage, params: CannyParams = CannyParams()) -> np.ndarray:
    """Edge detection; returns edge pixel centers as a read-only (E, 2)
    float64 array.

    Output points are (u=column, v=row) in row-major scan order.  A border
    band of ceil(3*sigma)+1 pixels is cut off after hysteresis to avoid
    clamp artifacts, so a sigma whose band covers the image finds no edges.
    """
    if img.width < 3 or img.height < 3:
        raise CloudSRError("canny needs at least a 3x3 image")
    # compared in floating point before the ceil, which overflows for a huge
    # sigma (whose kernel would not fit in memory either)
    side = min(img.width, img.height)
    if 3.0 * params.sigma >= side:
        return _NO_EDGES
    band = math.ceil(3.0 * params.sigma) + 1
    if 2 * band >= side:
        return _NO_EDGES

    gx, gy = _sobel(_smoothed_array(img.pixels, params.sigma))
    mag = np.hypot(gx, gy)
    # a Python float: a threshold product past the float range becomes inf
    # quietly, where a numpy scalar product warns
    gmax = float(mag.max())
    if gmax == 0.0:
        return _NO_EDGES

    # only pixels at or above the low threshold can be weak or strong, so
    # only they are thinned
    rows, cols = np.nonzero(mag >= params.low * gmax)
    keep = _nonmax_suppress(mag, gx, gy, rows, cols)
    rows, cols = rows[keep], cols[keep]
    weak = np.zeros(mag.shape, dtype=bool)
    weak[rows, cols] = True
    strong = mag[rows, cols] >= params.high * gmax

    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=bool))
    good = np.unique(labels[rows[strong], cols[strong]])
    edges = weak & np.isin(labels, good)
    rows, cols = np.nonzero(edges[band:-band, band:-band])
    pts = np.stack([cols, rows], axis=1).astype(np.float64) + band
    pts.setflags(write=False)
    return pts
