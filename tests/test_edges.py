import math

import numpy as np
import pytest

from cloudsr.edges import (
    CannyParams,
    GrayImage,
    canny,
    gaussian_kernel,
    _smoothed_array,
)
from cloudsr.errors import CloudSRError

from oracles import dense_canny, sobel_gradient


def _step_image(h=64, w=64, col=32, lo=0.0, hi=1.0):
    img = np.full((h, w), lo)
    img[:, col:] = hi
    return GrayImage(img)


def _reference_smooth(pixels, sigma):
    """Separable convolution oracle using np.pad + explicit dot products."""
    k = gaussian_kernel(sigma)
    r = (len(k) - 1) // 2
    out = np.empty_like(pixels)
    padded = np.pad(pixels, ((r, r), (0, 0)), mode="edge")
    for i in range(pixels.shape[0]):
        out[i] = k @ padded[i:i + 2 * r + 1]
    out2 = np.empty_like(out)
    padded = np.pad(out, ((0, 0), (r, r)), mode="edge")
    for j in range(pixels.shape[1]):
        out2[:, j] = padded[:, j:j + 2 * r + 1] @ k
    return out2


# -- GrayImage / params --------------------------------------------------------


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.array([[0.0, 1.5]]))
    with pytest.raises(ValueError):
        GrayImage(np.array([[0.0, float("nan")]]))
    img = GrayImage(np.zeros((2, 3)))
    assert (img.width, img.height) == (3, 2)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_canny_params_validation():
    with pytest.raises(ValueError):
        CannyParams(sigma=0.0)
    with pytest.raises(ValueError):
        CannyParams(low=0.3, high=0.2)
    with pytest.raises(ValueError):
        CannyParams(low=0.0)


# -- gaussian smoothing ----------------------------------------------------------


def test_smooth_preserves_constant():
    out = _smoothed_array(np.full((16, 16), 0.37), 1.4)
    np.testing.assert_allclose(out, 0.37, atol=1e-12)


def test_smooth_impulse_response():
    size = 31
    img = np.zeros((size, size))
    img[15, 15] = 1.0
    out = _smoothed_array(img, 1.0)
    k = gaussian_kernel(1.0)
    r = (len(k) - 1) // 2
    expected = np.outer(k, k)
    got = out[15 - r:15 + r + 1, 15 - r:15 + r + 1]
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert abs(out.sum() - 1.0) < 1e-9


def test_smooth_step_matches_reference_and_is_monotone():
    img = _step_image()
    out = _smoothed_array(img.pixels, 1.4)
    ref = _reference_smooth(img.pixels, 1.4)
    np.testing.assert_allclose(out, ref, atol=1e-12)
    diffs = np.diff(out, axis=1)
    assert np.all(diffs >= -1e-15)  # monotone ramp across the step


# -- gradient: the library's Sobel (Gx, Gy) as magnitude and direction -------------


def test_gradient_constant_zero():
    mag, _ = sobel_gradient(np.full((10, 10), 0.5))
    assert np.all(mag == 0.0)


def test_gradient_too_small():
    with pytest.raises(CloudSRError, match="gradient needs at least a 3x3 image"):
        sobel_gradient(np.zeros((2, 5)))


def test_gradient_vertical_step_response():
    img = _step_image(h=16, w=16, col=8)
    mag, direction = sobel_gradient(img.pixels)
    interior = mag[1:-1, :]
    peak = interior.max()
    # max response on the two columns adjacent to the step, horizontal angle
    peak_cols = np.unique(np.nonzero(interior == peak)[1])
    assert set(peak_cols) == {7, 8}
    assert np.allclose(direction[1:-1, 7:9], 0.0, atol=1e-12)


def test_gradient_transpose_swaps_components():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(20, 14))
    mag, direction = sobel_gradient(img)
    mag_t, direction_t = sobel_gradient(img.T)
    np.testing.assert_allclose(mag_t, mag.T, atol=1e-12)
    mask = mag.T > 1e-9
    # transposing swaps Gx and Gy, so cos and sin of the angle swap too
    np.testing.assert_allclose(
        np.cos(direction_t)[mask], np.sin(direction).T[mask], atol=1e-12
    )
    np.testing.assert_allclose(
        np.sin(direction_t)[mask], np.cos(direction).T[mask], atol=1e-12
    )


def test_gradient_direction_range():
    rng = np.random.default_rng(1)
    _, direction = sobel_gradient(rng.uniform(size=(12, 12)))
    assert np.all(direction > -np.pi)
    assert np.all(direction <= np.pi)


# -- canny -------------------------------------------------------------------------


def test_canny_constant_image_empty():
    out = canny(GrayImage(np.full((32, 32), 0.8)))
    assert out.shape == (0, 2)
    assert not out.flags.writeable


def test_canny_vertical_step_localization():
    col = 32
    pts = canny(_step_image(col=col))
    assert len(pts) > 0 and pts.dtype == np.float64
    assert not pts.flags.writeable
    band = math.ceil(3 * 1.4) + 1
    # entirely within one pixel of the step boundary
    assert np.all((pts[:, 0] >= col - 1) & (pts[:, 0] <= col + 1))
    rows = pts[:, 1].astype(int)
    interior = np.arange(band, 64 - band)
    counts = {r: 0 for r in interior}
    for r in rows:
        assert r in counts
        counts[r] += 1
    assert all(c == 1 for c in counts.values())  # exactly one per interior row


def test_canny_horizontal_step_localization():
    row = 24
    img = np.zeros((48, 48))
    img[row:, :] = 1.0
    pts = canny(GrayImage(img))
    assert len(pts) > 0
    assert np.all((pts[:, 1] >= row - 1) & (pts[:, 1] <= row + 1))
    band = math.ceil(3 * 1.4) + 1
    cols = pts[:, 0].astype(int)
    assert sorted(set(cols)) == list(range(band, 48 - band))
    assert len(cols) == len(set(cols))


def test_canny_shift_equivariance():
    base = np.zeros((80, 80))
    base[30:50, 20:40] = 1.0
    shifted = np.zeros((80, 80))
    shifted[30:50, 25:45] = 1.0
    a = canny(GrayImage(base))
    b = canny(GrayImage(shifted))
    moved = a + np.array([5.0, 0.0])
    assert {tuple(p) for p in moved} == {tuple(p) for p in b}


def test_canny_edges_satisfy_threshold_and_connectivity_invariant():
    rng = np.random.default_rng(2)
    img = np.zeros((64, 64))
    img[16:48, 16:48] = 0.9
    img += rng.uniform(0, 0.05, size=img.shape)
    img = np.clip(img, 0, 1)
    params = CannyParams()
    out = canny(GrayImage(img), params)
    assert len(out) > 0

    mag, _ = sobel_gradient(_smoothed_array(img, params.sigma))
    gmax = mag.max()
    edge_set = {(int(v), int(u)) for u, v in out}
    for r, c in edge_set:
        assert mag[r, c] >= params.low * gmax - 1e-12
    # flood within the emitted set from strong pixels must reach everything
    strong = {p for p in edge_set if mag[p] >= params.high * gmax - 1e-12}
    assert strong
    seen = set(strong)
    frontier = list(strong)
    while frontier:
        r, c = frontier.pop()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                q = (r + dr, c + dc)
                if q in edge_set and q not in seen:
                    seen.add(q)
                    frontier.append(q)
    assert seen == edge_set


def test_canny_nms_pixels_are_local_maxima():
    img = np.zeros((48, 48))
    img[12:36, 12:36] = 1.0
    params = CannyParams()
    out = canny(GrayImage(img), params)
    mag, theta = sobel_gradient(_smoothed_array(img, params.sigma))
    bins = np.round(np.mod(theta, np.pi) / (np.pi / 4)).astype(int) % 4
    steps = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}
    for u, v in out:
        r, c = int(v), int(u)
        dr, dc = steps[bins[r, c]]
        assert mag[r, c] >= mag[r + dr, c + dc]
        assert mag[r, c] >= mag[r - dr, c - dc]


def _disc(size, radius, rng):
    v, u = np.mgrid[0:size, 0:size]
    img = 0.2 + 0.6 * ((u - size / 2) ** 2 + (v - size / 2) ** 2 < radius ** 2)
    return np.clip(img + rng.uniform(0, 0.05, size=img.shape), 0, 1)


@pytest.mark.parametrize("params", [CannyParams(), CannyParams(sigma=0.6, low=0.02, high=0.05),
                                    CannyParams(sigma=2.5, low=0.3, high=0.9)])
def test_canny_matches_dense_suppression(params):
    # thinning only the pixels at or above the low threshold keeps every
    # weak and strong pixel: the same bytes as thinning the whole image, on
    # noise, a noisy disc, exact plateaus and ramps, and a dark-right step
    # whose direction atan2(0, -g) is exactly pi
    rng = np.random.default_rng(4)
    images = [rng.uniform(size=(40, 56)), _disc(64, 20, rng), np.tri(48, 48, k=5) * 0.7,
              np.clip(np.add.outer(np.arange(32), np.arange(40)) / 80.0, 0, 1),
              1.0 - _step_image(col=30).pixels]
    found = 0
    for img in images:
        got = canny(GrayImage(img), params)
        want = dense_canny(GrayImage(img), params)
        assert got.tobytes() == want.tobytes()
        found += len(got)
    assert found


def test_canny_pixel_at_the_low_threshold_is_weak():
    # the weakest edge pixel found at the default thresholds sets the low
    # threshold exactly: it is still a weak pixel, and every pixel on its
    # path to a strong one is at least as strong, so it stays an edge
    img = _disc(64, 20, np.random.default_rng(6))
    mag, _ = sobel_gradient(_smoothed_array(img, CannyParams().sigma))
    gmax = float(mag.max())
    edges = canny(GrayImage(img)).astype(int)
    u, v = min(edges, key=lambda e: mag[e[1], e[0]])
    low = mag[v, u] / gmax
    while low * gmax != mag[v, u]:
        low = np.nextafter(low, np.inf if low * gmax < mag[v, u] else -np.inf)
    params = CannyParams(low=float(low), high=max(0.2, float(np.nextafter(low, 1.0))))
    got = canny(GrayImage(img), params)
    assert [u, v] in got.astype(int).tolist()
    assert got.tobytes() == dense_canny(GrayImage(img), params).tobytes()


def test_canny_edge_count_monotone_in_high_threshold():
    rng = np.random.default_rng(3)
    img = np.clip(rng.uniform(size=(64, 64)) * 0.3
                  + np.tri(64, 64, k=10) * 0.5, 0, 1)
    counts = []
    for high in (0.15, 0.3, 0.5, 0.7):
        counts.append(len(canny(GrayImage(img), CannyParams(high=high))))
    assert counts == sorted(counts, reverse=True)


def test_canny_too_small():
    with pytest.raises(CloudSRError, match="canny needs at least a 3x3 image"):
        canny(GrayImage(np.zeros((2, 2))))
