import numpy as np
import pytest

import cloudsr.densify
from cloudsr.densify import DensifyConfig, _midpoint_round, densify
from cloudsr.errors import CloudSRError
from cloudsr.geometry import PointCloud3, SpatialIndex, dedupe_rows

from oracles import all_pairs_midpoint_pool


def _rows(cloud):
    return {tuple(p) for p in cloud.points}


def test_config_validation():
    with pytest.raises(ValueError):
        DensifyConfig(rate=1)
    with pytest.raises(ValueError):
        DensifyConfig(k_interp=1)


def test_two_points_rate_two():
    cloud = PointCloud3([[0.0, 0, 0], [2.0, 0, 0]])
    out = densify(cloud, DensifyConfig(rate=2, k_interp=2))
    # hand trace: one midpoint round gives {0, 1, 2}, a second fills the pool,
    # and bin selection trims the generated extras to exactly rate * 2
    assert len(out) == 4
    assert _rows(cloud) <= _rows(out)
    assert np.all(out.points[:, 1:] == 0.0)  # generated points stay on the segment
    assert np.all((out.points[:, 0] >= 0.0) & (out.points[:, 0] <= 2.0))


def test_collinear_stays_on_segment():
    t = np.linspace(0, 1, 7)
    pts = np.stack([t, 2 * t, -t], axis=1)  # straight segment
    out = densify(PointCloud3(pts), DensifyConfig(rate=3))
    # every output point on the line p = s * (1, 2, -1)
    s = out.points[:, 0]
    np.testing.assert_allclose(out.points[:, 1], 2 * s, atol=1e-12)
    np.testing.assert_allclose(out.points[:, 2], -s, atol=1e-12)


def test_exact_count_and_superset_2048():
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(2048, 3))
    cloud = PointCloud3(pts)
    out = densify(cloud, DensifyConfig(rate=4))
    assert len(out) == 8192
    np.testing.assert_array_equal(out.points[:2048], pts)  # originals lead


@pytest.mark.parametrize("rate,n", [(2, 5), (3, 50), (4, 128), (16, 9)])
def test_exact_count_various(rate, n):
    rng = np.random.default_rng(rate * 100 + n)
    cloud = PointCloud3(rng.normal(size=(n, 3)))
    out = densify(cloud, DensifyConfig(rate=rate))
    assert len(out) == rate * n
    assert _rows(cloud) <= _rows(out)


def _midpoint_pools(kind, seed):
    """(pool, k_interp): lattices with mutual and tied neighbours, random
    rows, rows with one-sided neighbour lists, and pools of at most
    k_interp + 1 rows."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        grid = np.stack(np.meshgrid(np.arange(5), np.arange(4), np.arange(2), indexing="ij"), axis=-1)
        return grid.reshape(-1, 3)[rng.permutation(40)] * 0.5, 4
    if kind == "random":
        return rng.normal(size=(60, 3)), int(rng.integers(2, 7))
    if kind == "one-sided":
        # rows 2^i apart on a line, and far rows around a tight cluster:
        # each far row lists cluster rows that do not list it back
        line = np.zeros((10, 3))
        line[:, 0] = 2.0 ** np.arange(10)
        cluster = rng.normal(scale=0.01, size=(12, 3))
        far = rng.normal(size=(6, 3)) * 50
        return np.vstack([line, cluster, far])[rng.permutation(28)], 3
    n = int(rng.integers(2, 6))
    return rng.normal(size=(n, 3)), n - 1 + int(rng.integers(0, 3))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["lattice", "random", "one-sided", "small"])
def test_midpoint_rounds_match_the_all_pairs_oracle(kind, seed):
    # a mirrored pair's midpoint is bit-identical to its earlier copy, so the
    # pool after each round is the all-pairs one, byte for byte, and each
    # unordered neighbour pair gives exactly one midpoint
    pool, k_interp = _midpoint_pools(kind, seed)
    for _ in range(3):
        mids = _midpoint_round(pool, k_interp)
        nbrs, _ = SpatialIndex(pool).knn_batch(pool, min(k_interp + 1, len(pool)))
        pairs = {(min(r, c), max(r, c)) for r, row in enumerate(nbrs.tolist()) for c in row if c != r}
        assert mids.shape == (len(pairs), 3)
        grown = np.vstack([pool, mids])
        grown = grown[dedupe_rows(grown)]
        assert grown.tobytes() == all_pairs_midpoint_pool(pool, k_interp).tobytes()
        pool = grown


def test_generated_points_in_convex_hull():
    # a tetrahedron: inside test is four half-space checks
    verts = np.array(
        [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    out = densify(PointCloud3(verts), DensifyConfig(rate=4))
    pts = out.points
    assert np.all(pts >= -1e-12)
    assert np.all(pts.sum(axis=1) <= 1 + 1e-12)


def test_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    a = densify(PointCloud3(pts), DensifyConfig(rate=4))
    b = densify(PointCloud3(pts.copy()), DensifyConfig(rate=4))
    np.testing.assert_array_equal(a.points, b.points)


def test_too_few_points():
    with pytest.raises(CloudSRError, match="densification needs at least 2 points"):
        densify(PointCloud3([[0.0, 0, 0]]))


def test_duplicate_heavy_input_still_exact():
    pts = np.vstack([np.tile([[1.0, 1, 1]], (6, 1)), [[2.0, 2, 2]]])
    out = densify(PointCloud3(pts), DensifyConfig(rate=2))
    assert len(out) == 14
    assert _rows(PointCloud3(pts)) <= _rows(out)


@pytest.mark.parametrize("pts,want", [
    ([[1.0, 2, 3]] * 5, [[1.0, 2, 3]] * 10),
    # one midpoint survives the dedupe, then rounds stall; it is cycled
    ([[0.0, 0, 0], [2e-9, 0, 0]], [[0.0, 0, 0], [2e-9, 0, 0], [1e-9, 0, 0], [1e-9, 0, 0]]),
    # no midpoint survives, so the deduped originals are cycled
    ([[0.0, 0, 0], [1e-9, 0, 0]], [[0.0, 0, 0], [1e-9, 0, 0], [0.0, 0, 0], [1e-9, 0, 0]]),
], ids=["one-distinct-row", "one-midpoint", "no-midpoint"])
def test_stalled_rounds_cycle_what_exists(pts, want):
    out = densify(PointCloud3(np.array(pts)), DensifyConfig(rate=2))
    assert out.points.tobytes() == np.array(want).tobytes()


class _RoundStarted(Exception):
    pass


def _no_rounds(monkeypatch):
    def started(pts, k_interp):
        raise _RoundStarted
    monkeypatch.setattr(cloudsr.densify, "_midpoint_round", started)


@pytest.mark.parametrize("n,rate,k_interp,bound,admitted", [
    (10, 4, 4, 40 * 5, True),
    (10, 4, 5, 40 * 5, False),
    (3, 2, 100, 6 * 6, True),    # a round ranks at most the whole pool
    (3, 2, 100, 6 * 6 - 1, False),
])
def test_size_bound_counts_ranked_rows(monkeypatch, n, rate, k_interp, bound, admitted):
    _no_rounds(monkeypatch)
    monkeypatch.setattr(cloudsr.densify, "MAX_MIDPOINT_ROWS", bound)
    cloud = PointCloud3(np.random.default_rng(5).normal(size=(n, 3)))
    if admitted:
        expected = pytest.raises(_RoundStarted)
    else:
        expected = pytest.raises(CloudSRError, match=f"exceeds {bound} midpoint rows")
    with expected:
        densify(cloud, DensifyConfig(rate=rate, k_interp=k_interp))


def test_size_bound_admits_a_vga_frame(monkeypatch):
    _no_rounds(monkeypatch)
    cloud = PointCloud3(np.random.default_rng(6).uniform(size=(300_000, 3)))
    with pytest.raises(_RoundStarted):
        densify(cloud, DensifyConfig(rate=4, k_interp=8))
