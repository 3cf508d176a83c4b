import numpy as np
import pytest

from cloudsr.errors import EmptyInput, InsufficientPoints, InvalidTarget
from cloudsr.geometry import (
    Point3,
    PointCloud3,
    PointSet2,
    SpatialIndex,
    bin_downsample,
    binned_centroids,
    denormalize,
    normalize_to_unit,
)

from oracles import linear_knn, linear_nn


def test_point3_rejects_nan():
    with pytest.raises(ValueError):
        Point3(0.0, float("nan"), 1.0)


def test_cloud_is_immutable_and_ordered():
    cloud = PointCloud3([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0
    assert cloud.point(1) == Point3(4.0, 5.0, 6.0)


def test_pointset2_roles_and_dedupe():
    s = PointSet2([[0, 0], [0, 0], [1, 1]], role="projection")
    deduped, keep = s.deduplicated()
    assert len(deduped) == 2
    assert list(keep) == [0, 2]
    with pytest.raises(ValueError):
        PointSet2([[0, 0]], role="banana")


def _nearest(idx, q):
    """(index, distance) of one query through the batched path."""
    i, sq = idx.nearest_batch(np.asarray(q, dtype=np.float64)[None, :])
    return int(i[0]), float(np.sqrt(sq[0]))


def _knn(idx, q, k):
    """[(index, distance)] of one query through the batched path."""
    i, sq = idx.knn_batch(np.asarray(q, dtype=np.float64)[None, :], k)
    return [(int(j), float(d)) for j, d in zip(i[0], np.sqrt(sq[0]))]


def test_index_rejects_empty():
    with pytest.raises(EmptyInput):
        SpatialIndex(np.zeros((0, 2)))


def test_single_point_query():
    idx = SpatialIndex(np.array([[1.0, 2.0]]))
    i, d = _nearest(idx, [5.0, 5.0])
    assert i == 0
    assert d == pytest.approx(5.0, abs=1e-15)  # 3-4-5 triangle


def test_self_query_distance_zero():
    pts = np.array([[0.0, 0.0], [3.0, 1.0], [2.0, -4.0]])
    idx = SpatialIndex(pts)
    i, d = _nearest(idx, [2.0, -4.0])
    assert (i, d) == (2, 0.0)


def test_knn_on_line():
    pts = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
    idx = SpatialIndex(pts)
    assert [i for i, _ in _knn(idx, [0.0, 0.0], 2)] == [0, 1]


def test_knn_k_equals_count_sorted():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(9, 3))
    idx = SpatialIndex(pts)
    res = _knn(idx, rng.normal(size=3), 9)
    dists = [d for _, d in res]
    assert dists == sorted(dists)
    assert sorted(i for i, _ in res) == list(range(9))


def test_knn_equidistant_tie_breaks_low_index():
    idx = SpatialIndex(np.array([[0.0, 0.0], [2.0, 0.0]]))
    i, d = _nearest(idx, [1.0, 0.0])
    assert i == 0
    assert d == 1.0


def test_knn_errors():
    idx = SpatialIndex(np.array([[0.0, 0.0]]))
    with pytest.raises(InsufficientPoints):
        idx.knn_batch(np.array([[0.0, 0.0]]), 2)
    with pytest.raises(InsufficientPoints):
        idx.knn_batch(np.array([[0.0, 0.0]]), 0)


@pytest.mark.parametrize("n,dim", [(1, 2), (2, 3), (17, 2), (256, 3), (1024, 2)])
def test_index_matches_linear_scan(n, dim):
    rng = np.random.default_rng(n * 31 + dim)
    pts = rng.uniform(-5, 5, size=(n, dim))
    idx = SpatialIndex(pts)
    queries = rng.uniform(-6, 6, size=(50, dim))
    for q in queries:
        assert _nearest(idx, q) == linear_nn(pts, q)
        k = int(rng.integers(1, n + 1))
        got = _knn(idx, q, k)
        want = linear_knn(pts, q, k)
        assert [i for i, _ in got] == [i for i, _ in want]
        np.testing.assert_allclose(
            [d for _, d in got], [d for _, d in want], rtol=0, atol=0
        )


def test_index_matches_linear_scan_with_forced_ties():
    # integer lattice + integer queries force exact distance ties
    xs, ys = np.meshgrid(np.arange(8), np.arange(8))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    idx = SpatialIndex(pts)
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = rng.integers(-1, 9, size=2).astype(float) + rng.choice([0.0, 0.5], 2)
        assert _nearest(idx, q) == linear_nn(pts, q)
        got = _knn(idx, q, 5)
        want = linear_knn(pts, q, 5)
        assert got == want


def test_index_matches_linear_scan_at_4096():
    rng = np.random.default_rng(4096)
    pts = rng.uniform(-10, 10, size=(4096, 3))
    idx = SpatialIndex(pts)
    queries = rng.uniform(-11, 11, size=(150, 3))
    for q in queries:
        assert _nearest(idx, q) == linear_nn(pts, q)
    # remaining queries in one batch (several chunks), cross-checked per query
    more = rng.uniform(-11, 11, size=(850, 3))
    bidx, bsq = idx.nearest_batch(more)
    for qi in rng.choice(850, size=60, replace=False):
        i, d = linear_nn(pts, more[qi])
        assert bidx[qi] == i and np.sqrt(bsq[qi]) == d


def test_nearest_batch_matches_single_queries():
    # every row of one multi-chunk batch against the exhaustive scalar scan
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 2))
    idx = SpatialIndex(pts)
    queries = rng.normal(size=(701, 2))
    bidx, bsq = idx.nearest_batch(queries)
    for qi, q in enumerate(queries):
        i, d = linear_nn(pts, q)
        assert bidx[qi] == i
        assert np.sqrt(bsq[qi]) == d


def test_knn_batch_matches_linear_scan():
    # every row of one multi-chunk batch against the exhaustive scalar scan
    rng = np.random.default_rng(12)
    pts = rng.integers(0, 6, size=(300, 2)).astype(float)  # many exact ties
    idx = SpatialIndex(pts)
    queries = rng.integers(0, 12, size=(600, 2)) / 2.0
    bidx, bsq = idx.knn_batch(queries, 7)
    for qi, q in enumerate(queries):
        want = linear_knn(pts, q, 7)
        assert list(bidx[qi]) == [i for i, _ in want]
        np.testing.assert_allclose(np.sqrt(bsq[qi]), [d for _, d in want],
                                   rtol=0, atol=0)


# -- bin_downsample ----------------------------------------------------------


def test_downsample_identity():
    cloud = PointCloud3(np.random.default_rng(0).normal(size=(20, 3)))
    out = bin_downsample(cloud, 20)
    assert out is cloud


def test_downsample_cube_corners():
    corners = np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float
    )
    out = bin_downsample(PointCloud3(corners), 8)
    assert sorted(map(tuple, out.points)) == sorted(map(tuple, corners))


def test_downsample_counts_and_voxel_bound():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(1000, 3))
    cloud = PointCloud3(pts)
    out = bin_downsample(cloud, 100)
    assert len(out) == 100

    # voxel-grid oracle: recompute the bisected binning independently and
    # check each output point is one of those centroids, hence within one
    # voxel diagonal of an input point
    centroids, edge = binned_centroids(pts, 100)
    cset = {tuple(np.round(c, 12)) for c in centroids}
    for p in out.points:
        assert tuple(np.round(p, 12)) in cset
        nearest = np.min(np.linalg.norm(pts - p, axis=1))
        assert nearest <= edge * np.sqrt(3) + 1e-12


@pytest.mark.parametrize("target", [1, 3, 13, 49])
def test_downsample_exact_count_many(target):
    rng = np.random.default_rng(target)
    for trial in range(12):
        pts = rng.normal(size=(rng.integers(target, 200), 3))
        out = bin_downsample(PointCloud3(pts), target)
        assert len(out) == target


def test_downsample_errors():
    cloud = PointCloud3([[0, 0, 0]])
    with pytest.raises(InvalidTarget):
        bin_downsample(cloud, 0)
    with pytest.raises(InvalidTarget):
        bin_downsample(cloud, 2)


def test_downsample_duplicate_heavy_cloud():
    pts = np.tile([[1.0, 2.0, 3.0]], (10, 1))
    out = bin_downsample(PointCloud3(pts), 4)
    assert len(out) == 4
    np.testing.assert_allclose(out.points, np.tile([[1, 2, 3]], (4, 1)))


def test_downsample_tiny_gap_keeps_distinct_rows():
    # a 1e-20 gap makes the smallest voxel edge 5e-21, so a voxel index of a
    # unit-size cloud is ~2e20: past int64, where the keys used to collide
    pts = np.random.default_rng(0).random((200, 3))
    pts[0] = [0.0, 0.5, 0.5]
    pts[1] = [1e-20, 0.5, 0.5]
    out = bin_downsample(PointCloud3(pts), 150)
    assert np.unique(out.points, axis=0).shape[0] == 150


# -- normalize ---------------------------------------------------------------


def test_normalize_unit_cube_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(50, 3))
    cloud = PointCloud3(pts)
    norm, scale, offset = normalize_to_unit(cloud)
    assert 0 < scale <= 1.0
    assert np.max(np.abs(norm.points)) == 1.0
    back = denormalize(norm, scale, offset)
    np.testing.assert_allclose(back.points, pts, atol=1e-12)


def test_normalize_single_point():
    norm, scale, offset = normalize_to_unit(PointCloud3([[5.0, 5.0, 5.0]]))
    np.testing.assert_array_equal(norm.points, [[0.0, 0.0, 0.0]])
    assert scale == 1.0
    assert offset == Point3(5.0, 5.0, 5.0)


def test_normalize_round_trip_random():
    rng = np.random.default_rng(9)
    pts = rng.normal(scale=40.0, size=(100, 3)) + [100.0, -7.0, 3.0]
    norm, scale, offset = normalize_to_unit(PointCloud3(pts))
    back = denormalize(norm, scale, offset)
    assert np.max(np.abs(back.points - pts)) < 1e-12
