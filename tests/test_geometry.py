import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsr.errors import EmptyInput, InsufficientPoints, InvalidTarget
from cloudsr.geometry import (
    COORD_LIMIT,
    PointCloud3,
    SpatialIndex,
    bin_downsample,
    binned_centroids,
    dedupe_rows,
    denormalize,
    normalize_to_unit,
)

from oracles import flat_knn, linear_knn, linear_nn


def test_cloud_is_immutable_and_ordered():
    cloud = PointCloud3([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0
    np.testing.assert_array_equal(cloud.points[1], [4.0, 5.0, 6.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -2 * COORD_LIMIT])
def test_cloud_rejects_unbounded_coordinates(bad):
    PointCloud3([[COORD_LIMIT, -COORD_LIMIT, 0.0]])  # the limit itself is accepted
    with pytest.raises(ValueError):
        PointCloud3([[0.0, bad, 1.0]])


@pytest.mark.parametrize("rows,keep", [
    ([[0, 0], [0, 0], [1, 1]], [0, 2]),
    # beyond ~9.2e9 an int64 grid key would wrap and merge distant rows
    ([[1e10, 0], [2e10, 0], [3e10, 1]], [0, 1, 2]),
], ids=["duplicate", "beyond-int64-grid"])
def test_dedupe_rows_keeps_first_representative(rows, keep):
    assert dedupe_rows(np.array(rows, dtype=np.float64)).tolist() == keep


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
    # remaining queries in one batch, cross-checked per query
    more = rng.uniform(-11, 11, size=(850, 3))
    bidx, bsq = idx.nearest_batch(more)
    for qi in rng.choice(850, size=60, replace=False):
        i, d = linear_nn(pts, more[qi])
        assert bidx[qi] == i and np.sqrt(bsq[qi]) == d


def test_nearest_batch_matches_single_queries():
    # every row of one batch against the exhaustive scalar scan
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
    # every row of one batch against the exhaustive scalar scan
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


@st.composite
def _point_sets(draw):
    """(points, queries, k): lattices, duplicated rows and far-offset sets in
    2D and 3D, with queries on, between and off the points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["lattice", "duplicates", "uniform"]))
    if kind == "lattice":
        pts = rng.integers(0, draw(st.integers(1, 6)), size=(n, dim)).astype(float)
    elif kind == "duplicates":
        base = rng.normal(size=(draw(st.integers(1, 4)), dim))
        pts = base[rng.integers(0, base.shape[0], n)]
    else:
        pts = rng.uniform(-1, 1, size=(n, dim))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e5]))
    offset = draw(st.sampled_from([0.0, 1e6, -3e9, 1e12]))
    pts = pts * scale + offset
    m = draw(st.integers(1, 40))
    queries = np.vstack([
        pts[rng.integers(0, n, m)],
        pts[rng.integers(0, n, m)] + rng.integers(-2, 3, size=(m, dim)) * (scale / 2),
        rng.uniform(-2, 2, size=(m, dim)) * scale + offset,
    ])
    return pts, queries, draw(st.integers(1, n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_point_sets())
def test_index_matches_flat_scan_oracle(case):
    pts, queries, k = case
    idx = SpatialIndex(pts)
    for got, want in [(idx.knn_batch(queries, k), flat_knn(pts, queries, k)),
                      (idx.nearest_batch(queries), flat_knn(pts, queries, 1)),
                      (idx.knn_batch(queries, len(pts)), flat_knn(pts, queries, len(pts)))]:
        np.testing.assert_array_equal(got[0], want[0].reshape(got[0].shape))
        assert got[1].tobytes() == want[1].reshape(got[1].shape).tobytes()


class _CountingTree:
    """Records the width of every query passed to the wrapped tree."""

    def __init__(self, tree):
        self.tree, self.widths = tree, []

    def query(self, x, k):
        self.widths.append(k)
        return self.tree.query(x, k=k)


@pytest.mark.parametrize("k", [1, 3, 11])
def test_index_widens_queries_inside_a_tie(k):
    # 12 lattice points at distance 5 from the origin, 40 copies of one far
    # point and a lattice around them: every query's k-th neighbor sits in a
    # tie larger than the first candidate list, so it has to widen
    ring = [(5, 0), (-5, 0), (0, 5), (0, -5)] + [
        (sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)]
    grid = [(x, y) for x in range(20, 30) for y in range(20, 30)]
    pts = np.array(grid[:50] + ring + [(40.0, 40.0)] * 40 + grid[50:], dtype=float)
    queries = np.array([[0.0, 0.0], [40.0, 40.0]])
    idx = SpatialIndex(pts)
    idx._tree = _CountingTree(idx._tree)
    got = idx.knn_batch(queries, k)
    want = flat_knn(pts, queries, k)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert len(idx._tree.widths) > 1 and idx._tree.widths[-1] > idx._tree.widths[0]


class _SkewedTree:
    """Ranks like the left fold, except that one point reads `skew`
    relatively farther, as rounding inside a tree may make it."""

    def __init__(self, pts, point, skew):
        self.pts, self.point, self.skew = pts, point, skew

    def query(self, x, k):
        d2 = ((self.pts[None, :, :] - x[:, None, :]) ** 2).sum(axis=-1)
        d2[:, self.point] *= 1 + self.skew
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        return np.sqrt(np.take_along_axis(d2, order, axis=1)), order


def test_index_widens_past_near_ties():
    # exact squared distances 1, 1 + 2^-51 (x3) and 1 + 2^-50 (x2); the tree
    # reads point 0 sixteen ulps too far and leaves it out of the first five
    # candidates, whose k-th and last distances differ by two ulps only
    y1, y2 = 1 + 2.0**-52, 1 + 2.0**-51
    pts = np.array([[1.0, 0], [0, y1], [-y1, 0], [0, -y1], [y2, 0], [0, y2]])
    idx = SpatialIndex(pts)
    idx._tree = _SkewedTree(pts, 0, 2.0**-48)
    got = idx.knn_batch(np.zeros((1, 2)), 1)
    assert got[0].tolist() == [[0]] and got[1].tolist() == [[1.0]]


def test_index_rejects_unbounded_queries():
    idx = SpatialIndex(np.array([[0.0, 0.0], [1.0, 1.0]]))
    for bad in (np.nan, np.inf, 2 * COORD_LIMIT):
        with pytest.raises(ValueError):
            idx.nearest_batch(np.array([[bad, 0.0]]))


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


@pytest.mark.parametrize("gap,far", [(5e-324, 3.0), (1e-310, 1e10)],
                         ids=["half-gap-rounds-to-zero", "key-overflow"])
def test_downsample_subnormal_gap_keeps_keys_finite(gap, far):
    # half the smallest gap is zero, or the extent over it overflows: both
    # made the voxel keys non-finite, which RuntimeWarning-as-error catches
    pts = [[0, 0, 0], [gap, 0, 0], [1, 1, 1], [2, 2, 2], [far, 1, 0]]
    out = bin_downsample(PointCloud3(pts), 4)
    assert out.points.shape == (4, 3) and np.all(np.isfinite(out.points))


# -- normalize ---------------------------------------------------------------


def test_normalize_unit_cube_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(50, 3))
    norm, scale, offset = normalize_to_unit(pts)
    assert 0 < scale <= 1.0
    assert np.max(np.abs(norm)) == 1.0
    back = denormalize(norm, scale, offset)
    np.testing.assert_allclose(back, pts, atol=1e-12)


def test_normalize_single_point():
    norm, scale, offset = normalize_to_unit(np.array([[5.0, 5.0, 5.0]]))
    np.testing.assert_array_equal(norm, [[0.0, 0.0, 0.0]])
    assert scale == 1.0
    np.testing.assert_array_equal(offset, [5.0, 5.0, 5.0])


def test_normalize_round_trip_random():
    rng = np.random.default_rng(9)
    pts = rng.normal(scale=40.0, size=(100, 3)) + [100.0, -7.0, 3.0]
    norm, scale, offset = normalize_to_unit(pts)
    back = denormalize(norm, scale, offset)
    assert np.max(np.abs(back - pts)) < 1e-12
