import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsr import geometry
from cloudsr.errors import EmptyInput, InsufficientPoints, InvalidTarget
from cloudsr.geometry import (
    COORD_LIMIT,
    DEDUPE_TOL,
    PointCloud3,
    SpatialIndex,
    bin_downsample,
    binned_centroids,
    dedupe_rows,
    farthest_point_select,
    normalize_to_unit,
)

from oracles import (brute_farthest_point_select, flat_knn, lexsort_voxel_bin_count, linear_knn,
                     linear_nn, unique_dedupe_rows, unique_voxel_centroids)


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


def _edge_bounds(pts):
    """(origin, smallest separating edge, initial upper edge) as
    `binned_centroids` computes them, or None when all rows are identical."""
    origin = pts.min(axis=0)
    extent = pts.max(axis=0) - origin
    gaps = []
    for d in range(pts.shape[1]):
        diffs = np.diff(np.sort(pts[:, d]))
        diffs = diffs[diffs > 0]
        if diffs.size:
            gaps.append(diffs.min())
    if not gaps:
        return None
    lo = max(min(gaps) / 2.0, float(extent.max()) / 1e300,
             np.finfo(np.float64).smallest_subnormal)
    return origin, lo, float(np.linalg.norm(extent)) + lo


def _bisect_64_steps(pts, target):
    """`binned_centroids` as it was before its bisection stopped early and
    before its counts were folded: all 64 steps, every one counting the bins
    with the `lexsort` oracle."""
    bounds = _edge_bounds(pts)
    if bounds is None:
        return pts[:1].copy(), 1.0
    origin, lo, hi = bounds
    if lexsort_voxel_bin_count(pts, origin, lo) < target:
        return unique_voxel_centroids(pts, origin, lo), lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if lexsort_voxel_bin_count(pts, origin, mid) >= target:
            lo = mid
        else:
            hi = mid
    return unique_voxel_centroids(pts, origin, lo), lo


def _downsample_clouds():
    """The clouds of the downsample tests above, plus collinear ones whose
    last bisection midpoint rounds up onto the initial upper edge."""
    clouds = [np.random.default_rng(42).uniform(0, 1, size=(1000, 3))]
    for target in (1, 3, 13, 49):
        rng = np.random.default_rng(target)
        clouds += [rng.normal(size=(rng.integers(target, 200), 3)) for _ in range(12)]
    tiny = np.random.default_rng(0).random((200, 3))
    tiny[0], tiny[1] = [0.0, 0.5, 0.5], [1e-20, 0.5, 0.5]
    clouds.append(tiny)
    for gap, far in [(5e-324, 3.0), (1e-310, 1e10)]:
        clouds.append(np.array([[0, 0, 0], [gap, 0, 0], [1, 1, 1], [2, 2, 2], [far, 1, 0]]))
    for ext in (0.5578467243498518, 3.0537940625048043):
        clouds.append(np.array([[0.0, 0, 0], [2 * np.spacing(ext), 0, 0], [ext, 0, 0]]))
    return clouds


def test_bisection_stops_early_with_the_64_step_result(monkeypatch):
    for pts in _downsample_clouds():
        n = pts.shape[0]
        for target in sorted({1, 2, 3, min(13, n), min(49, n), min(100, n)}):
            want_c, want_e = _bisect_64_steps(pts, target)
            got_c, got_e = binned_centroids(pts, target)
            assert got_c.tobytes() == want_c.tobytes() and got_e == want_e

    # a unit-size cloud resolves its edge to adjacent floats in 57-61 steps
    # and stops there (one far below its extent may need all 64)
    counts = []
    real = geometry._voxel_bin_count
    monkeypatch.setattr(geometry, "_voxel_bin_count",
                        lambda *args: counts.append(1) or real(*args))
    binned_centroids(_downsample_clouds()[0], 100)
    assert len(counts) <= 1 + 61


def test_voxel_counts_take_the_lexsort_fallback_at_most_once(monkeypatch):
    # on a unit-size cloud only the first probe, at the smallest separating
    # edge, has a grid of 2^63 cells or more; every other count is folded
    folded = []
    real = geometry._fold_voxel_keys
    monkeypatch.setattr(geometry, "_fold_voxel_keys",
                        lambda keys: folded.append(real(keys)) or folded[-1])
    binned_centroids(_downsample_clouds()[0], 100)
    assert len(folded) > 50
    assert sum(f is None for f in folded) <= 1


def _grid_corner_cloud(spans, rng):
    """Integer rows in [0, span) per axis holding both grid corners, so edge
    1.0 at origin 0 gives exactly these spans."""
    spans = np.array(spans, dtype=np.float64)
    inner = np.floor(rng.uniform(0, 1, size=(40, spans.size)) * spans)
    return np.vstack([np.zeros(spans.size), spans - 1, inner, inner[:5]])


@st.composite
def _voxel_cases(draw):
    """(points, origin, edge): uniform, integer-lattice, planar, 2-column,
    subnormal-gap, signed-zero-key and grid-corner clouds, edges drawn from
    the smallest separating edge up to the extent."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(["uniform", "lattice", "planar", "two-column", "subnormal",
                                 "signed-zero", "grid-corner"]))
    if kind == "uniform":
        pts = rng.uniform(-1, 1, size=(n, 3)) * draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e10]))
    elif kind == "lattice":
        pts = rng.integers(-4, draw(st.integers(-3, 6)) + 5, size=(n, 3)) * 0.5
    elif kind == "planar":
        pts = rng.uniform(0, 1, size=(n, 3))
        pts[:, draw(st.integers(0, 2))] = draw(st.sampled_from([0.0, 0.25, -7.0]))
    elif kind == "two-column":
        pts = rng.integers(0, 9, size=(n, 2)) * draw(st.sampled_from([0.1, 1.0, 3e7]))
    elif kind == "subnormal":
        gap, far = draw(st.sampled_from([(5e-324, 3.0), (1e-310, 1e10), (1e-320, 1.0)]))
        pts = np.vstack([[[0, 0, 0], [gap, 0, 0], [1, 1, 1], [2, 2, 2], [far, 1, 0]],
                         rng.integers(0, 4, size=(n, 3)) * gap])
    elif kind == "signed-zero":
        # rows within half a DEDUPE_TOL of zero snap to -0.0 or +0.0 keys
        pts = rng.integers(-2, 3, size=(n, 3)) * DEDUPE_TOL
        pts += rng.choice([-0.4, -0.1, 0.0, 0.1, 0.4], size=pts.shape) * DEDUPE_TOL
        pts[rng.random(pts.shape) < 0.2] = -0.0
    else:
        spans = draw(st.sampled_from([(2**32, 2**31 - 1), (2**32, 2**31), (2**21, 2**21, 2**21 - 1),
                                      (2**21, 2**21, 2**21), (3, 2**61), (4, 2**61), (1e200, 1e200, 1e200)]))
        pts = _grid_corner_cloud(spans, rng)
        return pts, np.zeros(pts.shape[1]), 1.0
    bounds = _edge_bounds(pts)
    if bounds is None:
        return pts, pts.min(axis=0), 1.0
    origin, lo, hi = bounds
    u = draw(st.sampled_from([0.0, 1.0, None]))
    if u is None:
        u = draw(st.floats(0.0, 1.0))
    return pts, origin, min(lo * (hi / lo) ** u, hi)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_voxel_cases())
def test_voxel_binning_and_dedupe_match_oracles_byte_for_byte(case):
    _assert_voxels_match_oracles(*case)


def _assert_voxels_match_oracles(pts, origin, edge):
    rel = pts - origin
    assert geometry._voxel_bin_count(rel, edge) == lexsort_voxel_bin_count(pts, origin, edge)
    got = geometry._voxel_centroids(pts, rel, edge)
    assert got.tobytes() == unique_voxel_centroids(pts, origin, edge).tobytes()
    assert dedupe_rows(pts).tolist() == unique_dedupe_rows(pts).tolist()


@pytest.mark.parametrize("spans,fits", [
    ((2**32, 2**31 - 1), True), ((2**32, 2**31), False),
    ((2**21, 2**21, 2**21 - 1), True), ((2**21, 2**21, 2**21), False),
    ((1e200, 1e200, 1e200), False),
], ids=["2col-below", "2col-at", "3col-below", "3col-at", "float-overflow"])
def test_fold_switches_to_lexsort_at_two_to_the_63(spans, fits):
    pts = _grid_corner_cloud(spans, np.random.default_rng(1))
    assert (geometry._fold_voxel_keys(pts) is not None) == fits
    _assert_voxels_match_oracles(pts, np.zeros(pts.shape[1]), 1.0)


def test_bisection_target_one_keeps_the_rounded_up_edge():
    # the last midpoint rounds up onto the initial upper edge, where the one
    # bin that holds every row sits; stopping before counting it would keep
    # the edge one ulp lower, where the far row falls into a second bin
    pts = np.array([[0.0, 0, 0], [2 * np.spacing(0.5578467243498518), 0, 0],
                    [0.5578467243498518, 0, 0]])
    centroids, _ = binned_centroids(pts, 1)
    assert centroids.shape == (1, 3)
    assert bin_downsample(PointCloud3(pts), 1).points.tobytes() == centroids.tobytes()


# -- farthest_point_select ----------------------------------------------------


_PYTHAGOREAN = [(5, 0), (-5, 0), (0, 5), (0, -5)] + [
    (sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)]


@st.composite
def _fps_clouds(draw):
    """(points, m): integer and decimal lattices, clouds of 1-4 repeated
    points, equal-distance rings and uniform clouds, at scales from
    subnormal gaps to 1e8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(["lattice", "decimal", "repeated", "ring", "uniform"]))
    if kind == "lattice":
        pts = rng.integers(-3, draw(st.integers(-2, 5)) + 4, size=(n, 3)).astype(float)
    elif kind == "decimal":
        pts = rng.integers(0, 7, size=(n, 3)) * 0.1
    elif kind == "repeated":
        base = rng.normal(size=(draw(st.integers(1, 4)), 3))
        pts = base[rng.integers(0, base.shape[0], n)]
    elif kind == "ring":
        # rows on spheres of equal radius about a few centres: many exact ties
        ring = np.array([(a, b, c) for a, b in _PYTHAGOREAN for c in (0, 5, -5)], float)
        centres = rng.integers(-10, 11, size=(draw(st.integers(1, 3)), 3))
        pts = ring[rng.integers(0, len(ring), n)] + centres[rng.integers(0, len(centres), n)]
    else:
        pts = rng.uniform(-1, 1, size=(n, 3))
    scale = draw(st.sampled_from([5e-324, 1e-315, 1e-300, 1e-8, 1.0, 1e3, 1e8]))
    offset = draw(st.sampled_from([0.0, 1.0, -1e6]))
    return pts * scale + offset, draw(st.integers(1, n))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_fps_clouds())
def test_farthest_point_select_matches_brute_oracle(case):
    pts, m = case
    got = farthest_point_select(pts, m)
    assert got.tolist() == brute_farthest_point_select(pts, m).tolist()


@pytest.mark.parametrize("n,m", [(1, 1), (2000, 2000), (3000, 700)])
def test_farthest_point_select_matches_brute_oracle_at_size(n, m):
    # a jittered lattice (densify's centroids look like this) and pure ties
    rng = np.random.default_rng(n)
    side = int(round(n ** (1 / 3))) + 1
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3), axis=-1).reshape(-1, 3)[:n]
    for pts in (grid + rng.normal(scale=0.05, size=grid.shape), grid * 0.01):
        got = farthest_point_select(pts, m)
        assert got.tolist() == brute_farthest_point_select(pts, m).tolist()


# -- normalize ---------------------------------------------------------------


def test_normalize_unit_cube_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(50, 3))
    norm, scale, offset = normalize_to_unit(pts)
    assert 0 < scale <= 1.0
    assert np.max(np.abs(norm)) == 1.0
    back = norm * scale + offset
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
    back = norm * scale + offset
    assert np.max(np.abs(back - pts)) < 1e-12
