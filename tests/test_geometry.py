import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cloudsr import geometry
from cloudsr.errors import CloudSRError
from cloudsr.geometry import (
    COORD_LIMIT,
    DEDUPE_TOL,
    PointCloud3,
    SpatialIndex,
    bin_downsample,
    binned_centroids,
    dedupe_rows,
    drop_closest,
    normalize_to_unit,
)

from oracles import (brute_drop_closest, flat_knn, lexsort_voxel_bin_count, linear_knn,
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
    with pytest.raises(CloudSRError, match="cannot index an empty point set"):
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
    with pytest.raises(CloudSRError, match="k=2 exceeds point count 1"):
        idx.knn_batch(np.array([[0.0, 0.0]]), 2)
    with pytest.raises(CloudSRError, match="k must be at least 1"):
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
    """Records the width and row count of every query passed to the wrapped
    tree."""

    def __init__(self, tree):
        self.tree, self.widths, self.rows = tree, [], []

    def query(self, x, k):
        self.widths.append(k)
        self.rows.append(len(x))
        return self.tree.query(x, k=k)


def _counted(pts):
    idx = SpatialIndex(pts)
    idx._tree = _CountingTree(idx._tree)
    return idx


@pytest.mark.parametrize("k,width", [(1, 2), (2, 4), (5, 7), (20, 22)])
def test_generic_queries_ask_the_tree_for_one_width(k, width):
    # in general position every row settles in the first round: a nearest
    # query asks for 2 rows, a k-nearest one for k + 2
    rng = np.random.default_rng(20)
    pts, queries = rng.uniform(-1, 1, size=(300, 3)), rng.uniform(-1, 1, size=(60, 3))
    idx = _counted(pts)
    got = idx.nearest_batch(queries) if k == 1 else idx.knn_batch(queries, k)
    assert idx._tree.widths == [width] and idx._tree.rows == [60]
    want = flat_knn(pts, queries, k)
    assert got[1].tobytes() == want[1].reshape(got[1].shape).tobytes()


def _settle_round(group, n):
    """The tree round (1-based) in which a nearest query settles when
    `group` of the n points tie for nearest: the first of widths 2, 5, 11,
    23, ... that holds a point beyond the group, or every point."""
    width, rounds = min(n, 2), 1
    while width <= group and width < n:
        width, rounds = min(n, 2 * width + 1), rounds + 1
    return rounds


@st.composite
def _nearest_cases(draw):
    """(points, queries, rounds) for nearest queries.

    Lattice cases: a full 2D or 3D integer lattice, each point repeated up
    to three times in shuffled order, in units of a power of two from 2^-500
    up to 2^496 (coordinates near COORD_LIMIT), so every squared distance is
    exact.  Each query sits near a lattice point (one nearest point), on an
    edge midpoint (two tie), a face centre (four) or a 3D cell centre
    (eight), and `rounds` holds the round each row settles in.  Random
    cases: uniform rows with duplicates, at unit scale or near COORD_LIMIT,
    and uniform queries; their `rounds` is None."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 3]))
    copies = draw(st.sampled_from([1, 1, 2, 3]))
    m = draw(st.integers(1, 30))
    if draw(st.sampled_from(["lattice", "lattice", "random"])) == "random":
        base = rng.uniform(-1, 1, size=(draw(st.integers(1, 40)), dim))
        pts = np.repeat(base, copies, axis=0)[rng.permutation(base.shape[0] * copies)]
        scale = draw(st.sampled_from([1.0, COORD_LIMIT]))
        return pts * scale, rng.uniform(-1, 1, size=(m, dim)) * scale, None
    sizes = np.array([draw(st.integers(2, 5)) for _ in range(dim)])
    unit = draw(st.sampled_from([2.0**-500, 2.0**-20, 1.0, 2.0**40, 2.0**496]))
    shift = draw(st.sampled_from([0, -3] if unit == 2.0**496 else [0, -3, 2**30]))
    grid = np.stack(np.meshgrid(*map(np.arange, sizes), indexing="ij"), axis=-1).reshape(-1, dim)
    pts = np.repeat(grid, copies, axis=0)[rng.permutation(grid.shape[0] * copies)]
    corner = rng.integers(0, sizes - 1, size=(m, dim))
    halves = rng.integers(0, dim + 1, size=m)  # axes each query sits halfway along
    frac = np.where(rng.random((m, dim)) < 0.5, 0.0, 0.25)
    for row, h in enumerate(halves):
        frac[row, rng.permutation(dim)[:h]] = 0.5
    queries = corner + frac
    rounds = [_settle_round(copies * 2**int(h), pts.shape[0]) for h in halves]
    return (pts + shift) * unit, (queries + shift) * unit, rounds


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_nearest_cases())
def test_nearest_batch_settles_each_tie_in_its_round(case):
    pts, queries, rounds = case
    assert np.all(np.abs(pts) <= COORD_LIMIT) and np.all(np.abs(queries) <= COORD_LIMIT)
    idx = _counted(pts)
    got = idx.nearest_batch(queries)
    want = flat_knn(pts, queries, 1)
    assert got[0].tolist() == want[0][:, 0].tolist()
    assert got[1].tobytes() == want[1][:, 0].tobytes()
    if rounds is not None:
        # round r queries the rows that settle in round r or later
        assert idx._tree.rows == [sum(r >= i for r in rounds)
                                  for i in range(1, max(rounds) + 1)]


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
    idx = _counted(pts)
    got = idx.knn_batch(queries, k)
    want = flat_knn(pts, queries, k)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert len(idx._tree.widths) > 1 and idx._tree.widths[-1] > idx._tree.widths[0]


@pytest.mark.parametrize("kind", ["two-points", "few-points", "lattice"])
@pytest.mark.parametrize("k", [1, 3, 40])
def test_tie_groups_match_flat_knn(kind, k):
    # every row's nearest points tie with tens to hundreds of others, so the
    # widths grow over several rounds, and the result is still the flat
    # scan's
    rng = np.random.default_rng(len(kind) + k)
    if kind == "lattice":
        grid = np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"), axis=-1)
        base = grid.reshape(-1, 2).astype(float)
    else:
        base = rng.normal(size=(2 if kind == "two-points" else 5, 3))
    pts = base[rng.integers(0, base.shape[0], 600)]
    queries = np.vstack([pts[:50], base + 0.25])
    idx = _counted(pts)
    got = idx.knn_batch(queries, k)
    want = flat_knn(pts, queries, k)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert len(idx._tree.widths) > 1


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


def test_nearest_settles_only_below_the_padded_last_candidate():
    # the nearest candidate's squared distance, 1, equals the second's
    # padded down exactly; the tree reads point 0, which ties with it, as
    # farther than both.  A row whose nearest is not strictly below the
    # padded last candidate is not settled, so the next round finds point 0
    far = 1 + 2.0**-52 * 0x8CC  # 0x1.00000000008ccp+0
    assert geometry._pad_down(far * far) == 1.0
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [far, 0.0], [3.0, 0], [0, 3.0], [-3.0, 0]])
    idx = SpatialIndex(pts)
    idx._tree = _SkewedTree(pts, 0, 2.0**-30)
    got = idx.nearest_batch(np.zeros((1, 2)))
    assert got[0].tolist() == [0] and got[1].tolist() == [1.0]


class _SwappingTree:
    """Answers as the wrapped tree, except that in the rows of a batch at
    the positions `rows` picks it returns each run of tied or near-tied
    candidates (tree distances within a relative 2^-40) in descending index
    order, as a tree's heap may leave them.  Counts the rows it changed."""

    def __init__(self, tree, rows):
        self.tree, self.pick, self.changed = tree, rows, 0

    def query(self, x, k):
        dist, cand = self.tree.query(x, k=k)
        dist, cand = dist.reshape(len(x), k), cand.reshape(len(x), k).copy()
        for r in range(len(x))[self.pick]:
            runs = np.cumsum(np.r_[0, dist[r, 1:] > dist[r, :-1] * (1 + 2.0**-40)])
            order = np.lexsort((-cand[r], runs))
            self.changed += bool(np.any(order != np.arange(k)))
            dist[r], cand[r] = dist[r, order], cand[r, order]
        return dist, cand


@pytest.mark.parametrize("rows", [slice(None, None, 2), slice(1, None, 3)], ids=["even", "every-third"])
@pytest.mark.parametrize("k", [1, 4, 9])
def test_rank_resorts_the_rows_the_tree_returned_out_of_order(rows, k):
    # three copies of each point of a 4 x 4 x 3 lattice, shuffled, some
    # nudged by 2^-44 so their distances near-tie; queries on, between and
    # off the points, so ties are common
    rng = np.random.default_rng(k)
    grid = np.stack(np.meshgrid(np.arange(4), np.arange(4), np.arange(3), indexing="ij"), axis=-1)
    pts = np.repeat(grid.reshape(-1, 3).astype(float), 3, axis=0)[rng.permutation(144)]
    pts[rng.random(144) < 0.3] += 2.0**-44
    queries = np.vstack([pts[:40], rng.integers(0, 7, size=(40, 3)) / 2.0,
                         rng.uniform(0, 3, size=(40, 3))])
    idx = SpatialIndex(pts)
    idx._tree = _SwappingTree(idx._tree, rows)
    got = idx.knn_batch(queries, k)
    want = flat_knn(pts, queries, k)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    assert idx._tree.changed > 0


class _RecordingTree:
    """Records a copy of every query batch passed to the wrapped tree."""

    def __init__(self, tree):
        self.tree, self.batches = tree, []

    def query(self, x, k):
        self.batches.append((k, np.array(x)))
        return self.tree.query(x, k=k)


@pytest.mark.parametrize("k", [1, 3])
def test_first_round_blocks_retry_rows_at_their_offset(k):
    # a first round of one block and a little more.  Rows near the ten
    # copies of one far point tie among them and are retried: three in the
    # first block, the rest in the second, at their offset there
    width = 2 if k == 1 else k + geometry._RANK_SLACK
    step = geometry._RANK_BLOCK // width
    rng = np.random.default_rng(30 + k)
    pts = np.vstack([rng.uniform(-1, 1, size=(30, 2)), np.full((10, 2), 10.0)])
    pts = pts[rng.permutation(40)]
    queries = rng.uniform(-1, 1, size=(step + 60, 2))
    tied = np.r_[5, 17, step - 1, step + rng.choice(60, 12, replace=False)]
    queries[tied] = 10.0 + rng.uniform(-0.5, 0.5, size=(tied.size, 2))
    idx = SpatialIndex(pts)
    idx._tree = _RecordingTree(idx._tree)
    got = idx.knn_batch(queries, k)
    want = flat_knn(pts, queries, k)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    batches = idx._tree.batches
    assert [(w, len(x)) for w, x in batches[:2]] == [(width, step), (width, 60)]
    assert batches[2][1].tobytes() == queries[np.sort(tied)].tobytes()


@pytest.mark.parametrize("k", [1, 3])
def test_retry_rounds_block_the_rows_the_last_round_left_open(monkeypatch, k):
    # each query sits on a cluster of c copies of one point, and every
    # round of width c or less leaves it open: clusters of k copies settle
    # at the first width w, of w and 2w at 2w + 1, and of 2w + 1 and 4w + 2
    # at 4w + 3.  A block of 200 candidate entries holds 200 // width rows,
    # so each round spans several blocks
    monkeypatch.setattr(geometry, "_RANK_BLOCK", 200)
    w = 2 if k == 1 else k + geometry._RANK_SLACK
    widths = [w, 2 * w + 1, 4 * w + 3]
    sizes = np.tile([k, w, 2 * w, 2 * w + 1, 4 * w + 2], 6)
    rng = np.random.default_rng(50 + k)
    centres = rng.uniform(-1, 1, size=(sizes.size, 3))
    pts = np.repeat(centres, sizes, axis=0)[rng.permutation(sizes.sum())]
    pick = rng.permutation(np.repeat(np.arange(sizes.size), 5))
    queries, copies = centres[pick], sizes[pick]
    idx = SpatialIndex(pts)
    idx._tree = _RecordingTree(idx._tree)
    got = idx.knn_batch(queries, k)
    want = flat_knn(pts, queries, k)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()
    # each round queries, in order and block by block, exactly the rows
    # the round before left open
    blocks = []
    for r, width in enumerate(widths):
        rows = queries[copies >= widths[r - 1]] if r else queries
        step = 200 // width
        blocks.append([(width, rows[lo:lo + step].tobytes()) for lo in range(0, len(rows), step)])
    assert all(len(round_blocks) > 1 for round_blocks in blocks)
    assert [(width, x.tobytes()) for width, x in idx._tree.batches] == sum(blocks, [])


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
    centroids, edge = _bisect_64_steps(pts, 100)
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
    with pytest.raises(CloudSRError, match="target_count must be positive"):
        bin_downsample(cloud, 0)
    with pytest.raises(CloudSRError, match="target_count 2 exceeds cloud size 1"):
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
            want_c, _ = _bisect_64_steps(pts, target)
            assert binned_centroids(pts, target).tobytes() == want_c.tobytes()

    # a unit-size cloud resolves its edge to adjacent floats in 57-61 steps
    # and stops there (one far below its extent may need all 64).  A full
    # count is a `_distinct` call of `binned_centroids` itself; those of
    # `_moving_count` are not counted
    counts, moving = [], []
    real = geometry._distinct

    def distinct(keys, cells, **kwargs):
        caller = sys._getframe(1).f_code
        (counts if caller is geometry.binned_centroids.__code__ else moving).append(1)
        return real(keys, cells, **kwargs)

    monkeypatch.setattr(geometry, "_distinct", distinct)
    binned_centroids(_downsample_clouds()[0], 100)
    assert 1 <= len(counts) <= 1 + 61 and moving


def test_voxel_counts_take_the_lexsort_fallback_at_most_once(monkeypatch):
    # on a unit-size cloud only the first probe, at the smallest separating
    # edge, has a grid of 2^63 cells or more; every other key is folded.
    # Inside `binned_centroids` only the rank keys call `np.lexsort`.  Once
    # the bracket is narrow, the counts key only the rows that still move
    ranked, made, moving = [], [], []
    real_lexsort, real_moving, real_keys = np.lexsort, geometry._moving_count, geometry._voxel_keys
    monkeypatch.setattr(np, "lexsort", lambda *args: ranked.append(1) or real_lexsort(*args))

    def moving_count(*args):
        count = real_moving(*args)
        made.append(count.__code__)
        return count

    def voxel_keys(rel, edge, spans):
        if sys._getframe(1).f_code in made:  # the rows a moving count keys
            moving.append(rel.shape[0])
        return real_keys(rel, edge, spans)

    monkeypatch.setattr(geometry, "_moving_count", moving_count)
    monkeypatch.setattr(geometry, "_voxel_keys", voxel_keys)
    binned_centroids(_downsample_clouds()[0], 100)
    assert len(ranked) <= 1
    # the moving set is built once; most of the ~60 steps count on its
    # rows, and those are few
    assert len(made) == 1
    assert len(moving) > 30 and max(moving) < 500 and moving[-1] < 10


def test_moving_counts_equal_full_counts(monkeypatch):
    # every count of the moving set equals the distinct-key count of all
    # rows at that edge, keyed with the same spans
    built, checked, real = [], [], geometry._moving_count

    def moving_count(rel, lo, hi, spans):
        count = real(rel, lo, hi, spans)
        built.append(1)

        def checked_count(edge):
            full = geometry._distinct(geometry._voxel_keys(rel, edge, spans), math.prod(spans),
                                      count=True)
            checked.append((count(edge), full))
            return checked[-1][0]
        return checked_count

    monkeypatch.setattr(geometry, "_moving_count", moving_count)
    for pts in _downsample_clouds():
        n = pts.shape[0]
        for target in sorted({1, 2, 3, min(13, n), min(49, n), min(100, n)}):
            binned_centroids(pts, target)
    assert len(checked) > 1000 and all(got == full for got, full in checked)

    # every row of an integer lattice with a coordinate of 1 or more
    # crosses into the next voxel down together just above edge 1 (the full
    # 10^3 lattice's count falls from 1000 to 729), so a target between
    # overshoots: the bisection brackets edge 1 and most rows move.  A far
    # row keeps the grid above the target there, so the counts decide
    rng = np.random.default_rng(11)
    lattice = np.stack(np.meshgrid(*[np.arange(10.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    for rows in (lattice, lattice[rng.random(1000) < 0.6], lattice[rng.permutation(1000)]):
        pts = np.vstack([rows, [30.5, 30.5, 30.5]])
        n = pts.shape[0]
        for target in (n - 1, 800) if n == 1001 else (n - 1,):
            checked.clear()
            out = binned_centroids(pts, target)
            assert out.shape[0] == n > target  # edge 1: every row its own voxel
            assert out.tobytes() == _bisect_64_steps(pts, target)[0].tobytes()
            assert len(checked) > 30 and all(got == full for got, full in checked)
            fulls = [full for _, full in checked]
            assert min(fulls) < target and max(fulls) == n

    # the span-limit clouds bracket a grid of 2^63 cells at lo, which
    # cannot fold, so they never build the set
    built.clear()
    for seed in range(5):
        pts = _span_limit_cloud(np.random.default_rng(seed), 40)
        binned_centroids(pts, np.unique(pts, axis=0).shape[0])
    assert not built


def _grid_corner_cloud(spans, rng):
    """Integer rows in [0, span) per axis holding both grid corners, so edge
    1.0 at origin 0 gives exactly these spans."""
    spans = np.array(spans, dtype=np.float64)
    inner = np.floor(rng.uniform(0, 1, size=(40, spans.size)) * spans)
    return np.vstack([np.zeros(spans.size), spans - 1, inner, inner[:5]])


def _span_limit_cloud(rng, n):
    """Integer rows whose last bisection brackets hold edge 1.0, where the
    grid is 2^21 * 2^21 * 2^21 cells, and the next float above it, where it
    is one column of 2^42 cells fewer: the rows (0, 0, 0) and (1, 0, 0)
    share a voxel at every edge above 1, and no two rows do at or below."""
    far = 2**21 - 1
    inner = rng.integers(0, far, size=(n, 3)).astype(np.float64)
    return np.vstack([[0, 0, 0], [1, 0, 0], [far, far + 0.5, far + 0.5], inner])


@st.composite
def _voxel_cases(draw):
    """(points, origin, edge): uniform, integer-lattice, planar, 2-column,
    subnormal-gap, signed-zero-key and grid-corner clouds, edges drawn from
    the smallest separating edge up to the extent, and clouds whose rows
    all sit in the top cell of a 4 x 4 x 4 grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 150))
    kind = draw(st.sampled_from(["uniform", "lattice", "planar", "two-column", "subnormal",
                                 "signed-zero", "grid-corner", "span-limit", "one-cell"]))
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
    elif kind == "span-limit":
        pts = _span_limit_cloud(rng, n)
    elif kind == "one-cell":
        # exact binary fractions: every row is 3 to 3.5 edges from the origin
        return 5.0 + rng.integers(0, 512, size=(n, 3)) / 1024, np.full(3, 2.0), 1.0
    else:
        # the cloud's 47 rows span 64 x 47 cells, 64 per row (the most
        # `_distinct` marks a bitmap for), and 51 x 59, one cell more
        spans = draw(st.sampled_from([(2**32, 2**31 - 1), (2**32, 2**31), (2**21, 2**21, 2**21 - 1),
                                      (2**21, 2**21, 2**21), (3, 2**61), (4, 2**61), (1e200, 1e200, 1e200),
                                      (64, 47), (51, 59)]))
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


@st.composite
def _bisection_cases(draw):
    """(points, target): the `_voxel_cases` clouds with targets from 1 to
    one past the row count, and more often the distinct row count, which
    resolves the edge to the rows' smallest separation."""
    pts, _, _ = draw(_voxel_cases())
    # PointCloud3 bounds what reaches the bisection: past it the extent's
    # norm, the initial upper edge, overflows
    assume(np.all(np.abs(pts) <= COORD_LIMIT))
    distinct = np.unique(pts, axis=0).shape[0]
    target = draw(st.one_of(st.integers(1, pts.shape[0] + 1), st.just(distinct)))
    return pts, target


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_bisection_cases())
def test_binned_centroids_match_the_64_step_oracle(case):
    pts, target = case
    want, _ = _bisect_64_steps(pts, target)
    assert binned_centroids(pts, target).tobytes() == want.tobytes()


def test_bisection_never_folds_with_the_spans_at_hi(monkeypatch):
    # the bisection brackets edge 1.0 from here on, so every late bracket
    # holds 2^63 cells at lo and fewer at hi, where keys folded with hi's
    # spans would collide at edges below hi
    made, real = [], geometry._moving_count
    monkeypatch.setattr(geometry, "_moving_count", lambda *args: made.append(1) or real(*args))
    pts = _span_limit_cloud(np.random.default_rng(5), 40)
    extent = pts.max(axis=0) - pts.min(axis=0)
    assert geometry._voxel_spans(extent, 1.0) == [2**21] * 3
    assert geometry._voxel_spans(extent, np.nextafter(1.0, 2.0)) == [2**21 - 1, 2**21, 2**21]
    target = np.unique(pts, axis=0).shape[0]
    want, edge = _bisect_64_steps(pts, target)
    assert 1.0 - 1e-12 < edge <= 1.0
    assert binned_centroids(pts, target).tobytes() == want.tobytes()
    assert not made


def _assert_distinct_matches_unique(keys, cells):
    """Each `_distinct` mode gives what `np.unique` gives, dtype included."""
    want, want_inverse = np.unique(keys, return_inverse=True)
    got = geometry._distinct(keys, cells)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert geometry._distinct(keys, cells, count=True) == want.size
    got, inverse = geometry._distinct(keys, cells, inverse=True)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.tolist()


def _assert_voxels_match_oracles(pts, origin, edge):
    # both `_distinct` paths, forced through its cells per key: the sort
    # (0) for every grid, the bitmap (cells) for a grid that fits in memory,
    # and between them the path the module's own bound picks
    rel = pts - origin
    spans = geometry._voxel_spans(rel.max(axis=0), edge)
    keys = geometry._voxel_keys(rel, edge, spans)
    cells = math.prod(spans)
    count = lexsort_voxel_bin_count(pts, origin, edge)
    centroids = unique_voxel_centroids(pts, origin, edge).tobytes()
    for per_key in [0, geometry._BITMAP_CELLS_PER_KEY] + ([cells] if cells <= 1 << 24 else []):
        with mock.patch.object(geometry, "_BITMAP_CELLS_PER_KEY", per_key):
            _assert_distinct_matches_unique(keys, cells)
            assert geometry._distinct(keys, cells, count=True) == count
            got = geometry._voxel_centroids(pts, rel, edge, spans)
            assert got.tobytes() == centroids
    assert dedupe_rows(pts).tolist() == unique_dedupe_rows(pts).tolist()


@pytest.mark.parametrize("kind", ["at-bound", "past-bound", "one-cell"])
def test_distinct_takes_the_bitmap_up_to_its_cells_per_key(monkeypatch, kind):
    # 50 keys in a grid of exactly 64 cells per key take the bitmap, and in
    # one of a cell more the sort; both hold keys 0 and cells - 1.  Keys
    # that all sit in the top cell take the bitmap too
    rows = 50
    cells = geometry._BITMAP_CELLS_PER_KEY * rows + (kind == "past-bound")
    if kind == "one-cell":
        keys = np.full(rows, cells - 1)
    else:
        keys = np.random.default_rng(1).integers(0, cells, rows)
        keys[:2] = [0, cells - 1]
    sorts, real_sort = [], np.sort

    def sort(*args, **kwargs):
        if sys._getframe(1).f_code is geometry._distinct.__code__:
            sorts.append(1)
        return real_sort(*args, **kwargs)

    monkeypatch.setattr(np, "sort", sort)
    _assert_distinct_matches_unique(keys, cells)
    assert bool(sorts) == (kind == "past-bound")


@pytest.mark.parametrize("scale", [1.0, COORD_LIMIT])
def test_voxel_centroids_add_in_input_order(scale):
    # signed zeros, and rows whose sums cancel or round differently in any
    # other order: +-scale beside 1 and 1e-300 in the same voxel
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, scale, -scale, scale / 3, 1.0, -1.0, 1e-300])
    for _ in range(300):
        pts = rng.choice(special, size=(int(rng.integers(1, 40)), 3))
        origin = pts.min(axis=0)
        extent = float((pts.max(axis=0) - origin).max()) or 1.0
        edge = extent * rng.choice([0.1, 0.4, 2.0])  # 2.0: one voxel holds every row
        _assert_voxels_match_oracles(pts, origin, edge)


def _assert_cell_keys(cells, spans, count, dtype):
    """`_cell_keys` gives `count` keys of `dtype` that, read most significant
    first, group and order the rows as `np.unique(axis=0)` does."""
    keys = geometry._cell_keys(cells, spans)
    assert len(keys) == count
    assert all(k.dtype == dtype and k.shape == (cells.shape[0],) for k in keys)
    _, want = np.unique(cells, axis=0, return_inverse=True)
    _, got = np.unique(np.stack(keys[::-1], axis=1), axis=0, return_inverse=True)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("spans,keys", [
    ((2**32, 2**31 - 1), 1), ((2**32, 2**31), 2),
    ((2**21, 2**21, 2**21 - 1), 1), ((2**21, 2**21, 2**21), 2),
    ((1e200, 1e200, 1e200), 3),
], ids=["2col-below", "2col-at", "3col-below", "3col-at", "float-overflow"])
def test_fold_switches_to_lexsort_at_two_to_the_63(spans, keys):
    # below 2^63 cells `_cell_keys` folds every column into the one key
    # (k0*s1 + k1)*s2 + k2, and that is the voxel key; at 2^63 or more it
    # leaves a key per column after the fold (the float columns past the
    # int64 cast), and the voxel key is each row's rank among the distinct
    # rows
    pts = _grid_corner_cloud(spans, np.random.default_rng(1))
    given = [int(s) for s in spans]
    _assert_cell_keys(pts, given, keys, np.float64 if spans[0] > 2**63 else np.int64)
    voxel_keys = geometry._voxel_keys(pts, 1.0, geometry._voxel_spans(pts.max(axis=0), 1.0))
    if keys == 1:
        folded = pts[:, 0].astype(np.int64)
        for d in range(1, pts.shape[1]):
            folded = folded * int(spans[d]) + pts[:, d].astype(np.int64)
        assert voxel_keys.tolist() == folded.tolist()
    else:
        assert voxel_keys.tolist() == np.unique(pts, axis=0, return_inverse=True)[1].tolist()
    _assert_voxels_match_oracles(pts, np.zeros(pts.shape[1]), 1.0)


def _snapped_grid(spans, rng):
    """A `_grid_corner_cloud` whose rows snap to exactly its integer rows."""
    return _grid_corner_cloud(spans, rng) * DEDUPE_TOL


@st.composite
def _dedupe_cases(draw):
    """Hull pixels (2 columns, with exact and sub-pitch duplicates), small
    integer lattices at the grid pitch, rows near COORD_LIMIT and near the
    int64 cast limit (the float fallback), and grids whose first two
    snapped spans multiply to just under or at 2^63."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(["pixels", "lattice", "coord-limit", "cast-limit", "fold-limit"]))
    if kind == "lattice":
        # a few cells per axis: rows in neighbouring cells are common, so a
        # fold that maps two cells to one key shows
        pts = rng.integers(-2, draw(st.integers(-1, 4)), size=(n, draw(st.sampled_from([2, 3]))))
        pts = pts * DEDUPE_TOL
    elif kind == "pixels":
        pts = rng.uniform(0, 640, size=(n, 2))
        pts = np.vstack([pts, pts[rng.integers(0, n, size=n // 2)]])
        pts[rng.random(pts.shape[0]) < 0.3] += rng.uniform(-0.4, 0.4, size=2) * DEDUPE_TOL
    elif kind == "coord-limit":
        pts = rng.integers(-3, 4, size=(n, 3)) * (COORD_LIMIT / 3)
    elif kind == "cast-limit":
        # snapped values a few ulps inside, or also outside, +-2^63
        limit = draw(st.sampled_from([-1.0, 1.0])) * 2.0**63 * DEDUPE_TOL
        ulps = rng.integers(-4, draw(st.sampled_from([0, 4])), size=(n, draw(st.sampled_from([2, 3]))))
        pts = limit * (1 + ulps * 2.0**-52)
    else:
        spans = draw(st.sampled_from([(2**32, 2**31 - 1), (2**32, 2**31), (2**32, 2**31 - 1, 5),
                                      (2**32, 2**31, 5), (3, 2**61), (4, 2**61)]))
        pts = _snapped_grid(spans, rng)
    return pts[rng.permutation(pts.shape[0])]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_dedupe_cases())
def test_dedupe_rows_matches_the_unique_oracle(pts):
    assert dedupe_rows(pts).tolist() == unique_dedupe_rows(pts).tolist()


def _cell_key_rows(case, rng):
    """Rows for the dedupe key test: a `_snapped_grid` of the spans `case`,
    or rows of a named kind."""
    if isinstance(case, tuple):
        return _snapped_grid(case, rng)
    if case == "pixels":  # hull pixels: spans ~6.4e11 each, too many to fold
        pts = rng.uniform(0, 640, size=(60, 2))
        return np.vstack([pts, pts[:20]])
    if case == "unit-3d":  # densify rows: two columns fold, the third is cast
        pts = rng.uniform(-1, 1, size=(60, 3))
        return np.vstack([pts, pts[:20]])
    if case == "lattice":  # every column folds
        return rng.integers(-3, 4, size=(60, 3)) * DEDUPE_TOL
    if case.startswith("at-"):
        # a snapped -2^63 casts and +2^63 does not; 2048 cells inside, both do
        limit = 2.0**63 if case == "at-plus-2-63" else -2.0**63
        cells = rng.choice([limit, limit - np.sign(limit) * 2048, 0.0, 1e9], size=(60, 3))
    else:
        # both columns fold, but only once shifted to start at 0 in int64:
        # unshifted, 2^62 times a span of 2 wraps past 2^63; shifted in
        # floats, 2^60 and 2^60 + 256 less -2^60 round to one value
        wide = [2.0**62 - 1024, 2.0**62] if case == "wrap" else [-2.0**60, 2.0**60, 2.0**60 + 256]
        cols = [rng.choice(wide, 60), rng.choice([0.0, 1.0], 60)]
        cells = np.stack(cols[::-1] if case == "float-shift-1" else cols, axis=1)
    pts = cells * DEDUPE_TOL
    assert np.array_equal(np.round(pts / DEDUPE_TOL), cells)
    return pts


@pytest.mark.parametrize("case,keys,dtype", [
    ((2**32, 2**31 - 1), 1, np.int64), ((2**32, 2**31), 2, np.int64),
    ((2**32, 2**31 - 1, 5), 2, np.int64), ((2**32, 2**31, 5), 3, np.int64),
    ("pixels", 2, np.int64), ("unit-3d", 2, np.int64), ("lattice", 1, np.int64),
    ("at-minus-2-63", 3, np.int64), ("at-plus-2-63", 3, np.float64),
    ("wrap", 1, np.int64), ("float-shift-0", 1, np.int64), ("float-shift-1", 1, np.int64),
], ids=["2col-below", "2col-at", "3col-below", "3col-at", "pixels", "unit-3d", "lattice",
        "at-minus-2-63", "at-plus-2-63", "wrap", "float-shift-0", "float-shift-1"])
def test_dedupe_folds_two_columns_below_two_to_the_63(case, keys, dtype):
    # with the snapped rows' own spans, the leading columns fold into one
    # int64 key while their grid has fewer than 2^63 cells, and each later
    # column follows as its int64 cast; a value that does not cast leaves
    # the float columns
    pts = _cell_key_rows(case, np.random.default_rng(2))
    snapped = np.round(pts / DEDUPE_TOL)
    if isinstance(case, tuple):
        assert [int(v) for v in snapped.max(axis=0) - snapped.min(axis=0) + 1] == list(case)
    _assert_cell_keys(snapped, None, keys, dtype)
    assert dedupe_rows(pts).tolist() == unique_dedupe_rows(pts).tolist()


def test_cell_keys_read_given_spans_without_a_pass():
    # given spans bound indices from 0; a span of 2^63 still casts (its top
    # index is 2^63 - 1), one past it does not.  `_moving_count` keys zero
    # rows with given spans, which take no min or max
    rows = np.array([[0.0, 2.0], [5.0, 0.0], [0.0, 2.0], [2.0**62, 1.0]])
    _assert_cell_keys(rows, [2**63, 3], 2, np.int64)
    _assert_cell_keys(rows, [2**63 + 1, 3], 2, np.float64)
    _assert_cell_keys(rows[:, 1:], [3], 1, np.int64)
    for spans, count, dtype in [([4, 5, 6], 1, np.int64), ([2**30] * 3, 2, np.int64),
                                ([2**64] * 3, 3, np.float64)]:
        keys = geometry._cell_keys(np.empty((0, 3)), spans)
        assert [(k.dtype, k.shape) for k in keys] == [(np.dtype(dtype), (0,))] * count
        assert geometry._voxel_keys(np.empty((0, 3)), 1.0, spans).shape == (0,)


def test_bisection_target_one_keeps_the_rounded_up_edge():
    # the last midpoint rounds up onto the initial upper edge, where the one
    # bin that holds every row sits; stopping before counting it would keep
    # the edge one ulp lower, where the far row falls into a second bin
    pts = np.array([[0.0, 0, 0], [2 * np.spacing(0.5578467243498518), 0, 0],
                    [0.5578467243498518, 0, 0]])
    centroids = binned_centroids(pts, 1)
    assert centroids.shape == (1, 3)
    assert bin_downsample(PointCloud3(pts), 1).points.tobytes() == centroids.tobytes()


def test_downsample_exact_hit_keeps_voxel_key_order():
    # when the bisection hits the target the centroids are the output, byte
    # for byte; an overshoot is trimmed, keeping voxel-key order.  Normal
    # clouds hit the target; integer lattices, whose voxel counts jump,
    # overshoot it
    rng = np.random.default_rng(3)
    hits = trims = 0
    for trial in range(30):
        if trial % 2:
            side = int(rng.integers(4, 9))
            grid = np.stack(np.meshgrid(*[np.arange(float(side))] * 3), axis=-1).reshape(-1, 3)
            pts = grid[rng.permutation(len(grid))[:int(rng.integers(len(grid) // 2, len(grid)))]]
        else:
            pts = rng.normal(size=(int(rng.integers(20, 300)), 3))
        target = int(rng.integers(1, pts.shape[0]))
        centroids = binned_centroids(pts, target)
        got = bin_downsample(PointCloud3(pts), target).points
        if centroids.shape[0] == target:
            hits += 1
            assert got.tobytes() == centroids.tobytes()
        else:
            trims += 1
            want = centroids[brute_drop_closest(centroids, target)]
            assert got.tobytes() == want.tobytes()
    assert hits >= 10 and trims >= 10


def test_downsample_fewer_distinct_rows_cycles_the_centroids():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(5, 3))[rng.integers(0, 5, 40)]
    centroids = binned_centroids(pts, 12)
    assert centroids.shape[0] == 5
    got = bin_downsample(PointCloud3(pts), 12).points
    assert got.tobytes() == np.resize(centroids, (12, 3)).tobytes()


# -- drop_closest -------------------------------------------------------------


@st.composite
def _trim_clouds(draw):
    """(points, m): 2D and 3D integer lattices (equal-distance ties and
    repeated rows), rows drawn with repeats from a few base rows (so a row
    can have lower-index duplicates), and uniform clouds, at scales from
    1e-3 to 1e5, trimmed by 1 up to n - 2 rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 120))
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["lattice", "repeated", "uniform"]))
    if kind == "lattice":
        pts = rng.integers(0, draw(st.integers(2, 8)), size=(n, dim)).astype(float)
    elif kind == "repeated":
        base = rng.normal(size=(draw(st.integers(2, 12)), dim))
        pts = base[rng.integers(0, base.shape[0], n)]
    else:
        pts = rng.uniform(-1, 1, size=(n, dim))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    return pts * scale, draw(st.integers(2, n - 1))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_trim_clouds())
def test_drop_closest_matches_brute_oracle(case):
    pts, m = case
    assert drop_closest(pts, m).tolist() == brute_drop_closest(pts, m).tolist()


def test_drop_closest_takes_the_nearest_other_row_past_a_duplicate():
    # row 1 repeats row 0, so column 1 of its 2 nearest rows is itself
    pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [3.0, 0, 0], [3.5, 0, 0], [9.0, 0, 0]])
    idx, _ = SpatialIndex(pts).knn_batch(pts[1:2], 2)
    assert idx[0].tolist() == [0, 1]
    for m in range(1, 5):
        assert drop_closest(pts, m).tolist() == brute_drop_closest(pts, m).tolist()
    assert drop_closest(pts, 3).tolist() == [0, 2, 4]


def _jittered_lattice(n, rng):
    side = int(round(n ** (1 / 3))) + 1
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3), axis=-1).reshape(-1, 3)[:n]
    return grid + rng.normal(scale=0.05, size=grid.shape), grid * 0.01


@pytest.mark.parametrize("n,m", [(2, 1), (300, 2), (2000, 1800)])
def test_drop_closest_matches_brute_oracle_at_size(n, m):
    # a jittered lattice (densify's centroids look like this) and pure ties
    for pts in _jittered_lattice(n, np.random.default_rng(n)):
        assert drop_closest(pts, m).tolist() == brute_drop_closest(pts, m).tolist()


@pytest.mark.parametrize("m", [2, 5, 31, 33, 103, 399])
def test_farthest_point_select_counts_off_the_batch_width(m):
    # named for the farthest-point selection that drop_closest replaced in
    # bin_downsample: the same clouds and counts (once around its batch
    # width of 32) now gate the trim against its oracle
    rng = np.random.default_rng(m)
    for pts in (rng.uniform(-1, 1, size=(400, 3)),
                rng.integers(0, 4, size=(400, 3)).astype(float)):
        assert drop_closest(pts, m).tolist() == brute_drop_closest(pts, m).tolist()


def _integer_ring(seed):
    """Several hundred integer rows, shuffled: a far row, 72 rows at exactly
    equal squared distance from it, and nearer filler."""
    far = np.array([[-1000.0, 0.0, 0.0]])
    n2 = 5**2 * 13**2 * 17  # 72 integer (y, z) with y^2 + z^2 == n2
    r = int(np.sqrt(n2))
    ring = np.array([(0.0, y, z) for y in range(-r, r + 1) for z in range(-r, r + 1)
                     if y * y + z * z == n2])
    rng = np.random.default_rng(seed)
    filler = np.column_stack([rng.integers(-900, -100, 300), rng.integers(-50, 51, (300, 2))])
    pts = np.concatenate([far, ring, filler.astype(float)])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("seed", [0, 1, 12, 17])
def test_drop_closest_matches_brute_oracle_on_an_integer_ring(seed):
    pts = _integer_ring(seed)
    for m in (len(pts) - 1, 200, 2):
        assert drop_closest(pts, m).tolist() == brute_drop_closest(pts, m).tolist()


def test_drop_closest_duplicate_heavy_cloud():
    # 300 copies of 6 rows: every duplicate goes first, then real pairs
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 3))[rng.integers(0, 6, 300)]
    for m in (6, 3):
        assert drop_closest(pts, m).tolist() == brute_drop_closest(pts, m).tolist()
    assert np.unique(pts[drop_closest(pts, 6)], axis=0).shape[0] == 6


def test_drop_closest_lattice_overshoot(monkeypatch):
    # a 30^3 grid at 70% bins to a 27^3 lattice of centroids, 783 over the
    # target, where each dropped row leaves its near-equidistant neighbours
    # stale
    grid = np.stack(np.meshgrid(*[np.arange(30.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centroids = binned_centroids(grid, 18900)
    assert centroids.shape[0] == 18900 + 783

    # the oracle's pair matrix does not fit this size: check a slab of it
    slab = centroids[:2000]
    assert drop_closest(slab, 1920).tolist() == brute_drop_closest(slab, 1920).tolist()

    calls = []
    knn_batch = SpatialIndex.knn_batch

    def counting(self, queries, k):
        calls.append(k)
        return knn_batch(self, queries, k)

    monkeypatch.setattr(SpatialIndex, "knn_batch", counting)
    keep = drop_closest(centroids, 18900)
    assert keep.size == 18900 and np.all(np.diff(keep) > 0)
    # one query ranks every row's 2 nearest; a stale row ranks its 8 nearest
    # once, and again only when all of them are gone
    assert calls[0] == 2 and len(calls) <= 2 * 783


# -- column bounds and normalize ---------------------------------------------


def test_column_bounds_equal_the_axis_0_reductions():
    # hull's edge grid, refine's step scale, the voxel origin and the cell
    # keys all take their per-column bounds from `column_bounds`.  Random
    # (N, 2) and (N, 3) arrays over many scales, integer lattices (float
    # and int64), constant columns and single rows
    rng = np.random.default_rng(11)
    cases = [rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9)
             for n in (2, 37, 24_000) for d in (2, 3)]
    cases += [rng.integers(-4, 5, size=(60, d)).astype(np.float64) for d in (2, 3)]
    cases += [rng.integers(-2**40, 2**40, size=(30, 3))]
    cases += [np.full((9, 3), 2.5), np.c_[rng.normal(size=20), np.full(20, -1.0)]]
    cases += [rng.normal(size=(1, d)) for d in (2, 3)]
    for a in cases:
        lo, hi = geometry.column_bounds(a)
        for got, want in ((lo, a.min(axis=0)), (hi, a.max(axis=0))):
            assert got.dtype == want.dtype and got.shape == want.shape == (a.shape[1],)
            assert got.tobytes() == want.tobytes()


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
