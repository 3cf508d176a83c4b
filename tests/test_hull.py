import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudsr import hull
from cloudsr.errors import HullFailed
from cloudsr.geometry import COORD_LIMIT, SpatialIndex
from cloudsr.hull import concave_hull, contains_all, polygon_is_simple

from oracles import (_segments_intersect, all_edges_crosses_any, brute_intersecting_pairs,
                     brute_points_in_polygon, brute_polygon_is_simple, full_width_walk,
                     monotone_chain)


def _signed_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


@pytest.mark.parametrize("pts", [
    [[0.0, 0], [1, 0], [np.nan, 1]],
    [[0.0, 0], [1, 0], [0, 1], [np.inf, 1]],
    [[0.0, 0], [1, 0], [0, 1], [-1e151, 1]],
], ids=["nan-n3", "inf-n4", "beyond-limit-n4"])
def test_non_finite_points_rejected_at_entry(pts):
    with pytest.raises(ValueError, match="hull point coordinates"):
        concave_hull(np.array(pts))


def test_duplicate_index_map_rejected_at_entry():
    pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]])
    for index_map in ([5, 6, 7, 5], [5, 6, 6, 7]):  # apart and adjacent
        with pytest.raises(ValueError, match="index_map entries must be distinct"):
            concave_hull(pts, index_map=index_map)


def test_triangle_input():
    poly = concave_hull(np.array([[0.0, 0], [4, 0], [0, 3]]), k=3)
    assert len(poly.vertices) == 3
    assert set(map(tuple, poly.vertices)) == {(0, 0), (4, 0), (0, 3)}
    assert _signed_area(poly.vertices) > 0  # CCW


def test_square_corners_k3():
    pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    poly = concave_hull(pts, k=3)
    assert len(poly.vertices) == 4
    assert set(map(tuple, poly.vertices)) == set(map(tuple, pts))
    assert polygon_is_simple(poly.vertices)
    assert _signed_area(poly.vertices) > 0


@pytest.mark.parametrize("k,k_used", [(3, 3), (8, 8)])
def test_lattice_walk_tie_order(k, k_used):
    # every step of the walk on a lattice meets exact distance ties, so the
    # lowest-index tie rule fixes the vertex order
    pts = np.array([[x, y] for y in range(4) for x in range(4)], dtype=float)
    poly = concave_hull(pts, k=k)
    assert poly.source_indices.tolist() == [0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4]
    assert poly.k_used == k_used


@pytest.mark.parametrize("side,degrees", [(20, 0.0), (30, 0.0), (40, 7.0)])
def test_lattice_hull_takes_one_walk(side, degrees):
    # up a lattice's first column the walk meets the start row again once
    # it may close; a closing edge back down that column would overlap the
    # hull's second edge, so the walk refuses it, goes on and closes a
    # simple polygon at the first k instead of escalating to n - 1
    t = np.radians(degrees)
    grid = np.array([[x, y] for y in range(side) for x in range(side)], dtype=float)
    pts = grid @ np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    poly = concave_hull(pts, k=20)
    assert poly.k_used == 20
    assert brute_polygon_is_simple(poly.vertices)
    assert all(brute_points_in_polygon(poly.vertices, pts))


def test_small_rotated_lattice_falls_back_to_the_convex_hull():
    # a 4 x 4 lattice rolled 3 degrees, built as the CI lattice is: at
    # k = 20 the only k tried is n - 1 = 15, its walk does not close a valid
    # hull, and the convex hull is returned
    c, s = math.cos(math.radians(3)), math.sin(math.radians(3))
    pts = np.array([[c * x - s * y, s * x + c * y] for y in range(4) for x in range(4)])
    poly = concave_hull(pts, k=20)
    assert poly.k_used == 15
    assert poly.source_indices.tolist() == [12, 8, 4, 0, 1, 3, 7, 11, 15]
    assert poly.source_indices.tolist() == hull.monotone_chain(pts)
    assert brute_polygon_is_simple(poly.vertices)
    assert _signed_area(poly.vertices) > 0
    assert all(brute_points_in_polygon(poly.vertices, pts))


def test_convex_position_equals_convex_hull():
    rng = np.random.default_rng(0)
    angles = np.sort(rng.uniform(0, 2 * np.pi, 200))
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    poly = concave_hull(pts, k=len(pts) - 1)
    want = {tuple(pts[i]) for i in monotone_chain(pts)}
    got = {tuple(v) for v in poly.vertices}
    assert got == want


def test_source_indices_follow_index_map():
    pts = np.array([[0.0, 0], [2, 0], [2, 2], [0, 2], [1, 1]])
    imap = np.array([10, 20, 30, 40, 50])
    poly = concave_hull(pts, index_map=imap, k=4)
    assert set(poly.source_indices) <= set(imap)
    # vertices correspond to their mapped sources
    lookup = {tuple(p): m for p, m in zip(pts, imap)}
    for v, s in zip(poly.vertices, poly.source_indices):
        assert lookup[tuple(v)] == s


def test_errors():
    with pytest.raises(HullFailed, match="need at least 3 distinct points, got 2"):
        concave_hull(np.array([[0.0, 0], [1, 1]]))
    with pytest.raises(HullFailed, match="need at least 3 distinct points, got 2"):
        concave_hull(np.array([[0.0, 0], [0, 0], [1e-12, 0], [1, 1]]))  # dupes
    with pytest.raises(HullFailed, match="all points are collinear"):
        concave_hull(np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]]))
    with pytest.raises(ValueError):
        concave_hull(np.array([[0.0, 0], [1, 0], [0, 1]]), k=2)


def test_polygon_is_simple_square_true():
    assert polygon_is_simple(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))


def test_polygon_is_simple_bowtie_false():
    assert not polygon_is_simple(np.array([[0.0, 0], [1, 1], [1, 0], [0, 1]]))


def test_polygon_is_simple_rejects_unbounded_vertices():
    # an extent past the float range would make the edge grid's cells NaN
    with pytest.raises(ValueError, match=r"within \+/-1e\+150"):
        polygon_is_simple([[-1e308, 0], [1e308, 0], [1e308, 1], [-1e308, 1]])


def test_polygon_is_simple_matches_pair_loop_random():
    rng = np.random.default_rng(21)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(3, 30))
        verts = rng.uniform(0, 10, size=(n, 2))
        if rng.random() < 0.5:  # star-shaped ordering: often simple
            c = verts.mean(axis=0)
            verts = verts[np.argsort(np.arctan2(*(verts - c).T[::-1]))]
        want = brute_polygon_is_simple(verts)
        assert polygon_is_simple(verts) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_polygon_is_simple_matches_pair_loop_lattice():
    # small integer grids force touching vertices, collinear overlapping
    # edges and repeated vertices, where the exact predicates matter
    rng = np.random.default_rng(22)
    outcomes = set()
    for _ in range(1500):
        n = int(rng.integers(3, 9))
        verts = rng.integers(0, 4, size=(n, 2)).astype(float)
        want = brute_polygon_is_simple(verts)
        assert polygon_is_simple(verts) == want
        outcomes.add(want)
    assert outcomes == {True, False}
    # every vertex at one point: the grid over a zero extent takes unit cells
    for n in (4, 7):
        verts = np.full((n, 2), 3.0)
        assert not polygon_is_simple(verts) and not brute_polygon_is_simple(verts)


def _circle(n):
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _rake(teeth):
    """A simple polygon of `teeth` horizontal teeth off a spine at u = 0.
    Every tooth edge spans u in [0, 10] (the first from -1), so many edge
    pairs have meeting boxes; edge 4t runs along the bottom of tooth t,
    edge 4t + 1 up its tip at u = 10 and edge 4t + 2 back along its top."""
    verts = [[-1.0, 0.0]]
    for t in range(teeth):
        verts += [[10.0, 3 * t], [10.0, 3 * t + 1], [0.0, 3 * t + 1]]
        verts.append([0.0, 3 * t + 3] if t < teeth - 1 else [-1.0, 3 * t + 1])
    return np.array(verts)


def _one_crossing(teeth, t):
    """The rake with the two tip vertices of tooth t swapped: the tooth's
    bottom and top edges cross, and no other pair meets."""
    verts = _rake(teeth)
    verts[[4 * t + 1, 4 * t + 2]] = verts[[4 * t + 2, 4 * t + 1]]
    return verts, (4 * t, 4 * t + 2)


def _grids_across(monkeypatch, cells):
    """Make `_EdgeGrid.over` lay `cells` cells across the points' extent,
    and return the list the grids it makes are appended to."""
    made = []

    def over(cls, pts):
        lo = pts.min(axis=0)
        grid = cls((float(lo[0]), float(lo[1])), float((pts.max(axis=0) - lo).max()) / cells)
        made.append(grid)
        return grid

    monkeypatch.setattr(hull._EdgeGrid, "over", classmethod(over))
    return made


@pytest.mark.parametrize("block", [2, 7, 64])
def test_polygon_is_simple_blocks_match_pair_loop(monkeypatch, block):
    # the replay's grid is `block` cells across a 10-tooth rake: its tooth
    # edges span 10 of 28 units, so at 2 and 7 they sit in one or a few
    # cells, and at 64 they cover more than _LONG_CELLS cells and go on the
    # scan list; one crossing, at each tooth in turn, among many pairs of
    # long edges whose boxes meet, is found on every grid
    grids = _grids_across(monkeypatch, block)
    teeth = 10
    assert polygon_is_simple(_rake(teeth)) and brute_polygon_is_simple(_rake(teeth))
    assert bool(grids[-1]._long) == (block == 64)
    for t in range(teeth):
        verts, pair = _one_crossing(teeth, t)
        assert list(brute_intersecting_pairs(verts)) == [pair]
        assert not polygon_is_simple(verts)
    assert len(grids) == teeth + 1


def test_polygon_is_simple_crossing_on_a_block_boundary(monkeypatch):
    # cells 2.5 wide from the origin put the crossing of tooth 4's bottom and
    # top edges, at (5, 12.5), on the corner of four cells, and both edges'
    # boxes end on cell boundaries
    verts, pair = _one_crossing(10, 4)
    assert verts[pair[0]].tolist() == [0.0, 12.0] and verts[pair[1]].tolist() == [10.0, 12.0]
    made = []
    monkeypatch.setattr(hull._EdgeGrid, "over",
                        classmethod(lambda cls, pts: made.append(cls((0.0, 0.0), 2.5)) or made[-1]))
    assert list(brute_intersecting_pairs(verts)) == [pair]
    assert not polygon_is_simple(verts)
    assert polygon_is_simple(_rake(10))
    assert not made[-1]._long and (4, 5) in made[-1]._cells


def test_polygon_is_simple_matches_pair_loop_long_rake():
    # 441 vertices, and the only crossing is in the last tooth
    teeth = 110
    assert polygon_is_simple(_rake(teeth))
    verts, pair = _one_crossing(teeth, teeth - 1)
    assert list(brute_intersecting_pairs(verts)) == [pair]
    assert not polygon_is_simple(verts)


def test_polygon_is_simple_matches_pair_loop_sweep_ties():
    # few distinct u values make vertical edges and collinear overlaps
    # common, repeated vertices make zero-length edges, and perturbed rakes
    # have edges that all overlap in u, with and without crossings
    rng = np.random.default_rng(23)
    outcomes = set()
    for trial in range(600):
        if trial % 3 == 2:
            verts = _rake(int(rng.integers(1, 6)))
            verts[:, 0] *= rng.integers(1, 4, size=len(verts)) * (verts[:, 0] != 0)
            if rng.random() < 0.5:
                t = int(rng.integers(0, len(verts) - 1))
                verts[[t, t + 1]] = verts[[t + 1, t]]
        else:
            n = int(rng.integers(4, 12))
            verts = np.stack([rng.integers(0, 3, n), rng.integers(0, 6, n)], axis=1).astype(float)
            verts = np.repeat(verts, rng.integers(1, 3, n), axis=0)
        want = brute_polygon_is_simple(verts)
        assert polygon_is_simple(verts) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def _straight_silhouette(rng, m, projected):
    """m points of a straight image line, each coordinate moved by at most
    one ulp, and an apex off the line: a thin polygon whose far-apart
    chain edges are collinear up to rounding.  The line is either a 3D
    segment seen by a pinhole camera or evenly sampled across the origin."""
    s = np.arange(m) / (m - 1)
    if projected:
        ends = rng.uniform([-1, -1, 2], [1, 1, 4]), rng.uniform(-1, 1, 3)
        xyz = ends[0] + s[:, None] * ends[1]
        line = 525.0 * xyz[:, :2] / xyz[:, 2:]
    else:
        line = rng.uniform(-300, -100, 2) + s[:, None] * rng.uniform(200, 600, 2)
    line = np.nextafter(line, line + rng.integers(-1, 2, size=line.shape))
    along = line[-1] - line[0]
    apex = line[m // 2] + 10 * np.array([-along[1], along[0]]) / np.hypot(*along)
    return np.vstack([line, apex])


def test_polygon_is_simple_skips_far_near_collinear_pairs():
    # the replay never tests a pair whose boxes are disjoint; the pair loop
    # does, and rounding can make such a pair read as a proper crossing
    # when its orientations lie within an ulp of zero.  That is the only
    # way the two may disagree
    disagree = 0
    for projected in (True, False):
        rng = np.random.default_rng(0)
        for _ in range(30):
            verts = _straight_silhouette(rng, 24, projected)
            got, want = polygon_is_simple(verts), brute_polygon_is_simple(verts)
            if got == want:
                continue
            disagree += 1
            assert got and not want
            nxt = np.roll(verts, -1, axis=0)
            lo, hi = np.minimum(verts, nxt), np.maximum(verts, nxt)
            for i, j in brute_intersecting_pairs(verts):
                assert np.any((lo[i] > hi[j]) | (lo[j] > hi[i]))
    assert disagree  # the 28th evenly sampled line


@pytest.mark.parametrize("block", [2, 7, 64])
def test_contains_all_blocks_match_point_loop(monkeypatch, block):
    # the square's two vertical edges each hold about 200 of the 300 random
    # points in their v-band, more than any block here, so those bands span
    # blocks; the dented polygon is concave, with rows on its vertices and
    # edge midpoints
    monkeypatch.setattr(hull, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(block)
    dented = _circle(40)
    dented[::3] *= 0.6
    for verts in (np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]]), dented):
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
        queries = np.vstack([rng.uniform(1.25 * lo - 0.25 * hi, 1.25 * hi - 0.25 * lo,
                                         (300, 2)), verts, mids])
        want = brute_points_in_polygon(verts, queries)
        assert hull._points_in_polygon(verts, queries).tolist() == want
        assert contains_all(verts, queries[want])
        assert contains_all(verts, queries) == all(want)
        assert True in want and False in want


def test_contains_all_cases():
    verts = np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]])
    assert contains_all(verts, verts)  # boundary counts as inside
    assert contains_all(verts, np.array([[2.0, 2.0]]))
    assert not contains_all(verts, np.array([[12.0, 12.0]]))
    assert contains_all(verts, np.array([[2.0, 0.0], [4.0, 2.0]]))  # on edges
    assert contains_all(verts, np.empty((0, 2)))
    # a NaN vertex or point is refused, not tested as outside
    with pytest.raises(ValueError, match="polygon vertex coordinates must be finite"):
        contains_all(np.vstack([verts, [[np.nan, 2.0]]]), np.array([[2.0, 2.0]]))
    with pytest.raises(ValueError, match="tested point coordinates must be finite"):
        contains_all(verts, np.array([[2.0, np.nan]]))


def test_contains_all_counts_a_point_at_the_on_edge_tolerance():
    # 1e-9 outside an axis-aligned edge, a point's squared distance is the
    # squared tolerance exactly, and at most the tolerance is on the edge
    verts = np.array([[0.0, 0], [4, 0], [4, 4], [0, 4]])
    pts = np.array([[2.0, -1e-9], [-1e-9, 2.0], [2.0, -2e-9]])
    want = brute_points_in_polygon(verts, pts)
    assert want == [True, True, False]
    assert [contains_all(verts, q[None]) for q in pts] == want


_GRID_POINT = st.tuples(st.integers(0, 4), st.integers(0, 4))


def _ending_at(p, q, segs):
    """The (m, 2, 2) segments followed by an edge into p along q-p, as the
    walk's last edge ends at p: no intersection test reads it."""
    return np.concatenate([segs.reshape(-1, 2, 2), [[2 * p - q, p]]])


def _grid_intersects(p, q, segs, cell):
    """`_EdgeGrid.intersects` of p-q after registering the (m, 2, 2)
    segments in order, closing when q is the first one's start, with the
    origin at the coordinates' minimum, as in the walk."""
    origin = np.vstack([p, q, segs.reshape(-1, 2)]).min(axis=0)
    grid = hull._EdgeGrid(tuple(origin.tolist()), cell)
    for (ax, ay), (bx, by) in segs.tolist():
        grid.add(ax, ay, bx, by)
    closing = len(segs) > 0 and np.array_equal(q, segs[0, 0])
    return grid.intersects(*p.tolist(), *q.tolist(), closing)


def _boxes_meet(p, q, e0, e1):
    """Per edge: its bounding box meets the one of p-q (touching counts)."""
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    return np.all((np.minimum(e0, e1) <= hi) & (lo <= np.maximum(e0, e1)), axis=1)


# a 5x5 grid makes touches, shared endpoints and collinear overlaps common;
# the scales round the orientations differently.  The cell sizes put many
# points on cell boundaries, spread a long edge or query over more than
# `_LONG_CELLS` cells, and put everything in one cell
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(p=_GRID_POINT, q=_GRID_POINT, edges=st.lists(st.tuples(_GRID_POINT, _GRID_POINT),
                                                    max_size=10),
       scale=st.sampled_from([1.0, 0.1, 1e-3]))
@example(p=(0, 0), q=(2, 0), edges=[((1, -1), (1, 1))], scale=1.0)  # a crossing
@example(p=(0, 0), q=(2, 0), edges=[((1, 0), (1, 1))], scale=1.0)   # edge end on p-q
@example(p=(0, 0), q=(2, 0), edges=[((1, -1), (1, 0))], scale=0.1)  # edge end on p-q
@example(p=(1, 0), q=(1, 2), edges=[((0, 0), (2, 0))], scale=1.0)   # p on the edge
@example(p=(0, 0), q=(2, 0), edges=[((1, 0), (3, 0))], scale=1.0)   # collinear overlap
@example(p=(0, 0), q=(2, 0), edges=[((2, 0), (3, 1)), ((0, 1), (4, -1))],
         scale=1.0)  # closing at the first edge's start, then a crossing
@example(p=(0, 0), q=(2, 0), edges=[((4, 4), (3, 3)), ((2, 0), (3, 1))],
         scale=0.1)  # an end shared with an edge other than the first
def test_crosses_any_matches_all_edges_oracle(p, q, edges, scale):
    # the grid tests the edges whose boxes meet the query's, as the oracle
    # over every edge does, whatever the cell size
    p, q = np.array(p, dtype=float) * scale, np.array(q, dtype=float) * scale
    segs = _ending_at(p, q, np.array(edges, dtype=float) * scale)
    want = all_edges_crosses_any(p, q, segs[:, 0], segs[:, 1])
    for cell in (0.3 * scale, scale, 10.0 * scale):
        assert _grid_intersects(p, q, segs, cell) == want


_L = 0.9 * COORD_LIMIT


# each case's edges are followed by one into p along q-p, which is skipped
@pytest.mark.parametrize("p,q,edges,cell,want", [
    # negative coordinates, crossing and not
    ((-3.5, -2.0), (-1.0, -2.0), [((-2.0, -3.0), (-2.0, -1.0))], 0.7, True),
    ((-3.5, -2.0), (-1.0, -2.0), [((-2.0, -1.9), (-2.0, -1.0))], 0.7, False),
    # every end on a cell boundary: a crossing, a touch and an end shared
    # with the first edge, which the closing edge may meet
    ((0.0, 0.0), (2.0, 2.0), [((0.0, 2.0), (2.0, 0.0))], 1.0, True),
    ((0.0, 0.0), (2.0, 2.0), [((1.0, 1.0), (2.0, 0.0))], 1.0, True),
    ((0.0, 0.0), (2.0, 2.0), [((2.0, 2.0), (3.0, 0.0))], 1.0, False),
    # a zero-length edge on p-q, and a zero-length query on an edge, touch
    ((0.0, 0.0), (2.0, 2.0), [((1.0, 1.0), (1.0, 1.0)), ((0.5, 1.5), (0.5, 1.5))], 1.0, True),
    ((1.0, 1.0), (1.0, 1.0), [((0.0, 2.0), (2.0, 0.0))], 1.0, True),
    # near the coordinate bound, at a cell size from the extent and at 1e-9
    ((-_L, -_L), (_L, _L), [((-_L, _L), (_L, -_L))], 0.5 * _L, True),
    ((-_L, -_L), (_L, _L), [((-_L, _L), (_L, -_L))], 1e-9, True),
    ((-_L, -_L), (_L, -_L), [((-_L, _L), (_L, _L))], 1e-9, False),
    # a 1e-9 extent at the cell size the walk would pick
    ((0.0, 0.0), (1e-9, 1e-9), [((0.0, 1e-9), (1e-9, 0.0))], 3e-9 / np.sqrt(4), True),
    # zero-length edges and a zero-length query off the other segment
    ((0.0, 0.0), (2.0, 2.0), [((0.5, 1.5), (0.5, 1.5))], 1.0, False),
    ((1.0, 1.5), (1.0, 1.5), [((0.0, 2.0), (2.0, 0.0))], 1.0, False),
    # an end shared with an edge other than the first, and a collinear overlap
    ((0.0, 0.0), (2.0, 2.0), [((5.0, 5.0), (6.0, 5.0)), ((2.0, 2.0), (3.0, 0.0))], 1.0, True),
    ((0.0, 0.0), (2.0, 2.0), [((3.0, 3.0), (1.0, 1.0))], 1.0, True),
])
def test_edge_grid_cases(p, q, edges, cell, want):
    p, q = np.array(p), np.array(q)
    segs = _ending_at(p, q, np.array(edges, dtype=float))
    assert all_edges_crosses_any(p, q, segs[:, 0], segs[:, 1]) == want
    assert _grid_intersects(p, q, segs, cell) == want


def test_edge_grid_refuses_a_closing_edge_over_the_hull():
    # a walk up a lattice column, once its start may close it, would go
    # straight back down over its own second edge; an edge into the start
    # that meets only the first edge, at the start, closes
    column = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    segs = np.stack([column[:-1], column[1:]], axis=1)
    assert all_edges_crosses_any(column[-1], column[0], segs[:, 0], segs[:, 1])
    assert _grid_intersects(column[-1], column[0], segs, 1.0)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    segs = np.stack([square[:-1], square[1:]], axis=1)
    assert not all_edges_crosses_any(square[-1], square[0], segs[:, 0], segs[:, 1])
    assert not _grid_intersects(square[-1], square[0], segs, 1.0)


def test_edge_grid_scan_lists():
    # an edge over more than `_LONG_CELLS` cells is only on the long list,
    # which every query reads; a query over that many cells reads every edge
    grid = hull._EdgeGrid((0.0, 0.0), 1.0)
    grid.add(60.2, 60.6, 60.6, 60.2)
    grid.add(0.0, 0.0, 100.0, 100.0)
    grid.add(150.2, 150.2, 150.4, 150.4)  # the last edge, which no query reads
    assert len(grid._long) == 1 and len(grid._cells) == 2
    assert grid.intersects(49.5, 49.2, 49.5, 49.8, False)  # in a cell the long edge is not in
    assert not grid.intersects(49.5, 49.2, 49.5, 49.4, False)
    assert not grid.intersects(150.0, 150.6, 150.6, 150.0, False)
    assert grid._cover(40.3, 60.3, 60.45, 100.0) is None
    assert grid.intersects(0.0, 100.0, 100.0, 0.0, False)  # a long query crosses the long edge
    assert grid.intersects(60.3, 60.45, 40.3, 100.0, False)  # and reads the short one from its cell
    assert not grid.intersects(60.7, 60.8, 40.7, 100.0, False)


def test_edge_grid_skips_far_near_collinear_edges():
    # four points of one line, each coordinate within an ulp of it: the
    # edge lies far beyond p-q and their boxes are disjoint, but the float
    # orientations read as a proper crossing.  The pair test alone counts
    # it; the grid, like `polygon_is_simple`, never tests such a pair, even
    # when both share a cell
    p = np.array([-135.58432498750236, -287.9570109114969])
    q = np.array([-121.60768888782694, -264.4014675246473])
    seg = np.array([[[-37.74787228977447, -123.06820720354945],
                     [-23.771236190099078, -99.51266381669984]]])
    assert _segments_intersect(seg[0, 0], seg[0, 1], p, q)
    assert not _boxes_meet(p, q, seg[:, 0], seg[:, 1])[0]
    segs = _ending_at(p, q, seg)
    assert not all_edges_crosses_any(p, q, segs[:, 0], segs[:, 1])
    for cell in (1.0, 1000.0):
        assert not _grid_intersects(p, q, segs, cell)


def test_start_row_matches_lexsort_on_ties():
    # many rows tie on the lowest v, some of them repeated, with -0.0 and
    # +0.0 in both columns: lowest v, then lowest u, then lowest index
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        u = rng.integers(-2, 3, n).astype(float)
        v = np.maximum(rng.integers(-2, 3, n), 0).astype(float)  # most rows on v = 0
        flip = rng.random((n, 2)) < 0.5
        u[flip[:, 0] & (u == 0)] = -0.0
        v[flip[:, 1] & (v == 0)] = -0.0
        pts = np.stack([u, v], axis=1)
        want = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])
        assert hull._start_row(pts) == want
    pts = np.array([[1.0, 0.0], [2.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [3.0, 5.0]])
    assert hull._start_row(pts) == 2


def _hull_input(rng, kind):
    n = int(rng.integers(8, 60))
    if kind == "random":
        return rng.uniform(0, 100, size=(n, 2))
    if kind == "clustered":
        centers = rng.uniform(0, 100, size=(int(rng.integers(2, 5)), 2))
        return centers[rng.integers(0, len(centers), n)] + rng.normal(0, 3, size=(n, 2))
    side = int(np.ceil(np.sqrt(n))) + 2
    grid = np.array([[x, y] for y in range(side) for x in range(side)], dtype=float)
    return grid[rng.choice(len(grid), n, replace=False)]


def _comb(rng):
    """A counter-clockwise comb: horizontal tooth tops and notch floors, so
    many vertices are local v extrema and many edges have a zero v-span."""
    teeth = int(rng.integers(2, 7))
    xs = np.concatenate([[0.0], np.cumsum(rng.integers(1, 4, size=2 * teeth - 1))])
    tops = rng.integers(4, 9, size=teeth).astype(float)
    floors = rng.integers(1, 4, size=teeth).astype(float)
    verts = [[0.0, 0.0], [xs[-1], 0.0]]
    for t in reversed(range(teeth)):
        verts += [[xs[2 * t + 1], tops[t]], [xs[2 * t], tops[t]]]
        if t:  # the notch left of tooth t
            verts += [[xs[2 * t], floors[t]], [xs[2 * t - 1], floors[t]]]
    return np.array(verts)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "clustered", "lattice", "comb"]),
       scale=st.sampled_from([1.0, 1e9]),
       offset=st.sampled_from([0.0, -3e6, 1e9, 1e12]))
def test_contains_all_matches_scalar_oracle(seed, kind, scale, offset):
    rng = np.random.default_rng(seed)
    if kind == "comb":
        pts = verts = _comb(rng) * scale + offset
    else:
        pts = _hull_input(rng, kind) * scale + offset
        verts = concave_hull(pts, k=int(rng.integers(3, 12))).vertices
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    nxt = np.roll(verts, -1, axis=0)
    edges = nxt - verts
    mids = verts + 0.5 * edges
    along = verts + rng.uniform(0, 1, (len(verts), 1)) * edges
    # right-hand unit normals point out of a counter-clockwise polygon;
    # offsets of 0.5e-9 and 2e-9 straddle the 1e-9 on-edge tolerance
    outward = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    outward /= np.hypot(edges[:, 0], edges[:, 1])[:, None]
    # each edge's v-span ends, and just past them: a point the v-band of
    # `contains_all` left out would read as outside
    low = np.where((verts[:, 1] <= nxt[:, 1])[:, None], verts, nxt)
    high = np.where((verts[:, 1] > nxt[:, 1])[:, None], verts, nxt)
    beyond = [end + [0.0, off] for end, sign in ((low, -1), (high, 1))
              for off in (sign * 0.5e-9, sign * 2e-9, -sign * 0.5e-9, -sign * 2e-9)]
    # rows at exactly each vertex's v, and the far end of each edge as its
    # own arithmetic (v1 + 1 * (v2 - v1)) rounds it
    level = np.stack([rng.uniform(lo[0], hi[0], len(verts)), verts[:, 1]], axis=1)
    near = [on + off * outward for on in (mids, along) for off in (0.5e-9, 2e-9)]
    queries = np.vstack([rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (40, 2)),
                         verts, mids, along, level, verts + edges] + beyond + near)
    want = brute_points_in_polygon(verts, queries)
    assert [contains_all(verts, q[None]) for q in queries] == want
    assert contains_all(verts, queries) == all(want)
    assert True in want and False in want


def _hull_bytes(poly):
    return poly.vertices.tobytes(), poly.source_indices.tobytes(), poly.k_used


def _likely_ids(rng, hint, index_map, hull_sources):
    """Source ids for `concave_hull(likely=...)`: right, partial or wrong."""
    if hint == "none":
        return None
    if hint == "hull":
        return hull_sources
    if hint == "subset":  # hull and interior ids alike, any size
        return rng.choice(index_map, int(rng.integers(0, len(index_map) + 1)), replace=False)
    # ids no point has, repeats of real ones, and the extremes of the dtype
    info = np.iinfo(np.intp)
    return rng.permutation(np.concatenate([
        -rng.integers(1, 10**6, 4), rng.integers(2000, 10**12, 4),
        np.repeat(rng.choice(index_map, 3), 3), [info.min, info.max, -1]]))


# (124, clustered) widens the walk's query at the real slack; with no slack
# it widens often.  Some lattice sets escalate k
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "clustered", "lattice"]),
       slack=st.sampled_from([hull._WALK_SLACK, 0]),
       hint=st.sampled_from(["none", "hull", "subset", "foreign"]))
@example(seed=246, kind="lattice", slack=hull._WALK_SLACK, hint="none")
@example(seed=246, kind="lattice", slack=hull._WALK_SLACK, hint="hull")
@example(seed=124, kind="clustered", slack=hull._WALK_SLACK, hint="hull")
@example(seed=124, kind="clustered", slack=0, hint="foreign")
def test_walk_width_matches_full_width_oracle(seed, kind, slack, hint):
    rng = np.random.default_rng(seed)
    pts = _hull_input(rng, kind)
    k = int(rng.integers(3, 12))
    index_map = 1000 + rng.permutation(len(pts))  # source ids are not rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_walk", full_width_walk)
        want = concave_hull(pts, index_map, k)
    likely = _likely_ids(rng, hint, index_map, want.source_indices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_WALK_SLACK", slack)
        got = concave_hull(pts, index_map, k, likely=likely)
    assert _hull_bytes(got) == _hull_bytes(want)


def _recording_knn_batch(monkeypatch):
    """Record (query bytes, k) of every `SpatialIndex.knn_batch` call."""
    calls = []
    knn_batch = SpatialIndex.knn_batch

    def recording(self, queries, k):
        calls.append((queries.tobytes(), k))
        return knn_batch(self, queries, k)

    monkeypatch.setattr(SpatialIndex, "knn_batch", recording)
    return calls


def test_walk_warmed_with_its_own_hull_makes_one_query(monkeypatch):
    # every step starts from a hull vertex, so every step reads the table,
    # and no step meets more used rows than the table's slack
    pts = np.random.default_rng(3).uniform(0, 100, size=(400, 2))
    index_map = np.arange(400) * 7
    cold = concave_hull(pts, index_map, k=10)
    assert cold.k_used == 10
    calls = _recording_knn_batch(monkeypatch)
    warm = concave_hull(pts, index_map, k=10, likely=cold.source_indices)
    rows = np.sort(cold.source_indices // 7)
    assert calls == [(pts[rows].tobytes(), 10 + hull._WALK_SLACK)]
    assert _hull_bytes(warm) == _hull_bytes(cold)


def test_walk_widens_when_used_rows_crowd_the_query(monkeypatch):
    # a clustered set whose hull escalates from k = 3 to 17: at some step
    # the narrow query returns fewer than kk unused rows and is repeated
    # wider at the same row
    pts = _hull_input(np.random.default_rng(124), "clustered")
    calls = _recording_knn_batch(monkeypatch)
    poly = concave_hull(pts, k=3)
    assert poly.k_used == 17
    widened = [(a[1], b[1]) for a, b in zip(calls, calls[1:]) if a[0] == b[0]]
    assert widened and all(wide > narrow for narrow, wide in widened)
    monkeypatch.undo()
    monkeypatch.setattr(hull, "_walk", full_width_walk)
    assert _hull_bytes(concave_hull(pts, k=3)) == _hull_bytes(poly)


@pytest.mark.parametrize("seed", range(10))
def test_random_sets_simple_contains_and_subset(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 400))
    pts = rng.uniform(0, 100, size=(n, 2))
    poly = concave_hull(pts, k=20)
    assert polygon_is_simple(poly.vertices)
    assert contains_all(poly.vertices, pts)
    pt_set = {tuple(p) for p in pts}
    for v in poly.vertices:
        assert tuple(v) in pt_set  # never invents coordinates
    assert _signed_area(poly.vertices) > 0


def test_clustered_points_need_escalation():
    # two tight clusters and a bridge; small k tends to fail and escalate
    rng = np.random.default_rng(42)
    a = rng.normal([0, 0], 0.2, size=(40, 2))
    b = rng.normal([10, 0], 0.2, size=(40, 2))
    pts = np.vstack([a, b, [[5.0, 0.05]]])
    poly = concave_hull(pts, k=3)
    assert polygon_is_simple(poly.vertices)
    assert contains_all(poly.vertices, pts)


def test_area_monotonicity_statistic_logged():
    # folklore, not guaranteed: growing k should rarely shrink the area
    rng = np.random.default_rng(7)
    violations = 0
    trials = 0
    for _ in range(30):
        pts = rng.uniform(0, 10, size=(60, 2))
        areas = []
        for k in (4, 8, 16, 32):
            poly = concave_hull(pts, k=k)
            areas.append(_signed_area(poly.vertices))
        trials += len(areas) - 1
        violations += sum(
            1 for lo, hi in zip(areas, areas[1:]) if hi < lo - 1e-9
        )
    # logged statistic, loose assertion only: mostly monotone
    assert violations <= trials * 0.2

