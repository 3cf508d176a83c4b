import numpy as np
import pytest

from cloudsr.errors import DegenerateCollinear, TooFewPoints
from cloudsr.geometry import PointSet2
from cloudsr.hull import (
    HullPolygon,
    concave_hull,
    contains_all,
    polygon_is_simple,
)

from oracles import brute_polygon_is_simple, monotone_chain


def _signed_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def test_polygon_requires_three_vertices():
    with pytest.raises(ValueError):
        HullPolygon([[0, 0], [1, 0]], [0, 1], 3)


def test_polygon_rejects_duplicate_sources():
    with pytest.raises(ValueError):
        HullPolygon([[0, 0], [1, 0], [0, 1]], [0, 0, 1], 3)


def test_triangle_input():
    poly = concave_hull(np.array([[0.0, 0], [4, 0], [0, 3]]), k=3)
    assert len(poly) == 3
    assert set(map(tuple, poly.vertices)) == {(0, 0), (4, 0), (0, 3)}
    assert _signed_area(poly.vertices) > 0  # CCW


def test_square_corners_k3():
    pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    poly = concave_hull(pts, k=3)
    assert len(poly) == 4
    assert set(map(tuple, poly.vertices)) == set(map(tuple, pts))
    assert polygon_is_simple(poly)
    assert _signed_area(poly.vertices) > 0


@pytest.mark.parametrize("k,k_used", [(3, 3), (8, 15)])
def test_lattice_walk_tie_order(k, k_used):
    # every step of the walk on a lattice meets exact distance ties, so the
    # lowest-index tie rule fixes the vertex order
    pts = np.array([[x, y] for y in range(4) for x in range(4)], dtype=float)
    poly = concave_hull(pts, k=k)
    assert poly.source_indices.tolist() == [0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4]
    assert poly.k_used == k_used


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
    with pytest.raises(TooFewPoints):
        concave_hull(np.array([[0.0, 0], [1, 1]]))
    with pytest.raises(TooFewPoints):
        concave_hull(np.array([[0.0, 0], [0, 0], [1e-12, 0], [1, 1]]))  # dupes
    with pytest.raises(DegenerateCollinear):
        concave_hull(np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]]))
    with pytest.raises(ValueError):
        concave_hull(np.array([[0.0, 0], [1, 0], [0, 1]]), k=2)


def test_polygon_is_simple_square_true():
    poly = HullPolygon([[0, 0], [1, 0], [1, 1], [0, 1]], range(4), 3)
    assert polygon_is_simple(poly)


def test_polygon_is_simple_bowtie_false():
    poly = HullPolygon([[0, 0], [1, 1], [1, 0], [0, 1]], range(4), 3)
    assert not polygon_is_simple(poly)


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
        assert polygon_is_simple(HullPolygon(verts, range(n), 3)) == want
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
        assert polygon_is_simple(HullPolygon(verts, range(n), 3)) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_contains_all_cases():
    poly = HullPolygon([[0, 0], [4, 0], [4, 4], [0, 4]], range(4), 3)
    assert contains_all(poly, poly.vertices)  # boundary counts as inside
    assert contains_all(poly, np.array([[2.0, 2.0]]))
    assert not contains_all(poly, np.array([[12.0, 12.0]]))
    assert contains_all(poly, np.array([[2.0, 0.0], [4.0, 2.0]]))  # on edges


@pytest.mark.parametrize("seed", range(10))
def test_random_sets_simple_contains_and_subset(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 400))
    pts = rng.uniform(0, 100, size=(n, 2))
    poly = concave_hull(PointSet2(pts, role="projection"), k=20)
    assert polygon_is_simple(poly)
    assert contains_all(poly, pts)
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
    assert polygon_is_simple(poly)
    assert contains_all(poly, pts)


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


def test_with_vertices_preserves_membership():
    poly = concave_hull(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]), k=3)
    moved = poly.with_vertices(poly.vertices + 5.0)
    assert list(moved.source_indices) == list(poly.source_indices)
    assert moved.k_used == poly.k_used
    np.testing.assert_allclose(moved.vertices, poly.vertices + 5.0)
