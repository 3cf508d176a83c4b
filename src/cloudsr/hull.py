"""k-nearest-neighbor concave hull of a projected 2D point set.

The boundary walk starts at the lowest-v point and repeatedly picks, among
the k nearest unused points ordered by largest right-hand turn from the
previous edge, the first whose new edge crosses no existing hull edge.  If
the walk cannot close, or the closed polygon is not simple, or some input
point falls outside, the neighbor count is increased and the walk retried.
At k = count-1 the walk degenerates to gift wrapping, so the convex hull is
the terminal fallback and failure is unreachable for non-collinear input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCollinear, HullFailed, TooFewPoints
from .geometry import SpatialIndex, as_point_array, dedupe_rows, require_bounded

_ON_EDGE_TOL = 1e-9
_PAIR_BLOCK = 1 << 16  # segment pairs per vectorized pass: bounds memory
_WALK_SLACK = 8  # walk rows asked beyond kk and the used rows the last step met


@dataclass(frozen=True)
class HullPolygon:
    """Concave hull result: the (H, 2) vertices counter-clockwise (positive
    shoelace area in (u, v), closure back to the first vertex implicit), the
    3D source index of each vertex so gradients can be routed back, and the
    neighbor count that produced it."""

    vertices: np.ndarray
    source_indices: np.ndarray
    k_used: int


def _signed_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def orient(a, b, c):
    """Orientation cross product (b-a) x (c-a), broadcast over leading axes.

    Positive when c lies left of the directed line a->b (counter-clockwise
    turn), zero when collinear.
    """
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
        b[..., 1] - a[..., 1]
    ) * (c[..., 0] - a[..., 0])


def _proper_crossing(d1, d2, d3, d4):
    """Segments a-b and c-d cross properly, from d1 = orient(c, d, a),
    d2 = orient(c, d, b), d3 = orient(a, b, c), d4 = orient(a, b, d): strict
    opposite signs on both, so a zero orientation (a touch) never counts."""
    return (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )


def _crosses_any(p, q, e0: np.ndarray, e1: np.ndarray) -> bool:
    """True if open segment p-q properly crosses any segment e0[i]-e1[i].

    Shared endpoints do not count (an orientation is zero there), which is
    exactly what the walk needs when testing against adjacent hull edges.
    """
    return bool(np.any(_proper_crossing(
        orient(e0, e1, p), orient(e0, e1, q), orient(p, q, e0), orient(p, q, e1))))


def _on_segment(a, b, c):
    """c inside the bounding box of segment a-b (for collinear c)."""
    return np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)), axis=-1)


def polygon_is_simple(verts: np.ndarray) -> bool:
    """True iff no pair of non-adjacent edges of the closed polygon over the
    (H, 2) vertices intersects (touching counts).

    Every pair (i, j) with i < j - 1, less the adjacent pair (0, H - 1), is
    tested with the same predicates, `_PAIR_BLOCK` pairs per vectorized
    pass, so the work is O(H^2) and the memory O(H + _PAIR_BLOCK).
    """
    a = verts
    b = np.roll(a, -1, axis=0)
    n = a.shape[0]
    if n < 4:
        return True  # a triangle's edges are pairwise adjacent
    # pairs in (i, j) order; row i holds j = i+2 .. n-1, and row 0 stops at
    # n-2 because edges 0 and n-1 are adjacent
    per_row = n - 2 - np.arange(n - 2)
    per_row[0] -= 1
    starts = np.concatenate([[0], np.cumsum(per_row)])
    for lo in range(0, int(starts[-1]), _PAIR_BLOCK):
        flat = np.arange(lo, min(lo + _PAIR_BLOCK, int(starts[-1])))
        i = np.searchsorted(starts, flat, side="right") - 1
        j = flat - starts[i] + i + 2
        ai, bi, c, d = a[i], b[i], a[j], b[j]
        d1 = orient(c, d, ai)
        d2 = orient(c, d, bi)
        d3 = orient(ai, bi, c)
        d4 = orient(ai, bi, d)
        proper = _proper_crossing(d1, d2, d3, d4)
        touch = (
            ((d1 == 0) & _on_segment(c, d, ai))
            | ((d2 == 0) & _on_segment(c, d, bi))
            | ((d3 == 0) & _on_segment(ai, bi, c))
            | ((d4 == 0) & _on_segment(ai, bi, d))
        )
        if np.any(proper | touch):
            return False
    return True


def _points_in_polygon(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Inside-or-on test for each point (ray casting + on-edge tolerance).

    An edge can count for a point only if the point's v lies in the edge's
    v-span (crossing) or within the on-edge tolerance of it, so each edge is
    evaluated only on the points that `searchsorted` finds in its padded
    v-band, `_PAIR_BLOCK` (edge, point) pairs per pass.
    """
    x1, y1 = verts[:, 0], verts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    ex, ey = x2 - x1, y2 - y1
    seg_len2 = ex * ex + ey * ey
    # the closest point's v can leave the span by the rounding of y1 + t*ey,
    # under 2 eps * max|v|, and the tolerance then reaches a little further
    reach = float(np.max(np.abs(y1), initial=0.0))
    pad = 2.0 * _ON_EDGE_TOL + 4.0 * np.finfo(np.float64).eps * reach
    order = np.argsort(pts[:, 1], kind="stable")
    first = np.searchsorted(pts[order, 1], np.minimum(y1, y2) - pad, side="left")
    count = np.searchsorted(pts[order, 1], np.maximum(y1, y2) + pad, side="right") - first
    ends = np.cumsum(count)

    crossings = np.zeros(pts.shape[0], dtype=np.intp)
    on_edge = np.zeros(pts.shape[0], dtype=bool)
    e_lo = 0
    while e_lo < len(ends):
        # whole edges per pass: one edge with more than a block runs alone
        done = ends[e_lo - 1] if e_lo else 0
        e_hi = max(e_lo + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        e = np.repeat(np.arange(e_lo, e_hi), count[e_lo:e_hi])
        k = order[np.arange(e.size) - (ends[e] - count[e] - done) + first[e]]
        e_lo = e_hi
        px, py = pts[k, 0], pts[k, 1]
        # distance from each point to its edge
        zero = seg_len2[e] == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(((px - x1[e]) * ex[e] + (py - y1[e]) * ey[e]) / seg_len2[e], 0.0, 1.0)
        t[zero] = 0.0
        d2 = (px - (x1[e] + t * ex[e])) ** 2 + (py - (y1[e] + t * ey[e])) ** 2
        on_edge[k[d2 <= _ON_EDGE_TOL * _ON_EDGE_TOL]] = True
        # standard crossing-number rule; a crossing edge has ey != 0
        c = (y1[e] > py) != (y2[e] > py)
        e, k, px, py = e[c], k[c], px[c], py[c]
        hit = px < x1[e] + (py - y1[e]) * ex[e] / ey[e]
        crossings += np.bincount(k[hit], minlength=pts.shape[0])
    return (crossings % 2 == 1) | on_edge


def contains_all(verts: np.ndarray, points) -> bool:
    """True iff every point lies inside or on the polygon over the (H, 2)
    vertices.

    Costs one sort of the points by v plus work proportional to the
    (edge, point) pairs whose v-bands meet, about 2 per point for a
    polygon that a horizontal line crosses twice; memory is
    O(H + n + _PAIR_BLOCK).
    """
    pts = as_point_array(points, 2)
    if pts.shape[0] == 0:
        return True
    return bool(np.all(_points_in_polygon(verts, pts)))


def monotone_chain(pts: np.ndarray) -> list[int]:
    """Convex hull indices, CCW, keeping collinear boundary points."""
    order = sorted(range(pts.shape[0]), key=lambda i: (pts[i, 0], pts[i, 1]))
    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and orient(pts[lower[-2]], pts[lower[-1]], pts[i]) < 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and orient(pts[upper[-2]], pts[upper[-1]], pts[i]) < 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _walk(pts: np.ndarray, index: SpatialIndex, kk: int) -> list[int] | None:
    """One Moreira-Santos boundary walk; None when it cannot close."""
    n = pts.shape[0]
    start = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])  # lowest v, then u
    hull = [start]
    used = np.zeros(n, dtype=bool)
    used[start] = True
    cur = start
    prev_angle = np.pi
    skipped = 0  # used rows in the last query; the next step meets about as many

    for _ in range(2 * n + 4):
        if len(hull) == 4:
            used[start] = False  # start point may close the hull from now on

        # the kk nearest unused points (cur is used).  Used rows are hull
        # members, so `full` rows leave kk whenever that many exist; the
        # ranking's prefixes agree, so a narrower query that already holds
        # kk unused rows gives the same candidates
        full = min(n, kk + len(hull))
        width = min(full, kk + skipped + _WALK_SLACK)
        while True:
            (near,), _ = index.knn_batch(pts[cur:cur + 1], width)
            fresh = ~used[near]
            cand = near[fresh][:kk]
            if cand.size == kk or width == full:
                break
            width = min(full, 2 * width)
        skipped = near.size - int(np.count_nonzero(fresh))

        # largest right-hand turn first: ascending clockwise angle from the
        # reversed previous edge direction
        angles = np.arctan2(pts[cand, 1] - pts[cur, 1], pts[cand, 0] - pts[cur, 0])
        diff = np.mod(prev_angle - angles, 2.0 * np.pi)
        cand = cand[np.argsort(diff, kind="stable")]

        e0 = pts[hull[:-1]]
        e1 = pts[hull[1:]]
        nxt = -1
        for c in cand:
            if not _crosses_any(pts[cur], pts[c], e0, e1):
                nxt = int(c)
                break
        if nxt < 0:
            return None
        if nxt == start:
            return hull
        hull.append(nxt)
        used[nxt] = True
        prev_angle = float(
            np.arctan2(pts[cur, 1] - pts[nxt, 1], pts[cur, 0] - pts[nxt, 0])
        )
        cur = nxt
    return None


def _oriented_ccw(order: list[int], pts: np.ndarray) -> list[int]:
    if _signed_area(pts[order]) < 0:
        order = [order[0]] + order[1:][::-1]
    return order


def concave_hull(points, index_map=None, k: int = 20) -> HullPolygon:
    """Concave hull of a 2D point set with 3D source back-references.

    `index_map[i]` is the 3D source index of input point i (identity when
    omitted).  `k` is the starting neighbor count; it escalates on failure.
    Points beyond `geometry.COORD_LIMIT` or non-finite, and a repeated
    `index_map` entry, raise ValueError before any arithmetic.
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    raw = as_point_array(points, 2)
    require_bounded(raw, "hull point coordinates")
    if index_map is None:
        index_map = np.arange(raw.shape[0], dtype=np.intp)
    else:
        index_map = np.asarray(index_map, dtype=np.intp)
        if index_map.shape != (raw.shape[0],):
            raise ValueError("index_map must map every input point")
        ordered = np.sort(index_map)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("index_map entries must be distinct")

    keep = dedupe_rows(raw)
    pts = raw[keep]
    sources = index_map[keep]
    n = pts.shape[0]
    if n < 3:
        raise TooFewPoints(f"need at least 3 distinct points, got {n}")
    if np.all(orient(pts[0], pts[1], pts) == 0.0):
        raise DegenerateCollinear("all points are collinear")

    if n == 3:
        order = _oriented_ccw([0, 1, 2], pts)
        return HullPolygon(pts[order], sources[order], min(k, n - 1))

    index = SpatialIndex(pts)
    for kk in range(min(k, n - 1), n):
        order = _walk(pts, index, kk)
        if order is None:
            continue
        order = _oriented_ccw(order, pts)
        verts = pts[order]
        if polygon_is_simple(verts) and contains_all(verts, pts):
            return HullPolygon(verts, sources[order], kk)

    # terminal fallback: the convex hull is the k -> count-1 limit and always
    # satisfies the contract for non-collinear input
    order = monotone_chain(pts)
    if len(order) >= 3:
        order = _oriented_ccw(order, pts)
        return HullPolygon(pts[order], sources[order], n - 1)
    raise HullFailed("no neighbor count produced a valid hull")
