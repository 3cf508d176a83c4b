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

import numpy as np

from .errors import DegenerateCollinear, HullFailed, TooFewPoints
from .geometry import SpatialIndex, as_point_array, dedupe_rows

_ON_EDGE_TOL = 1e-9


class HullPolygon:
    """Ordered simple closed polygon over projected points.

    Vertices are counter-clockwise (positive shoelace area in (u, v));
    closure back to the first vertex is implicit.  Each vertex carries the
    index of its source 3D point so gradients can be routed back.
    """

    def __init__(self, vertices, source_indices, k_used: int):
        verts = np.array(vertices, dtype=np.float64, copy=True).reshape(-1, 2)
        if verts.shape[0] < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        src = np.array(source_indices, dtype=np.intp, copy=True)
        if src.shape != (verts.shape[0],):
            raise ValueError("need one source index per vertex")
        if np.unique(src).size != src.size:
            raise ValueError("source indices must be distinct")
        verts.setflags(write=False)
        src.setflags(write=False)
        self._verts = verts
        self._src = src
        self.k_used = int(k_used)

    @property
    def vertices(self) -> np.ndarray:
        return self._verts

    @property
    def source_indices(self) -> np.ndarray:
        return self._src

    def __len__(self) -> int:
        return self._verts.shape[0]

    def with_vertices(self, vertices) -> "HullPolygon":
        """Same membership and order, new vertex coordinates (used while the
        3D points behind a frozen hull move during refinement)."""
        return HullPolygon(vertices, self._src, self.k_used)

    def __repr__(self) -> str:
        return f"HullPolygon({len(self)} vertices, k_used={self.k_used})"


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


def polygon_is_simple(poly: HullPolygon) -> bool:
    """True iff no pair of non-adjacent edges intersects (touching counts).

    Edge i is tested against all later non-adjacent edges at once, so the
    work is O(H^2) but the memory O(H).
    """
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    n = a.shape[0]
    for i in range(n - 2):
        stop = n - 1 if i == 0 else n  # edges 0 and n-1 are adjacent
        c, d = a[i + 2:stop], b[i + 2:stop]
        d1 = orient(c, d, a[i])
        d2 = orient(c, d, b[i])
        d3 = orient(a[i], b[i], c)
        d4 = orient(a[i], b[i], d)
        proper = _proper_crossing(d1, d2, d3, d4)
        touch = (
            ((d1 == 0) & _on_segment(c, d, a[i]))
            | ((d2 == 0) & _on_segment(c, d, b[i]))
            | ((d3 == 0) & _on_segment(a[i], b[i], c))
            | ((d4 == 0) & _on_segment(a[i], b[i], d))
        )
        if np.any(proper | touch):
            return False
    return True


def _points_in_polygon(verts: np.ndarray, pts: np.ndarray,
                       tol: float = _ON_EDGE_TOL) -> np.ndarray:
    """Inside-or-on test for each point (ray casting + on-edge tolerance)."""
    n = verts.shape[0]
    px, py = pts[:, 0], pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    on_edge = np.zeros(pts.shape[0], dtype=bool)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        # distance from each point to this segment
        ex, ey = x2 - x1, y2 - y1
        seg_len2 = ex * ex + ey * ey
        if seg_len2 == 0.0:
            d2 = (px - x1) ** 2 + (py - y1) ** 2
        else:
            t = np.clip(((px - x1) * ex + (py - y1) * ey) / seg_len2, 0.0, 1.0)
            d2 = (px - (x1 + t * ex)) ** 2 + (py - (y1 + t * ey)) ** 2
        on_edge |= d2 <= tol * tol
        # standard crossing-number rule
        crosses = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (py - y1) * ex / (ey if ey != 0 else np.inf)
        inside ^= crosses & (px < xint)
    return inside | on_edge


def contains_all(poly: HullPolygon, points) -> bool:
    """True iff every point lies inside or on the polygon."""
    pts = as_point_array(points, 2)
    if pts.shape[0] == 0:
        return True
    return bool(np.all(_points_in_polygon(poly.vertices, pts)))


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

    for _ in range(2 * n + 4):
        if len(hull) == 4:
            used[start] = False  # start point may close the hull from now on

        # the kk nearest unused points (cur is used); used rows are hull
        # members, so kk + len(hull) rows leave kk whenever that many exist
        (near,), _ = index.knn_batch(pts[cur:cur + 1], min(n, kk + len(hull)))
        cand = near[~used[near]][:kk]

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
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    raw = as_point_array(points, 2)
    if index_map is None:
        index_map = np.arange(raw.shape[0], dtype=np.intp)
    else:
        index_map = np.asarray(index_map, dtype=np.intp)
        if index_map.shape != (raw.shape[0],):
            raise ValueError("index_map must map every input point")

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
        poly = HullPolygon(pts[order], sources[order], kk)
        if polygon_is_simple(poly) and contains_all(poly, pts):
            return poly

    # terminal fallback: the convex hull is the k -> count-1 limit and always
    # satisfies the contract for non-collinear input
    order = monotone_chain(pts)
    if len(order) >= 3:
        order = _oriented_ccw(order, pts)
        return HullPolygon(pts[order], sources[order], n - 1)
    raise HullFailed("no neighbor count produced a valid hull")
