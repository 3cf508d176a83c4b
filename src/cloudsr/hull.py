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

from .errors import HullFailed
from .geometry import SpatialIndex, as_point_array, dedupe_rows, require_bounded

#: concave_hull's starting neighbor count, also refine's and the CLI's default
START_K = 20

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


def _strictly_apart(d1, d2):
    """Two orientations of strictly opposite sign: a zero never counts."""
    return ((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))


def _proper_crossing(d1, d2, d3, d4):
    """Segments a-b and c-d cross properly, from d1 = orient(c, d, a),
    d2 = orient(c, d, b), d3 = orient(a, b, c), d4 = orient(a, b, d): strict
    opposite signs on both, so a zero orientation (a touch) never counts."""
    return _strictly_apart(d1, d2) & _strictly_apart(d3, d4)


def _crosses_any(p, q, e0: np.ndarray, e1: np.ndarray) -> bool:
    """True if open segment p-q properly crosses any segment e0[i]-e1[i].

    Shared endpoints do not count (an orientation is zero there), which is
    exactly what the walk needs when testing against adjacent hull edges.
    Only the edges whose line strictly separates p from q can cross, so the
    orientations against p-q are taken on those alone.  The orientations
    are `orient`'s expressions term for term, with p and q as Python floats
    and the edges' columns as arrays, so each of the walk's thousands of
    short tests makes few numpy calls; two are strictly apart when the
    product of their signs is negative.
    """
    (px, py), (qx, qy) = p.tolist(), q.tolist()
    ax, ay = e0.T
    bx, by = e1.T
    dx, dy = bx - ax, by - ay
    split = np.sign(dx * (py - ay) - dy * (px - ax)) * np.sign(dx * (qy - ay) - dy * (qx - ax)) < 0
    if not split.any():
        return False
    ax, ay, bx, by = ax[split], ay[split], bx[split], by[split]
    ux, uy = qx - px, qy - py
    return bool(np.any(
        np.sign(ux * (ay - py) - uy * (ax - px)) * np.sign(ux * (by - py) - uy * (bx - px)) < 0))


def _on_segment(a, b, c):
    """c inside the bounding box of segment a-b (for collinear c)."""
    return np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)), axis=-1)


def _pairs(counts: np.ndarray):
    """Every (row, offset) with 0 <= offset < counts[row], in row-major
    order, as index arrays of at most `_PAIR_BLOCK` pairs each: one block
    per vectorized pass, so memory stays O(rows + _PAIR_BLOCK)."""
    ends = np.cumsum(counts)
    total = int(np.sum(counts))
    for lo in range(0, total, _PAIR_BLOCK):
        flat = np.arange(lo, min(lo + _PAIR_BLOCK, total))
        row = np.searchsorted(ends, flat, side="right")
        yield row, flat - (ends[row] - counts[row])


def polygon_is_simple(verts: np.ndarray) -> bool:
    """True iff no pair of non-adjacent edges of the closed polygon over the
    (H, 2) vertices intersects (touching counts).

    A sweep over the edges' u-extents (Shamos & Hoey): the edges are sorted
    by their smallest u, and one `searchsorted` lists, for each edge, the
    later ones whose closed u-interval meets its own, `_PAIR_BLOCK` listed
    pairs per vectorized pass.  Of those, the pairs whose v-intervals meet
    too, less the adjacent ones (j = i + 1 and (0, H - 1)), are tested with
    the same predicates as edge i against edge j for i < j; a touch is
    looked for only where an orientation is exactly zero.  A pair with
    disjoint boxes cannot touch, and in exact arithmetic cannot cross, so
    it is never tested.  The work is O(H log H + pairs whose u-intervals
    meet) and the memory O(H + _PAIR_BLOCK).
    """
    a = verts
    b = np.roll(a, -1, axis=0)
    n = a.shape[0]
    if n < 4:
        return True  # a triangle's edges are pairwise adjacent
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.argsort(lo[:, 0], kind="stable")
    # sorted row p pairs with every later row that starts by its u end
    ends = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    for p, offset in _pairs(ends - np.arange(1, n + 1)):
        e, f = order[p], order[p + 1 + offset]
        i, j = np.minimum(e, f), np.maximum(e, f)
        test = ((np.maximum(lo[i, 1], lo[j, 1]) <= np.minimum(hi[i, 1], hi[j, 1]))
                & (j - i > 1) & (j - i < n - 1))
        i, j = i[test], j[test]
        ai, bi, c, d = a[i], b[i], a[j], b[j]
        d1 = orient(c, d, ai)
        d2 = orient(c, d, bi)
        d3 = orient(ai, bi, c)
        d4 = orient(ai, bi, d)
        if np.any(_proper_crossing(d1, d2, d3, d4)):
            return False
        z = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
        ai, bi, c, d = ai[z], bi[z], c[z], d[z]
        touch = (
            ((d1[z] == 0) & _on_segment(c, d, ai))
            | ((d2[z] == 0) & _on_segment(c, d, bi))
            | ((d3[z] == 0) & _on_segment(ai, bi, c))
            | ((d4[z] == 0) & _on_segment(ai, bi, d))
        )
        if np.any(touch):
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

    # both results are order-free (a flag OR and integer counts), so an
    # edge's band may span blocks
    crossings = np.zeros(pts.shape[0], dtype=np.intp)
    on_edge = np.zeros(pts.shape[0], dtype=bool)
    for e, offset in _pairs(count):
        k = order[first[e] + offset]
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


def _walk(pts: np.ndarray, index: SpatialIndex, kk: int, warm: np.ndarray) -> list[int] | None:
    """One Moreira-Santos boundary walk; None when it cannot close.

    The distinct rows `warm` are ranked in one batched query before the walk
    starts; a step from one of them reads its candidates from that table and
    any other step queries its own row.  Both are prefixes of the same
    (d², index) ranking, so `warm` changes the cost, never the walk.
    """
    n = pts.shape[0]
    slot = np.full(n, -1, dtype=np.intp)  # row of `table` ranked from each warm row
    slot[warm] = np.arange(warm.size)
    table = index.knn_batch(pts[warm], min(n, kk + _WALK_SLACK))[0] if warm.size else None
    start = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])  # lowest v, then u
    hull = [start]
    verts = np.empty((n + 1, 2))  # verts[:len(hull)] are pts[hull]: edges without copies
    verts[0] = pts[start]
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
        # ranking's prefixes agree, so a narrower query, or a table row, that
        # already holds kk unused rows gives the same candidates
        full = min(n, kk + len(hull))
        if slot[cur] >= 0:
            near = table[slot[cur]]
            width = near.size
        else:
            width = min(full, kk + skipped + _WALK_SLACK)
            (near,), _ = index.knn_batch(pts[cur:cur + 1], width)
        while True:
            fresh = ~used[near]
            cand = near[fresh][:kk]
            if cand.size == kk or width >= full:
                break
            width = min(full, 2 * width)
            (near,), _ = index.knn_batch(pts[cur:cur + 1], width)
        skipped = near.size - int(np.count_nonzero(fresh))

        # largest right-hand turn first: ascending clockwise angle from the
        # reversed previous edge direction
        angles = np.arctan2(pts[cand, 1] - pts[cur, 1], pts[cand, 0] - pts[cur, 0])
        diff = np.mod(prev_angle - angles, 2.0 * np.pi)
        cand = cand[np.argsort(diff, kind="stable")]

        e0 = verts[:len(hull) - 1]
        e1 = verts[1:len(hull)]
        nxt = -1
        for c in cand:
            if not _crosses_any(pts[cur], pts[c], e0, e1):
                nxt = int(c)
                break
        if nxt < 0:
            return None
        if nxt == start:
            return hull
        verts[len(hull)] = pts[nxt]
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


def concave_hull(points, index_map=None, k: int = START_K, likely=None) -> HullPolygon:
    """Concave hull of a 2D point set with 3D source back-references.

    `index_map[i]` is the 3D source index of input point i (identity when
    omitted).  `k` is the starting neighbor count; it escalates on failure.
    `likely` holds source indices expected to be hull vertices, such as the
    previous hull's; each walk ranks their points in one batched query.  It
    only changes the cost: ids that are wrong, repeated or not in `index_map`
    give the same hull.  Points beyond `geometry.COORD_LIMIT` or non-finite,
    and a repeated `index_map` entry, raise ValueError before any arithmetic.
    Fewer than three distinct points and collinear points raise HullFailed.
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
        raise HullFailed(f"need at least 3 distinct points, got {n}")
    if np.all(orient(pts[0], pts[1], pts) == 0.0):
        raise HullFailed("all points are collinear")

    if n == 3:
        order = _oriented_ccw([0, 1, 2], pts)
        return HullPolygon(pts[order], sources[order], min(k, n - 1))

    index = SpatialIndex(pts)
    warm = np.flatnonzero(np.isin(sources, [] if likely is None else likely))
    for kk in range(min(k, n - 1), n):
        order = _walk(pts, index, kk, warm)
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
