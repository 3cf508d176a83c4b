"""k-nearest-neighbor concave hull of a projected 2D point set.

The boundary walk starts at the lowest-v point and repeatedly picks, among
the k nearest unused points ordered by largest right-hand turn from the
previous edge, the first whose new edge intersects (crosses or touches) no
earlier hull edge but the one it continues and, when it closes the walk,
the first.  If the walk cannot close, or the closed polygon is not simple,
or some input point falls outside, the neighbor count is increased and the
walk retried.  `polygon_is_simple` asks the walk's question of a finished
polygon, with the same pair rule, in an edge grid of its own whose cells are
sized from the hull's vertices, not the walk's points.  When no neighbor
count up to count-1 gives a valid hull, the convex hull is returned, so
failure is unreachable for non-collinear input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HullFailed
from .geometry import DEDUPE_TOL, SpatialIndex, as_point_array, column_bounds, dedupe_rows

#: concave_hull's starting neighbor count, also refine's and the CLI's default
START_K = 20

_PAIR_BLOCK = 1 << 16  # (edge, point) pairs per vectorized pass: bounds memory
_WALK_SLACK = 8  # walk rows asked beyond kk and the used rows the last step met
_LONG_CELLS = 16  # grid cells an edge or query box covers before it takes a scan list


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


class _EdgeGrid:
    """A polygon's edges, registered in order and bucketed in a uniform grid
    of square cells (Franklin et al., Auto-Carto 9, 1989), so that an
    intersection test reads only the edges near its segment.

    A coordinate's cell index is its offset from `origin` in units of
    `cell`, truncated.  An edge is registered in every cell its bounding box
    covers, or, when that is more than `_LONG_CELLS` cells, on a short list
    that every query scans; a query whose box covers more than that many
    cells scans every edge.  The cell index is monotone in the coordinate,
    so an edge whose box meets the query's shares a cell with it or sits on
    one of those lists.  Of the edges read, only those whose boxes meet the
    query's are tested, so the cell size changes the cost, never an answer.
    """

    def __init__(self, origin: tuple[float, float], cell: float):
        self._x0, self._y0 = origin
        self._cell = cell
        self._cells: dict[tuple[int, int], list[tuple]] = {}
        self._long: list[tuple] = []  # edges covering more than _LONG_CELLS cells
        self._edges: list[tuple] = []  # every edge, in registration order

    @classmethod
    def over(cls, pts: np.ndarray) -> _EdgeGrid:
        """An empty grid for edges between the (n, 2) points, with cells
        about three mean point spacings wide (unit cells if the points
        coincide)."""
        lo, hi = column_bounds(pts)
        x0, y0 = float(lo[0]), float(lo[1])
        extent = max(float(hi[0]) - x0, float(hi[1]) - y0)
        return cls((x0, y0), 3.0 * extent / math.sqrt(pts.shape[0]) or 1.0)

    def _cover(self, lx: float, hx: float, ly: float, hy: float):
        """The first and last cell column and row a box covers, or None
        when it covers more than `_LONG_CELLS` cells."""
        x0, y0, cell = self._x0, self._y0, self._cell
        i0, i1 = int((lx - x0) / cell), int((hx - x0) / cell)
        j0, j1 = int((ly - y0) / cell), int((hy - y0) / cell)
        if (i1 - i0 + 1) * (j1 - j0 + 1) > _LONG_CELLS:
            return None
        return i0, i1, j0, j1

    def add(self, ax: float, ay: float, bx: float, by: float) -> None:
        """Register the edge a-b, after every edge registered before it."""
        lx, hx = (ax, bx) if ax <= bx else (bx, ax)
        ly, hy = (ay, by) if ay <= by else (by, ay)
        edge = (ax, ay, bx, by, lx, hx, ly, hy, len(self._edges))
        self._edges.append(edge)
        cover = self._cover(lx, hx, ly, hy)
        if cover is None:
            self._long.append(edge)
            return
        i0, i1, j0, j1 = cover
        cells = self._cells
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                cells.setdefault((i, j), []).append(edge)

    def intersects(self, px: float, py: float, qx: float, qy: float, closing: bool) -> bool:
        """True if the next edge p-q crosses or touches a registered edge
        whose bounding box meets its own, other than the last one, which
        ends at p, and, when `closing` (q is the first edge's start), the
        first.

        Edge a-b is tested as `polygon_is_simple` tests an earlier edge
        against a later one, with `orient`'s expressions term for term:
        d1 = orient(p, q, a), d2 = orient(p, q, b), d3 = orient(a, b, p)
        and d4 = orient(a, b, q).  They cross when both pairs have strictly
        opposite signs, and touch when one is zero and its point lies in
        the other segment's box.
        """
        lx, hx = (px, qx) if px <= qx else (qx, px)
        ly, hy = (py, qy) if py <= qy else (qy, py)
        cover = self._cover(lx, hx, ly, hy)
        if cover is None:
            groups = [self._edges]
        else:
            i0, i1, j0, j1 = cover
            cells = self._cells
            groups = [self._long]
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    if (i, j) in cells:
                        groups.append(cells[i, j])
        last = len(self._edges) - 1
        first = 0 if closing else -1
        ux, uy = qx - px, qy - py
        for group in groups:
            for ax, ay, bx, by, elx, ehx, ely, ehy, at in group:
                if ehx < lx or elx > hx or ehy < ly or ely > hy or at == last or at == first:
                    continue
                dx, dy = bx - ax, by - ay
                d1 = ux * (ay - py) - uy * (ax - px)
                d2 = ux * (by - py) - uy * (bx - px)
                d3 = dx * (py - ay) - dy * (px - ax)
                d4 = dx * (qy - ay) - dy * (qx - ax)
                if ((d1 < 0 < d2 or d2 < 0 < d1) and (d3 < 0 < d4 or d4 < 0 < d3)
                        or d1 == 0 and lx <= ax <= hx and ly <= ay <= hy
                        or d2 == 0 and lx <= bx <= hx and ly <= by <= hy
                        or d3 == 0 and elx <= px <= ehx and ely <= py <= ehy
                        or d4 == 0 and elx <= qx <= ehx and ely <= qy <= ehy):
                    return True
        return False


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

    The polygon is replayed through an `_EdgeGrid`, as the walk builds it:
    each edge, the closing one last, is tested against the edges before it
    and then registered.  So each pair whose boxes meet is tested once, with
    the earlier edge as a-b.  A pair with disjoint boxes cannot touch, and
    in exact arithmetic cannot cross, so it is never tested.  The work is
    O(H) expected for edges about as long as the vertex spacing.
    """
    verts = as_point_array(verts, 2, "polygon vertex coordinates")
    n = verts.shape[0]
    if n < 4:
        return True  # a triangle's edges are pairwise adjacent
    grid = _EdgeGrid.over(verts)
    rows = verts.tolist()
    for j, (px, py) in enumerate(rows):
        qx, qy = rows[(j + 1) % n]
        if grid.intersects(px, py, qx, qy, j == n - 1):
            return False
        grid.add(px, py, qx, qy)
    return True


def _points_in_polygon(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Inside-or-on test for each point (ray casting, and on an edge within
    `DEDUPE_TOL`).

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
    pad = 2.0 * DEDUPE_TOL + 4.0 * np.finfo(np.float64).eps * reach
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
        on_edge[k[d2 <= DEDUPE_TOL * DEDUPE_TOL]] = True
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
    verts = as_point_array(verts, 2, "polygon vertex coordinates")
    pts = as_point_array(points, 2, "tested point coordinates")
    return bool(np.all(_points_in_polygon(verts, pts)))


def monotone_chain(pts: np.ndarray) -> list[int]:
    """Convex hull indices, CCW, keeping collinear boundary points."""
    order = sorted(range(pts.shape[0]), key=lambda i: (pts[i, 0], pts[i, 1]))

    def chain(rows) -> list[int]:  # one chain, its last row left to the other
        out: list[int] = []
        for i in rows:
            while len(out) >= 2 and orient(pts[out[-2]], pts[out[-1]], pts[i]) < 0:
                out.pop()
            out.append(i)
        return out[:-1]

    return chain(order) + chain(reversed(order))


def _start_row(pts: np.ndarray) -> int:
    """The walk's first row: lowest v, then lowest u, then lowest index, as
    the first row of `np.lexsort((u, v))` but in O(n)."""
    low = np.flatnonzero(pts[:, 1] == pts[:, 1].min())
    return int(low[np.argmin(pts[low, 0])])


def _walk(pts: np.ndarray, index: SpatialIndex, kk: int, warm: np.ndarray) -> list[int] | None:
    """One Moreira-Santos boundary walk; None when it cannot close.

    The distinct rows `warm` are ranked in one batched query before the walk
    starts; a step from one of them reads its candidates from that table and
    any other step queries its own row.  Both are prefixes of the same
    (d², index) ranking, so `warm` changes the cost, never the walk.  The
    hull edges sit in an `_EdgeGrid`, so a candidate is tested against the
    edges near it only, and is refused when it crosses or touches one: a
    collinear closing edge that doubles back over the hull never closes it.
    """
    n = pts.shape[0]
    slot = np.full(n, -1, dtype=np.intp)  # row of `table` ranked from each warm row
    slot[warm] = np.arange(warm.size)
    table = index.knn_batch(pts[warm], min(n, kk + _WALK_SLACK))[0] if warm.size else None
    grid = _EdgeGrid.over(pts)
    start = _start_row(pts)
    hull = [start]
    used = np.zeros(n, dtype=bool)
    used[start] = True
    cur = start
    px, py = pts[start].tolist()
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
        xy = pts.take(cand, axis=0)
        angles = np.arctan2(xy[:, 1] - py, xy[:, 0] - px)
        order = np.mod(prev_angle - angles, 2.0 * np.pi).argsort(kind="stable")

        # most steps take the first candidate, so rows are read one by one
        nxt = -1
        for j in order:
            qx, qy = xy[j].tolist()
            if not grid.intersects(px, py, qx, qy, cand[j] == start):
                nxt = int(cand[j])
                break
        if nxt < 0:
            return None
        if nxt == start:
            return hull
        grid.add(px, py, qx, qy)
        hull.append(nxt)
        used[nxt] = True
        prev_angle = float(np.arctan2(py - qy, px - qx))
        cur, px, py = nxt, qx, qy
    return None


def _ccw_polygon(order: list[int], pts: np.ndarray, sources: np.ndarray, k: int) -> HullPolygon:
    """The hull over rows `order` of `pts`, reversed after its first row if clockwise."""
    if _signed_area(pts[order]) < 0:
        order = [order[0]] + order[1:][::-1]
    return HullPolygon(pts[order], sources[order], k)


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
    raw = as_point_array(points, 2, "hull point coordinates")
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
        return _ccw_polygon([0, 1, 2], pts, sources, min(k, n - 1))

    index = SpatialIndex(pts)
    warm = np.flatnonzero(np.isin(sources, [] if likely is None else likely))
    for kk in range(min(k, n - 1), n):
        order = _walk(pts, index, kk, warm)
        if order is None:
            continue
        hull = _ccw_polygon(order, pts, sources, kk)
        if polygon_is_simple(hull.vertices) and contains_all(hull.vertices, pts):
            return hull

    # terminal fallback: the convex hull is the k -> count-1 limit and always
    # satisfies the contract for non-collinear input
    order = monotone_chain(pts)
    if len(order) >= 3:
        return _ccw_polygon(order, pts, sources, n - 1)
    raise HullFailed("no neighbor count produced a valid hull")
