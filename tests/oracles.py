"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written as plain loops / direct formula
evaluation, separate from the library's own code paths.
"""

import math

import numpy as np

from cloudsr.hull import _crosses_any


def _sqdist(p, q):
    total = 0.0
    for a, b in zip(p, q):
        d = float(a) - float(b)
        total += d * d  # multiply, not **2: libm pow(x, 2) can round differently
    return total


def linear_nn(points, query):
    """Exhaustive nearest neighbor; ties broken by lowest index."""
    best_i, best_d = -1, math.inf
    for i, p in enumerate(points):
        d = math.sqrt(_sqdist(p, query))
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def linear_knn(points, query, k):
    """Exhaustive k nearest neighbors with the lowest-index tie rule."""
    d2 = [(_sqdist(p, query), i) for i, p in enumerate(points)]
    d2.sort()  # (distance, index) lexicographic == tie rule
    return [(i, math.sqrt(d)) for d, i in d2[:k]]


def flat_knn(points, queries, k, chunk=512):
    """Vectorized exhaustive k nearest neighbors, the flat scan the library's
    index replaced: (M, k) indices and squared distances, each row sorted by
    (squared distance, index).  Squared distances are the left fold
    d0*d0 + d1*d1 + ..., the operation order of `_sqdist`."""
    pts = np.asarray(points, dtype=np.float64)
    qs = np.asarray(queries, dtype=np.float64)
    idx = np.empty((qs.shape[0], k), dtype=np.intp)
    sqd = np.empty((qs.shape[0], k), dtype=np.float64)
    for lo in range(0, qs.shape[0], chunk):
        q = qs[lo:lo + chunk, None, :]
        d = pts[None, :, 0] - q[..., 0]
        d2 = d * d
        for axis in range(1, pts.shape[1]):
            d = pts[None, :, axis] - q[..., axis]
            d2 = d2 + d * d
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        idx[lo:lo + chunk] = order
        sqd[lo:lo + chunk] = np.take_along_axis(d2, order, axis=1)
    return idx, sqd


def brute_chamfer(a, b):
    """O(n^2) Chamfer sum: squared NN distances, both directions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for p in a:
        total += min(float(np.sum((p - q) ** 2)) for q in b)
    for q in b:
        total += min(float(np.sum((q - p) ** 2)) for p in a)
    return total


def brute_hausdorff(a, b):
    """O(n^2) symmetric Hausdorff distance (unsquared)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def directed(src, dst):
        return max(
            min(math.sqrt(float(np.sum((p - q) ** 2))) for q in dst) for p in src
        )

    return max(directed(a, b), directed(b, a))


def monotone_chain(points):
    """Convex hull (Andrew's monotone chain), CCW, as indices into `points`.

    Collinear boundary points are kept (strict turns only pop), so for a set
    in convex position every point appears on the hull.
    """
    pts = np.asarray(points, dtype=np.float64)
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))

    def cross(o, a, b):
        return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) - (
            pts[a][1] - pts[o][1]
        ) * (pts[b][0] - pts[o][0])

    lower = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) < 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) < 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _segments_intersect(p1, p2, p3, p4):
    """Full segment intersection test, including collinear overlap and
    endpoint touching."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and on_segment(p3, p4, p1):
        return True
    if d2 == 0 and on_segment(p3, p4, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, p3):
        return True
    if d4 == 0 and on_segment(p1, p2, p4):
        return True
    return False


def brute_polygon_is_simple(vertices):
    """Scalar pair loop: True iff no two non-adjacent edges of the closed
    polygon intersect (touching and collinear overlap count)."""
    verts = np.asarray(vertices, dtype=np.float64)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint legitimately
            c, d = verts[j], verts[(j + 1) % n]
            if _segments_intersect(a, b, c, d):
                return False
    return True


def brute_points_in_polygon(vertices, points, tol=1e-9):
    """Per-point, per-edge scalar loop: True where a point lies within `tol`
    of an edge of the closed polygon or inside it by the crossing-number
    rule (a horizontal ray to +u, an edge counted when its endpoints lie on
    opposite sides of the ray's line, the upper endpoint excluded)."""
    verts = [(float(x), float(y)) for x, y in vertices]
    n = len(verts)
    out = []
    for px, py in points:
        px, py = float(px), float(py)
        inside = on_edge = False
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            ex, ey = x2 - x1, y2 - y1
            seg_len2 = ex * ex + ey * ey
            t = 0.0
            if seg_len2 != 0.0:
                t = min(max(((px - x1) * ex + (py - y1) * ey) / seg_len2, 0.0), 1.0)
            dx, dy = px - (x1 + t * ex), py - (y1 + t * ey)
            on_edge = on_edge or dx * dx + dy * dy <= tol * tol
            if (y1 > py) != (y2 > py) and px < x1 + (py - y1) * ex / ey:
                inside = not inside
        out.append(inside or on_edge)
    return out


def full_width_walk(pts, index, kk):
    """The hull walk asking for `kk + len(hull)` neighbours at every step,
    enough to leave kk unused rows without widening.  A copy of
    `cloudsr.hull._walk` before its query width became adaptive; the
    crossing test is the library's, unchanged."""
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

        (near,), _ = index.knn_batch(pts[cur:cur + 1], min(n, kk + len(hull)))
        cand = near[~used[near]][:kk]

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


def project_homogeneous(p, k_mat, e_rgb, e_tof):
    """Projection via direct homogeneous-matrix evaluation.

    Builds the full 4x4 chain with a generic matrix inverse, multiplies the
    homogeneous point through, applies the 3x3 intrinsic matrix, and divides
    by depth.  Returns (u, v, z_rgb).
    """
    homo = np.array([p[0], p[1], p[2], 1.0], dtype=np.float64)
    chain = np.linalg.inv(np.asarray(e_rgb, dtype=np.float64)) @ np.asarray(
        e_tof, dtype=np.float64
    )
    rgb = chain @ homo
    img = np.asarray(k_mat, dtype=np.float64) @ rgb[:3]
    return img[0] / img[2], img[1] / img[2], rgb[2]


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at flat vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def random_rotation(rng):
    """Uniform-ish random rotation matrix with determinant +1."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def matrix_chamfer(a, b):
    """O(n^2) Chamfer via a full pairwise distance matrix."""
    d2 = ((np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]) ** 2).sum(-1)
    return float(d2.min(axis=1).sum() + d2.min(axis=0).sum())


def matrix_hausdorff(a, b):
    """O(n^2) symmetric Hausdorff via a full pairwise distance matrix."""
    d = np.sqrt(((np.asarray(a)[:, None, :] - np.asarray(b)[None, :, :]) ** 2).sum(-1))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def sample_far_from_ties(rng, n_edge, n_hull, margin=1e-3, span=20.0):
    """Random (edge set, hull vertices) with every discrete choice of the
    combined loss -- NN matches, directed argmaxes, max direction, and
    smoothness kinks -- at least `margin` away from a tie, so central
    finite differences of the true loss equal the fixed-match gradient."""
    while True:
        r = rng.uniform(0, span, size=(n_edge, 2))
        p = rng.uniform(0, span, size=(n_hull, 2))
        ok = True
        for a, b in ((r, p), (p, r)):
            d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
            d_sorted = np.sort(d, axis=1)
            if b.shape[0] > 1 and np.min(d_sorted[:, 1] - d_sorted[:, 0]) < margin:
                ok = False  # NN match nearly tied
            nn = d_sorted[:, 0]
            top = np.sort(nn)[::-1]
            if len(top) > 1 and top[0] - top[1] < margin:
                ok = False  # directed argmax nearly tied
        d_rp = np.min(np.sqrt(((r[:, None] - p[None]) ** 2).sum(-1)), axis=1)
        d_pr = np.min(np.sqrt(((p[:, None] - r[None]) ** 2).sum(-1)), axis=1)
        if abs(d_rp.max() - d_pr.max()) < margin:
            ok = False  # direction tie
        dg = np.diff(np.diff(p, axis=0), axis=0)
        if np.min(np.hypot(dg[:, 0], dg[:, 1])) < margin:
            ok = False  # smoothness kink: FD ill-posed
        if ok:
            return r, p


def brute_farthest_point_select(pts, m):
    """Farthest-point (max-min) selection that updates every row's distance
    to the chosen set after each pick: the exhaustive O(n * m) form the
    library's tree-pruned selection must reproduce index for index."""
    d0 = np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)
    chosen = [int(np.argmax(d0))]
    dmin = np.sum((pts - pts[chosen[0]]) ** 2, axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        dmin = np.minimum(dmin, np.sum((pts - pts[nxt]) ** 2, axis=1))
    return np.array(chosen, dtype=np.intp)
