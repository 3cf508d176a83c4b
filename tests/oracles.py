"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written as plain loops / direct formula
evaluation, separate from the library's own code paths.
"""

import math

import numpy as np
from scipy import ndimage

from cloudsr.camera import pinhole
from cloudsr.edges import _smoothed_array, _sobel
from cloudsr.geometry import DEDUPE_TOL, SpatialIndex
from cloudsr.hull import orient
from cloudsr.losses import LossReport, LossWeights, _gs_gradient, _gs_loss


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


def brute_intersecting_pairs(vertices):
    """Scalar pair loop: each pair (i, j), i < j, of non-adjacent edges of
    the closed polygon that intersect (touching and collinear overlap
    count), edge i running from vertex i to vertex i + 1."""
    verts = np.asarray(vertices, dtype=np.float64)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share an endpoint legitimately
            c, d = verts[j], verts[(j + 1) % n]
            if _segments_intersect(a, b, c, d):
                yield i, j


def brute_polygon_is_simple(vertices):
    """True iff no two non-adjacent edges of the closed polygon intersect."""
    return next(brute_intersecting_pairs(vertices), None) is None


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


def all_edges_crosses_any(p, q, e0, e1):
    """The walk's test of its next edge p-q by a loop over every hull edge
    e0[i]-e1[i]: True if p-q intersects (touching counts) one whose bounding
    box meets its own.  The last edge, which ends at p, is skipped, and so is
    the first when q is e0[0], where p-q closes the hull."""
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    for i in range(len(e0) - 1):
        if i == 0 and np.array_equal(q, e0[0]):
            continue
        if np.any(np.minimum(e0[i], e1[i]) > hi) or np.any(np.maximum(e0[i], e1[i]) < lo):
            continue
        if _segments_intersect(e0[i], e1[i], p, q):
            return True
    return False


def full_width_walk(pts, index, kk, warm=None):
    """The hull walk asking for `kk + len(hull)` neighbours at every step,
    enough to leave kk unused rows without widening.  A copy of
    `cloudsr.hull._walk` before its query width became adaptive and before it
    ranked the `warm` rows ahead (ignored here), and before its intersection
    test read only nearby edges: each candidate is tested against every hull
    edge by `all_edges_crosses_any`."""
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
            if not all_edges_crosses_any(pts[cur], pts[c], e0, e1):
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


def numpy_scalar_ply_body(points):
    """The ASCII PLY vertex lines, one `%.17g` per numpy float64 scalar and
    one `%` per row: the bytes `write_ply` must write, though it computes
    the fixed-notation values by array arithmetic and formats the rest with
    one `%` per block."""
    lines = ["%.17g %.17g %.17g" % (x, y, z) for x, y, z in points]
    return ("\n".join(lines) + "\n").encode("ascii")


def float32_binary_ply(points):
    """A binary little-endian PLY of float32 vertices: the reader takes
    them, though `write_ply` writes float64 only."""
    pts = np.asarray(points, dtype="<f4")
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex %d\n"
              "property float x\nproperty float y\nproperty float z\nend_header\n"
              % pts.shape[0])
    return header.encode("ascii") + pts.tobytes()


def plain_graymap(pixels):
    """A plain (P2) graymap of [0, 1] pixels at maxval 255: the reader takes
    it, though `write_pixmap` writes raw P5 only."""
    quant = np.rint(np.asarray(pixels) * 255).astype(np.uint8)
    rows = "\n".join(" ".join(str(v) for v in row) for row in quant)
    return ("P2\n%d %d\n255\n%s\n" % (quant.shape[1], quant.shape[0], rows)).encode("ascii")


def project_homogeneous(p, k_rgb, e_rgb, e_tof):
    """Projection via direct homogeneous-matrix evaluation.

    Builds the full 4x4 chain from the two `Extrinsics` with a generic
    matrix inverse, multiplies the homogeneous point through, applies the
    3x3 matrix of the `Intrinsics` `k_rgb`, and divides by depth.  Returns
    (u, v, z_rgb).
    """
    homo = np.array([p[0], p[1], p[2], 1.0], dtype=np.float64)
    chain = np.linalg.inv(e_rgb.matrix) @ e_tof.matrix
    rgb = chain @ homo
    k_mat = np.array([[k_rgb.fx, 0.0, k_rgb.cx], [0.0, k_rgb.fy, k_rgb.cy], [0.0, 0.0, 1.0]])
    img = k_mat @ rgb[:3]
    return img[0] / img[2], img[1] / img[2], rgb[2]


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


def brute_drop_closest(pts, m):
    """Ascending indices of the m rows left after repeatedly dropping the
    higher-index row of the closest remaining pair, found by `argmin` over
    the full pair matrix: the O(n^2) form the library's heap must reproduce.
    Squared distances use the library's per-coordinate left fold."""
    n = pts.shape[0]
    diff = pts[:, None, 0] - pts[None, :, 0]
    d2 = diff * diff
    for axis in range(1, pts.shape[1]):
        diff = pts[:, None, axis] - pts[None, :, axis]
        d2 = d2 + diff * diff
    # only pairs (i, j) with i < j; row-major argmin takes the lowest i, then j
    d2[np.tril_indices(n)] = np.inf
    alive = np.ones(n, dtype=bool)
    for _ in range(n - m):
        _, hi = np.unravel_index(np.argmin(d2), d2.shape)
        alive[hi] = False
        d2[hi, :] = np.inf
        d2[:, hi] = np.inf
    return np.flatnonzero(alive)


def lexsort_voxel_bin_count(pts, origin, edge):
    """Occupied-voxel count by a `lexsort` of the float key rows: the form the
    library's folded one-key count must reproduce."""
    # float keys: at the bisection's smallest edge an index can exceed int64
    keys = np.floor((pts - origin) / edge)
    keys = keys[np.lexsort(keys.T)]
    return 1 + int(np.count_nonzero(np.any(keys[1:] != keys[:-1], axis=1)))


def unique_voxel_centroids(pts, origin, edge):
    """Centroid of each occupied voxel, ordered by voxel key, grouped by
    `np.unique(axis=0)` of the float key rows and summed with `np.add.at`,
    the form the library's per-column `bincount` must reproduce."""
    keys = np.floor((pts - origin) / edge)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((uniq.shape[0], pts.shape[1]))
    np.add.at(sums, inverse, pts)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(np.float64)
    return sums / counts[:, None]


def unique_dedupe_rows(arr):
    """Ascending indices of the first row of each `DEDUPE_TOL` grid cell, by
    `np.unique(axis=0, return_index=True)` of the snapped rows."""
    if arr.shape[0] == 0:
        return np.arange(0, dtype=np.intp)
    # float keys: an int64 cast would wrap beyond about 9.2e9
    keys = np.round(arr / DEDUPE_TOL)
    _, first = np.unique(keys, axis=0, return_index=True)
    return np.sort(first)


def all_pairs_midpoint_pool(pts, k_interp):
    """The pool after one densify midpoint round, mirrored pairs included:
    the midpoint of every row and each of its min(k_interp + 1, n) nearest
    rows by `flat_knn`, itself excluded, in row order, appended to the pool
    and deduped by `unique_dedupe_rows`."""
    n = pts.shape[0]
    nbrs, _ = flat_knn(pts, pts, min(k_interp + 1, n))
    mids = [0.5 * (pts[r] + pts[c]) for r in range(n) for c in nbrs[r] if c != r]
    grown = np.vstack([pts, np.reshape(mids, (-1, pts.shape[1]))])
    return grown[unique_dedupe_rows(grown)]


def add_at_gs_gradient(verts):
    """Gradient of the second-difference smoothness sum scattered with
    `np.add.at`, the form the library's three slice adds must reproduce."""
    n = verts.shape[0]
    grad = np.zeros((n, 2))
    delta = verts[2:] - 2.0 * verts[1:-1] + verts[:-2]
    norms = np.hypot(delta[:, 0], delta[:, 1])
    safe = norms > DEDUPE_TOL  # the library's kink cutoff
    unit = np.zeros_like(delta)
    unit[safe] = delta[safe] / norms[safe, None]
    idx = np.arange(n - 2)
    np.add.at(grad, idx, unit)
    np.add.at(grad, idx + 1, -2.0 * unit)
    np.add.at(grad, idx + 2, unit)
    return grad


def add_at_cd_gradient(p, r, e2h, h2e):
    """Chamfer gradient scattered with `np.add.at`, the form the library's
    per-column `bincount` must reproduce."""
    grad = np.zeros((p.shape[0], 2))
    np.add.at(grad, e2h, 2.0 * (p[e2h] - r))
    grad += 2.0 * (p - r[h2e])
    return grad


def two_index_combined_loss(table, verts, w=LossWeights()):
    """`cloudsr.losses.combined_loss` as it was before a hull window shared
    one table of match candidates: it reads only the edge index
    `table.edges`, indexes the vertices anew and queries both index sets in
    full on every call."""
    edges = table.edges
    r = edges.points
    p = np.asarray(verts, dtype=np.float64)
    n = p.shape[0]

    e2h, d2_e2h = SpatialIndex(p).nearest_batch(r)
    h2e, d2_h2e = edges.nearest_batch(p)

    l_cd = float(np.sum(d2_e2h) + np.sum(d2_h2e))
    grad_cd = add_at_cd_gradient(p, r, e2h, h2e)

    i_e = int(np.argmax(d2_e2h))
    i_h = int(np.argmax(d2_h2e))
    d_e2h = float(np.sqrt(d2_e2h[i_e]))
    d_h2e = float(np.sqrt(d2_h2e[i_h]))
    grad_hd = np.zeros((n, 2))
    if d_e2h >= d_h2e:
        l_hd = d_e2h
        if d_e2h > 0.0:
            grad_hd[e2h[i_e]] = (p[e2h[i_e]] - r[i_e]) / d_e2h
    else:
        l_hd = d_h2e
        if d_h2e > 0.0:
            grad_hd[i_h] = (p[i_h] - r[h2e[i_h]]) / d_h2e

    l_gs = _gs_loss(p)
    total = w.alpha * l_cd + w.beta * l_hd + w.gamma * l_gs
    grad = w.alpha * grad_cd + w.beta * grad_hd + w.gamma * _gs_gradient(p)
    return LossReport(l_cd=l_cd, l_hd=l_hd, l_gs=l_gs, total=total, grad=grad)


def _cell_centers(n):
    return (np.arange(n) + 0.5) / n - 0.5


def square_samples(extent, density):
    """Cell-centered grid samples of a square at z = 0, written out apart
    from the box's faces."""
    n = max(1, round(extent * np.sqrt(density)))
    ticks = _cell_centers(n) * extent
    xs, ys = np.meshgrid(ticks, ticks)
    return np.stack([xs.ravel(), ys.ravel(), np.zeros(n * n)], axis=1)


def six_face_box_samples(extent, density, cam_local):
    """Cell-centered samples of the cube faces that face `cam_local`, each
    of the six faces and its outward normal written out by hand, in the
    order z-, z+, y-, y+, x-, x+."""
    n = max(1, round(extent * np.sqrt(density)))
    ticks = _cell_centers(n) * extent
    a, b = np.meshgrid(ticks, ticks)
    a, b = a.ravel(), b.ravel()
    h = extent / 2.0
    faces = [
        (np.stack([a, b, np.full_like(a, -h)], 1), np.array([0.0, 0, -1])),
        (np.stack([a, b, np.full_like(a, h)], 1), np.array([0.0, 0, 1])),
        (np.stack([a, np.full_like(a, -h), b], 1), np.array([0.0, -1, 0])),
        (np.stack([a, np.full_like(a, h), b], 1), np.array([0.0, 1, 0])),
        (np.stack([np.full_like(a, -h), a, b], 1), np.array([-1.0, 0, 0])),
        (np.stack([np.full_like(a, h), a, b], 1), np.array([1.0, 0, 0])),
    ]
    visible = [pts for pts, normal in faces if np.dot(normal, cam_local - normal * h) > 0]
    return np.vstack(visible)


def convex_silhouette_mask(rig, tof_pts):
    """Pixels whose centers fall inside the convex hull of projected points,
    edges included: the silhouette `synth` drew for square and box before it
    cast one ray per pixel."""
    proj, z = pinhole(tof_pts, rig)
    assert np.all(z > 0), "every point must lie in front of the camera"
    hull = proj[monotone_chain(proj)]
    us, vs = np.meshgrid(np.arange(rig.width, dtype=float),
                         np.arange(rig.height, dtype=float))
    pixels = np.stack([us, vs], axis=-1)
    inside = np.ones(us.shape, dtype=bool)
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        inside &= orient(a, b, pixels) >= 0.0  # CCW hull: inside is left of every edge
    return inside


def sphere_silhouette_mask(rig, center_tof, radius):
    """Pixels whose center ray passes within `radius` of the sphere center,
    ahead of the camera: the sphere silhouette `synth` drew before it cast
    one ray per pixel for every shape."""
    c = center_tof @ rig.rotation.T + rig.translation
    assert c[2] > radius, "the sphere must lie in front of the camera"
    k = rig.k_rgb
    us, vs = np.meshgrid(np.arange(rig.width), np.arange(rig.height))
    rays = np.stack(
        [(us - k.cx) / k.fx, (vs - k.cy) / k.fy, np.ones_like(us, dtype=float)],
        axis=2,
    )
    along = rays @ c / np.linalg.norm(rays, axis=2)
    perp2 = float(c @ c) - along**2
    return (along > 0) & (perp2 <= radius * radius)


def silhouette_mask(spec, rig):
    """The silhouette of a synth scene by the two forms above: the sphere
    form for a sphere, else the convex hull of the shape's projected corners."""
    h = spec.extent / 2.0
    if spec.shape == "sphere":
        return sphere_silhouette_mask(rig, spec.pose.translation, h)
    if spec.shape == "square-plane":
        corners = np.array([[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]])
    else:
        corners = np.array([[sx * h, sy * h, sz * h]
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return convex_silhouette_mask(rig, corners @ spec.pose.rotation.T + spec.pose.translation)


def sobel_gradient(pixels):
    """Sobel gradient (magnitude, direction) arrays of a 2D intensity array,
    from the library's (Gx, Gy).

    Direction is atan2(Gy, Gx) with the -pi boundary folded to +pi so the
    range is the half-open (-pi, pi].
    """
    gx, gy = _sobel(pixels)
    theta = np.arctan2(gy, gx)
    return np.hypot(gx, gy), np.where(theta <= -np.pi, np.pi, theta)


def dense_canny(img, params):
    """Canny with non-maximum suppression over every pixel of the image,
    not only those at or above the low threshold: the (E, 2) edge pixels
    as `edges.canny` returns them, from the same gradient, thresholds and
    hysteresis."""
    band = math.ceil(3.0 * params.sigma) + 1
    mag, theta = sobel_gradient(_smoothed_array(img.pixels, params.sigma))
    gmax = float(mag.max())
    h, w = mag.shape
    padded = np.full((h + 2, w + 2), np.inf)
    padded[1:-1, 1:-1] = mag
    bins = np.round(np.mod(theta, np.pi) / (np.pi / 4.0)).astype(np.int64) % 4
    keep = np.zeros_like(mag, dtype=bool)
    for b, (dr, dc) in enumerate([(0, 1), (1, 1), (1, 0), (1, -1)]):
        fwd = padded[1 + dr:h + 1 + dr, 1 + dc:w + 1 + dc]
        bwd = padded[1 - dr:h + 1 - dr, 1 - dc:w + 1 - dc]
        keep |= (bins == b) & (mag >= bwd) & (mag > fwd)
    weak = keep & (mag >= params.low * gmax)
    strong = keep & (mag >= params.high * gmax)
    labels, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=bool))
    edges = weak & np.isin(labels, labels[strong])
    edges[:band, :] = edges[-band:, :] = False
    edges[:, :band] = edges[:, -band:] = False
    rows, cols = np.nonzero(edges)
    return np.stack([cols, rows], axis=1).astype(np.float64)
