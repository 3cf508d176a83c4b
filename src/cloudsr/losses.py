"""The three 2D edge losses and their weighted combination.

Chamfer: sum of squared nearest-neighbor distances, both directions,
unnormalized.  Hausdorff: max of the two directed maxima of unsquared
nearest-neighbor distances.  Gradient-smooth: sum of magnitudes of
consecutive hull edge-vector differences over the open vertex list (the
closing edge is excluded).

Gradients are taken with nearest-neighbor matches and the Hausdorff argmax
held fixed, which equals the true gradient wherever those discrete choices
are locally constant.  The matches are ranked from a `MatchTable` of
candidates; a hull window shares one, and a call without one ranks its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CloudSRError
from .geometry import DEDUPE_TOL, SpatialIndex, as_point_array, nearest_candidate


@dataclass(frozen=True)
class LossWeights:
    """Combination coefficients for the chamfer, hausdorff, and smoothness
    terms; defaults are the tuned operating point."""

    alpha: float = 1e-5
    beta: float = 1e-2
    gamma: float = 1e-2

    def __post_init__(self):
        w = (self.alpha, self.beta, self.gamma)
        if any(x < 0 for x in w):
            raise ValueError("loss weights must be nonnegative")
        if not all(math.isfinite(x) for x in w):
            raise ValueError("loss weights must be finite")
        if not any(x > 0 for x in w):
            raise ValueError("at least one loss weight must be positive")


@dataclass
class LossReport:
    """Loss values and the gradient per hull vertex."""

    l_cd: float
    l_hd: float
    l_gs: float
    total: float
    grad: np.ndarray              # (N, 2) d total / d (u, v)


MATCH_K = 8  # candidates a MatchTable keeps per edge pixel and per vertex


@dataclass(frozen=True)
class MatchTable:
    """Nearest-neighbor candidates of one hull window, ranked once.

    Built from the (H, 2) vertex pixels `verts` of a hull refresh: each
    edge pixel keeps its `MATCH_K` nearest vertices and each vertex its
    `MATCH_K` nearest edge pixels, with the squared distance of the next
    one (+inf when the other side has no more rows).  Within the window
    the members and their order are frozen and the vertices move little,
    so `matches` proves nearly every match from the candidates alone.
    """

    verts: np.ndarray             # (H, 2) vertex pixels the table was ranked from
    edge_cand: np.ndarray         # (M, C) vertex indices per edge pixel, ascending
    edge_bound2: np.ndarray       # (M,)
    vert_cand: np.ndarray         # (H, C) edge pixel indices per vertex, ascending
    vert_bound2: np.ndarray       # (H,)

    @classmethod
    def build(cls, edges: SpatialIndex, verts) -> MatchTable:
        p = as_point_array(verts, 2, "hull vertex coordinates").copy()
        edge_cand, edge_bound2 = SpatialIndex(p).candidates(edges.points, MATCH_K)
        vert_cand, vert_bound2 = edges.candidates(p, MATCH_K)
        return cls(p, edge_cand, edge_bound2, vert_cand, vert_bound2)

    def matches(self, edges: SpatialIndex, p: np.ndarray) -> tuple[np.ndarray, ...]:
        """(e2h, d2_e2h, h2e, d2_h2e): the nearest vertex of each edge pixel
        and the nearest edge pixel of each vertex at vertex pixels `p`, with
        their squared distances, bit-identical to two full index queries.
        A row the candidates cannot settle gets its full query."""
        if p.shape != self.verts.shape:
            raise ValueError("the vertices do not match the table's hull")
        r = edges.points
        moved2 = np.sum((p - self.verts) ** 2, axis=1)
        # an edge pixel's other vertices each moved by at most the largest step
        e2h, d2_e2h, ok = nearest_candidate(p, r, self.edge_cand, self.edge_bound2,
                                            moved2.max())
        if not ok.all():
            e2h[~ok], d2_e2h[~ok] = SpatialIndex(p).nearest_batch(r[~ok])
        # a vertex's other edge pixels are where they were; the vertex moved
        h2e, d2_h2e, ok = nearest_candidate(r, p, self.vert_cand, self.vert_bound2, moved2)
        if not ok.all():
            h2e[~ok], d2_h2e[~ok] = edges.nearest_batch(p[~ok])
        return e2h, d2_e2h, h2e, d2_h2e


def gradient_smooth_loss(verts) -> float:
    """Sum of second-difference magnitudes along the open (N, 2) vertex list."""
    verts = as_point_array(verts, 2, "hull vertex coordinates")
    if verts.shape[0] < 3:
        raise CloudSRError("smoothness needs at least 3 vertices")
    g = np.diff(verts, axis=0)           # edge vectors, closing edge excluded
    dg = np.diff(g, axis=0)
    return float(np.sum(np.hypot(dg[:, 0], dg[:, 1])))


def _gs_gradient(verts: np.ndarray) -> np.ndarray:
    """Exact gradient of the second-difference sum.

    At a kink (a second difference of at most `DEDUPE_TOL` px) the norm is
    nondifferentiable; the zero subgradient is used there.  The cutoff also
    swallows roundoff-scale differences on collinear runs, whose "unit
    vectors" would otherwise point in float-noise directions.
    """
    n = verts.shape[0]
    grad = np.zeros((n, 2))
    delta = verts[2:] - 2.0 * verts[1:-1] + verts[:-2]
    norms = np.hypot(delta[:, 0], delta[:, 1])
    safe = norms > DEDUPE_TOL
    unit = np.zeros_like(delta)
    unit[safe] = delta[safe] / norms[safe, None]
    # each add touches distinct rows, so per row the additions run in the
    # same order as three scatter-adds would
    grad[:-2] += unit
    grad[1:-1] += -2.0 * unit
    grad[2:] += unit
    return grad


def _cd_gradient(p: np.ndarray, r: np.ndarray, e2h: np.ndarray, h2e: np.ndarray) -> np.ndarray:
    """Chamfer gradient: 2(b - a) per matched pair, both directions.  One
    `bincount` per column adds each vertex's edge-pixel terms in input order
    from 0.0, as `np.add.at` would, at a third of its cost."""
    n = p.shape[0]
    terms = 2.0 * (np.take(p, e2h, axis=0) - r)
    grad = np.stack([np.bincount(e2h, weights=terms[:, c], minlength=n) for c in (0, 1)], axis=1)
    grad += 2.0 * (p - np.take(r, h2e, axis=0))
    return grad


def combined_loss(edges: SpatialIndex, verts, w: LossWeights = LossWeights(),
                  table: MatchTable | None = None) -> LossReport:
    """All three losses on (indexed edge set, ordered hull vertices) plus the
    total gradient per vertex.

    `edges` is the `SpatialIndex` of the (M, 2) edge map; the map is fixed
    for a whole refinement, so it is indexed once and shared by every call.
    `table` holds the matches' candidates ranked at the hull refresh these
    vertices moved from; without one, the call ranks its own.
    Chamfer contributes 2(b - a) per matched pair in both directions;
    Hausdorff contributes a unit-vector subgradient at its single argmax
    pair (edge->hull direction wins a tie between the directed maxima);
    the smoothness term is differentiated exactly.
    """
    r = edges.points
    p = as_point_array(verts, 2, "hull vertex coordinates")
    n = p.shape[0]
    if n == 0:
        raise CloudSRError("hull vertices must not be empty")
    if table is None:
        table = MatchTable.build(edges, p)

    e2h, d2_e2h, h2e, d2_h2e = table.matches(edges, p)

    l_cd = float(np.sum(d2_e2h) + np.sum(d2_h2e))
    grad_cd = _cd_gradient(p, r, e2h, h2e)

    # directed maxima; np.argmax takes the first (lowest-index) maximum
    i_e = int(np.argmax(d2_e2h))
    i_h = int(np.argmax(d2_h2e))
    d_e2h = float(np.sqrt(d2_e2h[i_e]))
    d_h2e = float(np.sqrt(d2_h2e[i_h]))
    grad_hd = np.zeros((n, 2))
    if d_e2h >= d_h2e:
        l_hd = d_e2h
        if d_e2h > 0.0:
            b, a = p[e2h[i_e]], r[i_e]
            grad_hd[e2h[i_e]] = (b - a) / d_e2h
    else:
        l_hd = d_h2e
        if d_h2e > 0.0:
            b, a = p[i_h], r[h2e[i_h]]
            grad_hd[i_h] = (b - a) / d_h2e

    l_gs = gradient_smooth_loss(p)
    grad_gs = _gs_gradient(p)

    total = w.alpha * l_cd + w.beta * l_hd + w.gamma * l_gs
    grad = w.alpha * grad_cd + w.beta * grad_hd + w.gamma * grad_gs
    return LossReport(l_cd=l_cd, l_hd=l_hd, l_gs=l_gs, total=total, grad=grad)
