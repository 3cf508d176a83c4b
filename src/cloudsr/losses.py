"""The three 2D edge losses and their weighted combination.

Chamfer: sum of squared nearest-neighbor distances, both directions,
unnormalized.  Hausdorff: max of the two directed maxima of unsquared
nearest-neighbor distances.  Gradient-smooth: sum of magnitudes of
consecutive hull edge-vector differences over the open vertex list (the
closing edge is excluded).

Gradients are taken with nearest-neighbor matches and the Hausdorff argmax
held fixed, which equals the true gradient wherever those discrete choices
are locally constant.  The matches are ranked from a `MatchTable` of
candidates, which a hull window shares and which carries the edge index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CloudSRError
from .geometry import (DEDUPE_TOL, SpatialIndex, as_point_array, nearest_candidate,
                       settle_limit)


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


EDGE_CANDIDATES = 4     # vertices a MatchTable keeps per edge pixel
VERTEX_CANDIDATES = 8   # edge pixels a MatchTable keeps per vertex


@dataclass(frozen=True)
class MatchTable:
    """Nearest-neighbor candidates of one hull window, ranked once: a
    Verlet neighbour list, whose candidates and skin are proved by a drift
    bound (Verlet, Phys. Rev. 159, 1967).

    Built from the (H, 2) vertex pixels `verts` of a hull refresh: each
    edge pixel keeps its `EDGE_CANDIDATES` nearest vertices and each vertex
    its `VERTEX_CANDIDATES` nearest edge pixels (all rows when the other
    side has no more), with the settle limit `settle_limit` of the squared
    distance of the next one (+inf when there is none).  The table also
    holds the edge index the candidates were ranked in, and what every loss
    call of the window would otherwise recompute: each side's limits and
    the vertices' candidate edge pixels, gathered (edge pixels do not
    move).  Within the window the members and their order are frozen and
    the vertices move little, so `matches` proves nearly every match from
    the candidates alone.

    The counts follow the traffic.  A loss call matches 747 edge pixels on
    sphere-2k and 762 on square-10k (seed 0), and at sphere-2k seeds 0 and
    3 and square-10k seed 0 every one settles from 4 candidates, as from 8.
    The vertices, 130-154 per call on sphere-2k and 192-201 on square-10k,
    keep 8: at 4, 25 of them fall back to a full query over a sphere-2k
    frame (seed 0) and 84 over a square-10k frame.
    """

    edges: SpatialIndex           # the (M, 2) edge map the candidates were ranked in
    verts: np.ndarray             # (H, 2) vertex pixels the table was ranked from
    edge_cand: np.ndarray         # (M, Ce) vertex indices per edge pixel, ascending
    edge_limit: np.ndarray        # (M,)
    vert_cand: np.ndarray         # (H, Cv) edge pixel indices per vertex, ascending
    vert_points: np.ndarray       # (H, Cv, 2) those edge pixels
    vert_limit: np.ndarray        # (H,)

    @classmethod
    def build(cls, edges: SpatialIndex, verts) -> MatchTable:
        p = as_point_array(verts, 2, "hull vertex coordinates").copy()
        if p.shape[0] == 0:
            raise CloudSRError("hull vertices must not be empty")
        r = edges.points
        edge_cand, edge_bound2 = SpatialIndex(p).candidates(r, EDGE_CANDIDATES)
        vert_cand, vert_bound2 = edges.candidates(p, VERTEX_CANDIDATES)
        return cls(edges, p, edge_cand, settle_limit(edge_bound2), vert_cand,
                   np.take(r, vert_cand, axis=0), settle_limit(vert_bound2))

    def matches(self, p: np.ndarray) -> tuple[np.ndarray, ...]:
        """(e2h, d2_e2h, h2e, d2_h2e): the nearest vertex of each edge pixel
        and the nearest edge pixel of each vertex at vertex pixels `p`, with
        their squared distances, bit-identical to two full index queries.
        A row the candidates cannot settle gets its full query."""
        if p.shape != self.verts.shape:
            raise ValueError("the vertices do not match the table's hull")
        r = self.edges.points
        moved2 = np.sum((p - self.verts) ** 2, axis=1)
        # an edge pixel's other vertices each moved by at most the largest step
        e2h, d2_e2h, ok = nearest_candidate(np.take(p, self.edge_cand, axis=0), r,
                                            self.edge_cand, self.edge_limit, moved2.max())
        if not ok.all():
            e2h[~ok], d2_e2h[~ok] = SpatialIndex(p).nearest_batch(r[~ok])
        # a vertex's other edge pixels are where they were; the vertex moved
        h2e, d2_h2e, ok = nearest_candidate(self.vert_points, p, self.vert_cand,
                                            self.vert_limit, moved2)
        if not ok.all():
            h2e[~ok], d2_h2e[~ok] = self.edges.nearest_batch(p[~ok])
        return e2h, d2_e2h, h2e, d2_h2e


def _gs_loss(verts: np.ndarray) -> float:
    """Sum of second-difference magnitudes along the open (N, 2) vertex
    list: the edge vectors, closing edge excluded, differenced once more."""
    if verts.shape[0] < 3:
        raise CloudSRError("smoothness needs at least 3 vertices")
    g = verts[1:] - verts[:-1]
    dg = g[1:] - g[:-1]
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
    norms = np.hypot(delta[:, 0], delta[:, 1])[:, None]
    unit = np.divide(delta, norms, out=np.zeros_like(delta), where=norms > DEDUPE_TOL)
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


def combined_loss(table: MatchTable, verts, w: LossWeights = LossWeights()) -> LossReport:
    """All three losses on (edge set, ordered hull vertices) plus the total
    gradient per vertex.

    `table` holds the matches' candidates ranked at the hull refresh these
    vertices moved from, and `table.edges` the `SpatialIndex` of the (M, 2)
    edge map; the map is fixed for a whole refinement, so it is indexed once
    and shared by every call.
    Chamfer contributes 2(b - a) per matched pair in both directions;
    Hausdorff contributes a unit-vector subgradient at its single argmax
    pair (edge->hull direction wins a tie between the directed maxima);
    the smoothness term is differentiated exactly.
    """
    r = table.edges.points
    p = as_point_array(verts, 2, "hull vertex coordinates")
    n = p.shape[0]
    e2h, d2_e2h, h2e, d2_h2e = table.matches(p)

    l_cd = float(np.sum(d2_e2h) + np.sum(d2_h2e))
    grad_cd = _cd_gradient(p, r, e2h, h2e)

    # directed maxima; np.argmax takes the first (lowest-index) maximum.  The
    # larger one's (vertex, edge pixel) pair is the Hausdorff pair
    i_e = int(np.argmax(d2_e2h))
    i_h = int(np.argmax(d2_h2e))
    d_e2h = float(np.sqrt(d2_e2h[i_e]))
    d_h2e = float(np.sqrt(d2_h2e[i_h]))
    v, e, l_hd = (e2h[i_e], i_e, d_e2h) if d_e2h >= d_h2e else (i_h, h2e[i_h], d_h2e)
    grad_hd = np.zeros((n, 2))
    if l_hd > 0.0:
        grad_hd[v] = (p[v] - r[e]) / l_hd

    l_gs = _gs_loss(p)
    grad_gs = _gs_gradient(p)

    total = w.alpha * l_cd + w.beta * l_hd + w.gamma * l_gs
    grad = w.alpha * grad_cd + w.beta * grad_hd + w.gamma * grad_gs
    return LossReport(l_cd=l_cd, l_hd=l_hd, l_gs=l_gs, total=total, grad=grad)
