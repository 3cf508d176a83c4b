"""The three 2D edge losses and their weighted combination.

Chamfer: sum of squared nearest-neighbor distances, both directions,
unnormalized.  Hausdorff: max of the two directed maxima of unsquared
nearest-neighbor distances.  Gradient-smooth: sum of magnitudes of
consecutive hull edge-vector differences over the open vertex list (the
closing edge is excluded).

Gradients are taken with nearest-neighbor matches and the Hausdorff argmax
held fixed, which equals the true gradient wherever those discrete choices
are locally constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, TooFewVertices
from .geometry import SpatialIndex, as_point_array, nearest_both_ways


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


def _nonempty(arr: np.ndarray, name: str) -> None:
    if arr.shape[0] == 0:
        raise EmptySet(f"{name} must not be empty")


def _squared_nn_both_ways(r_set, p_set):
    r = as_point_array(r_set, 2)
    p = as_point_array(p_set, 2)
    _nonempty(r, "first point set")
    _nonempty(p, "second point set")
    (_, rp), (_, pr) = nearest_both_ways(r, p)
    return rp, pr


def chamfer_loss(r_set, p_set) -> float:
    """Symmetric sum of squared nearest-neighbor distances."""
    rp, pr = _squared_nn_both_ways(r_set, p_set)
    return float(np.sum(rp) + np.sum(pr))


def hausdorff_loss(r_set, p_set) -> float:
    """Max over both directed maxima of unsquared nearest-neighbor distances."""
    rp, pr = _squared_nn_both_ways(r_set, p_set)
    return float(max(np.sqrt(np.max(rp)), np.sqrt(np.max(pr))))


def gradient_smooth_loss(verts) -> float:
    """Sum of second-difference magnitudes along the open (N, 2) vertex list."""
    verts = as_point_array(verts, 2)
    if verts.shape[0] < 3:
        raise TooFewVertices("smoothness needs at least 3 vertices")
    g = np.diff(verts, axis=0)           # edge vectors, closing edge excluded
    dg = np.diff(g, axis=0)
    return float(np.sum(np.hypot(dg[:, 0], dg[:, 1])))


_GS_KINK_EPS = 1e-9  # px; below this a second difference is float noise


def _gs_gradient(verts: np.ndarray) -> np.ndarray:
    """Exact gradient of the second-difference sum.

    At a kink (second difference ~ 0) the norm is nondifferentiable; the
    zero subgradient is used there.  The cutoff also swallows roundoff-scale
    differences on collinear runs, whose "unit vectors" would otherwise
    point in float-noise directions.
    """
    n = verts.shape[0]
    grad = np.zeros((n, 2))
    delta = verts[2:] - 2.0 * verts[1:-1] + verts[:-2]
    norms = np.hypot(delta[:, 0], delta[:, 1])
    safe = norms > _GS_KINK_EPS
    unit = np.zeros_like(delta)
    unit[safe] = delta[safe] / norms[safe, None]
    idx = np.arange(n - 2)
    np.add.at(grad, idx, unit)
    np.add.at(grad, idx + 1, -2.0 * unit)
    np.add.at(grad, idx + 2, unit)
    return grad


def combined_loss(edges: SpatialIndex, verts, w: LossWeights = LossWeights()) -> LossReport:
    """All three losses on (indexed edge set, ordered hull vertices) plus the
    total gradient per vertex.

    `edges` is the `SpatialIndex` of the (M, 2) edge map; the map is fixed
    for a whole refinement, so it is indexed once and shared by every call.
    Chamfer contributes 2(b - a) per matched pair in both directions;
    Hausdorff contributes a unit-vector subgradient at its single argmax
    pair (edge->hull direction wins a tie between the directed maxima);
    the smoothness term is differentiated exactly.
    """
    r = edges.points
    p = as_point_array(verts, 2)
    _nonempty(p, "hull vertices")
    n = p.shape[0]

    e2h, d2_e2h = SpatialIndex(p).nearest_batch(r)
    h2e, d2_h2e = edges.nearest_batch(p)

    l_cd = float(np.sum(d2_e2h) + np.sum(d2_h2e))
    grad_cd = np.zeros((n, 2))
    np.add.at(grad_cd, e2h, 2.0 * (p[e2h] - r))
    grad_cd += 2.0 * (p - r[h2e])

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
