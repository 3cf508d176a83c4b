import numpy as np
import pytest

from cloudsr.errors import EmptySet, TooFewVertices
from cloudsr.geometry import SpatialIndex
from cloudsr.losses import (
    LossWeights,
    chamfer_loss,
    combined_loss,
    gradient_smooth_loss,
    hausdorff_loss,
)

from oracles import brute_chamfer, brute_hausdorff, sample_far_from_ties


# -- weights -------------------------------------------------------------------


def test_weights_defaults():
    w = LossWeights()
    assert (w.alpha, w.beta, w.gamma) == (1e-5, 1e-2, 1e-2)


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-1.0)
    with pytest.raises(ValueError):
        LossWeights(alpha=0.0, beta=0.0, gamma=0.0)


# -- chamfer ---------------------------------------------------------------------


def test_chamfer_identical_sets_zero():
    a = np.array([[0.0, 0], [1, 2], [3, 4]])
    assert chamfer_loss(a, a) == 0.0


def test_chamfer_hand_example():
    assert chamfer_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 50.0


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(-5, 5, size=(int(rng.integers(1, 200)), 2))
        b = rng.uniform(-5, 5, size=(int(rng.integers(1, 200)), 2))
        got = chamfer_loss(a, b)
        want = brute_chamfer(a, b)
        assert got == pytest.approx(want, rel=1e-12)


def test_chamfer_symmetry_and_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(17, 2))
        b = rng.normal(size=(9, 2))
        assert chamfer_loss(a, b) == chamfer_loss(b, a)
        assert chamfer_loss(a, b) >= 0.0


def test_chamfer_empty_raises():
    with pytest.raises(EmptySet):
        chamfer_loss(np.zeros((0, 2)), np.array([[0.0, 0.0]]))


# -- hausdorff --------------------------------------------------------------------


def test_hausdorff_identical_zero():
    a = np.array([[0.0, 0], [5, 5]])
    assert hausdorff_loss(a, a) == 0.0


def test_hausdorff_hand_example():
    r = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = np.array([[0.0, 0.0]])
    assert hausdorff_loss(r, p) == 1.0


def test_hausdorff_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-5, 5, size=(int(rng.integers(1, 150)), 2))
        b = rng.uniform(-5, 5, size=(int(rng.integers(1, 150)), 2))
        assert hausdorff_loss(a, b) == pytest.approx(brute_hausdorff(a, b), rel=1e-12)


def test_hausdorff_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(31, 2))
    b = rng.normal(size=(12, 2))
    assert hausdorff_loss(a, b) == hausdorff_loss(b, a)


def test_hausdorff_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.uniform(0, 10, size=(int(rng.integers(1, 30)), 2))
        b = rng.uniform(0, 10, size=(int(rng.integers(1, 30)), 2))
        c = rng.uniform(0, 10, size=(int(rng.integers(1, 30)), 2))
        assert hausdorff_loss(a, c) <= (
            hausdorff_loss(a, b) + hausdorff_loss(b, c) + 1e-12
        )


def test_hausdorff_dominates_chamfer_entries():
    # HD >= every single NN distance appearing in the chamfer sums
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 10, size=(25, 2))
    b = rng.uniform(0, 10, size=(40, 2))
    hd = hausdorff_loss(a, b)
    d = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
    assert hd >= np.max(np.min(d, axis=1)) - 1e-12
    assert hd >= np.max(np.min(d, axis=0)) - 1e-12


# -- gradient smooth ---------------------------------------------------------------


def test_gs_collinear_zero():
    assert gradient_smooth_loss([[0, 0], [1, 0], [2, 0], [3, 0]]) == 0.0


def test_gs_unit_square():
    verts = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert gradient_smooth_loss(verts) == pytest.approx(2 * np.sqrt(2), rel=1e-15)


def test_gs_translation_invariance():
    rng = np.random.default_rng(6)
    verts = rng.uniform(size=(12, 2))
    base = gradient_smooth_loss(verts)
    shifted = gradient_smooth_loss(verts + [17.0, -3.5])
    assert shifted == pytest.approx(base, rel=1e-12)


def test_gs_scale_equivariance():
    rng = np.random.default_rng(7)
    verts = rng.uniform(size=(9, 2))
    base = gradient_smooth_loss(verts)
    assert gradient_smooth_loss(3.0 * verts) == pytest.approx(
        3.0 * base, rel=1e-12
    )


def test_gs_too_few_vertices():
    with pytest.raises(TooFewVertices):
        gradient_smooth_loss(np.array([[0.0, 0.0], [1.0, 1.0]]))


# -- combined -----------------------------------------------------------------------


def test_combined_zero_when_hull_equals_edges_regular():
    # collinear-regular vertex ring subset: CD = HD = 0 and their gradients 0
    verts = np.array([[0.0, 0], [1, 0], [2, 0], [2, 1]])
    rep = combined_loss(SpatialIndex(verts), verts, LossWeights(1.0, 1.0, 0.0))
    assert rep.l_cd == 0.0
    assert rep.l_hd == 0.0
    np.testing.assert_array_equal(rep.grad, 0.0)


def test_combined_weight_masking():
    rng = np.random.default_rng(8)
    r = rng.uniform(size=(20, 2))
    p = rng.uniform(size=(6, 2))
    rep = combined_loss(SpatialIndex(r), p, LossWeights(1.0, 0.0, 0.0))
    assert rep.total == rep.l_cd
    assert rep.l_cd == pytest.approx(chamfer_loss(r, p), rel=1e-15)


def test_combined_total_composition():
    rng = np.random.default_rng(9)
    r = rng.uniform(size=(15, 2))
    p = rng.uniform(size=(5, 2))
    w = LossWeights(1e-5, 1e-2, 1e-2)
    rep = combined_loss(SpatialIndex(r), p, w)
    assert rep.total == pytest.approx(
        w.alpha * rep.l_cd + w.beta * rep.l_hd + w.gamma * rep.l_gs, abs=1e-12
    )
    assert rep.grad.shape == (5, 2)


def test_combined_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    h = 1e-6
    for trial in range(50):
        n_edge = int(rng.integers(4, 30))
        n_hull = int(rng.integers(4, 12))
        r, p = sample_far_from_ties(rng, n_edge, n_hull)
        w = LossWeights(*rng.uniform(0.05, 1.0, size=3))
        edges = SpatialIndex(r)
        rep = combined_loss(edges, p, w)

        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(2):
                hi = p.copy()
                hi[i, j] += h
                lo = p.copy()
                lo[i, j] -= h
                fd[i, j] = (
                    combined_loss(edges, hi, w).total
                    - combined_loss(edges, lo, w).total
                ) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(fd - rep.grad)) / denom < 1e-4


def test_combined_propagates_empty():
    # an empty edge map cannot be indexed, so the vertices are the set checked
    with pytest.raises(EmptySet):
        combined_loss(SpatialIndex(np.eye(3, 2)), np.zeros((0, 2)))
