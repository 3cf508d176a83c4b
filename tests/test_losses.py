import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudsr import geometry
from cloudsr.errors import CloudSRError
from cloudsr.geometry import COORD_LIMIT, SpatialIndex, nearest_candidate, settle_limit
from cloudsr.losses import (
    EDGE_CANDIDATES,
    VERTEX_CANDIDATES,
    LossWeights,
    MatchTable,
    _cd_gradient,
    _gs_gradient,
    _gs_loss,
    combined_loss,
)

from oracles import (add_at_cd_gradient, add_at_gs_gradient, brute_chamfer, brute_hausdorff,
                     flat_knn, sample_far_from_ties, two_index_combined_loss)


# -- weights -------------------------------------------------------------------


def test_weights_defaults():
    w = LossWeights()
    assert (w.alpha, w.beta, w.gamma) == (1e-5, 1e-2, 1e-2)


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-1.0)
    with pytest.raises(ValueError):
        LossWeights(alpha=0.0, beta=0.0, gamma=0.0)


# -- chamfer and hausdorff: the terms refinement optimises -----------------------


def _cd_hd(edges, hull):
    """`combined_loss`'s Chamfer and Hausdorff terms; the hull side needs at
    least 3 rows for the smoothness term."""
    rep = combined_loss(MatchTable.build(SpatialIndex(edges), hull), hull)
    return rep.l_cd, rep.l_hd


def test_chamfer_identical_sets_zero():
    a = np.array([[0.0, 0], [1, 2], [3, 4]])
    assert _cd_hd(a, a)[0] == 0.0


def test_chamfer_hand_example():
    # 25 from the edge to any copy, plus 25 from each of the three copies
    assert _cd_hd(np.array([[0.0, 0.0]]), np.tile([[3.0, 4.0]], (3, 1)))[0] == 100.0


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(-5, 5, size=(int(rng.integers(1, 200)), 2))
        b = rng.uniform(-5, 5, size=(int(rng.integers(3, 200)), 2))
        assert _cd_hd(a, b)[0] == pytest.approx(brute_chamfer(a, b), rel=1e-12)


def test_chamfer_symmetry_and_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(17, 2))
        b = rng.normal(size=(9, 2))
        assert _cd_hd(a, b)[0] == _cd_hd(b, a)[0]
        assert _cd_hd(a, b)[0] >= 0.0


def test_hausdorff_identical_zero():
    a = np.array([[0.0, 0], [5, 5], [5, 0]])
    assert _cd_hd(a, a)[1] == 0.0


def test_hausdorff_hand_example():
    r = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert _cd_hd(r, np.zeros((3, 2)))[1] == 1.0
    assert _cd_hd(np.array([[0.0, 0.0]]), np.tile([[3.0, 4.0]], (3, 1)))[1] == 5.0


def test_hausdorff_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-5, 5, size=(int(rng.integers(1, 150)), 2))
        b = rng.uniform(-5, 5, size=(int(rng.integers(3, 150)), 2))
        assert _cd_hd(a, b)[1] == pytest.approx(brute_hausdorff(a, b), rel=1e-12)


def test_hausdorff_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(31, 2))
    b = rng.normal(size=(12, 2))
    assert _cd_hd(a, b)[1] == _cd_hd(b, a)[1]


def test_hausdorff_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = rng.uniform(0, 10, size=(int(rng.integers(3, 30)), 2))
        b = rng.uniform(0, 10, size=(int(rng.integers(3, 30)), 2))
        c = rng.uniform(0, 10, size=(int(rng.integers(3, 30)), 2))
        assert _cd_hd(a, c)[1] <= _cd_hd(a, b)[1] + _cd_hd(b, c)[1] + 1e-12


def test_hausdorff_dominates_chamfer_entries():
    # HD >= every single NN distance appearing in the chamfer sums
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 10, size=(25, 2))
    b = rng.uniform(0, 10, size=(40, 2))
    hd = _cd_hd(a, b)[1]
    d = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
    assert hd >= np.max(np.min(d, axis=1)) - 1e-12
    assert hd >= np.max(np.min(d, axis=0)) - 1e-12


def test_hausdorff_tie_takes_the_edge_to_hull_maximum():
    # both directed maxima are 3: edge 0 -> vertex 1, and vertex 0 -> edge 1;
    # the edge->hull pair gets the subgradient
    edges = np.array([[0.0, 0.0], [100.0, 0.0]])
    hull = np.array([[100.0, -3.0], [0.0, 3.0], [100.0, 0.0]])
    rep = combined_loss(MatchTable.build(SpatialIndex(edges), hull), hull,
                        LossWeights(0.0, 1.0, 0.0))
    assert rep.l_hd == 3.0
    np.testing.assert_array_equal(rep.grad, [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_cd_gradient_matches_scatter_add_oracle():
    # signed zeros and values near the float64 extremes, where a sum that
    # added in another order would round differently
    rng = np.random.default_rng(18)
    special = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.0, 3.0])
    for trial in range(500):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 60))
        p, r = (rng.normal(size=(k, 2)) * 10.0 ** rng.integers(-5, 6) for k in (n, m))
        if trial % 2:
            p.flat[rng.integers(0, p.size, p.size // 2)] = rng.choice(special, p.size // 2)
            r.flat[rng.integers(0, r.size, r.size // 2)] = rng.choice(special, r.size // 2)
        e2h, h2e = rng.integers(0, n, m), rng.integers(0, m, n)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _cd_gradient(p, r, e2h, h2e), add_at_cd_gradient(p, r, e2h, h2e)
        assert got.tobytes() == want.tobytes()


# -- match candidates ---------------------------------------------------------------


@st.composite
def _match_cases(draw):
    """(edge pixels, vertices at the refresh, vertices now, drift): lattices
    with exact ties and uniform sets, each side at most its own count of
    rows or more (the edge pixels around `VERTEX_CANDIDATES`, the vertices
    around `EDGE_CANDIDATES`), scaled up to near COORD_LIMIT; the vertices
    stay put, move a little, or one moves farther than the whole set spans."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3 * VERTEX_CANDIDATES))
    h = draw(st.integers(1, 3 * EDGE_CANDIDATES))
    lattice = draw(st.booleans())
    if lattice:
        span = draw(st.integers(1, 8))
        r, p0 = (rng.integers(0, span, size=(k, 2)).astype(float) for k in (m, h))
    else:
        r, p0 = (rng.uniform(0, 10, size=(k, 2)) for k in (m, h))
    drift = draw(st.sampled_from(["none", "small", "far"]))
    p = p0.copy()
    if drift == "small":
        p += rng.integers(-1, 2, size=(h, 2)) if lattice else rng.normal(scale=0.2, size=(h, 2))
    elif drift == "far":
        p[rng.integers(0, h)] += 100.0
    scale = draw(st.sampled_from([1.0, 1e-3, COORD_LIMIT / 200]))
    offset = draw(st.sampled_from([0.0, 0.4 * COORD_LIMIT])) if scale > 1.0 else 0.0
    return r * scale + offset, p0 * scale + offset, p * scale + offset, drift


def _mixed_case(m, h, seed, drift="small"):
    """A window with m edge pixels and h vertices that move a little, and
    with "far" drift one of them 100 px more."""
    rng = np.random.default_rng(seed)
    r, p0 = rng.uniform(0, 10, size=(m, 2)), rng.uniform(0, 10, size=(h, 2))
    p = p0 + rng.normal(scale=0.2, size=(h, 2))
    if drift == "far":
        p[0] += 100.0
    return r, p0, p, drift


# one side below its count and the other above, both ways round
_MIXED = [_mixed_case(VERTEX_CANDIDATES + 5, EDGE_CANDIDATES - 1, 1),
          _mixed_case(VERTEX_CANDIDATES - 3, EDGE_CANDIDATES + 3, 2)]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_match_cases())
@example(_MIXED[0])
@example(_MIXED[1])
def test_match_table_matches_flat_scan_oracle(case):
    r, p0, p, drift = case
    edges = SpatialIndex(r)
    table = MatchTable.build(edges, p0)
    e2h, d2_e2h, h2e, d2_h2e = table.matches(p)
    moved2 = np.sum((p - p0) ** 2, axis=1)
    assert table.edges is edges
    assert table.vert_points.tobytes() == np.take(r, table.vert_cand, axis=0).tobytes()
    # (points, queries) now and at the refresh, then the side's table entries
    for points, queries, ranked, count, cand, limit, drift2, got in [
            (p, r, (p0, r), EDGE_CANDIDATES, table.edge_cand, table.edge_limit,
             moved2.max(), (e2h, d2_e2h)),
            (r, p, (r, p0), VERTEX_CANDIDATES, table.vert_cand, table.vert_limit,
             moved2, (h2e, d2_h2e))]:
        want_i, want_d2 = (a[:, 0] for a in flat_knn(points, queries, 1))
        # every row, settled by its candidates or answered in full
        np.testing.assert_array_equal(got[0], want_i)
        assert got[1].tobytes() == want_d2.tobytes()
        # the table's candidates and limits, from the ranking at the refresh
        n = points.shape[0]
        idx0, d20 = flat_knn(*ranked, n)
        np.testing.assert_array_equal(cand, np.sort(idx0[:, :count], axis=1))
        bound2 = d20[:, count] if n > count else np.full(queries.shape[0], np.inf)
        assert limit.tobytes() == settle_limit(bound2).tobytes()
        assert np.isinf(limit).all() == (n <= count)
        idx, d2, settled = nearest_candidate(np.take(points, cand, axis=0), queries, cand,
                                             limit, drift2)
        np.testing.assert_array_equal(idx[settled], want_i[settled])
        assert d2[settled].tobytes() == want_d2[settled].tobytes()
        if drift == "far" and np.isfinite(limit).all():
            assert not settled.all()  # a far move must send rows to the full query


@pytest.mark.parametrize("scale", [1.0, 2.0**-10, 2.0**330, 2.0**-500])
def test_settle_rule_leaves_a_row_at_its_limit_open(scale):
    # point 0 ties the query's only candidate, point 1, at squared distance
    # 25 (times scale², a power of two, so the tie stays exact).  The bound
    # the limit comes from overstates point 0's by about 2e-12: it is the
    # smallest bound whose padded-down limit equals the candidate's
    # padded-up reach.  A bound that keeps nearest_candidate's contract
    # leaves such a row open under either pad alone; at this one only both
    # pads and the strict comparison do, for the full query to find point
    # 0.  A settled row must be the flat scan's
    points = np.array([[3.0, 4.0], [5.0, 0.0]]) * scale
    queries = np.zeros((1, 2))
    want_i, want_d2 = flat_knn(points, queries, 2)
    assert want_i.tolist() == [[0, 1]] and want_d2[0, 0] == want_d2[0, 1]
    best = want_d2[0, 1]
    reach = np.sqrt(geometry._pad_up(best)) + np.sqrt(geometry._pad_up(0.0))
    near = (reach * reach + geometry._TINY) / (1 - 1e-12)
    bound2 = near + np.arange(-8, 9) * np.spacing(near)
    bound2 = bound2[settle_limit(bound2) == reach][:1]
    assert bound2.size == 1 and bound2[0] > best
    cand = np.array([[1]])
    idx, d2, settled = nearest_candidate(np.take(points, cand, axis=0), queries, cand,
                                         settle_limit(bound2), 0.0)
    assert idx.tolist() == [1] and d2.tobytes() == want_d2[:, 1].tobytes()
    np.testing.assert_array_equal(idx[settled], want_i[settled, 0])
    assert not settled.any()


def _report_bytes(rep):
    return (np.array([rep.l_cd, rep.l_hd, rep.l_gs, rep.total]).tobytes(), rep.grad.tobytes())


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_match_cases(), st.sampled_from([LossWeights(), LossWeights(0.3, 0.9, 0.05)]))
@example(_MIXED[0], LossWeights())
@example(_MIXED[1], LossWeights())
@example(_mixed_case(VERTEX_CANDIDATES + 5, EDGE_CANDIDATES + 3, 3, "far"), LossWeights())
def test_window_loss_matches_two_index_oracle(case, w):
    # a loss call ranked from its window's table, far drift included, equals
    # the call that queries both index sets in full, byte for byte
    r, p0, p, _ = case
    edges = SpatialIndex(r)
    table = MatchTable.build(edges, p0)
    if p.shape[0] < 3:
        for loss in (combined_loss, two_index_combined_loss):
            with pytest.raises(CloudSRError, match="smoothness needs at least 3 vertices"):
                loss(table, p, w)
        return
    got = combined_loss(table, p, w)
    assert _report_bytes(got) == _report_bytes(two_index_combined_loss(table, p, w))


@pytest.mark.parametrize("n", [VERTEX_CANDIDATES - 1, VERTEX_CANDIDATES, VERTEX_CANDIDATES + 1])
@pytest.mark.parametrize("m", [0, 1, 30])
def test_candidates_match_flat_scan_oracle(n, m):
    # each side's count with one row fewer, as many and one more (n is the
    # vertex side's row count); lattice rows tie often, and with rows <=
    # count every row is a candidate
    for count in (EDGE_CANDIDATES, VERTEX_CANDIDATES):
        rows = count + n - VERTEX_CANDIDATES
        rng = np.random.default_rng(100 * rows + m)
        for points in (rng.integers(0, 3, (rows, 2)).astype(float), rng.uniform(0, 10, (rows, 2))):
            queries = rng.uniform(-1, 4, (m, 2))
            cand, bound2 = SpatialIndex(points).candidates(queries, count)
            idx, d2 = flat_knn(points, queries, rows)
            assert cand.shape == (m, min(rows, count)) and bound2.shape == (m,)
            np.testing.assert_array_equal(cand, np.sort(idx[:, :count], axis=1))
            want = d2[:, count] if rows > count else np.full(m, np.inf)
            assert bound2.tobytes() == want.tobytes()


def test_match_table_rejects_another_hull():
    edges = SpatialIndex(np.eye(3, 2))
    table = MatchTable.build(edges, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="do not match"):
        combined_loss(table, np.zeros((5, 2)))


# -- gradient smooth ---------------------------------------------------------------


def test_gs_collinear_zero():
    assert _gs_loss(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])) == 0.0


def test_gs_gradient_matches_scatter_add_oracle():
    # random lists, and kinked ones: collinear runs and repeated vertices
    # whose second differences fall under the kink cutoff, and one second
    # difference of exactly the cutoff, which is a kink too
    at_cutoff = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-9]])
    assert _gs_gradient(at_cutoff).tobytes() == add_at_gs_gradient(at_cutoff).tobytes()
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = int(rng.integers(3, 40))
        verts = rng.uniform(-50, 50, size=(n, 2))
        if trial % 2:
            verts = np.round(verts / 10) * 10
            verts[rng.integers(0, n, n // 3)] = verts[0]
            verts[: n // 2, 1] = verts[0, 1]
        assert _gs_gradient(verts).tobytes() == add_at_gs_gradient(verts).tobytes()


def test_gs_unit_square():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert _gs_loss(verts) == pytest.approx(2 * np.sqrt(2), rel=1e-15)


def test_gs_translation_invariance():
    rng = np.random.default_rng(6)
    verts = rng.uniform(size=(12, 2))
    base = _gs_loss(verts)
    shifted = _gs_loss(verts + [17.0, -3.5])
    assert shifted == pytest.approx(base, rel=1e-12)


def test_gs_scale_equivariance():
    rng = np.random.default_rng(7)
    verts = rng.uniform(size=(9, 2))
    base = _gs_loss(verts)
    assert _gs_loss(3.0 * verts) == pytest.approx(
        3.0 * base, rel=1e-12
    )


def test_gs_too_few_vertices():
    with pytest.raises(CloudSRError, match="smoothness needs at least 3 vertices"):
        _gs_loss(np.array([[0.0, 0.0], [1.0, 1.0]]))


# -- combined -----------------------------------------------------------------------


def test_combined_zero_when_hull_equals_edges_regular():
    # collinear-regular vertex ring subset: CD = HD = 0 and their gradients 0
    verts = np.array([[0.0, 0], [1, 0], [2, 0], [2, 1]])
    rep = combined_loss(MatchTable.build(SpatialIndex(verts), verts), verts,
                        LossWeights(1.0, 1.0, 0.0))
    assert rep.l_cd == 0.0
    assert rep.l_hd == 0.0
    np.testing.assert_array_equal(rep.grad, 0.0)


def test_combined_weight_masking():
    rng = np.random.default_rng(8)
    r = rng.uniform(size=(20, 2))
    p = rng.uniform(size=(6, 2))
    rep = combined_loss(MatchTable.build(SpatialIndex(r), p), p, LossWeights(1.0, 0.0, 0.0))
    assert rep.total == rep.l_cd
    assert rep.l_cd == pytest.approx(brute_chamfer(r, p), rel=1e-12)


def test_combined_total_composition():
    rng = np.random.default_rng(9)
    r = rng.uniform(size=(15, 2))
    p = rng.uniform(size=(5, 2))
    w = LossWeights(1e-5, 1e-2, 1e-2)
    rep = combined_loss(MatchTable.build(SpatialIndex(r), p), p, w)
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
        table = MatchTable.build(SpatialIndex(r), p)
        rep = combined_loss(table, p, w)

        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(2):
                hi = p.copy()
                hi[i, j] += h
                lo = p.copy()
                lo[i, j] -= h
                fd[i, j] = (
                    combined_loss(table, hi, w).total
                    - combined_loss(table, lo, w).total
                ) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(fd - rep.grad)) / denom < 1e-4


def test_combined_propagates_empty():
    # an empty edge map cannot be indexed, so the vertices are the set checked
    with pytest.raises(CloudSRError, match="hull vertices must not be empty"):
        MatchTable.build(SpatialIndex(np.eye(3, 2)), np.zeros((0, 2)))
