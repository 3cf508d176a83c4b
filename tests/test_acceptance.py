"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import json
import math
import time

import numpy as np

from cloudsr.camera import CameraRig, Extrinsics, Intrinsics, pinhole, projection_jacobians
from cloudsr.cli import main as cli_main
from cloudsr.densify import DensifyConfig, densify
from cloudsr.edges import CannyParams, GrayImage, canny
from cloudsr.geometry import PointCloud3, SpatialIndex, bin_downsample
from cloudsr.hull import concave_hull, contains_all, polygon_is_simple
from cloudsr.losses import LossWeights, chamfer_loss, combined_loss, hausdorff_loss
from cloudsr.metrics import eval_metrics
from cloudsr.pixmap import read_pixmap, write_pixmap
from cloudsr.ply_io import read_ply, write_ply
from cloudsr.refine import RefineConfig, refine
from cloudsr.synth import SceneSpec, synth_scene

from oracles import (
    matrix_chamfer,
    matrix_hausdorff,
    monotone_chain,
    project_homogeneous,
    random_rotation,
    sample_far_from_ties,
)


def _report(num, ok, detail):
    print(f"\n[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _elapsed_ok(num, t0, budget, ok, detail):
    dt = time.time() - t0
    _report(num, ok and dt < budget, f"{detail}; runtime {dt:.2f}s < {budget}s")


# -- 1: Chamfer/Hausdorff oracle equivalence ------------------------------------


def test_criterion_1_loss_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        dim = 2 if trial % 2 == 0 else 3
        a = rng.uniform(-4, 4, size=(int(rng.integers(2, 257)), dim))
        b = rng.uniform(-4, 4, size=(int(rng.integers(2, 257)), dim))
        want_cd = matrix_chamfer(a, b)
        want_hd = matrix_hausdorff(a, b)
        if dim == 2:
            got_cd = chamfer_loss(a, b)
            got_hd = hausdorff_loss(a, b)
        else:
            rep = eval_metrics(PointCloud3(a), PointCloud3(b))
            got_cd = rep.cd * (len(a) + len(b))  # undo count normalization
            got_hd = rep.hd
        worst = max(
            worst,
            abs(got_cd - want_cd) / max(want_cd, 1e-300),
            abs(got_hd - want_hd) / max(want_hd, 1e-300),
        )
    _elapsed_ok(1, t0, 5.0, worst < 1e-12,
                f"200 set pairs, worst relative error {worst:.2e} < 1e-12")


# -- 2: Hausdorff metric axioms ---------------------------------------------------


def test_criterion_2_hausdorff_metric_axioms():
    t0 = time.time()
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(100):
        a = rng.uniform(0, 10, size=(int(rng.integers(1, 40)), 2))
        b = rng.uniform(0, 10, size=(int(rng.integers(1, 40)), 2))
        c = rng.uniform(0, 10, size=(int(rng.integers(1, 40)), 2))
        ok &= hausdorff_loss(a, a) == 0.0
        ok &= hausdorff_loss(a, b) == hausdorff_loss(b, a)
        ok &= hausdorff_loss(a, c) <= hausdorff_loss(a, b) + hausdorff_loss(b, c) + 1e-12
    _elapsed_ok(2, t0, 2.0, ok,
                "identity, exact symmetry, triangle inequality on 100 triples")


# -- 3: combined-loss gradient vs finite differences ------------------------------


def test_criterion_3_gradient_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(103)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        r, p = sample_far_from_ties(
            rng, int(rng.integers(4, 40)), int(rng.integers(4, 14)), margin=1e-4
        )
        w = LossWeights(*rng.uniform(0.05, 1.0, size=3))
        edges = SpatialIndex(r)
        rep = combined_loss(edges, p, w)
        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(2):
                hi = p.copy(); hi[i, j] += h
                lo = p.copy(); lo[i, j] -= h
                fd[i, j] = (
                    combined_loss(edges, hi, w).total
                    - combined_loss(edges, lo, w).total
                ) / (2 * h)
        err = np.max(np.abs(fd - rep.grad)) / max(np.max(np.abs(fd)), 1e-12)
        worst = max(worst, err)
    _elapsed_ok(3, t0, 10.0, worst < 1e-4,
                f"50 configurations, worst relative gradient error {worst:.2e} < 1e-4")


# -- 4: projection correctness -----------------------------------------------------


def test_criterion_4_projection_and_jacobian():
    t0 = time.time()
    rng = np.random.default_rng(104)
    h = 1e-6
    worst_proj = 0.0
    worst_jac = 0.0
    checked = 0
    while checked < 1000:
        fx, fy = rng.uniform(50, 900, 2)
        cx, cy = rng.uniform(100, 500, 2)
        rig = CameraRig(
            Intrinsics(fx, fy, cx, cy),
            Extrinsics.from_rt(random_rotation(rng), rng.uniform(-0.5, 0.5, 3)),
            Extrinsics.from_rt(random_rotation(rng), rng.uniform(-0.5, 0.5, 3)),
            1000, 800,
        )
        p = rng.uniform(-1, 1, 3)
        u, v, z = project_homogeneous(
            p, rig.k_rgb.matrix, rig.e_rgb.matrix, rig.e_tof.matrix
        )
        if z <= 0.1:
            continue
        # one kernel call: the point, then its +h and -h steps per axis
        steps = h * np.eye(3)
        uv, _ = pinhole(np.vstack([p, p + steps, p - steps]), rig)
        scale = max(abs(u), abs(v), 1.0)
        worst_proj = max(worst_proj, abs(uv[0, 0] - u) / scale,
                         abs(uv[0, 1] - v) / scale)

        jac = projection_jacobians(p[None, :], rig)[0]
        fd = ((uv[1:4] - uv[4:7]) / (2 * h)).T
        worst_jac = max(
            worst_jac, np.max(np.abs(jac - fd)) / max(np.max(np.abs(fd)), 1e-12)
        )
        checked += 1
    ok = worst_proj < 1e-12 and worst_jac < 1e-5
    _elapsed_ok(4, t0, 2.0, ok,
                f"1000 pairs: projection err {worst_proj:.2e} < 1e-12, "
                f"jacobian err {worst_jac:.2e} < 1e-5")


# -- 5: concave hull validity -------------------------------------------------------


def test_criterion_5_concave_hull_validity():
    t0 = time.time()
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(500):
        n = int(rng.integers(10, 501))
        pts = rng.uniform(0, 100, size=(n, 2))
        poly = concave_hull(pts, k=20)
        ok &= polygon_is_simple(poly.vertices)
        ok &= contains_all(poly.vertices, pts)
    for n in (20, 100, 300):
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        poly = concave_hull(pts, k=n - 1)
        want = {tuple(pts[i]) for i in monotone_chain(pts)}
        ok &= {tuple(v) for v in poly.vertices} == want
    _elapsed_ok(5, t0, 30.0, ok,
                "500 random sets simple+containing; convex-position hulls "
                "equal monotone chain")


# -- 6: canny localization -----------------------------------------------------------


def test_criterion_6_canny_localization():
    t0 = time.time()
    params = CannyParams(sigma=1.4, low=0.1, high=0.2)
    band = math.ceil(3 * 1.4) + 1
    ok = True

    img = np.zeros((64, 64)); img[:, 32:] = 1.0
    pts = canny(GrayImage(img), params)
    ok &= len(pts) > 0 and np.all((pts[:, 0] >= 31) & (pts[:, 0] <= 33))
    rows = sorted(int(v) for v in pts[:, 1])
    ok &= rows == list(range(band, 64 - band))  # exactly one per interior row

    img = np.zeros((64, 64)); img[32:, :] = 1.0
    pts = canny(GrayImage(img), params)
    ok &= len(pts) > 0 and np.all((pts[:, 1] >= 31) & (pts[:, 1] <= 33))
    cols = sorted(int(u) for u in pts[:, 0])
    ok &= cols == list(range(band, 64 - band))

    ok &= len(canny(GrayImage(np.full((64, 64), 0.5)), params)) == 0
    _elapsed_ok(6, t0, 2.0, ok,
                "step edges within +-1 px, one per interior row/col; "
                "constant image empty")


# -- 7 & 8: end-to-end synthetic square, determinism ---------------------------------


def _square_scene_stage(tmp_path):
    """Criterion 7 inputs written as files: sparse PLY, silhouette PGM, calib."""
    rig = CameraRig(Intrinsics(800.0, 800.0, 320.0, 240.0), Extrinsics(np.eye(4)),
                    Extrinsics(np.eye(4)), 640, 480)
    spec = SceneSpec(shape="square-plane",
                     pose=Extrinsics.from_rt(np.eye(3), [0.0, 0.0, 2.0]),
                     extent=0.5, density=4e4)
    gt, img = synth_scene(spec, rig)
    sparse = bin_downsample(gt, 512)

    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({
        "k_rgb": {"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0},
        "e_rgb": list(np.eye(4).ravel()),
        "e_tof": list(np.eye(4).ravel()),
        "width": 640, "height": 480,
    }))
    pgm = tmp_path / "scene.pgm"
    write_pixmap(img, pgm)
    sparse_ply = tmp_path / "sparse.ply"
    write_ply(sparse, sparse_ply)
    return rig, gt, sparse, img, calib, pgm, sparse_ply


def test_criterion_7_end_to_end_square(tmp_path):
    t0 = time.time()
    rig, gt, sparse, img, *_ = _square_scene_stage(tmp_path)

    dense = densify(sparse, DensifyConfig(rate=4))
    edges = canny(img, CannyParams())
    cfg = RefineConfig(weights=LossWeights(1e-5, 1e-2, 1e-2), hull_k=20)
    refined, trace = refine(dense, edges, rig, cfg)

    initial = trace.records[0].total
    final = trace.records[-1].total
    a_ok = final <= 0.5 * initial

    cd_densify = eval_metrics(dense, gt).cd
    cd_refined = eval_metrics(refined, gt).cd
    b_ok = cd_refined <= 1.05 * cd_densify

    c_ok = True
    window = []
    for rec in trace.records:
        if rec.iteration != 0 and (rec.iteration - 1) % cfg.hull_refresh_period == 0:
            window = []
        if window and rec.total > window[-1] + 1e-12:
            c_ok = False
        window.append(rec.total)

    ok = a_ok and b_ok and c_ok and len(refined) == 4 * len(sparse)
    _elapsed_ok(
        7, t0, 60.0, ok,
        f"(a) loss {final:.3f}/{initial:.3f} = {final / initial:.2f} <= 0.5; "
        f"(b) cd ratio {cd_refined / cd_densify:.3f} <= 1.05; "
        f"(c) windows monotone: {c_ok}",
    )


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    _, _, _, _, calib, pgm, sparse_ply = _square_scene_stage(tmp_path)
    outs = []
    for run in (1, 2):
        out_ply = tmp_path / f"sup{run}.ply"
        trace = tmp_path / f"trace{run}.jsonl"
        code = cli_main([
            "superres", str(sparse_ply), str(pgm), str(calib), str(out_ply),
            "--rate", "4", "--hull-k", "20",
            "--alpha", "1e-5", "--beta", "1e-2", "--gamma", "1e-2",
            "--trace", str(trace),
        ])
        assert code == 0
        outs.append((out_ply.read_bytes(), trace.read_bytes()))
    ok = outs[0] == outs[1]
    _elapsed_ok(8, t0, 130.0, ok,
                "two pipeline runs produced byte-identical PLY and trace files")


# -- 9: codec round-trips --------------------------------------------------------------


def test_criterion_9_codec_round_trips(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(109)
    ok = True
    for i in range(20):
        pts = rng.normal(scale=5.0, size=(int(rng.integers(1, 60)), 3))

        p = tmp_path / f"a{i}.ply"
        write_ply(PointCloud3(pts), p, fmt="ascii", double=True)
        ok &= np.array_equal(read_ply(p).points, pts)

        p = tmp_path / f"b{i}.ply"
        write_ply(PointCloud3(pts), p, fmt="binary-little-endian", double=True)
        ok &= np.array_equal(read_ply(p).points, pts)

        f32 = pts.astype(np.float32).astype(np.float64)
        p = tmp_path / f"c{i}.ply"
        write_ply(PointCloud3(f32), p, fmt="binary-little-endian", double=False)
        ok &= np.array_equal(read_ply(p).points, f32)

        img = GrayImage(rng.integers(0, 256, size=(7, 9)) / 255.0)
        for fmt in ("P2", "P5"):
            q = tmp_path / f"i{i}.{fmt}.pgm"
            write_pixmap(img, q, fmt=fmt)
            ok &= np.array_equal(read_pixmap(q).pixels, img.pixels)
    _elapsed_ok(9, t0, 2.0, ok,
                "20 fixtures: PLY ascii-f64 / binary f32+f64 and pixmap P2/P5 "
                "round-trip losslessly")
