import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cloudsr import cli, geometry
from cloudsr.camera import Extrinsics
from cloudsr.cli import (
    _build_parser,
    _config,
    _refine_config,
    main,
    read_points_csv,
)
from cloudsr.densify import MAX_MIDPOINT_ROWS, DensifyConfig
from cloudsr.edges import CannyParams, GrayImage
from cloudsr.losses import LossWeights
from cloudsr.geometry import PointCloud3, SpatialIndex
from cloudsr.pixmap import write_pixmap
from cloudsr.ply_io import read_ply, write_ply
from cloudsr.refine import RefineConfig
from cloudsr.synth import MAX_PIXELS

from oracles import brute_drop_closest, flat_knn, numpy_scalar_ply_body

_CALIB = json.dumps({
    "k_rgb": {"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0},
    "e_rgb": list(np.eye(4).ravel()),
    "e_tof": list(np.eye(4).ravel()),
    "width": 640,
    "height": 480,
})


@pytest.fixture
def calib(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text(_CALIB)
    return path


_SCENE = json.dumps({
    "shape": "square-plane",
    "pose": list(Extrinsics.from_rt(np.eye(3), [0, 0, 2.0]).matrix.ravel()),
    "extent": 0.5,
    "density": 4e4,
    "fg": 1.0,
    "bg": 0.0,
})


@pytest.fixture
def scene(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(_SCENE)
    return path


def test_usage_error_exit_1(capsys):
    assert main(["densify"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_exit_1():
    assert main(["frobnicate"]) == 1


def test_flag_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["superres", "a", "b", "c", "d"])
    assert _refine_config(args) == RefineConfig()
    assert _config(CannyParams, args) == CannyParams()
    assert _config(DensifyConfig, args) == DensifyConfig()
    args = _build_parser().parse_args(["densify", "a", "b"])
    assert _config(DensifyConfig, args) == DensifyConfig()


@pytest.mark.parametrize("flag,value,config,field", [
    ("--sigma", 2.5, CannyParams, "sigma"),
    ("--low", 0.15, CannyParams, "low"),
    ("--high", 0.3, CannyParams, "high"),
    ("--rate", 3, DensifyConfig, "rate"),
    ("--k-interp", 6, DensifyConfig, "k_interp"),
    ("--hull-k", 12, RefineConfig, "hull_k"),
    ("--alpha", 0.5, LossWeights, "alpha"),
    ("--beta", 0.25, LossWeights, "beta"),
    ("--gamma", 0.125, LossWeights, "gamma"),
    ("--max-iters", 7, RefineConfig, "max_iters"),
    ("--refresh", 3, RefineConfig, "hull_refresh_period"),
    ("--step", 0.02, RefineConfig, "initial_step"),
    ("--backtrack", 0.25, RefineConfig, "backtrack_factor"),
    ("--min-step", 1e-6, RefineConfig, "min_step"),
    ("--constant-depth", True, RefineConfig, "constant_depth"),
])
def test_each_superres_flag_fills_its_config_field(flag, value, config, field):
    assert getattr(config(), field) != value
    argv = ["superres", "a", "b", "c", "d", flag] + ([] if value is True else [str(value)])
    args = _build_parser().parse_args(argv)
    want = {CannyParams: CannyParams(), DensifyConfig: DensifyConfig(),
            RefineConfig: RefineConfig()}
    if config is LossWeights:
        want[RefineConfig] = RefineConfig(weights=LossWeights(**{field: value}))
    else:
        want[config] = replace(want[config], **{field: value})
    got = (_config(CannyParams, args), _config(DensifyConfig, args), _refine_config(args))
    assert got == tuple(want.values())


def test_flags_named_apart_from_their_field_keep_their_help(capsys):
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["superres", "--help"])
    out = capsys.readouterr().out
    for shown in ("--refresh REFRESH", "--step STEP", "--backtrack BACKTRACK"):
        assert shown in out


_SUPERRES = ["superres", "{ply}", "{pgm}", "{calib}", "{out}"]


@pytest.mark.parametrize("argv,message", [
    (["densify", "{ply}", "{out}", "--rate", "1"], "rate must be at least 2"),
    (["densify", "{ply}", "{out}", "--k-interp", "1"], "k_interp must be at least 2"),
    (["hull", "{csv}", "{out}", "--k", "2"], "k must be at least 3"),
    (["edges", "{pgm}", "{out}", "--sigma", "0"], "sigma must be positive"),
    (_SUPERRES + ["--low", "0.5", "--high", "0.2"], "thresholds must satisfy 0 < low < high"),
    (_SUPERRES + ["--backtrack", "1"], "backtrack_factor must be in (0, 1)"),
    (_SUPERRES + ["--alpha", "-1"], "loss weights must be nonnegative"),
    (["densify", "{ply}", "{out}", "--target", "0"],
     "argument --target: must be a positive integer, got 0"),
    (["edges", "{pgm}", "{out}", "--sigma", "inf"], "sigma must be finite"),
    (["edges", "{pgm}", "{out}", "--sigma", "nan"], "sigma must be positive"),
    (_SUPERRES + ["--sigma", "inf"], "sigma must be finite"),
    (_SUPERRES + ["--step", "inf"], "step sizes must be finite"),
    (_SUPERRES + ["--min-step", "inf"], "step sizes must be finite"),
    (_SUPERRES + ["--min-step", "1"], "min_step must not exceed initial_step"),
    (_SUPERRES + ["--step", "nan"], "step sizes must be positive"),
    (_SUPERRES + ["--alpha", "nan"], "loss weights must be finite"),
    (_SUPERRES + ["--beta", "inf"], "loss weights must be finite"),
    (_SUPERRES + ["--gamma", "inf"], "loss weights must be finite"),
    (_SUPERRES + ["--max-iters", "-1"], "max_iters must be nonnegative"),
], ids=["densify-rate", "densify-k-interp", "hull-k", "edges-sigma",
        "superres-thresholds", "superres-backtrack", "superres-weight", "densify-target",
        "edges-sigma-inf", "edges-sigma-nan", "superres-sigma-inf", "superres-step-inf",
        "superres-min-step-inf", "superres-min-step-above-step", "superres-step-nan",
        "superres-alpha-nan", "superres-beta-inf", "superres-gamma-inf",
        "superres-max-iters-negative"])
def test_invalid_flag_value_is_usage_error(tmp_path, calib, capsys, argv, message):
    files = {"ply": tmp_path / "in.ply", "csv": tmp_path / "pts.csv",
             "pgm": tmp_path / "img.pgm", "calib": calib, "out": tmp_path / "out"}
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2], [0, 0.1, 2]]), files["ply"])
    files["csv"].write_text("u,v\n0,0\n1,0\n0,1\n1,1\n")
    write_pixmap(GrayImage(np.zeros((480, 640))), files["pgm"])
    code = main([a.format(**files) for a in argv])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert not files["out"].exists()


@pytest.mark.parametrize("sigma", ["10.5", "1e12", "1e308"])
def test_edges_sigma_whose_border_band_covers_the_image_finds_none(tmp_path, capsys,
                                                                   monkeypatch, sigma):
    def kernel_built(sigma):
        raise AssertionError("a Gaussian kernel was built for a band covering the image")
    monkeypatch.setattr("cloudsr.edges.gaussian_kernel", kernel_built)
    img = np.zeros((64, 64))
    img[20:44, 20:44] = 1.0
    pgm, out = tmp_path / "img.pgm", tmp_path / "edges.csv"
    write_pixmap(GrayImage(img), pgm)
    assert main(["edges", str(pgm), str(out), "--sigma", sigma]) == 0
    assert out.read_text() == "u,v\n"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sigma", ["1e-160", "1e-300", "5e-324"])
def test_edges_sigma_whose_square_underflows_blurs_nothing(tmp_path, capsys, sigma):
    # 2*sigma^2 overflows its reciprocal or underflows to 0; the kernel is
    # still the unit impulse that every sigma far below a pixel gives
    img = np.zeros((40, 50))
    img[10:30, 15:35] = 1.0
    pgm, ref, out = tmp_path / "sq.pgm", tmp_path / "ref.csv", tmp_path / "out.csv"
    write_pixmap(GrayImage(img), pgm)
    assert main(["edges", str(pgm), str(ref), "--sigma", "1e-5"]) == 0
    assert len(ref.read_text().splitlines()) > 1
    capsys.readouterr()
    assert main(["edges", str(pgm), str(out), "--sigma", sigma]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == ref.read_bytes()


def test_high_threshold_past_the_float_range_finds_no_edges(tmp_path, calib, scene, capsys):
    # high * max gradient overflows to inf without a warning: no pixel is strong
    gt_ply, pgm, sparse = tmp_path / "gt.ply", tmp_path / "scene.pgm", tmp_path / "sparse.ply"
    assert main(["synth", str(scene), str(calib), str(gt_ply), str(pgm)]) == 0
    assert main(["densify", str(gt_ply), str(sparse), "--target", "128", "--rate", "2"]) == 0
    capsys.readouterr()
    out = tmp_path / "edges.csv"
    assert main(["edges", str(pgm), str(out), "--high", "1e308"]) == 0
    assert out.read_text() == "u,v\n"
    assert capsys.readouterr().err == ""
    assert main(["superres", str(sparse), str(pgm), str(calib), str(tmp_path / "out.ply"),
                 "--high", "1e308"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("flags,code", [
    (["--beta", "1e308"], 2), (["--beta", "1e308", "--max-iters", "0"], 2),
    (["--alpha", "1e308"], 2), (["--beta", "1e200"], 0), (["--step", "1e308"], 0),
], ids=["beta", "beta-no-iterations", "alpha", "beta-gradient-only", "step"])
def test_overflowing_refine_flags_exit_cleanly(tmp_path, calib, scene, capsys, flags, code):
    # weights this large overflow the loss (exit 2); at 1e200 only the sum of
    # squares in the gradient norm overflows, and the rescaled norm carries
    # on, as a step this large is backtracked (exit 0); a trace written
    # either way is strict JSON
    if flags[0] == "--step":
        # a 5 m square: step * half-extent overflows, so trial points are inf or NaN
        spec = json.loads(scene.read_text())
        spec.update(extent=5.0, density=1600.0,
                    pose=list(Extrinsics.from_rt(np.eye(3), [0, 0, 20.0]).matrix.ravel()))
        scene.write_text(json.dumps(spec))
    gt_ply, pgm, sparse = tmp_path / "gt.ply", tmp_path / "scene.pgm", tmp_path / "sparse.ply"
    assert main(["synth", str(scene), str(calib), str(gt_ply), str(pgm)]) == 0
    assert main(["densify", str(gt_ply), str(sparse), "--target", "128", "--rate", "2"]) == 0
    capsys.readouterr()
    trace = tmp_path / "trace.jsonl"
    assert main(["superres", str(sparse), str(pgm), str(calib), str(tmp_path / "out.ply"),
                 "--max-iters", "6", "--trace", str(trace)] + flags) == code
    err = capsys.readouterr().err.splitlines()
    assert err == ([] if code == 0 else
                   ["error: the loss or its gradient overflows; lower the loss weights"])
    if trace.exists():
        for line in trace.read_text().splitlines():
            json.loads(line, parse_constant=_reject_constant)


def test_densify_target_beyond_cloud_is_data_error(tmp_path, capsys):
    ply = tmp_path / "in.ply"
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2], [0, 0.1, 2]]), ply)
    assert main(["densify", str(ply), str(tmp_path / "out.ply"), "--target", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd,n,flags", [
    ("densify", 200, ["--rate", "100000000"]),
    ("densify", 20_000, ["--rate", "2", "--k-interp", "100000"]),
    ("superres", 200, ["--rate", "100000000"]),
], ids=["densify-rate", "densify-k-interp", "superres-rate"])
def test_densify_beyond_size_bound_is_data_error(tmp_path, calib, capsys, monkeypatch,
                                                 cmd, n, flags):
    def round_started(pts, k_interp):
        raise AssertionError("a midpoint round started past the size bound")
    monkeypatch.setattr("cloudsr.densify._midpoint_round", round_started)
    ply = tmp_path / "in.ply"
    rng = np.random.default_rng(3)
    write_ply(PointCloud3(rng.uniform(-0.2, 0.2, size=(n, 3)) + [0.0, 0.0, 2.0]), ply)
    out = str(tmp_path / "out.ply")
    if cmd == "densify":
        argv = ["densify", str(ply), out]
    else:
        img = np.zeros((480, 640))
        img[140:340, 220:420] = 1.0  # edges exist, so superres reaches densify
        pgm = tmp_path / "img.pgm"
        write_pixmap(GrayImage(img), pgm)
        argv = ["superres", str(ply), str(pgm), str(calib), out]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"exceeds {MAX_MIDPOINT_ROWS} midpoint rows" in err[0]


def test_constant_depth_flag_reaches_config():
    args = _build_parser().parse_args(["superres", "a", "b", "c", "d", "--constant-depth"])
    assert _refine_config(args) == RefineConfig(constant_depth=True)


@pytest.mark.parametrize("width,height", [(10**7, 10**7), (MAX_PIXELS // 2048 + 1, 2048)],
                         ids=["huge", "just-over"])
def test_synth_rejects_oversized_frame(tmp_path, scene, capsys, width, height):
    big = tmp_path / "big.json"
    big.write_text(_CALIB.replace('"width": 640', f'"width": {width}')
                   .replace('"height": 480', f'"height": {height}'))
    code = main(["synth", str(scene), str(big), str(tmp_path / "gt.ply"),
                 str(tmp_path / "img.pgm")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {width}x{height} frame exceeds {MAX_PIXELS} pixels"]


def test_eval_identical_clouds(tmp_path, capsys):
    cloud = PointCloud3(np.random.default_rng(0).normal(size=(20, 3)))
    ply = tmp_path / "a.ply"
    write_ply(cloud, ply)
    assert main(["eval", str(ply), str(ply)]) == 0
    out = capsys.readouterr().out
    assert out == ('{"cd": 0.0, "hd": 0.0, "normalized": false, "pred_count": 20, '
                   '"gt_count": 20}\n')
    data = json.loads(out)
    assert data == {"cd": 0.0, "hd": 0.0, "normalized": False,
                    "pred_count": 20, "gt_count": 20}


def test_eval_missing_file_exit_2(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "no.ply"), str(tmp_path / "no.ply")]) == 2
    assert "error" in capsys.readouterr().err


def test_edges_writes_csv(tmp_path):
    img = np.zeros((64, 64))
    img[20:44, 20:44] = 1.0
    pgm = tmp_path / "img.pgm"
    write_pixmap(GrayImage(img), pgm)
    out = tmp_path / "edges.csv"
    assert main(["edges", str(pgm), str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "u,v"
    pts = read_points_csv(out)
    assert len(pts) > 0


def test_project_and_hull_chain(tmp_path, calib):
    rng = np.random.default_rng(1)
    pts = np.stack([
        rng.uniform(-0.2, 0.2, 200),
        rng.uniform(-0.2, 0.2, 200),
        np.full(200, 2.0),
    ], axis=1)
    ply = tmp_path / "c.ply"
    write_ply(PointCloud3(pts), ply)
    proj_csv = tmp_path / "proj.csv"
    assert main(["project", str(ply), str(calib), str(proj_csv)]) == 0
    hull_csv = tmp_path / "hull.csv"
    assert main(["hull", str(proj_csv), str(hull_csv), "--k", "20"]) == 0
    hull_pts = read_points_csv(hull_csv)
    assert len(hull_pts) >= 3


def test_densify_counts(tmp_path):
    cloud = PointCloud3(np.random.default_rng(2).normal(size=(64, 3)))
    src = tmp_path / "in.ply"
    write_ply(cloud, src)
    dst = tmp_path / "out.ply"
    assert main(["densify", str(src), str(dst), "--rate", "4"]) == 0
    assert len(read_ply(dst)) == 256


def test_repeated_main_calls_answer_as_fresh_ones(tmp_path, capsys):
    # `main` builds its parser once per process; a usage error, a data error
    # and a good densify in one process each give the exit code, stderr and
    # output bytes that a call on a freshly built parser gives
    src = tmp_path / "in.ply"
    write_ply(PointCloud3(np.random.default_rng(3).normal(size=(40, 3))), src)
    argvs = [["densify", str(src)], ["densify", str(tmp_path / "missing.ply"), "{out}"],
             ["densify", str(src), "{out}", "--rate", "3"]]

    def run(argv, out):
        code = main([a.format(out=out) for a in argv])
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    fresh = []
    for i, argv in enumerate(argvs):
        cli._build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{i}.ply"))
    assert [code for code, _, _ in fresh] == [1, 2, 0]
    assert fresh[0][1].startswith("usage error: ") and fresh[1][1].startswith("error: ")
    for round_ in range(2):
        again = [run(argv, tmp_path / f"again{round_}-{i}.ply") for i, argv in enumerate(argvs)]
        assert again == fresh


def test_superres_dimension_mismatch_exit_2(tmp_path, calib, capsys):
    img = GrayImage(np.zeros((240, 320)))  # half the calibrated size
    pgm = tmp_path / "img.pgm"
    write_pixmap(img, pgm)
    ply = tmp_path / "in.ply"
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2]]), ply)
    code = main(["superres", str(ply), str(pgm), str(calib),
                 str(tmp_path / "out.ply")])
    assert code == 2
    err = capsys.readouterr().err
    assert "640x480" in err and "320x240" in err


def test_superres_unopenable_trace_fails_before_any_work(tmp_path, calib, capsys,
                                                         monkeypatch):
    pgm, ply, out = tmp_path / "img.pgm", tmp_path / "in.ply", tmp_path / "out.ply"
    write_pixmap(GrayImage(np.zeros((480, 640))), pgm)
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2]]), ply)
    calls = []
    monkeypatch.setattr(cli, "superres", lambda *args: calls.append(args))
    code = main(["superres", str(ply), str(pgm), str(calib), str(out),
                 "--trace", str(tmp_path / "missing" / "trace.jsonl")])
    assert code == 2 and not calls and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _writing_argv(cmd, inputs, calib, scene, out, other):
    """argv of a writing subcommand on the `inputs` dict's files, writing
    `out` and, for superres (its trace) and synth (its pixmap), `other`."""
    return [str(a) for a in {
        "superres": ["superres", inputs["ply"], inputs["pgm"], calib, out, "--trace", other],
        "densify": ["densify", inputs["ply"], out, "--target", "2"],
        "edges": ["edges", inputs["pgm"], out],
        "project": ["project", inputs["ply"], calib, out],
        "hull": ["hull", inputs["csv"], out],
        "synth": ["synth", scene, calib, out, other],
    }[cmd]]


@pytest.mark.parametrize("cmd,work,bad", [
    ("superres", "superres", 0), ("densify", "densify", 0), ("edges", "canny", 0),
    ("project", "project_cloud", 0), ("hull", "concave_hull", 0),
    ("synth", "synth_scene", 0), ("synth", "synth_scene", 1),
], ids=["superres", "densify", "edges", "project", "hull", "synth-cloud", "synth-image"])
def test_unwritable_output_fails_before_any_work(tmp_path, calib, scene, capsys, monkeypatch,
                                                 cmd, work, bad):
    inputs = {"pgm": tmp_path / "img.pgm", "ply": tmp_path / "in.ply",
              "csv": tmp_path / "pts.csv"}
    write_pixmap(GrayImage(np.zeros((480, 640))), inputs["pgm"])
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2], [0, 0.1, 2]]), inputs["ply"])
    inputs["csv"].write_text("u,v\n0,0\n1,0\n0,1\n")
    calls = []
    monkeypatch.setattr(cli, work, lambda *args, **kwargs: calls.append(args))
    outs = [tmp_path / "out-a", tmp_path / "out-b"]
    outs[bad] = tmp_path / "missing" / outs[bad].name
    assert main(_writing_argv(cmd, inputs, calib, scene, *outs)) == 2 and not calls
    # no output is left behind, the writable one included
    assert not any(path.exists() for path in outs)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_synth_outputs_naming_one_file_fail_before_any_work(tmp_path, calib, scene, capsys,
                                                            monkeypatch, existed):
    monkeypatch.chdir(tmp_path)
    if existed:
        Path("same.out").write_bytes(b"earlier run")
    calls = []
    monkeypatch.setattr(cli, "synth_scene", lambda *args: calls.append(args))
    assert main(["synth", str(scene), str(calib), "same.out", "same.out"]) == 2 and not calls
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: outputs same.out and same.out are the same file"]
    # a file this run created is removed; one that existed keeps its bytes
    if existed:
        assert Path("same.out").read_bytes() == b"earlier run"
    else:
        assert not Path("same.out").exists()


def test_superres_trace_naming_the_output_fails_before_any_work(tmp_path, calib, capsys,
                                                                monkeypatch):
    # ./out.ply and out.ply are spelled apart but name one file
    monkeypatch.chdir(tmp_path)
    write_pixmap(GrayImage(np.zeros((480, 640))), "img.pgm")
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2]]), "in.ply")
    calls = []
    monkeypatch.setattr(cli, "superres", lambda *args: calls.append(args))
    code = main(["superres", "in.ply", "img.pgm", str(calib), "out.ply",
                 "--trace", "./out.ply"])
    assert code == 2 and not calls and not Path("out.ply").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: outputs out.ply and ./out.ply are the same file"]


def _failing_argv(cmd, tmp_path, calib, out, other):
    """argv of a writing subcommand that opens its outputs, then fails with
    a data error in its work."""
    inputs = {"pgm": tmp_path / "img.pgm", "ply": tmp_path / "in.ply",
              "csv": tmp_path / "pts.csv"}
    img = np.zeros((480, 640))
    img[140:340, 220:420] = 1.0  # edges exist, so superres reaches the projection
    # edges: canny refuses an image smaller than 3x3
    write_pixmap(GrayImage(img if cmd != "edges" else np.zeros((2, 2))), inputs["pgm"])
    # superres and project: behind the camera, no point projects inside the frame
    write_ply(PointCloud3(np.random.default_rng(4).uniform(-0.2, 0.2, size=(64, 3))
                          - [0.0, 0.0, 2.0]), inputs["ply"])
    inputs["csv"].write_text("u,v\n0,0\n1,1\n2,2\n")  # hull: collinear
    scene = tmp_path / "scene.json"  # synth: the square overfills the frame
    scene.write_text(_SCENE.replace('"extent": 0.5', '"extent": 5.0'))
    argv = _writing_argv(cmd, inputs, calib, scene, out, other)
    if cmd == "densify":
        argv[-1] = "65"  # more than the 64 input rows
    return argv


_WRITING_COMMANDS = ["superres", "densify", "edges", "project", "hull", "synth"]


@pytest.mark.parametrize("cmd", _WRITING_COMMANDS)
def test_failed_run_leaves_no_output_or_trace(tmp_path, calib, capsys, cmd):
    out, other = tmp_path / "out-a", tmp_path / "out-b"
    assert main(_failing_argv(cmd, tmp_path, calib, out, other)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists() and not other.exists()


@pytest.mark.parametrize("cmd", _WRITING_COMMANDS)
def test_failed_run_keeps_existing_outputs(tmp_path, calib, cmd):
    out, other = tmp_path / "out-a", tmp_path / "out-b"
    for path in (out, other):
        path.write_bytes(b"earlier run")
    assert main(_failing_argv(cmd, tmp_path, calib, out, other)) == 2
    assert out.read_bytes() == other.read_bytes() == b"earlier run"


def test_synth_superres_eval_chain(tmp_path, calib, scene):
    gt_ply = tmp_path / "gt.ply"
    pgm = tmp_path / "scene.pgm"
    assert main(["synth", str(scene), str(calib), str(gt_ply), str(pgm)]) == 0
    gt = read_ply(gt_ply)
    assert len(gt) == 10_000

    sparse_ply = tmp_path / "sparse.ply"
    assert main(["densify", str(gt_ply), str(sparse_ply),
                 "--target", "128", "--rate", "2"]) == 0
    assert len(read_ply(sparse_ply)) == 256

    out_ply = tmp_path / "sup.ply"
    trace = tmp_path / "trace.jsonl"
    code = main([
        "superres", str(sparse_ply), str(pgm), str(calib), str(out_ply),
        "--rate", "4", "--max-iters", "6", "--trace", str(trace),
    ])
    assert code == 0
    assert len(read_ply(out_ply)) == 1024
    lines = trace.read_text().splitlines()
    assert len(lines) >= 1
    rec = json.loads(lines[0])
    assert rec["iteration"] == 0 and rec["hull_size"] >= 3

    assert main(["eval", str(out_ply), str(gt_ply), "--normalize"]) == 0


# the README's square example, as its shell heredocs write the two files
_README_SCENE = """{"shape": "square-plane",
 "pose": [1,0,0,0, 0,1,0,0, 0,0,1,2.0, 0,0,0,1],
 "extent": 0.5, "density": 40000, "fg": 1.0, "bg": 0.0}
"""
_README_CALIB = """{"k_rgb": {"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0},
 "e_rgb": [1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1],
 "e_tof": [1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1],
 "width": 640, "height": 480}
"""
_README_SHA256 = {
    "gt.ply": "63e6f041253426a48bad8f19ecccd0e1bdf0283b134c3c3cbe3d4bb0df9e7f9f",
    "scene.pgm": "fbda88c8124b42b8d64a0aaa1f9c50db129decbaf225acad4d587ce864f0f281",
    "sparse.ply": "473b04218c7f332de278c0aacf958b4e979d24f68ca193f8791f88eb3903aa09",
}


def test_readme_square_example_writes_the_pinned_bytes(tmp_path, monkeypatch):
    """`synth` and then `densify --target 512 --rate 2` of the README's
    square example write these bytes on every CPU.  Nothing on this path
    calls `np.arctan2`, whose float64 kernel numpy picks per CPU, and the
    pose's rotation and both extrinsics are identities, so every matmul
    multiplies by exact ones and zeros.  `superres` output is not pinned:
    its hull walk orders candidates by `np.arctan2` angles (README
    "Behavior notes")."""
    monkeypatch.chdir(tmp_path)
    Path("scene.json").write_text(_README_SCENE)
    Path("calib.json").write_text(_README_CALIB)
    assert main(["synth", "scene.json", "calib.json", "gt.ply", "scene.pgm"]) == 0
    assert main(["densify", "gt.ply", "sparse.ply", "--target", "512", "--rate", "2"]) == 0
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in _README_SHA256}
    assert got == _README_SHA256


def _pipeline_bytes(tmp_path, calib, scene):
    """A function of a tag that runs densify and superres on a synthesized
    square and returns the bytes of both outputs."""
    gt_ply, pgm = tmp_path / "gt.ply", tmp_path / "scene.pgm"
    assert main(["synth", str(scene), str(calib), str(gt_ply), str(pgm)]) == 0

    def run(tag):
        sparse, out = tmp_path / f"sparse-{tag}.ply", tmp_path / f"sup-{tag}.ply"
        assert main(["densify", str(gt_ply), str(sparse),
                     "--target", "128", "--rate", "2"]) == 0
        assert main(["superres", str(sparse), str(pgm), str(calib), str(out),
                     "--max-iters", "20"]) == 0
        return sparse.read_bytes(), out.read_bytes()

    return run


def test_outputs_match_flat_scan_oracle(tmp_path, calib, scene, monkeypatch):
    # densify and superres write the same bytes whether neighbors are ranked
    # by the index or by an exhaustive scan (the square's lattice ties often)
    run = _pipeline_bytes(tmp_path, calib, scene)
    shipped = run("tree")
    monkeypatch.setattr(SpatialIndex, "_rank",
                        lambda self, queries, k: flat_knn(self._points, queries, k))
    assert run("flat") == shipped


def test_outputs_match_brute_drop_closest_oracle(tmp_path, calib, scene, monkeypatch):
    # the same bytes whether an overshooting downsample is trimmed by the
    # heap or by the pair-matrix oracle; all three downsamples (the target,
    # densify's and superres's) overshoot on this square
    trims = []

    def counted(trim):
        def counting(pts, m):
            trims.append((pts.shape[0], m))
            return trim(pts, m)
        return counting

    run = _pipeline_bytes(tmp_path, calib, scene)
    monkeypatch.setattr(geometry, "drop_closest", counted(geometry.drop_closest))
    shipped = run("heap")
    assert len(trims) == 3 and all(n > m for n, m in trims)
    monkeypatch.setattr(geometry, "drop_closest", counted(brute_drop_closest))
    assert run("brute") == shipped
    assert trims[3:] == trims[:3]


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_PLY_HEAD = ("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
             "property double y\nproperty double z\nend_header\n")
_BIN_PLY = (b"ply\nformat binary_little_endian 1.0\n%b"
            b"element vertex %d\nproperty double x\nproperty double y\n"
            b"property double z\nend_header\n" + bytes(24))


@pytest.mark.parametrize("cmd,name,text", [
    ("hull", "pts.csv", "u,v\n1,2\nfoo\n3,4\n"),
    ("hull", "pts.csv", "u,v\n1,2\nnan,3\n3,4\n0,5\n"),
    ("synth", "scene.json", '{"shape": "box",'),
    ("synth", "scene.json", '["box"]'),
    ("densify", "in.ply", _PLY_HEAD + "0 0 1\nnan 0 1\n1 1 1\n"),
    ("hull", "pts.csv", b"u,v\n1,2\n\xff,3\n3,4\n"),
    ("synth", "scene.json", b'{"shape": "box\xff"}'),
    ("project", "rig.json", b'{"fx": 500.0\xff}'),
    ("project", "rig.json", _CALIB.replace('"width": 640', '"width": 1e400')),
    ("project", "rig.json", _CALIB.replace('"width": 640', '"width": 0')),
    ("synth", "scene.json", '{"shape": "square-plane", "density": 1e400}'),
    ("synth", "scene.json", '{"shape": "square-plane", "density": 1e300}'),
    ("synth", "scene.json", '{"shape": "square-plane", "extent": 1%s}' % ("0" * 400)),
    ("project", "rig.json", _CALIB.replace('"width": 640', '"width": 1%s' % ("0" * 5000))),
    ("densify", "in.ply", _BIN_PLY % (b"element face -3\nproperty uchar n\n", 1)),
    ("densify", "in.ply", _BIN_PLY % (b"", 10**15)),
    ("densify", "in.ply", _PLY_HEAD.replace(
        "element vertex", "element face -3\nproperty list uchar int vertex_indices\n"
        "element vertex") + "0 0 1\n1 0 1\n1 1 1\n"),
    ("densify", "in.ply", _PLY_HEAD.replace("property double z", "property")
     + "0 0 1\n1 0 1\n1 1 1\n"),
    ("densify", "in.ply", _PLY_HEAD + "0 0 1\n1e300 0 1\n1 1 1\n"),
    ("hull", "pts.csv", "u,v\n0,0\n1e200,0\n0,1e200\n"),
    ("edges", "img.pgm", "P2\n2 2\n255\n%s 0 0 0\n" % ("9" * 400)),
    ("synth", "scene.json", json.dumps({  # a valid scene but for the misspelt key
        "shape": "square-plane", "extnt": 0.2,
        "pose": list(Extrinsics.from_rt(np.eye(3), [0, 0, 2.0]).matrix.ravel())})),
    ("project", "rig.json", _CALIB.replace('"width": 640', '"width": 640.9')),
    ("project", "rig.json",  # one pixel wide, at the column the points project to
     _CALIB.replace('"width": 640', '"width": true').replace('"cx": 320.0', '"cx": 0.0')),
    ("project", "rig.json", _CALIB.replace('"fx": 800.0', '"fx": "800"')),
    ("project", "rig.json", _CALIB.replace('"e_rgb": [1.0', '"e_rgb": ["1.0"')),
    ("synth", "scene.json", _SCENE.replace('"extent": 0.5', '"extent": "0.5"')),
    ("synth", "scene.json", _SCENE.replace('"fg": 1.0', '"fg": true')),
    ("synth", "scene.json", _SCENE.replace('"pose": [1.0', '"pose": ["1.0"')),
    # normalized by a ground truth of extent 1e-149, the row at 100 lands past
    # COORD_LIMIT; by one of extent 5e-324, division overflows to inf
    ("eval", "pred-1e-149.ply", _PLY_HEAD + "0 0 0\n100 0 0\n0 1e-149 0\n"),
    ("eval", "pred-5e-324.ply", _PLY_HEAD + "0 0 0\n100 0 0\n0 1e-149 0\n"),
    ("project", "rig.json", "[1, 2]"),
    ("project", "rig.json", "null"),
    ("project", "rig.json", '"x"'),
    ("project", "rig.json", _CALIB.replace('"width": 640', '"distortion": [0.1], "width": 640')),
    ("project", "rig.json", _CALIB.replace('"cy": 240.0', '"cy": 240.0, "k1": 0.1')),
    ("project", "rig.json", _CALIB.replace(
        '{"fx": 800.0, "fy": 800.0, "cx": 320.0, "cy": 240.0}', "[800.0, 800.0, 320.0, 240.0]")),
    ("project", "rig.json", _CALIB.replace('"fx": 800.0', '"fx": 0')),
    ("project", "rig.json", _CALIB.replace('"fx": 800.0', '"fx": 1e400')),
    ("project", "rig.json", _CALIB.replace('"e_tof": [1.0', '"e_tof": [1e400')),
    ("synth", "scene.json", _SCENE.replace('"extent": 0.5', '"extent": -1')),
    ("synth", "scene.json", _SCENE.replace('"fg": 1.0', '"fg": 2')),
], ids=["hull-bad-row", "hull-nan", "synth-bad-json", "synth-json-list", "densify-nan",
        "hull-non-ascii", "synth-non-utf8", "calib-non-utf8", "calib-width-overflow",
        "calib-zero-width", "synth-density-overflow", "synth-density-huge",
        "synth-int-overflow", "calib-digit-limit",
        "ply-binary-negative-count", "ply-binary-false-count",
        "ply-ascii-negative-count", "ply-bare-property", "ply-huge-coordinate",
        "hull-huge-coordinate", "pnm-int-overflow", "synth-unknown-key",
        "calib-fractional-width", "calib-bool-width", "calib-string-fx",
        "calib-string-matrix-entry", "synth-string-extent", "synth-bool-fg",
        "synth-string-pose-entry", "eval-normalized-past-limit",
        "eval-normalized-overflow", "calib-json-list", "calib-json-null",
        "calib-json-string", "calib-unknown-key", "calib-unknown-intrinsic",
        "calib-intrinsics-list", "calib-zero-fx", "calib-fx-overflow",
        "calib-e-tof-overflow", "synth-negative-extent", "synth-fg-above-one"])
def test_malformed_input_exit_2_without_traceback(tmp_path, calib, cmd, name, text):
    bad = tmp_path / name
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("ascii"))
    if cmd == "synth":
        args = [bad, calib, tmp_path / "gt.ply", tmp_path / "img.pgm"]
    elif cmd == "project":  # the cloud is valid, the calibration is not
        cloud = tmp_path / "in.ply"
        cloud.write_text(_PLY_HEAD + "0 0 1\n1 0 1\n1 1 1\n")
        args = [cloud, bad, tmp_path / "out"]
    elif cmd == "eval":  # the prediction is valid, the ground truth's extent is in its name
        extent = name[len("pred-"):-len(".ply")]
        gt = tmp_path / "gt.ply"
        gt.write_text(_PLY_HEAD + f"0 0 0\n{extent} 0 0\n0 {extent} 0\n")
        args = [bad, gt, "--normalize"]
    else:
        args = [bad, tmp_path / "out"]
    argv = [cmd] + [str(p) for p in args]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "cloudsr.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    if name == "rig.json" and text in ("[1, 2]", "null", '"x"'):
        assert "the file must hold a JSON object" in lines[0], lines[0]
    if isinstance(text, str) and '"e_tof": [1e400' in text:
        assert lines[0] == "error: bad calibration data: e_tof: extrinsic matrix must be finite"


def test_superres_ply_formats_write_the_same_cloud(tmp_path, calib, scene):
    # `--ply-format ascii` and the binary default read back to the same
    # float64 bytes, and the ASCII body is per-row `%.17g` of them
    gt_ply, pgm, sparse = tmp_path / "gt.ply", tmp_path / "scene.pgm", tmp_path / "sparse.ply"
    assert main(["synth", str(scene), str(calib), str(gt_ply), str(pgm)]) == 0
    assert main(["densify", str(gt_ply), str(sparse), "--target", "128", "--rate", "2"]) == 0
    out = {fmt: tmp_path / f"sup-{fmt}.ply" for fmt in ("ascii", "binary-little-endian")}
    for fmt, path in out.items():
        assert main(["superres", str(sparse), str(pgm), str(calib), str(path),
                     "--max-iters", "20", "--ply-format", fmt]) == 0
    binary = read_ply(out["binary-little-endian"]).points
    assert read_ply(out["ascii"]).points.tobytes() == binary.tobytes()
    head, body = out["ascii"].read_bytes().split(b"end_header\n")
    assert head.startswith(b"ply\nformat ascii 1.0\n")
    assert body == numpy_scalar_ply_body(binary)
    assert out["binary-little-endian"].read_bytes().startswith(
        b"ply\nformat binary_little_endian 1.0\n")


def test_superres_unknown_ply_format_is_usage_error(tmp_path, calib):
    ply, pgm, out = tmp_path / "in.ply", tmp_path / "img.pgm", tmp_path / "out.ply"
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2], [0, 0.1, 2]]), ply)
    write_pixmap(GrayImage(np.zeros((480, 640))), pgm)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "cloudsr.cli", "superres", str(ply), str(pgm),
                           str(calib), str(out), "--ply-format", "text"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), proc.stderr
    assert "text" in lines[0]
    assert not out.exists()
