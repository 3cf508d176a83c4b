import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloudsr import geometry
from cloudsr.camera import Extrinsics
from cloudsr.cli import (
    _build_parser,
    _canny_params,
    _densify_config,
    _refine_config,
    main,
    read_points_csv,
)
from cloudsr.densify import MAX_MIDPOINT_ROWS, DensifyConfig
from cloudsr.edges import CannyParams, GrayImage
from cloudsr.geometry import PointCloud3, SpatialIndex
from cloudsr.pixmap import write_pixmap
from cloudsr.ply_io import read_ply, write_ply
from cloudsr.refine import RefineConfig
from cloudsr.synth import MAX_PIXELS

from oracles import brute_farthest_point_select, flat_knn

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


@pytest.fixture
def scene(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "shape": "square-plane",
        "pose": list(Extrinsics.from_rt(np.eye(3), [0, 0, 2.0]).matrix.ravel()),
        "extent": 0.5,
        "density": 4e4,
        "fg": 1.0,
        "bg": 0.0,
    }))
    return path


def test_usage_error_exit_1(capsys):
    assert main(["densify"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_exit_1():
    assert main(["frobnicate"]) == 1


def test_flag_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["superres", "a", "b", "c", "d"])
    assert _refine_config(args) == RefineConfig()
    assert _canny_params(args) == CannyParams()
    assert _densify_config(args) == DensifyConfig()
    args = _build_parser().parse_args(["densify", "a", "b"])
    assert _densify_config(args) == DensifyConfig()


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
    (_SUPERRES + ["--step", "nan"], "step sizes must be positive"),
    (_SUPERRES + ["--alpha", "nan"], "loss weights must be finite"),
    (_SUPERRES + ["--beta", "inf"], "loss weights must be finite"),
    (_SUPERRES + ["--gamma", "inf"], "loss weights must be finite"),
], ids=["densify-rate", "densify-k-interp", "hull-k", "edges-sigma",
        "superres-thresholds", "superres-backtrack", "superres-weight", "densify-target",
        "edges-sigma-inf", "edges-sigma-nan", "superres-sigma-inf", "superres-step-inf",
        "superres-min-step-inf", "superres-step-nan", "superres-alpha-nan",
        "superres-beta-inf", "superres-gamma-inf"])
def test_invalid_flag_value_is_usage_error(tmp_path, calib, capsys, argv, message):
    files = {"ply": tmp_path / "in.ply", "csv": tmp_path / "pts.csv",
             "pgm": tmp_path / "img.pgm", "calib": calib, "out": tmp_path / "out"}
    write_ply(PointCloud3([[0.0, 0, 2], [0.1, 0, 2], [0, 0.1, 2]]), files["ply"])
    files["csv"].write_text("u,v\n0,0\n1,0\n0,1\n1,1\n")
    write_pixmap(GrayImage(np.zeros((480, 640))), files["pgm"])
    code = main([a.format(**files) for a in argv])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]


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


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("flags,code", [
    (["--beta", "1e308"], 2), (["--beta", "1e308", "--max-iters", "0"], 2),
    (["--alpha", "1e308"], 2), (["--beta", "1e200"], 2), (["--step", "1e308"], 0),
], ids=["beta", "beta-no-iterations", "alpha", "beta-gradient-only", "step"])
def test_overflowing_refine_flags_exit_cleanly(tmp_path, calib, scene, capsys, flags, code):
    # weights this large overflow the loss, or at 1e200 only its gradient
    # norm (exit 2); a step this large is backtracked (exit 0); a trace
    # written either way is strict JSON
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


def test_outputs_match_brute_farthest_point_oracle(tmp_path, calib, scene, monkeypatch):
    # the same bytes whether downsampling orders its centroids with the
    # tree-pruned selection or by updating every row after each pick
    run = _pipeline_bytes(tmp_path, calib, scene)
    shipped = run("pruned")
    monkeypatch.setattr(geometry, "farthest_point_select", brute_farthest_point_select)
    assert run("brute") == shipped


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
], ids=["hull-bad-row", "hull-nan", "synth-bad-json", "synth-json-list", "densify-nan",
        "hull-non-ascii", "synth-non-utf8", "calib-non-utf8", "calib-width-overflow",
        "calib-zero-width", "synth-density-overflow", "synth-density-huge",
        "synth-int-overflow", "calib-digit-limit",
        "ply-binary-negative-count", "ply-binary-false-count",
        "ply-ascii-negative-count", "ply-bare-property", "ply-huge-coordinate",
        "hull-huge-coordinate", "pnm-int-overflow"])
def test_malformed_input_exit_2_without_traceback(tmp_path, calib, cmd, name, text):
    bad = tmp_path / name
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("ascii"))
    if cmd == "synth":
        args = [bad, calib, tmp_path / "gt.ply", tmp_path / "img.pgm"]
    elif cmd == "project":  # the cloud is valid, the calibration is not
        cloud = tmp_path / "in.ply"
        cloud.write_text(_PLY_HEAD + "0 0 1\n1 0 1\n1 1 1\n")
        args = [cloud, bad, tmp_path / "out"]
    else:
        args = [bad, tmp_path / "out"]
    argv = [cmd] + [str(p) for p in args]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "cloudsr.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
