"""Fuzz tests of the input readers behind the CLI.

Each test starts from valid files, mutates header fields and raw bytes, runs
`cli.main` in-process on the result and requires exit code 0 or 2: any
exception escaping `main` (a traceback for a user) fails the test.  The
examples are derandomized and bounded, so every run sees the same inputs.
"""

import contextlib
import io
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudsr import cli

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# values a field is replaced with: signs, overflow, non-numbers, huge counts,
# an integer too large for a float and one past Python's digit limit
_FIELD_VALUES = [b"-1", b"0", b"-3", b"1e400", b"-1e400", b"1e300", b"nan",
                 b"inf", b"99999999999999999999", b"1000000000000000", b"0.5",
                 b"", b"\xff", b"x", b"9" * 400, b"1" * 5000]
_FIELD = re.compile(rb"[^\s,:\[\]{}\"]+")


@st.composite
def mutated(draw, seeds):
    """One of `seeds` after one to three field or byte mutations."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "overwrite", "insert", "delete", "truncate"]))
        if kind == "field":
            spans = [m.span() for m in _FIELD.finditer(data)]
            if spans:
                lo, hi = draw(st.sampled_from(spans))
                data[lo:hi] = draw(st.sampled_from(_FIELD_VALUES) | st.binary(max_size=4))
            continue
        pos = draw(st.integers(0, len(data)))
        if kind == "overwrite":
            data[pos:pos + 1] = draw(st.binary(min_size=1, max_size=1))
        elif kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)


def _exit_code(data: bytes, name: str, argv) -> int:
    """Write `data` to `name` in a fresh directory and run the CLI there;
    `argv` items are formatted with the directory as `d`."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / name).write_bytes(data)
        for fixture, content in _FIXTURES.items():
            (d / fixture).write_bytes(content)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main([a.format(d=d) for a in argv])


# -- seed files ----------------------------------------------------------------

_XYZ = np.array([[0.0, 0.0, 2.0], [0.1, 0.0, 2.0], [0.1, 0.1, 2.1],
                 [0.0, 0.1, 2.0], [0.05, 0.02, 1.9]])


def _ply_header(fmt, vertex_props, before="", after=""):
    return (f"ply\nformat {fmt} 1.0\ncomment fuzz seed\n{before}"
            f"element vertex {len(_XYZ)}\n{vertex_props}{after}end_header\n").encode("ascii")


_PLY_ASCII = [
    _ply_header("ascii", "property double x\nproperty double y\nproperty double z\n")
    + b"".join(b"%r %r %r\n" % tuple(p) for p in _XYZ.tolist()),
    _ply_header("ascii", "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\n", before="element aux 2\nproperty int a\n",
                after="element face 1\nproperty list uchar int vertex_indices\n")
    + b"5\n6\n" + b"".join(b"%r %r %r 7\n" % tuple(p) for p in _XYZ.tolist()) + b"3 0 1 2\n",
]

_PLY_BINARY = [
    _ply_header("binary_little_endian",
                "property double x\nproperty double y\nproperty double z\n")
    + _XYZ.astype("<f8").tobytes(),
    _ply_header("binary_little_endian",
                "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\n", before="element aux 2\nproperty int a\n")
    + struct.pack("<2i", 5, 6)
    + b"".join(struct.pack("<3fB", *p, 7) for p in _XYZ.tolist()),
]


def _square(n=12):
    img = np.zeros((n, n), dtype=np.uint8)
    img[3:9, 4:10] = 200
    return img


def _pnm_seeds():
    img = _square()
    h, w = img.shape
    plain = " ".join(str(v) for v in img.ravel()).encode("ascii")
    rgb = np.repeat(img[:, :, None], 3, axis=2)
    return [
        b"P2\n# fuzz seed\n%d %d\n255\n" % (w, h) + plain + b"\n",
        b"P5\n%d %d\n255\n" % (w, h) + img.tobytes(),
        b"P3\n%d %d\n255\n" % (w, h)
        + " ".join(str(v) for v in rgb.ravel()).encode("ascii") + b"\n",
        b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes(),
        b"P5\n%d %d\n65535\n" % (w, h) + (img.astype(">u2") * 257).tobytes(),
    ]


_CSV = b"u,v\n" + b"".join(b"%r,%r\n" % (u, v) for u, v in [
    (10.0, 10.0), (20.5, 11.0), (30.0, 12.25), (31.0, 25.0),
    (22.0, 30.0), (9.0, 28.0), (15.0, 18.0), (24.0, 20.0)])

_CALIB = {
    "k_rgb": {"fx": 80.0, "fy": 80.0, "cx": 32.0, "cy": 24.0},
    "e_rgb": np.eye(4).ravel().tolist(),
    "e_tof": np.eye(4).ravel().tolist(),
    "width": 64,
    "height": 48,
}
_POSE = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])

# valid companions of the mutated file, written next to it
_FIXTURES = {
    "good.ply": _PLY_ASCII[0],
    "good.json": json.dumps(_CALIB).encode("ascii"),
}

_SCENES = [
    json.dumps({"shape": shape, "pose": _POSE.ravel().tolist(), "extent": extent,
                "density": 400.0, "fg": 1.0, "bg": 0.0}).encode("ascii")
    for shape, extent in [("square-plane", 0.5), ("box", 0.3), ("sphere", 0.4)]
]


# -- one test per reader ---------------------------------------------------------


@FUZZ
@given(mutated(_PLY_ASCII))
def test_fuzz_ply_ascii(data):
    argv = ["densify", "{d}/in.ply", "{d}/out.ply", "--rate", "2"]
    assert _exit_code(data, "in.ply", argv) in (0, 2)


@FUZZ
@given(mutated(_PLY_BINARY))
def test_fuzz_ply_binary(data):
    argv = ["densify", "{d}/in.ply", "{d}/out.ply", "--rate", "2"]
    assert _exit_code(data, "in.ply", argv) in (0, 2)


@FUZZ
@given(mutated(_pnm_seeds()))
def test_fuzz_pnm(data):
    assert _exit_code(data, "in.pnm", ["edges", "{d}/in.pnm", "{d}/out.csv"]) in (0, 2)


def test_plain_raster_promising_samples_past_maxsize_is_one_error_line(tmp_path, capsys):
    # a sample count past sys.maxsize must not reach `bytes.split` as a maxsplit
    (tmp_path / "in.pgm").write_bytes(b"P2 99999999999 99999999999 255\n0 1\n")
    code = cli.main(["edges", str(tmp_path / "in.pgm"), str(tmp_path / "out.csv")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@FUZZ
@given(mutated([_CSV]))
def test_fuzz_points_csv(data):
    argv = ["hull", "{d}/in.csv", "{d}/out.csv", "--k", "3"]
    assert _exit_code(data, "in.csv", argv) in (0, 2)


@FUZZ
@given(mutated([json.dumps(_CALIB).encode("ascii")]))
def test_fuzz_calibration_json(data):
    argv = ["project", "{d}/good.ply", "{d}/calib.json", "{d}/out.csv"]
    assert _exit_code(data, "calib.json", argv) in (0, 2)


@FUZZ
@given(mutated(_SCENES))
def test_fuzz_scene_json(data):
    argv = ["synth", "{d}/scene.json", "{d}/good.json", "{d}/gt.ply", "{d}/img.pgm"]
    assert _exit_code(data, "scene.json", argv) in (0, 2)
