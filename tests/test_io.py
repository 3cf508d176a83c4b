import re
from decimal import Decimal

import numpy as np
import pytest

from cloudsr import ply_io
from cloudsr.errors import CloudSRError
from cloudsr.edges import GrayImage
from cloudsr.geometry import COORD_LIMIT, PointCloud3
from cloudsr.pixmap import read_pixmap, write_pixmap
from cloudsr.ply_io import read_ply, write_ply

from oracles import float32_binary_ply, numpy_scalar_ply_body, plain_graymap


# -- PLY ------------------------------------------------------------------------


def test_ply_ascii_f64_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(scale=3.0, size=(100, 3))
    cloud = PointCloud3(pts)
    path = tmp_path / "c.ply"
    write_ply(cloud, path, fmt="ascii")
    back = read_ply(path)
    np.testing.assert_array_equal(back.points, pts)  # 17 digits: exact


def _ascii_body(path):
    data = path.read_bytes()
    return data[data.index(b"end_header\n") + len(b"end_header\n"):]


def _random_bits(rng, n, low=0.0, high=COORD_LIMIT):
    """n float64 of random sign, exponent and mantissa bits, the exponent
    bits drawn between those of low and high, with low <= |x| <= high."""
    lo, hi = (int(np.float64(x).view(np.uint64)) >> 52 for x in (low, high))
    draw = lambda top, shift: rng.integers(0, top, size=2 * n, dtype=np.uint64) << np.uint64(shift)
    exp = rng.integers(lo, hi + 1, size=2 * n, dtype=np.uint64) << np.uint64(52)
    out = (draw(2, 63) | exp | draw(2**52, 0)).view(np.float64)
    return out[(np.abs(out) >= low) & (np.abs(out) <= high)][:n]


def _exact_ties(rng, n):
    """Dyadic values +-m / 2^j whose exact decimal expansion has 18
    significant digits, the last a 5: each is a tie at the 17th digit."""
    out = []
    while len(out) < n:
        j = int(rng.integers(2, 23))
        # m odd and m * 5^j of 18 digits, so m / 2^j = m * 5^j / 10^j
        m = int(rng.integers(-(-10**17 // 5**j), min(10**18 // 5**j, 2**53))) | 1
        x = m / 2**j
        if 1e-4 <= x < 1e17 and len(Decimal(x).as_tuple().digits) == 18:
            out.append(x if rng.random() < 0.5 else -x)
    return np.array(out)


def _far_rows():
    """The README's 1e10-offset ring (`far.ply`): large values with few
    digits after the point."""
    i = np.arange(200)
    r, t = 1 + 0.01 * i, 0.5 * i
    return np.column_stack([1e10 + r * np.cos(t), -1e10 + r * np.sin(t), 2 + 0.001 * i])


def _ascii_cases():
    rng = np.random.default_rng(3)
    tiny = np.finfo(np.float64).tiny
    special = [[-0.0, 0.0, 5e-324], [-5e-324, tiny, -tiny / 3],
               [1e150, -1e150, 1e150 / 3], [0.1, -2.5, 1 / 3]]
    mixed = np.concatenate([special] + [rng.normal(scale=s, size=(40, 3))
                                        for s in (1e-310, 1e-300, 1e-8, 1.0, 1e8, 1e149)])
    # PointCloud3 refuses magnitudes past COORD_LIMIT (1e150), so no larger
    # value such as 1e300 can reach the writer
    one_row = [[-0.0, -0.0, -0.0], [5e-324, -tiny / 3, -5e-324],
               [COORD_LIMIT, -COORD_LIMIT, -COORD_LIMIT / 7], [0.1, -2.5, 1 / 3]]
    powers = [10.0 ** k for k in range(-6, 19)]
    near_powers = [y for x in powers for y in (x, np.nextafter(x, 0), np.nextafter(x, np.inf))]
    # the largest doubles below 1e-4, 1e3 and 1e17, a few ulps apart: at 17
    # digits none rounds up to the power, and each keeps its own exponent
    below = []
    for x in (1e-4, 1e3, 1e17):
        for _ in range(5):
            x = np.nextafter(x, 0)
            below.append(x)
    signed = np.array(near_powers + below)
    signed = np.concatenate([signed, -signed])
    bits = _random_bits(rng, 102_000)
    fixed_bits = _random_bits(rng, 102_000, 1e-5, 1e18)
    both = np.concatenate([bits, fixed_bits])
    rng.shuffle(both)
    return {
        "mixed": mixed,
        **{f"one-row-{i}": np.array([row]) for i, row in enumerate(one_row)},
        "powers-of-ten": np.resize(signed, (-(-signed.size // 3), 3)),
        "random-bits": bits.reshape(-1, 3),
        "random-bits-fixed-range": fixed_bits.reshape(-1, 3),
        "random-bits-shuffled": both.reshape(-1, 3),
        "exact-ties": _exact_ties(rng, 3_000).reshape(-1, 3),
        "all-fallback": rng.normal(scale=1e-6, size=(2_000, 3)) * [1, 1e-200, 1e100],
        "far-rows": _far_rows(),
        "rounded": np.round(rng.normal(scale=100.0, size=(3_000, 3)), 3),
    }


_ASCII_CASES = _ascii_cases()


def test_ply_ascii_bytes_match_numpy_scalar_formatting(tmp_path):
    path = tmp_path / "c.ply"
    for name, pts in _ASCII_CASES.items():
        write_ply(PointCloud3(pts), path, fmt="ascii")
        assert _ascii_body(path) == numpy_scalar_ply_body(pts), name
        assert read_ply(path).points.tobytes() == pts.tobytes(), name  # -0.0 keeps its sign


def test_ply_ascii_writes_fixed_values_by_array_arithmetic(tmp_path, monkeypatch):
    # the oracle test above would pass if every value went through `%`:
    # count the values that went through the digit arithmetic instead
    seen = []

    def counted(mag):
        seen.append(mag.size)
        return fixed_digits(mag)

    fixed_digits = ply_io._fixed_digits
    monkeypatch.setattr(ply_io, "_fixed_digits", counted)
    write_ply(PointCloud3(_ASCII_CASES["random-bits-shuffled"]), tmp_path / "c.ply")
    assert sum(seen) == _ASCII_CASES["random-bits-shuffled"].size


@pytest.mark.parametrize("off", [1, -1], ids=["too-high", "too-low"])
def test_ply_ascii_bytes_survive_a_wrong_exponent_estimate(tmp_path, monkeypatch, off):
    # the log10 guess of each decimal exponent is corrected until the 17
    # digits fall in [1e16, 1e17), so a guess one off everywhere writes the
    # same bytes
    estimate = ply_io._exponent_estimate
    monkeypatch.setattr(ply_io, "_exponent_estimate", lambda mag: estimate(mag) + off)
    path = tmp_path / "c.ply"
    for name in ("powers-of-ten", "random-bits-fixed-range", "exact-ties", "far-rows"):
        pts = _ASCII_CASES[name]
        write_ply(PointCloud3(pts), path, fmt="ascii")
        assert _ascii_body(path) == numpy_scalar_ply_body(pts), name


def test_ply_binary_f64_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(57, 3))
    path = tmp_path / "c.ply"
    write_ply(PointCloud3(pts), path, fmt="binary-little-endian")
    np.testing.assert_array_equal(read_ply(path).points, pts)


def test_ply_binary_f32_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(33, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "c.ply"
    path.write_bytes(float32_binary_ply(pts))
    np.testing.assert_array_equal(read_ply(path).points, pts)


def test_ply_truncated_ascii(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 10\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        + "\n".join("0 1 2" for _ in range(9))
    )
    with pytest.raises(CloudSRError, match="promises 10 records, file ends early"):
        read_ply(path)


@pytest.mark.parametrize("count, body, error", [
    # the body is split only through the last token read: an exact body
    # reads, one token short does not, and a count past any body's tokens is
    # refused before it is used as a split limit
    (2, "0 1 2\n3 4 5  \n\n3 0 1 2\n", None),
    (2, "0 1 2\n3 4\n", "promises 2 records"),
    (2, "0 1 2 3 4", "promises 2 records"),
    (10**30, "0 1 2\n", f"promises {10**30} records"),
])
def test_ply_ascii_body_split_through_the_vertex_records(tmp_path, count, body, error):
    path = tmp_path / "c.ply"
    path.write_text(f"ply\nformat ascii 1.0\nelement vertex {count}\n{_XYZ}"
                    f"element face 1\nproperty list uchar int vertex_indices\nend_header\n{body}")
    if error is None:
        np.testing.assert_array_equal(read_ply(path).points, [[0, 1, 2], [3, 4, 5]])
    else:
        with pytest.raises(CloudSRError, match=f"{error}, file ends early"):
            read_ply(path)


def test_ply_truncated_binary(tmp_path):
    path = tmp_path / "bad.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
        "property double x\nproperty double y\nproperty double z\nend_header\n"
    )
    path.write_bytes(header.encode() + b"\x00" * (3 * 8 * 3))  # 3 of 4 rows
    with pytest.raises(CloudSRError, match="promises 4 records, file ends early"):
        read_ply(path)


def test_ply_extra_properties_skipped(tmp_path):
    path = tmp_path / "n.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment crafted fixture\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nproperty float ny\nproperty float nz\n"
        "end_header\n"
        "1 2 3 0 0 1\n"
        "4 5 6 0 1 0\n"
    )
    cloud = read_ply(path)
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_ply_binary_extra_properties_skipped(tmp_path):
    path = tmp_path / "n.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nend_header\n"
    )
    row = np.array([1.0, 2.0, 3.0], dtype="<f4").tobytes() + b"\x07"
    row2 = np.array([4.0, 5.0, 6.0], dtype="<f4").tobytes() + b"\x09"
    path.write_bytes(header.encode() + row + row2)
    np.testing.assert_array_equal(read_ply(path).points, [[1, 2, 3], [4, 5, 6]])


def test_ply_faces_after_vertices_ignored(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 3\n"
        "property double x\nproperty double y\nproperty double z\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "3 0 1 2\n"
    )
    assert len(read_ply(path)) == 3


def _mixed_ply(fmt, vertex_type, rows):
    """A PLY whose vertex records are `z nx x y red`, after a scalar `aux`
    element and before a `face` list element, in either body format."""
    n = len(rows)
    rec = np.zeros(n, [("z", vertex_type), ("nx", vertex_type), ("x", vertex_type),
                       ("y", vertex_type), ("red", "u1")])
    rec["x"], rec["y"], rec["z"] = rows.T
    rec["nx"] = np.linspace(-1, 1, n)
    rec["red"] = np.arange(n) % 256
    aux = np.array([(5, 0.25), (-6, 1e300)], [("a", "<i4"), ("b", "<f8")])
    ptype = {"<f4": "float", "<f8": "double"}[vertex_type]
    header = (f"ply\nformat {fmt} 1.0\nelement aux 2\nproperty int a\nproperty double b\n"
              f"element vertex {n}\nproperty {ptype} z\nproperty {ptype} nx\n"
              f"property {ptype} x\nproperty {ptype} y\nproperty uchar red\n"
              "element face 2\nproperty list uchar int vertex_indices\nend_header\n")
    if fmt == "binary_little_endian":
        faces = b"".join(b"\x03" + np.array(f, "<i4").tobytes() for f in ([0, 1, 2], [2, 1, 3]))
        return header.encode("ascii") + aux.tobytes() + rec.tobytes() + faces
    # repr of the float64 each stored value widens to: it parses back exactly
    lines = [b"%r %r" % tuple(r) for r in aux.tolist()]
    lines += [b"%r %r %r %r %d" % (float(z), float(nx), float(x), float(y), red)
              for z, nx, x, y, red in rec.tolist()]
    lines += [b"3 0 1 2", b"3 2 1 3"]
    return header.encode("ascii") + b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("vertex_type", ["<f8", "<f4"])
def test_ply_ascii_and_binary_read_the_same_rows(tmp_path, vertex_type):
    rng = np.random.default_rng(7)
    rows = rng.normal(scale=[1.0, 30.0, 1e-3], size=(2000, 3)).astype(vertex_type)
    for fmt in ("ascii", "binary_little_endian"):
        path = tmp_path / f"{fmt}.ply"
        path.write_bytes(_mixed_ply(fmt, vertex_type, rows))
        got = read_ply(path).points
        assert got.tobytes() == rows.astype(np.float64).tobytes(), fmt


@pytest.mark.parametrize("bad", [
    # (row, column, literal): the first in file order is reported
    [(1000, 0, b"zbad"), (1000, 2, b"xbad")],  # one record: z comes before x
    [(600, 3, b"ybad"), (1400, 0, b"zbad")],   # y of an earlier record first
])
def test_ply_ascii_reports_the_first_bad_literal_in_file_order(tmp_path, bad):
    rows = np.random.default_rng(8).normal(size=(2000, 3))
    lines = _mixed_ply("ascii", "<f8", rows).split(b"\n")
    first_row = lines.index(b"end_header") + 3  # past the two aux records
    for row, col, literal in bad:
        tokens = lines[first_row + row].split()
        tokens[col] = literal
        lines[first_row + row] = b" ".join(tokens)
    path = tmp_path / "bad.ply"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(CloudSRError, match=re.escape(f"bad float literal {bad[0][2].decode()!r}")):
        read_ply(path)


def test_ply_big_endian_rejected(tmp_path):
    path = tmp_path / "b.ply"
    path.write_text(
        "ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    with pytest.raises(CloudSRError, match="big-endian PLY is not supported"):
        read_ply(path)


_XYZ = "property float x\nproperty float y\nproperty float z\n"
_LIST_REFUSED = "list properties before or in the vertex element are not supported"


def test_ply_malformed_headers(tmp_path):
    cases = [
        ("nope\n", "missing 'ply' magic"),
        ("ply\nelement vertex 1\nend_header\n", "missing format line"),
        ("ply\nformat ascii 1.0\nproperty float x\nend_header\n",
         "property before any element"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty banana x\nend_header\n",
         "unknown property type 'banana'"),
        # vertex present but lacks z
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
         "property float y\nend_header\n0 0\n", "vertex element lacks property 'z'"),
        # x stored as int
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty int x\n"
         "property float y\nproperty float z\nend_header\n0 0 0\n",
         "vertex x must be a float32/float64 scalar"),
        ("ply\nformat\nend_header\n", "bad format line"),
        ("ply\nformat ascii 1.0\nelement vertex\nend_header\n", "bad element line"),
        ("ply\nformat ascii 1.0\nelement vertex many\nend_header\n", "bad element count"),
        ("ply\nformat ascii 1.0\nelement vertex -1\nend_header\n",
         "negative element count -1"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float\nend_header\n",
         "bad property line"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty list uchar int\nend_header\n",
         "bad list property line"),
        ("ply\nformat ascii 1.0\nelement face 1\nproperty float x\nend_header\n0\n",
         "no vertex element"),
        ("ply\nformat binary_little_endian 1.0\nelement vertex 1\n" + _XYZ
         + "property list uchar int vertex_indices\nend_header\n",
         _LIST_REFUSED),
        ("ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ
         + "property list uchar int vertex_indices\nend_header\n0 0 0 -1\n",
         _LIST_REFUSED),
        # well-formed lists before or inside the vertex records
        ("ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int vertex_indices\n"
         "element vertex 1\n" + _XYZ + "end_header\n3 0 0 0\n0 0 0\n",
         _LIST_REFUSED),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
         "property list uchar float w\nproperty float y\nproperty float z\n"
         "end_header\n0 2 5 5 0 0\n",
         _LIST_REFUSED),
        ("ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\n"
         "property list uchar float w\nproperty float y\nproperty float z\nend_header\n"
         + "\0" * 13,
         _LIST_REFUSED),
        ("ply\nformat ascii 1.0\nelement vertex 0\n" + _XYZ + "end_header\n",
         "vertex element is empty"),
        ("ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ + "end_header\n0 0 zero\n",
         "bad float literal 'zero'"),
    ]
    for i, (text, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.ply"
        path.write_text(text)
        with pytest.raises(CloudSRError, match=re.escape(message)):
            read_ply(path)


# -- pixmap ----------------------------------------------------------------------


def test_p5_constant_gray(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n4 3\n255\n" + bytes([128] * 12))
    img = read_pixmap(path)
    assert (img.width, img.height) == (4, 3)
    np.testing.assert_allclose(img.pixels, 128 / 255)


def test_p6_pure_red_luminance(tmp_path):
    path = tmp_path / "r.ppm"
    body = bytes([255, 0, 0] * 6)
    path.write_bytes(b"P6\n3 2\n255\n" + body)
    img = read_pixmap(path)
    np.testing.assert_allclose(img.pixels, 0.299, atol=1e-15)


def test_p2_p5_equivalence(tmp_path):
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 256, size=(5, 7))
    plain = tmp_path / "a.pgm"
    rows = "\n".join(" ".join(str(v) for v in row) for row in vals)
    plain.write_text(f"P2\n# comment line\n7 5\n255\n{rows}\n")
    raw = tmp_path / "b.pgm"
    raw.write_bytes(b"P5\n7 5\n255\n" + vals.astype(np.uint8).tobytes())
    np.testing.assert_array_equal(
        read_pixmap(plain).pixels, read_pixmap(raw).pixels
    )


@pytest.mark.parametrize("magic", [b"P2", b"P5"])
def test_comment_glued_to_a_header_token_ends_the_token(tmp_path, magic):
    # a '#' right after a token starts a comment, as in libnetpbm; after
    # maxval, the comment's newline is the one byte before the raster, so a
    # raw raster may open with '#', newline and space bytes
    vals = np.array([[35, 10, 32], [0, 128, 255]])
    if magic == b"P2":
        raster = "\n".join(" ".join(str(v) for v in row) for row in vals).encode() + b"\n"
    else:
        raster = vals.astype(np.uint8).tobytes()
    bare, glued = tmp_path / "bare.pgm", tmp_path / "glued.pgm"
    bare.write_bytes(magic + b"\n3 2\n255\n" + raster)
    glued.write_bytes(magic + b"# magic\n3# width\n2#height\n255# maxval #\n" + raster)
    np.testing.assert_array_equal(read_pixmap(glued).pixels, read_pixmap(bare).pixels)
    np.testing.assert_array_equal(read_pixmap(glued).pixels, vals / 255.0)
    glued.write_bytes(magic + b"\n3 2\n255# no newline ends this comment")
    with pytest.raises(CloudSRError, match="pixmap data missing after header"):
        read_pixmap(glued)


def test_plain_raster_reads_only_the_promised_samples(tmp_path):
    # what follows the last promised sample is never parsed: a comment there
    # is ignored, while a '#' among the samples is a non-integer sample
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P2\n3 1\n255\n0 128 255\n# a comment after the raster\n")
    np.testing.assert_array_equal(read_pixmap(path).pixels, [[0.0, 128 / 255, 1.0]])
    path.write_bytes(b"P2\n3 1\n255\n0 # 128 255\n")
    with pytest.raises(CloudSRError, match="plain raster values must be integers"):
        read_pixmap(path)


def test_p3_parsing(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_text("P3\n2 1\n255\n255 255 255 0 0 0\n")
    img = read_pixmap(path)
    np.testing.assert_allclose(img.pixels, [[1.0, 0.0]], atol=1e-12)


def test_pixmap_16bit_raw(tmp_path):
    path = tmp_path / "w.pgm"
    vals = np.array([[0, 32768], [65535, 1000]], dtype=">u2")
    path.write_bytes(b"P5\n2 2\n65535\n" + vals.tobytes())
    img = read_pixmap(path)
    np.testing.assert_allclose(img.pixels, vals.astype(float) / 65535)


def test_pixmap_bad_magic(tmp_path):
    path = tmp_path / "x.pbm"
    path.write_bytes(b"P1\n1 1\n1\n")
    with pytest.raises(CloudSRError, match="unsupported pixmap magic b'P1'"):
        read_pixmap(path)


def test_pixmap_malformed(tmp_path):
    short = tmp_path / "s.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(CloudSRError, match="raster data shorter than header promises"):
        read_pixmap(short)
    nohdr = tmp_path / "h.pgm"
    nohdr.write_bytes(b"P5\n4\n")
    with pytest.raises(CloudSRError, match="pixmap header ended early"):
        read_pixmap(nohdr)
    over = tmp_path / "o.pgm"
    over.write_text("P2\n1 1\n10\n11\n")
    with pytest.raises(CloudSRError, match="raster value exceeds maxval"):
        read_pixmap(over)
    cases = [
        (b"P2 2 1 10 -5 7", "raster value is negative"),
        (b"P3\n1 1\n255\n0 -1 0\n", "raster value is negative"),
        (b"P5\n0 4\n255\n", "pixmap dimensions must be positive"),
        (b"P2\n4 -1\n255\n", "pixmap dimensions must be positive"),
        (b"P5\n1 1\n0\n\x00", "maxval 0 out of range"),
        (b"P5\n1 1\n65536\n\x00\x00", "maxval 65536 out of range"),
    ]
    for i, (data, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.pgm"
        path.write_bytes(data)
        with pytest.raises(CloudSRError, match=re.escape(message)):
            read_pixmap(path)


def test_pixmap_write_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    img = GrayImage(rng.integers(0, 256, size=(9, 6)) / 255.0)
    raw, plain = tmp_path / "w.pgm", tmp_path / "p.pgm"
    write_pixmap(img, raw)
    assert raw.read_bytes().startswith(b"P5\n6 9\n255\n")
    plain.write_bytes(plain_graymap(img.pixels))
    for path in (raw, plain):
        np.testing.assert_array_equal(read_pixmap(path).pixels, img.pixels)
