"""PLY point cloud reader/writer (ASCII and binary little-endian).

Only the vertex x/y/z properties are interpreted.  Both body formats
follow one record rule: up to and including the vertex element a record is
fixed width, one value per scalar property, so a list property there is an
error; later elements, such as mesh faces, are never read.  The writer
emits float64 vertices, so write -> read round-trips are lossless.  An
ASCII body is byte for byte `"%.17g %.17g %.17g\\n"` per row: Python's
correctly rounded 17 significant digits (Gay, "Correctly rounded
binary-decimal and decimal-binary conversions", 1990).  Every value that
`%.17g` prints in fixed notation (1e-4 <= |x| < 1e17) is written by numpy
array arithmetic; every other value (+-0, smaller or larger magnitudes) is
written by `%` itself.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CloudSRError
from .geometry import PointCloud3

_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_FLOAT_TYPES = {"float", "float32", "double", "float64"}


class _Element:
    def __init__(self, name: str, count: int):
        self.name = name
        self.count = count
        self.properties: list[tuple[str, str, str | None]] = []  # (name, type, list count type)


def _parse_header(fh):
    if fh.readline().strip() != b"ply":
        raise CloudSRError("missing 'ply' magic")
    fmt = None
    elements: list[_Element] = []
    while True:
        raw = fh.readline()
        if not raw:
            raise CloudSRError("header ended before end_header")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        if line == "end_header":
            break
        parts = line.split()
        if parts[0] == "format":
            if len(parts) < 2:
                raise CloudSRError("bad format line")
            if parts[1] == "ascii":
                fmt = "ascii"
            elif parts[1] == "binary_little_endian":
                fmt = "binary_little_endian"
            elif parts[1] == "binary_big_endian":
                raise CloudSRError("big-endian PLY is not supported")
            else:
                raise CloudSRError(f"unknown format {parts[1]!r}")
        elif parts[0] == "element":
            if len(parts) != 3:
                raise CloudSRError("bad element line")
            try:
                count = int(parts[2])
            except ValueError as exc:
                raise CloudSRError("bad element count") from exc
            if count < 0:
                raise CloudSRError(f"negative element count {count}")
            elements.append(_Element(parts[1], count))
        elif parts[0] == "property":
            if not elements:
                raise CloudSRError("property before any element")
            if len(parts) < 2:
                raise CloudSRError("bad property line")
            if parts[1] == "list":
                if len(parts) != 5:
                    raise CloudSRError("bad list property line")
                if parts[2] not in _SCALAR_TYPES or parts[3] not in _SCALAR_TYPES:
                    raise CloudSRError(f"unknown list property types {line!r}")
                elements[-1].properties.append((parts[4], parts[3], parts[2]))
            else:
                if len(parts) != 3:
                    raise CloudSRError("bad property line")
                if parts[1] not in _SCALAR_TYPES:
                    raise CloudSRError(f"unknown property type {parts[1]!r}")
                elements[-1].properties.append((parts[2], parts[1], None))
        else:
            raise CloudSRError(f"unexpected header line {line!r}")
    if fmt is None:
        raise CloudSRError("missing format line")
    return fmt, elements


def _through_vertex(elements):
    """The elements up to and including the first one named 'vertex'."""
    for i, el in enumerate(elements):
        if el.name == "vertex":
            return elements[:i + 1]
    raise CloudSRError("no vertex element")


def _check_xyz(el: _Element) -> None:
    types = {name: (ptype, ltype) for name, ptype, ltype in el.properties}
    for axis in ("x", "y", "z"):
        if axis not in types:
            raise CloudSRError(f"vertex element lacks property {axis!r}")
        ptype, ltype = types[axis]
        if ltype is not None or ptype not in _FLOAT_TYPES:
            raise CloudSRError(f"vertex {axis} must be a float32/float64 scalar")


def _check_length(el: _Element, size: int, left: int) -> None:
    # before reading: a false count must not allocate or loop over its data
    if el.count * size > left:
        raise CloudSRError(
            f"element {el.name!r} promises {el.count} records, file ends early"
        )


def _read_binary(fh, elements) -> np.ndarray:
    for el in elements:
        dtype = np.dtype([(f"f{i}__{name}", "<" + _SCALAR_TYPES[ptype])
                          for i, (name, ptype, _) in enumerate(el.properties)])
        _check_length(el, dtype.itemsize, os.fstat(fh.fileno()).st_size - fh.tell())
        data = fh.read(dtype.itemsize * el.count)
    rec = np.frombuffer(data, dtype=dtype)
    names = {name: f"f{i}__{name}" for i, (name, _, _) in enumerate(el.properties)}
    return np.stack([rec[names[axis]] for axis in "xyz"], axis=1).astype(np.float64)


def _read_ascii(fh, elements) -> np.ndarray:
    body = fh.read()
    # split off only the records read; a token takes at least one byte, so
    # the cap also keeps a huge promised count a valid `maxsplit`
    needed = sum(el.count * len(el.properties) for el in elements)
    tokens = body.split(maxsplit=min(needed, len(body)))
    pos = 0
    for el in elements:
        width = len(el.properties)
        _check_length(el, width, len(tokens) - pos)
        start, pos = pos, pos + el.count * width
    index = {name: i for i, (name, _, _) in enumerate(el.properties)}  # the last of a name wins
    columns = sorted(index[axis] for axis in "xyz")  # their order within a record
    literals = [b""] * (3 * el.count)
    for j, col in enumerate(columns):
        literals[j::3] = tokens[start + col:pos:width]
    try:
        values = np.fromiter(map(float, literals), np.float64, len(literals))
    except ValueError:
        for token in literals:  # the first bad literal in file order
            try:
                float(token)
            except ValueError as exc:
                text = token.decode("ascii", errors="replace")
                raise CloudSRError(f"bad float literal {text!r}") from exc
        raise
    return values.reshape(-1, 3)[:, [columns.index(index[axis]) for axis in "xyz"]]


def read_ply(path) -> PointCloud3:
    """Read a PLY file's vertex positions."""
    with open(path, "rb") as fh:
        fmt, elements = _parse_header(fh)
        elements = _through_vertex(elements)  # later elements are never read
        el = elements[-1]
        _check_xyz(el)
        if el.count < 1:
            raise CloudSRError("vertex element is empty")
        # in both body formats a record up to the vertex data is fixed
        # width: one value per scalar property
        if any(ltype is not None for e in elements for _, _, ltype in e.properties):
            raise CloudSRError(
                "list properties before or in the vertex element are not supported"
            )
        pts = _read_binary(fh, elements) if fmt == "binary_little_endian" else _read_ascii(fh, elements)
    try:
        return PointCloud3(pts)
    except ValueError as exc:
        raise CloudSRError(f"bad vertex data: {exc}") from exc


def write_ply(cloud: PointCloud3, path, fmt: str = "ascii") -> None:
    """Write a cloud as float64 PLY; fmt is 'ascii' or 'binary-little-endian'."""
    if fmt not in ("ascii", "binary-little-endian"):
        raise ValueError(f"unsupported PLY format {fmt!r}")
    header = [
        "ply",
        "format ascii 1.0" if fmt == "ascii" else "format binary_little_endian 1.0",
        f"element vertex {len(cloud)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if fmt == "ascii":
            pts = cloud.points
            fh.write(b"".join(_ascii_block(pts[i:i + _BLOCK_ROWS])
                              for i in range(0, len(pts), _BLOCK_ROWS)))
        else:
            fh.write(cloud.points.astype("<f8").tobytes())


# -- ASCII coordinates ---------------------------------------------------------
#
# `%.17g` rounds |x| to 17 significant digits, N * 10^(X - 16) with N in
# [1e16, 1e17), half to even.  When -4 <= X <= 16 it prints fixed notation:
# the digits of N with a point after digit X (or "0." and -X - 1 zeros before
# them when X < 0), trailing zeros and a bare point stripped.  N is exact in
# float64 arithmetic: 10^0 ... 10^20 are exact doubles, and Dekker's
# error-free product (Numer. Math. 18, 1971) splits |x| * 10^(16 - X) into
# its rounded value p plus an exact remainder e.  From 2^53 up p is an even
# integer, so N = p + rint(e); below 2^53 (under 1e16) that sum is off by
# less than 1 and still under 1e16.  Only correctly rounded +, - and * enter,
# so the digits depend on no SIMD kernel; `np.log10` only guesses X, and the
# guess is corrected until N falls in range.

_BLOCK_ROWS = 1365  # 4,095 values: a block's 32-byte rows (128 KiB) stay in cache
_ROW = 32           # bytes per value in a block


def _split(a):
    """Veltkamp's split of float64 `a` into hi + lo, each 26 bits or fewer."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(10.0 ** np.arange(21))


def _exponent_estimate(mag):
    """floor(log10(mag)): X itself or one off, near a power of ten."""
    return np.floor(np.log10(mag)).astype(np.int64)


def _rounded_digits(mag, X):
    """N = mag * 10^(16 - X) rounded half to even, exactly, as int64."""
    s = 16 - X
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    p = mag * (bh + bl)
    ah, al = _split(mag)
    e = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    # p is even, so rounding p + e half to even rounds e half to even
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _fixed_digits(mag):
    """(N, X) of each magnitude in [1e-4, 1e17), X in [-4, 16].

    At X = -4, N = round(mag * 10^20) >= 1e16; at X = 16, N = mag itself,
    an integer under 1e17.  So the corrections stay in [-4, 16], and no
    magnitude in range rounds up to 1e17, which `%.17g` would print as
    1e+17.
    """
    X = np.clip(_exponent_estimate(mag), -4, 16)
    N = _rounded_digits(mag, X)
    todo = np.flatnonzero((N < 10**16) | (N >= 10**17))
    while todo.size:
        X[todo] += np.where(N[todo] < 10**16, -1, 1)
        N[todo] = n = _rounded_digits(mag[todo], X[todo])
        todo = todo[(n < 10**16) | (n >= 10**17)]
    return N, X


def _divmod(a, d):
    # half the time of np.divmod on int64
    q = a // d
    return q, a - q * d


_QUADS = np.arange(10000)
# the four ASCII digits of each quad, as one little-endian word
_QUAD_TEXT = (0x30303030 + (_QUADS // 1000) + (_QUADS // 100 % 10 << 8)
              + (_QUADS // 10 % 10 << 16) + (_QUADS % 10 << 24)).astype("<u4")
_QUAD_ZEROS = np.select([_QUADS % 10 > 0, _QUADS % 100 > 0, _QUADS % 1000 > 0, _QUADS > 0],
                        [0, 1, 2, 3], 4)


def _layouts():
    """Per layout, the byte masks and characters that turn a row into text.

    A row holds "0000" in columns 3-6 and the 17 digits of N in columns
    7-23.  The text of a value of exponent X and sig significant digits is
    the row from column 7 + min(X, 0) (a leading "0" when X < 0) to the
    point's column X + 8, the point, and then the row shifted one column
    right, up to the last significant digit.  The sign goes just left of
    the text and the separator just right of it, over the point when no
    digit follows it.  Layout 4 * (17 * (X + 4) + sig - 1) + 2 * negative
    + newline; the last two take a `%24.17g` token in columns 0-23 and the
    separator in column 24.
    """
    j = np.arange(_ROW)
    X, sig, neg, nl = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(-4, 17), np.arange(1, 18), [False, True], [False, True], indexing="ij"))
    first = 7 + np.minimum(X, 0)
    point = X + 8
    # the separator follows the last kept digit; a bare point is not printed
    sep = np.where(sig > X + 1, 8 + sig, point)
    sep_char = np.where(nl, ord("\n"), ord(" "))
    keep = (j >= first) & (j < point)
    keep_shifted = (j > point) & (j < sep)
    put = np.select([j == sep, j == point, neg & (j == first - 1)],
                    [sep_char, ord("."), ord("-")], 0)
    fallback = np.tile(j < 24, (2, 1))
    keep = np.vstack([keep, fallback])
    keep_shifted = np.vstack([keep_shifted, np.zeros_like(fallback)])
    put = np.vstack([put, (j == 24) * np.array([[ord(" ")], [ord("\n")]])])
    return tuple(np.asarray(m, np.uint8).view(f"V{_ROW}").ravel()
                 for m in (keep * 255, keep_shifted * 255, put))


_KEEP, _KEEP_SHIFTED, _PUT = _layouts()
_FALLBACK_LAYOUT = _PUT.size - 2
_NEWLINE = np.tile([0, 0, 1], _BLOCK_ROWS)


def _ascii_block(points) -> bytes:
    """The `%.17g %.17g %.17g\\n` text of an (n, 3) block of points."""
    v = points.ravel()
    mag = np.abs(v)
    fixed = (mag >= 1e-4) & (mag < 1e17)
    mag[~fixed] = 1.0  # a stand-in: these rows take `%`'s text below
    N, X = _fixed_digits(mag)
    hi, lo = _divmod(N, 10**8)
    lead, hi = _divmod(hi, 10**8)
    q1, q2 = _divmod(hi, 10**4)
    q3, q4 = _divmod(lo, 10**4)
    rows = np.empty((v.size, _ROW // 4), "<u4")
    # columns 0-7: three NUL, "0000" and the leading digit, as one word
    rows.view("<u8")[:, 0] = 0x3030303030000000 + (lead << 56)
    for col, q in enumerate((q1, q2, q3, q4), start=2):
        rows[:, col] = _QUAD_TEXT.take(q)
    rows[:, 6:] = 0
    # N's trailing zeros: q4's, plus q3's where q4 is 0, and so on
    zeros = _QUAD_ZEROS.take(q4)
    for q, all_zero in ((q3, 4), (q2, 8), (q1, 12)):
        rest = np.flatnonzero(zeros == all_zero)
        if not rest.size:
            break
        zeros[rest] += _QUAD_ZEROS.take(q[rest])
    layout = 4 * (17 * (X + 4) + 16 - zeros) + 2 * (v < 0) + _NEWLINE[:v.size]
    slow = np.flatnonzero(~fixed)
    if slow.size:
        # `%`'s tokens right-aligned in 24 columns (the longest `%.17g`
        # token needs 24) over NUL
        text = (("%24.17g" * slow.size) % tuple(v[slow].tolist())).encode("ascii")
        rows.view(np.uint8)[slow, :24] = np.frombuffer(
            text.replace(b" ", b"\0"), np.uint8).reshape(-1, 24)
        layout[slow] = _FALLBACK_LAYOUT + _NEWLINE[slow]
    words = rows.view("<u8").ravel()
    shifted = words << 8
    shifted[1:] |= words[:-1] >> 56  # across rows it carries column 31, a NUL
    words &= _KEEP.take(layout).view("<u8")
    shifted &= _KEEP_SHIFTED.take(layout).view("<u8")
    words |= shifted
    words |= _PUT.take(layout).view("<u8")
    # every byte no layout keeps or puts is NUL
    return words.tobytes().translate(None, b"\0")
