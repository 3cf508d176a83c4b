"""PLY point cloud reader/writer (ASCII and binary little-endian).

Only the vertex x/y/z properties are interpreted; other scalar properties
are parsed and skipped.  The writer emits float64 vertices, in ASCII with
17 significant digits, so write -> read round-trips are lossless.
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


def _vertex_element(elements):
    for el in elements:
        if el.name == "vertex":
            return el
    raise CloudSRError("no vertex element")


def _check_xyz(el: _Element) -> None:
    types = {name: (ptype, ltype) for name, ptype, ltype in el.properties}
    for axis in ("x", "y", "z"):
        if axis not in types:
            raise CloudSRError(f"vertex element lacks property {axis!r}")
        ptype, ltype = types[axis]
        if ltype is not None or ptype not in _FLOAT_TYPES:
            raise CloudSRError(f"vertex {axis} must be a float32/float64 scalar")


def _read_binary(fh, elements) -> np.ndarray:
    out = None
    for el in elements:
        fields = []
        for i, (name, ptype, ltype) in enumerate(el.properties):
            if ltype is not None:
                raise CloudSRError(
                    "list properties in binary elements are not supported"
                )
            fields.append((f"f{i}__{name}", "<" + _SCALAR_TYPES[ptype]))
        dtype = np.dtype(fields)
        # check before reading: a false count must not allocate its bytes
        if dtype.itemsize * el.count > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CloudSRError(
                f"element {el.name!r} promises {el.count} records, file ends early"
            )
        data = fh.read(dtype.itemsize * el.count)
        if el.name == "vertex":
            rec = np.frombuffer(data, dtype=dtype)
            names = {name: f"f{i}__{name}" for i, (name, _, _) in enumerate(el.properties)}
            out = np.stack(
                [rec[names["x"]], rec[names["y"]], rec[names["z"]]], axis=1
            ).astype(np.float64)
            break  # nothing after the vertex data is needed
    return out


def _read_ascii(fh, elements) -> np.ndarray:
    tokens = fh.read().split()
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(tokens):
            raise CloudSRError("file ends before the promised element data")
        vals = tokens[pos:pos + n]
        pos += n
        return vals

    out = None
    for el in elements:
        # each record takes at least one token per property, and a record
        # without properties takes none: neither may loop over a false count
        if el.count * len(el.properties) > len(tokens) - pos:
            raise CloudSRError(
                f"element {el.name!r} promises {el.count} records, file ends early"
            )
        if not el.properties:
            continue
        rows = []
        for _ in range(el.count):
            row = {}
            for name, ptype, ltype in el.properties:
                if ltype is not None:
                    try:
                        count = int(take(1)[0])
                    except ValueError as exc:
                        raise CloudSRError("bad list count") from exc
                    if count < 0:
                        raise CloudSRError(f"negative list count {count}")
                    take(count)
                    continue
                val = take(1)[0]
                if el.name == "vertex" and name in ("x", "y", "z"):
                    try:
                        row[name] = float(val)
                    except ValueError as exc:
                        text = val.decode("ascii", errors="replace")
                        raise CloudSRError(f"bad float literal {text!r}") from exc
            if el.name == "vertex":
                rows.append((row["x"], row["y"], row["z"]))
        if el.name == "vertex":
            out = np.array(rows, dtype=np.float64).reshape(-1, 3)
            break
    return out


def read_ply(path) -> PointCloud3:
    """Read a PLY file's vertex positions."""
    with open(path, "rb") as fh:
        fmt, elements = _parse_header(fh)
        el = _vertex_element(elements)
        _check_xyz(el)
        if el.count < 1:
            raise CloudSRError("vertex element is empty")
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
            # Python floats print the same text as numpy scalars, faster,
            # and one `%` over every row is faster than one per row
            body = ("%.17g %.17g %.17g\n" * len(cloud)) % tuple(cloud.points.ravel().tolist())
            fh.write(body.encode("ascii"))
        else:
            fh.write(cloud.points.astype("<f8").tobytes())
