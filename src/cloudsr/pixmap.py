"""Portable pixmap/graymap reader (P2/P3 plain, P5/P6 raw) and P5 writer.

Color images are converted to gray with the 0.299/0.587/0.114 luminance
weights; intensities are scaled to [0, 1] by the file's maxval.
"""

from __future__ import annotations

import numpy as np

from .edges import GrayImage
from .errors import CloudSRError

_LUMA = (0.299, 0.587, 0.114)


def _header_tokens(data: bytes, count: int):
    """First `count` tokens after the magic; a token ends at whitespace or at
    a '#', which starts a comment running to the end of its line.  Returns
    (tokens, offset just past the one delimiter after the last token: a
    whitespace byte, or the newline ending a comment)."""
    tokens = []
    i = 2  # past the 2-byte magic
    n = len(data)
    while True:
        if data[i:i + 1] == b"#":  # skip to the newline, which then delimits
            while i < n and data[i:i + 1] != b"\n":
                i += 1
        if len(tokens) == count:
            break
        if data[i:i + 1].isspace():
            i += 1
            continue
        start = i
        while i < n and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
            i += 1
        if start == i:
            raise CloudSRError("pixmap header ended early")
        tokens.append(data[start:i])
    if i >= n:
        raise CloudSRError("pixmap data missing after header")
    return tokens, i + 1


def read_pixmap(path) -> GrayImage:
    """Read a P2/P3/P5/P6 pixmap as a grayscale image."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise CloudSRError(f"unsupported pixmap magic {magic!r}")
    color = magic in (b"P3", b"P6")
    raw = magic in (b"P5", b"P6")
    channels = 3 if color else 1

    tokens, offset = _header_tokens(data, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise CloudSRError("width/height/maxval must be integers") from exc
    if width < 1 or height < 1:
        raise CloudSRError("pixmap dimensions must be positive")
    if not (0 < maxval < 65536):
        raise CloudSRError(f"maxval {maxval} out of range")

    n_values = width * height * channels
    if raw:
        two_byte = maxval > 255
        need = n_values * (2 if two_byte else 1)
        body = data[offset:offset + need]
        if len(body) < need:
            raise CloudSRError("raster data shorter than header promises")
        dtype = ">u2" if two_byte else "u1"  # 16-bit raw PNM is big-endian
        values = np.frombuffer(body, dtype=dtype).astype(np.float64)
    else:
        # split off only the samples read, so what follows them (a comment)
        # is never parsed; a token takes at least one byte, so the cap also
        # keeps a huge promised count a valid `maxsplit`
        vals = data[offset:].split(maxsplit=min(n_values, len(data)))[:n_values]
        if len(vals) < n_values:
            raise CloudSRError("raster data shorter than header promises")
        try:
            values = np.array([int(t) for t in vals], dtype=np.float64)
        except (ValueError, OverflowError) as exc:
            raise CloudSRError("plain raster values must be integers") from exc
    if values.max() > maxval:
        raise CloudSRError("raster value exceeds maxval")
    if values.min() < 0:
        raise CloudSRError("raster value is negative")

    values /= float(maxval)
    if color:
        rgb = values.reshape(height, width, 3)
        gray = _LUMA[0] * rgb[:, :, 0] + _LUMA[1] * rgb[:, :, 1] + _LUMA[2] * rgb[:, :, 2]
    else:
        gray = values.reshape(height, width)
    return GrayImage(np.clip(gray, 0.0, 1.0))


def write_pixmap(img: GrayImage, path) -> None:
    """Write a grayscale image as a raw graymap (P5), maxval 255."""
    quant = np.rint(img.pixels * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())
