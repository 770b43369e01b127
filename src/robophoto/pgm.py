"""Minimal binary PGM (P5) reader/writer for 8-bit grayscale rasters."""

from __future__ import annotations

import numpy as np

from .errors import DatasetError


class PGMError(DatasetError):
    pass


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PGMError("unexpected end of PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise PGMError(f"not a binary PGM file: magic {magic!r}")
    w_tok, pos = _read_token(data, pos)
    h_tok, pos = _read_token(data, pos)
    maxval_tok, pos = _read_token(data, pos)
    if not (w_tok.isdigit() and h_tok.isdigit() and maxval_tok.isdigit()):
        raise PGMError(f"PGM size and maxval must be decimal: {w_tok!r} {h_tok!r} {maxval_tok!r}")
    width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    if width * height == 0 or maxval != 255:
        raise PGMError(f"need a non-empty image and maxval 255, got {width}x{height}/{maxval}")
    pos += 1  # single whitespace after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) != width * height:
        raise PGMError("truncated PGM pixel data")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(image: np.ndarray, path) -> None:
    if image.ndim != 2 or image.dtype != np.uint8:
        raise PGMError("expected a 2-D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
