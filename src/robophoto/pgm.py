"""Minimal binary PGM (P5) reader/writer for 8-bit grayscale rasters."""

from __future__ import annotations

import re

import numpy as np

from .errors import DatasetError


class PGMError(DatasetError):
    pass


# magic, width, height and maxval, each after whitespace (bytes.isspace) and '#' comments
# to the end of a line. Neither a token nor a comment may stop short, so any other parse
# than the tokeniser's makes a token of a comment, and no field takes one starting '#'.
_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*(\S+)(?!\S)" * 4)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file needs no buffer
        data = fh.read()
    header = _HEADER.match(data)
    if header is None or header[1] != b"P5":
        raise PGMError(f"not a binary PGM file: header {data[:32]!r}")
    w_tok, h_tok, maxval_tok = header.groups()[1:]
    if not (w_tok.isdigit() and h_tok.isdigit() and maxval_tok.isdigit()):
        raise PGMError(f"PGM size and maxval must be decimal: {w_tok!r} {h_tok!r} {maxval_tok!r}")
    width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    if width * height == 0 or maxval != 255:
        raise PGMError(f"need a non-empty image and maxval 255, got {width}x{height}/{maxval}")
    pos = header.end() + 1  # single whitespace after maxval
    if len(data) < pos + width * height:
        raise PGMError("truncated PGM pixel data")
    return np.frombuffer(data, np.uint8, width * height, pos).reshape(height, width).copy()


def write_pgm(image: np.ndarray, path) -> None:
    if image.ndim != 2 or image.dtype != np.uint8:
        raise PGMError("expected a 2-D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
