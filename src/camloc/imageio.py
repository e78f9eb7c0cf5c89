"""Binary PPM (P6) and PGM (P5) codecs, 8-bit, dependency-free, and the
atomic file write that images, checkpoints, records, manifests and
annotations go through."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_write(path, mode: str = "wb", encoding: str | None = None):
    """Open a temporary file beside ``path`` for writing. When the block
    ends it is synced and renamed over ``path``; when the block raises it is
    deleted, so a failed write leaves an existing file intact and no
    temporary file behind."""
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_ppm(image: np.ndarray, path) -> None:
    """Write a (3,H,W) float image with values in [0,1] as binary P6."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"image must be (3,H,W), got shape {arr.shape}")
    _write_pnm(arr.transpose(1, 2, 0), b"P6", path)


def write_pgm(heatmap: np.ndarray, path) -> None:
    """Write a (H,W) float map with values in [0,1] as binary P5."""
    arr = np.asarray(heatmap)
    if arr.ndim != 2:
        raise ValueError(f"heatmap must be (H,W), got shape {arr.shape}")
    _write_pnm(arr, b"P5", path)


def _write_pnm(pixels: np.ndarray, magic: bytes, path) -> None:
    """Write (H,W) or (H,W,3) float pixels in [0,1] as 8-bit binary ``magic``,
    atomically (see :func:`atomic_write`)."""
    h, w = pixels.shape[:2]
    raster = np.clip(np.rint(np.asarray(pixels, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
    with atomic_write(path) as handle:
        handle.write(b"%s\n%d %d\n255\n" % (magic, w, h))
        handle.write(raster.tobytes())


def _parse_header(blob: bytes, expected_magic: bytes, path) -> tuple[int, int, int]:
    # magic, width, height, maxval; '#' comments allowed between tokens,
    # one whitespace byte separates the header from the raster.
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4:
        if i >= len(blob):
            raise ValueError(f"{path}: malformed header, unexpected end of file")
        c = blob[i : i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and blob[i : i + 1] not in b" \t\r\n":
            i += 1
        tokens.append(blob[start:i])
    if i >= len(blob):
        raise ValueError(f"{path}: malformed header, missing raster")
    i += 1  # single whitespace byte before the raster
    if tokens[0] != expected_magic:
        raise ValueError(f"{path}: bad magic {tokens[0]!r}, expected {expected_magic!r}")
    try:
        if not all(token.isdigit() for token in tokens[1:]):  # int() also reads "+64" and "6_4"
            raise ValueError("fields must be plain decimal")
        width, height, maxval = (int(token) for token in tokens[1:])
    except ValueError as exc:  # also a field past int()'s digit limit
        raise ValueError(f"{path}: malformed header fields {tokens[1:]}") from exc
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit files supported, maxval was {maxval}")
    return width, height, i


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file into a (3,H,W) float32 array in [0,1]."""
    return _read_pnm(path, b"P6", 3).transpose(2, 0, 1)


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 file into a (H,W) float32 array in [0,1]."""
    return _read_pnm(path, b"P5", 1)[..., 0]


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """Read an 8-bit binary ``magic`` file into a (H,W,channels) float32
    array in [0,1]."""
    with open(path, "rb") as handle:
        blob = handle.read()
    width, height, start = _parse_header(blob, magic, path)
    expected = channels * width * height
    raster = blob[start : start + expected]
    if len(raster) != expected:
        raise ValueError(f"{path}: raster truncated ({len(raster)} of {expected} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return pixels.astype(np.float32) / np.float32(255.0)
