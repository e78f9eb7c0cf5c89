"""Binary PPM (P6) and PGM (P5) codecs, 8-bit, dependency-free, and the
atomic file write that checkpoints, records and manifests go through."""

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


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(values, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def write_ppm(image: np.ndarray, path) -> None:
    """Write a (3,H,W) float image with values in [0,1] as binary P6."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"image must be (3,H,W), got shape {arr.shape}")
    _, h, w = arr.shape
    raster = _quantize(arr).transpose(1, 2, 0).tobytes()
    with open(path, "wb") as handle:
        handle.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        handle.write(raster)


def write_pgm(heatmap: np.ndarray, path) -> None:
    """Write a (H,W) float map with values in [0,1] as binary P5."""
    arr = np.asarray(heatmap)
    if arr.ndim != 2:
        raise ValueError(f"heatmap must be (H,W), got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as handle:
        handle.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        handle.write(_quantize(arr).tobytes())


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
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header fields {tokens[1:]}") from exc
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit files supported, maxval was {maxval}")
    return width, height, i


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 file into a (3,H,W) float32 array in [0,1]."""
    with open(path, "rb") as handle:
        blob = handle.read()
    width, height, start = _parse_header(blob, b"P6", path)
    expected = 3 * width * height
    raster = blob[start : start + expected]
    if len(raster) != expected:
        raise ValueError(f"{path}: raster truncated ({len(raster)} of {expected} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return (pixels.transpose(2, 0, 1).astype(np.float32)) / np.float32(255.0)


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 file into a (H,W) float32 array in [0,1]."""
    with open(path, "rb") as handle:
        blob = handle.read()
    width, height, start = _parse_header(blob, b"P5", path)
    expected = width * height
    raster = blob[start : start + expected]
    if len(raster) != expected:
        raise ValueError(f"{path}: raster truncated ({len(raster)} of {expected} bytes)")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return pixels.astype(np.float32) / np.float32(255.0)
