"""Binary array container ("SEMW") and synthetic frame file ("SEMF").

SEMW layout, all integers little-endian:
    magic b"SEMW" | u32 version=1 | u32 array count
    per array: u16 name length | name utf-8 | u8 rank | rank * u32 dims |
               row-major float32 payload

Arrays are float64 in memory and float32 on disk; writers are expected to
keep persistable values on the float32 grid so that save/load round-trips
are exact.

SEMF layout: magic b"SEMF" | u32 version=1 | u32 frame count | u16 height |
u16 width | frames as row-major 8-bit RGB.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

SEMW_MAGIC = b"SEMW"
SEMF_MAGIC = b"SEMF"
SEMW_VERSION = 1
SEMF_VERSION = 1
_MAX_RANK = 5


class ContainerError(Exception):
    """Base class for weight/frame container failures."""


class ContainerFormatError(ContainerError):
    """Bad magic bytes or malformed structural fields."""


class ContainerVersionError(ContainerError):
    """Version field is not one this reader understands."""


class ContainerTruncatedError(ContainerError):
    """File ended before the declared content was read."""


def _read_exact(fh, n, what):
    # checked before reading, so a header declaring more bytes than the file
    # holds fails without allocating the declared size
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise ContainerTruncatedError(
            f"expected {n} bytes for {what}, got {max(remaining, 0)}")
    data = fh.read(n)
    if len(data) != n:
        raise ContainerTruncatedError(
            f"expected {n} bytes for {what}, got {len(data)}")
    return data


def write_arrays(path, arrays):
    """Write an ordered mapping of name -> ndarray as a SEMW container."""
    with open(path, "wb") as fh:
        fh.write(SEMW_MAGIC)
        fh.write(struct.pack("<II", SEMW_VERSION, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.ndim < 1 or arr.ndim > _MAX_RANK:
                raise ValueError(f"array {name!r} has unsupported rank {arr.ndim}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_arrays(path):
    """Read a SEMW container back as an ordered dict of float64 arrays."""
    out = {}
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != SEMW_MAGIC:
            raise ContainerFormatError(f"bad magic {magic!r}, expected {SEMW_MAGIC!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != SEMW_VERSION:
            raise ContainerVersionError(f"unsupported version {version}")
        for idx in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, f"array {idx} name length"))
            try:
                name = _read_exact(fh, name_len, f"array {idx} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerFormatError(f"array {idx} name is not utf-8") from exc
            (rank,) = struct.unpack("<B", _read_exact(fh, 1, f"{name} rank"))
            if rank < 1 or rank > _MAX_RANK:
                raise ContainerFormatError(f"array {name!r} has invalid rank {rank}")
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{name} dims"))
            if any(d == 0 for d in dims):
                raise ContainerFormatError(f"array {name!r} has zero dim {dims}")
            payload = _read_exact(fh, 4 * math.prod(dims), f"{name} payload")
            arr = np.frombuffer(payload, dtype="<f4").astype(np.float64)
            out[name] = arr.reshape(dims)
        trailing = fh.read(1)
        if trailing:
            raise ContainerFormatError("trailing bytes after declared arrays")
    return out


def write_frames(path, frames):
    """Write (N, H, W, 3) uint8 RGB frames as a SEMF file."""
    frames = np.asarray(frames)
    if frames.ndim != 4 or frames.shape[3] != 3 or frames.dtype != np.uint8:
        raise ValueError(f"frames must be (N,H,W,3) uint8, got {frames.shape} {frames.dtype}")
    n, h, w, _ = frames.shape
    with open(path, "wb") as fh:
        fh.write(SEMF_MAGIC)
        fh.write(struct.pack("<IIHH", SEMF_VERSION, n, h, w))
        fh.write(np.ascontiguousarray(frames).tobytes())


def read_frames(path):
    """Read a SEMF file back as (N, H, W, 3) uint8 frames."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != SEMF_MAGIC:
            raise ContainerFormatError(f"bad magic {magic!r}, expected {SEMF_MAGIC!r}")
        version, n, h, w = struct.unpack("<IIHH", _read_exact(fh, 12, "header"))
        if version != SEMF_VERSION:
            raise ContainerVersionError(f"unsupported version {version}")
        payload = _read_exact(fh, n * h * w * 3, "frame payload")
        if fh.read(1):
            raise ContainerFormatError("trailing bytes after declared frames")
    return np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w, 3).copy()
