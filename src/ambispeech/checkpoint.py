"""Flat binary parameter checkpoints.

Layout: magic b"AMBI1", u32 entry count, then per entry a u16 path length,
the UTF-8 path, u8 ndim, u32 per dimension, and the float64 payload.
All integers and floats are little-endian. Every persisted file (checkpoints,
model sidecars, feature-cache records) goes through write_atomic, so readers
never observe a partial file.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"AMBI1"


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write data to a temp file beside path, then os.replace it into place."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_params(path: str | os.PathLike, params: dict[str, np.ndarray]) -> None:
    """Write a name->array mapping; insertion order is preserved."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", len(params))
    for name, arr in params.items():
        a = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataError(f"parameter path too long: {name[:50]}...")
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", a.ndim)
        for d in a.shape:
            blob += struct.pack("<I", d)
        blob += a.tobytes()
    write_atomic(path, bytes(blob))


def load_params(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a checkpoint back into {path: float64 array}."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path} is not a parameter checkpoint (bad magic)")
    off = len(MAGIC)

    def take(fmt: str) -> tuple:
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise DataError(f"{path} is truncated")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    (count,) = take("<I")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<H")
        if off + name_len > len(raw):
            raise DataError(f"{path} is truncated")
        name = raw[off : off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = take("<B")
        shape = tuple(take(f"<{ndim}I")) if ndim else ()
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * 8
        if off + nbytes > len(raw):
            raise DataError(f"{path} is truncated")
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape)
        off += nbytes
        out[name] = arr.astype(np.float64)  # writable copy in native order
    if off != len(raw):
        raise DataError(f"{path} has {len(raw) - off} trailing bytes")
    return out
