"""The package's file edge, and flat binary parameter checkpoints.

Every file the package reads goes through read_bytes or read_text, which
turn any failure into one "cannot read <what> <path>: ..." error: manifests,
embedding tables, WAVs (read whole, then parsed in memory), configs,
checkpoints, model sidecars and feature-cache records. Every file it writes
goes through write_atomic, so readers never observe a partial file:
checkpoints, model sidecars, feature-cache records, the manifests, WAVs and
embedding tables of a corpus, and the logs, reports and CSVs the CLI writes.

Checkpoint layout: magic b"AMBI1", u32 entry count, then per entry a u16
path length, the UTF-8 path, u8 ndim (at most MAX_NDIM), u32 per
dimension, and the float64 payload. All integers and floats are
little-endian.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"AMBI1"
MAX_NDIM = 32  # load_params' cap, well under numpy's 64; no parameter has more than 2


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


def read_bytes(path: str | os.PathLike, what: str, error: type[Exception] = DataError) -> bytes:
    """A file's bytes; an OSError raises error("cannot read <what> <path>: ...")."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_text(path: str | os.PathLike, what: str, error: type[Exception] = DataError) -> str:
    """A UTF-8 file's text, a leading BOM skipped; bad UTF-8 raises as read_bytes does."""
    raw = read_bytes(path, what, error)
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


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
    """Read a checkpoint back into {path: float64 array}; a non-finite entry raises DataError."""
    raw = read_bytes(path, "checkpoint")
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
        try:
            name = raw[off : off + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: a parameter name at byte {off} is not UTF-8") from exc
        if not name.isprintable():  # it goes into one-line error messages
            raise DataError(f"{path}: a parameter name at byte {off} is not printable")
        off += name_len
        (ndim,) = take("<B")
        if ndim > MAX_NDIM:
            raise DataError(f"{path}: parameter {name} has {ndim} dimensions (at most {MAX_NDIM})")
        shape = tuple(take(f"<{ndim}I")) if ndim else ()
        n = int(np.prod(shape)) if shape else 1
        nbytes = n * 8
        if off + nbytes > len(raw):
            raise DataError(f"{path} is truncated")
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(shape)
        off += nbytes
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: parameter {name} holds a non-finite value")
        out[name] = arr.astype(np.float64)  # writable copy in native order
    if off != len(raw):
        raise DataError(f"{path} has {len(raw) - off} trailing bytes")
    return out
