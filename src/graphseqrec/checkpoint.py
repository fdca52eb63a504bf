"""Flat binary checkpoint archive.

Layout (all integers little-endian):

    byte 0        version (currently 1)
    uint32        record count
    per record:   uint16 name length, utf-8 name,
                  uint8 ndim, ndim x uint32 dims,
                  row-major float64 payload

Records are written in sorted name order so identical contents produce
identical bytes.  Record names are unique.

A save writes a sibling temporary file and renames it over the destination
only once it is complete, so a failed save leaves the previous archive as it
was.  Every text artifact of a run is written the same way, through
:func:`atomic_open`, and every text input (a log, a config file) is read
through :func:`read_lines`, which names the line of a byte that is not UTF-8.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from typing import Dict, IO, Iterator, List, Type

import numpy as np

VERSION = 1


class CheckpointError(ValueError):
    pass


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator[IO]:
    """Write ``path`` through a sibling temporary file (utf-8 in text mode)
    that replaces it only when the block completes; if the block raises, the
    temporary file is removed and ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _split_lines(text: str) -> List[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_lines(path, error: Type[Exception]) -> List[str]:
    """The lines of the UTF-8 text file at ``path``, ended as text mode ends
    them (``\\n``, ``\\r\\n`` or a lone ``\\r``) and without their ends, and
    without a leading byte-order mark.  A byte that is not UTF-8 raises
    ``error`` naming ``path:line``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # everything before the first bad byte decodes
        lineno = len(_split_lines(raw[:exc.start].decode("utf-8")))
        raise error(f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return _split_lines(text.removeprefix("\ufeff"))


def save_archive(path, arrays: Dict[str, np.ndarray]) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_archive(path) -> Dict[str, np.ndarray]:
    """Read an archive; any damage raises CheckpointError naming the file and
    the byte offset where reading failed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob:
        raise CheckpointError(f"empty checkpoint file: {path}")
    if blob[0] != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {blob[0]} in {path} (expected {VERSION})")
    offset = 1

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise CheckpointError(
                f"truncated checkpoint {path}: {what} needs {size} bytes at byte "
                f"{offset}, {len(blob) - offset} left")
        chunk = blob[offset:offset + size]
        offset += size
        return chunk

    (count,) = struct.unpack("<I", take(4, "record count"))
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        start = offset
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"bad record name in checkpoint {path} at byte {start}") from None
        if name in out:
            raise CheckpointError(
                f"duplicate record '{name}' in checkpoint {path} at byte {start}")
        (ndim,) = struct.unpack("<B", take(1, f"'{name}' ndim"))
        dims_at = offset
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"'{name}' dims"))
        payload = take(8 * math.prod(dims), f"'{name}' payload")
        try:
            out[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as exc:  # e.g. a zero-size shape whose other dims overflow
            raise CheckpointError(f"bad shape {list(dims)} for '{name}' in checkpoint "
                                  f"{path} at byte {dims_at}: {exc}") from None
    if offset != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint: {path}")
    return out
