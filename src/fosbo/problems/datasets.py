"""IDX dataset ingestion.

IDX is the big-endian binary layout used by the classic digit benchmarks:
a 4-byte magic (0x00000803 for byte images, 0x00000801 for byte labels),
one big-endian uint32 per dimension, then raw bytes.  Image files load as
(n, rows*cols) floats scaled into [0, 1]; label files load as an int
vector.

Relative paths resolve against the FOSBO_DATA_ROOT environment variable
when it is set.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError, InvalidArgumentError, ParseError

DATA_ROOT_ENV = "FOSBO_DATA_ROOT"

_MAGIC_IMAGES = 0x00000803
_MAGIC_LABELS = 0x00000801


def resolve_data_path(path: str | os.PathLike) -> Path:
    """Resolve a dataset path, applying the data-root env var to relative ones."""
    p = Path(path)
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _read_exact(f, count: int, offset: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise ParseError(f"truncated while reading {what}: wanted {count} "
                         f"bytes, got {len(buf)}", offset=offset + len(buf))
    return buf


def load_dataset(path: str | os.PathLike
                 ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Load (features, labels) from an IDX file.

    An IDX file holds either images or labels, never both, so the missing
    half of the pair comes back as None.
    """
    p = resolve_data_path(path)
    if not p.exists():
        raise DataError(f"dataset file not found: {p}")
    with open(p, "rb") as f:
        head = _read_exact(f, 4, 0, "magic number")
        magic = struct.unpack(">I", head)[0]
        if magic == _MAGIC_IMAGES:
            ndim = 3
        elif magic == _MAGIC_LABELS:
            ndim = 1
        else:
            raise ParseError(f"bad magic number 0x{magic:08X}", offset=0)
        dims = []
        for i in range(ndim):
            raw = _read_exact(f, 4, 4 + 4 * i, f"dimension {i}")
            dims.append(struct.unpack(">I", raw)[0])
        count = int(np.prod(dims, dtype=np.int64))
        data_off = 4 + 4 * ndim
        raw = _read_exact(f, count, data_off, "data block")
        trailing = f.read(1)
        if trailing:
            raise ParseError("trailing bytes after declared data block",
                             offset=data_off + count)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(dims)
    if magic == _MAGIC_IMAGES:
        n = dims[0]
        return arr.reshape(n, -1).astype(float) / 255.0, None
    return None, arr.astype(np.int64)


def write_idx(path: str | os.PathLike, array: np.ndarray) -> None:
    """Write a uint8 array in IDX layout (3-d for images, 1-d for labels).

    The inverse of load_dataset up to the [0,1] scaling; mainly for
    building test fixtures.
    """
    arr = np.asarray(array)
    if arr.ndim == 3:
        magic = _MAGIC_IMAGES
    elif arr.ndim == 1:
        magic = _MAGIC_LABELS
    else:
        raise InvalidArgumentError("IDX writer takes 1-d labels or 3-d images")
    if arr.dtype != np.uint8:
        if np.any((arr < 0) | (arr > 255)) or np.any(arr != np.floor(arr)):
            raise InvalidArgumentError("IDX data must fit in unsigned bytes")
        arr = arr.astype(np.uint8)
    with open(resolve_data_path(path), "wb") as f:
        f.write(struct.pack(">I", magic))
        for d in arr.shape:
            f.write(struct.pack(">I", d))
        f.write(arr.tobytes())
