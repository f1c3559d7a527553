"""Flat binary checkpoint format for named parameter tensors.

Layout (all integers little-endian):

    magic      4 bytes  b"VSLR"
    version    u32      currently 1
    width      u8       scalar width in bytes: 4 (float32) or 8 (float64)
    count      u32      number of entries
    entry*     name_len u32, name utf-8 bytes, rank u32, extents u64 each,
               raw little-endian scalar payload (C order)

Round trips are bit exact: payloads are written with tobytes() and read
with frombuffer(), never re-encoded.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import VslrError, first_non_finite
from .tensor import Tensor

MAGIC = b"VSLR"
VERSION = 1

_WIDTH_TO_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def save_checkpoint(path, params: dict) -> None:
    """Write a name -> Tensor/ndarray mapping; all entries share one dtype."""
    items = []
    width = None
    for name, value in params.items():
        arr = value.data if isinstance(value, Tensor) else np.asarray(value)
        w = arr.dtype.itemsize
        if arr.dtype.kind != "f" or w not in _WIDTH_TO_DTYPE:
            raise TypeError(f"checkpoint: parameter {name!r} has unsupported dtype {arr.dtype}")
        if width is None:
            width = w
        elif w != width:
            raise TypeError(f"checkpoint: parameter {name!r} mixes scalar widths {w} and {width}")
        # asarray keeps 0-d shapes; ascontiguousarray would promote them to 1-d
        items.append((name, np.asarray(arr, dtype=_WIDTH_TO_DTYPE[w], order="C")))
    if width is None:
        raise ValueError("checkpoint: nothing to save")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IBI", VERSION, width, len(items)))
        for name, arr in items:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes())


def _checkpoint_error(msg: str) -> VslrError:
    return VslrError("checkpoint", f"checkpoint: {msg}")


def load_checkpoint(path) -> dict:
    """Read back a name -> ndarray mapping written by save_checkpoint.

    Every read is bounds-checked, so a cut or corrupt file raises
    VslrError ("checkpoint: truncated ...") rather than a struct or numpy
    error, and an entry holding a NaN or an infinity is refused by name.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise _checkpoint_error(f"bad magic in {path}")
    off = 4

    def advance(size: int, what: str) -> int:
        nonlocal off
        if size > len(blob) - off:
            raise _checkpoint_error(f"truncated {what} at byte {off} of {len(blob)} in {path}")
        off += size
        return off - size

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, blob, advance(struct.calcsize(fmt), what))

    version, width, count = unpack("<IBI", "header")
    if version != VERSION:
        raise _checkpoint_error(f"unsupported version {version}")
    dtype = _WIDTH_TO_DTYPE.get(width)
    if dtype is None:
        raise _checkpoint_error(f"unsupported scalar width {width}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<I", "entry name length")
        start = advance(name_len, "entry name")
        try:
            name = blob[start:off].decode("utf-8")
        except UnicodeDecodeError:
            raise _checkpoint_error(f"entry name at byte {start} is not UTF-8 in {path}") from None
        (rank,) = unpack("<I", f"rank of {name!r}")
        shape = unpack(f"<{rank}Q", f"shape of {name!r}")
        n = math.prod(shape)
        start = advance(n * width, f"payload of {name!r}")
        flat = np.frombuffer(blob, dtype=dtype, count=n, offset=start)
        try:
            out[name] = flat.reshape(shape).copy()
        except ValueError:      # numpy's rank and extent limits, met with a zero extent
            raise _checkpoint_error(f"shape {shape} of {name!r} is not a valid array shape") from None
    if off != len(blob):
        raise _checkpoint_error(f"{len(blob) - off} trailing bytes in {path}")
    bad = first_non_finite(out)
    if bad is not None:
        raise _checkpoint_error(f"entry {bad!r} holds a NaN or an infinity in {path}")
    return out


def load_into(params: dict, loaded: dict) -> None:
    """Copy loaded arrays into model tensors; names and shapes must match."""
    missing = sorted(set(params) - set(loaded))
    extra = sorted(set(loaded) - set(params))
    if missing or extra:
        raise _checkpoint_error(f"name mismatch, missing={missing} unexpected={extra}")
    for name, tensor in params.items():
        arr = loaded[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise _checkpoint_error(
                f"shape mismatch for {name!r}: file {arr.shape}, model {tensor.data.shape}")
        tensor.data = arr.astype(tensor.data.dtype, copy=True)
