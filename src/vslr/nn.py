"""Parameter containers and initializers shared by the model modules.

A model's parameters live in one contiguous buffer: ``param_buffer``
copies them in, in ``named()`` order, when the model is built, and each
parameter's ``data`` becomes a view into it.  So the optimizer, a
checkpoint load and a best-epoch snapshot each touch one array, and every
write to a parameter goes through the view, ``p.data[...] = x``.  Never
rebind it with ``p.data = x``: the new array would be cut off from the
buffer, and so from the optimizer.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def trunc_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal(0, 0.02) with draws outside two deviations redrawn."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


def param_buffer(tensors: list) -> np.ndarray:
    """One flat array whose consecutive slices are the tensors' data, in order.

    Tensors whose data already tile one 1-D buffer in order get that
    stretch of it back, a view.  Tensors that each own their data are
    copied into a new buffer, and their data become views into it.  Any
    other mix (views into separate buffers, or out of order) is refused:
    packing it would cut those tensors off from the buffer they live in."""
    tensors = list(tensors)
    dtype = tensors[0].data.dtype
    if any(t.data.dtype != dtype for t in tensors):
        raise TypeError(f"parameters mix dtypes: {sorted({str(t.data.dtype) for t in tensors})}")
    base = tensors[0].data.base
    if base is not None and base.ndim == 1 and base.flags.c_contiguous:
        at = _address(base)
        start = pos = (_address(tensors[0].data) - at) // dtype.itemsize
        for t in tensors:
            if t.data.base is not base or not t.data.flags.c_contiguous \
                    or _address(t.data) != at + pos * dtype.itemsize:
                break
            pos += t.data.size
        else:
            return base[start:pos]
    if any(t.data.base is not None for t in tensors):
        raise ValueError("parameters must tile one buffer in order or each own their data")
    flat = np.empty(sum(t.data.size for t in tensors), dtype=dtype)
    pos = 0
    for t in tensors:
        view = flat[pos:pos + t.data.size].reshape(t.data.shape)
        view[...] = t.data
        t.data = view
        pos += view.size
    return flat


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class LinearParams:
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int, dtype=np.float32):
        self.w = Tensor(trunc_normal(rng, (d_in, d_out), dtype=dtype), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True)

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class LayerNormParams:
    def __init__(self, dim: int, dtype=np.float32):
        self.g = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.b = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.g": self.g, f"{prefix}.b": self.b}
