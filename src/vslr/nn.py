"""Parameter containers and initializers shared by the model modules.

``param_buffer`` packs tensors into one flat array and makes each one's
``data`` a view into it.  The optimizer packs the parameters it trains,
so one step updates one array (see ``train.Adam``).  Every later write to
a parameter goes through its view, ``p.data[...] = x``.  Never rebind it
with ``p.data = x``: the new array would be cut off from the optimizer.
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


def param_buffer(tensors) -> np.ndarray:
    """A new flat array holding the tensors' data in order; each tensor's
    ``data`` becomes its slice of it, a view."""
    tensors = list(tensors)
    dtype = tensors[0].data.dtype
    if any(t.data.dtype != dtype for t in tensors):
        raise TypeError(f"parameters mix dtypes: {sorted({str(t.data.dtype) for t in tensors})}")
    flat = np.empty(sum(t.data.size for t in tensors), dtype=dtype)
    pos = 0
    for t in tensors:
        view = flat[pos:pos + t.data.size].reshape(t.data.shape)
        view[...] = t.data
        t.data = view
        pos += view.size
    return flat


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
