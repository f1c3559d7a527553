"""Reference ops the tests check the package against.

Nothing in ``vslr`` runs these: they are the textbook compositions the
fused kernels are compared with (the unfused attention, ``T.mse``'s
``mean(mul(d, d))`` chain, the MAC-ledger and loop-oracle cases), the
finite-difference checker, and ``cube_pixels``, which makes a clip
batch's cube rows the way ``train.load_batch`` fills them.  Each op is
built on the package's own node, dtype and broadcast helpers, so it
behaves as the package's ops do.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from vslr.embedding import EmbeddingConfig, check_clip_shape, clip_slots
from vslr.tensor import (Tensor, _check_dtype, _make_node, _norm_axes, _record_macs,
                         _reduce_to, _suffix_broadcast, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("sub", a, b)
    _suffix_broadcast("sub", a, b)
    data = a.data - b.data

    def vjp(g):
        return _reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)

    return _make_node(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("mul", a, b)
    _suffix_broadcast("mul", a, b)
    data = a.data * b.data

    def vjp(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return _make_node(data, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = a.data.dtype.type(s)
    data = a.data * s

    def vjp(g):
        return (g * s,)

    return _make_node(data, (a,), vjp)


def matmul(a: Tensor, b: Tensor, tag: str | None = None) -> Tensor:
    """Batched matrix product; batch axes follow the suffix rule.

    Counts one multiply-add per scalar product term into the MAC ledger
    (optionally under ``tag``) so attention cost claims can be asserted.
    """
    _check_dtype("matmul", a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul: operands must have rank >= 2, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ for {a.data.shape} and {b.data.shape}")
    ba, bb = a.data.shape[:-2], b.data.shape[:-2]
    if ba != bb and ba[len(ba) - len(bb):] != bb and bb[len(bb) - len(ba):] != ba:
        raise ValueError(f"matmul: batch axes of {a.data.shape} and {b.data.shape} are not compatible")
    data = np.matmul(a.data, b.data)
    _record_macs(data.size * a.data.shape[-1], tag)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _reduce_to(ga, a.data.shape), _reduce_to(gb, b.data.shape)

    return _make_node(data, (a, b), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max subtraction)."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _make_node(y, (x,), vjp)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make_node(data, (x,), vjp)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    data = x.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make_node(data, (x,), vjp)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between backward() and central differences.

    Relative error per coordinate is |a - n| / max(1, |a|, |n|).  Requires
    float64 input; at float32 the difference quotient itself is too noisy
    to certify anything.
    """
    if x.data.dtype != np.float64:
        raise TypeError("grad_check: input must be float64")
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check: f must return a scalar")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(x).data)
        flat[i] = orig - step
        lo = float(f(x).data)
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0


def cube_pixels(x: np.ndarray, cfg: EmbeddingConfig) -> np.ndarray:
    """[B, F, 3, H, W] clip whose shape matches cfg -> its cubes as a new
    [B, N, cube_dim] array of rows (see ``clip_slots``)."""
    check_clip_shape(x.shape, cfg)
    rows = np.empty((len(x), cfg.n_tokens, cfg.cube_dim), dtype=x.dtype)
    slots = clip_slots(rows, cfg)
    slots[...] = x.reshape(slots.shape)
    return rows
