"""Reverse-mode autodiff over numpy arrays.

Every op builds a node holding its parents and a closure that maps the
incoming output gradient to per-parent gradients.  backward() walks the
graph once in reverse topological order, so shared subexpressions are
visited exactly once per call, and gradients from repeated backward()
calls accumulate into leaf ``.grad`` until an explicit zero.

Only float32 and float64 are supported.  float32 is the training dtype;
float64 exists so finite-difference checks are not drowned in rounding
noise.  Mixed-dtype expressions are rejected rather than silently
promoted.

A leaf's ``data`` may be a view into its optimizer's flat array (see
``nn.param_buffer``); ops only read it, and whatever updates a parameter
writes ``p.data[...] = x``, never ``p.data = x``.

Kernel rules.  A kernel that writes in place (``out=``, ``+=``) keeps the
textbook formula's operations in their order, term for term, so its
outputs and gradients are bit for bit the textbook's; swapping the two
operands of one product or sum is allowed, as IEEE rounding is symmetric,
and a reduction keeps numpy's own call on an array of the same layout,
since numpy sums a row pairwise.  ``layer_norm`` takes the mean once and
reuses ``x - mean`` for the variance, with np.var's own sum and its true
divide by the intp row count.  ``gelu`` walks its elements in chunks of
``_GELU_CHUNK``, the last chunk ragged, so each chunk's temporaries stay
in cache.  ``_row_max`` takes a row's max by a loop over its columns only
up to ``_ROW_MAX_COLUMNS``: below it, numpy's per-row reduction overhead
dominates (the divided temporal pass has F+1 tokens per row), and above
it the loop's one call per column does.  A max is exact in any order, so
both paths give the same bits.

Lanes.  ``linear``, ``layer_norm`` and ``gelu`` each make one
``lanes.run`` call per forward and one per backward, over the parts
``lanes.halves`` gives: two halves, one per lane (see ``lanes``), above
``lanes.SPLIT_ELEMENTS`` elements; below it, at every desk shape, one
part of the whole arrays, which ``run`` walks on the caller with no
thread started.  A split cuts the leading axis of the caller's arrays,
never a flattened view of them: np.matmul of (2,65,32)@(32,6)
and of (2,5,33)@(33,6) differs in bits from the same product flattened
to 2-D, while batch halves are the batched call's own products.  ``linear``'s
``gw`` is the one column split, ``x2.T @ g2[:, c]``.  A sum across rows
(``gb``, ``gbeta``, ``ggamma``) stays one whole-array call on the
caller's layout, as do ``layer_norm``'s ``g * xhat`` and ``g * gamma``:
summing a reshaped ``g`` changed the bits of a transposed-layout
gradient.

Allocator policy.  A training step frees its whole graph, and by default
glibc hands the freed top of the heap back to the kernel, so the next
step faults the same pages in again.  At import, where glibc's
``mallopt`` exists, this module sets the process's mmap threshold to
32 MiB and its trim threshold to 256 MiB: arrays under 32 MiB come from
the heap, and the heap keeps up to 256 MiB of freed pages.  Both are set
together, because setting either one alone turns off glibc's dynamic
threshold.  Minor page faults per warm benchmark call (2-core Xeon,
numpy 2.4.6, one BLAS thread), glibc's defaults -> this policy: desk
``finetune_divided`` 6.0k-8.8k -> 0, paper ``finetune_divided``
16k-22k -> 0-1, paper ``eval_joint`` 6.7k -> 0.  The in-place optimizer
step on glibc's defaults would be worse than either, as freed graphs then
sit at the top of the heap: desk ``finetune_divided`` would take 14.8k,
and paper ``finetune_joint``, which takes none with the old step or with
this policy, 27.9k.  This is a policy of this process only; it changes
no setting of the machine.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Callable, Sequence

import numpy as np

from . import lanes

_ALLOWED_DTYPES = (np.float32, np.float64)

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc's mallopt parameters


def _keep_heap_pages() -> bool:
    """Apply the allocator policy of the module docstring; False, and
    nothing changed, where glibc's mallopt is absent or refuses it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):        # no C library, or no mallopt in it
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1)


_HEAP_PAGES_KEPT = _keep_heap_pages()

# multiply-add counters keyed by tag; "all" counts every matmul
_mac_counts: dict[str, int] = {}


def reset_macs() -> None:
    _mac_counts.clear()


def mac_count(tag: str = "all") -> int:
    return _mac_counts.get(tag, 0)


def _record_macs(n: int, tag: str | None) -> None:
    _mac_counts["all"] = _mac_counts.get("all", 0) + n
    if tag is not None:
        _mac_counts[tag] = _mac_counts.get(tag, 0) + n


class Tensor:
    """A numpy array plus the graph edges needed for reverse mode.

    ``requires_grad`` marks leaves that should receive gradients; interior
    nodes always propagate.  ``grad`` is only ever populated on leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            if np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(np.float32)
            else:
                raise TypeError(f"tensor dtype must be float32 or float64, got {arr.dtype}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _make_node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    if any(p.requires_grad or p._vjp is not None for p in parents):
        out._parents = parents
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


def _check_dtype(op: str, *tensors: Tensor) -> None:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise TypeError(f"{op}: mixed dtypes {dt} and {t.data.dtype}")


def _suffix_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    """Allow broadcasting only over missing leading axes.

    The shorter shape must equal the trailing part of the longer one; no
    size-1 stretching inside a shape.  Keeps elementwise grads a plain sum
    over the leading axes.
    """
    sa, sb = a.data.shape, b.data.shape
    small = sa if len(sa) <= len(sb) else sb
    large = sb if len(sa) <= len(sb) else sa
    if len(small) > 0 and large[len(large) - len(small):] != small:
        raise ValueError(f"{op}: shapes {sa} and {sb} are not batch-compatible")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over the leading axes so it matches a suffix-broadcast input."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("add", a, b)
    _suffix_broadcast("add", a, b)
    data = a.data + b.data

    def vjp(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return _make_node(data, (a, b), vjp)


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


# ---------------------------------------------------------------------------
# matmul and fused network kernels


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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    np.matmul(x, w, out=out)
    out += b


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with w:[d_in, d_out], b:[d_out]; x may carry leading axes.

    The forward and ``gx`` run by the ``lanes.halves`` parts of x's and g's
    leading axis (a 1-D x is one part), and ``gw`` by as many parts of its
    columns, ``x2.T @ g2[:, c]``, one row part and one column part per
    lane."""
    _check_dtype("linear", x, w, b)
    if w.data.ndim != 2 or b.data.ndim != 1 or b.data.shape[0] != w.data.shape[1]:
        raise ValueError(f"linear: weight {w.data.shape} and bias {b.data.shape} are inconsistent")
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"linear: input {x.data.shape} does not match weight {w.data.shape}")
    shape = x.data.shape[:-1] + w.data.shape[1:]
    rows = lanes.halves(shape[0] if len(shape) > 1 else 1, math.prod(shape))
    data = np.empty(shape, dtype=x.data.dtype)
    lanes.run(lambda r: _affine(x.data[r], w.data, b.data, data[r]), rows)
    _record_macs(data.size * w.data.shape[0], None)
    # an input that is a constant (the video at the embedding) needs no gradient
    wants_gx = x.requires_grad or x._vjp is not None

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.data.shape[-1])
        gx = np.empty(x.data.shape, dtype=g.dtype) if wants_gx else None
        gw = np.empty(w.data.shape, dtype=g.dtype)

        # column part i goes with row part i; with d_out = 1 the second is empty
        step = -(-shape[-1] // len(rows))

        def backward(i):
            r, c = rows[i], slice(i * step, (i + 1) * step)
            if wants_gx:
                np.matmul(g[r], w.data.T, out=gx[r])
            np.matmul(x2.T, g2[:, c], out=gw[:, c])

        lanes.run(backward, range(len(rows)))
        gb = g2.sum(axis=0)
        return gx, gw, gb

    return _make_node(data, (x, w, b), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max subtraction)."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return _make_node(y, (x,), vjp)


# Attention weights one block may hold, in bytes.  In a sweep from 128 KiB
# to 16 MiB on a 2-core Xeon, 512 KiB-1 MiB were fastest and could not be
# told apart; larger blocks slowed the spatial and joint shapes.
_ATTN_BLOCK_BYTES = 1 << 20

# Longest row whose max _row_max takes by columns.  numpy's max over a
# short last axis pays per row: float32 [G, 4, L, L] on a 2-core Xeon,
# w.max(-1) -> the column loop, L=9 (64 groups) 110 -> 13 us, L=17 (226
# groups) 420 -> 106 us, L=29 (80 groups) 593 -> 120 us.  From L=33 the
# loop's per-column call loses where groups are few (8 groups 31 -> 42 us),
# and at the paper spatial L=197 it is 44 -> 229 us.
_ROW_MAX_COLUMNS = 32


@functools.lru_cache(maxsize=64)
def _attn_layout(ids: bytes, length: int, b: int, m: int, heads: int, dh: int) -> tuple:
    """``rows``: for each per-head entry, in [B, G, h, L] order, the row of
    the tokens viewed as [B*M*h, dh] that it reads.  ``rep``: one entry of
    each row.  ``dup_src``/``dup_dst``: for every other entry, its values'
    flat indices in the entries and in the rows.  ``shared``: the entries of
    rows read more than once, and ``inv``, 1 / how often.  Built without
    sorting, and cached: each pass meets its own layout again every step."""
    groups = np.frombuffer(ids, dtype=np.intp).reshape(-1, length)
    if groups.min() < 0 or groups.max() >= m:
        raise ValueError(f"attention: group token ids must lie in [0, {m})")
    tokens = np.arange(0, b * m, m)[:, None, None, None] + groups[None, :, None, :]
    rows = (tokens * heads + np.arange(heads)[:, None]).ravel()
    entries = np.arange(rows.size)
    rep = np.full(b * m * heads, -1, dtype=np.intp)
    rep[rows] = entries                   # a repeated row keeps one of its entries
    if rep.min() < 0:
        raise ValueError("attention: groups leave some tokens out")
    dup = np.flatnonzero(rep[rows] != entries)
    count = np.bincount(rows, minlength=rep.size)[rows]
    shared = np.flatnonzero(count > 1)
    # element indices, as np.add.at is several times faster on 1-D arrays
    cols = np.arange(dh)
    return (rows, rep, (dup[:, None] * dh + cols).ravel(), (rows[dup, None] * dh + cols).ravel(),
            shared, 1.0 / count[shared, None])


def _attn_gather(x: np.ndarray, rows: np.ndarray, heads: int, length: int) -> np.ndarray:
    """[B, M, D] -> the per-head group entries [B*G, h, L, dh], one new array."""
    dh = x.shape[-1] // heads
    return np.take(x.reshape(-1, dh), rows, axis=0).reshape(-1, heads, length, dh)


def _attn_split(q: np.ndarray, k: np.ndarray, heads: int, groups: np.ndarray) -> tuple:
    """Per-head queries of each group scaled by 1/sqrt(dh), [B*G, h, L, dh],
    per-head transposed keys, [B*G, h, dh, L], and the _attn_layout plan."""
    (b, m, d), n = q.shape, groups.shape[1]
    plan = _attn_layout(groups.astype(np.intp, copy=False).tobytes(), n, b, m, heads, d // heads)
    qs = _attn_gather(q, plan[0], heads, n)
    qs *= q.dtype.type(1.0 / math.sqrt(d // heads))
    return qs, np.ascontiguousarray(_attn_gather(k, plan[0], heads, n).swapaxes(-1, -2)), plan


def _row_max(w: np.ndarray) -> np.ndarray:
    """w.max(axis=-1, keepdims=True), by a loop over the columns for rows
    up to _ROW_MAX_COLUMNS long.  A max is exact in any order, and
    np.maximum passes a NaN on as max does."""
    n = w.shape[-1]
    if n > _ROW_MAX_COLUMNS:
        return w.max(axis=-1, keepdims=True)
    m = w[..., :1].copy()
    for j in range(1, n):
        np.maximum(m, w[..., j:j + 1], out=m)
    return m


def _attn_weights(qs: np.ndarray, kt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax weights [G, h, rows, N] of scaled queries against transposed
    keys, and each row's log-sum-exp [G, h, rows, 1]."""
    w = np.matmul(qs, kt)
    m = _row_max(w)
    w -= m
    np.exp(w, out=w)
    total = w.sum(axis=-1, keepdims=True)
    w /= total
    return w, m + np.log(total)


def _attn_blocks(g: int, heads: int, n: int, itemsize: int) -> list:
    """(groups, query rows) slice pairs whose [groups, h, rows, N] weights
    fit in _ATTN_BLOCK_BYTES: whole groups while one group's weights fit,
    else query rows of one group at a time."""
    per_group = heads * n * n * itemsize
    gs = min(g, max(1, _ATTN_BLOCK_BYTES // per_group))
    rs = n if per_group <= _ATTN_BLOCK_BYTES else max(1, _ATTN_BLOCK_BYTES // (heads * n * itemsize))
    return [(slice(a, a + gs), slice(r, r + rs)) for a in range(0, g, gs) for r in range(0, n, rs)]


def _attn_parts(blocks: list, whole_groups: bool) -> list:
    """The blocks as at most ``lanes.LANES`` contiguous parts, cut at the
    block nearest the middle.  The forward may cut anywhere, as each block
    writes only its own rows of the context and log-sum-exp.  The backward
    passes ``whole_groups``: a cut falls only where the group slice
    changes, because ``dk`` and ``dv`` sum a group's row blocks in order.
    One part (every desk shape, and the joint backward at batch 1) runs
    serially."""
    if lanes.LANES < 2 or len(blocks) < 2:
        return [blocks]
    cuts = [i for i in range(1, len(blocks)) if not whole_groups or blocks[i][0] != blocks[i - 1][0]]
    if not cuts:
        return [blocks]
    cut = min(cuts, key=lambda i: abs(2 * i - len(blocks)))
    return [blocks[:cut], blocks[cut:]]


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, groups: np.ndarray,
              trace: list | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, softmax(q k^T / sqrt(dh)) v,
    within each group of the [G, L] token ids ``groups``.

    q, k, v are [B, M, D], and head i owns columns [i*dh, (i+1)*dh) of D.
    The groups, which must cover all M tokens, are gathered straight into
    the per-head copies; a token in several groups (the divided CLS) gets
    the mean of its group outputs.  The forward runs over blocks of groups
    and query rows whose weights fit in ``_ATTN_BLOCK_BYTES`` and keeps
    only each row's log-sum-exp; backward recomputes every block's weights
    from q and k, so no [B*G, h, L, L] array is ever held.  Both walks run
    on up to ``lanes.LANES`` threads, bit for bit the serial walk.  Records
    the QK^T and AV multiply-adds, 2*B*G*h*L^2*dh, under "all" and "attn".
    A ``trace`` list gets (groups, the weights' head mean [B, G, L, L]),
    which each forward block writes from its own weights, detached.
    """
    _check_dtype("attention", q, k, v)
    if q.data.ndim != 3 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ValueError(f"attention: q, k, v must share one [batch, tokens, dim] shape, "
                         f"got {q.data.shape}, {k.data.shape} and {v.data.shape}")
    b, m, d = q.data.shape
    if d % heads != 0:
        raise ValueError(f"attention: model dim {d} not divisible by {heads} heads")
    qs, kt, (rows, rep, dup_src, dup_dst, shared, inv) = _attn_split(q.data, k.data, heads, groups)
    g, n = groups.shape
    bg, dh = b * g, d // heads
    dtype = q.data.dtype

    def scatter(x):                       # [B*G, h, L, dh] -> [B, M, D], entries summed
        out = np.take(x.reshape(-1, dh), rep, axis=0)
        if dup_src.size:
            np.add.at(out.reshape(-1), dup_dst, x.reshape(-1)[dup_src])
        return out.reshape(b, m, d)

    vh = _attn_gather(v.data, rows, heads, n)
    blocks = _attn_blocks(bg, heads, n, dtype.itemsize)
    ctx = np.empty_like(vh)
    lse = np.empty((bg, heads, n, 1), dtype=dtype)
    means = None if trace is None else np.empty((bg, n, n), dtype=dtype)

    def forward(part):                    # each block writes only its own rows
        for gs, r in part:
            w, lse[gs, :, r] = _attn_weights(qs[gs, :, r], kt[gs])
            np.matmul(w, vh[gs], out=ctx[gs, :, r])
            if means is not None:
                w.mean(axis=1, out=means[gs, r])

    lanes.run(forward, _attn_parts(blocks, whole_groups=False))
    if means is not None:
        trace.append((groups, means.reshape(b, g, n, n)))
    if shared.size:
        ctx = ctx.reshape(-1, dh)
        shared_ctx = ctx[shared]          # each group's own output, for backward
        ctx[shared] = shared_ctx * inv
    out = scatter(ctx)
    _record_macs(2 * bg * n * n * d, "attn")

    def vjp(gout):
        go = _attn_gather(gout, rows, heads, n)
        oe = _attn_gather(out, rows, heads, n)
        if shared.size:
            go.reshape(-1, dh)[shared] *= inv
            oe.reshape(-1, dh)[shared] = shared_ctx
        # sum_j w_ij * dw_ij, which equals dout_i . out_i per head
        delta = np.einsum("ghnd,ghnd->ghn", go, oe)[..., None]
        # contiguous: a transposed view makes these stacked matmuls 2-4x slower
        kh = np.ascontiguousarray(kt.swapaxes(-1, -2))
        vt = np.ascontiguousarray(vh.swapaxes(-1, -2))
        dqs = np.empty_like(qs)
        dk = np.zeros_like(qs)
        dv = np.zeros_like(vh)

        def backward(part):               # dk[gs], dv[gs] sum a group's blocks in order
            for gs, r in part:
                w = np.matmul(qs[gs, :, r], kt[gs])
                w -= lse[gs, :, r]
                np.exp(w, out=w)
                dv[gs] += np.matmul(w.swapaxes(-1, -2), go[gs, :, r])
                dw = np.matmul(go[gs, :, r], vt[gs])
                dw -= delta[gs, :, r]
                dw *= w                                  # d(logits) of the block
                np.matmul(dw, kh[gs], out=dqs[gs, :, r])
                dk[gs] += np.matmul(dw.swapaxes(-1, -2), qs[gs, :, r])

        lanes.run(backward, _attn_parts(blocks, whole_groups=True))
        dqs *= dtype.type(1.0 / math.sqrt(dh))
        return scatter(dqs), scatter(dk), scatter(dv)

    return _make_node(out, (q, k, v), vjp)


def _norm_rows(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
               data: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> None:
    """layer_norm's forward over the rows of x, written into data, xhat
    and inv (1/std)."""
    # np.mean's and np.var's own steps, with the mean and x - mean made once
    count = np.intp(x.shape[-1])
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean)
    np.subtract(x, mean, out=xhat)
    np.square(xhat, out=data)
    np.add.reduce(data, axis=-1, keepdims=True, out=inv)
    np.true_divide(inv, count, out=inv)              # the variance
    inv += x.dtype.type(eps)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=data)
    data += beta


def _norm_rows_grad(dxhat: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gx: np.ndarray) -> None:
    """layer_norm's backward within each row, in place in dxhat = g * gamma;
    gx is scratch."""
    m1 = dxhat.mean(axis=-1, keepdims=True)
    np.multiply(dxhat, xhat, out=gx)
    m2 = gx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m2, out=gx)
    dxhat -= m1
    dxhat -= gx
    dxhat *= inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    The forward and the per-row backward run by the ``lanes.halves`` parts
    of the leading axis, which stays one part where x is 1-D or not
    C-contiguous; the sums over rows stay whole-array calls."""
    _check_dtype("layer_norm", x, gamma, beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(f"layer_norm: gain/bias must have shape ({d},)")
    n = x.data.shape[0] if x.data.ndim > 1 and x.data.flags.c_contiguous else 1
    rows = lanes.halves(n, x.data.size)
    data, xhat = np.empty_like(x.data), np.empty_like(x.data)
    inv = np.empty(x.data.shape[:-1] + (1,), dtype=x.data.dtype)
    lanes.run(lambda r: _norm_rows(x.data[r], gamma.data, beta.data, eps,
                                   data[r], xhat[r], inv[r]), rows)

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        gbeta = g.sum(axis=lead)
        gx = g * xhat
        ggamma = gx.sum(axis=lead)
        dxhat = g * gamma.data
        lanes.run(lambda r: _norm_rows_grad(dxhat[r], xhat[r], inv[r], gx[r]), rows)
        return dxhat, ggamma, gbeta

    return _make_node(data, (x, gamma, beta), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)

# Elements per GELU chunk, so a chunk's temporaries stay in cache.  float32
# [2, 3137, 256] on a 2-core Xeon, fwd/bwd ms: 2^14 2.3/2.8, 2^15 2.1/2.4,
# 2^16 2.0/2.3, 2^17 2.1/2.7, one chunk 3.3/4.5; the textbook form 4.3/5.8.
_GELU_CHUNK = 1 << 16


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU, (0.5*x)*(1 + tanh(c*(x + k*(x*x*x)))).

    The chunks run by the ``lanes.halves`` parts of the chunk starts, each
    lane with its own scratch."""
    dt = x.data.dtype.type
    c, k = dt(_GELU_C), dt(0.044715)
    flat = np.ascontiguousarray(x.data).reshape(-1)
    starts = range(0, flat.size, _GELU_CHUNK)
    parts = lanes.halves(len(starts), flat.size)
    data, t = np.empty_like(flat), np.empty_like(flat)
    n = min(_GELU_CHUNK, flat.size)

    def forward(part):
        scratch = np.empty(n, flat.dtype)            # allocated per pass, not kept
        for i in starts[part]:
            r = slice(i, i + _GELU_CHUNK)
            xr, tr, out = flat[r], t[r], data[r]
            half_x = scratch[:xr.size]
            # products, not **: numpy's float32 power is ~70x slower than x*x*x
            np.multiply(xr, xr, out=out)
            out *= xr
            out *= k
            out += xr
            out *= c
            np.tanh(out, out=tr)
            np.add(tr, 1.0, out=out)
            np.multiply(xr, 0.5, out=half_x)
            out *= half_x

    lanes.run(forward, parts)

    def vjp(g):
        g1 = np.ascontiguousarray(g).reshape(-1)
        gx = np.empty_like(flat)
        k3 = 3.0 * k                                 # (3.0*k) first, as the formula groups it

        def backward(part):
            s1, s2 = np.empty(n, flat.dtype), np.empty(n, flat.dtype)
            for i in starts[part]:
                r = slice(i, i + _GELU_CHUNK)
                xr, tr, out = flat[r], t[r], gx[r]
                du, one_minus_tt = s1[:xr.size], s2[:xr.size]
                np.multiply(xr, k3, out=du)
                du *= xr
                du += 1.0
                du *= c                              # c*(1 + 3k*x*x)
                np.multiply(tr, tr, out=one_minus_tt)
                np.subtract(1.0, one_minus_tt, out=one_minus_tt)
                np.multiply(xr, 0.5, out=out)
                out *= one_minus_tt
                out *= du                            # ((0.5*x)*(1 - t*t))*du
                np.add(tr, 1.0, out=du)
                du *= 0.5
                out += du                            # 0.5*(1 + t) + ...
                out *= g1[r]

        lanes.run(backward, parts)
        return (gx.reshape(x.data.shape),)

    return _make_node(data.reshape(x.data.shape), (x,), vjp)


# ---------------------------------------------------------------------------
# structural ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _make_node(data, (x,), vjp)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make_node(data, (x,), vjp)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ValueError("concat: empty input list")
    _check_dtype("concat", *tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make_node(data, tuple(tensors), vjp)


def take(x: Tensor, indices, axis: int) -> Tensor:
    """Gather rows along an axis; backward scatter-adds, so repeated
    indices accumulate.  Where the indices hold no repeat, backward
    assigns instead: the same result at a fraction of np.add.at's cost."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("take: indices must be a 1-D integer array")
    n = x.data.shape[axis]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"take: index out of range for extent {n}")
    data = np.take(x.data, idx, axis=axis)

    def vjp(g):
        gx = np.zeros_like(x.data)
        gm = np.moveaxis(gx, axis, 0)
        if np.bincount(idx, minlength=n).max(initial=0) <= 1:
            gm[idx] = np.moveaxis(g, axis, 0)
        else:
            np.add.at(gm, idx, np.moveaxis(g, axis, 0))
        return (gx,)

    return _make_node(data, (x,), vjp)


def repeat(x: Tensor, n: int, axis: int) -> Tensor:
    """Tile a size-1 axis n times; backward sums back over it."""
    if x.data.shape[axis] != 1:
        raise ValueError(f"repeat: axis {axis} of {x.data.shape} must have extent 1")
    data = np.repeat(x.data, n, axis=axis)

    def vjp(g):
        return (g.sum(axis=axis, keepdims=True),)

    return _make_node(data, (x,), vjp)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    data = x.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make_node(data, (x,), vjp)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, x.data.ndim)
    count = 1
    for a in axes:
        count *= x.data.shape[a]
    data = x.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / x.data.dtype.type(count), x.data.shape).copy(),)

    return _make_node(data, (x,), vjp)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error of ``pred`` against a constant ``target`` array of
    its shape and dtype, as one node: the same bits as
    ``mean(mul(d, d))`` with ``d = sub(pred, target)``, from one saved
    difference instead of that chain's graph arrays."""
    if target.shape != pred.data.shape or target.dtype != pred.data.dtype:
        raise ValueError(f"mse: target {target.dtype} {target.shape} does not match "
                         f"prediction {pred.data.dtype} {pred.data.shape}")
    d = pred.data - target
    data = (d * d).mean()

    def vjp(g):
        gx = d * (g / d.dtype.type(d.size))
        gx *= 2                           # exact: the two product terms were equal
        return (gx,)

    return _make_node(data, (pred,), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS; recursion would overflow on deep unrolled graphs."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into each requires_grad leaf's ``.grad``.

    Uses a per-call gradient map, so calling backward on two different
    losses (or twice on one) sums contributions; nothing is cleared here.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        elif node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# finite-difference checking


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
