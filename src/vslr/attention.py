"""Space-time transformer blocks.

Two block types over one token layout:

* divided: per-block temporal attention (each spatial position attends
  across frames), then spatial attention (each frame attends across its
  positions), then the MLP.  The CLS token joins every attention group
  and its per-group updates are averaged.
* joint: one attention pass over all tokens, then the MLP.

Both use pre-norm residual wiring x + SubLayer(LayerNorm(x)).  Each pass
is one fused ``T.attention`` node, whose multiply-adds are tagged in the
MAC ledger so the divided-vs-joint cost claim can be asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import LayerNormParams, LinearParams
from .embedding import TokenBatch
from .tensor import Tensor


class PassWeights:
    """Q, K, V, output projections for one attention pass."""

    def __init__(self, rng: np.random.Generator, dim: int, dtype=np.float32):
        self.q = LinearParams(rng, dim, dim, dtype)
        self.k = LinearParams(rng, dim, dim, dtype)
        self.v = LinearParams(rng, dim, dim, dtype)
        self.o = LinearParams(rng, dim, dim, dtype)

    def named(self, prefix: str) -> dict:
        out = {}
        for part in ("q", "k", "v", "o"):
            out.update(getattr(self, part).named(f"{prefix}.{part}"))
        return out


class BlockWeights:
    """One encoder block; layout depends on the variant.

    divided: ln1+temporal attention, ln2+spatial attention, ln3+MLP.
    joint:   ln1+joint attention, ln2+MLP.
    """

    def __init__(self, rng: np.random.Generator, variant: str, dim: int, dtype=np.float32):
        if variant not in ("divided", "joint"):
            raise ValueError(f"variant must be divided or joint, got {variant!r}")
        self.variant = variant
        self.dim = dim
        self.ln1 = LayerNormParams(dim, dtype)
        if variant == "divided":
            self.temporal = PassWeights(rng, dim, dtype)
            self.ln2 = LayerNormParams(dim, dtype)
            self.spatial = PassWeights(rng, dim, dtype)
            self.ln3 = LayerNormParams(dim, dtype)
        else:
            self.joint = PassWeights(rng, dim, dtype)
            self.ln2 = LayerNormParams(dim, dtype)
        self.mlp0 = LinearParams(rng, dim, 4 * dim, dtype)
        self.mlp1 = LinearParams(rng, 4 * dim, dim, dtype)

    def named(self, prefix: str) -> dict:
        out = self.ln1.named(f"{prefix}.ln1")
        if self.variant == "divided":
            out.update(self.temporal.named(f"{prefix}.temporal"))
            out.update(self.ln2.named(f"{prefix}.ln2"))
            out.update(self.spatial.named(f"{prefix}.spatial"))
            out.update(self.ln3.named(f"{prefix}.ln3"))
        else:
            out.update(self.joint.named(f"{prefix}.joint"))
            out.update(self.ln2.named(f"{prefix}.ln2"))
        out.update(self.mlp0.named(f"{prefix}.mlp.0"))
        out.update(self.mlp1.named(f"{prefix}.mlp.1"))
        return out


def multi_head_attention(x: Tensor, w: PassWeights, heads: int,
                         want_trace: bool = False):
    """Scaled dot-product attention over [groups, length, dim].

    Returns (output, weights) where weights is a detached
    [groups, heads, length, length] array or None.
    """
    q = T.linear(x, w.q.w, w.q.b)
    k = T.linear(x, w.k.w, w.k.b)
    v = T.linear(x, w.v.w, w.v.b)
    out = T.linear(T.attention(q, k, v, heads), w.o.w, w.o.b)
    # the fused op never holds the full weights; only rollout needs them
    weights = T._attn_weights(*T._attn_split(q.data, k.data, heads))[0] if want_trace else None
    return out, weights


def _group_cls(cls_n: Tensor, groups: int) -> Tensor:
    """[B, 1, D] -> [B*groups, 1, D] by tiling across groups."""
    b, _, d = cls_n.data.shape
    tiled = T.repeat(T.reshape(cls_n, (b, 1, 1, d)), groups, axis=1)
    return T.reshape(tiled, (b * groups, 1, d))


def divided_block(tb: TokenBatch, w: BlockWeights, heads: int,
                  want_trace: bool = False):
    """Temporal pass, spatial pass, MLP, each with a pre-norm residual.

    The CLS token (when present) is appended to every group in both
    passes; its residual update is the mean of its per-group outputs.
    """
    if w.variant != "divided":
        raise ValueError("divided_block needs divided weights")
    f, hs, ws = tb.grid
    s = hs * ws
    b, m, d = tb.tokens.data.shape
    n = f * s
    offset = 1 if tb.has_cls else 0
    if m != n + offset:
        raise ValueError(f"token count {m} does not match grid {tb.grid} (cls={tb.has_cls})")

    def attention_pass(x: Tensor, pw: PassWeights, ln: LayerNormParams, temporal: bool):
        xn = T.layer_norm(x, ln.g, ln.b)
        if tb.has_cls:
            cls_n = T.slice_along(xn, 1, 0, 1)
            patch_n = T.slice_along(xn, 1, 1, m)
        else:
            cls_n, patch_n = None, xn
        grid4 = T.reshape(patch_n, (b, f, s, d))
        if temporal:
            groups, length = s, f
            seq = T.reshape(T.transpose(grid4, (0, 2, 1, 3)), (b * s, f, d))
        else:
            groups, length = f, s
            seq = T.reshape(grid4, (b * f, s, d))
        if cls_n is not None:
            seq = T.concat([_group_cls(cls_n, groups), seq], axis=1)
        att, tr = multi_head_attention(seq, pw, heads, want_trace)
        if cls_n is not None:
            cls_upd = T.mean(T.reshape(T.slice_along(att, 1, 0, 1), (b, groups, 1, d)), axis=1)
            att = T.slice_along(att, 1, 1, 1 + length)
        grid_out = T.reshape(att, (b, groups, length, d))
        if temporal:
            grid_out = T.transpose(grid_out, (0, 2, 1, 3))
        patch_upd = T.reshape(grid_out, (b, n, d))
        upd = T.concat([cls_upd, patch_upd], axis=1) if cls_n is not None else patch_upd
        if tr is not None:
            tr = tr.reshape(b, groups, heads, offset + length, offset + length)
        return T.add(x, upd), tr

    x = tb.tokens
    x, trace_t = attention_pass(x, w.temporal, w.ln1, temporal=True)
    x, trace_s = attention_pass(x, w.spatial, w.ln2, temporal=False)
    hidden = T.gelu(T.linear(T.layer_norm(x, w.ln3.g, w.ln3.b), w.mlp0.w, w.mlp0.b))
    x = T.add(x, T.linear(hidden, w.mlp1.w, w.mlp1.b))
    trace = {"temporal": trace_t, "spatial": trace_s} if want_trace else None
    return TokenBatch(x, tb.grid, tb.has_cls), trace


def joint_block(tb: TokenBatch, w: BlockWeights, heads: int,
                want_trace: bool = False):
    """Single attention pass over every token, then the MLP."""
    if w.variant != "joint":
        raise ValueError("joint_block needs joint weights")
    x = tb.tokens
    xn = T.layer_norm(x, w.ln1.g, w.ln1.b)
    att, tr = multi_head_attention(xn, w.joint, heads, want_trace)
    x = T.add(x, att)
    hidden = T.gelu(T.linear(T.layer_norm(x, w.ln2.g, w.ln2.b), w.mlp0.w, w.mlp0.b))
    x = T.add(x, T.linear(hidden, w.mlp1.w, w.mlp1.b))
    trace = {"joint": tr} if want_trace else None
    return TokenBatch(x, tb.grid, tb.has_cls), trace


@dataclass
class AttentionTrace:
    """Detached per-block attention weights captured during a forward."""

    variant: str
    grid: tuple
    has_cls: bool
    blocks: list


def encoder_forward(tb: TokenBatch, blocks: list, heads: int,
                    final_ln: LayerNormParams, want_trace: bool = False):
    traces = [] if want_trace else None
    variant = blocks[0].variant if blocks else "joint"
    for w in blocks:
        step = divided_block if w.variant == "divided" else joint_block
        tb, tr = step(tb, w, heads, want_trace)
        if want_trace:
            traces.append(tr)
    out = TokenBatch(T.layer_norm(tb.tokens, final_ln.g, final_ln.b), tb.grid, tb.has_cls)
    trace = AttentionTrace(variant, tb.grid, tb.has_cls, traces) if want_trace else None
    return out, trace


# ---------------------------------------------------------------------------
# attention rollout


def _mix_identity(a: np.ndarray) -> np.ndarray:
    """0.5 * A + 0.5 * I with rows renormalized to sum 1."""
    m = 0.5 * a + 0.5 * np.eye(a.shape[0], dtype=a.dtype)
    return m / m.sum(axis=-1, keepdims=True)


def _full_matrix_divided(block_trace: dict, grid: tuple, has_cls: bool,
                         batch_index: int) -> np.ndarray:
    """Compose per-group temporal and spatial weights into one token-level
    matrix.  The CLS row averages over the groups it was replicated into,
    mirroring the forward pass."""
    f, hs, ws = grid
    s = hs * ws
    n = f * s
    off = 1 if has_cls else 0
    m = n + off

    def assemble(per_group: np.ndarray, ids_of) -> np.ndarray:
        # per_group: [groups, off+len, off+len], head-averaged
        full = np.zeros((m, m), dtype=np.float64)
        groups = per_group.shape[0]
        cls_row = np.zeros(m, dtype=np.float64)
        for gi in range(groups):
            ids = ids_of(gi)
            a = per_group[gi]
            full[np.ix_(ids[off:], ids)] = a[off:, :]
            if has_cls:
                cls_row[ids] += a[0, :]
        if has_cls:
            full[0] = cls_row / groups
        return full

    at = block_trace["temporal"][batch_index].mean(axis=1).astype(np.float64)
    a_s = block_trace["spatial"][batch_index].mean(axis=1).astype(np.float64)
    ids_t = lambda sp: [0] * off + [off + t * s + sp for t in range(f)]
    ids_s = lambda fr: [0] * off + [off + fr * s + sp for sp in range(s)]
    mt = _mix_identity(assemble(at, ids_t))
    ms = _mix_identity(assemble(a_s, ids_s))
    return ms @ mt


def attention_rollout(trace: AttentionTrace, batch_index: int = 0) -> np.ndarray:
    """Roll head-averaged, identity-mixed attention across depth and map
    token mass back onto the (t, h, w) grid, normalized per frame by its
    max (a flat frame maps to all ones)."""
    t, hs, ws = trace.grid
    n = t * hs * ws
    off = 1 if trace.has_cls else 0
    rolled = np.eye(n + off, dtype=np.float64)
    for block_trace in trace.blocks:
        if trace.variant == "divided":
            mat = _full_matrix_divided(block_trace, trace.grid, trace.has_cls, batch_index)
        else:
            mat = _mix_identity(block_trace["joint"][batch_index].mean(axis=0).astype(np.float64))
        rolled = mat @ rolled
    if trace.has_cls:
        mass = rolled[0, off:]
    else:
        mass = rolled.mean(axis=0)
    heat = mass.reshape(t, hs, ws)
    peaks = heat.max(axis=(1, 2), keepdims=True)
    return heat / peaks


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5)."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"PGM wants a 2-D uint8 array, got {image.shape} {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def export_heatmap(heat: np.ndarray, out_dir, prefix: str = "frame") -> list:
    """One PGM per temporal slice of a [t, h, w] rollout map in [0, 1]."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for t in range(heat.shape[0]):
        img = np.floor(heat[t] * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
        path = os.path.join(out_dir, f"{prefix}_{t:03d}.pgm")
        write_pgm(path, img)
        paths.append(path)
    return paths
