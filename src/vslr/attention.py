"""Space-time transformer blocks.

Two block types over one token layout, [CLS?, frame 0, frame 1, ...]:

* divided: per-block temporal attention (each spatial position attends
  across frames), then spatial attention (each frame attends across its
  positions), then the MLP.  The CLS token joins every attention group
  and its per-group updates are averaged.
* joint: one attention pass over all tokens, then the MLP.

Both run one block body of pre-norm residual passes, x + Attn(LayerNorm(x)),
then the MLP.  ``pass_groups`` alone defines each pass's groups, for the
forward pass and for rollout.  Each pass is one fused ``T.attention`` node,
whose multiply-adds are tagged in the MAC ledger so the divided-vs-joint
cost claim can be asserted exactly.
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

    _PARTS = {"divided": ("ln1", "temporal", "ln2", "spatial", "ln3"),
              "joint": ("ln1", "joint", "ln2")}

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
        out = {}
        for part in self._PARTS[self.variant]:
            out.update(getattr(self, part).named(f"{prefix}.{part}"))
        out.update(self.mlp0.named(f"{prefix}.mlp.0"))
        out.update(self.mlp1.named(f"{prefix}.mlp.1"))
        return out


def pass_groups(grid: tuple, has_cls: bool, kind: str) -> np.ndarray:
    """Token ids [G, L] of each attention group of one pass, over the token
    layout [CLS, frame 0's positions, frame 1's positions, ...].

    temporal: one group per spatial position, across frames.  spatial: one
    group per frame, across its positions.  joint: one group of every
    token.  The CLS (id 0), when present, leads every group.
    """
    f, hs, ws = grid
    off = 1 if has_cls else 0
    patches = off + np.arange(f * hs * ws).reshape(f, hs * ws)
    ids = {"temporal": patches.T, "spatial": patches, "joint": patches.reshape(1, -1)}[kind]
    return np.pad(ids, ((0, 0), (off, 0)))


def multi_head_attention(x: Tensor, w: PassWeights, heads: int, groups: np.ndarray,
                         want_trace: bool = False):
    """Scaled dot-product attention within each group of [G, L] token ids
    over [batch, tokens, dim] (see ``T.attention``).

    Returns (output, weights) where weights is a detached
    [batch, groups, heads, length, length] array or None.
    """
    q = T.linear(x, w.q.w, w.q.b)
    k = T.linear(x, w.k.w, w.k.b)
    v = T.linear(x, w.v.w, w.v.b)
    out = T.linear(T.attention(q, k, v, heads, groups), w.o.w, w.o.b)
    if not want_trace:
        return out, None
    # the fused op never holds the full weights; only rollout needs them
    g, n = groups.shape
    weights = T._attn_weights(*T._attn_split(q.data, k.data, heads, groups)[:2])[0]
    return out, weights.reshape(x.data.shape[0], g, heads, n, n)


def _block(tb: TokenBatch, w: BlockWeights, heads: int, want_trace: bool,
           passes: list, mlp_ln: LayerNormParams):
    """Each (kind, pass weights, norm) attention pass, then the MLP, each
    with a pre-norm residual.  T.attention rejects a token count that does
    not fit the grid's groups."""
    x = tb.tokens
    trace = {}
    for kind, pw, ln in passes:
        groups = pass_groups(tb.grid, tb.has_cls, kind)
        att, trace[kind] = multi_head_attention(T.layer_norm(x, ln.g, ln.b), pw, heads,
                                                groups, want_trace)
        x = T.add(x, att)
    hidden = T.gelu(T.linear(T.layer_norm(x, mlp_ln.g, mlp_ln.b), w.mlp0.w, w.mlp0.b))
    x = T.add(x, T.linear(hidden, w.mlp1.w, w.mlp1.b))
    return TokenBatch(x, tb.grid, tb.has_cls), trace if want_trace else None


def divided_block(tb: TokenBatch, w: BlockWeights, heads: int,
                  want_trace: bool = False):
    """Temporal pass, spatial pass, MLP.  The CLS token (when present)
    joins every group of both passes; its update is the mean of its
    per-group outputs."""
    if w.variant != "divided":
        raise ValueError("divided_block needs divided weights")
    return _block(tb, w, heads, want_trace,
                  [("temporal", w.temporal, w.ln1), ("spatial", w.spatial, w.ln2)], w.ln3)


def joint_block(tb: TokenBatch, w: BlockWeights, heads: int,
                want_trace: bool = False):
    """Single attention pass over every token, then the MLP."""
    if w.variant != "joint":
        raise ValueError("joint_block needs joint weights")
    return _block(tb, w, heads, want_trace, [("joint", w.joint, w.ln1)], w.ln2)


@dataclass
class AttentionTrace:
    """Detached per-block attention weights captured during a forward."""

    variant: str
    grid: tuple
    has_cls: bool
    blocks: list


def encoder_forward(tb: TokenBatch, blocks: list, heads: int,
                    final_ln: LayerNormParams, want_trace: bool = False):
    traces = []
    for w in blocks:
        step = divided_block if w.variant == "divided" else joint_block
        tb, tr = step(tb, w, heads, want_trace)
        traces.append(tr)
    out = TokenBatch(T.layer_norm(tb.tokens, final_ln.g, final_ln.b), tb.grid, tb.has_cls)
    variant = blocks[0].variant if blocks else "joint"
    return out, AttentionTrace(variant, tb.grid, tb.has_cls, traces) if want_trace else None


# ---------------------------------------------------------------------------
# attention rollout


def _pass_matrix(block_trace: dict, kind: str, grid: tuple, has_cls: bool,
                 batch_index: int) -> np.ndarray:
    """One pass's head-averaged group weights as a token-level matrix A,
    mixed as 0.5 * A + 0.5 * I with rows renormalized to sum 1.  A token in
    several groups (the CLS) gets the mean of its rows, as in the forward
    pass."""
    ids = pass_groups(grid, has_cls, kind)
    a = np.zeros((ids.max() + 1,) * 2, dtype=np.float64)
    np.add.at(a, (ids[:, :, None], ids[:, None, :]), block_trace[kind][batch_index].mean(axis=1))
    mixed = 0.5 * a / np.bincount(ids.ravel())[:, None] + 0.5 * np.eye(len(a))
    return mixed / mixed.sum(axis=-1, keepdims=True)


def _full_matrix_divided(block_trace: dict, grid: tuple, has_cls: bool,
                         batch_index: int) -> np.ndarray:
    """The temporal pass's matrix, then the spatial pass's."""
    return (_pass_matrix(block_trace, "spatial", grid, has_cls, batch_index)
            @ _pass_matrix(block_trace, "temporal", grid, has_cls, batch_index))


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
            mat = _pass_matrix(block_trace, "joint", trace.grid, trace.has_cls, batch_index)
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
