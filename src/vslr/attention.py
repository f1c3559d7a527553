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
cost claim can be asserted exactly, and whose forward hands the head mean
of the weights it computed to a trace for rollout.
"""

from __future__ import annotations

import functools

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


@functools.lru_cache(maxsize=64)
def pass_groups(grid: tuple, has_cls: bool, kind: str) -> np.ndarray:
    """Token ids [G, L] of each attention group of one pass, over the token
    layout [CLS, frame 0's positions, frame 1's positions, ...].

    temporal: one group per spatial position, across frames.  spatial: one
    group per frame, across its positions.  joint: one group of every
    token.  The CLS (id 0), when present, leads every group.  Each pass
    meets the same ids every step, so they are built once per
    (grid, has_cls, kind) and shared read-only.
    """
    f, hs, ws = grid
    off = 1 if has_cls else 0
    patches = off + np.arange(f * hs * ws).reshape(f, hs * ws)
    ids = {"temporal": patches.T, "spatial": patches, "joint": patches.reshape(1, -1)}[kind]
    ids = np.pad(ids, ((0, 0), (off, 0)))
    ids.setflags(write=False)
    return ids


def multi_head_attention(x: Tensor, w: PassWeights, heads: int, groups: np.ndarray,
                         trace: list | None = None) -> Tensor:
    """Scaled dot-product attention within each group of [G, L] token ids
    over [batch, tokens, dim]; a ``trace`` list gets the pass's
    (groups, weights) entry (see ``T.attention``)."""
    q = T.linear(x, w.q.w, w.q.b)
    k = T.linear(x, w.k.w, w.k.b)
    v = T.linear(x, w.v.w, w.v.b)
    return T.linear(T.attention(q, k, v, heads, groups, trace), w.o.w, w.o.b)


def _block(tb: TokenBatch, w: BlockWeights, heads: int, trace: list | None,
           passes: list, mlp_ln: LayerNormParams) -> TokenBatch:
    """Each (kind, pass weights, norm) attention pass, then the MLP, each
    with a pre-norm residual.  T.attention rejects a token count that does
    not fit the grid's groups."""
    x = tb.tokens
    for kind, pw, ln in passes:
        groups = pass_groups(tb.grid, tb.has_cls, kind)
        x = T.add(x, multi_head_attention(T.layer_norm(x, ln.g, ln.b), pw, heads, groups, trace))
    hidden = T.gelu(T.linear(T.layer_norm(x, mlp_ln.g, mlp_ln.b), w.mlp0.w, w.mlp0.b))
    x = T.add(x, T.linear(hidden, w.mlp1.w, w.mlp1.b))
    return TokenBatch(x, tb.grid, tb.has_cls)


def divided_block(tb: TokenBatch, w: BlockWeights, heads: int,
                  trace: list | None = None) -> TokenBatch:
    """Temporal pass, spatial pass, MLP.  The CLS token (when present)
    joins every group of both passes; its update is the mean of its
    per-group outputs."""
    if w.variant != "divided":
        raise ValueError("divided_block needs divided weights")
    return _block(tb, w, heads, trace,
                  [("temporal", w.temporal, w.ln1), ("spatial", w.spatial, w.ln2)], w.ln3)


def joint_block(tb: TokenBatch, w: BlockWeights, heads: int,
                trace: list | None = None) -> TokenBatch:
    """Single attention pass over every token, then the MLP."""
    if w.variant != "joint":
        raise ValueError("joint_block needs joint weights")
    return _block(tb, w, heads, trace, [("joint", w.joint, w.ln1)], w.ln2)


def encoder_forward(tb: TokenBatch, blocks: list, heads: int,
                    final_ln: LayerNormParams, trace: list | None = None) -> TokenBatch:
    """Each block in order, then the final norm.  When ``trace`` is a
    list, each attention pass appends its entry (see ``T.attention``), in
    call order."""
    for w in blocks:
        step = divided_block if w.variant == "divided" else joint_block
        tb = step(tb, w, heads, trace)
    return TokenBatch(T.layer_norm(tb.tokens, final_ln.g, final_ln.b), tb.grid, tb.has_cls)


# ---------------------------------------------------------------------------
# attention rollout


def attention_rollout(trace: list, grid: tuple, has_cls: bool) -> np.ndarray:
    """Roll head-averaged, identity-mixed attention across depth and map
    token mass back onto the (t, h, w) grid, normalized per frame by its
    max (a flat frame maps to all ones).

    ``trace`` holds one (groups, weights) entry per attention pass in
    call order, as ``encoder_forward`` appends them for a batch of one
    clip over a token layout of ``grid`` with or without a CLS.  Each pass
    mixes as 0.5 * A / count + 0.5 * I with rows renormalized to sum 1,
    where A holds the pass's group weights at token level and a token in
    several groups (the CLS) gets the mean of its rows, as in the forward
    pass.
    Only one row of the product is read: the CLS row, or the mean row
    without a CLS.  So that row is carried back through every pass, last
    first, at O(G * L^2) per pass."""
    t, hs, ws = grid
    off = 1 if has_cls else 0
    m = t * hs * ws + off
    v = np.eye(1, m)[0] if has_cls else np.full(m, 1.0 / m)
    for ids, weights in reversed(trace):
        flat = ids.ravel()
        count = np.bincount(flat, minlength=m)
        [w] = weights                                                # [G, L, L]
        # v @ (mixed / row sums): divide by the row sums, spread, mix
        v = v / (0.5 * np.bincount(flat, weights=w.sum(-1, dtype=np.float64).ravel(),
                                   minlength=m) / count + 0.5)
        spread = np.einsum("gl,glk->gk", (v / count)[ids], w)
        v = 0.5 * np.bincount(flat, weights=spread.ravel(), minlength=m) + 0.5 * v
    heat = v[off:].reshape(t, hs, ws)
    return heat / heat.max(axis=(1, 2), keepdims=True)


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5)."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError(f"PGM wants a 2-D uint8 array, got {image.shape} {image.dtype}")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def export_heatmap(heat: np.ndarray, out_dir) -> list:
    """One PGM per temporal slice of a [t, h, w] rollout map in [0, 1]."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for t in range(heat.shape[0]):
        img = np.floor(heat[t] * 255.0 + 0.5).clip(0, 255).astype(np.uint8)
        path = os.path.join(out_dir, f"frame_{t:03d}.pgm")
        write_pgm(path, img)
        paths.append(path)
    return paths
