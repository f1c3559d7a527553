"""Token embeddings for video: 2-D patch and 3-D cube projection, learned
positional tables, and the classification token.

patch_embed_2d and cube_embed_3d are deliberately independent reshape
chains; cube embedding at tube depth 1 must reproduce patch embedding
with matched weights, and keeping the routes separate keeps that check
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import VslrError, at_least
from .nn import LinearParams, trunc_normal
from .tensor import Tensor


@dataclass
class EmbeddingConfig:
    variant: str          # "divided" (per-frame patches + CLS) or "joint" (cubes, no CLS)
    dim: int
    image_size: int
    patch: int
    frames: int
    tube_depth: int = 1

    def __post_init__(self):
        if self.variant not in ("divided", "joint"):
            raise VslrError("config", f"variant must be divided or joint, got {self.variant!r}")
        at_least(1, dim=self.dim, image_size=self.image_size, patch=self.patch,
                 frames=self.frames, tube_depth=self.tube_depth)
        if self.image_size % self.patch != 0:
            raise VslrError("config",
                            f"image size {self.image_size} not divisible by patch {self.patch}")
        if self.frames % self.tube_depth != 0:
            raise VslrError("config",
                            f"frame count {self.frames} not divisible by tube depth {self.tube_depth}")
        if self.variant == "divided" and self.tube_depth != 1:
            raise VslrError("config", "divided variant requires tube depth 1")

    @property
    def grid(self) -> tuple:
        s = self.image_size // self.patch
        return (self.frames // self.tube_depth, s, s)

    @property
    def n_tokens(self) -> int:
        t, h, w = self.grid
        return t * h * w

    @property
    def cube_dim(self) -> int:
        return 3 * self.tube_depth * self.patch * self.patch


@dataclass
class TokenBatch:
    """Token tensor [B, M, D] plus the (t, h, w) grid it unflattens to;
    M = prod(grid) plus one if a CLS token sits at position 0."""

    tokens: Tensor
    grid: tuple
    has_cls: bool = False


class Embedding:
    """Projection weights, positional table, and (divided only) CLS token."""

    def __init__(self, cfg: EmbeddingConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.proj = LinearParams(rng, cfg.cube_dim, cfg.dim, dtype)
        rows = cfg.n_tokens + (1 if cfg.variant == "divided" else 0)
        self.pos = Tensor(trunc_normal(rng, (rows, cfg.dim), dtype=dtype), requires_grad=True)
        self.cls = None
        if cfg.variant == "divided":
            self.cls = Tensor(trunc_normal(rng, (1, 1, cfg.dim), dtype=dtype), requires_grad=True)

    def named(self, prefix: str = "embed") -> dict:
        out = self.proj.named(f"{prefix}.proj")
        out[f"{prefix}.pos"] = self.pos
        if self.cls is not None:
            out[f"{prefix}.cls"] = self.cls
        return out

    def embed(self, x: Tensor) -> TokenBatch:
        """Full embedding path for this variant, positional add included."""
        if self.cfg.variant == "divided":
            tb = patch_embed_2d(x, self)
            tb = prepend_cls(tb, self)
        else:
            tb = cube_embed_3d(x, self)
        return add_positional(tb, self)


def _check_video_shape(x: Tensor, cfg: EmbeddingConfig) -> None:
    if x.data.ndim != 5:
        raise ValueError(f"video tensor must be [B, F, 3, H, W], got shape {x.data.shape}")
    b, f, c, h, w = x.data.shape
    if f != cfg.frames:
        raise ValueError(f"frame count {f} does not match configured {cfg.frames}")
    if c != 3:
        raise ValueError(f"channel count {c} must be 3")
    if h != cfg.image_size or w != cfg.image_size:
        raise ValueError(f"spatial size {h}x{w} does not match configured {cfg.image_size}")


def patch_embed_2d(x: Tensor, emb: Embedding) -> TokenBatch:
    """Per-frame p x p patches, flattened (c, ph, pw), projected to D."""
    cfg = emb.cfg
    if cfg.tube_depth != 1:
        raise ValueError("patch embedding requires tube depth 1")
    _check_video_shape(x, cfg)
    b, f, _, h, w = x.data.shape
    p = cfg.patch
    hs, ws = h // p, w // p
    t1 = T.reshape(x, (b, f, 3, hs, p, ws, p))
    t2 = T.transpose(t1, (0, 1, 3, 5, 2, 4, 6))          # [B, F, Hs, Ws, c, ph, pw]
    flat = T.reshape(t2, (b, f * hs * ws, 3 * p * p))
    tokens = T.linear(flat, emb.proj.w, emb.proj.b)
    return TokenBatch(tokens, (f, hs, ws), has_cls=False)


def cube_pixels(x: Tensor, cfg: EmbeddingConfig) -> Tensor:
    """[B, F, 3, H, W] -> [B, N, cube_dim] with cube flatten order
    (c, t, ph, pw); tokens run time-major then row-major over the grid."""
    _check_video_shape(x, cfg)
    b = x.data.shape[0]
    td, p = cfg.tube_depth, cfg.patch
    t, hs, ws = cfg.grid
    t1 = T.reshape(x, (b, t, td, 3, hs, p, ws, p))
    t2 = T.transpose(t1, (0, 1, 4, 6, 3, 2, 5, 7))       # [B, T, Hs, Ws, c, td, ph, pw]
    return T.reshape(t2, (b, t * hs * ws, cfg.cube_dim))


def cube_embed_3d(x: Tensor, emb: Embedding) -> TokenBatch:
    """Tube cubes (td x p x p) projected to D."""
    cfg = emb.cfg
    flat = cube_pixels(x, cfg)
    tokens = T.linear(flat, emb.proj.w, emb.proj.b)
    return TokenBatch(tokens, cfg.grid, has_cls=False)


def prepend_cls(tb: TokenBatch, emb: Embedding) -> TokenBatch:
    if tb.has_cls:
        raise ValueError("token batch already has a CLS token")
    if emb.cls is None:
        raise ValueError("embedding has no CLS token (joint variant)")
    b = tb.tokens.data.shape[0]
    cls = T.repeat(emb.cls, b, axis=0)                   # [B, 1, D]
    return TokenBatch(T.concat([cls, tb.tokens], axis=1), tb.grid, has_cls=True)


def add_positional(tb: TokenBatch, emb: Embedding) -> TokenBatch:
    rows = tb.tokens.data.shape[1]
    if emb.pos.data.shape[0] != rows:
        raise ValueError(
            f"positional table has {emb.pos.data.shape[0]} rows, token batch has {rows}"
        )
    return TokenBatch(T.add(tb.tokens, emb.pos), tb.grid, tb.has_cls)
