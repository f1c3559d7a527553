"""Token embeddings for video: ``clip_slots``, the one owner of the cube
layout (a per-frame 2-D patch is a cube of tube depth 1), the check that
a clip batch fits it, the projection of its rows, learned positional
tables, and the classification token."""

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

    def named(self) -> dict:
        out = self.proj.named("embed.proj")
        out["embed.pos"] = self.pos
        if self.cls is not None:
            out["embed.cls"] = self.cls
        return out

    def embed(self, cubes: np.ndarray) -> TokenBatch:
        """[B, N, cube_dim] cube rows -> tokens: their projection, the CLS
        row first (divided only), plus the positional table.  The
        projection's node keeps ``cubes`` itself, no copy, for its weight
        gradient."""
        tokens = T.linear(Tensor(cubes), self.proj.w, self.proj.b)
        if self.cls is not None:
            cls = T.repeat(self.cls, tokens.data.shape[0], axis=0)     # [B, 1, D]
            tokens = T.concat([cls, tokens], axis=1)
        return TokenBatch(T.add(tokens, self.pos), self.cfg.grid, has_cls=self.cls is not None)


def check_clip_shape(shape: tuple, cfg: EmbeddingConfig) -> None:
    """Raise ValueError unless ``shape`` is a [B, F, 3, H, W] clip batch
    of cfg's frames and image size."""
    if len(shape) != 5:
        raise ValueError(f"video tensor must be [B, F, 3, H, W], got shape {shape}")
    _, f, c, h, w = shape
    if f != cfg.frames:
        raise ValueError(f"frame count {f} does not match configured {cfg.frames}")
    if c != 3:
        raise ValueError(f"channel count {c} must be 3")
    if h != cfg.image_size or w != cfg.image_size:
        raise ValueError(f"spatial size {h}x{w} does not match configured {cfg.image_size}")


def clip_slots(rows: np.ndarray, cfg: EmbeddingConfig) -> np.ndarray:
    """[B, N, cube_dim] cube rows viewed in clip order, as
    [B, t, td, 3, hs, p, ws, p]: slot i, reshaped, is clip i's
    [F, 3, H, W].  Tokens run time-major then row-major over the grid,
    a cube's pixels in flatten order (c, t, ph, pw)."""
    td, p = cfg.tube_depth, cfg.patch
    t, hs, ws = cfg.grid
    return rows.reshape(len(rows), t, hs, ws, 3, td, p, p).transpose(0, 1, 5, 4, 2, 6, 3, 7)

