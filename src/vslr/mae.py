"""Tube-masked video autoencoder.

A mask hides whole space-time tubes: one boolean spatial grid broadcast
across the temporal token axis, so a masked position is hidden in every
time slice.  The encoder sees only visible tokens; a narrow, shallower
decoder fills mask tokens back in at their original positions and
reconstructs per-cube normalized pixels.  Loss is MSE over masked cubes
only, its targets the masked rows of the cube array the embedding projects.

A batch's masks are one boolean [B, h, w] array.  Masks at one ratio
hide equal cell counts, so per-row gathers by the token ids built once
per step turn the batch into [B, visible] encoder input and [B, all]
decoder input: one encoder pass and one decoder pass per step, whatever
the batch size.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import BlockWeights, encoder_forward
from .checkpoint import load_into, save_checkpoint
from .embedding import Embedding, EmbeddingConfig, TokenBatch, check_clip_shape, clip_slots
from .errors import VslrError, at_least
from .nn import LayerNormParams, LinearParams, param_buffer, trunc_normal
from .tensor import Tensor
from .train import Adam, train_step
from .video import (Manifest, PipelineConfig, derive_rng, load_instance_video,
                    prepare_clip, to_model_tensor)


def make_tube_mask(grid: tuple, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Sample round(ratio * cells) masked spatial positions, half-up, as
    the clip's boolean [h, w] grid, True where a tube is masked.

    Ratios that round to zero masked or zero visible cells are rejected;
    both degenerate ends make the objective meaningless.
    """
    _, h, w = grid
    if not (0.0 < ratio < 1.0):
        raise VslrError("config", f"masking ratio must be in (0, 1), got {ratio}")
    cells = h * w
    count = int(np.floor(ratio * cells + 0.5))
    if count < 1:
        raise VslrError("config", f"masking ratio {ratio} masks zero of {cells} cells")
    if count >= cells:
        raise VslrError("config", f"masking ratio {ratio} leaves zero visible cells of {cells}")
    picked = rng.choice(cells, size=count, replace=False)
    spatial = np.zeros(cells, dtype=np.bool_)
    spatial[picked] = True
    return spatial.reshape(h, w)


def tube_token_ids(masks: np.ndarray, t_tokens: int) -> tuple:
    """(visible, masked) token ids, ascending per row, of a boolean [B, h, w]
    mask batch whose clips hide equal cell counts: a cell's tokens are the
    same cell in each of the t_tokens time slices."""
    b = masks.shape[0]
    flat = masks.reshape(b, -1)
    offsets = np.arange(t_tokens)[:, None] * flat.shape[1]
    return tuple((offsets + np.nonzero(m)[1].reshape(b, 1, -1)).reshape(b, -1)
                 for m in (~flat, flat))


@dataclass
class MaeConfig:
    dim: int = 32
    depth: int = 3
    heads: int = 4
    decoder_dim: int = 16
    decoder_depth: int = 2
    decoder_heads: int = 2
    image_size: int = 32
    patch: int = 8
    frames: int = 8
    tube_depth: int = 2

    def __post_init__(self):
        self.embedding_config()         # dim and patch/cube geometry
        at_least(1, depth=self.depth, heads=self.heads, decoder_dim=self.decoder_dim,
                 decoder_heads=self.decoder_heads)
        at_least(0, decoder_depth=self.decoder_depth)
        if self.decoder_depth >= self.depth:
            raise VslrError("config", f"decoder depth {self.decoder_depth} must be smaller "
                                      f"than encoder depth {self.depth}")
        if self.decoder_dim >= self.dim:
            raise VslrError("config", f"decoder dim {self.decoder_dim} must be narrower "
                                      f"than encoder dim {self.dim}")
        if self.dim % self.heads or self.decoder_dim % self.decoder_heads:
            raise VslrError("config", "dims must be divisible by their head counts")

    def embedding_config(self) -> EmbeddingConfig:
        return EmbeddingConfig("joint", self.dim, self.image_size, self.patch,
                               self.frames, self.tube_depth)


class MaeModel:
    def __init__(self, cfg: MaeConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        ecfg = cfg.embedding_config()
        self.embed = Embedding(ecfg, rng, dtype)
        self.enc_blocks = [BlockWeights(rng, "joint", cfg.dim, dtype)
                           for _ in range(cfg.depth)]
        self.enc_norm = LayerNormParams(cfg.dim, dtype)
        self.dec_proj = LinearParams(rng, cfg.dim, cfg.decoder_dim, dtype)
        self.mask_token = Tensor(trunc_normal(rng, (1, 1, cfg.decoder_dim), dtype=dtype),
                                 requires_grad=True)
        self.dec_pos = Tensor(trunc_normal(rng, (ecfg.n_tokens, cfg.decoder_dim), dtype=dtype),
                              requires_grad=True)
        self.dec_blocks = [BlockWeights(rng, "joint", cfg.decoder_dim, dtype)
                           for _ in range(cfg.decoder_depth)]
        self.dec_norm = LayerNormParams(cfg.decoder_dim, dtype)
        self.recon = LinearParams(rng, cfg.decoder_dim, ecfg.cube_dim, dtype)
        param_buffer(self.params())           # one block, as in ClassifierModel

    def named(self) -> dict:
        out = self.embed.named()
        for i, blk in enumerate(self.enc_blocks):
            out.update(blk.named(f"enc.{i}"))
        out.update(self.enc_norm.named("enc.norm"))
        out.update(self.dec_proj.named("dec.proj"))
        out["dec.mask"] = self.mask_token
        out["dec.pos"] = self.dec_pos
        for i, blk in enumerate(self.dec_blocks):
            out.update(blk.named(f"dec.{i}"))
        out.update(self.dec_norm.named("dec.norm"))
        out.update(self.recon.named("recon"))
        return out

    def params(self) -> list:
        return list(self.named().values())


def _flat_rows(ids: np.ndarray, n: int) -> np.ndarray:
    """Row ids [B, K] into [B, N] as flat ids into [B * N]."""
    return (ids + n * np.arange(len(ids))[:, None]).ravel()


def normalized_cube_targets(cubes: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Normalized targets [B, K, cube_dim] of the rows ids [B, K] names of
    the [B, N, cube_dim] cube rows, and of no other: (pix - mean) /
    std, variance floored by 1e-6, with numpy's own ``var`` arithmetic term
    for term, in place in a new array: the embedding keeps ``cubes``."""
    b, n, d = cubes.shape
    c = np.take(cubes.reshape(b * n, d), _flat_rows(ids, n), axis=0).reshape(b, ids.shape[1], d)
    c -= c.mean(axis=-1, keepdims=True)
    var = (c * c).sum(axis=-1, keepdims=True) / d
    c /= np.sqrt(var + cubes.dtype.type(1e-6))
    return c


def reconstruction_loss(pred: Tensor, targets: np.ndarray) -> Tensor:
    """MSE of the masked-token predictions [B, K, cube_dim] against the
    targets of the same cubes."""
    return T.mse(pred, targets)


def _gather_rows(x: Tensor, ids: np.ndarray) -> Tensor:
    """out[b, k] = x[b, ids[b, k]] for x [B, N, D] and ids [B, K]."""
    b, n, d = x.data.shape
    rows = T.take(T.reshape(x, (b * n, d)), _flat_rows(ids, n), axis=0)
    return T.reshape(rows, (b, ids.shape[1], d))


def _encode_visible(model: MaeModel, tokens: Tensor, vis_ids: np.ndarray) -> Tensor:
    vis = _gather_rows(tokens, vis_ids)
    tb = TokenBatch(vis, (1, 1, vis.data.shape[1]), has_cls=False)
    return encoder_forward(tb, model.enc_blocks, model.cfg.heads, model.enc_norm).tokens


def _decode(model: MaeModel, encoded: Tensor, vis_ids: np.ndarray,
            mask_ids: np.ndarray) -> Tensor:
    """Project visible tokens, splice in mask tokens at each row's masked
    positions (original token order), run the decoder, and predict the
    masked cubes [B, K, cube_dim]."""
    b = encoded.data.shape[0]
    proj = T.linear(encoded, model.dec_proj.w, model.dec_proj.b)
    mask_tok = T.repeat(T.repeat(model.mask_token, b, axis=0), mask_ids.shape[1], axis=1)
    seq = T.concat([proj, mask_tok], axis=1)             # visible first, then masked
    slots = np.argsort(np.concatenate([vis_ids, mask_ids], axis=1), axis=1)
    ordered = T.add(_gather_rows(seq, slots), model.dec_pos)
    tb = TokenBatch(ordered, model.embed.cfg.grid, has_cls=False)
    out = encoder_forward(tb, model.dec_blocks, model.cfg.decoder_heads, model.dec_norm)
    return T.linear(_gather_rows(out.tokens, mask_ids), model.recon.w, model.recon.b)


def mae_forward(rows: np.ndarray, masks: np.ndarray, model: MaeModel):
    """Returns (masked-token predictions [B, K, cube_dim], scalar loss) of
    a batch's [B, N, cube_dim] cube rows, which the embedding projects and
    the targets are taken from.

    masks is one boolean [B, h, w] array, True where a clip's tube is
    masked; every clip must hide the same number of cells.  The loss is
    the MSE over every masked cube of the batch.
    """
    b = len(rows)
    grid = model.embed.cfg.grid
    if masks.dtype != np.bool_ or masks.shape != (b, *grid[1:]):
        raise ValueError(f"masks {masks.dtype} {masks.shape} do not fit a batch of {b} "
                         f"on model grid {grid}")
    counts = np.unique(masks.reshape(b, -1).sum(axis=1))
    if len(counts) > 1:
        raise ValueError(f"masks in one batch must hide equal cell counts, got {counts.tolist()}")
    vis_ids, mask_ids = tube_token_ids(masks, grid[0])
    tokens = model.embed.embed(rows).tokens
    targets = normalized_cube_targets(rows, mask_ids)
    pred = _decode(model, _encode_visible(model, tokens, vis_ids), vis_ids, mask_ids)
    return pred, reconstruction_loss(pred, targets)


@dataclass
class PretrainConfig:
    ratio: float = 0.9
    steps: int = 200
    batch: int = 2
    lr: float = 1e-3
    seed: int = 0
    checkpoint_interval: int = 0    # 0 means final checkpoint only

    def __post_init__(self):
        at_least(1, steps=self.steps, batch=self.batch)
        at_least(0, checkpoint_interval=self.checkpoint_interval)
        if not 0 < self.lr < np.inf:
            raise VslrError("config", f"learning rate must be positive and finite, got {self.lr!r}")


def pretrain(model: MaeModel, manifest: Manifest, video_dir,
             cfg: PretrainConfig, pipe: PipelineConfig, out_dir=None) -> list:
    """Step-sampled pretraining on the train split.

    Returns [(step, loss)].  Clip sampling, augmentation, and the tube
    mask for each clip all come from one rng derived from (seed,
    video_id, step), so runs are reproducible by seed alone.  Each clip
    is cast straight into its slot of the step's cube rows (see
    ``embedding.clip_slots``).  A pipeline whose frames or crop do not fit
    the model raises ``check_clip_shape``'s ValueError before any clip loads.
    """
    insts = manifest.by_split("train")
    if not insts:
        raise VslrError("manifest", "no train instances in manifest")
    ecfg = model.embed.cfg
    check_clip_shape((cfg.batch, pipe.frames, 3, pipe.crop, pipe.crop), ecfg)
    grid = ecfg.grid
    dtype = model.recon.w.data.dtype
    opt = Adam(model.named(), cfg.lr)
    curve: list[tuple] = []
    for step in range(cfg.steps):
        order = derive_rng(cfg.seed, "batch", step)
        picks = order.choice(len(insts), size=cfg.batch,
                             replace=len(insts) < cfg.batch)
        xs = np.empty((cfg.batch, ecfg.n_tokens, ecfg.cube_dim), dtype=dtype)
        slots = clip_slots(xs, ecfg)
        masks = np.empty((cfg.batch, *grid[1:]), dtype=np.bool_)
        for i, j in enumerate(picks):
            inst = insts[int(j)]
            rng = derive_rng(cfg.seed, inst.video_id, step)
            video = load_instance_video(video_dir, inst)
            clip = prepare_clip(video, pipe, train=True, rng=rng, label=inst.label)
            to_model_tensor(clip, dtype, out=slots[i])
            masks[i] = make_tube_mask(grid, cfg.ratio, rng)
        loss = train_step(lambda: mae_forward(xs, masks, model)[1],
                          opt, step, "pretraining")
        curve.append((step, loss))
        if out_dir is not None and cfg.checkpoint_interval and \
                (step + 1) % cfg.checkpoint_interval == 0:
            os.makedirs(out_dir, exist_ok=True)     # with the first checkpoint, not before
            save_checkpoint(os.path.join(out_dir, f"mae_{step + 1:05d}.ckpt"), model.named())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "mae_final.ckpt"), model.named())
        with open(os.path.join(out_dir, "loss.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["step", "loss"])
            wr.writerows(curve)
    return curve


def load_encoder(params: dict, loaded: dict) -> None:
    """Copy a pretrained encoder into a classifier's named parameters.

    Only `embed.*` and `enc.*` entries present in both the model and the
    checkpoint are copied (decoder weights are dropped, the head keeps its
    fresh init); load_into checks their shapes.
    """
    names = [n for n in params if n.startswith(("embed.", "enc.")) and n in loaded]
    if not names:
        raise VslrError("checkpoint",
                        "checkpoint: no encoder weights in the checkpoint match this model")
    load_into({n: params[n] for n in names}, {n: loaded[n] for n in names})
