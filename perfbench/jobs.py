"""Workload geometries and the six benchmark jobs.

Every job drives the same library entry points the command line calls
(``vslr.train.finetune``, ``vslr.mae.pretrain``, ``vslr.train.evaluate``
and the ``vslr.video`` clip functions), looked up on their modules at call
time so a traced run can wrap them from outside.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from vslr import mae as M
from vslr import tensor as T
from vslr import train as TR
from vslr import video as V

JOBS = ("finetune_divided", "finetune_joint", "pretrain",
        "eval_divided", "eval_joint", "prep")
MODEL_JOBS = JOBS[:5]
TRAIN_JOBS = JOBS[:3]
EVAL_JOBS = JOBS[3:5]


@dataclass(frozen=True)
class Geometry:
    crop: int
    patch: int
    frames: int
    dim: int
    depth: int
    heads: int
    batch: int
    lr: float
    mae_dim: int
    mae_depth: int
    mae_heads: int
    dec_dim: int
    dec_depth: int
    dec_heads: int
    ratio: float
    mae_steps: int
    mae_batch: int
    tube_depth: int = 2
    sampling: str = "consecutive"


GEOMETRIES = {
    "desk": Geometry(crop=32, patch=8, frames=8, dim=32, depth=2, heads=4, batch=4,
                     lr=1e-3, mae_dim=32, mae_depth=3, mae_heads=4, dec_dim=16,
                     dec_depth=2, dec_heads=2, ratio=0.75, mae_steps=5, mae_batch=4),
    "paper": Geometry(crop=224, patch=16, frames=16, dim=64, depth=2, heads=4, batch=2,
                      lr=1e-3, mae_dim=64, mae_depth=2, mae_heads=4, dec_dim=32,
                      dec_depth=1, dec_heads=2, ratio=0.9, mae_steps=1, mae_batch=2),
}

# ---------------------------------------------------------------------------
# per-layer metric names, <job>.<layer>.<quantity>

_OPS = ("gelu", "softmax", "matmul", "linear", "layer_norm", "other")


def layer_metrics(job: str) -> list:
    """The per-layer metrics the traced run reports for one job."""
    names = []
    train = job in TRAIN_JOBS
    if job in MODEL_JOBS:
        names += [f"tensor.{op}.fwd_ms" for op in _OPS]
        if train:
            names += [f"tensor.{op}.bwd_ms" for op in _OPS]
        if job == "pretrain":
            names += ["tensor.take.fwd_ms", "tensor.take.bwd_ms"]
        if train:
            names.append("tensor.backward_self_ms")
        names += ["tensor.nodes_per_clip", "tensor.macs_per_clip", "tensor.graph_mb"]
        if job.endswith("_divided"):
            names += ["attention.temporal.fwd_ms", "attention.spatial.fwd_ms"]
            if train:
                names += ["attention.temporal.bwd_ms", "attention.spatial.bwd_ms"]
        if job.endswith("_joint"):
            names.append("attention.joint.fwd_ms")
            if train:
                names.append("attention.joint.bwd_ms")
        names += ["attention.macs_per_clip", "attention.weights_mb", "embedding.fwd_ms"]
        if train:
            names.append("embedding.bwd_ms")
        if job == "pretrain":
            names += ["mae.mask_ms", "mae.encoder.fwd_ms", "mae.encoder.bwd_ms",
                      "mae.decoder.fwd_ms", "mae.decoder.bwd_ms", "mae.loss_ms",
                      "mae.encoder_calls_per_step"]
        if train:
            names.append("train.adam_ms")
        if job.startswith("finetune"):
            names += ["train.loss_ms", "train.test_eval_ms"]
    names += ["video.load_ms", "video.prepare_ms", "video.to_tensor_ms"]
    return [f"{job}.{n}" for n in names]


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MiB"
    return "count"


# ---------------------------------------------------------------------------
# closed-form attention MACs (QK^T plus AV, one multiply-add per term)


def divided_attn_macs(g: Geometry) -> int:
    """One clip's forward through the divided encoder, CLS in every group."""
    s = (g.crop // g.patch) ** 2
    f = g.frames
    per_block = s * 2 * (f + 1) ** 2 * g.dim + f * 2 * (s + 1) ** 2 * g.dim
    return g.depth * per_block


def joint_attn_macs(g: Geometry) -> int:
    n = (g.frames // g.tube_depth) * (g.crop // g.patch) ** 2
    return g.depth * 2 * n * n * g.dim


def mae_attn_macs(g: Geometry) -> int:
    """One clip through the MAE: encoder over visible tubes, decoder over all."""
    t = g.frames // g.tube_depth
    cells = (g.crop // g.patch) ** 2
    visible = cells - int(math.floor(g.ratio * cells + 0.5))
    n_vis, n = t * visible, t * cells
    return g.mae_depth * 2 * n_vis ** 2 * g.mae_dim + g.dec_depth * 2 * n * n * g.dec_dim


# ---------------------------------------------------------------------------
# jobs


@dataclass
class CallResult:
    """What one job call produced.  `done` is the clips/s numerator."""

    done: int
    ok: int
    losses: list
    tensors: list
    evaluated: int = 0      # evaluate's num_instances, when the call evaluates


class Job:
    """One benchmark job: `build` makes the model, `call` runs one timed
    repetition.  `attempted` clip preparations happen per call."""

    name = ""
    attempted = 0
    attn_macs = 0
    eval_clips = 0          # split size the call's evaluate must cover

    def build(self) -> None:
        pass

    def call(self) -> CallResult:
        raise NotImplementedError

    def mae_model(self):
        return None


def _model_cfg(g: Geometry, variant: str) -> TR.ModelConfig:
    return TR.ModelConfig(variant=variant, dim=g.dim, depth=g.depth, heads=g.heads,
                          image_size=g.crop, patch=g.patch, frames=g.frames,
                          tube_depth=g.tube_depth)


class FinetuneJob(Job):
    """One `finetune` call: a train epoch plus its per-epoch test evaluate."""

    def __init__(self, g: Geometry, variant: str, set_dir: str, seed: int):
        self.name = f"finetune_{variant}"
        self.g, self.variant, self.seed = g, variant, seed
        self.manifest = V.load_manifest(os.path.join(set_dir, "manifest.json"))
        self.videos = os.path.join(set_dir, "videos")
        n_train = len(self.manifest.by_split("train"))
        n_test = len(self.manifest.by_split("test"))
        self.done, self.eval_clips = n_train, n_test
        self.attempted = n_train + n_test
        per_clip = divided_attn_macs(g) if variant == "divided" else joint_attn_macs(g)
        self.attn_macs = per_clip * (n_train + n_test)

    def build(self) -> None:
        self.model = TR.ClassifierModel(_model_cfg(self.g, self.variant),
                                        self.manifest.num_classes,
                                        np.random.default_rng([self.seed, 1]))
        self.cfg = TR.TrainConfig(batch=self.g.batch, epochs=1, lr=self.g.lr,
                                  frames=self.g.frames, sampling=self.g.sampling,
                                  layers="all", seed=self.seed, variant=self.variant)

    def call(self) -> CallResult:
        reports, log = TR.finetune(self.model, self.manifest, self.videos, self.cfg,
                                   self.g.crop)
        return CallResult(self.done, self.attempted, [row[1] for row in log], [],
                          reports[0].num_instances)


class PretrainJob(Job):
    """One `pretrain` call of a fixed step count."""

    name = "pretrain"

    def __init__(self, g: Geometry, set_dir: str, seed: int):
        self.g, self.seed = g, seed
        self.manifest = V.load_manifest(os.path.join(set_dir, "manifest.json"))
        self.videos = os.path.join(set_dir, "videos")
        self.done = self.attempted = g.mae_steps * g.mae_batch
        self.attn_macs = mae_attn_macs(g) * self.done
        self.step = 0

    def build(self) -> None:
        g = self.g
        cfg = M.MaeConfig(dim=g.mae_dim, depth=g.mae_depth, heads=g.mae_heads,
                          decoder_dim=g.dec_dim, decoder_depth=g.dec_depth,
                          decoder_heads=g.dec_heads, image_size=g.crop, patch=g.patch,
                          frames=g.frames, tube_depth=g.tube_depth)
        self.model = M.MaeModel(cfg, np.random.default_rng([self.seed, 2]))
        self.pipe = V.PipelineConfig(g.frames, g.sampling, g.crop)

    def call(self) -> CallResult:
        # a fresh clip/mask seed per call, so calls do not replay one batch
        cfg = M.PretrainConfig(ratio=self.g.ratio, steps=self.g.mae_steps,
                               batch=self.g.mae_batch, lr=self.g.lr,
                               seed=self.seed * 1000 + self.step)
        self.step += 1
        curve = M.pretrain(self.model, self.manifest, self.videos, cfg, self.pipe)
        return CallResult(self.done, self.attempted, [loss for _, loss in curve], [])

    def mae_model(self):
        return self.model


class EvalJob(Job):
    """`evaluate` on the fixed train split, forward only."""

    split = "train"

    def __init__(self, g: Geometry, variant: str, set_dir: str, seed: int):
        self.name = f"eval_{variant}"
        self.g, self.variant, self.seed = g, variant, seed
        self.manifest = V.load_manifest(os.path.join(set_dir, "manifest.json"))
        self.videos = os.path.join(set_dir, "videos")
        self.done = self.attempted = self.eval_clips = len(self.manifest.by_split(self.split))
        per_clip = divided_attn_macs(g) if variant == "divided" else joint_attn_macs(g)
        self.attn_macs = per_clip * self.done

    def build(self) -> None:
        self.model = TR.ClassifierModel(_model_cfg(self.g, self.variant),
                                        self.manifest.num_classes,
                                        np.random.default_rng([self.seed, 3]))
        self.pipe = V.PipelineConfig(self.g.frames, self.g.sampling, self.g.crop)

    def call(self) -> CallResult:
        report = TR.evaluate(self.model, self.manifest, self.videos, self.pipe,
                             self.seed, split=self.split)
        return CallResult(self.done, self.attempted, [], [], report.num_instances)


class PrepJob(Job):
    """load -> prepare_clip(train=True) -> to_model_tensor over every source.

    A source the pipeline rejects is a failed clip, not a failed call: the
    job measures how many of its sources the pipeline can prepare."""

    name = "prep"

    def __init__(self, g: Geometry, set_dir: str, seed: int):
        self.g, self.seed = g, seed
        self.manifest = V.load_manifest(os.path.join(set_dir, "manifest.json"))
        self.videos = os.path.join(set_dir, "videos")
        self.attempted = len(self.manifest.instances)
        self.pipe = V.PipelineConfig(g.frames, g.sampling, g.crop)
        self.rep = 0

    def call(self) -> CallResult:
        tensors = []
        for i, inst in enumerate(self.manifest.instances):
            rng = np.random.default_rng([self.seed, 4, self.rep, i])
            try:
                video = V.load_instance_video(self.videos, inst)
                clip = V.prepare_clip(video, self.pipe, train=True, rng=rng, label=inst.label)
                tensors.append(V.to_model_tensor(clip, np.float32))
            except ValueError:
                continue
        self.rep += 1
        return CallResult(len(tensors), len(tensors), [], tensors)


def make_job(workload: str, name: str, sets: dict, seed: int) -> Job:
    g = GEOMETRIES[workload]
    if name.startswith("finetune_"):
        return FinetuneJob(g, name.split("_", 1)[1], sets["model"], seed)
    if name == "pretrain":
        return PretrainJob(g, sets["model"], seed)
    if name.startswith("eval_"):
        return EvalJob(g, name.split("_", 1)[1], sets["model"], seed)
    if name == "prep":
        return PrepJob(g, sets["prep"], seed)
    raise ValueError(f"unknown job {name!r}")


# ---------------------------------------------------------------------------
# running and checking one call


@dataclass
class Outcome:
    wall: float
    done: int
    ok: int
    attempted: int
    losses: list
    macs: int
    attn_macs: int
    error: str | None = None

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def run_call(job: Job) -> tuple:
    """Time one call.  A call that raises counts every clip it was to
    process as failed.  Returns (Outcome, CallResult or None)."""
    T.reset_macs()
    t0 = time.perf_counter()
    try:
        res = job.call()
    except Exception as e:          # recorded as a failed call, run goes on
        wall = time.perf_counter() - t0
        return Outcome(wall, 0, 0, job.attempted, [], T.mac_count(), T.mac_count("attn"),
                       f"{type(e).__name__}: {e}"), None
    wall = time.perf_counter() - t0
    return Outcome(wall, res.done, res.ok, job.attempted, res.losses, T.mac_count(),
                   T.mac_count("attn")), res


def check_call(job: Job, out: Outcome, res) -> list:
    """Output checks for one call; returns the problems found."""
    problems = []
    if out.error is not None:
        return [f"{job.name}: call raised {out.error}"]
    if not all(math.isfinite(x) for x in out.losses):
        problems.append(f"{job.name}: non-finite loss in {out.losses}")
    if res.evaluated != job.eval_clips:
        problems.append(f"{job.name}: evaluate covered {res.evaluated} of {job.eval_clips} clips")
    if job.attn_macs and out.attn_macs != job.attn_macs:
        problems.append(f"{job.name}: attention MACs {out.attn_macs} != closed form "
                        f"{job.attn_macs}")
    for x in res.tensors:
        want = (job.g.frames, 3, job.g.crop, job.g.crop)
        if x.dtype != np.float32 or x.shape != want:
            problems.append(f"{job.name}: prepared clip {x.dtype} {x.shape}, want float32 {want}")
        elif x.min() < 0.0 or x.max() > 1.0:
            problems.append(f"{job.name}: prepared clip outside [0, 1]")
    return problems
