"""Classifier training and evaluation: fused cross-entropy, Adam, layer
freezing, top-K metrics, the fine-tuning loop, and the ablation sweep."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import tensor as T
from .attention import BlockWeights, encoder_forward
from .checkpoint import save_checkpoint
from .embedding import Embedding, EmbeddingConfig, cube_pixels
from .errors import VslrError, at_least, first_non_finite
from .nn import LayerNormParams, LinearParams, param_buffer
from .tensor import Tensor
from .video import (SPLITS, Manifest, PipelineConfig, derive_rng, derive_seed,
                    load_instance_video, merge_train_val, prepare_clip, to_model_tensor)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy, fused for stability.

    Backward pushes (softmax - onehot) / batch into the logits, which is
    exact regardless of how extreme the logits are.
    """
    y = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy wants [batch, classes] logits, got {logits.data.shape}")
    b, c = logits.data.shape
    if y.shape != (b,) or not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be {b} integers, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label out of range for {c} classes")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    sez = ez.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(sez[:, 0])
    nll = lse - z[np.arange(b), y]
    data = np.asarray(nll.mean(), dtype=z.dtype)
    soft = ez / sez

    def vjp(g):
        gz = soft.copy()
        gz[np.arange(b), y] -= 1.0
        return (gz * (g / b),)

    return T._make_node(data, (logits,), vjp)


class Adam:
    """Adam with bias correction; constant learning rate, no weight decay.

    ``params`` maps each trainable parameter's name to its tensor, and is
    the one record of what trains: any subset, in any order.  They are
    packed into ``self.flat`` here (see ``nn.param_buffer``), each one's
    ``data`` becoming a view into it, and a step updates that array in
    place.  So a parameter trains under the optimizer built last over it,
    and after that its ``data`` must never be rebound, only written
    through."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.flat = param_buffer(self.params.values())
        self.offsets = np.cumsum([0] + [p.data.size for p in self.params.values()])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.grad = np.zeros_like(self.flat)
        self.work = np.empty_like(self.flat)

    def gather(self) -> None:
        """Copy every parameter's gradient into ``self.grad``; each one
        must have a gradient."""
        missing = [n for n, p in self.params.items() if p.grad is None]
        if missing:
            raise ValueError(f"Adam: no gradient for {missing}")
        np.concatenate([p.grad.ravel() for p in self.params.values()], out=self.grad)

    def step(self) -> None:
        """One update over the whole flat array from the gradients ``gather``
        copied, which it spends as scratch.  Each array op is the textbook
        formula's, term for term, written in place:
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g);
        w = w - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        w, g, m, v, a = self.flat, self.grad, self.m, self.v, self.work
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, g, out=a)
        a *= 1 - b2
        v += a
        mhat = np.divide(m, 1 - b1 ** self.t, out=a)
        denom = np.divide(v, 1 - b2 ** self.t, out=g)          # the gradient is spent
        np.sqrt(denom, out=denom)
        denom += self.eps
        mhat *= self.lr
        mhat /= denom
        w -= mhat

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def train_step(loss_fn, opt: Adam, step: int, run: str) -> float:
    """One Adam step on the loss ``loss_fn()`` builds; returns that loss.

    Stops the run with error[divergence] at a non-finite loss, or at the
    first parameter of ``opt.params`` whose gradient before the step or
    weight after it is non-finite.  Each of the last two is one float64
    sum over the optimizer's flat array; only when it is not finite are
    the parameters searched by name.  Those checks catch every
    non-finite value numpy can make here, so its warnings are silenced."""
    def check(what: str, arrays: dict) -> None:
        bad = first_non_finite(arrays)
        if bad is not None:
            raise VslrError("divergence", f"{run} diverged: non-finite {what}{bad} at step {step}")

    with np.errstate(all="ignore"):
        loss = loss_fn()
        check("", {"loss": loss.data})
        T.backward(loss)
        opt.gather()
        if not np.isfinite(opt.grad.sum(dtype=np.float64)):
            check("gradient of ", {n: p.grad for n, p in opt.params.items()})
        opt.step()
        if not np.isfinite(opt.flat.sum(dtype=np.float64)):
            check("weight of ", {n: p.data for n, p in opt.params.items()})
        opt.zero_grad()
    return float(loss.data)


def load_batch(video_dir, insts: list, rngs: list, pipe: PipelineConfig,
               train: bool, dtype) -> np.ndarray:
    """Each instance's clip, prepared with its own rng, written into one
    fresh [B, frames, 3, crop, crop] array."""
    out = np.empty((len(insts), pipe.frames, 3, pipe.crop, pipe.crop), dtype=dtype)
    for i, (inst, rng) in enumerate(zip(insts, rngs)):
        video = load_instance_video(video_dir, inst)
        clip = prepare_clip(video, pipe, train=train, rng=rng, label=inst.label)
        out[i] = to_model_tensor(clip, dtype)
    return out


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by the CLI and the tests."""

    variant: str = "divided"
    dim: int = 32
    depth: int = 2
    heads: int = 4
    image_size: int = 32
    patch: int = 8
    frames: int = 8
    tube_depth: int = 2      # joint variant only; divided always uses 1

    def __post_init__(self):
        self.embedding_config()         # variant, dim and patch/cube geometry
        at_least(1, depth=self.depth, heads=self.heads)
        if self.dim % self.heads != 0:
            raise VslrError("config", f"model dim {self.dim} not divisible by {self.heads} heads")

    def embedding_config(self) -> EmbeddingConfig:
        td = 1 if self.variant == "divided" else self.tube_depth
        return EmbeddingConfig(self.variant, self.dim, self.image_size,
                               self.patch, self.frames, td)


class ClassifierModel:
    """Embedding, encoder stack, final norm, linear head.

    divided pools the CLS token; joint mean-pools all tokens.
    """

    def __init__(self, cfg: ModelConfig, num_classes: int,
                 rng: np.random.Generator, dtype=np.float32):
        if num_classes < 2:
            raise VslrError("config", f"need at least 2 classes, got {num_classes}")
        self.cfg = cfg
        self.num_classes = num_classes
        self.embed = Embedding(cfg.embedding_config(), rng, dtype)
        self.blocks = [BlockWeights(rng, cfg.variant, cfg.dim, dtype)
                       for _ in range(cfg.depth)]
        self.norm = LayerNormParams(cfg.dim, dtype)
        self.head = LinearParams(rng, cfg.dim, num_classes, dtype)
        # packed at build though Adam repacks what it trains: one block keeps
        # the parameters from lying scattered among the float64 init
        # temporaries, which raised the eval peak RSS
        param_buffer(self.params())

    def forward(self, x: Tensor, trace: list | None = None) -> Tensor:
        """Logits [batch, classes]; a ``trace`` list gets each attention
        pass's weights (see ``encoder_forward``)."""
        tokens = self.embed.embed(cube_pixels(x.data, self.embed.cfg))
        out = encoder_forward(tokens, self.blocks, self.cfg.heads, self.norm, trace)
        if self.cfg.variant == "divided":
            feat = T.reshape(T.take(out.tokens, np.zeros(1, np.intp), axis=1),
                             (x.data.shape[0], self.cfg.dim))
        else:
            feat = T.mean(out.tokens, axis=1)
        return T.linear(feat, self.head.w, self.head.b)

    def named(self) -> dict:
        out = self.embed.named("embed")
        for i, blk in enumerate(self.blocks):
            out.update(blk.named(f"enc.{i}"))
        out.update(self.norm.named("enc.norm"))
        out.update(self.head.named("head"))
        return out

    def params(self) -> list:
        return list(self.named().values())


def freeze_layers(model: ClassifierModel, count) -> dict:
    """Mark only the top `count` encoder blocks, final norm, and head as
    trainable; count == depth (or "all") unfreezes everything including
    the embedding.  Returns the trainable parameters by name, in
    ``model.named()`` order."""
    depth = model.cfg.depth
    if count == "all":
        count = depth
    if not isinstance(count, int) or isinstance(count, bool) or not (1 <= count <= depth):
        raise VslrError("config",
                        f"fine-tuned layer count must be in [1, {depth}] or 'all', got {count!r}")
    items = list(model.named().items())
    start = 0 if count == depth else \
        next(i for i, (n, _) in enumerate(items) if n.startswith(f"enc.{depth - count}."))
    for i, (_, p) in enumerate(items):
        p.requires_grad = i >= start
    return dict(items[start:])


def topk_accuracy(logits, labels, ks=(1, 5, 10)) -> dict:
    """Fraction of rows whose label ranks in the top K by score, ties
    broken toward the lower class index."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    y = np.asarray(labels)
    zy = np.take_along_axis(z, y[:, None], axis=1)
    # rank = classes scoring higher, plus tied classes of lower index
    ranks = (z > zy).sum(1) + ((z == zy) & (np.arange(z.shape[1]) < y[:, None])).sum(1)
    return {k: float((ranks < k).mean()) for k in ks}


@dataclass
class EvalReport:
    topk: dict
    per_class: list
    confusion: list
    num_instances: int
    wall_seconds: float
    seed: int
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)      # json writes topk's int keys as strings


@contextlib.contextmanager
def no_grad(params):
    """Forward only: clear ``requires_grad`` on ``params`` inside the block
    and restore it on those that had it.  While no parameter asks for a
    gradient, no op keeps its inputs for a backward pass, so a forward
    never holds its whole graph."""
    live = [p for p in params if p.requires_grad]
    for p in live:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in live:
            p.requires_grad = True


def _batched_logits(model: ClassifierModel, insts: list, video_dir,
                    pipe: PipelineConfig, seed: int) -> np.ndarray:
    rows, chunk = [], 8          # instances per forward
    with no_grad(model.params()):
        for lo in range(0, len(insts), chunk):
            part = insts[lo:lo + chunk]
            rngs = [derive_rng(seed, "eval", inst.video_id) for inst in part]
            x = load_batch(video_dir, part, rngs, pipe, False, model.head.w.data.dtype)
            rows.append(model.forward(Tensor(x)).data)
    return np.concatenate(rows, axis=0)


def evaluate(model: ClassifierModel, manifest: Manifest, video_dir,
             pipe: PipelineConfig, seed: int = 0, ks=(1, 5, 10),
             split: str = "test") -> EvalReport:
    """Deterministic eval pass: even/center preprocessing, top-K metrics,
    per-class accuracy, argmax confusion counts.  Non-finite logits stop
    it with error[divergence] rather than rank as a prediction."""
    if model.num_classes != manifest.num_classes:
        raise VslrError("head/class mismatch",
                        f"head/class mismatch: model head has {model.num_classes} outputs, "
                        f"manifest has {manifest.num_classes} classes")
    if split not in SPLITS:
        raise VslrError("config", f"split must be one of {SPLITS}, got {split!r}")
    insts = manifest.by_split(split)
    if not insts:
        raise VslrError("manifest", f"no instances in split {split!r}")
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):       # the logits are checked instead
        logits = _batched_logits(model, insts, video_dir, pipe, seed)
    if first_non_finite({"logits": logits}) is not None:
        raise VslrError("divergence", f"evaluation diverged: non-finite logits on split {split!r}")
    labels = np.array([i.label for i in insts])
    topk = topk_accuracy(logits, labels, ks)
    c = manifest.num_classes
    pred = logits.argmax(axis=1)
    confusion = np.bincount(labels * c + pred, minlength=c * c).reshape(c, c)
    support = confusion.sum(1)
    per_class = np.divide(confusion.diagonal(), support, out=np.zeros(c),
                          where=support > 0).tolist()
    wall = time.perf_counter() - t0
    cfg = {"split": split, "frames": pipe.frames, "sampling": pipe.sampling,
           "crop": pipe.crop, "ks": list(ks)}
    return EvalReport(topk, per_class, confusion.tolist(), len(insts), wall, seed, cfg)


@dataclass
class TrainConfig:
    """One fine-tuning run; `layers` counts fine-tuned blocks from the top
    ('all' additionally unfreezes the embedding)."""

    batch: int = 4
    epochs: int = 2
    lr: float = 1e-3
    frames: int = 16
    sampling: str = "consecutive"
    layers: object = "all"
    seed: int = 0
    variant: str = "divided"

    def __post_init__(self):
        at_least(1, batch=self.batch)
        at_least(0, epochs=self.epochs)
        if not 0 < self.lr < np.inf:
            raise VslrError("config", f"learning rate must be positive and finite, got {self.lr!r}")
        if self.sampling not in ("consecutive", "even"):
            raise VslrError("config", f"sampling must be consecutive or even, got {self.sampling!r}")
        if self.variant not in ("divided", "joint"):
            raise VslrError("config", f"variant must be divided or joint, got {self.variant!r}")
        if self.layers != "all" and (not isinstance(self.layers, int) or self.layers < 1):
            raise VslrError("config", f"layers must be a positive count or 'all', got {self.layers!r}")


def finetune(model: ClassifierModel, manifest: Manifest, video_dir,
             cfg: TrainConfig, crop: int, out_dir=None):
    """Epoch loop with per-epoch test evaluation.

    Returns (reports, log); the model is left holding the weights of its
    best epoch by test top-1.  The manifest must already have val merged
    into train.
    """
    if manifest.by_split("val"):
        raise ValueError("finetune expects val merged into train; call merge_train_val first")
    insts = manifest.by_split("train")
    if not insts:
        raise VslrError("manifest", "no train instances in manifest")
    if not manifest.by_split("test"):
        raise VslrError("manifest", "no instances in split 'test'")
    pipe = PipelineConfig(cfg.frames, cfg.sampling, crop)
    dtype = model.head.w.data.dtype
    reports: list[EvalReport] = []
    log: list[tuple] = []
    opt = Adam(freeze_layers(model, cfg.layers), cfg.lr)
    best_top1, best_params = -1.0, None
    step = 0
    for epoch in range(cfg.epochs):
        perm = derive_rng(cfg.seed, "shuffle", epoch).permutation(len(insts))
        for lo in range(0, len(perm), cfg.batch):
            t0 = time.perf_counter()
            batch = [insts[int(j)] for j in perm[lo:lo + cfg.batch]]
            rngs = [derive_rng(cfg.seed, inst.video_id, epoch) for inst in batch]
            x = load_batch(video_dir, batch, rngs, pipe, True, dtype)
            y = np.array([inst.label for inst in batch])
            loss = train_step(lambda: cross_entropy(model.forward(Tensor(x)), y),
                              opt, step, "training")
            log.append((step, loss, cfg.lr, (time.perf_counter() - t0) * 1000.0))
            step += 1
        report = evaluate(model, manifest, video_dir, pipe, cfg.seed)
        reports.append(report)
        if report.topk.get(1, 0.0) > best_top1:
            best_top1 = report.topk.get(1, 0.0)
            best_params = opt.flat.copy()
    if not reports:                     # zero epochs: the run scores its initial weights
        reports.append(evaluate(model, manifest, video_dir, pipe, cfg.seed))
    if best_params is not None:
        opt.flat[...] = best_params
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "model.ckpt"), model.named())
        with open(os.path.join(out_dir, "train_log.csv"), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["step", "loss", "lr", "wall_ms"])
            wr.writerows(log)
    return reports, log


ABLATION_COLUMNS = ["Batch", "Epochs", "Frames", "Init. LR", "Model",
                    "Fine-Tuned Layers", "Sampling", "Top-1 Acc. (%)"]


def run_ablation(grid: list, manifest: Manifest, video_dir,
                 model_cfg: ModelConfig, out_csv=None) -> list:
    """Run each TrainConfig row with its own derived seed, at the model's
    crop and the manifest's class count; a row that raises VslrError
    becomes an error[<class>] entry instead of aborting the sweep, and any
    other exception propagates."""
    merged = merge_train_val(manifest)
    rows = []
    for idx, tc in enumerate(grid):
        run_seed = derive_seed(tc.seed, "ablate", idx) % (2 ** 31)
        cell: object
        try:
            mdl_cfg = replace(model_cfg, variant=tc.variant, frames=tc.frames)
            model = ClassifierModel(mdl_cfg, manifest.num_classes, np.random.default_rng(run_seed))
            run_cfg = replace(tc, seed=run_seed)
            reports, _ = finetune(model, merged, video_dir, run_cfg, model_cfg.image_size)
            best = max(r.topk.get(1, 0.0) for r in reports)
            cell = f"{100.0 * best:.2f}"
        except VslrError as e:          # record and continue the sweep
            cell = f"error[{e.cls}]"
        sampling_label = {"consecutive": "Consec.", "even": "Even"}[tc.sampling]
        layers_label = "All" if tc.layers == "all" else tc.layers
        rows.append([tc.batch, tc.epochs, tc.frames, f"{tc.lr:g}", tc.variant,
                     layers_label, sampling_label, cell])
    if out_csv is not None:
        with open(out_csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(ABLATION_COLUMNS)
            wr.writerows(rows)
    return rows
