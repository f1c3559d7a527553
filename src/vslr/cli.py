"""Command line interface.

Subcommands: gen-data, validate-manifest, pretrain, finetune, evaluate,
ablate, attn-map.  Every run takes an optional key = value config file;
explicit flags override file values.  Each run writes a resolved
config.json echo into its output directory, and training run directories
are self-contained (config + checkpoint), so evaluate and attn-map need
only the run directory.  Failures print one line, error[<class>]: message,
and exit 2; the README's CLI section lists the classes (errors.ERROR_CLASSES)
with one example each.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import checkpoint as C
from . import mae as M
from . import train as TR
from . import video as V
from .attention import attention_rollout, export_heatmap
from .errors import VslrError
from .tensor import Tensor

_DTYPES = {"32": np.float32, "64": np.float64}


class Resolver:
    """Flag > config file > default, tracking which file keys were used."""

    def __init__(self, args):
        self.args = args
        self.file: dict[str, str] = {}
        path = getattr(args, "config", None)
        if path:
            self.file = V.parse_kv_config(path)
        self.used: set[str] = set()
        self.resolved: dict = {}

    def get(self, key: str, default=None, cast=None):
        self.used.add(key)
        v = getattr(self.args, key.replace("-", "_"), None)
        if v is None and key in self.file:
            raw = self.file[key]
            try:
                v = cast(raw) if cast is not None else raw
            except ValueError:
                raise VslrError("config", f"invalid value {raw!r} for key {key}")
        if v is None:
            v = default
        self.resolved[key] = v
        return v

    def require(self, key: str, cast=None):
        v = self.get(key, None, cast)
        if v is None:
            raise VslrError("config", f"--{key} is required")
        return v

    def done(self) -> dict:
        unknown = sorted(set(self.file) - self.used)
        if unknown:
            raise VslrError("config", f"unknown config keys: {', '.join(unknown)}")
        return dict(self.resolved)


def _read_json(path, what: str):
    """Parse a JSON file the CLI reads; text that does not parse is a config fault."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise VslrError("config", f"{what} {path} is not valid JSON: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise VslrError("config", f"{what} {path} is not UTF-8 at byte {e.start}") from None
        except RecursionError:
            raise VslrError("config", f"{what} {path} is JSON nested too deeply") from None


def _write_echo(out_dir, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _parse_layers(v):
    if isinstance(v, int):
        return v
    if v == "all":
        return "all"
    try:
        return int(v)
    except (TypeError, ValueError):
        raise VslrError("config", f"layers must be a positive integer or 'all', got {v!r}")


def _dtype(r: Resolver):
    precision = r.get("precision", "32")
    if precision not in _DTYPES:
        raise VslrError("config", f"precision must be 32 or 64, got {precision!r}")
    return _DTYPES[precision]


def _model_cfg(r: Resolver) -> TR.ModelConfig:
    return TR.ModelConfig(
        variant=r.get("variant", "divided"),
        dim=r.get("dim", 32, int),
        depth=r.get("depth", 2, int),
        heads=r.get("heads", 4, int),
        image_size=r.get("crop", 32, int),
        patch=r.get("patch", 8, int),
        frames=r.get("frames", 8, int),
        tube_depth=r.get("tube-depth", 2, int),
    )


def _load_dataset(r: Resolver):
    data = r.require("data")
    return V.load_manifest(os.path.join(data, "manifest.json")), os.path.join(data, "videos")


def _load_run(run_dir, dtype):
    """Rebuild a classifier from a training run directory."""
    cfg_path = os.path.join(run_dir, "config.json")
    stored = _read_json(cfg_path, "run config")
    try:
        mcfg = TR.ModelConfig(**stored["model"])
        num_classes = int(stored["num_classes"])
        pipe = V.PipelineConfig(**stored["pipeline"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise VslrError("config", f"malformed run config {cfg_path}: {e}")
    if (pipe.frames, pipe.crop) != (mcfg.frames, mcfg.image_size):
        raise VslrError("config", f"malformed run config {cfg_path}: pipeline frames and crop "
                                  f"{pipe.frames}, {pipe.crop} differ from the model's "
                                  f"{mcfg.frames}, {mcfg.image_size}")
    model = TR.ClassifierModel(mcfg, num_classes, np.random.default_rng(0), dtype)
    C.load_into(model.named(), C.load_checkpoint(os.path.join(run_dir, "model.ckpt")))
    return model, pipe, stored


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    r = Resolver(args)
    out = r.require("out")
    classes = r.get("classes", 4, int)
    per = r.get("per-class", 6, int)
    frames = r.get("frames", 12, int)
    size = r.get("size", 32, int)
    seed = r.get("seed", 0, int)
    resolved = r.done()
    manifest = V.make_synthetic_dataset(out, classes, per, frames, size, seed)
    _write_echo(out, {"command": "gen-data", "resolved": resolved})
    counts = manifest.counts()
    print(f"wrote {len(manifest.instances)} videos, {manifest.num_classes} classes "
          f"(train={counts['train']} val={counts['val']} test={counts['test']}) to {out}")
    return 0


def cmd_validate_manifest(args) -> int:
    r = Resolver(args)
    path = r.require("manifest")
    strict = bool(getattr(args, "wlasl100", False))
    r.done()
    manifest = V.load_manifest(path)
    if strict:
        V.check_wlasl100_bounds(manifest)
    counts = manifest.counts()
    print(f"manifest OK: {manifest.num_classes} glosses, {len(manifest.instances)} instances "
          f"(train={counts['train']} val={counts['val']} test={counts['test']})")
    return 0


def cmd_pretrain(args) -> int:
    r = Resolver(args)
    out = r.require("out")
    seed = r.get("seed", 0, int)
    dtype = _dtype(r)
    mcfg = M.MaeConfig(
        dim=r.get("dim", 32, int),
        depth=r.get("depth", 3, int),
        heads=r.get("heads", 4, int),
        decoder_dim=r.get("decoder-dim", 16, int),
        decoder_depth=r.get("decoder-depth", 2, int),
        decoder_heads=r.get("decoder-heads", 2, int),
        image_size=r.get("crop", 32, int),
        patch=r.get("patch", 8, int),
        frames=r.get("frames", 8, int),
        tube_depth=r.get("tube-depth", 2, int),
    )
    pcfg = M.PretrainConfig(
        ratio=r.get("ratio", 0.9, float),
        steps=r.get("steps", 200, int),
        batch=r.get("batch", 2, int),
        lr=r.get("lr", 1e-3, float),
        seed=seed,
        checkpoint_interval=r.get("checkpoint-interval", 0, int),
    )
    pipe = V.PipelineConfig(mcfg.frames, r.get("sampling", "even"), mcfg.image_size)
    manifest, video_dir = _load_dataset(r)
    resolved = r.done()
    model = M.MaeModel(mcfg, V.derive_rng(seed, "init"), dtype)
    curve = M.pretrain(model, manifest, video_dir, pcfg, pipe, out_dir=out)
    _write_echo(out, {"command": "pretrain", "seed": seed, "model": asdict(mcfg),
                      "pipeline": {"frames": pipe.frames, "sampling": pipe.sampling,
                                   "crop": pipe.crop},
                      "resolved": resolved})
    first = float(np.mean([l for _, l in curve[:10]]))
    last = float(np.mean([l for _, l in curve[-10:]]))
    print(f"pretrained {pcfg.steps} steps: mean loss {first:.4f} (first 10) -> {last:.4f} (last 10)")
    return 0


def cmd_finetune(args) -> int:
    r = Resolver(args)
    out = r.require("out")
    seed = r.get("seed", 0, int)
    dtype = _dtype(r)
    mcfg = _model_cfg(r)
    tc = TR.TrainConfig(
        batch=r.get("batch", 4, int),
        epochs=r.get("epochs", 2, int),
        lr=r.get("lr", 1e-3, float),
        frames=mcfg.frames,
        sampling=r.get("sampling", "consecutive"),
        layers=_parse_layers(r.get("layers", "all")),
        seed=seed,
        variant=mcfg.variant,
    )
    init_from = r.get("init-from", None)
    manifest, video_dir = _load_dataset(r)
    resolved = r.done()
    merged = V.merge_train_val(manifest)
    model = TR.ClassifierModel(mcfg, manifest.num_classes, V.derive_rng(seed, "init"), dtype)
    if init_from:
        M.load_encoder(model.named(), C.load_checkpoint(init_from))
    reports, _ = TR.finetune(model, merged, video_dir, tc, crop=mcfg.image_size, out_dir=out)
    _write_echo(out, {"command": "finetune", "seed": seed, "model": asdict(mcfg),
                      "num_classes": manifest.num_classes,
                      "pipeline": {"frames": tc.frames, "sampling": tc.sampling,
                                   "crop": mcfg.image_size},
                      "resolved": resolved})
    with open(os.path.join(out, "reports.json"), "w", encoding="utf-8") as fh:
        fh.write("[" + ",\n".join(rep.to_json() for rep in reports) + "]\n")
    best = max(rep.topk.get(1, 0.0) for rep in reports)
    print(f"finetuned {tc.epochs} epochs: best test top-1 {100.0 * best:.2f}%")
    return 0


def cmd_evaluate(args) -> int:
    r = Resolver(args)
    run_dir = r.require("run")
    dtype = _dtype(r)
    seed = r.get("seed", 0, int)
    split = r.get("split", "test")
    manifest, video_dir = _load_dataset(r)
    model, pipe, _ = _load_run(run_dir, dtype)
    sampling = r.get("sampling", pipe.sampling)
    out = r.get("out", None)
    resolved = r.done()
    pipe = V.PipelineConfig(pipe.frames, sampling, pipe.crop)
    report = TR.evaluate(model, manifest, video_dir, pipe, seed, split=split)
    print(report.to_json())
    if out:
        _write_echo(out, {"command": "evaluate", "seed": seed, "run": run_dir,
                          "resolved": resolved})
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_ablate(args) -> int:
    r = Resolver(args)
    out = r.require("out")
    grid_path = r.require("grid")
    seed = r.get("seed", 0, int)
    mcfg = _model_cfg(r)
    manifest, video_dir = _load_dataset(r)
    resolved = r.done()
    raw = _read_json(grid_path, "grid file")
    if not isinstance(raw, list) or not raw:
        raise VslrError("config", "grid file must hold a non-empty JSON list of rows")
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            raise VslrError("config", f"grid row {i} must be an object")
        try:
            grid.append(TR.TrainConfig(
                batch=int(row.get("batch", 4)),
                epochs=int(row.get("epochs", 2)),
                lr=float(row.get("lr", 1e-3)),
                frames=int(row.get("frames", mcfg.frames)),
                sampling=row.get("sampling", "consecutive"),
                layers=_parse_layers(row.get("layers", "all")),
                seed=int(row.get("seed", seed)),
                variant=row.get("model", mcfg.variant),
            ))
        except (TypeError, ValueError, OverflowError) as e:
            raise VslrError("config", f"grid row {i}: {e}")
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "ablation.csv")
    rows = TR.run_ablation(grid, manifest, video_dir, mcfg, mcfg.image_size, csv_path)
    _write_echo(out, {"command": "ablate", "seed": seed, "model": asdict(mcfg),
                      "rows": len(rows), "resolved": resolved})
    print(f"wrote {len(rows)} ablation rows to {csv_path}")
    return 0


def cmd_attn_map(args) -> int:
    r = Resolver(args)
    run_dir = r.require("run")
    out = r.require("out")
    video_id = r.require("video")
    dtype = _dtype(r)
    seed = r.get("seed", 0, int)
    start = r.get("start-frame", None, int)
    manifest, video_dir = _load_dataset(r)
    model, pipe, _ = _load_run(run_dir, dtype)
    sampling = r.get("sampling", pipe.sampling)
    resolved = r.done()
    if start is not None and sampling == "even":
        raise VslrError("conflict", "--start-frame conflicts with --sampling even")
    pipe = V.PipelineConfig(pipe.frames, sampling, pipe.crop)

    inst = next((i for i in manifest.instances if i.video_id == video_id), None)
    if inst is None:
        raise VslrError("config", f"video {video_id!r} not in manifest")
    if start is not None:
        if start < 1 or start - 1 + pipe.frames > inst.frame_count:
            raise VslrError("config", f"--start-frame {start} with {pipe.frames} frames "
                                      f"exceeds {inst.frame_count} available")
        first = inst.frame_start + start - 1
        inst = replace(inst, frame_start=first, frame_end=first + pipe.frames - 1)
    x = Tensor(TR.load_batch(video_dir, [inst], [V.derive_rng(seed, "attn", video_id)],
                             pipe, False, dtype))
    logits, trace = model.forward(x, want_trace=True)
    heat = attention_rollout(trace)
    paths = export_heatmap(heat, out)
    _write_echo(out, {"command": "attn-map", "seed": seed, "run": run_dir,
                      "video": video_id, "resolved": resolved})
    with open(os.path.join(out, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"video": video_id, "label": inst.label,
                   "predicted": int(np.argmax(logits.data[0])),
                   "grid": list(heat.shape),
                   "frames": [os.path.basename(p) for p in paths]}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(paths)} heatmap frames to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override file values")
    p.add_argument("--seed", type=int, help="global seed (default 0)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--precision", choices=("32", "64"), help="float width (default 32)")
    p.add_argument("--threads", type=int,
                   help="BLAS thread cap applied before numpy loads (default 1)")


def _model_flags(p: argparse.ArgumentParser, with_variant: bool = True) -> None:
    if with_variant:
        p.add_argument("--variant", choices=("divided", "joint"),
                       help="attention layout (default divided)")
    p.add_argument("--dim", type=int, help="model width (default 32)")
    p.add_argument("--depth", type=int, help="encoder blocks (default 2)")
    p.add_argument("--heads", type=int, help="attention heads (default 4)")
    p.add_argument("--patch", type=int, help="patch/cube edge (default 8)")
    p.add_argument("--tube-depth", type=int, help="cube temporal depth, joint only (default 2)")
    p.add_argument("--frames", type=int, help="frames per clip (default 8)")
    p.add_argument("--crop", type=int,
                   help="square crop size; 224 enables the resize rule (default 32)")
    p.add_argument("--sampling", choices=("consecutive", "even"), help="frame sampling strategy")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="vslr",
        description="Video transformers for word-level sign language recognition")
    sub = root.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-data", help="write a synthetic raw-video dataset")
    _common(p)
    p.add_argument("--classes", type=int, help="number of classes (default 4)")
    p.add_argument("--per-class", type=int, help="videos per class (default 6)")
    p.add_argument("--frames", type=int, help="nominal frames per video (default 12)")
    p.add_argument("--size", type=int, help="square frame size (default 32)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("validate-manifest", help="check a dataset manifest")
    _common(p)
    p.add_argument("--manifest", help="manifest JSON path")
    p.add_argument("--wlasl100", action="store_true",
                   help="also enforce the 100-gloss corpus bounds")
    p.set_defaults(func=cmd_validate_manifest)

    p = sub.add_parser("pretrain", help="tube-masked autoencoder pretraining")
    _common(p)
    p.add_argument("--data", help="dataset directory (manifest.json + videos/)")
    _model_flags(p, with_variant=False)
    p.add_argument("--ratio", type=float, help="tube masking ratio (default 0.9)")
    p.add_argument("--decoder-dim", type=int, help="decoder width (default 16)")
    p.add_argument("--decoder-depth", type=int, help="decoder blocks (default 2)")
    p.add_argument("--decoder-heads", type=int, help="decoder heads (default 2)")
    p.add_argument("--steps", type=int, help="optimizer steps (default 200)")
    p.add_argument("--batch", type=int, help="clips per step (default 2)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--checkpoint-interval", type=int,
                   help="checkpoint every N steps (default: final only)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a classifier")
    _common(p)
    p.add_argument("--data", help="dataset directory (manifest.json + videos/)")
    _model_flags(p)
    p.add_argument("--batch", type=int, help="clips per step (default 4)")
    p.add_argument("--epochs", type=int, help="training epochs (default 2)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--layers", help="fine-tuned blocks from the top, or 'all' (default all)")
    p.add_argument("--init-from", help="initialize encoder from a pretraining checkpoint")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a finished training run")
    _common(p)
    p.add_argument("--data", help="dataset directory (manifest.json + videos/)")
    p.add_argument("--run", help="training run directory (config.json + model.ckpt)")
    p.add_argument("--split", choices=("train", "val", "test"), help="split to score (default test)")
    p.add_argument("--sampling", choices=("consecutive", "even"),
                   help="override the stored sampling strategy")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run a grid of fine-tuning rows")
    _common(p)
    p.add_argument("--data", help="dataset directory (manifest.json + videos/)")
    p.add_argument("--grid", help="JSON list of row configs")
    _model_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attn-map", help="export attention rollout heatmaps")
    _common(p)
    p.add_argument("--data", help="dataset directory (manifest.json + videos/)")
    p.add_argument("--run", help="training run directory (config.json + model.ckpt)")
    p.add_argument("--video", help="video id from the manifest")
    p.add_argument("--start-frame", type=int,
                   help="1-based clip start (consecutive sampling only)")
    p.add_argument("--sampling", choices=("consecutive", "even"),
                   help="override the stored sampling strategy")
    p.set_defaults(func=cmd_attn_map)
    return root


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except VslrError as e:
        print(f"error[{e.cls}]: {e}", file=sys.stderr)
    except OSError as e:
        print(f"error[io]: {e}", file=sys.stderr)
    return 2
