"""Command line interface.

Subcommands: gen-data, validate-manifest, pretrain, finetune, evaluate,
ablate, attn-map.  Every run takes an optional key = value config file;
explicit flags override file values.  Each run writes a resolved
config.json echo into its output directory, and training run directories
are self-contained (config + checkpoint), so evaluate and attn-map need
only the run directory.  Each hyperparameter is defined once, as a field
of its config dataclass: Resolver.build reads every field as its flag or
file key, and the flags, their types and their (default …) help come from
the same fields.  Failures print one line, error[<class>]: message, and
exit 2; the README's CLI section lists the classes (errors.ERROR_CLASSES)
with one example each.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict, fields, replace
from functools import partial

import numpy as np

from . import checkpoint as C
from . import mae as M
from . import train as TR
from . import video as V
from .attention import attention_rollout, export_heatmap
from .errors import VslrError, first_non_finite
from .tensor import Tensor

_DTYPES = {"32": np.float32, "64": np.float64}


# a config field's key is its name with _ as -, but for these renames
_FLAG_NAMES = {"image_size": "crop"}
_ROW_NAMES = {"variant": "model"}       # a grid row names it as ABLATION_COLUMNS does


def _key(name: str, names=_FLAG_NAMES) -> str:
    return names.get(name, name).replace("_", "-")


def _cast(kind, v):
    """v as an int or a float.  A boolean, or a non-integral number for an
    int, is refused rather than truncated."""
    if isinstance(v, bool) or kind is int and isinstance(v, float) and not v.is_integer():
        raise ValueError(v)
    return kind(v)


def _parse_layers(v):
    if v == "all":
        return v
    try:
        return _cast(int, v)
    except (TypeError, ValueError):
        raise VslrError("config", f"layers must be a positive integer or 'all', got {v!r}")


class Resolver:
    """Flag > config file > default, tracking which file keys were used.

    A grid row is resolved as a config file with no flags: Resolver(None,
    row, _ROW_NAMES)."""

    def __init__(self, args, file=None, names=_FLAG_NAMES):
        self.args = args
        self.names = names
        if file is None:
            path = getattr(args, "config", None)
            file = V.parse_kv_config(path) if path else {}
        self.file = file
        self.used: set[str] = set()
        self.resolved: dict = {}

    def get(self, key: str, default=None, cast=None):
        self.used.add(key)
        v = getattr(self.args, key.replace("-", "_"), None)
        if v is None and key in self.file:
            raw = self.file[key]
            try:
                v = cast(raw) if cast is not None else raw
            except (TypeError, ValueError, OverflowError):
                raise VslrError("config", f"invalid value {raw!r} for key {key}")
        if v is None:
            v = default
        self.resolved[key] = v
        return v

    def build(self, cls, **defaults):
        """A cls with every field read under its key, defaulting to
        ``defaults`` or else to the field's own default, and cast to that
        default's type; ``layers`` is also 'all'."""
        values = {}
        for f in fields(cls):
            kind = type(f.default)
            values[f.name] = self.get(_key(f.name, self.names), defaults.get(f.name, f.default),
                                      None if kind is str else partial(_cast, kind))
        if "layers" in values:
            values["layers"] = _parse_layers(values["layers"])
        return cls(**values)

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


def _dtype(r: Resolver):
    precision = r.get("precision", "32")
    if precision not in _DTYPES:
        raise VslrError("config", f"precision must be 32 or 64, got {precision!r}")
    return _DTYPES[precision]


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
    values = {name: r.get(key, default, int) for name, (key, _, default) in _GEN_DATA.items()}
    resolved = r.done()
    manifest = V.make_synthetic_dataset(out, **values)
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
    mcfg = r.build(M.MaeConfig)
    pcfg = r.build(M.PretrainConfig, seed=seed)
    pipe = r.build(V.PipelineConfig, frames=mcfg.frames, crop=mcfg.image_size)
    manifest, video_dir = _load_dataset(r)
    resolved = r.done()
    model = M.MaeModel(mcfg, V.derive_rng(seed, "init"), dtype)
    curve = M.pretrain(model, manifest, video_dir, pcfg, pipe, out_dir=out)
    _write_echo(out, {"command": "pretrain", "seed": seed, "model": asdict(mcfg),
                      "pipeline": asdict(pipe), "resolved": resolved})
    first = float(np.mean([l for _, l in curve[:10]]))
    last = float(np.mean([l for _, l in curve[-10:]]))
    print(f"pretrained {pcfg.steps} steps: mean loss {first:.4f} (first 10) -> {last:.4f} (last 10)")
    return 0


def cmd_finetune(args) -> int:
    r = Resolver(args)
    out = r.require("out")
    seed = r.get("seed", 0, int)
    dtype = _dtype(r)
    mcfg = r.build(TR.ModelConfig)
    tc = r.build(TR.TrainConfig, frames=mcfg.frames, variant=mcfg.variant, seed=seed)
    init_from = r.get("init-from", None)
    manifest, video_dir = _load_dataset(r)
    resolved = r.done()
    merged = V.merge_train_val(manifest)
    model = TR.ClassifierModel(mcfg, manifest.num_classes, V.derive_rng(seed, "init"), dtype)
    if init_from:
        M.load_encoder(model.named(), C.load_checkpoint(init_from))
    reports, _ = TR.finetune(model, merged, video_dir, tc, crop=mcfg.image_size, out_dir=out)
    pipe = V.PipelineConfig(tc.frames, tc.sampling, mcfg.image_size)
    _write_echo(out, {"command": "finetune", "seed": seed, "model": asdict(mcfg),
                      "num_classes": manifest.num_classes, "pipeline": asdict(pipe),
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
    mcfg = r.build(TR.ModelConfig)
    manifest, video_dir = _load_dataset(r)
    resolved = r.done()
    raw = _read_json(grid_path, "grid file")
    if not isinstance(raw, list) or not raw:
        raise VslrError("config", "grid file must hold a non-empty JSON list of rows")
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, dict):
            raise VslrError("config", f"grid row {i} must be an object")
        rr = Resolver(None, row, _ROW_NAMES)
        try:
            grid.append(rr.build(TR.TrainConfig, frames=mcfg.frames, variant=mcfg.variant,
                                 seed=seed))
            rr.done()
        except VslrError as e:
            raise VslrError("config", f"grid row {i}: {e}")
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, "ablation.csv")
    rows = TR.run_ablation(grid, manifest, video_dir, mcfg, csv_path)
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
    # numpy's warnings are silenced: the logits and the map are checked instead
    with np.errstate(all="ignore"), TR.no_grad(model.params()):
        trace = []
        logits = model.forward(x, trace)
        heat = attention_rollout(trace, model.embed.cfg.grid, model.embed.cls is not None)
    bad = first_non_finite({"logits": logits.data, "heat map": heat})
    if bad is not None:
        raise VslrError("divergence", f"attention map diverged: non-finite {bad} for video "
                                      f"{video_id!r}")
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


# what each config field's flag sets; its type and (default …) come from the field
_HELP = {
    "variant": "attention layout", "dim": "model width", "depth": "encoder blocks",
    "heads": "attention heads", "image_size": "square crop size; 224 enables the resize rule",
    "patch": "patch/cube edge", "frames": "frames per clip",
    "tube_depth": "cube temporal depth (the divided variant uses 1)",
    "decoder_dim": "decoder width", "decoder_depth": "decoder blocks",
    "decoder_heads": "decoder heads", "ratio": "tube masking ratio", "steps": "optimizer steps",
    "batch": "clips per step", "lr": "learning rate", "epochs": "training epochs",
    "checkpoint_interval": "checkpoint every N steps, 0 for the final one only",
    "sampling": "frame sampling strategy", "layers": "fine-tuned blocks from the top, or 'all'",
}
_CHOICES = {"variant": ("divided", "joint"), "sampling": ("consecutive", "even")}

# gen-data's key and help for each parameter of make_synthetic_dataset, with
# the default that function's signature gives it; seed is the global --seed
_GEN_DATA = {name: (key, text, inspect.signature(V.make_synthetic_dataset).parameters[name].default)
             for name, key, text in (("num_classes", "classes", "number of classes"),
                                     ("per_class", "per-class", "videos per class"),
                                     ("nominal_frames", "frames", "nominal frames per video"),
                                     ("size", "size", "square frame size"),
                                     ("seed", "seed", "global seed"))}


# flags that several commands read, each added only where it is read
_SHARED = {
    "seed": {"type": int, "help": "global seed (default 0)"},
    "out": {"help": "output directory"},
    "precision": {"choices": tuple(_DTYPES), "help": "float width (default 32)"},
    "data": {"help": "dataset directory (manifest.json + videos/)"},
    "run": {"help": "training run directory (config.json + model.ckpt)"},
}


def _common(p: argparse.ArgumentParser, *shared: str) -> None:
    """--config, --threads, and the named _SHARED flags."""
    p.add_argument("--config", help="key = value config file; flags override file values")
    p.add_argument("--threads", type=int,
                   help="BLAS thread cap applied before numpy loads (default 1)")
    for key in shared:
        p.add_argument(f"--{key}", **_SHARED[key])


def _config_flags(p: argparse.ArgumentParser, *classes) -> None:
    """One flag per field of ``classes``, the first class's field taking a
    shared key, as the command passes it on to the later configs; seed is
    the global --seed."""
    seen = {"seed"}
    for cls in classes:
        for f in fields(cls):
            key = _key(f.name)
            if key not in seen:
                seen.add(key)
                kind = type(f.default)
                p.add_argument(f"--{key}", type=None if kind is str else kind,
                               choices=_CHOICES.get(f.name),
                               help=f"{_HELP[f.name]} (default {f.default})")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="vslr",
        description="Video transformers for word-level sign language recognition")
    sub = root.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-data", help="write a synthetic raw-video dataset")
    _common(p, "seed", "out")
    for key, text, default in _GEN_DATA.values():
        if key != "seed":
            p.add_argument(f"--{key}", type=int, help=f"{text} (default {default})")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("validate-manifest", help="check a dataset manifest")
    _common(p)
    p.add_argument("--manifest", help="manifest JSON path")
    p.add_argument("--wlasl100", action="store_true",
                   help="also enforce the 100-gloss corpus bounds")
    p.set_defaults(func=cmd_validate_manifest)

    p = sub.add_parser("pretrain", help="tube-masked autoencoder pretraining")
    _common(p, "seed", "out", "precision", "data")
    _config_flags(p, M.MaeConfig, M.PretrainConfig, V.PipelineConfig)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a classifier")
    _common(p, "seed", "out", "precision", "data")
    _config_flags(p, TR.ModelConfig, TR.TrainConfig)
    p.add_argument("--init-from", help="initialize encoder from a pretraining checkpoint")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a finished training run")
    _common(p, "seed", "out", "precision", "data", "run")
    p.add_argument("--split", choices=("train", "val", "test"), help="split to score (default test)")
    p.add_argument("--sampling", choices=_CHOICES["sampling"],
                   help="override the stored sampling strategy")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run a grid of fine-tuning rows")
    _common(p, "seed", "out", "data")
    p.add_argument("--grid", help="JSON list of row configs")
    _config_flags(p, TR.ModelConfig)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attn-map", help="export attention rollout heatmaps")
    _common(p, "seed", "out", "precision", "data", "run")
    p.add_argument("--video", help="video id from the manifest")
    p.add_argument("--start-frame", type=int,
                   help="1-based clip start (consecutive sampling only)")
    p.add_argument("--sampling", choices=_CHOICES["sampling"],
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
