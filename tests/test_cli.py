"""End-to-end command line flows in temporary directories: every
subcommand, the flag > config file > default precedence rules, run-dir
self-containment, and the one-line error[<class>] contract with exit 2."""

import argparse
import csv
import hashlib
import json
import os
import pathlib
import re
import shutil
import struct

import numpy as np
import pytest

from vslr.__main__ import _THREAD_VARS, main
from vslr.checkpoint import load_checkpoint, save_checkpoint
from vslr.cli import build_parser, dispatch
from vslr.errors import ERROR_CLASSES, VslrError
from vslr.train import ABLATION_COLUMNS

MODEL_FLAGS = ["--dim", "16", "--depth", "2", "--heads", "2", "--patch", "8",
               "--crop", "16", "--frames", "4"]


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """One synthetic dataset plus one finished fine-tuning run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert dispatch(["gen-data", "--out", str(data), "--classes", "2",
                     "--per-class", "6", "--frames", "6", "--size", "16",
                     "--seed", "3"]) == 0
    assert dispatch(["finetune", "--data", str(data), "--out", str(run),
                     "--epochs", "1", "--batch", "4", "--lr", "1e-3",
                     "--layers", "all", "--seed", "5", *MODEL_FLAGS]) == 0
    return data, run


# ---------------------------------------------------------------------------
# data generation and validation


def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    assert dispatch(["gen-data", "--out", str(out), "--classes", "2",
                     "--per-class", "6", "--frames", "6", "--size", "16"]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "videos").is_dir()
    echo = json.loads((out / "config.json").read_text())
    assert echo["command"] == "gen-data"
    assert echo["resolved"]["classes"] == 2
    assert "wrote 12 videos, 2 classes" in capsys.readouterr().out


def test_gen_data_requires_out(capsys):
    assert dispatch(["gen-data"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error[config]: --out is required"
    assert "\n" not in err


def test_validate_manifest(env, capsys):
    data, _ = env
    assert dispatch(["validate-manifest", "--manifest",
                     str(data / "manifest.json")]) == 0
    assert "manifest OK: 2 glosses, 12 instances" in capsys.readouterr().out


def test_validate_manifest_strict_bounds(env, capsys):
    data, _ = env
    # 2 glosses and 12 videos are far outside the 100-gloss benchmark bounds
    assert dispatch(["validate-manifest", "--manifest",
                     str(data / "manifest.json"), "--wlasl100"]) == 2
    assert capsys.readouterr().err.startswith("error[manifest]:")


def test_validate_manifest_missing_file(tmp_path, capsys):
    assert dispatch(["validate-manifest", "--manifest",
                     str(tmp_path / "nope.json")]) == 2
    assert capsys.readouterr().err.startswith("error[io]:")


# ---------------------------------------------------------------------------
# training runs


def test_finetune_run_is_self_contained(env):
    _, run = env
    for name in ("config.json", "model.ckpt", "train_log.csv", "reports.json"):
        assert (run / name).exists(), name
    stored = json.loads((run / "config.json").read_text())
    assert stored["model"]["dim"] == 16
    assert stored["num_classes"] == 2
    assert stored["pipeline"] == {"frames": 4, "sampling": "consecutive", "crop": 16}
    reports = json.loads((run / "reports.json").read_text())
    assert len(reports) == 1 and "1" in reports[0]["topk"]


def test_finetune_zero_epochs_leaves_a_readable_run(env, tmp_path, capsys):
    data, _ = env
    pre, ft = tmp_path / "pre", tmp_path / "ft"
    assert dispatch([*(a.format(data=data, tmp=tmp_path) for a in PRETRAIN), "--ratio", "0.5"]) == 0
    assert dispatch(["finetune", "--data", str(data), "--out", str(ft), "--epochs", "0",
                     "--variant", "joint", "--init-from", str(pre / "mae_final.ckpt"),
                     *MODEL_FLAGS]) == 0
    assert (ft / "train_log.csv").read_bytes() == b"step,loss,lr,wall_ms\r\n"
    assert len(json.loads((ft / "reports.json").read_text())) == 1
    capsys.readouterr()
    assert dispatch(["evaluate", "--data", str(data), "--run", str(ft)]) == 0
    assert json.loads(capsys.readouterr().out)["num_instances"] == 2
    assert dispatch(["attn-map", "--data", str(data), "--run", str(ft), "--video", "c00_v00",
                     "--out", str(tmp_path / "heat")]) == 0


def test_evaluate_from_run_dir(env, capsys):
    data, run = env
    assert dispatch(["evaluate", "--data", str(data), "--run", str(run)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["topk"]) == {"1", "5", "10"}
    assert report["num_instances"] == 2
    assert report["config"]["split"] == "test"


def test_evaluate_split_and_sampling_override(env, capsys):
    data, run = env
    assert dispatch(["evaluate", "--data", str(data), "--run", str(run),
                     "--split", "train", "--sampling", "even"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_instances"] == 8
    assert report["config"]["sampling"] == "even"


def test_evaluate_head_class_mismatch(env, tmp_path, capsys):
    _, run = env
    other = tmp_path / "threeclass"
    assert dispatch(["gen-data", "--out", str(other), "--classes", "3",
                     "--per-class", "6", "--frames", "6", "--size", "16"]) == 0
    capsys.readouterr()
    assert dispatch(["evaluate", "--data", str(other), "--run", str(run)]) == 2
    assert capsys.readouterr().err.startswith("error[head/class mismatch]:")


def test_evaluate_rejects_bare_directory(env, tmp_path, capsys):
    data, _ = env
    assert dispatch(["evaluate", "--data", str(data), "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[io]:") and "config.json" in err


# ---------------------------------------------------------------------------
# attention maps


def _scaled_queries_and_keys(factor):
    """This row's copy of the shared run with every query and key weight
    scaled by factor, saved as {tmp}/run: a moderate factor sharpens the
    attention maps, a large finite one overflows the attention logits."""
    def setup(tmp, data, run):
        shutil.copytree(run, tmp / "run")
        params = load_checkpoint(run / "model.ckpt")
        for name in params:
            if name.endswith((".q.w", ".k.w")):
                params[name] = params[name] * factor
        save_checkpoint(tmp / "run" / "model.ckpt", params)
    return setup


def _pgm_digest(out):
    h = hashlib.sha256()
    for path in sorted(out.glob("*.pgm")):
        h.update(path.read_bytes())
    return h.hexdigest()


def test_attn_map_exports_frames(env, tmp_path, capsys):
    data, run = env
    manifest = json.loads((data / "manifest.json").read_text())
    vid = manifest[0]["instances"][0]["video_id"]
    out = tmp_path / "heat"
    assert dispatch(["attn-map", "--data", str(data), "--run", str(run),
                     "--video", vid, "--out", str(out)]) == 0
    pgms = sorted(out.glob("*.pgm"))
    assert len(pgms) == 4
    index = json.loads((out / "index.json").read_text())
    assert index["video"] == vid
    assert index["grid"] == [4, 2, 2]
    assert index["frames"] == [p.name for p in pgms]
    assert pgms[0].read_bytes().startswith(b"P5\n2 2\n255\n")
    # the frames' bytes as the dense [M, M] rollout wrote them; this run's
    # maps are nearly flat (every pixel 255), the sharpened run's are not
    assert _pgm_digest(out) == "f2d79b2a3520d47960ab43db74d0cc8d5eea5410a043be165715ecc125c6c746"
    _scaled_queries_and_keys(30.0)(tmp_path, data, run)
    sharp = tmp_path / "sharp"
    assert dispatch(["attn-map", "--data", str(data), "--run", str(tmp_path / "run"),
                     "--video", vid, "--out", str(sharp)]) == 0
    assert _pgm_digest(sharp) == "26ad4ef12f19c5fc8de57089f797ea9d4053208f392a282856469ea2fc25a627"


def test_attn_map_builds_no_autodiff_graph(env, tmp_path, monkeypatch):
    # nothing backpropagates through the traced forward, so it keeps no graph;
    # the parameters ask for gradients again once the map is written
    from vslr import train as TR

    seen = []
    forward = TR.ClassifierModel.forward

    def recording(model, x, trace=None):
        logits = forward(model, x, trace)
        seen.append((logits, model))
        return logits

    monkeypatch.setattr(TR.ClassifierModel, "forward", recording)
    data, run = env
    vid = json.loads((data / "manifest.json").read_text())[0]["instances"][0]["video_id"]
    assert dispatch(["attn-map", "--data", str(data), "--run", str(run),
                     "--video", vid, "--out", str(tmp_path / "heat")]) == 0
    (logits, model), = seen
    assert logits._parents == () and logits._vjp is None
    assert all(p.requires_grad for p in model.params())


def test_attn_map_start_frame_conflicts_with_even(env, tmp_path, capsys):
    data, run = env
    manifest = json.loads((data / "manifest.json").read_text())
    vid = manifest[0]["instances"][0]["video_id"]
    assert dispatch(["attn-map", "--data", str(data), "--run", str(run),
                     "--video", vid, "--out", str(tmp_path / "h"),
                     "--start-frame", "1", "--sampling", "even"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error[conflict]: --start-frame conflicts with --sampling even"


def test_attn_map_start_frame_with_consecutive_sampling(env, tmp_path, capsys):
    data, run = env
    manifest = json.loads((data / "manifest.json").read_text())
    inst = next(i for e in manifest for i in e["instances"] if i["frame_end"] >= 5)
    out = tmp_path / "heat"
    assert dispatch(["attn-map", "--data", str(data), "--run", str(run),
                     "--video", inst["video_id"], "--out", str(out),
                     "--start-frame", "2", "--sampling", "consecutive"]) == 0
    index = json.loads((out / "index.json").read_text())
    assert index["video"] == inst["video_id"]
    assert index["grid"] == [4, 2, 2]
    assert len(list(out.glob("*.pgm"))) == 4


def test_attn_map_unknown_video(env, tmp_path, capsys):
    data, run = env
    assert dispatch(["attn-map", "--data", str(data), "--run", str(run),
                     "--video", "ghost", "--out", str(tmp_path / "h")]) == 2
    assert capsys.readouterr().err.startswith("error[config]:")


# ---------------------------------------------------------------------------
# ablation grids


def test_ablate_writes_csv(env, tmp_path, capsys):
    data, _ = env
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([
        {"epochs": 1, "lr": 1e-3, "sampling": "consecutive", "layers": "all"},
        {"epochs": 1, "lr": 1e-4, "sampling": "even", "layers": 1, "model": "joint",
         "seed": 2},
    ]))
    out = tmp_path / "abl"
    assert dispatch(["ablate", "--data", str(data), "--grid", str(grid),
                     "--out", str(out), *MODEL_FLAGS]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ABLATION_COLUMNS
    assert len(rows) == 3
    assert rows[1][6] == "Consec." and rows[2][6] == "Even"
    assert rows[1][4] == "divided" and rows[2][4] == "joint"
    assert "wrote 2 ablation rows" in capsys.readouterr().out


def test_ablate_rejects_bad_grid(env, tmp_path, capsys):
    data, _ = env
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a list\"}")
    assert dispatch(["ablate", "--data", str(data), "--grid", str(bad),
                     "--out", str(tmp_path / "o"), *MODEL_FLAGS]) == 2
    assert "error[config]" in capsys.readouterr().err
    assert dispatch(["ablate", "--data", str(data), "--grid",
                     str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o"), *MODEL_FLAGS]) == 2
    assert capsys.readouterr().err.startswith("error[io]:")


# ---------------------------------------------------------------------------
# pretraining and encoder transfer


def test_pretrain_then_finetune_init_from(env, tmp_path, capsys):
    data, _ = env
    pre = tmp_path / "pre"
    assert dispatch(["pretrain", "--data", str(data), "--out", str(pre),
                     "--steps", "3", "--batch", "2", "--ratio", "0.75",
                     "--dim", "16", "--depth", "2", "--heads", "2",
                     "--decoder-dim", "8", "--decoder-depth", "1",
                     "--decoder-heads", "2", "--patch", "8", "--crop", "16",
                     "--frames", "4"]) == 0
    ckpt = pre / "mae_final.ckpt"
    assert ckpt.exists() and (pre / "loss.csv").exists()
    assert "pretrained 3 steps" in capsys.readouterr().out

    ft = tmp_path / "ft"
    assert dispatch(["finetune", "--data", str(data), "--out", str(ft),
                     "--epochs", "1", "--variant", "joint",
                     "--init-from", str(ckpt), *MODEL_FLAGS]) == 0
    assert (ft / "model.ckpt").exists()

    # width mismatch between checkpoint and model is a checkpoint error
    capsys.readouterr()
    assert dispatch(["finetune", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--epochs", "1", "--variant", "joint",
                     "--init-from", str(ckpt), "--dim", "24", "--depth", "2",
                     "--heads", "2", "--patch", "8", "--crop", "16",
                     "--frames", "4"]) == 2
    assert capsys.readouterr().err.startswith("error[checkpoint]:")


def test_finetune_init_from_truncated_checkpoint(env, tmp_path, capsys):
    data, run = env
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((run / "model.ckpt").read_bytes()[:10])   # inside the header
    assert dispatch(["finetune", "--data", str(data), "--out", str(tmp_path / "ft"),
                     "--epochs", "1", "--variant", "joint",
                     "--init-from", str(cut), *MODEL_FLAGS]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error[checkpoint]: checkpoint: truncated header")
    assert "\n" not in err


def test_finetune_on_truncated_raw_video(env, tmp_path, capsys):
    data, _ = env
    cut = tmp_path / "data"
    shutil.copytree(data, cut)
    for video in (cut / "videos").glob("*.vraw"):
        video.write_bytes(video.read_bytes()[:8])      # inside the header
    assert dispatch(["finetune", "--data", str(cut), "--out", str(tmp_path / "ft"),
                     "--epochs", "1", *MODEL_FLAGS]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error[video]: raw video: truncated header")
    assert "\n" not in err


def test_finetune_on_zero_sized_raw_frames(env, tmp_path, capsys):
    data, _ = env
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    for video in (bad / "videos").glob("*.vraw"):
        n = struct.unpack_from("<H", video.read_bytes(), 6)[0]
        video.write_bytes(b"VRAW" + struct.pack("<BBHHH", 1, 0, n, 0, 16))
    # at crop 224 the resize rule would divide by h = 0, so the reader must refuse
    assert dispatch(["finetune", "--data", str(bad), "--out", str(tmp_path / "ft"),
                     "--epochs", "1", *MODEL_FLAGS, "--crop", "224"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error[video]: raw video: zero-sized frames 0x16")
    assert "\n" not in err


# ---------------------------------------------------------------------------
# config files and parser behavior


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes = 3\nsize = 20\n")
    out = tmp_path / "ds"
    assert dispatch(["gen-data", "--out", str(out), "--config", str(cfg),
                     "--size", "16", "--per-class", "6", "--frames", "6"]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["resolved"]["classes"] == 3      # file supplies the value
    assert echo["resolved"]["size"] == 16        # flag beats the file
    assert "18 videos, 3 classes" in capsys.readouterr().out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n")
    assert dispatch(["gen-data", "--out", str(tmp_path / "ds"),
                     "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[config]:") and "bogus" in err


def test_missing_config_file(tmp_path, capsys):
    assert dispatch(["gen-data", "--out", str(tmp_path / "ds"),
                     "--config", str(tmp_path / "none.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error[io]:")


# ---------------------------------------------------------------------------
# the one-line error contract, one row per kind of bad input


def _copy_data(tmp, data, run):
    shutil.copytree(data, tmp / "data")


def _non_utf8_manifest(tmp, data, run):
    _copy_data(tmp, data, run)
    (tmp / "data" / "manifest.json").write_bytes(b'[{"gloss": "\xff"}]')


def _corrupt_raw_videos(tmp, data, run):
    _copy_data(tmp, data, run)
    for video in (tmp / "data" / "videos").glob("*.vraw"):
        video.write_bytes(video.read_bytes()[:-1])     # payload one byte short


def _frame_end_past_stored(tmp, data, run):
    _copy_data(tmp, data, run)
    entries = json.loads((tmp / "data" / "manifest.json").read_text())
    for inst in (i for e in entries for i in e["instances"]):
        inst["frame_end"] = 999
    (tmp / "data" / "manifest.json").write_text(json.dumps(entries))


def _run_config(edit):
    def setup(tmp, data, run):
        shutil.copytree(run, tmp / "run")
        edit(tmp / "run" / "config.json")
    return setup


def _pipeline_frames_8(path):
    stored = json.loads(path.read_text())
    stored["pipeline"]["frames"] = 8
    path.write_text(json.dumps(stored))


def _nan_checkpoint(name, entries):
    """This row's copy of the shared run, with NaN written into the named
    entries of its model.ckpt (every entry when entries is None), saved
    as {tmp}/<name>."""
    def setup(tmp, data, run):
        shutil.copytree(run, tmp / "run")
        params = load_checkpoint(run / "model.ckpt")
        for entry in entries or params:
            params[entry].flat[-1] = np.nan
        save_checkpoint(tmp / name, params)
    return setup


def _overflowing_head(tmp, data, run):
    """This row's copy of the shared run, with every head weight set to the
    largest finite value of its dtype, so the forward overflows."""
    shutil.copytree(run, tmp / "run")
    params = load_checkpoint(run / "model.ckpt")
    params["head.w"][:] = np.finfo(params["head.w"].dtype).max
    save_checkpoint(tmp / "run" / "model.ckpt", params)


def _write(name, content):
    def setup(tmp, data, run):
        (tmp / name).write_bytes(content)
    return setup


FINETUNE = ["finetune", "--data", "{data}", "--out", "{tmp}/ft", "--epochs", "1", *MODEL_FLAGS]
PRETRAIN = ["pretrain", "--data", "{data}", "--out", "{tmp}/pre", "--steps", "1", "--dim", "16",
            "--depth", "2", "--heads", "2", "--decoder-dim", "8", "--decoder-depth", "1",
            "--patch", "8", "--crop", "16", "--frames", "4"]
GEN = ["gen-data", "--out", "{tmp}/ds", "--classes", "2", "--per-class", "3", "--size", "16"]
ABLATE = ["ablate", "--data", "{data}", "--grid", "{tmp}/grid.json", "--out", "{tmp}/abl",
          *MODEL_FLAGS]

# (setup, argv, class, text the one line must hold); {data}, {run} and {tmp}
# are the shared dataset, the shared run and this row's own directory
FAILURES = {
    "finetune-heads-0": (None, [*FINETUNE, "--heads", "0"], "config", "heads must be"),
    "finetune-patch-0": (None, [*FINETUNE, "--patch", "0"], "config", "patch must be"),
    "finetune-joint-tube-depth-0": (None, [*FINETUNE, "--variant", "joint", "--tube-depth", "0"],
                                    "config", "tube_depth must be"),
    "finetune-dim-negative": (None, [*FINETUNE, "--dim", "-16"], "config", "dim must be"),
    "finetune-lr-nan": (None, [*FINETUNE, "--lr", "nan"], "config", "learning rate"),
    "pretrain-decoder-heads-0": (None, [*PRETRAIN, "--decoder-heads", "0"], "config",
                                 "decoder_heads must be"),
    "pretrain-batch-0": (None, [*PRETRAIN, "--batch", "0"], "config", "batch must be"),
    "gen-data-out-regular-file": (_write("file", b""), [*GEN, "--out", "{tmp}/file"], "io",
                                  "Not a directory"),
    "gen-data-out-under-regular-file": (_write("file", b""), [*GEN, "--out", "{tmp}/file/x"],
                                        "io", "Not a directory"),
    "gen-data-config-directory": (None, [*GEN, "--config", "{tmp}"], "io", "Is a directory"),
    "gen-data-frames-0": (None, [*GEN, "--frames", "0"], "config", "frames 0"),
    "gen-data-size-0": (None, [*GEN, "--size", "0"], "config", "size must be"),
    "gen-data-non-utf8-config": (_write("bad.cfg", b"classes = \xff\n"),
                                 [*GEN, "--config", "{tmp}/bad.cfg"], "config", "bad.cfg"),
    "finetune-config-precision-16": (_write("p.cfg", b"precision = 16\n"),
                                     ["finetune", "--data", "{data}", "--out", "{tmp}/ft",
                                      "--config", "{tmp}/p.cfg"], "config", "precision"),
    "finetune-config-variant-x": (_write("v.cfg", b"variant = x\n"),
                                  [*FINETUNE, "--config", "{tmp}/v.cfg"], "config",
                                  "variant must be divided or joint, got 'x'"),
    "evaluate-config-split-dev": (_write("s.cfg", b"split = dev\n"),
                                  ["evaluate", "--data", "{data}", "--run", "{run}",
                                   "--config", "{tmp}/s.cfg"], "config", "split must be one of"),
    "validate-manifest-directory": (None, ["validate-manifest", "--manifest", "{tmp}"], "io",
                                    "Is a directory"),
    "validate-manifest-non-utf8": (_non_utf8_manifest,
                                   ["validate-manifest", "--manifest", "{tmp}/data/manifest.json"],
                                   "manifest", "not UTF-8"),
    "validate-manifest-deeply-nested": (_write("deep.json", b"[" * 100_000 + b"]" * 100_000),
                                        ["validate-manifest", "--manifest", "{tmp}/deep.json"],
                                        "manifest", "nested too deeply"),
    "ablate-grid-deeply-nested": (_write("grid.json", b"[" * 100_000 + b"]" * 100_000), ABLATE,
                                  "config", "nested too deeply"),
    "finetune-corrupt-raw-video": (_corrupt_raw_videos, [*FINETUNE, "--data", "{tmp}/data"],
                                   "video", "raw video: payload"),
    "finetune-frame-end-past-stored": (_frame_end_past_stored, [*FINETUNE, "--data", "{tmp}/data"],
                                       "video", "frame_end 999"),
    "evaluate-run-config-invalid-json": (_run_config(lambda p: p.write_text("{")),
                                         ["evaluate", "--data", "{data}", "--run", "{tmp}/run"],
                                         "config", "not valid JSON"),
    "evaluate-run-config-pipeline-mismatch": (_run_config(_pipeline_frames_8),
                                              ["evaluate", "--data", "{data}", "--run", "{tmp}/run"],
                                              "config", "differ from the model"),
    "ablate-grid-infinite-batch": (_write("grid.json", b'[{"batch": Infinity}]'), ABLATE,
                                   "config", "grid row 0"),
    "ablate-grid-unknown-key": (_write("grid.json", b'[{"epochs": 1}, {"epoch": 9}]'), ABLATE,
                                "config", "grid row 1: unknown config keys: epoch"),
    "ablate-grid-non-integral-epochs": (_write("grid.json", b'[{"epochs": 1.9}]'), ABLATE,
                                        "config", "grid row 0: invalid value 1.9 for key epochs"),
    "ablate-grid-lr-overflows-float": (_write("grid.json", b'[{"lr": 1' + b"0" * 400 + b'}]'),
                                       ABLATE, "config", "grid row 0: invalid value 1000"),
    "ablate-grid-boolean-batch": (_write("grid.json", b'[{"epochs": 1, "batch": true}]'), ABLATE,
                                  "config", "grid row 0: invalid value True for key batch"),
    "finetune-lr-overflows-adam": (None, [*FINETUNE, "--lr", "1e300", "--batch", "64"],
                                   "divergence", "non-finite weight of embed.proj.w at step 0"),
    "pretrain-lr-overflows-adam": (None, [*PRETRAIN, "--lr", "1e300", "--patch", "4"],
                                   "divergence", "non-finite weight of embed.proj.w at step 0"),
    "evaluate-nan-in-model-checkpoint": (_nan_checkpoint("run/model.ckpt", ["head.w"]),
                                         ["evaluate", "--data", "{data}", "--run", "{tmp}/run"],
                                         "checkpoint", "entry 'head.w' holds a NaN"),
    "evaluate-head-overflows-logits": (_overflowing_head,
                                       ["evaluate", "--data", "{data}", "--run", "{tmp}/run"],
                                       "divergence", "non-finite logits on split 'test'"),
    "attn-map-queries-overflow-logits": (_scaled_queries_and_keys(1e30),
                                         ["attn-map", "--data", "{data}", "--run", "{tmp}/run",
                                          "--video", "c00_v00", "--out", "{tmp}/heat"],
                                         "divergence", "non-finite logits for video 'c00_v00'"),
    "finetune-init-from-nan-checkpoint": (_nan_checkpoint("nan.ckpt", None),
                                          [*FINETUNE, "--init-from", "{tmp}/nan.ckpt"],
                                          "checkpoint", "entry 'embed.proj.w' holds a NaN"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_bad_input_prints_one_error_line(env, tmp_path, capsys, case):
    setup, argv, cls, text = FAILURES[case]
    data, run = env
    if setup is not None:
        setup(tmp_path, data, run)
    argv = [a.format(data=data, run=run, tmp=tmp_path) for a in argv]
    capsys.readouterr()
    assert dispatch(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error[{cls}]: ") and text in lines[0], lines[0]
    assert not list(tmp_path.glob("ft/*.ckpt")) and not list(tmp_path.glob("pre/*.ckpt"))
    assert not (tmp_path / "heat").exists()


def test_error_classes_are_the_documented_set():
    assert VslrError("video", "m").cls == "video"
    with pytest.raises(ValueError, match="unknown error class 'checkpoints'"):
        VslrError("checkpoints", "m")
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    for cls in ERROR_CLASSES:
        assert f"`error[{cls}]: " in readme, cls


@pytest.mark.parametrize("flag", [["--threads", "-3"], ["--threads", "0"],
                                  ["--threads=-1"], ["--threads", "two"], ["--threads", "1.5"]])
def test_threads_below_one_rejected_before_env_is_written(monkeypatch, capsys, flag):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "7")             # restored by monkeypatch afterwards
    capsys.readouterr()
    assert main(["validate-manifest", *flag, "--manifest", "m.json"]) == 2
    value = flag[-1].split("=", 1)[-1]
    assert capsys.readouterr().err.splitlines() == [
        f"error[config]: --threads must be an integer >= 1, got {value!r}"]
    assert all(os.environ[var] == "7" for var in _THREAD_VARS)


def test_threads_pins_every_blas_variable(monkeypatch, tmp_path, capsys):
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "7")
    assert main(["validate-manifest", "--threads", "02", "--manifest",
                 str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error[io]:")
    assert all(os.environ[var] == "2" for var in _THREAD_VARS)


def _subcommands():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parser_exit_codes(capsys):
    assert dispatch([]) == 2                     # a subcommand is required
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["--help"]) == 0
    assert len(_subcommands()) == 7
    for name in _subcommands():
        assert dispatch([name, "--help"]) == 0, name
    capsys.readouterr()


def _stub_training(monkeypatch):
    """Replace the training calls with instant ones; the run still resolves
    and echoes its whole config."""
    from vslr import mae as M
    from vslr import train as TR

    monkeypatch.setattr(M, "pretrain", lambda *a, **k: [(0, 1.0)])
    report = TR.EvalReport({1: 0.5}, [], [], 0, 0.0, 0)
    monkeypatch.setattr(TR, "finetune", lambda *a, **k: ([report], []))
    monkeypatch.setattr(TR, "run_ablation", lambda *a, **k: [])


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "finetune", "ablate"])
def test_help_defaults_are_what_a_run_resolves(env, tmp_path, monkeypatch, command):
    # every "(default X)" that --help shows is what a run resolves with that
    # flag omitted; --threads is consumed by the entry point, before any run
    data, _ = env
    _stub_training(monkeypatch)
    grid = tmp_path / "grid.json"
    grid.write_text("[{}]")
    out = tmp_path / "out"
    argv = [command, "--out", str(out)] + ([] if command == "gen-data" else ["--data", str(data)])
    assert dispatch(argv + (["--grid", str(grid)] if command == "ablate" else [])) == 0
    resolved = json.loads((out / "config.json").read_text())["resolved"]
    shown = {}
    for action in _subcommands()[command]._actions:
        m = re.search(r"\(default (.*)\)$", action.help or "")
        if m and action.dest != "threads":
            shown[action.option_strings[0][2:]] = m.group(1)
    assert ({"seed", "classes", "per-class", "frames", "size"} if command == "gen-data"
            else {"seed", "dim", "depth", "frames", "crop"}) <= set(shown)

    def same(text, value):
        return text == str(value) or isinstance(value, float) and float(text) == value

    assert {k: (v, resolved.get(k)) for k, v in shown.items() if not same(v, resolved.get(k))} == {}


# each subcommand's option strings, then the config-file keys it accepts
INTERFACE = {
    "gen-data": ("classes config frames out per-class seed size threads",
                 "classes frames out per-class seed size"),
    "validate-manifest": ("config manifest threads wlasl100", "manifest"),
    "pretrain": ("batch checkpoint-interval config crop data decoder-depth decoder-dim "
                 "decoder-heads depth dim frames heads lr out patch precision ratio sampling "
                 "seed steps threads tube-depth",
                 "batch checkpoint-interval crop data decoder-depth decoder-dim decoder-heads "
                 "depth dim frames heads lr out patch precision ratio sampling seed steps "
                 "tube-depth"),
    "finetune": ("batch config crop data depth dim epochs frames heads init-from layers lr out "
                 "patch precision sampling seed threads tube-depth variant",
                 "batch crop data depth dim epochs frames heads init-from layers lr out patch "
                 "precision sampling seed tube-depth variant"),
    "evaluate": ("config data out precision run sampling seed split threads",
                 "data out precision run sampling seed split"),
    "ablate": ("config crop data depth dim frames grid heads out patch seed threads tube-depth "
               "variant",
               "crop data depth dim frames grid heads out patch seed tube-depth variant"),
    "attn-map": ("config data out precision run sampling seed start-frame threads video",
                 "data out precision run sampling seed start-frame video"),
}


def test_interface_is_pinned(env, monkeypatch):
    # the config-file keys a command accepts are those it has read when it
    # checks the file for unknown keys; the run is stopped there.  Every
    # option but --config, --threads (read by the entry point) and
    # --wlasl100 (a switch, not a key) is a key the command reads.
    from vslr import cli

    data, run = env
    used = []

    def stop(resolver):
        used.append(" ".join(sorted(resolver.used)))
        raise VslrError("config", "stopped")

    monkeypatch.setattr(cli.Resolver, "done", stop)
    needs = {"gen-data": ["--out", "x"], "validate-manifest": ["--manifest", "x"],
             "pretrain": ["--data", data, "--out", "x"],
             "finetune": ["--data", data, "--out", "x"],
             "evaluate": ["--data", data, "--run", run],
             "ablate": ["--data", data, "--out", "x", "--grid", "x"],
             "attn-map": ["--data", data, "--run", run, "--out", "x", "--video", "c00_v00"]}
    seen = {}
    for name, parser in _subcommands().items():
        options = sorted(s[2:] for a in parser._actions for s in a.option_strings
                         if s not in ("-h", "--help"))
        assert dispatch([name, *map(str, needs[name])]) == 2
        seen[name] = (" ".join(options), used.pop())
        unread = set(options) - {"config", "threads", "wlasl100"} - set(seen[name][1].split())
        assert not unread, (name, unread)
    assert seen == INTERFACE
