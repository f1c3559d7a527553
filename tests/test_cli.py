"""End-to-end command line flows in temporary directories: every
subcommand, the flag > config file > default precedence rules, run-dir
self-containment, and the one-line error[<class>] contract with exit 2."""

import csv
import json
import os
import pathlib
import shutil
import struct

import numpy as np
import pytest

from vslr.__main__ import _THREAD_VARS, main
from vslr.checkpoint import load_checkpoint, save_checkpoint
from vslr.cli import dispatch
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
        {"epochs": 1, "lr": 1e-4, "sampling": "even", "layers": 1},
    ]))
    out = tmp_path / "abl"
    assert dispatch(["ablate", "--data", str(data), "--grid", str(grid),
                     "--out", str(out), *MODEL_FLAGS]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ABLATION_COLUMNS
    assert len(rows) == 3
    assert rows[1][6] == "Consec." and rows[2][6] == "Even"
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


def _write(name, content):
    def setup(tmp, data, run):
        (tmp / name).write_bytes(content)
    return setup


FINETUNE = ["finetune", "--data", "{data}", "--out", "{tmp}/ft", "--epochs", "1", *MODEL_FLAGS]
PRETRAIN = ["pretrain", "--data", "{data}", "--out", "{tmp}/pre", "--steps", "1", "--dim", "16",
            "--depth", "2", "--heads", "2", "--decoder-dim", "8", "--decoder-depth", "1",
            "--patch", "8", "--crop", "16", "--frames", "4"]
GEN = ["gen-data", "--out", "{tmp}/ds", "--classes", "2", "--per-class", "3", "--size", "16"]

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
    "ablate-grid-deeply-nested": (_write("grid.json", b"[" * 100_000 + b"]" * 100_000),
                                  ["ablate", "--data", "{data}", "--grid", "{tmp}/grid.json",
                                   "--out", "{tmp}/abl", *MODEL_FLAGS], "config",
                                  "nested too deeply"),
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
    "ablate-grid-infinite-batch": (_write("grid.json", b'[{"batch": Infinity}]'),
                                   ["ablate", "--data", "{data}", "--grid", "{tmp}/grid.json",
                                    "--out", "{tmp}/abl", *MODEL_FLAGS], "config", "grid row 0"),
    "finetune-lr-overflows-adam": (None, [*FINETUNE, "--lr", "1e300", "--batch", "64"],
                                   "divergence", "non-finite weight of embed.proj.w at step 0"),
    "pretrain-lr-overflows-adam": (None, [*PRETRAIN, "--lr", "1e300", "--patch", "4"],
                                   "divergence", "non-finite weight of embed.proj.w at step 0"),
    "evaluate-nan-in-model-checkpoint": (_nan_checkpoint("run/model.ckpt", ["head.w"]),
                                         ["evaluate", "--data", "{data}", "--run", "{tmp}/run"],
                                         "checkpoint", "entry 'head.w' holds a NaN"),
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


def test_parser_exit_codes(capsys):
    assert dispatch([]) == 2                     # a subcommand is required
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["--help"]) == 0
    assert dispatch(["finetune", "--help"]) == 0
    capsys.readouterr()
