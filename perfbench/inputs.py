"""Seeded benchmark inputs: `.vraw` sources plus gloss manifests.

Everything is drawn from the workload seed, so one seed always gives the
same files.  The program under test only ever sees the files.

Each workload writes two sets:

* ``model``: square sources in a ``train`` and a ``test`` split, used by
  fine-tune, MAE pretraining and evaluation.
* ``prep``: the sources the clip-preparation job runs over.  At desk this
  is the model set again.  At paper it is 1:1, 4:3 and 16:9 sources in
  equal thirds.  The 4:3 and 16:9 sources stay out of the model set only
  because one such clip aborts a whole fine-tune, pretrain or evaluate
  call while the 224 pipeline rejects them; once it accepts them they can
  join the model set.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from vslr.video import write_raw_video

# workload -> (classes, train per class, test per class, (h, w), frame range)
MODEL_SETS = {
    "desk": (4, 5, 1, (32, 32), (6, 18)),
    "paper": (2, 1, 1, (200, 200), (32, 96)),
}
# workload -> [(gloss, count, (h, w))]; None reuses the model set
PREP_SETS = {
    "desk": None,
    "paper": [("aspect_1x1", 3, (200, 200)),
              ("aspect_4x3", 3, (240, 320)),
              ("aspect_16x9", 3, (180, 320))],
}


def render(rng: np.random.Generator, cls: int, classes: int, length: int,
           h: int, w: int) -> np.ndarray:
    """A class-coloured square moving in a class-coded direction over a
    class-coloured background, with a seeded start; uint8 [n, h, w, 3]."""
    bg = np.array([(37 * cls + 11) % 180 + 20, (73 * cls + 41) % 180 + 20,
                   (17 * cls + 97) % 180 + 20], dtype=np.uint8)
    fg = np.array([(91 * cls + 153) % 200 + 55, (29 * cls + 201) % 200 + 55,
                   (61 * cls + 113) % 200 + 55], dtype=np.uint8)
    side = max(2, min(h, w) // 4)
    angle = 2.0 * math.pi * cls / classes
    step = max(1.0, min(h, w) / 16.0)
    y = float(rng.integers(0, h - side + 1))
    x = float(rng.integers(0, w - side + 1))
    frames = np.empty((length, h, w, 3), dtype=np.uint8)
    frames[:] = bg
    for t in range(length):
        yy = int(round(y + t * step * math.sin(angle))) % (h - side + 1)
        xx = int(round(x + t * step * math.cos(angle))) % (w - side + 1)
        frames[t, yy:yy + side, xx:xx + side] = fg
    return frames


def _write_set(root: str, seed: int, name: str, groups: list, span: tuple) -> str:
    """groups: [(gloss, [(video_id, split, (h, w))])], lengths within
    span = (lo, hi) frames; returns the directory holding manifest.json and
    videos/."""
    set_dir = os.path.join(root, name)
    os.makedirs(os.path.join(set_dir, "videos"), exist_ok=True)
    rng = np.random.default_rng([seed] + [ord(c) for c in name])
    entries = []
    for cls, (gloss, items) in enumerate(groups):
        instances = []
        # lengths evenly spread over the range, in seeded order: every seed
        # reads the same number of frames, so runs differ only in content
        lengths = rng.permutation(np.linspace(*span, len(items)).round().astype(int))
        for (vid, split, (h, w)), length in zip(items, lengths.tolist()):
            frames = render(rng, cls, len(groups), length, h, w)
            write_raw_video(os.path.join(set_dir, "videos", f"{vid}.vraw"), frames, "BGR")
            instances.append({"video_id": vid, "split": split,
                              "frame_start": 1, "frame_end": length})
        entries.append({"gloss": gloss, "instances": instances})
    with open(os.path.join(set_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
    return set_dir


def generate(workload: str, seed: int, root: str) -> dict:
    """Write the workload's sets under root; returns {set name: directory}."""
    classes, n_train, n_test, hw, span = MODEL_SETS[workload]
    groups = []
    for c in range(classes):
        items = [(f"c{c:02d}_v{i:02d}", "train" if i < n_train else "test", hw)
                 for i in range(n_train + n_test)]
        groups.append((f"class_{c:02d}", items))
    sets = {"model": _write_set(root, seed, "model", groups, span)}
    prep = PREP_SETS[workload]
    if prep is None:
        sets["prep"] = sets["model"]
    else:
        prep_groups = [(gloss, [(f"{gloss}_{i:02d}", "train", phw) for i in range(count)])
                       for gloss, count, phw in prep]
        sets["prep"] = _write_set(root, seed, "prep", prep_groups, span)
    return sets
