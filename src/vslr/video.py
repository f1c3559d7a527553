"""Video ingestion and preprocessing.

Covers the full path from stored clips to model input: manifest parsing,
frame sampling and padding, the two-stage resize rule, BGR to RGB
conversion, clip-consistent train augmentation, center cropping, and a
tiny raw video container plus a synthetic dataset generator so the whole
pipeline can run without any external downloads.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import lanes
from .errors import VslrError, at_least

VRAW_MAGIC = b"VRAW"
VRAW_MAX_EXTENT = 0xFFFF       # count, height and width are u16 header fields
SPLITS = ("train", "val", "test")

RESIZE_MIN = 226
RESIZE_MAX = 256

# Output rows _resample computes at a time, so each chunk's float64
# temporaries stay in cache: a whole 224 window's are about 1.2 MB each,
# and a second lane holds a set of its own.  16 frames at the 224 window,
# one lane, best of 21 (2-core Xeon), whole frame -> 32-row chunks:
# 200x200 25.9 -> 20.6 ms, 240x320 31.3 -> 24.6, 180x320 23.8 -> 21.1,
# 720x1280 53.3 -> 42.5.  16 rows was slower on three of the four, and
# 64 rows no faster, with twice the temporaries.
_RESAMPLE_ROWS = 32


# ---------------------------------------------------------------------------
# deterministic rng derivation


def derive_seed(*keys) -> int:
    """Stable 64-bit seed from a tuple of ints/strings.

    Uses sha256 of a joined key string, so values survive process restarts
    and do not depend on PYTHONHASHSEED.
    """
    text = "\x1f".join(str(k) for k in keys)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(*keys) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*keys))


# ---------------------------------------------------------------------------
# videos and clips


@dataclass
class RawVideo:
    """A decoded source video: uint8 frames [n, h, w, 3] in one channel
    order."""

    frames: np.ndarray
    channel_order: str = "BGR"


@dataclass
class VideoClip:
    """A prepared clip: uint8 RGB frames [frames, crop, crop, 3], and the
    draws that made it.

    sampled_indices maps each clip frame back to its source frame, with -1
    marking padded duplicates.  crop_offset/flipped record the one
    augmentation decision applied to every frame of the clip.
    """

    frames: np.ndarray
    sampled_indices: list
    label: int | None
    crop_offset: tuple
    flipped: bool


# ---------------------------------------------------------------------------
# sampling and padding


def sample_indices(n: int, target: int, sampling: str,
                   rng: np.random.Generator | None) -> tuple[list, list]:
    """(read, recorded) for a target-frame clip of an n-frame video: read
    is the source frame each clip frame reads, recorded the same with -1
    at each padded slot.

    A video shorter than target keeps its frames in order, and each missing
    slot draws Bernoulli(0.5): heads appends a copy of the last frame,
    tails prepends a copy of the first.  Otherwise consecutive sampling
    draws a random start, and even sampling takes floor(i * n / target)
    and draws nothing, so it needs no rng.
    """
    if n < 1:
        raise ValueError("video has no frames")
    if n < target:
        back = int(np.count_nonzero(rng.random(target - n) < 0.5))
        front = target - n - back
        real = list(range(n))
        return [0] * front + real + [n - 1] * back, [-1] * front + real + [-1] * back
    if sampling == "consecutive":
        start = int(rng.integers(0, n - target + 1))
        read = list(range(start, start + target))
    else:
        read = [n * i // target for i in range(target)]
    return read, list(read)


# ---------------------------------------------------------------------------
# resize


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def resize_plan(h: int, w: int) -> tuple[int, int]:
    """Target dims under the two-stage rule: bring the short side up to 226,
    then cap the long side at 256 (the cap wins on conflict)."""
    nh, nw = h, w
    if min(nh, nw) < RESIZE_MIN:
        s = RESIZE_MIN / min(nh, nw)
        nh, nw = _round_half_up(nh * s), _round_half_up(nw * s)
    if max(nh, nw) > RESIZE_MAX:
        s = RESIZE_MAX / max(nh, nw)
        nh, nw = _round_half_up(nh * s), _round_half_up(nw * s)
    return nh, nw


def resize_dims(h: int, w: int, crop: int) -> tuple[int, int]:
    """resize_plan's dims, unless they leave the short side under crop (a
    4:3 or 16:9 source under the 256 cap): then both sides scale by
    crop / short instead, still in one resample from the source.  Like the
    WLASL reference loader, the clip is resampled, never padded."""
    nh, nw = resize_plan(h, w)
    if min(nh, nw) < crop:
        s = crop / min(nh, nw)
        nh, nw = _round_half_up(nh * s), _round_half_up(nw * s)
    return nh, nw


def _resample(frames: np.ndarray, out_h: int, out_w: int,
              dy: int, dx: int, size_h: int, size_w: int) -> np.ndarray:
    """Rows dy:dy+size_h and columns dx:dx+size_w of the bilinear resample
    of a uint8 [n, h, w, 3] clip to out_h x out_w (half-pixel centers,
    clamped at the edges, rounded half up), computing that window only.

    When nothing moves the window is a slice of the input, and the input
    itself when it is the whole frame.  Otherwise each frame is computed
    in chunks of _RESAMPLE_ROWS output rows, and the frames run by the
    ``lanes.halves`` parts of the clip: two halves, one per lane, or a
    1-frame clip as one part on the caller.
    Each output pixel is the float64 formula of a whole-frame resample,
    term for term, so a window equals the same slice of the whole resample
    bit for bit, whatever the chunk and the lane count.
    """
    n, h, w, _ = frames.shape
    if (out_h, out_w) == (h, w):
        if (size_h, size_w) == (h, w):
            return frames
        return frames[:, dy:dy + size_h, dx:dx + size_w]
    sy = (np.arange(dy, dy + size_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    sx = (np.arange(dx, dx + size_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    sy = np.clip(sy, 0.0, h - 1.0)
    sx = np.clip(sx, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None]
    wx = np.repeat(sx - x0, 3)              # per channel, as a [h, w*3] row lays them out
    uy, ux = 1 - wy, 1 - wx
    c0 = (3 * x0[:, None] + np.arange(3)).ravel()
    c1 = (3 * x1[:, None] + np.arange(3)).ravel()
    # the source rows the window reads; each chunk of output rows
    # interpolates across only the run of them its rows read, indexed locally
    rows, at = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    top, bot = at[:size_h], at[size_h:]
    chunks = []
    for a in range(0, size_h, _RESAMPLE_ROWS):
        r = slice(a, min(a + _RESAMPLE_ROWS, size_h))
        lo = top[r.start]
        chunks.append((r, rows[lo:bot[r.stop - 1] + 1], top[r] - lo, bot[r] - lo))
    flat = frames.reshape(n, h, 3 * w)
    out = np.empty((n, size_h, 3 * size_w), dtype=np.uint8)

    def resample(part):                   # each frame writes only its own out[i]
        for i in range(n)[part]:
            for r, src_rows, top_r, bot_r in chunks:
                src = flat[i].take(src_rows, axis=0)
                across = src.take(c0, axis=1) * ux
                across += src.take(c1, axis=1) * wx
                v = across.take(top_r, axis=0)
                v *= uy[r]
                b = across.take(bot_r, axis=0)
                b *= wy[r]
                v += b
                v += 0.5
                # a convex mix of uint8 values: floor lands in [0, 255], so
                # the cast needs no clip
                out[i, r] = np.floor(v, out=v)

    lanes.run(resample, lanes.halves(n))
    return out.reshape(n, size_h, size_w, 3)


# ---------------------------------------------------------------------------
# augmentation and cropping


def crop_offsets(h: int, w: int, size: int, rng: np.random.Generator | None = None) -> tuple:
    """(dy, dx, flip) of one size x size crop of h x w frames: drawn from
    rng in the order dy, dx, flip, or the center, unflipped, without rng."""
    if h < size or w < size:
        raise VslrError("config", f"crop size {size} exceeds frame {h}x{w}")
    if rng is None:
        return (h - size) // 2, (w - size) // 2, False
    dy = int(rng.integers(0, h - size + 1))
    dx = int(rng.integers(0, w - size + 1))
    flip = bool(rng.random() < 0.5)
    return dy, dx, flip


def to_model_tensor(clip: VideoClip, dtype=np.float32,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Cast a clip to [frames, 3, h, w] scaled to [0, 1], by the
    ``lanes.halves`` parts of its frames: halves above
    ``lanes.SPLIT_ELEMENTS`` elements, else one part on the caller.
    Written into ``out`` where given, as a batch's slot, else a new array."""
    dt = np.dtype(dtype)
    f, h, w, _ = clip.frames.shape
    if out is None:
        out = np.empty((f, 3, h, w), dtype=dt)
    # one cast straight into C order: casting the channel-reversed view
    # that prepare_clip leaves, then transposing, is ~3x slower
    src = np.transpose(clip.frames, (0, 3, 1, 2))
    lanes.run(lambda r: np.divide(src[r], 255, out=out[r], dtype=dt), lanes.halves(f, out.size))
    return out


# ---------------------------------------------------------------------------
# raw video container


def _video_error(msg: str) -> VslrError:
    return VslrError("video", f"raw video: {msg}")


def write_raw_video(path, frames: np.ndarray, channel_order: str = "BGR") -> None:
    """frames: uint8 [count, h, w, 3] with 0 < h, w and count, h, w at most
    65535, so that read_raw_video reads the file back."""
    if frames.ndim != 4 or frames.shape[3] != 3 or frames.dtype != np.uint8:
        raise ValueError(f"raw video frames must be uint8 [n, h, w, 3], got {frames.shape} {frames.dtype}")
    order_code = {"BGR": 0, "RGB": 1}[channel_order]
    n, h, w, _ = frames.shape
    if h == 0 or w == 0 or max(n, h, w) > VRAW_MAX_EXTENT:
        raise _video_error(f"cannot store {n} frames of {h}x{w}; h and w must be "
                           f"positive and each extent at most {VRAW_MAX_EXTENT}")
    with open(path, "wb") as fh:
        fh.write(VRAW_MAGIC)
        fh.write(struct.pack("<BBHHH", 1, order_code, n, h, w))
        fh.write(np.ascontiguousarray(frames).tobytes())


def read_raw_video(path) -> RawVideo:
    """The frames are one read-only view on the file's bytes; no copies."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != VRAW_MAGIC:
        raise _video_error(f"bad magic in {path}")
    if len(blob) < 12:
        raise _video_error(f"truncated header, {len(blob)} of 12 bytes in {path}")
    version, order_code, n, h, w = struct.unpack_from("<BBHHH", blob, 4)
    if version != 1:
        raise _video_error(f"unsupported version {version} in {path}")
    order = {0: "BGR", 1: "RGB"}.get(order_code)
    if order is None:
        raise _video_error(f"unknown channel order code {order_code} in {path}")
    if h == 0 or w == 0:
        raise _video_error(f"zero-sized frames {h}x{w} in {path}")
    need = n * h * w * 3
    if len(blob) - 12 != need:
        raise _video_error(f"payload is {len(blob) - 12} bytes, expected {need} in {path}")
    frames = np.frombuffer(blob, dtype=np.uint8, count=need, offset=12).reshape(n, h, w, 3)
    return RawVideo(frames, order)


# ---------------------------------------------------------------------------
# dataset manifest


@dataclass
class Instance:
    video_id: str
    gloss: str
    label: int
    split: str
    frame_start: int
    frame_end: int

    @property
    def frame_count(self) -> int:
        return self.frame_end - self.frame_start + 1


@dataclass
class Manifest:
    """Gloss-keyed dataset index; class labels are indices into the sorted
    gloss list, so they are stable across loads."""

    glosses: list
    instances: list

    @property
    def num_classes(self) -> int:
        return len(self.glosses)

    def by_split(self, split: str) -> list:
        return [i for i in self.instances if i.split == split]

    def counts(self) -> dict:
        out = {s: 0 for s in SPLITS}
        for i in self.instances:
            out[i.split] += 1
        return out


def _manifest_error(path: str, msg: str) -> VslrError:
    return VslrError("manifest", f"manifest {path}: {msg}")


def parse_manifest(entries, path: str = "<memory>") -> Manifest:
    """Validate the gloss/instances JSON structure and build a Manifest.

    Errors name the offending JSON path, e.g. entries[3].instances[2].split.
    """
    if not isinstance(entries, list) or not entries:
        raise _manifest_error(path, "top level must be a non-empty list")
    seen_gloss: set[str] = set()
    seen_vid: set[str] = set()
    raw: list[tuple[str, list]] = []
    for gi, entry in enumerate(entries):
        where = f"entries[{gi}]"
        if not isinstance(entry, dict):
            raise _manifest_error(path, f"{where} must be an object")
        gloss = entry.get("gloss")
        if not isinstance(gloss, str) or not gloss:
            raise _manifest_error(path, f"{where}.gloss must be a non-empty string")
        if gloss in seen_gloss:
            raise _manifest_error(path, f"{where}.gloss duplicates {gloss!r}")
        seen_gloss.add(gloss)
        insts = entry.get("instances")
        if not isinstance(insts, list) or not insts:
            raise _manifest_error(path, f"{where}.instances must be a non-empty list")
        for ii, inst in enumerate(insts):
            iw = f"{where}.instances[{ii}]"
            if not isinstance(inst, dict):
                raise _manifest_error(path, f"{iw} must be an object")
            vid = inst.get("video_id")
            if not isinstance(vid, str) or not vid:
                raise _manifest_error(path, f"{iw}.video_id must be a non-empty string")
            if vid in (".", "..") or any(c in vid for c in "/\\\0"):
                raise _manifest_error(path, f"{iw}.video_id must be a plain file name, got {vid!r}")
            if vid in seen_vid:
                raise _manifest_error(path, f"{iw}.video_id duplicates {vid!r}")
            seen_vid.add(vid)
            split = inst.get("split")
            if split not in SPLITS:
                raise _manifest_error(path, f"{iw}.split must be one of {SPLITS}, got {split!r}")
            fs, fe = inst.get("frame_start"), inst.get("frame_end")
            if not isinstance(fs, int) or isinstance(fs, bool) or fs < 1:
                raise _manifest_error(path, f"{iw}.frame_start must be an integer >= 1")
            if not isinstance(fe, int) or isinstance(fe, bool) or fe < fs:
                raise _manifest_error(path, f"{iw}.frame_end must be an integer >= frame_start")
        raw.append((gloss, insts))

    glosses = sorted(seen_gloss)
    label_of = {g: i for i, g in enumerate(glosses)}
    instances = [
        Instance(i["video_id"], gloss, label_of[gloss], i["split"], i["frame_start"], i["frame_end"])
        for gloss, insts in raw
        for i in insts
    ]
    return Manifest(glosses, instances)


def load_manifest(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            entries = json.load(fh)
        except json.JSONDecodeError as e:
            raise _manifest_error(str(path), f"invalid JSON at line {e.lineno}: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise _manifest_error(str(path), f"not UTF-8 at byte {e.start}") from None
        except RecursionError:
            raise _manifest_error(str(path), "JSON nested too deeply") from None
    return parse_manifest(entries, str(path))


def merge_train_val(manifest: Manifest) -> Manifest:
    """Fold val into train; evaluation then runs on test only."""
    moved = [replace(i, split="train") if i.split == "val" else i for i in manifest.instances]
    return Manifest(list(manifest.glosses), moved)


def check_wlasl100_bounds(manifest: Manifest) -> None:
    """Sanity bounds for the 100-gloss subset: 100 glosses, 2038 videos,
    18..40 instances per gloss, 12..203 frames per instance."""
    problems = []
    if manifest.num_classes != 100:
        problems.append(f"expected 100 glosses, found {manifest.num_classes}")
    if len(manifest.instances) != 2038:
        problems.append(f"expected 2038 videos, found {len(manifest.instances)}")
    per = {g: 0 for g in manifest.glosses}
    for inst in manifest.instances:
        per[inst.gloss] += 1
        if not (12 <= inst.frame_count <= 203):
            problems.append(f"{inst.video_id}: frame count {inst.frame_count} outside [12, 203]")
    for g, n in per.items():
        if not (18 <= n <= 40):
            problems.append(f"gloss {g!r}: {n} instances outside [18, 40]")
    if problems:
        raise VslrError("manifest", "; ".join(problems[:8]))


# ---------------------------------------------------------------------------
# pipeline configuration


@dataclass
class PipelineConfig:
    frames: int = 16
    sampling: str = "even"
    crop: int = 224

    def __post_init__(self):
        if self.sampling not in ("consecutive", "even"):
            raise VslrError("config", f"sampling must be consecutive or even, got {self.sampling!r}")
        at_least(1, frames=self.frames, crop=self.crop)


def parse_kv_config(path) -> dict:
    """key = value lines; # starts a comment; later keys override earlier."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")     # one decode, so e.start is a file offset
        except UnicodeDecodeError as e:
            raise VslrError("config", f"{path}: not UTF-8 at byte {e.start}") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise VslrError("config",
                            f"{path}:{lineno}: expected key = value, got {line.strip()!r}")
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_instance_video(video_dir, inst: Instance) -> RawVideo:
    """Read an instance's container file and keep only its frame span."""
    path = f"{video_dir}/{inst.video_id}.vraw"
    video = read_raw_video(path)
    if inst.frame_end > len(video.frames):
        raise VslrError(
            "video", f"{inst.video_id}: frame_end {inst.frame_end} exceeds stored {len(video.frames)} frames"
        )
    return replace(video, frames=video.frames[inst.frame_start - 1:inst.frame_end])


def prepare_clip(video: RawVideo, pipe: PipelineConfig, train: bool,
                 rng: np.random.Generator, label=None) -> VideoClip:
    """Sampling, then random crop + flip (train) or center crop (eval) of
    the clip at its resize_dims (224 pipelines only), then RGB conversion.

    One gather reads the sampled frames; the crop is drawn from the
    resized dims after the sampling draws, and only its window is
    resampled; the resample draws nothing.  The flip and the channel swap
    are views."""
    f, order = video.frames, video.channel_order
    if f.ndim != 4 or f.shape[3] != 3 or f.dtype != np.uint8 or order not in ("BGR", "RGB"):
        raise ValueError(f"video frames must be uint8 [n, h, w, 3] in BGR or RGB order, "
                         f"got {f.shape} {f.dtype} {order!r}")
    read, recorded = sample_indices(len(f), pipe.frames, pipe.sampling, rng)
    frames = f[read]
    dims = frames.shape[1:3]
    if pipe.crop == 224:
        dims = resize_dims(*dims, pipe.crop)
    dy, dx, flip = crop_offsets(*dims, pipe.crop, rng if train else None)
    frames = _resample(frames, *dims, dy, dx, pipe.crop, pipe.crop)
    if flip:
        frames = frames[:, :, ::-1]
    if order == "BGR":
        frames = frames[..., ::-1]
    return VideoClip(frames, recorded, label, (dy, dx), flip)


# ---------------------------------------------------------------------------
# synthetic dataset


def _class_palette(c: int) -> tuple:
    bg = ((37 * c + 11) % 180 + 20, (73 * c + 41) % 180 + 20, (17 * c + 97) % 180 + 20)
    fg = ((91 * c + 153) % 200 + 55, (29 * c + 201) % 200 + 55, (61 * c + 113) % 200 + 55)
    return bg, fg


def _render_video(c: int, num_classes: int, length: int, size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Class-coded background and square color, class-coded motion
    direction, rng-jittered start position.  Returned frames are RGB."""
    bg, fg = _class_palette(c)
    side = max(2, size // 4)
    span = size - side
    angle = 2.0 * math.pi * c / max(1, num_classes)
    step = max(1.0, size / 16.0)
    y = (span / 2.0) + float(rng.integers(-size // 8, size // 8 + 1))
    x = (span / 2.0) + float(rng.integers(-size // 8, size // 8 + 1))
    frames = np.empty((length, size, size, 3), dtype=np.uint8)
    for t in range(length):
        frames[t] = np.array(bg, dtype=np.uint8)
        yy = int(round(y)) % (span + 1)
        xx = int(round(x)) % (span + 1)
        frames[t, yy:yy + side, xx:xx + side] = np.array(fg, dtype=np.uint8)
        y += step * math.sin(angle)
        x += step * math.cos(angle)
    return frames


def make_synthetic_dataset(out_dir, num_classes: int = 4, per_class: int = 6,
                           nominal_frames: int = 12, size: int = 32,
                           seed: int = 0) -> Manifest:
    """Write videos/<id>.vraw (stored BGR, so the RGB conversion is
    exercised) plus manifest.json; splits cycle train x4, val, test."""
    import os

    if num_classes < 2 or per_class < 3:
        raise VslrError("config", "need at least 2 classes and 3 videos per class")
    lo = max(4, nominal_frames - nominal_frames // 2)     # video lengths drawn from [lo, hi]
    hi = nominal_frames + nominal_frames // 2
    if hi < lo or hi > VRAW_MAX_EXTENT:
        raise VslrError("config", f"frames {nominal_frames} gives video lengths {lo}..{hi}; "
                                  f"they must form a range within 4..{VRAW_MAX_EXTENT}")
    if not 2 <= size <= VRAW_MAX_EXTENT:      # _render_video draws a square of side >= 2
        raise VslrError("config", f"size must be in [2, {VRAW_MAX_EXTENT}], got {size}")
    os.makedirs(os.path.join(out_dir, "videos"), exist_ok=True)
    entries = []
    for c in range(num_classes):
        instances = []
        for i in range(per_class):
            vid = f"c{c:02d}_v{i:02d}"
            rng = derive_rng(seed, "gen", vid)
            length = int(rng.integers(lo, hi + 1))
            rgb = _render_video(c, num_classes, length, size, rng)
            bgr = rgb[:, :, :, ::-1].copy()
            write_raw_video(os.path.join(out_dir, "videos", f"{vid}.vraw"), bgr, "BGR")
            split = "train" if i % 6 < 4 else ("val" if i % 6 == 4 else "test")
            instances.append({"video_id": vid, "split": split,
                              "frame_start": 1, "frame_end": length})
        entries.append({"gloss": f"class_{c:02d}", "instances": instances})
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
    return parse_manifest(entries, manifest_path)
