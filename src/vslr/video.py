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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import VslrError, at_least

VRAW_MAGIC = b"VRAW"
VRAW_MAX_EXTENT = 0xFFFF       # count, height and width are u16 header fields
SPLITS = ("train", "val", "test")

RESIZE_MIN = 226
RESIZE_MAX = 256


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
    order, plus an identifier."""

    frames: np.ndarray
    source_id: str = ""
    channel_order: str = "BGR"


@dataclass
class VideoClip:
    """A fixed-length uint8 [n, h, w, 3] frame array ready for (or mid-way
    through) preprocessing.

    sampled_indices maps each clip frame back to its source frame, with -1
    marking padded duplicates.  crop_offset/flipped record the one
    augmentation decision applied to every frame of the clip.
    """

    frames: np.ndarray
    source_id: str = ""
    sampled_indices: list = field(default_factory=list)
    label: int | None = None
    crop_offset: tuple | None = None
    flipped: bool | None = None
    channel_order: str = "BGR"

    def validate(self) -> None:
        f = self.frames
        if f.ndim != 4 or f.shape[3] != 3 or f.dtype != np.uint8:
            raise ValueError(f"clip frames must be uint8 [n, h, w, 3], got {f.shape} {f.dtype}")
        if len(f) != len(self.sampled_indices):
            raise ValueError("clip frames and sampled_indices lengths differ")
        if not len(f):
            raise ValueError("clip has no frames")
        if self.channel_order not in ("BGR", "RGB"):
            raise ValueError(f"unknown channel order {self.channel_order!r}")


# ---------------------------------------------------------------------------
# sampling and padding


def _gather(video: RawVideo, idx: list, sampled: list) -> VideoClip:
    clip = VideoClip(video.frames[idx], video.source_id, sampled,
                     channel_order=video.channel_order)
    clip.validate()
    return clip


def pad_clip(video: RawVideo, target: int, rng: np.random.Generator) -> VideoClip:
    """Pad a short video up to target frames.

    Each missing slot draws Bernoulli(0.5): heads appends a copy of the
    last frame, tails prepends a copy of the first.  Real frame order is
    preserved; padded slots carry sampled index -1.
    """
    n = len(video.frames)
    if not n:
        raise ValueError("pad_clip: no frames to pad")
    if n > target:
        raise ValueError(f"pad_clip: {n} frames already exceed target {target}")
    back = int(np.count_nonzero(rng.random(target - n) < 0.5))
    front = target - n - back
    real = list(range(n))
    return _gather(video, [0] * front + real + [n - 1] * back, [-1] * front + real + [-1] * back)


def sample_consecutive(video: RawVideo, target: int, rng: np.random.Generator) -> VideoClip:
    """Random-start run of target consecutive frames; pads short videos."""
    n = len(video.frames)
    if n < target:
        return pad_clip(video, target, rng)
    start = int(rng.integers(0, n - target + 1))
    idx = list(range(start, start + target))
    return _gather(video, idx, idx)


def sample_even(video: RawVideo, target: int, rng: np.random.Generator | None = None) -> VideoClip:
    """Evenly spread indices floor(i * len / target); deterministic.

    rng is only consulted when the video is shorter than target and
    padding draws are needed.
    """
    n = len(video.frames)
    if n < target:
        if rng is None:
            raise ValueError("sample_even: rng required to pad a short video")
        return pad_clip(video, target, rng)
    idx = [n * i // target for i in range(target)]
    return _gather(video, idx, idx)


# ---------------------------------------------------------------------------
# resize and channel order


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def resize_bilinear(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers, rounded to nearest."""
    h, w = pixels.shape[:2]
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    sy = np.clip(sy, 0.0, h - 1.0)
    sx = np.clip(sx, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    p = pixels.astype(np.float64)
    top = p[y0][:, x0] * (1 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1 - wx) + p[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.floor(out + 0.5).clip(0, 255).astype(np.uint8)


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


def resize_rule(frames: np.ndarray, crop: int) -> np.ndarray:
    """Resample a uint8 [n, h, w, 3] clip to resize_plan's dims.

    When the plan leaves the short side under crop (a 4:3 or 16:9 source
    under the 256 cap), both sides scale by crop / short instead, in the
    same single resample: like the WLASL reference loader, the clip is
    resampled, never padded.  Returns the input itself when nothing moves.
    """
    n, h, w, _ = frames.shape
    nh, nw = resize_plan(h, w)
    if min(nh, nw) < crop:
        s = crop / min(nh, nw)
        nh, nw = _round_half_up(nh * s), _round_half_up(nw * s)
    if (nh, nw) == (h, w):
        return frames
    out = np.empty((n, nh, nw, 3), dtype=np.uint8)
    # Frame by frame on purpose: one resample over a whole [16, 200, 200, 3]
    # clip measured slower (106-130 ms against 72-88 ms on one Xeon core),
    # as its float64 temporaries, about 20 MB each, fall out of cache.
    for i in range(n):
        out[i] = resize_bilinear(frames[i], nh, nw)
    return out


def bgr_to_rgb(clip: VideoClip) -> VideoClip:
    """Swap the channel axis and toggle the recorded order; an involution."""
    order = "RGB" if clip.channel_order == "BGR" else "BGR"
    return replace(clip, frames=clip.frames[..., ::-1], channel_order=order)


# ---------------------------------------------------------------------------
# augmentation and cropping


def _crop_all(clip: VideoClip, dy: int, dx: int, size: int, flip: bool) -> VideoClip:
    frames = clip.frames[:, dy:dy + size, dx:dx + size, :]
    if flip:
        frames = frames[:, :, ::-1]
    out = replace(clip, frames=frames, crop_offset=(dy, dx), flipped=flip)
    out.validate()
    return out


def augment_train(clip: VideoClip, rng: np.random.Generator, size: int = 224) -> VideoClip:
    """One random size x size crop offset and one horizontal-flip draw,
    applied identically to every frame.  Draw order: dy, dx, flip."""
    h, w = clip.frames.shape[1:3]
    if h < size or w < size:
        raise VslrError("config", f"crop size {size} exceeds frame {h}x{w}")
    dy = int(rng.integers(0, h - size + 1))
    dx = int(rng.integers(0, w - size + 1))
    flip = bool(rng.random() < 0.5)
    return _crop_all(clip, dy, dx, size, flip)


def crop_center(clip: VideoClip, size: int = 224) -> VideoClip:
    h, w = clip.frames.shape[1:3]
    if h < size or w < size:
        raise VslrError("config", f"crop size {size} exceeds frame {h}x{w}")
    return _crop_all(clip, (h - size) // 2, (w - size) // 2, size, False)


def to_model_tensor(clip: VideoClip, dtype=np.float32) -> np.ndarray:
    """Cast an RGB clip to [frames, 3, h, w] scaled to [0, 1]."""
    clip.validate()
    if clip.channel_order != "RGB":
        raise ValueError("model tensors require RGB frames; convert first")
    dt = np.dtype(dtype)
    f, h, w, _ = clip.frames.shape
    # one cast straight into C order: casting the channel-reversed view
    # that bgr_to_rgb leaves, then transposing, is ~3x slower
    return np.divide(np.transpose(clip.frames, (0, 3, 1, 2)), 255,
                     out=np.empty((f, 3, h, w), dtype=dt), dtype=dt)


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


def read_raw_video(path, source_id: str = "") -> RawVideo:
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
    return RawVideo(frames, source_id or str(path), order)


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
    video = read_raw_video(path, inst.video_id)
    if inst.frame_end > len(video.frames):
        raise VslrError(
            "video", f"{inst.video_id}: frame_end {inst.frame_end} exceeds stored {len(video.frames)} frames"
        )
    return replace(video, frames=video.frames[inst.frame_start - 1:inst.frame_end])


def prepare_clip(video: RawVideo, pipe: PipelineConfig, train: bool,
                 rng: np.random.Generator, label=None) -> VideoClip:
    """Sampling, resize rule (224 pipelines only), RGB conversion, then
    random crop + flip (train) or center crop (eval)."""
    if pipe.sampling == "consecutive":
        clip = sample_consecutive(video, pipe.frames, rng)
    else:
        clip = sample_even(video, pipe.frames, rng)
    if pipe.crop == 224:
        clip.frames = resize_rule(clip.frames, pipe.crop)
    if clip.channel_order == "BGR":
        clip = bgr_to_rgb(clip)
    clip.label = label
    return augment_train(clip, rng, pipe.crop) if train else crop_center(clip, pipe.crop)


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
