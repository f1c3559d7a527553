"""Preprocessing: sampling/padding goldens, the two-stage resize rule with
a loop-level bilinear oracle, channel conversion, clip-consistent
augmentation, manifests, the raw container reader, and the synthetic
dataset generator."""

import hashlib
import json
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vslr import lanes
from vslr import video as V
from vslr.embedding import EmbeddingConfig, clip_slots
from vslr.errors import VslrError

from reference import cube_pixels


def _frames(values, h=4, w=5):
    """One solid uint8 frame per value, so identity is checkable by pixel."""
    return np.stack([np.full((h, w, 3), v, dtype=np.uint8) for v in values])


# ---------------------------------------------------------------------------
# sampling and padding


def test_even_sampling_golden_indices():
    # floor(i * 10 / 4) for i in 0..3 -> 0, 2, 5, 7
    assert V.sample_indices(10, 4, "even", None) == ([0, 2, 5, 7], [0, 2, 5, 7])
    video = V.RawVideo(_frames(range(10)))
    clip = V.prepare_clip(video, V.PipelineConfig(4, "even", 4), False, None)
    assert clip.sampled_indices == [0, 2, 5, 7]
    assert clip.frames[:, 0, 0, 0].tolist() == [0, 2, 5, 7]


def test_even_sampling_is_pure():
    video = V.RawVideo(_frames(range(13)))
    pipe = V.PipelineConfig(5, "even", 4)
    a = V.prepare_clip(video, pipe, False, None)
    b = V.prepare_clip(video, pipe, False, None)
    assert a.sampled_indices == b.sampled_indices
    assert np.array_equal(a.frames, b.frames)


def test_consecutive_sampling_window():
    for seed in range(10):
        idx, recorded = V.sample_indices(20, 6, "consecutive", np.random.default_rng(seed))
        assert recorded == idx
        assert len(idx) == 6
        assert idx == list(range(idx[0], idx[0] + 6))
        assert 0 <= idx[0] <= 14


def test_padding_12_to_16_golden():
    """The 12-frame video padded to 16: four Bernoulli draws decide front
    (first-frame copies) vs back (last-frame copies); real order is kept."""
    rng_impl = V.derive_rng(7, "pad")
    rng_oracle = V.derive_rng(7, "pad")
    draws = [bool(rng_oracle.random() < 0.5) for _ in range(4)]
    back = sum(draws)
    front = 4 - back
    expected = [-1] * front + list(range(12)) + [-1] * back

    video = V.RawVideo(_frames(range(12)))
    clip = V.prepare_clip(video, V.PipelineConfig(16, "consecutive", 4), False, rng_impl)
    assert len(clip.frames) == 16
    assert clip.sampled_indices == expected
    values = clip.frames[:, 0, 0, 0].tolist()
    assert values == [0] * front + list(range(12)) + [11] * back


def test_padding_happens_for_even_sampling_too():
    read, recorded = V.sample_indices(3, 5, "even", np.random.default_rng(0))
    assert len(read) == 5
    assert sum(1 for i in recorded if i == -1) == 2


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), target=st.integers(1, 20),
       sampling=st.sampled_from(["consecutive", "even"]), seed=st.integers(0, 2**32 - 1))
def test_sample_indices_properties(n, target, sampling, seed):
    rng = np.random.default_rng(seed)
    read, recorded = V.sample_indices(n, target, sampling, rng)
    assert len(read) == len(recorded) == target
    assert all(0 <= i < n for i in read)
    assert all(a <= b for a, b in zip(read, read[1:]))
    assert all(r == i for r, i in zip(recorded, read) if r >= 0)
    assert recorded.count(-1) == max(0, target - n)
    if sampling == "even" and n >= target:
        assert rng.random() == np.random.default_rng(seed).random()


def test_prepare_clip_refuses_a_video_with_no_frames():
    video = V.RawVideo(np.zeros((0, 4, 5, 3), dtype=np.uint8))
    for sampling in ("consecutive", "even"):
        with pytest.raises(ValueError, match="video has no frames"):
            V.prepare_clip(video, V.PipelineConfig(4, sampling, 4), True, np.random.default_rng(0))


@pytest.mark.parametrize("frames, order", [
    (_frames(range(3)).astype(np.float32), "BGR"),
    (_frames(range(3))[..., 0], "BGR"),
    (_frames(range(3)), "YUV"),
])
def test_prepare_clip_refuses_frames_it_cannot_convert(frames, order):
    video = V.RawVideo(frames, order)
    with pytest.raises(ValueError, match=r"uint8 \[n, h, w, 3\] in BGR or RGB"):
        V.prepare_clip(video, V.PipelineConfig(2, "even", 4), False, None)


# ---------------------------------------------------------------------------
# resize rule


def test_resize_plan_goldens():
    assert V.resize_plan(113, 128) == (226, 256)
    assert V.resize_plan(200, 400) == (128, 256)   # cap wins over the min rule
    assert V.resize_plan(240, 250) == (240, 250)   # already conformant
    assert V.resize_plan(300, 300) == (256, 256)
    assert V.resize_plan(226, 256) == (226, 256)


def bilinear_oracle(px, oh, ow):
    """Per-pixel loop: half-pixel centers, clamped, round half up.  Each
    scale is one float64 ratio, as in the kernel: ``(i + 0.5) * h / oh``
    rounds differently at some shapes and moves pixels by one."""
    h, w = px.shape[:2]
    out = np.zeros((oh, ow, 3), dtype=np.uint8)
    for i in range(oh):
        sy = min(max((i + 0.5) * (h / oh) - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(ow):
            sx = min(max((j + 0.5) * (w / ow) - 0.5, 0.0), w - 1.0)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for c in range(3):
                top = float(px[y0, x0, c]) * (1 - fx) + float(px[y0, x1, c]) * fx
                bot = float(px[y1, x0, c]) * (1 - fx) + float(px[y1, x1, c]) * fx
                out[i, j, c] = int(np.floor(top * (1 - fy) + bot * fy + 0.5))
    return out


def test_bilinear_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for oh, ow in [(3, 4), (8, 8), (5, 2)]:
        px = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        got = V._resample(px[None], oh, ow, 0, 0, oh, ow)[0]
        assert np.array_equal(got, bilinear_oracle(px, oh, ow))


def test_resize_conflict_case_dims_and_pixels():
    rng = np.random.default_rng(12)
    px = rng.integers(0, 256, size=(200, 400, 3), dtype=np.uint8)
    # a crop of at most 128 leaves the plan's dims to the two-stage rule
    assert V.resize_dims(200, 400, 128) == (128, 256)
    full = V._resample(px[None], 128, 256, 0, 0, 128, 256)[0]
    assert full.shape == (128, 256, 3)
    # spot-check a handful of output pixels against the loop oracle
    probe = bilinear_oracle(px, 128, 256)
    for i, j in [(0, 0), (64, 128), (127, 255), (13, 200)]:
        assert np.array_equal(full[i, j], probe[i, j])


def test_resample_returns_input_when_conformant():
    px = np.zeros((2, 240, 250, 3), dtype=np.uint8)
    nh, nw = V.resize_dims(240, 250, 224)
    assert V._resample(px, nh, nw, 0, 0, nh, nw) is px


@pytest.mark.parametrize("h, w, want", [(240, 320, (224, 299)), (180, 320, (224, 398)),
                                        (720, 1280, (224, 398)), (100, 150, (224, 335))])
def test_resize_dims_bring_short_side_up_to_crop(h, w, want):
    """4:3 and 16:9 sources: the 256 cap leaves the short side under 224, so
    both sides scale by 224 / short in the one resample from the source,
    whose center window the eval clip is."""
    px = np.random.default_rng(h + w).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    assert V.resize_dims(h, w, 224) == want
    clip = V.prepare_clip(V.RawVideo(px[None], channel_order="RGB"),
                          V.PipelineConfig(1, "even", 224), False, np.random.default_rng(0))
    dy, dx = (want[0] - 224) // 2, (want[1] - 224) // 2
    full = V._resample(px[None], *want, 0, 0, *want)
    assert np.array_equal(clip.frames, full[:, dy:dy + 224, dx:dx + 224])


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("h, w, out_w", [(240, 320, 299), (720, 1280, 398)])
def test_prepare_clip_accepts_4x3_and_16x9_at_224(h, w, out_w, train):
    frames = np.random.default_rng(w).integers(0, 256, size=(3, h, w, 3), dtype=np.uint8)
    video = V.RawVideo(frames)
    clip = V.prepare_clip(video, V.PipelineConfig(2, "even", 224), train,
                          np.random.default_rng(1))
    assert clip.frames.shape == (2, 224, 224, 3)
    assert V.to_model_tensor(clip).shape == (2, 3, 224, 224)
    dy, dx = clip.crop_offset
    assert dy == 0
    if train:
        assert 0 <= dx <= out_w - 224
    else:
        assert dx == (out_w - 224) // 2 and clip.flipped is False


# sources of every shape class the kernel meets: (h, w, out_h, out_w)
WINDOW_SOURCES = [
    (12, 16, 18, 24),       # 4:3 upscale
    (18, 24, 9, 12),        # 4:3 downscale
    (9, 16, 14, 25),        # 16:9 upscale
    (27, 48, 10, 18),       # 16:9 downscale
    (16, 9, 25, 14),        # 9:16 upscale
    (32, 18, 12, 7),        # 9:16 downscale
    (10, 6, 7, 11),         # down in h, up in w
    (1, 7, 3, 5),           # h of 1
    (6, 1, 4, 3),           # w of 1
    (1, 1, 2, 3),
]


@pytest.mark.parametrize("h, w, out_h, out_w", WINDOW_SOURCES)
def test_resample_window_equals_oracle_slice(h, w, out_h, out_w):
    """The window kernel against the loop oracle's whole resample, sliced:
    offsets 0, the largest, and random ones, on non-square windows."""
    rng = np.random.default_rng(100 * h + w)
    frames = rng.integers(0, 256, size=(2, h, w, 3), dtype=np.uint8)
    full = np.stack([bilinear_oracle(f, out_h, out_w) for f in frames])
    for size_h, size_w in [(out_h, out_w), (max(1, out_h - 2), max(1, out_w // 2))]:
        offsets = [(0, 0), (out_h - size_h, out_w - size_w)]
        offsets += [(int(rng.integers(0, out_h - size_h + 1)),
                     int(rng.integers(0, out_w - size_w + 1))) for _ in range(4)]
        for dy, dx in offsets:
            got = V._resample(frames, out_h, out_w, dy, dx, size_h, size_w)
            assert np.array_equal(got, full[:, dy:dy + size_h, dx:dx + size_w]), (dy, dx)


# windows at least three row chunks tall: (h, w, out_h, out_w)
CHUNK_SOURCES = [
    (40, 30, 100, 75),      # upscale
    (150, 90, 70, 42),      # downscale
    (70, 70, 97, 97),       # upscale, square
    (300, 20, 96, 7),       # rows skipped at over 2x; tall and narrow
]


@pytest.mark.parametrize("h, w, out_h, out_w", CHUNK_SOURCES)
def test_resample_chunks_and_lanes_change_no_bit(h, w, out_h, out_w, lane_parts, monkeypatch):
    """Windows that cross row-chunk boundaries, at the first, a middle and
    the last offset, on one lane and on two, for 1, 2 and 3 frames: each
    is the loop oracle's whole resample, sliced."""
    size_h, size_w = out_h - 4, max(1, out_w - 3)
    assert size_h > 2 * V._RESAMPLE_ROWS
    rng = np.random.default_rng(100 * h + w)
    frames = rng.integers(0, 256, size=(3, h, w, 3), dtype=np.uint8)
    full = np.stack([bilinear_oracle(f, out_h, out_w) for f in frames])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                   # the lanes interleave as finely as they can
    try:
        for count in (1, 2, 3):
            for n_lanes in (1, 2):
                monkeypatch.setattr(lanes, "LANES", n_lanes)
                for dy, dx in [(0, 0), (2, 1), (out_h - size_h, out_w - size_w)]:
                    got = V._resample(frames[:count], out_h, out_w, dy, dx, size_h, size_w)
                    want = full[:count, dy:dy + size_h, dx:dx + size_w]
                    assert np.array_equal(got, want), (count, n_lanes, dy, dx)
    finally:
        sys.setswitchinterval(interval)
    assert lane_parts == [1] * 6 + ([1] * 3 + [2] * 3) * 2      # 1 frame runs serially


@pytest.mark.parametrize("h, w", [(200, 200), (240, 320), (180, 320), (720, 1280)])
def test_resample_at_224_does_not_depend_on_the_lane_count(h, w, monkeypatch):
    frames = np.random.default_rng(h * w).integers(0, 256, size=(16, h, w, 3), dtype=np.uint8)
    dims = V.resize_dims(h, w, 224)
    results = []
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        results.append([V._resample(frames, *dims, dy, dx, 224, 224)
                        for dy, dx in [(0, 0), ((dims[0] - 224) // 2, (dims[1] - 224) // 2),
                                       (dims[0] - 224, dims[1] - 224)]])
    for one, two in zip(*results):
        assert np.array_equal(one, two)


def test_resample_holds_row_chunks_not_frames(monkeypatch):
    """A 16-frame 240x320 clip's 224 window on two lanes: beyond its own
    output, _resample's traced peak stays under two frames' float64
    windows.  Resampling whole frames held about four per lane."""
    frames = np.random.default_rng(24).integers(0, 256, size=(16, 240, 320, 3), dtype=np.uint8)
    monkeypatch.setattr(lanes, "LANES", 2)
    V._resample(frames, 224, 299, 0, 37, 224, 224)  # the worker and its arena are up
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = V._resample(frames, 224, 299, 0, 37, 224, 224)
        peak = tracemalloc.get_traced_memory()[1] - start - out.nbytes
    finally:
        tracemalloc.stop()
    assert peak < 2 * 224 * 224 * 3 * 8, peak


@pytest.mark.parametrize("h, w, out_h, out_w", WINDOW_SOURCES[:6])
def test_crop_of_resampled_clip_with_and_without_flip(h, w, out_h, out_w):
    """Each drawn crop, flipped or not, is the oracle's resample sliced at
    the drawn offset; the draw-order tests below check that prepare_clip
    mirrors the flipped ones."""
    size = min(out_h, out_w) - 1
    frames = np.random.default_rng(h + w).integers(0, 256, size=(2, h, w, 3), dtype=np.uint8)
    full = np.stack([bilinear_oracle(f, out_h, out_w) for f in frames])
    seen = set()
    for seed in range(12):
        dy, dx, flip = V.crop_offsets(out_h, out_w, size, np.random.default_rng(seed))
        out = V._resample(frames, out_h, out_w, dy, dx, size, size)
        assert np.array_equal(out, full[:, dy:dy + size, dx:dx + size])
        seen.add(flip)
    assert seen == {False, True}


def _replay(n, pipe, dims, rng):
    """prepare_clip's draws on a twin stream: the sampling, then the crop
    offsets from the dims the clip is cropped at."""
    read, recorded = V.sample_indices(n, pipe.frames, pipe.sampling, rng)
    return read, recorded, V.crop_offsets(*dims, pipe.crop, rng)


@pytest.mark.parametrize("h, w", [(200, 200), (240, 320), (180, 320), (320, 180)])
def test_prepare_clip_at_224_keeps_the_draw_order(h, w):
    """Sampling draws, then dy, dx and flip from the resized dims; the
    resample draws nothing, so the rng's next draw (the tube mask in
    pretraining) is the same as when the whole frame was resampled."""
    frames = np.random.default_rng(h * w).integers(0, 256, size=(6, h, w, 3), dtype=np.uint8)
    video = V.RawVideo(frames)
    nh, nw = V.resize_dims(h, w, 224)
    for sampling in ("consecutive", "even"):
        pipe = V.PipelineConfig(4, sampling, 224)
        clip_rng, replay = np.random.default_rng(7), np.random.default_rng(7)
        clip = V.prepare_clip(video, pipe, True, clip_rng)
        read, recorded, (dy, dx, flip) = _replay(6, pipe, (nh, nw), replay)
        if sampling == "consecutive":
            hand = np.random.default_rng(7)     # the draws spelled out
            start = int(hand.integers(0, 6 - 4 + 1))
            assert read == list(range(start, start + 4))
            assert (dy, dx, flip) == (int(hand.integers(0, nh - 224 + 1)),
                                      int(hand.integers(0, nw - 224 + 1)),
                                      bool(hand.random() < 0.5))
        else:
            assert read == [0, 1, 3, 4]
        assert clip.sampled_indices == recorded == read
        assert (*clip.crop_offset, clip.flipped) == (dy, dx, flip)
        assert clip_rng.random() == replay.random()
        want = V._resample(frames[read], nh, nw, 0, 0, nh, nw)
        want = want[:, dy:dy + 224, dx:dx + 224, ::-1]
        assert np.array_equal(clip.frames, want[:, :, ::-1] if flip else want)


@pytest.mark.parametrize("sampling", ["consecutive", "even"])
def test_prepare_clip_pad_branch_keeps_the_draw_order(sampling):
    """A 3-frame video padded to 8 at the desk crop: the Bernoulli pad
    draws, then dy, dx and flip from the frame dims, then nothing more."""
    frames = np.random.default_rng(9).integers(0, 256, size=(3, 40, 48, 3), dtype=np.uint8)
    pipe = V.PipelineConfig(8, sampling, 32)
    for seed in range(8):
        clip_rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        clip = V.prepare_clip(V.RawVideo(frames), pipe, True, clip_rng)
        read, recorded, (dy, dx, flip) = _replay(3, pipe, (40, 48), replay)
        assert recorded.count(-1) == 5
        assert clip.sampled_indices == recorded
        assert (*clip.crop_offset, clip.flipped) == (dy, dx, flip)
        assert clip_rng.random() == replay.random()
        want = frames[read, dy:dy + 32, dx:dx + 32, ::-1]
        assert np.array_equal(clip.frames, want[:, :, ::-1] if flip else want)


def test_prepare_clip_at_224_in_eval_takes_the_center_and_draws_nothing():
    frames = np.random.default_rng(3).integers(0, 256, size=(6, 180, 320, 3), dtype=np.uint8)
    rng = np.random.default_rng(7)
    clip = V.prepare_clip(V.RawVideo(frames), V.PipelineConfig(4, "even", 224), False, rng)
    nh, nw = V.resize_dims(180, 320, 224)
    assert (nh, nw) == (224, 398)
    assert (*clip.crop_offset, clip.flipped) == V.crop_offsets(nh, nw, 224) == (0, 87, False)
    assert rng.random() == np.random.default_rng(7).random()


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("h, w, crop", [(240, 320, 224), (180, 320, 224), (32, 32, 32), (40, 48, 32)])
def test_prepared_clip_does_not_depend_on_stored_channel_order(tmp_path, h, w, crop, train,
                                                              lane_parts, monkeypatch):
    """One picture stored BGR and stored RGB prepares to the same uint8 RGB
    clip and the same model tensor, from the same draws: a prepared clip
    needs no channel order of its own.  The tensor is the same cast on one
    lane and on two; a 224 clip casts its frame halves on two lanes, a 32
    clip is one part on either."""
    rgb = np.random.default_rng(h * w + crop).integers(0, 256, size=(10, h, w, 3), dtype=np.uint8)
    V.write_raw_video(tmp_path / "bgr.vraw", rgb[..., ::-1], "BGR")
    V.write_raw_video(tmp_path / "rgb.vraw", rgb, "RGB")
    pipe = V.PipelineConfig(8, "consecutive", crop)
    a, b = (V.prepare_clip(V.read_raw_video(tmp_path / f"{name}.vraw"), pipe, train,
                           np.random.default_rng(11))
            for name in ("bgr", "rgb"))
    for clip in (a, b):
        assert clip.frames.dtype == np.uint8 and clip.frames.shape == (8, crop, crop, 3)
    assert (a.sampled_indices, a.crop_offset, a.flipped) == (b.sampled_indices, b.crop_offset, b.flipped)
    lane_parts.clear()
    tensors = []
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        tensors += [V.to_model_tensor(a), V.to_model_tensor(b)]
    for t in tensors[1:]:
        assert np.array_equal(t, tensors[0])
    assert lane_parts == [1, 1] + ([2, 2] if crop == 224 else [1, 1])


# ---------------------------------------------------------------------------
# augmentation, cropping, model tensors


def test_augment_applies_one_transform_to_all_frames():
    rng_px = np.random.default_rng(14)
    frames = rng_px.integers(0, 256, size=(5, 10, 12, 3), dtype=np.uint8)
    video = V.RawVideo(frames, channel_order="RGB")
    out = V.prepare_clip(video, V.PipelineConfig(5, "even", 6), True, np.random.default_rng(3))
    dy, dx = out.crop_offset
    for orig, new in zip(frames, out.frames):
        ref = orig[dy:dy + 6, dx:dx + 6]
        if out.flipped:
            ref = ref[:, ::-1]
        assert np.array_equal(new, ref)
    assert out.sampled_indices == list(range(5))


def test_center_crop_offsets():
    px = np.arange(6 * 8 * 3, dtype=np.uint8).reshape(6, 8, 3)
    video = V.RawVideo(px[None], channel_order="RGB")
    out = V.prepare_clip(video, V.PipelineConfig(1, "even", 4), False, None)
    assert out.crop_offset == (1, 2)
    assert out.flipped is False
    assert np.array_equal(out.frames[0], px[1:5, 2:6])


def test_crop_larger_than_frame_rejected():
    video = V.RawVideo(_frames([1]))
    with pytest.raises(ValueError, match="exceeds"):
        V.prepare_clip(video, V.PipelineConfig(1, "even", 64), False, None)


def test_to_model_tensor_layout_and_scaling():
    px = np.full((4, 5, 3), 128, dtype=np.uint8)
    px[0, 0] = [255, 0, 10]
    clip = V.VideoClip(np.stack([px] * 3), [0, 1, 2], None, (0, 0), False)
    arr = V.to_model_tensor(clip)
    assert arr.shape == (3, 3, 4, 5)
    assert arr.dtype == np.float32
    assert arr.min() >= 0.0 and arr.max() <= 1.0
    assert arr[0, 0, 0, 0] == np.float32(1.0)
    assert arr[0, 1, 0, 0] == np.float32(0.0)
    assert arr[0, 0, 1, 1] == np.float32(128) / np.float32(255)


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_to_model_tensor_writes_into_a_batch_slot(n_lanes, monkeypatch):
    """``out=`` gets the bits of a new array's cast, and only its slot
    changes; at 224 px the cast runs two parts on two lanes."""
    monkeypatch.setattr(lanes, "LANES", n_lanes)
    frames = np.random.default_rng(15).integers(0, 256, size=(8, 224, 224, 3), dtype=np.uint8)
    clip = V.VideoClip(frames, list(range(8)), None, (0, 0), False)
    batch = np.full((2, 8, 3, 224, 224), np.nan, dtype=np.float32)
    slot = batch[1]
    assert V.to_model_tensor(clip, np.float32, out=slot) is slot
    assert np.array_equal(batch[1], V.to_model_tensor(clip, np.float32))
    assert np.isnan(batch[0]).all()


@pytest.mark.parametrize("n_lanes", [1, 2])
@pytest.mark.parametrize("size, frames, patch, td", [(32, 8, 8, 1), (32, 8, 8, 2),
                                                     (224, 16, 16, 1), (224, 16, 16, 2)])
def test_to_model_tensor_into_a_cube_row_slot(size, frames, patch, td, n_lanes, monkeypatch):
    """Cast into a batch's ``clip_slots`` slot, from a channel-reversed
    view: the rows get the bits of the [f, 3, h, w] cast, itself the
    one-pass ``np.divide(src, 255, dtype=)``, then ``cube_pixels``, and
    only that slot's rows change."""
    monkeypatch.setattr(lanes, "LANES", n_lanes)
    bgr = np.random.default_rng(16).integers(0, 256, size=(frames, size, size, 3), dtype=np.uint8)
    clip = V.VideoClip(bgr[..., ::-1], list(range(frames)), None, (0, 0), False)
    cfg = EmbeddingConfig("joint", 8, size, patch, frames, td)
    for dtype in (np.float32, np.float64):
        rows = np.full((2, cfg.n_tokens, cfg.cube_dim), np.nan, dtype=dtype)
        slot = clip_slots(rows, cfg)[1]
        assert V.to_model_tensor(clip, dtype, out=slot) is slot
        cast = V.to_model_tensor(clip, dtype)
        assert np.array_equal(cast, np.divide(np.transpose(clip.frames, (0, 3, 1, 2)), 255,
                                              dtype=dtype))
        assert np.array_equal(rows[1], cube_pixels(cast[None], cfg)[0])
        assert np.isnan(rows[0]).all()


def test_to_model_tensor_rejects_an_out_that_does_not_split_the_clip():
    clip = V.VideoClip(np.zeros((4, 6, 8, 3), dtype=np.uint8), [0, 1, 2, 3], None, (0, 0), False)
    for shape in [(4, 3, 8, 6),               # h and w swapped
                  (12, 6, 8),                 # frames and channels merged
                  (2, 6, 6, 8),               # the axes cut at other places
                  (4, 3, 6, 8, 1, 2)]:        # one element too many
        with pytest.raises(ValueError, match="does not split a clip of"):
            V.to_model_tensor(clip, np.float32, out=np.empty(shape, dtype=np.float32))
    fine = np.empty((2, 2, 3, 3, 2, 8, 1), dtype=np.float32)
    assert V.to_model_tensor(clip, np.float32, out=fine) is fine


# ---------------------------------------------------------------------------
# manifest


def _valid_entries():
    return [
        {"gloss": "book", "instances": [
            {"video_id": "b0", "split": "train", "frame_start": 1, "frame_end": 20},
            {"video_id": "b1", "split": "test", "frame_start": 3, "frame_end": 40},
        ]},
        {"gloss": "apple", "instances": [
            {"video_id": "a0", "split": "val", "frame_start": 1, "frame_end": 15},
        ]},
    ]


def test_manifest_labels_follow_sorted_gloss_order():
    m = V.parse_manifest(_valid_entries())
    assert m.glosses == ["apple", "book"]
    by_id = {i.video_id: i for i in m.instances}
    assert by_id["a0"].label == 0
    assert by_id["b0"].label == 1
    assert by_id["b1"].frame_count == 38


def test_manifest_errors_name_the_json_path():
    bad = _valid_entries()
    bad[1]["instances"][0]["split"] = "dev"
    with pytest.raises(ValueError, match=r"entries\[1\].instances\[0\].split"):
        V.parse_manifest(bad)
    dup = _valid_entries()
    dup[1]["instances"][0]["video_id"] = "b0"
    with pytest.raises(ValueError, match="duplicates"):
        V.parse_manifest(dup)
    nostart = _valid_entries()
    nostart[0]["instances"][1]["frame_start"] = 0
    with pytest.raises(ValueError, match=r"entries\[0\].instances\[1\].frame_start"):
        V.parse_manifest(nostart)
    for vid in ("../x", "/etc/passwd", "a\\b", "a\0b", ".", ".."):
        escape = _valid_entries()
        escape[1]["instances"][0]["video_id"] = vid
        with pytest.raises(ValueError, match=r"entries\[1\].instances\[0\].video_id "
                                             r"must be a plain file name"):
            V.parse_manifest(escape)


def test_load_manifest_reports_json_line(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[\n{"gloss": "x",}\n]')
    with pytest.raises(ValueError, match="line 2"):
        V.load_manifest(path)


def test_merge_train_val_leaves_no_val():
    merged = V.merge_train_val(V.parse_manifest(_valid_entries()))
    counts = merged.counts()
    assert counts["val"] == 0
    assert counts["train"] == 2
    assert counts["test"] == 1


_MANIFEST_KEYS = st.sampled_from(["gloss", "instances", "video_id", "split",
                                  "frame_start", "frame_end"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 50) | st.floats() | st.text(max_size=4)
    | st.sampled_from([*V.SPLITS, "..", "a/b"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_MANIFEST_KEYS, inner, max_size=6),
    max_leaves=30)


@st.composite
def _manifest_values(draw):
    """Arbitrary JSON, or a valid manifest with one field set to arbitrary JSON."""
    if draw(st.booleans()):
        return draw(_JSON)
    entries = _valid_entries()
    entry = draw(st.sampled_from(entries))
    target = entry if draw(st.booleans()) else draw(st.sampled_from(entry["instances"]))
    target[draw(_MANIFEST_KEYS)] = draw(_JSON)
    return entries


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value=_manifest_values())
def test_parse_manifest_fuzz(value):
    """Every JSON value either parses or raises VslrError of class manifest."""
    try:
        m = V.parse_manifest(value)
    except VslrError as e:
        assert e.cls == "manifest" and str(e).startswith("manifest <memory>: ")
        return
    assert m.instances and all(0 <= i.label < m.num_classes for i in m.instances)


def test_wlasl100_bounds_reject_small_manifest():
    m = V.parse_manifest(_valid_entries())
    with pytest.raises(ValueError, match="100 glosses"):
        V.check_wlasl100_bounds(m)


# ---------------------------------------------------------------------------
# raw container and synthetic data


def test_raw_video_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    frames = rng.integers(0, 256, size=(6, 8, 9, 3), dtype=np.uint8)
    path = tmp_path / "clip.vraw"
    V.write_raw_video(path, frames, "BGR")
    back = V.read_raw_video(path)
    assert back.channel_order == "BGR"
    assert back.frames.shape == (6, 8, 9, 3) and back.frames.dtype == np.uint8
    assert np.array_equal(back.frames, frames)


def test_truncated_raw_header_rejected(tmp_path):
    path = tmp_path / "clip.vraw"
    V.write_raw_video(path, np.zeros((2, 3, 4, 3), dtype=np.uint8), "BGR")
    blob = path.read_bytes()
    for cut in (4, 8, 11):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"raw video: truncated header, {cut} of 12"):
            V.read_raw_video(path)


def test_zero_sized_raw_frames_rejected(tmp_path):
    path = tmp_path / "clip.vraw"
    for n, h, w in [(3, 0, 4), (3, 4, 0), (0, 0, 0)]:
        path.write_bytes(V.VRAW_MAGIC + struct.pack("<BBHHH", 1, 0, n, h, w))
        with pytest.raises(ValueError, match=f"raw video: zero-sized frames {h}x{w}"):
            V.read_raw_video(path)


def test_write_raw_video_rejects_frames_it_cannot_store(tmp_path):
    path = tmp_path / "v.vraw"
    for shape in ((2, 0, 4, 3), (2, 4, 0, 3), (65536, 1, 1, 3), (1, 65536, 1, 3), (1, 1, 65536, 3)):
        with pytest.raises(VslrError, match="raw video: cannot store") as e:
            V.write_raw_video(path, np.zeros(shape, dtype=np.uint8))
        assert e.value.cls == "video" and not path.exists()
    edge = np.zeros((1, 1, 65535, 3), dtype=np.uint8)
    V.write_raw_video(path, edge)
    assert V.read_raw_video(path).frames.shape == edge.shape


@st.composite
def _vraw_blobs(draw):
    """Arbitrary bytes, or a header of small fields with a payload that is
    sometimes the right length, optionally cut anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    fields = [draw(st.integers(0, 2)), draw(st.integers(0, 2)),
              draw(st.integers(0, 3)), draw(st.integers(0, 4)), draw(st.integers(0, 4))]
    need = fields[2] * fields[3] * fields[4] * 3
    size = draw(st.one_of(st.just(need), st.integers(0, need + 8)))
    blob = V.VRAW_MAGIC + struct.pack("<BBHHH", *fields) + draw(st.binary(min_size=size, max_size=size))
    return blob[:draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_vraw_blobs())
def test_read_raw_video_fuzz(tmp_path, blob):
    """Every byte string either reads as uint8 [n, h, w, 3] frames with
    h, w > 0 or raises one ValueError whose message starts 'raw video:'."""
    path = tmp_path / "fuzz.vraw"
    path.write_bytes(blob)
    try:
        video = V.read_raw_video(path)
    except ValueError as e:
        assert str(e).startswith("raw video:")
        return
    n, h, w = struct.unpack_from("<HHH", blob, 6)
    assert video.frames.shape == (n, h, w, 3) and h > 0 and w > 0
    assert video.frames.dtype == np.uint8
    assert video.frames.tobytes() == blob[12:]


def test_synthetic_dataset_structure_and_determinism(tmp_path):
    m1 = V.make_synthetic_dataset(tmp_path / "d1", num_classes=3, per_class=6,
                                  nominal_frames=10, size=16, seed=5)
    m2 = V.make_synthetic_dataset(tmp_path / "d2", num_classes=3, per_class=6,
                                  nominal_frames=10, size=16, seed=5)
    assert m1.num_classes == 3
    assert len(m1.instances) == 18
    counts = m1.counts()
    assert (counts["train"], counts["val"], counts["test"]) == (12, 3, 3)
    for inst in m1.instances:
        a = (tmp_path / "d1" / "videos" / f"{inst.video_id}.vraw").read_bytes()
        b = (tmp_path / "d2" / "videos" / f"{inst.video_id}.vraw").read_bytes()
        assert a == b
    assert json.loads((tmp_path / "d1" / "manifest.json").read_text()) == \
        json.loads((tmp_path / "d2" / "manifest.json").read_text())


def test_synthetic_videos_store_bgr():
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        m = V.make_synthetic_dataset(d, num_classes=2, per_class=3,
                                     nominal_frames=8, size=16, seed=1)
        video = V.load_instance_video(f"{d}/videos", m.instances[0])
        assert video.channel_order == "BGR"


# ---------------------------------------------------------------------------
# full pipeline


def test_prepare_clip_deterministic_per_seed(tmp_path):
    m = V.make_synthetic_dataset(tmp_path, num_classes=2, per_class=3,
                                 nominal_frames=16, size=32, seed=9)
    inst = m.instances[0]
    pipe = V.PipelineConfig(frames=8, sampling="consecutive", crop=32)
    video = V.load_instance_video(tmp_path / "videos", inst)

    a = V.prepare_clip(video, pipe, True, V.derive_rng(1, inst.video_id, 0))
    b = V.prepare_clip(video, pipe, True, V.derive_rng(1, inst.video_id, 0))
    ta, tb = V.to_model_tensor(a), V.to_model_tensor(b)
    assert np.array_equal(ta, tb)

    # across epochs the derived stream changes and so (eventually) do clips
    variants = {V.to_model_tensor(
        V.prepare_clip(video, pipe, True, V.derive_rng(1, inst.video_id, e))).tobytes()
        for e in range(10)}
    assert len(variants) > 1


def test_prepare_clip_applies_resize_only_at_224():
    rng = np.random.default_rng(21)
    # square input: 230x230 is conformant, so only a 224 pipeline resizes it
    frames = rng.integers(0, 256, size=(8, 230, 230, 3), dtype=np.uint8)
    video = V.RawVideo(frames)
    clip = V.prepare_clip(video, V.PipelineConfig(4, "even", 224), False,
                          np.random.default_rng(0))
    assert clip.frames.shape[1:3] == (224, 224)

    # 100x150 scales to 226x339 then caps at 171x256, whose short side is
    # under the crop; it then rises to 224, so the clip resamples straight
    # from 100x150 to 224x335 and the center crop lands at column 55
    small = V.RawVideo(rng.integers(0, 256, size=(8, 100, 150, 3), dtype=np.uint8))
    assert V.resize_plan(100, 150) == (171, 256)
    clip = V.prepare_clip(small, V.PipelineConfig(4, "even", 224), False,
                          np.random.default_rng(0))
    assert clip.frames.shape == (4, 224, 224, 3)
    assert clip.crop_offset == (0, 55)
    frame = small.frames[clip.sampled_indices[1]][None]
    full = V._resample(frame, 224, 335, 0, 0, 224, 335)[0]
    assert np.array_equal(clip.frames[1], full[:, 55:279, ::-1])


def test_prepare_clip_small_crop_skips_resize():
    video = V.RawVideo(_frames(range(8), 32, 32))
    pipe = V.PipelineConfig(frames=4, sampling="even", crop=32)
    clip = V.prepare_clip(video, pipe, False, np.random.default_rng(0))
    assert clip.frames.shape[1:3] == (32, 32)


def test_derive_seed_is_stable_and_key_sensitive():
    assert V.derive_seed(3, "abc") == V.derive_seed(3, "abc")
    assert V.derive_seed(3, "abc") != V.derive_seed(4, "abc")
    assert V.derive_seed(3, "abc") != V.derive_seed(3, "abd")
    r1 = V.derive_rng(0, "v", 1)
    r2 = V.derive_rng(0, "v", 1)
    assert r1.integers(0, 1000, 5).tolist() == r2.integers(0, 1000, 5).tolist()


def _clips_digest(clips):
    h = hashlib.sha256()
    for clip in clips:
        h.update(np.ascontiguousarray(clip.frames).tobytes())
        h.update(V.to_model_tensor(clip).tobytes())
        h.update(repr((clip.sampled_indices, clip.crop_offset, clip.flipped)).encode())
    return h.hexdigest()[:16]


# sha256 prefixes of the prepared uint8 frames, float32 tensors, indices,
# crop offset and flip, recorded from the per-frame pipeline this one
# replaced: (synthetic set at crop 32, one 200x200 source at 224)
PREPARED_DIGESTS = {
    ("consecutive", True): ("9073bec3ea88ea51", "3806bf7558633713"),
    ("consecutive", False): ("c7d600588571df1f", "4cd45f71996092a0"),
    ("even", True): ("b692d3d7bc6742f9", "ba65c3f292814b37"),
    ("even", False): ("f63759473717cc3e", "a720736e4081d7cd"),
}


@pytest.mark.parametrize("sampling, train", sorted(PREPARED_DIGESTS))
def test_prepared_clips_match_recorded_digests(tmp_path, sampling, train):
    m = V.make_synthetic_dataset(tmp_path, num_classes=2, per_class=3,
                                 nominal_frames=12, size=32, seed=4)
    assert min(i.frame_count for i in m.instances) < 8    # padding is covered
    src = np.random.default_rng(5).integers(0, 256, size=(10, 200, 200, 3), dtype=np.uint8)
    V.write_raw_video(tmp_path / "big.vraw", src, "BGR")
    big = V.read_raw_video(tmp_path / "big.vraw")

    pipe = V.PipelineConfig(8, sampling, 32)
    clips = [V.prepare_clip(V.load_instance_video(tmp_path / "videos", i), pipe, train,
                            V.derive_rng(17, i.video_id, sampling, train))
             for i in m.instances]
    c224 = V.prepare_clip(big, V.PipelineConfig(8, sampling, 224), train,
                          V.derive_rng(17, "big", sampling, train))
    assert (_clips_digest(clips), _clips_digest([c224])) == PREPARED_DIGESTS[sampling, train]
