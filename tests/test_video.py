"""Preprocessing: sampling/padding goldens, the two-stage resize rule with
a loop-level bilinear oracle, channel conversion, clip-consistent
augmentation, manifests, and the synthetic dataset generator."""

import json

import numpy as np
import pytest

from vslr import video as V


def _frames(values, h=4, w=5):
    """One solid uint8 frame per value, so identity is checkable by pixel."""
    return [V.Frame(np.full((h, w, 3), v, dtype=np.uint8)) for v in values]


# ---------------------------------------------------------------------------
# sampling and padding


def test_even_sampling_golden_indices():
    # floor(i * 10 / 4) for i in 0..3 -> 0, 2, 5, 7
    video = V.RawVideo(_frames(range(10)), "v")
    clip = V.sample_even(video, 4)
    assert clip.sampled_indices == [0, 2, 5, 7]
    assert [f.pixels[0, 0, 0] for f in clip.frames] == [0, 2, 5, 7]


def test_even_sampling_is_pure():
    video = V.RawVideo(_frames(range(13)), "v")
    a = V.sample_even(video, 5)
    b = V.sample_even(video, 5)
    assert a.sampled_indices == b.sampled_indices
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.pixels, fb.pixels)


def test_consecutive_sampling_window():
    video = V.RawVideo(_frames(range(20)), "v")
    for seed in range(10):
        clip = V.sample_consecutive(video, 6, np.random.default_rng(seed))
        idx = clip.sampled_indices
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

    video = V.RawVideo(_frames(range(12)), "v")
    clip = V.sample_consecutive(video, 16, rng_impl)
    assert len(clip.frames) == 16
    assert clip.sampled_indices == expected
    values = [int(f.pixels[0, 0, 0]) for f in clip.frames]
    assert values == [0] * front + list(range(12)) + [11] * back


def test_padding_happens_for_even_sampling_too():
    video = V.RawVideo(_frames(range(3)), "v")
    clip = V.sample_even(video, 5, np.random.default_rng(0))
    assert len(clip.frames) == 5
    assert sum(1 for i in clip.sampled_indices if i == -1) == 2
    with pytest.raises(ValueError, match="rng"):
        V.sample_even(video, 5)


def test_pad_clip_rejects_oversized_input():
    with pytest.raises(ValueError, match="exceed"):
        V.pad_clip(_frames(range(5)), 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# resize rule


def test_resize_plan_goldens():
    assert V.resize_plan(113, 128) == (226, 256)
    assert V.resize_plan(200, 400) == (128, 256)   # cap wins over the min rule
    assert V.resize_plan(240, 250) == (240, 250)   # already conformant
    assert V.resize_plan(300, 300) == (256, 256)
    assert V.resize_plan(226, 256) == (226, 256)


def bilinear_oracle(px, oh, ow):
    """Per-pixel loop: half-pixel centers, clamped, round half up."""
    h, w = px.shape[:2]
    out = np.zeros((oh, ow, 3), dtype=np.uint8)
    for i in range(oh):
        sy = min(max((i + 0.5) * h / oh - 0.5, 0.0), h - 1.0)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(ow):
            sx = min(max((j + 0.5) * w / ow - 0.5, 0.0), w - 1.0)
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
        assert np.array_equal(V.resize_bilinear(px, oh, ow), bilinear_oracle(px, oh, ow))


def test_resize_rule_conflict_case_dims_and_pixels():
    rng = np.random.default_rng(12)
    px = rng.integers(0, 256, size=(200, 400, 3), dtype=np.uint8)
    out = V.resize_rule(V.Frame(px))
    assert (out.height, out.width) == (128, 256)
    # spot-check a handful of output pixels against the loop oracle
    full = V.resize_bilinear(px, 128, 256)
    probe = bilinear_oracle(px, 128, 256)
    for i, j in [(0, 0), (64, 128), (127, 255), (13, 200)]:
        assert np.array_equal(full[i, j], probe[i, j])
    assert np.array_equal(out.pixels, full)


def test_resize_rule_returns_input_when_conformant():
    px = np.zeros((240, 250, 3), dtype=np.uint8)
    f = V.Frame(px)
    assert V.resize_rule(f) is f


# ---------------------------------------------------------------------------
# channel order, augmentation, cropping


def test_bgr_to_rgb_is_an_involution():
    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
    f = V.Frame(px, "BGR")
    swapped = V.bgr_to_rgb(f)
    assert swapped.channel_order == "RGB"
    assert np.array_equal(swapped.pixels, px[:, :, ::-1])
    back = V.bgr_to_rgb(swapped)
    assert back.channel_order == "BGR"
    assert np.array_equal(back.pixels, px)


def test_augment_applies_one_transform_to_all_frames():
    rng_px = np.random.default_rng(14)
    frames = [V.Frame(rng_px.integers(0, 256, size=(10, 12, 3), dtype=np.uint8), "RGB")
              for _ in range(5)]
    clip = V.VideoClip(frames, "v", list(range(5)))
    out = V.augment_train(clip, np.random.default_rng(3), size=6)
    dy, dx = out.crop_offset
    for orig, new in zip(frames, out.frames):
        ref = orig.pixels[dy:dy + 6, dx:dx + 6]
        if out.flipped:
            ref = ref[:, ::-1]
        assert np.array_equal(new.pixels, ref)
    assert out.sampled_indices == clip.sampled_indices


def test_center_crop_offsets():
    px = np.arange(6 * 8 * 3, dtype=np.uint8).reshape(6, 8, 3)
    clip = V.VideoClip([V.Frame(px, "RGB")], "v", [0])
    out = V.crop_center(clip, 4)
    assert out.crop_offset == (1, 2)
    assert out.flipped is False
    assert np.array_equal(out.frames[0].pixels, px[1:5, 2:6])


def test_crop_larger_than_frame_rejected():
    clip = V.VideoClip(_frames([1]), "v", [0])
    with pytest.raises(ValueError, match="exceeds"):
        V.crop_center(clip, 64)


def test_to_model_tensor_layout_and_scaling():
    px = np.full((4, 5, 3), 128, dtype=np.uint8)
    px[0, 0] = [255, 0, 10]
    clip = V.VideoClip([V.Frame(px, "RGB")] * 3, "v", [0, 1, 2])
    arr = V.to_model_tensor(clip)
    assert arr.shape == (3, 3, 4, 5)
    assert arr.dtype == np.float32
    assert arr.min() >= 0.0 and arr.max() <= 1.0
    assert arr[0, 0, 0, 0] == np.float32(1.0)
    assert arr[0, 1, 0, 0] == np.float32(0.0)
    assert arr[0, 0, 1, 1] == np.float32(128) / np.float32(255)
    bgr_clip = V.VideoClip([V.Frame(px, "BGR")], "v", [0])
    with pytest.raises(ValueError, match="RGB"):
        V.to_model_tensor(bgr_clip)


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
    back = V.read_raw_video(path, "clip")
    assert len(back.frames) == 6
    assert back.frames[0].channel_order == "BGR"
    assert np.array_equal(np.stack([f.pixels for f in back.frames]), frames)


def test_truncated_raw_header_rejected(tmp_path):
    path = tmp_path / "clip.vraw"
    V.write_raw_video(path, np.zeros((2, 3, 4, 3), dtype=np.uint8), "BGR")
    blob = path.read_bytes()
    for cut in (4, 8, 11):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=f"raw video: truncated header, {cut} of 12"):
            V.read_raw_video(path)


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
        assert video.frames[0].channel_order == "BGR"


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
    assert a.frames[0].channel_order == "RGB"

    # across epochs the derived stream changes and so (eventually) do clips
    variants = {V.to_model_tensor(
        V.prepare_clip(video, pipe, True, V.derive_rng(1, inst.video_id, e))).tobytes()
        for e in range(10)}
    assert len(variants) > 1


def test_prepare_clip_applies_resize_only_at_224():
    rng = np.random.default_rng(21)
    # square input: 230x230 is conformant, so only a 224 pipeline resizes it
    frames = [V.Frame(rng.integers(0, 256, size=(230, 230, 3), dtype=np.uint8))
              for _ in range(8)]
    video = V.RawVideo(frames, "v")
    clip = V.prepare_clip(video, V.PipelineConfig(4, "even", 224), False,
                          np.random.default_rng(0))
    assert clip.frames[0].height == 224 and clip.frames[0].width == 224

    # 100x150 scales to 226x339 then caps at 171x256; the 224 crop must then
    # fail loudly, and the reported dims prove the resize rule ran first
    small = V.RawVideo([V.Frame(rng.integers(0, 256, size=(100, 150, 3), dtype=np.uint8))
                        for _ in range(8)], "v")
    assert V.resize_plan(100, 150) == (171, 256)
    with pytest.raises(ValueError, match="171x256"):
        V.prepare_clip(small, V.PipelineConfig(4, "even", 224), False,
                       np.random.default_rng(0))


def test_prepare_clip_small_crop_skips_resize():
    frames = [V.Frame(np.full((32, 32, 3), i, dtype=np.uint8)) for i in range(8)]
    video = V.RawVideo(frames, "v")
    pipe = V.PipelineConfig(frames=4, sampling="even", crop=32)
    clip = V.prepare_clip(video, pipe, False, np.random.default_rng(0))
    assert clip.frames[0].height == 32 and clip.frames[0].width == 32


def test_derive_seed_is_stable_and_key_sensitive():
    assert V.derive_seed(3, "abc") == V.derive_seed(3, "abc")
    assert V.derive_seed(3, "abc") != V.derive_seed(4, "abc")
    assert V.derive_seed(3, "abc") != V.derive_seed(3, "abd")
    r1 = V.derive_rng(0, "v", 1)
    r2 = V.derive_rng(0, "v", 1)
    assert r1.integers(0, 1000, 5).tolist() == r2.integers(0, 1000, 5).tolist()
