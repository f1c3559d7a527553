"""Embeddings: loop oracles for patch and cube projection, per-frame
patches as cubes of tube depth 1, pixel round trips, positional rows, the
CLS token, and the embedding bits at paper geometry."""

import numpy as np
import pytest

from vslr.embedding import Embedding, EmbeddingConfig, clip_slots
from vslr.mae import normalized_cube_targets
from vslr.train import ClassifierModel, ModelConfig

import reference as R
from reference import cube_pixels


def uncube_pixels(cubes: np.ndarray, cfg: EmbeddingConfig) -> np.ndarray:
    """Inverse of cube_pixels on raw arrays: [B, N, cube_dim] -> [B, F, 3, H, W]."""
    b = cubes.shape[0]
    td, p = cfg.tube_depth, cfg.patch
    t, hs, ws = cfg.grid
    a = cubes.reshape(b, t, hs, ws, 3, td, p, p)
    a = np.transpose(a, (0, 1, 5, 4, 2, 6, 3, 7))        # [B, T, td, c, Hs, ph, Ws, pw]
    return a.reshape(b, t * td, 3, hs * p, ws * p)


def patch_tokens_oracle(x, p):
    """[B, F, 3, H, W] -> [B, F*Hs*Ws, 3*p*p] by explicit loops, flatten
    order (c, ph, pw), tokens frame-major then row-major."""
    b, f, c, h, w = x.shape
    hs, ws = h // p, w // p
    out = np.zeros((b, f * hs * ws, c * p * p), dtype=np.float64)
    for bi in range(b):
        for fi in range(f):
            for r in range(hs):
                for q in range(ws):
                    vec = []
                    for ci in range(c):
                        for py in range(p):
                            for px in range(p):
                                vec.append(float(x[bi, fi, ci, r * p + py, q * p + px]))
                    out[bi, fi * hs * ws + r * ws + q] = vec
    return out


def cube_tokens_oracle(x, p, td):
    """[B, F, 3, H, W] -> [B, T*Hs*Ws, 3*td*p*p], flatten order (c, t, ph, pw)."""
    b, f, c, h, w = x.shape
    t, hs, ws = f // td, h // p, w // p
    out = np.zeros((b, t * hs * ws, c * td * p * p), dtype=np.float64)
    for bi in range(b):
        for ti in range(t):
            for r in range(hs):
                for q in range(ws):
                    vec = []
                    for ci in range(c):
                        for dt in range(td):
                            for py in range(p):
                                for px in range(p):
                                    vec.append(float(
                                        x[bi, ti * td + dt, ci, r * p + py, q * p + px]))
                    out[bi, ti * hs * ws + r * ws + q] = vec
    return out


def test_token_count_formulas():
    # full-scale joint: 16 frames at 224x224 with 2x16x16 cubes -> 8*14*14
    joint = EmbeddingConfig("joint", 64, 224, 16, 16, tube_depth=2)
    assert joint.grid == (8, 14, 14)
    assert joint.n_tokens == 1568
    # full-scale divided: 196 patches per frame
    div = EmbeddingConfig("divided", 64, 224, 16, 16)
    assert div.grid == (16, 14, 14)
    assert div.n_tokens // div.frames == 196
    # desk scale
    desk = EmbeddingConfig("joint", 32, 32, 8, 8, tube_depth=2)
    assert desk.grid == (4, 4, 4)
    assert desk.n_tokens == 64


def test_patch_embedding_matches_loop_oracle():
    rng = np.random.default_rng(0)
    cfg = EmbeddingConfig("divided", 6, 16, 8, 3)
    emb = Embedding(cfg, rng, dtype=np.float64)
    x = rng.standard_normal((2, 3, 3, 16, 16))
    tb = emb.embed(cube_pixels(x, cfg))
    patches = patch_tokens_oracle(x, 8) @ emb.proj.w.data + emb.proj.b.data
    cls = np.repeat(emb.cls.data, 2, axis=0)
    expect = np.concatenate([cls, patches], axis=1) + emb.pos.data
    assert tb.tokens.data.shape == (2, 1 + 12, 6)
    assert tb.has_cls and tb.grid == (3, 2, 2)
    assert np.allclose(tb.tokens.data, expect, atol=1e-12)


def test_cube_embedding_matches_loop_oracle():
    rng = np.random.default_rng(1)
    cfg = EmbeddingConfig("joint", 5, 16, 4, 4, tube_depth=2)
    emb = Embedding(cfg, rng, dtype=np.float64)
    x = rng.standard_normal((2, 4, 3, 16, 16))
    tb = emb.embed(cube_pixels(x, cfg))
    expect = cube_tokens_oracle(x, 4, 2) @ emb.proj.w.data + emb.proj.b.data + emb.pos.data
    assert tb.tokens.data.shape == (2, 2 * 16, 5)
    assert not tb.has_cls
    assert np.allclose(tb.tokens.data, expect, atol=1e-12)


def test_cube_depth_one_equals_patch_embedding():
    """A per-frame 2-D patch is a cube of tube depth 1, pixel for pixel, so
    a joint embedding at tube depth 1 with matched weights gives the
    divided embedding's patch tokens."""
    rng = np.random.default_rng(2)
    pe = Embedding(EmbeddingConfig("divided", 7, 16, 8, 4), np.random.default_rng(5),
                   dtype=np.float64)
    ce = Embedding(EmbeddingConfig("joint", 7, 16, 8, 4, tube_depth=1),
                   np.random.default_rng(6), dtype=np.float64)
    ce.proj.w.data[...] = pe.proj.w.data       # matched weights and positional rows
    ce.proj.b.data[...] = pe.proj.b.data
    ce.pos.data[...] = pe.pos.data[1:]
    x = rng.standard_normal((2, 4, 3, 16, 16))
    for cfg in (pe.cfg, ce.cfg):
        assert np.array_equal(cube_pixels(x, cfg), patch_tokens_oracle(x, 8))
    assert np.array_equal(cube_tokens_oracle(x, 8, 1), patch_tokens_oracle(x, 8))
    a = pe.embed(cube_pixels(x, pe.cfg))
    b = ce.embed(cube_pixels(x, ce.cfg))
    assert np.array_equal(a.tokens.data[:, 1:], b.tokens.data)
    assert a.grid == b.grid


def test_cube_pixels_round_trip():
    rng = np.random.default_rng(3)
    cfg = EmbeddingConfig("joint", 5, 16, 4, 6, tube_depth=3)
    x = rng.standard_normal((2, 6, 3, 16, 16))
    cubes = cube_pixels(x, cfg)
    assert cubes.shape == (2, 2 * 16, 3 * 3 * 16)
    back = uncube_pixels(cubes, cfg)
    assert np.array_equal(back, x)
    slots = clip_slots(cubes, cfg)          # the rows themselves, in clip order
    assert np.shares_memory(slots, cubes) and np.array_equal(slots.reshape(x.shape), x)


def test_positional_and_cls():
    rng = np.random.default_rng(4)
    cfg = EmbeddingConfig("divided", 6, 16, 8, 2)
    emb = Embedding(cfg, rng, dtype=np.float64)
    assert emb.pos.data.shape == (1 + 2 * 4, 6)
    x = rng.standard_normal((3, 2, 3, 16, 16))
    full = emb.embed(cube_pixels(x, cfg))
    assert full.tokens.data.shape == (3, 9, 6)
    assert full.has_cls
    # the CLS row, then each patch's projection, each plus its positional row
    assert np.array_equal(full.tokens.data[:, 0], np.broadcast_to(
        emb.cls.data[0, 0] + emb.pos.data[0], (3, 6)))
    patches = cube_pixels(x, cfg) @ emb.proj.w.data + emb.proj.b.data
    assert np.allclose(full.tokens.data[:, 1:], patches + emb.pos.data[1:], atol=1e-12)


def test_joint_variant_has_no_cls():
    emb = Embedding(EmbeddingConfig("joint", 6, 16, 8, 2, tube_depth=2),
                    np.random.default_rng(0))
    assert emb.cls is None
    x = np.zeros((1, 2, 3, 16, 16), dtype=np.float32)
    tb = emb.embed(cube_pixels(x, emb.cfg))
    assert not tb.has_cls
    assert tb.tokens.data.shape == (1, 4, 6)


def test_divisibility_errors_name_dimension():
    with pytest.raises(ValueError, match="image size 30"):
        EmbeddingConfig("divided", 8, 30, 8, 4)
    with pytest.raises(ValueError, match="frame count 5"):
        EmbeddingConfig("joint", 8, 32, 8, 5, tube_depth=2)
    with pytest.raises(ValueError, match="tube depth 1"):
        EmbeddingConfig("divided", 8, 32, 8, 4, tube_depth=2)
    cfg = EmbeddingConfig("divided", 8, 32, 8, 4)
    with pytest.raises(ValueError, match="frame count 3"):
        cube_pixels(np.zeros((1, 3, 3, 32, 32), dtype=np.float32), cfg)
    with pytest.raises(ValueError, match="spatial size"):
        cube_pixels(np.zeros((1, 4, 3, 16, 32), dtype=np.float32), cfg)
    with pytest.raises(ValueError, match="channel count 1"):
        cube_pixels(np.zeros((1, 4, 1, 32, 32), dtype=np.float32), cfg)
    with pytest.raises(ValueError, match=r"\[B, F, 3, H, W\]"):
        cube_pixels(np.zeros((4, 3, 32, 32), dtype=np.float32), cfg)


def test_embedding_gradients_flow_to_weights():
    from vslr import tensor as T

    rng = np.random.default_rng(7)
    cfg = EmbeddingConfig("divided", 4, 8, 4, 2)
    emb = Embedding(cfg, rng, dtype=np.float64)
    for p in emb.named().values():
        p.data = p.data.astype(np.float64)
    x = rng.standard_normal((2, 2, 3, 8, 8))
    out = emb.embed(cube_pixels(x, cfg))
    T.backward(R.sum_(R.mul(out.tokens, out.tokens)))
    assert emb.proj.w.grad is not None
    assert emb.pos.grad is not None
    assert emb.cls.grad is not None


def test_embedding_digests_at_paper_geometry(sha256):
    """At paper geometry (224 px, 16 px patches, 16 frames, dim 64) the
    embed tokens of a seeded divided and a seeded joint classifier, and
    the normalized targets of one clip's masked cubes, pinned bit for bit."""
    rng = np.random.default_rng(1717)
    x = rng.random((2, 16, 3, 224, 224), dtype=np.float32)
    digests = {}
    for variant in ("divided", "joint"):
        cfg = ModelConfig(variant, dim=64, depth=2, heads=4, image_size=224, patch=16, frames=16)
        model = ClassifierModel(cfg, 10, np.random.default_rng(17))
        digests[variant] = sha256([model.embed.embed(cube_pixels(x, model.embed.cfg)).tokens.data])
    ecfg = EmbeddingConfig("joint", 64, 224, 16, 16, tube_depth=2)
    ids = np.sort(rng.choice(ecfg.n_tokens, 1411, replace=False))[None]
    digests["targets"] = sha256([normalized_cube_targets(cube_pixels(x[:1], ecfg), ids)])
    assert digests == {
        "divided": "e3972a95180e03ef713b80552fa53b8ba9b4d33c656846499ed8883e96eb7b8d",
        "joint": "96b9d3d00183f9ed0fd58389c03d5ba2a350f194b232fc778d0a8b43843abc01",
        "targets": "f142cdade2f57b58b1a95edca8d7b91183a9eb02363aef431417c22cd2e224c3",
    }
