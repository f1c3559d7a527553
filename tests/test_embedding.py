"""Embeddings: loop oracles for patch and cube projection, the tube-depth-1
equivalence, pixel round trips, positional rows, and the CLS token."""

import numpy as np
import pytest

from vslr.embedding import (Embedding, EmbeddingConfig, add_positional,
                            cube_embed_3d, cube_pixels, patch_embed_2d,
                            prepend_cls)
from vslr.tensor import Tensor


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
    tb = patch_embed_2d(Tensor(x, dtype=np.float64), emb)
    expect = patch_tokens_oracle(x, 8) @ emb.proj.w.data + emb.proj.b.data
    assert tb.tokens.shape == (2, 12, 6)
    assert not tb.has_cls
    assert np.allclose(tb.tokens.data, expect, atol=1e-12)


def test_cube_embedding_matches_loop_oracle():
    rng = np.random.default_rng(1)
    cfg = EmbeddingConfig("joint", 5, 16, 4, 4, tube_depth=2)
    emb = Embedding(cfg, rng, dtype=np.float64)
    x = rng.standard_normal((2, 4, 3, 16, 16))
    tb = cube_embed_3d(Tensor(x, dtype=np.float64), emb)
    expect = cube_tokens_oracle(x, 4, 2) @ emb.proj.w.data + emb.proj.b.data
    assert tb.tokens.shape == (2, 2 * 16, 5)
    assert np.allclose(tb.tokens.data, expect, atol=1e-12)


def test_cube_depth_one_equals_patch_embedding():
    rng = np.random.default_rng(2)
    pcfg = EmbeddingConfig("divided", 7, 16, 8, 4, tube_depth=1)
    ccfg = EmbeddingConfig("joint", 7, 16, 8, 4, tube_depth=1)
    pe = Embedding(pcfg, np.random.default_rng(5), dtype=np.float64)
    ce = Embedding(ccfg, np.random.default_rng(6), dtype=np.float64)
    ce.proj.w.data = pe.proj.w.data.copy()     # matched projection weights
    ce.proj.b.data = pe.proj.b.data.copy()
    x = Tensor(rng.standard_normal((2, 4, 3, 16, 16)), dtype=np.float64)
    a = patch_embed_2d(x, pe)
    b = cube_embed_3d(x, ce)
    assert np.allclose(a.tokens.data, b.tokens.data, atol=1e-12)
    assert a.grid == b.grid


def test_cube_pixels_round_trip():
    rng = np.random.default_rng(3)
    cfg = EmbeddingConfig("joint", 5, 16, 4, 6, tube_depth=3)
    x = rng.standard_normal((2, 6, 3, 16, 16))
    cubes = cube_pixels(Tensor(x, dtype=np.float64), cfg)
    assert cubes.shape == (2, 2 * 16, 3 * 3 * 16)
    back = uncube_pixels(cubes.data, cfg)
    assert np.array_equal(back, x)


def test_positional_and_cls():
    rng = np.random.default_rng(4)
    cfg = EmbeddingConfig("divided", 6, 16, 8, 2)
    emb = Embedding(cfg, rng, dtype=np.float64)
    assert emb.pos.shape == (1 + 2 * 4, 6)
    x = Tensor(rng.standard_normal((3, 2, 3, 16, 16)), dtype=np.float64)
    tb = patch_embed_2d(x, emb)
    with pytest.raises(ValueError, match="positional table"):
        add_positional(tb, emb)            # missing CLS row
    tb = prepend_cls(tb, emb)
    assert tb.has_cls
    assert np.allclose(tb.tokens.data[:, 0, :], emb.cls.data[0, 0])
    with pytest.raises(ValueError, match="already has"):
        prepend_cls(tb, emb)
    out = add_positional(tb, emb)
    assert np.allclose(out.tokens.data, tb.tokens.data + emb.pos.data)

    full = emb.embed(x)
    assert full.tokens.shape == (3, 9, 6)
    assert full.has_cls


def test_joint_variant_has_no_cls():
    emb = Embedding(EmbeddingConfig("joint", 6, 16, 8, 2, tube_depth=2),
                    np.random.default_rng(0))
    assert emb.cls is None
    x = Tensor(np.zeros((1, 2, 3, 16, 16), dtype=np.float32))
    tb = emb.embed(x)
    assert not tb.has_cls
    assert tb.tokens.shape == (1, 4, 6)


def test_divisibility_errors_name_dimension():
    with pytest.raises(ValueError, match="image size 30"):
        EmbeddingConfig("divided", 8, 30, 8, 4)
    with pytest.raises(ValueError, match="frame count 5"):
        EmbeddingConfig("joint", 8, 32, 8, 5, tube_depth=2)
    with pytest.raises(ValueError, match="tube depth 1"):
        EmbeddingConfig("divided", 8, 32, 8, 4, tube_depth=2)
    cfg = EmbeddingConfig("divided", 8, 32, 8, 4)
    emb = Embedding(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="frame count 3"):
        patch_embed_2d(Tensor(np.zeros((1, 3, 3, 32, 32), dtype=np.float32)), emb)
    with pytest.raises(ValueError, match="spatial size"):
        patch_embed_2d(Tensor(np.zeros((1, 4, 3, 16, 32), dtype=np.float32)), emb)


def test_embedding_gradients_flow_to_weights():
    from vslr import tensor as T

    rng = np.random.default_rng(7)
    cfg = EmbeddingConfig("divided", 4, 8, 4, 2)
    emb = Embedding(cfg, rng, dtype=np.float64)
    for p in emb.named().values():
        p.data = p.data.astype(np.float64)
    x = Tensor(rng.standard_normal((2, 2, 3, 8, 8)), dtype=np.float64)
    out = emb.embed(x)
    T.backward(T.sum_(T.mul(out.tokens, out.tokens)))
    assert emb.proj.w.grad is not None
    assert emb.pos.grad is not None
    assert emb.cls.grad is not None
