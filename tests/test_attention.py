"""Attention blocks: loop-level oracle, normalization and exact-weight
properties, divided/joint equivalences, MAC cost claims, rollout maps."""

import math
import tracemalloc

import numpy as np
import pytest

from vslr import lanes
from vslr import tensor as T
from vslr.attention import (BlockWeights, PassWeights, attention_rollout, divided_block,
                            encoder_forward, joint_block, multi_head_attention,
                            pass_groups, write_pgm)
from vslr.embedding import TokenBatch
from vslr.nn import LayerNormParams
from vslr.tensor import Tensor
from vslr.train import ClassifierModel, ModelConfig, no_grad


def mha_oracle(x, w, heads):
    """Loop-level multi-head attention on [groups, n, d]."""
    g, n, d = x.shape
    dh = d // heads
    out = np.zeros_like(x)
    for gi in range(g):
        q = x[gi] @ w.q.w.data + w.q.b.data
        k = x[gi] @ w.k.w.data + w.k.b.data
        v = x[gi] @ w.v.w.data + w.v.b.data
        ctx = np.zeros((n, d))
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(n):
                logits = np.array([float(q[i, sl] @ k[j, sl]) / math.sqrt(dh)
                                   for j in range(n)])
                e = np.exp(logits - logits.max())
                a = e / e.sum()
                ctx[i, sl] = sum(a[j] * v[j, sl] for j in range(n))
        out[gi] = ctx @ w.o.w.data + w.o.b.data
    return out


def _pass(rng, d):
    return PassWeights(rng, d, dtype=np.float64)


def _tb(rng, b, f, hs, ws, d, cls=False):
    n = f * hs * ws + (1 if cls else 0)
    tokens = Tensor(rng.standard_normal((b, n, d)), dtype=np.float64)
    return TokenBatch(tokens, (f, hs, ws), has_cls=cls)


def test_multi_head_attention_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for heads in (1, 2, 4):
        g, n, d = 2, 5, 8
        w = _pass(rng, d)
        x = rng.standard_normal((g, n, d))
        out = multi_head_attention(Tensor(x, dtype=np.float64), w, heads, np.arange(n)[None])
        assert np.allclose(out.data, mha_oracle(x, w, heads), atol=1e-10)


def test_multi_head_attention_blocked_output_and_trace(monkeypatch):
    """Under 15 ragged query-row blocks the output still matches the loop
    oracle, and the trace is the head mean of softmax(q k^T / sqrt(dh))."""
    rng = np.random.default_rng(20)
    g, n, d, heads = 3, 9, 8, 2
    dh = d // heads
    monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", 2 * heads * n * 8)   # 2 float64 rows
    assert len(T._attn_blocks(g, heads, n, 8)) == 15
    w = _pass(rng, d)
    x = rng.standard_normal((g, n, d))
    trace = []
    out = multi_head_attention(Tensor(x, dtype=np.float64), w, heads, np.arange(n)[None], trace)
    [(_, tr)] = trace
    assert np.allclose(out.data, mha_oracle(x, w, heads), atol=1e-10)

    def heads_of(p):
        return (x @ p.w.data + p.b.data).reshape(g, n, heads, dh).transpose(0, 2, 1, 3)

    logits = heads_of(w.q) @ heads_of(w.k).swapaxes(-1, -2) / math.sqrt(dh)
    want = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want /= want.sum(axis=-1, keepdims=True)
    assert tr.shape == (g, 1, n, n)
    assert np.allclose(tr[:, 0], want.mean(axis=1), rtol=0, atol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grid,cls,kind", [((3, 2, 3), True, "temporal"),
                                           ((3, 2, 3), True, "spatial"),
                                           ((2, 3, 2), False, "joint")])
def test_trace_is_the_forward_weights_head_mean(monkeypatch, grid, cls, kind, dtype):
    """The trace is the head mean of the weights each forward block
    computed, bit for bit, on one lane or two.  Blocks of whole groups
    give the whole-array recompute's weights.  A block of fewer query
    rows may round its QK^T product apart from the whole one, so each
    row block is held to its own recompute."""
    rng = np.random.default_rng(21)
    b, d, heads, itemsize = 2, 8, 2, np.dtype(dtype).itemsize
    groups = pass_groups(grid, cls, kind)
    g, n = groups.shape
    q, k, v = (rng.standard_normal((b, int(np.prod(grid)) + cls, d)).astype(dtype)
               for _ in range(3))
    qs, kt, _ = T._attn_split(q, k, heads, groups)
    whole = T._attn_weights(qs, kt)[0].mean(axis=1)
    for budget in (heads * n * n * itemsize, 2 * heads * n * itemsize):   # a group, 2 rows
        monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", budget)
        blocks = T._attn_blocks(b * g, heads, n, itemsize)
        assert len(blocks) >= 2
        want = np.empty_like(whole)
        for gs, r in blocks:
            want[gs, r] = T._attn_weights(qs[gs, :, r], kt[gs])[0].mean(axis=1)
        if blocks[0][1] == slice(0, n):
            assert np.array_equal(want, whole)
        for n_lanes in (1, 2):
            monkeypatch.setattr(lanes, "LANES", n_lanes)
            trace = []
            T.attention(Tensor(q), Tensor(k), Tensor(v), heads, groups, trace)
            [(ids, got)] = trace
            assert ids is groups and got.dtype == dtype
            assert np.array_equal(got, want.reshape(b, g, n, n))


def test_traced_paper_joint_forward_memory():
    """A traced paper joint forward of one clip under no_grad holds the
    trace, two [1, 1, 1568, 1568] float32 head means (18.8 MiB), and
    never a whole [1, 4, 1568, 1568] weights array."""
    cfg = ModelConfig("joint", dim=64, depth=2, heads=4, image_size=224, patch=16, frames=16)
    model = ClassifierModel(cfg, 10, np.random.default_rng(22))
    x = Tensor(np.random.default_rng(23).random((1, 16, 3, 224, 224), dtype=np.float32))
    trace = []
    tracemalloc.start()
    try:
        with no_grad(model.params()):
            model.forward(x, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [w.shape for _, w in trace] == [(1, 1, 1568, 1568)] * 2
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g, n, d, heads = (int(v) for v in rng.integers(1, 6, size=4))
        d *= 4
        heads = [1, 2, 4][int(rng.integers(0, 3))]
        w = _pass(rng, d)
        x = Tensor(rng.standard_normal((g, n, d)) * 3, dtype=np.float64)
        trace = []
        multi_head_attention(x, w, heads, np.arange(n)[None], trace)
        [(_, tr)] = trace
        assert tr.shape == (g, 1, n, n)
        assert np.allclose(tr.sum(axis=-1), 1.0, atol=1e-12)


def test_identical_keys_give_uniform_weights():
    rng = np.random.default_rng(2)
    d, n = 8, 5
    w = _pass(rng, d)
    w.k.w.data[:] = 0.0          # every key identical -> flat logits
    x = Tensor(rng.standard_normal((1, n, d)), dtype=np.float64)
    trace = []
    multi_head_attention(x, w, 2, np.arange(n)[None], trace)
    [(_, tr)] = trace
    assert np.allclose(tr, 1.0 / n, atol=1e-15)


def test_head_count_must_divide_dim():
    w = _pass(np.random.default_rng(0), 8)
    x = Tensor(np.zeros((1, 3, 8)))
    with pytest.raises(ValueError, match="divisible"):
        multi_head_attention(Tensor(x.data.astype(np.float64)), w, 3, np.arange(3)[None])


# ---------------------------------------------------------------------------
# divided block properties


def test_single_frame_temporal_weights_are_exactly_one():
    rng = np.random.default_rng(3)
    w = BlockWeights(rng, "divided", 8, dtype=np.float64)
    tb = _tb(rng, 2, 1, 2, 2, 8, cls=False)
    trace = []
    divided_block(tb, w, 2, trace)
    (_, temporal), _ = trace
    assert temporal.shape == (2, 4, 1, 1)
    assert np.all(temporal == 1.0)


def test_single_frame_divided_equals_joint_with_matched_weights():
    """With the temporal pass zeroed out, a one-frame divided block is the
    joint block over the same tokens."""
    rng = np.random.default_rng(4)
    d, heads = 8, 2
    dw = BlockWeights(np.random.default_rng(10), "divided", d, dtype=np.float64)
    jw = BlockWeights(np.random.default_rng(11), "joint", d, dtype=np.float64)
    # neutralize the temporal sub-layer: zero value/output -> zero update
    for lp in (dw.temporal.v, dw.temporal.o):
        lp.w.data[:] = 0.0
        lp.b.data[:] = 0.0
    # spatial pass plays the role of joint attention
    for name, src in (("q", jw.joint.q), ("k", jw.joint.k), ("v", jw.joint.v), ("o", jw.joint.o)):
        dst = getattr(dw.spatial, name)
        dst.w.data = src.w.data.copy()
        dst.b.data = src.b.data.copy()
    dw.ln2.g.data = jw.ln1.g.data.copy()
    dw.ln2.b.data = jw.ln1.b.data.copy()
    dw.ln3.g.data = jw.ln2.g.data.copy()
    dw.ln3.b.data = jw.ln2.b.data.copy()
    for a, b in ((dw.mlp0, jw.mlp0), (dw.mlp1, jw.mlp1)):
        a.w.data = b.w.data.copy()
        a.b.data = b.b.data.copy()

    tb = _tb(rng, 2, 1, 2, 3, d, cls=False)
    out_d = divided_block(tb, dw, heads)
    out_j = joint_block(tb, jw, heads)
    assert np.allclose(out_d.tokens.data, out_j.tokens.data, atol=1e-12)


def test_identical_frames_split_temporal_attention_evenly():
    rng = np.random.default_rng(5)
    d = 8
    w = BlockWeights(rng, "divided", d, dtype=np.float64)
    per_position = rng.standard_normal((1, 6, d))
    tokens = np.concatenate([per_position, per_position], axis=1)  # two equal frames
    tb = TokenBatch(Tensor(tokens, dtype=np.float64), (2, 2, 3), has_cls=False)
    trace = []
    divided_block(tb, w, 2, trace)
    (_, temporal), _ = trace
    assert np.all(temporal == 0.5)


def test_frame_permutation_equivariance_without_positional():
    rng = np.random.default_rng(6)
    b, f, hs, ws, d = 2, 4, 2, 2, 8
    s = hs * ws
    w = BlockWeights(rng, "divided", d, dtype=np.float64)
    tb = _tb(rng, b, f, hs, ws, d, cls=True)
    out = divided_block(tb, w, 2)

    perm = np.array([2, 0, 3, 1])
    tokens = tb.tokens.data
    patches = tokens[:, 1:].reshape(b, f, s, d)[:, perm].reshape(b, f * s, d)
    permuted = np.concatenate([tokens[:, :1], patches], axis=1)
    out_p = divided_block(TokenBatch(Tensor(permuted, dtype=np.float64),
                                     (f, hs, ws), True), w, 2)
    want = out.tokens.data[:, 1:].reshape(b, f, s, d)[:, perm].reshape(b, f * s, d)
    assert np.allclose(out_p.tokens.data[:, 1:], want, atol=1e-10)
    assert np.allclose(out_p.tokens.data[:, 0], out.tokens.data[:, 0], atol=1e-10)


def test_divided_trace_rows_sum_to_one_with_cls():
    rng = np.random.default_rng(7)
    w = BlockWeights(rng, "divided", 8, dtype=np.float64)
    tb = _tb(rng, 2, 3, 2, 2, 8, cls=True)
    trace = []
    divided_block(tb, w, 4, trace)
    (_, temporal), (_, spatial) = trace
    assert np.allclose(temporal.sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(spatial.sum(axis=-1), 1.0, atol=1e-12)
    assert temporal.shape == (2, 4, 4, 4)      # [B, S, 1+F, 1+F]
    assert spatial.shape == (2, 3, 5, 5)       # [B, F, 1+S, 1+S]


def divided_block_oracle(x, w, heads, grid, cls):
    """Loop-level divided block on [B, M, D]: mha_oracle on each temporal
    group, then on each spatial group, the CLS (when present) prepended to
    every group and its output averaged over groups; then the MLP."""
    f, hs, ws = grid
    s = hs * ws
    off = 1 if cls else 0

    def ln(a, p):
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        return (a - mu) / np.sqrt(var + 1e-5) * p.g.data + p.b.data

    def attention_pass(x, pw, lnp, groups):
        xn = ln(x, lnp)
        upd = np.zeros_like(x)
        for bi in range(x.shape[0]):
            for ids in groups:
                ids = [0] * off + [off + i for i in ids]
                o = mha_oracle(xn[bi, ids][None], pw, heads)[0]
                upd[bi, ids[off:]] = o[off:]
                if cls:
                    upd[bi, 0] += o[0] / len(groups)
        return x + upd

    temporal = [[t * s + p for t in range(f)] for p in range(s)]
    spatial = [[t * s + p for p in range(s)] for t in range(f)]
    x = attention_pass(x, w.temporal, w.ln1, temporal)
    x = attention_pass(x, w.spatial, w.ln2, spatial)
    h = ln(x, w.ln3) @ w.mlp0.w.data + w.mlp0.b.data
    h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h ** 3)))
    return x + h @ w.mlp1.w.data + w.mlp1.b.data


@pytest.mark.parametrize("cls", [True, False])
@pytest.mark.parametrize("ragged", [False, True])
def test_divided_block_matches_loop_oracle(cls, ragged, monkeypatch):
    rng = np.random.default_rng(14)
    heads, grid, d = 2, (3, 2, 2), 8
    if ragged:      # 3 query rows per block, so CLS-led groups (L = 4 and 5) split unevenly
        monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", 3 * heads * 5 * 8)
        assert len(T._attn_blocks(2 * 4, heads, 4, 8)) == 16
        assert len(T._attn_blocks(2 * 3, heads, 5, 8)) == 12
    w = BlockWeights(rng, "divided", d, dtype=np.float64)
    tb = _tb(rng, 2, *grid, d, cls=cls)
    out = divided_block(tb, w, heads)
    want = divided_block_oracle(tb.tokens.data, w, heads, grid, cls)
    assert np.allclose(out.tokens.data, want, rtol=0, atol=1e-10)


def test_pass_groups_layout():
    assert pass_groups((2, 1, 3), False, "temporal").tolist() == [[0, 3], [1, 4], [2, 5]]
    assert pass_groups((2, 1, 3), False, "spatial").tolist() == [[0, 1, 2], [3, 4, 5]]
    assert pass_groups((2, 1, 3), True, "temporal").tolist() == [[0, 1, 4], [0, 2, 5], [0, 3, 6]]
    assert pass_groups((2, 1, 3), True, "spatial").tolist() == [[0, 1, 2, 3], [0, 4, 5, 6]]
    assert pass_groups((2, 1, 2), True, "joint").tolist() == [[0, 1, 2, 3, 4]]
    # built once per (grid, has_cls, kind) and shared, so no caller may write it
    ids = pass_groups((2, 1, 3), True, "temporal")
    assert ids is pass_groups((2, 1, 3), True, "temporal") and not ids.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ids[0, 0] = 1


def test_divided_block_builds_one_joint_pass_more(monkeypatch):
    """Each pass is the same 7 nodes (norm, q/k/v, attention, output,
    residual), so no token-grid copies sit around the divided passes."""
    built = []
    make = T._make_node
    monkeypatch.setattr(T, "_make_node", lambda *a: built.append(1) or make(*a))
    rng = np.random.default_rng(15)
    counts = {}
    for variant, block in (("divided", divided_block), ("joint", joint_block)):
        built.clear()
        block(_tb(rng, 2, 2, 2, 2, 8, cls=variant == "divided"),
              BlockWeights(rng, variant, 8, dtype=np.float64), 2)
        counts[variant] = len(built)
    assert counts["divided"] - counts["joint"] == 7, counts


# ---------------------------------------------------------------------------
# MAC cost claims


def test_divided_vs_joint_attention_macs():
    rng = np.random.default_rng(8)
    b, f, hs, ws, d = 2, 8, 4, 2, 16
    s = hs * ws
    n = f * s
    dw = BlockWeights(rng, "divided", d, dtype=np.float64)
    jw = BlockWeights(rng, "joint", d, dtype=np.float64)
    tb = _tb(rng, b, f, hs, ws, d, cls=False)

    T.reset_macs()
    divided_block(tb, dw, 4)
    divided_macs = T.mac_count("attn")
    T.reset_macs()
    joint_block(tb, jw, 4)
    joint_macs = T.mac_count("attn")

    assert divided_macs == 2 * b * d * n * (f + s)
    assert joint_macs == 2 * b * d * n * n
    # at F = S = 8 the joint maps cost exactly 4x the divided ones
    assert f == s and joint_macs == 4 * divided_macs


# ---------------------------------------------------------------------------
# encoder and rollout


def test_encoder_applies_final_norm():
    rng = np.random.default_rng(9)
    d = 8
    blocks = [BlockWeights(rng, "joint", d, dtype=np.float64)]
    ln = LayerNormParams(d, dtype=np.float64)
    tb = _tb(rng, 1, 2, 2, 2, d, cls=False)
    out = encoder_forward(tb, blocks, 2, ln)
    assert np.allclose(out.tokens.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.tokens.data.var(axis=-1), 1.0, atol=1e-3)


@pytest.mark.parametrize("variant", ["divided", "joint"])
def test_trace_list_records_each_pass_and_leaves_the_logits(variant):
    """At desk geometry a trace list changes no bit of the logits and gets
    one (groups, weights) entry per attention pass, in call order."""
    cfg = ModelConfig(variant=variant)
    model = ClassifierModel(cfg, 5, np.random.default_rng(16))
    x = Tensor(np.random.default_rng(17).random((2, cfg.frames, 3, cfg.image_size,
                                                 cfg.image_size), dtype=np.float32))
    trace = []
    assert np.array_equal(model.forward(x, trace).data, model.forward(x).data)
    kinds = ["temporal", "spatial"] if variant == "divided" else ["joint"]
    grid, has_cls = model.embed.cfg.grid, model.embed.cls is not None
    assert len(trace) == len(kinds) * cfg.depth
    for (groups, weights), kind in zip(trace, kinds * cfg.depth):
        assert groups is pass_groups(grid, has_cls, kind)
        assert weights.shape == (2, *groups.shape, groups.shape[1])


def _uniform_attention_blocks(rng, variant, d, depth):
    blocks = []
    for _ in range(depth):
        w = BlockWeights(rng, variant, d, dtype=np.float64)
        passes = (w.temporal, w.spatial) if variant == "divided" else (w.joint,)
        for pw in passes:
            pw.q.w.data[:] = 0.0
            pw.q.b.data[:] = 0.0
            pw.k.w.data[:] = 0.0
            pw.k.b.data[:] = 0.0
        blocks.append(w)
    return blocks


@pytest.mark.parametrize("variant,cls", [("divided", True), ("joint", False)])
def test_flat_attention_rolls_out_to_all_ones(variant, cls):
    rng = np.random.default_rng(10)
    d, depth = 8, 2
    f, hs, ws = (4, 2, 2) if variant == "divided" else (2, 2, 2)
    blocks = _uniform_attention_blocks(rng, variant, d, depth)
    ln = LayerNormParams(d, dtype=np.float64)
    tb = _tb(rng, 1, f, hs, ws, d, cls=cls)
    trace = []
    encoder_forward(tb, blocks, 2, ln, trace)
    heat = attention_rollout(trace, (f, hs, ws), cls)
    assert heat.shape == (f, hs, ws)
    assert np.allclose(heat, 1.0, atol=1e-12)


def _item(trace, bi):
    """The trace of batch item bi alone, as a batch of one."""
    return [(ids, weights[bi:bi + 1]) for ids, weights in trace]


@pytest.mark.parametrize("variant,cls", [("divided", True), ("joint", False)])
def test_rollout_on_random_weights(variant, cls):
    rng = np.random.default_rng(11)
    d, depth = 8, 2
    f, hs, ws = (3, 2, 2) if variant == "divided" else (2, 2, 2)
    blocks = [BlockWeights(rng, variant, d, dtype=np.float64) for _ in range(depth)]
    ln = LayerNormParams(d, dtype=np.float64)
    tb = _tb(rng, 2, f, hs, ws, d, cls=cls)
    trace = []
    encoder_forward(tb, blocks, 2, ln, trace)
    for bi in range(2):
        heat = attention_rollout(_item(trace, bi), (f, hs, ws), cls)
        assert heat.shape == (f, hs, ws)
        assert np.all(heat > 0)
        assert np.all(heat <= 1.0 + 1e-12)
        assert np.allclose(heat.max(axis=(1, 2)), 1.0)


def rollout_oracle(trace, grid, has_cls, batch_index):
    """Dense rollout: each pass's [M, M] matrix 0.5 * A / count + 0.5 * I,
    whose rows must already sum to 1 up to the softmax's rounding, is
    renormalized and applied in call order, so a divided block is
    spatial @ temporal.  The map is the CLS row, or the mean row without
    a CLS, normalized per frame by its max."""
    t, hs, ws = grid
    off = 1 if has_cls else 0
    rolled = np.eye(t * hs * ws + off)
    for ids, weights in trace:
        a = np.zeros(rolled.shape)
        np.add.at(a, (ids[:, :, None], ids[:, None, :]), weights[batch_index])
        mixed = 0.5 * a / np.bincount(ids.ravel())[:, None] + 0.5 * np.eye(len(a))
        assert np.allclose(mixed.sum(axis=-1), 1.0, atol=1e-6)
        rolled = mixed / mixed.sum(axis=-1, keepdims=True) @ rolled
    mass = rolled[0, off:] if has_cls else rolled.mean(axis=0)
    heat = mass.reshape(t, hs, ws)
    return heat / heat.max(axis=(1, 2), keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant,cls,grid", [("divided", True, (3, 2, 3)),
                                              ("joint", False, (2, 3, 2))])
def test_rollout_matches_dense_oracle(variant, cls, grid, dtype):
    rng = np.random.default_rng(12)
    d, depth = 8, 3
    blocks = [BlockWeights(rng, variant, d, dtype=dtype) for _ in range(depth)]
    for w in blocks:                          # sharpen the maps away from flat
        for pw in (w.temporal, w.spatial) if variant == "divided" else (w.joint,):
            pw.q.w.data *= 30
            pw.k.w.data *= 30
    ln = LayerNormParams(d, dtype=dtype)
    n = int(np.prod(grid)) + (1 if cls else 0)
    tb = TokenBatch(Tensor(rng.standard_normal((2, n, d)), dtype=dtype), grid, has_cls=cls)
    trace = []
    encoder_forward(tb, blocks, 2, ln, trace)
    for bi in range(2):
        heat = attention_rollout(_item(trace, bi), grid, cls)
        assert heat.shape == grid
        assert np.abs(heat - rollout_oracle(trace, grid, cls, bi)).max() < 1e-12
        assert heat.min() < 0.9               # far from the flat all-ones map


def test_divided_rollout_memory_at_paper_grid():
    # 16 frames of 14 x 14 patches: the dense path held 3137^2 float64
    # matrices (450 MiB peak); the carried row holds one pass's weights
    rng = np.random.default_rng(14)
    grid, depth = (16, 14, 14), 2

    def softmax_rows(g, n):
        w = rng.random((1, g, n, n), dtype=np.float32)
        return w / w.sum(axis=-1, keepdims=True)

    trace = []
    for _ in range(depth):
        trace.append((pass_groups(grid, True, "temporal"), softmax_rows(196, 17)))
        trace.append((pass_groups(grid, True, "spatial"), softmax_rows(16, 197)))
    tracemalloc.start()
    try:
        heat = attention_rollout(trace, grid, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert heat.shape == grid and np.isfinite(heat).all()
    assert peak < 32 * 2 ** 20, peak / 2 ** 20


def test_write_pgm_golden_bytes(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    path = tmp_path / "map.pgm"
    write_pgm(path, img)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(range(6))


# ---------------------------------------------------------------------------
# block gradient checks (full suite lives in the acceptance tests)


@pytest.mark.parametrize("variant", ["divided", "joint"])
def test_block_gradcheck(variant):
    rng = np.random.default_rng(13)
    d = 8
    w = BlockWeights(rng, variant, d, dtype=np.float64)
    f, hs, ws = (2, 2, 1) if variant == "divided" else (2, 1, 2)
    cls = variant == "divided"
    n = f * hs * ws + (1 if cls else 0)
    x = Tensor(rng.standard_normal((1, n, d)), requires_grad=True, dtype=np.float64)
    red = Tensor(rng.standard_normal((1, n, d)), dtype=np.float64)
    step = divided_block if variant == "divided" else joint_block

    def f_x(t):
        out = step(TokenBatch(t, (f, hs, ws), cls), w, 2)
        return T.sum_(T.mul(out.tokens, red))

    assert T.grad_check(f_x, x) < 1e-6
