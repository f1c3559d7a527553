"""Attention blocks: loop-level oracle, normalization and exact-weight
properties, divided/joint equivalences, MAC cost claims, rollout maps."""

import math

import numpy as np
import pytest

from vslr import tensor as T
from vslr.attention import (AttentionTrace, BlockWeights, PassWeights,
                            _full_matrix_divided, attention_rollout,
                            divided_block, encoder_forward, joint_block,
                            multi_head_attention, pass_groups, write_pgm)
from vslr.embedding import TokenBatch
from vslr.nn import LayerNormParams
from vslr.tensor import Tensor


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
        out, _ = multi_head_attention(Tensor(x, dtype=np.float64), w, heads, np.arange(n)[None])
        assert np.allclose(out.data, mha_oracle(x, w, heads), atol=1e-10)


def test_multi_head_attention_blocked_output_and_trace(monkeypatch):
    """Under 15 ragged query-row blocks the output still matches the loop
    oracle, and the trace is the full softmax(q k^T / sqrt(dh))."""
    rng = np.random.default_rng(20)
    g, n, d, heads = 3, 9, 8, 2
    dh = d // heads
    monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", 2 * heads * n * 8)   # 2 float64 rows
    assert len(T._attn_blocks(g, heads, n, 8)) == 15
    w = _pass(rng, d)
    x = rng.standard_normal((g, n, d))
    out, tr = multi_head_attention(Tensor(x, dtype=np.float64), w, heads, np.arange(n)[None],
                                   want_trace=True)
    assert np.allclose(out.data, mha_oracle(x, w, heads), atol=1e-10)

    def heads_of(p):
        return (x @ p.w.data + p.b.data).reshape(g, n, heads, dh).transpose(0, 2, 1, 3)

    logits = heads_of(w.q) @ heads_of(w.k).swapaxes(-1, -2) / math.sqrt(dh)
    want = np.exp(logits - logits.max(axis=-1, keepdims=True))
    want /= want.sum(axis=-1, keepdims=True)
    assert tr.shape == (g, 1, heads, n, n)
    assert np.allclose(tr[:, 0], want, rtol=0, atol=1e-10)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g, n, d, heads = (int(v) for v in rng.integers(1, 6, size=4))
        d *= 4
        heads = [1, 2, 4][int(rng.integers(0, 3))]
        w = _pass(rng, d)
        x = Tensor(rng.standard_normal((g, n, d)) * 3, dtype=np.float64)
        _, tr = multi_head_attention(x, w, heads, np.arange(n)[None], want_trace=True)
        assert tr.shape == (g, 1, heads, n, n)
        assert np.allclose(tr.sum(axis=-1), 1.0, atol=1e-12)


def test_identical_keys_give_uniform_weights():
    rng = np.random.default_rng(2)
    d, n = 8, 5
    w = _pass(rng, d)
    w.k.w.data[:] = 0.0          # every key identical -> flat logits
    x = Tensor(rng.standard_normal((1, n, d)), dtype=np.float64)
    _, tr = multi_head_attention(x, w, 2, np.arange(n)[None], want_trace=True)
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
    _, tr = divided_block(tb, w, 2, want_trace=True)
    assert tr["temporal"].shape == (2, 4, 2, 1, 1)
    assert np.all(tr["temporal"] == 1.0)


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
    out_d, _ = divided_block(tb, dw, heads)
    out_j, _ = joint_block(tb, jw, heads)
    assert np.allclose(out_d.tokens.data, out_j.tokens.data, atol=1e-12)


def test_identical_frames_split_temporal_attention_evenly():
    rng = np.random.default_rng(5)
    d = 8
    w = BlockWeights(rng, "divided", d, dtype=np.float64)
    per_position = rng.standard_normal((1, 6, d))
    tokens = np.concatenate([per_position, per_position], axis=1)  # two equal frames
    tb = TokenBatch(Tensor(tokens, dtype=np.float64), (2, 2, 3), has_cls=False)
    _, tr = divided_block(tb, w, 2, want_trace=True)
    assert np.all(tr["temporal"] == 0.5)


def test_frame_permutation_equivariance_without_positional():
    rng = np.random.default_rng(6)
    b, f, hs, ws, d = 2, 4, 2, 2, 8
    s = hs * ws
    w = BlockWeights(rng, "divided", d, dtype=np.float64)
    tb = _tb(rng, b, f, hs, ws, d, cls=True)
    out, _ = divided_block(tb, w, 2)

    perm = np.array([2, 0, 3, 1])
    tokens = tb.tokens.data
    patches = tokens[:, 1:].reshape(b, f, s, d)[:, perm].reshape(b, f * s, d)
    permuted = np.concatenate([tokens[:, :1], patches], axis=1)
    out_p, _ = divided_block(TokenBatch(Tensor(permuted, dtype=np.float64),
                                        (f, hs, ws), True), w, 2)
    want = out.tokens.data[:, 1:].reshape(b, f, s, d)[:, perm].reshape(b, f * s, d)
    assert np.allclose(out_p.tokens.data[:, 1:], want, atol=1e-10)
    assert np.allclose(out_p.tokens.data[:, 0], out.tokens.data[:, 0], atol=1e-10)


def test_divided_trace_rows_sum_to_one_with_cls():
    rng = np.random.default_rng(7)
    w = BlockWeights(rng, "divided", 8, dtype=np.float64)
    tb = _tb(rng, 2, 3, 2, 2, 8, cls=True)
    _, tr = divided_block(tb, w, 4, want_trace=True)
    assert np.allclose(tr["temporal"].sum(axis=-1), 1.0, atol=1e-12)
    assert np.allclose(tr["spatial"].sum(axis=-1), 1.0, atol=1e-12)
    assert tr["temporal"].shape == (2, 4, 4, 4, 4)   # [B, S, heads, 1+F, 1+F]
    assert tr["spatial"].shape == (2, 3, 4, 5, 5)    # [B, F, heads, 1+S, 1+S]


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
    out, _ = divided_block(tb, w, heads)
    want = divided_block_oracle(tb.tokens.data, w, heads, grid, cls)
    assert np.allclose(out.tokens.data, want, rtol=0, atol=1e-10)


def test_pass_groups_layout():
    assert pass_groups((2, 1, 3), False, "temporal").tolist() == [[0, 3], [1, 4], [2, 5]]
    assert pass_groups((2, 1, 3), False, "spatial").tolist() == [[0, 1, 2], [3, 4, 5]]
    assert pass_groups((2, 1, 3), True, "temporal").tolist() == [[0, 1, 4], [0, 2, 5], [0, 3, 6]]
    assert pass_groups((2, 1, 3), True, "spatial").tolist() == [[0, 1, 2, 3], [0, 4, 5, 6]]
    assert pass_groups((2, 1, 2), True, "joint").tolist() == [[0, 1, 2, 3, 4]]


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
    out, _ = encoder_forward(tb, blocks, 2, ln)
    assert np.allclose(out.tokens.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.tokens.data.var(axis=-1), 1.0, atol=1e-3)


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
    _, trace = encoder_forward(tb, blocks, 2, ln, want_trace=True)
    heat = attention_rollout(trace)
    assert heat.shape == (f, hs, ws)
    assert np.allclose(heat, 1.0, atol=1e-12)


@pytest.mark.parametrize("variant,cls", [("divided", True), ("joint", False)])
def test_rollout_on_random_weights(variant, cls):
    rng = np.random.default_rng(11)
    d, depth = 8, 2
    f, hs, ws = (3, 2, 2) if variant == "divided" else (2, 2, 2)
    blocks = [BlockWeights(rng, variant, d, dtype=np.float64) for _ in range(depth)]
    ln = LayerNormParams(d, dtype=np.float64)
    tb = _tb(rng, 2, f, hs, ws, d, cls=cls)
    _, trace = encoder_forward(tb, blocks, 2, ln, want_trace=True)
    for bi in range(2):
        heat = attention_rollout(trace, batch_index=bi)
        assert heat.shape == (f, hs, ws)
        assert np.all(heat > 0)
        assert np.all(heat <= 1.0 + 1e-12)
        assert np.allclose(heat.max(axis=(1, 2)), 1.0)


def test_divided_full_matrix_is_row_stochastic():
    rng = np.random.default_rng(12)
    w = BlockWeights(rng, "divided", 8, dtype=np.float64)
    tb = _tb(rng, 1, 3, 2, 2, 8, cls=True)
    _, tr = divided_block(tb, w, 2, want_trace=True)
    mat = _full_matrix_divided(tr, (3, 2, 2), True, 0)
    assert mat.shape == (13, 13)
    assert np.allclose(mat.sum(axis=-1), 1.0, atol=1e-10)


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
        out, _ = step(TokenBatch(t, (f, hs, ws), cls), w, 2)
        return T.sum_(T.mul(out.tokens, red))

    assert T.grad_check(f_x, x) < 1e-6
