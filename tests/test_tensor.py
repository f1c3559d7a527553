"""Tensor core: op semantics against loop-level oracles, backward-pass
bookkeeping, finite-difference gradient checks, MAC accounting."""

import math
import tracemalloc

import numpy as np
import pytest

from vslr import tensor as T
from vslr.tensor import Tensor


# ---------------------------------------------------------------------------
# oracles (independent of the implementation under test)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def softmax_oracle(x):
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i].astype(np.float64)
        e = np.array([math.exp(v - row.max()) for v in row])
        out[i] = e / e.sum()
    return out


def layer_norm_oracle(x, g, b, eps=1e-5):
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i].astype(np.float64)
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + eps) * g + b
    return out


def gelu_oracle(x):
    c = math.sqrt(2.0 / math.pi)
    out = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    of = out.reshape(-1)
    for i, v in enumerate(flat):
        v = float(v)
        of[i] = 0.5 * v * (1.0 + math.tanh(c * (v + 0.044715 * v ** 3)))
    return out


def attention_reference(q, k, v, heads):
    """Multi-head attention composed from unfused ops: per-head split,
    T.matmul, T.scale, T.softmax, T.matmul, merge."""
    g, n, d = q.data.shape
    dh = d // heads

    def split(t):
        return T.transpose(T.reshape(t, (g, n, heads, dh)), (0, 2, 1, 3))

    logits = T.scale(T.matmul(split(q), T.transpose(split(k), (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    ctx = T.matmul(T.softmax(logits, axis=-1), split(v))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (g, n, d))


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, k, n = rng.integers(1, 7, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        assert np.allclose(out.data, matmul_oracle(a, b), atol=1e-12)


def test_matmul_batch_dims():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((5, 6))
    out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    assert out.shape == (2, 3, 4, 6)
    assert np.allclose(out.data[1, 2], matmul_oracle(a[1, 2], b), atol=1e-12)


def test_softmax_matches_oracle_and_rows_sum_to_one():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 11)) * 5
    y = T.softmax(Tensor(x, dtype=np.float64)).data
    assert np.allclose(y, softmax_oracle(x), atol=1e-12)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_handles_large_logits():
    x = np.array([[1000.0, 1000.0, -1000.0]])
    y = T.softmax(Tensor(x, dtype=np.float64)).data
    assert np.all(np.isfinite(y))
    assert np.allclose(y, [[0.5, 0.5, 0.0]], atol=1e-12)


def test_layer_norm_matches_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 9))
    g = rng.standard_normal(9)
    b = rng.standard_normal(9)
    out = T.layer_norm(Tensor(x, dtype=np.float64), Tensor(g, dtype=np.float64),
                       Tensor(b, dtype=np.float64))
    assert np.allclose(out.data, layer_norm_oracle(x, g, b), atol=1e-12)


def test_gelu_matches_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 7)) * 3
    out = T.gelu(Tensor(x, dtype=np.float64))
    assert np.allclose(out.data, gelu_oracle(x), atol=1e-12)


def test_linear_is_affine():
    rng = np.random.default_rng(5)
    x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal(2)
    out = T.linear(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                   Tensor(b, dtype=np.float64))
    assert np.allclose(out.data, matmul_oracle(x, w) + b, atol=1e-12)


def test_structural_ops_roundtrip():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4))
    t = Tensor(x, dtype=np.float64)
    assert np.array_equal(T.reshape(t, (6, 4)).data, x.reshape(6, 4))
    assert np.array_equal(T.transpose(t, (2, 0, 1)).data, x.transpose(2, 0, 1))
    assert np.array_equal(T.slice_along(t, 1, 1, 3).data, x[:, 1:3])
    assert np.array_equal(T.take(t, np.array([2, 0, 2]), axis=2).data, x[:, :, [2, 0, 2]])
    two = T.concat([t, t], axis=0)
    assert np.array_equal(two.data, np.concatenate([x, x], axis=0))
    r = T.repeat(Tensor(x[:, :1], dtype=np.float64), 5, axis=1)
    assert np.array_equal(r.data, np.repeat(x[:, :1], 5, axis=1))
    assert np.allclose(T.mean(t, axis=(0, 2)).data, x.mean(axis=(0, 2)))
    assert np.allclose(T.sum_(t).data, x.sum())


# ---------------------------------------------------------------------------
# shape/dtype discipline


def test_mixed_dtypes_rejected():
    a = Tensor(np.ones((2, 2)), dtype=np.float32)
    b = Tensor(np.ones((2, 2)), dtype=np.float64)
    with pytest.raises(TypeError, match="mixed dtypes"):
        T.add(a, b)


def test_shape_errors_name_both_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 5)))
    with pytest.raises(ValueError) as err:
        T.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_broadcast_only_over_leading_axes():
    big = Tensor(np.ones((2, 4, 3)))
    small = Tensor(np.ones((4, 3)))
    assert T.add(big, small).shape == (2, 4, 3)
    inner = Tensor(np.ones((2, 1, 3)))
    with pytest.raises(ValueError, match="not batch-compatible"):
        T.add(big, inner)


def test_broadcast_gradient_sums_leading_axes():
    x = Tensor(np.ones((2, 4, 3)), requires_grad=True, dtype=np.float64)
    b = Tensor(np.arange(3.0), requires_grad=True, dtype=np.float64)
    T.backward(T.sum_(T.add(x, b)))
    assert np.array_equal(b.grad, np.full(3, 8.0))
    assert np.array_equal(x.grad, np.ones((2, 4, 3)))


# ---------------------------------------------------------------------------
# backward-pass bookkeeping


def test_diamond_graph_accumulates_both_paths():
    # z = x*x + 3x; dz/dx = 2x + 3, the shared x node gets both contributions
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True, dtype=np.float64)
    z = T.add(T.mul(x, x), T.scale(x, 3.0))
    T.backward(T.sum_(z))
    assert np.allclose(x.grad, 2 * x.data + 3)


def test_repeated_backward_accumulates_until_zeroed():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    loss = T.sum_(T.mul(x, x))
    T.backward(loss)
    once = x.grad.copy()
    T.backward(loss)
    assert np.allclose(x.grad, 2 * once)
    x.zero_grad()
    assert x.grad is None
    T.backward(loss)
    assert np.allclose(x.grad, once)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.add(x, x))


def test_no_grad_outside_requires_grad_leaves():
    x = Tensor(np.ones(3), requires_grad=False, dtype=np.float64)
    w = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    y = T.mul(x, w)
    T.backward(T.sum_(y))
    assert x.grad is None
    assert np.allclose(w.grad, 1.0)


# ---------------------------------------------------------------------------
# gradient checks (64-bit central differences)


def _weighted(rng, shape):
    w = Tensor(rng.standard_normal(shape), dtype=np.float64)

    def reduce(y):
        return T.sum_(T.mul(y, w))

    return reduce


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
    with pytest.raises(TypeError, match="float64"):
        T.grad_check(lambda t: T.sum_(t), x)


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_primitives(seed):
    rng = np.random.default_rng(100 + seed)

    def rand(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)

    m, k, n = (int(v) for v in rng.integers(2, 5, size=3))
    other = Tensor(rng.standard_normal((k, n)), dtype=np.float64)
    red = _weighted(rng, (m, n))
    assert T.grad_check(lambda t: red(T.matmul(t, other)), rand(m, k)) < 1e-6

    red2 = _weighted(rng, (m, k))
    assert T.grad_check(lambda t: red2(T.softmax(t)), rand(m, k)) < 1e-6
    g = Tensor(rng.standard_normal(k), dtype=np.float64)
    b = Tensor(rng.standard_normal(k), dtype=np.float64)
    assert T.grad_check(lambda t: red2(T.layer_norm(t, g, b)), rand(m, k)) < 1e-6
    assert T.grad_check(lambda t: red2(T.gelu(t)), rand(m, k)) < 1e-6
    w = Tensor(rng.standard_normal((k, n)), dtype=np.float64)
    bias = Tensor(rng.standard_normal(n), dtype=np.float64)
    assert T.grad_check(lambda t: red(T.linear(t, w, bias)), rand(m, k)) < 1e-6
    # weight and bias sides of linear
    xs = Tensor(rng.standard_normal((m, k)), dtype=np.float64)
    assert T.grad_check(lambda t: red(T.linear(xs, t, bias)), rand(k, n)) < 1e-6
    assert T.grad_check(lambda t: red(T.linear(xs, w, t)), rand(n)) < 1e-6


def test_grad_check_structural_ops():
    rng = np.random.default_rng(200)

    def rand(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)

    red = _weighted(rng, (12,))
    assert T.grad_check(lambda t: red(T.reshape(t, (12,))), rand(3, 4)) < 1e-6
    red2 = _weighted(rng, (4, 3))
    assert T.grad_check(lambda t: red2(T.transpose(t, (1, 0))), rand(3, 4)) < 1e-6
    idx = np.array([0, 2, 2, 1])
    red3 = _weighted(rng, (4, 4))
    assert T.grad_check(lambda t: red3(T.take(t, idx, axis=0)), rand(3, 4)) < 1e-6
    red4 = _weighted(rng, (3, 2))
    assert T.grad_check(lambda t: red4(T.slice_along(t, 1, 1, 3)), rand(3, 4)) < 1e-6
    red5 = _weighted(rng, (3, 5))
    assert T.grad_check(lambda t: red5(T.repeat(t, 5, axis=1)), rand(3, 1)) < 1e-6
    other = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    red6 = _weighted(rng, (5, 4))
    assert T.grad_check(lambda t: red6(T.concat([t, other], axis=0)), rand(3, 4)) < 1e-6
    assert T.grad_check(lambda t: T.mean(T.mul(t, t)), rand(3, 4)) < 1e-6
    assert T.grad_check(lambda t: T.mean(T.sum_(T.mul(t, t), axis=1, keepdims=True)),
                        rand(3, 4)) < 1e-6
    assert T.grad_check(lambda t: T.sum_(T.scale(t, -2.5)), rand(2, 3)) < 1e-6


# ---------------------------------------------------------------------------
# fused attention


def _split_attention(monkeypatch, mode, g, heads, n):
    """Shrink the weight budget so a float64 forward runs >= 3 blocks of
    two whole groups ("groups") or of two query rows of one group
    ("rows"), the last block ragged."""
    monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", 2 * heads * n * 8 * (n if mode == "groups" else 1))
    blocks = T._attn_blocks(g, heads, n, 8)
    sizes = [(len(range(g)[b]), len(range(n)[r])) for b, r in blocks]
    assert len(blocks) >= 3 and sizes[-1] != sizes[0]


@pytest.mark.parametrize("mode", ["one block", "groups", "rows"])
def test_attention_matches_reference_composition(mode, monkeypatch):
    rng = np.random.default_rng(300)
    g, n, d, heads = 5, 7, 12, 3
    if mode != "one block":
        _split_attention(monkeypatch, mode, g, heads, n)
    red = _weighted(rng, (g, n, d))
    leaves = [rng.standard_normal((g, n, d)) * 2 for _ in range(3)]
    results = []
    for op in (lambda *qkv: T.attention(*qkv, heads, np.arange(n)[None]),
               lambda *qkv: attention_reference(*qkv, heads)):
        qkv = [Tensor(a, requires_grad=True, dtype=np.float64) for a in leaves]
        out = op(*qkv)
        T.backward(red(out))
        results.append([out.data] + [t.grad for t in qkv])
    for got, want in zip(*results):
        assert np.allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode", ["groups", "rows"])
def test_attention_grad_check_blocked(mode, monkeypatch):
    rng = np.random.default_rng(301)
    g, n, d, heads = 5, 5, 4, 2
    _split_attention(monkeypatch, mode, g, heads, n)
    qkv = [Tensor(rng.standard_normal((g, n, d)), requires_grad=True, dtype=np.float64)
           for _ in range(3)]
    red = _weighted(rng, (g, n, d))
    for i in range(3):
        def f(t, i=i):
            args = list(qkv)
            args[i] = t
            return red(T.attention(*args, heads, np.arange(n)[None]))
        assert T.grad_check(f, qkv[i]) < 1e-6


def test_attention_memory_is_bounded():
    """Neither the graph a forward leaves nor backward's peak holds a full
    [G, h, N, N] weight array (16 MiB here)."""
    rng = np.random.default_rng(302)
    g, heads, n, d = 1, 4, 1024, 64
    full = g * heads * n * n * 4
    qkv = [Tensor(rng.standard_normal((g, n, d)).astype(np.float32), requires_grad=True)
           for _ in range(3)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = T.sum_(T.attention(*qkv, heads, np.arange(n)[None]))
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held < full and peak < full, (held / 2 ** 20, peak / 2 ** 20)


# over 8 tokens: token 0 sits in every group, 1, 2, 4, 6 and 7 in two, 3 and 5 in one
OVERLAPPING = np.array([[0, 1, 2, 3, 4], [0, 5, 6, 7, 2], [0, 4, 6, 1, 7]])


def grouped_attention_reference(q, k, v, heads, groups):
    """T.take each group, attention_reference on [B*G, L, D], then each
    token's mean over the group entries that hold it, as a T.matmul."""
    b, m, d = q.data.shape
    g, n = groups.shape
    flat = groups.ravel()

    def gather(t):
        return T.reshape(T.take(t, flat, axis=1), (b * g, n, d))

    ctx = T.reshape(attention_reference(gather(q), gather(k), gather(v), heads), (b, g * n, d))
    member = (flat[None, :] == np.arange(m)[:, None]).astype(np.float64)
    return T.matmul(Tensor(member / member.sum(axis=1, keepdims=True)), ctx)


@pytest.mark.parametrize("mode", ["one block", "rows"])
def test_attention_overlapping_groups_match_reference(mode, monkeypatch):
    rng = np.random.default_rng(303)
    b, m, d, heads = 2, 8, 6, 3
    g, n = OVERLAPPING.shape
    if mode == "rows":
        _split_attention(monkeypatch, mode, b * g, heads, n)
    red = _weighted(rng, (b, m, d))
    leaves = [rng.standard_normal((b, m, d)) * 2 for _ in range(3)]
    results = []
    for op in (T.attention, grouped_attention_reference):
        qkv = [Tensor(a, requires_grad=True, dtype=np.float64) for a in leaves]
        out = op(*qkv, heads, OVERLAPPING)
        T.backward(red(out))
        results.append([out.data] + [t.grad for t in qkv])
    for got, want in zip(*results):
        assert np.allclose(got, want, rtol=0, atol=1e-10)


def test_attention_overlapping_groups_grad_check():
    rng = np.random.default_rng(304)
    b, m, d, heads = 2, 8, 4, 2
    qkv = [Tensor(rng.standard_normal((b, m, d)), requires_grad=True, dtype=np.float64)
           for _ in range(3)]
    red = _weighted(rng, (b, m, d))
    for i in range(3):
        def f(t, i=i):
            args = list(qkv)
            args[i] = t
            return red(T.attention(*args, heads, OVERLAPPING))
        assert T.grad_check(f, qkv[i]) < 1e-6


def test_attention_rejects_bad_groups():
    x = Tensor(np.zeros((1, 4, 8)))
    with pytest.raises(ValueError, match="leave"):
        T.attention(x, x, x, 2, np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError, match="lie in"):
        T.attention(x, x, x, 2, np.array([[0, 1], [2, 4]]))


def test_attention_rejects_mismatched_shapes():
    x = Tensor(np.zeros((1, 3, 8)))
    with pytest.raises(ValueError, match="share one"):
        T.attention(x, x, Tensor(np.zeros((1, 4, 8))), 2, np.arange(3)[None])


# ---------------------------------------------------------------------------
# MAC accounting


def test_mac_counter_counts_multiply_adds():
    T.reset_macs()
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    T.matmul(a, b)
    assert T.mac_count() == 2 * 4 * 3
    T.matmul(a, b, tag="attn")
    assert T.mac_count("attn") == 24
    assert T.mac_count() == 48
    T.reset_macs()
    assert T.mac_count() == 0
    g, n, d, heads = 2, 5, 8, 4
    x = Tensor(np.ones((g, n, d)))
    T.attention(x, x, x, heads, np.arange(n)[None])   # QK^T and AV: 2 * G * h * N^2 * dh
    assert T.mac_count("attn") == T.mac_count() == 2 * g * heads * n * n * (d // heads)
    T.reset_macs()
