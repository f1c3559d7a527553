"""Tensor core: op semantics against loop-level oracles, backward-pass
bookkeeping, finite-difference gradient checks, MAC accounting."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from vslr import lanes
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
    assert np.array_equal(T.take(t, np.array([2, 0, 2]), axis=2).data, x[:, :, [2, 0, 2]])
    two = T.concat([t, t], axis=0)
    assert np.array_equal(two.data, np.concatenate([x, x], axis=0))
    r = T.repeat(Tensor(x[:, :1], dtype=np.float64), 5, axis=1)
    assert np.array_equal(r.data, np.repeat(x[:, :1], 5, axis=1))
    assert np.allclose(T.mean(t, axis=(0, 2)).data, x.mean(axis=(0, 2)))
    assert np.allclose(T.sum_(t).data, x.sum())


def test_mse_matches_sub_mul_mean_chain_bit_for_bit():
    rng = np.random.default_rng(7)
    pred = rng.standard_normal((2, 5, 6)).astype(np.float32)
    target = rng.standard_normal((2, 5, 6)).astype(np.float32)
    fused, chain = Tensor(pred, requires_grad=True), Tensor(pred, requires_grad=True)
    loss = T.mse(fused, target)
    diff = T.sub(chain, Tensor(target))
    want = T.mean(T.mul(diff, diff))
    T.backward(loss)
    T.backward(want)
    assert loss.data.tobytes() == want.data.tobytes()
    assert fused.grad.tobytes() == chain.grad.tobytes()
    with pytest.raises(ValueError, match="does not match prediction"):
        T.mse(fused, target[:, 1:])
    with pytest.raises(ValueError, match="does not match prediction"):
        T.mse(fused, target.astype(np.float64))


@pytest.mark.parametrize("ids,axis", [([3, 0, 4, 1, 2], 0), ([4, 1, 2], 0),
                                      ([1, 4, 1, 0, 1], 0), ([2, 0, 2], 1)],
                         ids=["permutation", "subset", "repeated", "repeated_axis1"])
def test_take_matches_scatter_add_oracle(ids, axis):
    """Output and gradient against np.take and an explicit np.add.at, with
    and without repeated ids: take finds the repeats itself."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    idx = np.array(ids)
    w = rng.standard_normal(np.take(x, idx, axis=axis).shape)
    t = Tensor(x, requires_grad=True, dtype=np.float64)
    out = T.take(t, idx, axis=axis)
    T.backward(T.sum_(T.mul(out, Tensor(w))))
    want = np.zeros_like(x)
    np.add.at(np.moveaxis(want, axis, 0), idx, np.moveaxis(w, axis, 0))
    assert np.array_equal(out.data, np.take(x, idx, axis=axis))
    assert np.array_equal(t.grad, want)


def test_linear_makes_no_gradient_for_a_constant_input():
    rng = np.random.default_rng(9)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    g = np.ones((3, 2), dtype=np.float32)
    const = T.linear(Tensor(rng.standard_normal((3, 4))), w, b)
    leaf = T.linear(Tensor(rng.standard_normal((3, 4)), requires_grad=True), w, b)
    assert const._vjp(g)[0] is None
    assert leaf._vjp(g)[0].shape == (3, 4)


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


# name: the op on its leaves, and the leaves' shapes.  gelu, layer_norm
# and attention make again in backward what their forward did not keep.
REPEATED_CASES = {
    "mul": (lambda x: T.mul(x, x), [(2,)]),
    "gelu": (T.gelu, [(2, 300, 256)]),
    "layer_norm": (T.layer_norm, [(2, 9, 16), (16,), (16,)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, 3, OVERLAPPING), [(2, 8, 6)] * 3),
}


@pytest.mark.parametrize("case", list(REPEATED_CASES))
def test_repeated_backward_accumulates_until_zeroed(case):
    """A second backward on one graph adds the same gradient again, so a
    node rebuilds only from its inputs, never from scratch an earlier
    backward spent."""
    op, shapes = REPEATED_CASES[case]
    rng = np.random.default_rng(250)
    leaves = [Tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float64) for s in shapes]
    out = op(*leaves)
    loss = T.sum_(T.mul(out, Tensor(rng.standard_normal(out.data.shape), dtype=np.float64)))
    T.backward(loss)
    once = [t.grad.copy() for t in leaves]
    T.backward(loss)
    for t, g in zip(leaves, once):
        assert np.array_equal(t.grad, 2 * g)
        t.grad = None
    T.backward(loss)
    for t, g in zip(leaves, once):
        assert np.array_equal(t.grad, g)


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
    red5 = _weighted(rng, (3, 5))
    assert T.grad_check(lambda t: red5(T.repeat(t, 5, axis=1)), rand(3, 1)) < 1e-6
    other = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    red6 = _weighted(rng, (5, 4))
    assert T.grad_check(lambda t: red6(T.concat([t, other], axis=0)), rand(3, 4)) < 1e-6
    assert T.grad_check(lambda t: T.mean(T.mul(t, t)), rand(3, 4)) < 1e-6
    target = rng.standard_normal((3, 4))
    assert T.grad_check(lambda t: T.mse(t, target), rand(3, 4)) < 1e-6
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
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
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
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        for i in range(3):
            def f(t, i=i):
                args = list(qkv)
                args[i] = t
                return red(T.attention(*args, heads, np.arange(n)[None]))
            assert T.grad_check(f, qkv[i]) < 1e-6


def _held_after(fn):
    """Bytes still allocated when fn() returns, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[0] - base, out
    finally:
        tracemalloc.stop()


def test_attention_memory_is_bounded(monkeypatch):
    """On one lane and on two, the graph a forward leaves holds the output
    and each row's log-sum-exp, no per-head copy of q, k or v; backward's
    peak holds no full [G, h, N, N] weight array (16 MiB here)."""
    rng = np.random.default_rng(302)
    g, heads, n, d = 1, 4, 1024, 64
    full = g * heads * n * n * 4
    qkv = [Tensor(rng.standard_normal((g, n, d)).astype(np.float32), requires_grad=True)
           for _ in range(3)]
    groups = np.arange(n)[None]
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        T.attention(*qkv, heads, groups)          # the cached layout, made outside the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.attention(*qkv, heads, groups)
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            T.backward(T.sum_(out))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        lse = g * heads * n * 4
        assert held < out.data.nbytes + lse + (16 << 10), (held, out.data.nbytes + lse)
        assert peak < full, peak / 2 ** 20


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_gelu_holds_only_its_output(n_lanes, monkeypatch):
    """Above the split, so two lanes run two parts: backward makes each
    chunk's tanh again, and the node keeps no array of x's size."""
    monkeypatch.setattr(lanes, "LANES", n_lanes)
    x = Tensor(np.random.default_rng(303).standard_normal((2, 600, 256)).astype(np.float32),
               requires_grad=True)
    assert x.data.size > lanes.SPLIT_ELEMENTS
    T.gelu(x)                                     # a lane worker started outside the count
    held, out = _held_after(lambda: T.gelu(x))
    assert out.data.nbytes <= held < out.data.nbytes + (16 << 10), (held, out.data.nbytes)


@pytest.mark.parametrize("n_lanes", [1, 2])
def test_layer_norm_holds_its_output_and_two_row_stats(n_lanes, monkeypatch):
    """The node keeps each row's mean and 1/std, [..., 1] each, and not x^."""
    monkeypatch.setattr(lanes, "LANES", n_lanes)
    rng = np.random.default_rng(304)
    x = Tensor(rng.standard_normal((2, 2100, 64)).astype(np.float32), requires_grad=True)
    gamma, beta = (Tensor(rng.standard_normal(64).astype(np.float32), requires_grad=True)
                   for _ in range(2))
    assert x.data.size > lanes.SPLIT_ELEMENTS
    T.layer_norm(x, gamma, beta)
    held, out = _held_after(lambda: T.layer_norm(x, gamma, beta))
    stats = 2 * 2 * 2100 * 4
    assert out.data.nbytes + stats <= held < out.data.nbytes + stats + (16 << 10), \
        (held, out.data.nbytes + stats)


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
# in-place kernels against their textbook forms, bit for bit


def textbook_linear(x, w, b):
    """T.linear's textbook form: (data, vjp)."""
    data = np.matmul(x, w) + b

    def vjp(g):
        g2, x2 = g.reshape(-1, g.shape[-1]), x.reshape(-1, x.shape[-1])
        return np.matmul(g, w.T), x2.T @ g2, g2.sum(axis=0)

    return data, vjp


def textbook_layer_norm(x, gamma, beta, eps=1e-5):
    """T.layer_norm's textbook form: (data, vjp)."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - mean) * inv
    data = xhat * gamma + beta

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dxhat = g * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (dxhat - m1 - xhat * m2) * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return data, vjp


def textbook_gelu(x):
    """T.gelu's textbook form: (data, vjp)."""
    c = x.dtype.type(math.sqrt(2.0 / math.pi))
    k = x.dtype.type(0.044715)
    t = np.tanh(c * (x + k * (x * x * x)))
    data = 0.5 * x * (1.0 + t)

    def vjp(g):
        du = c * (1.0 + 3.0 * k * x * x)
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        return (g * dx.astype(x.dtype),)

    return data.astype(x.dtype), vjp


def textbook_attn_weights(qs, kt):
    """T._attn_weights with the row max taken by w.max."""
    w = np.matmul(qs, kt)
    m = w.max(axis=-1, keepdims=True)
    w -= m
    np.exp(w, out=w)
    total = w.sum(axis=-1, keepdims=True)
    w /= total
    return w, m + np.log(total)


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)


def _kernel_case(rng, dtype, shape, scale=3.0):
    x = (rng.standard_normal(shape) * scale).astype(dtype)
    x.reshape(-1)[::7] = 0.0                      # exact zeros, and saturated tanh at x*3
    return x, rng.standard_normal(shape).astype(dtype)


DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


@DTYPES
@pytest.mark.parametrize("shape, d_out", [((3, 7), 6), ((2, 5, 33), 6), ((2, 65, 32), 6),
                                          ((7,), 6), ((2, 131073, 4), 1)],
                         ids=["shape0", "shape1", "shape2", "1-D x", "d_out 1 above the split"])
def test_linear_is_its_textbook_form_bit_for_bit(dtype, shape, d_out, monkeypatch):
    """Also a 1-D x, which is one row part on any lane count, and d_out = 1
    above the split, whose second column part is empty."""
    rng = np.random.default_rng(180)
    x, _ = _kernel_case(rng, dtype, shape)
    w = rng.standard_normal((shape[-1], d_out)).astype(dtype)
    b = rng.standard_normal(d_out).astype(dtype)
    want, vjp = textbook_linear(x, w, b)
    for n_lanes in (1, 2):
        # an output gradient of its own, so a gradient block freed by the
        # last run holds no right answer for np.empty to hand back
        g = rng.standard_normal(shape[:-1] + (d_out,)).astype(dtype)
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        out = T.linear(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))
        _same_bits([out.data, *out._vjp(g)], [want, *vjp(g)])


@DTYPES
@pytest.mark.parametrize("shape", [(50, 9), (2, 17, 48), (3, 129, 64), (2, 3137, 64)])
def test_layer_norm_is_its_textbook_form_bit_for_bit(dtype, shape, monkeypatch):
    """Also at the paper divided shape, which runs by row halves on two
    lanes, with output gradients laid out in other orders."""
    rng = np.random.default_rng(181)
    x, g = _kernel_case(rng, dtype, shape)
    x += dtype(4.0)                               # a mean away from 0
    gamma, beta = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
    want, vjp = textbook_layer_norm(x, gamma, beta)
    # transposed views: the row axis strided, and the leading axes swapped
    layouts = [g, np.ascontiguousarray(np.swapaxes(g, 0, -1)).swapaxes(0, -1)]
    if g.ndim == 3:
        layouts.append(np.ascontiguousarray(np.swapaxes(g, 0, 1)).swapaxes(0, 1))
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        out = T.layer_norm(Tensor(x, requires_grad=True), Tensor(gamma), Tensor(beta))
        _same_bits([out.data], [want])
        for gl in layouts:
            _same_bits(out._vjp(gl), vjp(gl))


@DTYPES
@pytest.mark.parametrize("shape", [(4, 7), (2, 129, 128), (2, 300, 256), (2, 3137, 256), ()],
                         ids=["small", "desk", "ragged", "paper ragged", "scalar"])
def test_gelu_is_its_textbook_form_bit_for_bit(dtype, shape, monkeypatch):
    rng = np.random.default_rng(182)
    x, g = _kernel_case(rng, dtype, shape)
    if shape in [(2, 300, 256), (2, 3137, 256)]:
        assert x.size > T._GELU_CHUNK and x.size % T._GELU_CHUNK
    want, vjp = textbook_gelu(x)
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        out = T.gelu(Tensor(x, requires_grad=True))
        _same_bits([out.data, *out._vjp(g)], [want, *vjp(g)])


@DTYPES
@pytest.mark.parametrize("length", [1, 9, T._ROW_MAX_COLUMNS, T._ROW_MAX_COLUMNS + 1, 65])
def test_attention_weights_are_the_textbook_form_bit_for_bit(dtype, length):
    rng = np.random.default_rng(183)
    qs = (rng.standard_normal((6, 4, length, 8)) * 3).astype(dtype)
    kt = rng.standard_normal((6, 4, 8, length)).astype(dtype)
    _same_bits(T._attn_weights(qs, kt), textbook_attn_weights(qs.copy(), kt))


@pytest.mark.parametrize("length", [1, 2, 9, T._ROW_MAX_COLUMNS, T._ROW_MAX_COLUMNS + 1, 197])
def test_row_max_edge_cases(length):
    rng = np.random.default_rng(184)
    w = rng.standard_normal((5, 3, length)).astype(np.float32)
    w[1, 0] = -np.inf                             # a row of -inf
    w[2, 1, length // 2] = np.nan                 # a NaN in a row
    w[3, 2, -1] = np.inf
    w[4, 0] = np.nan
    want = w.max(axis=-1, keepdims=True)
    got = T._row_max(w)
    _same_bits([got], [want])
    assert got[1, 0, 0] == -np.inf and np.isnan(got[2, 1, 0]) and np.isnan(got[4, 0, 0])
    # so a NaN logit still reaches the output, where the divergence checks see it
    q = rng.standard_normal((2, 3, length, 4)).astype(np.float32)
    q[0, 1, 0, 2] = np.nan
    w, lse = T._attn_weights(q, np.swapaxes(q, -1, -2).copy())
    assert np.isnan(w[0, 1, 0]).all() and np.isnan(lse[0, 1, 0, 0])
    assert np.isfinite(w[1]).all()


# ---------------------------------------------------------------------------
# attention lanes


def _divided_groups(frames, patches):
    """Spatial [F, 1+P] and temporal [P, 1+F] groups over 1 + F*P tokens;
    every group holds token 0, the shared CLS."""
    grid = 1 + np.arange(frames * patches).reshape(frames, patches)
    cls = np.zeros((max(frames, patches), 1), dtype=int)
    return (np.concatenate([cls[:frames], grid], axis=1),
            np.concatenate([cls[:patches], grid.T], axis=1))


# name: batch, tokens, groups, whole-group blocks (else row blocks of one group)
LANE_CASES = {
    "joint B2": (2, 11, np.arange(11)[None], False),
    "joint B1": (1, 11, np.arange(11)[None], False),
    "divided spatial": (2, 16, _divided_groups(3, 5)[0], True),
    "divided temporal": (2, 16, _divided_groups(3, 5)[1], True),
}


@DTYPES
@pytest.mark.parametrize("case", sorted(LANE_CASES))
def test_attention_bits_do_not_depend_on_the_lane_count(case, dtype, lane_parts, monkeypatch):
    """Many blocks, run on one lane and on two: the output and all three
    gradients are the same bits.  Backward keeps a group's row blocks on
    one lane, so joint at batch 1 runs it serially."""
    b, m, groups, whole = LANE_CASES[case]
    g, n = groups.shape
    heads, d, size = 2, 8, np.dtype(dtype).itemsize
    monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", 2 * heads * n * size * (n if whole else 1))
    assert len(T._attn_blocks(b * g, heads, n, size)) >= 3
    rng = np.random.default_rng(185)
    leaves = [rng.standard_normal((b, m, d)) * 2 for _ in range(3)]
    weight = Tensor(rng.standard_normal((b, m, d)), dtype=dtype)
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                   # the lanes interleave as finely as they can
    try:
        for n_lanes in (1, 2):
            monkeypatch.setattr(lanes, "LANES", n_lanes)
            qkv = [Tensor(a, requires_grad=True, dtype=dtype) for a in leaves]
            out = T.attention(*qkv, heads, groups)
            T.backward(T.sum_(T.mul(out, weight)))
            results.append([out.data] + [t.grad for t in qkv])
    finally:
        sys.setswitchinterval(interval)
    _same_bits(results[1], results[0])
    assert lane_parts == [1, 1, 2, 1 if case == "joint B1" else 2]     # fwd, bwd per lane count


def _last_row_overflows(monkeypatch):
    """q, k, v of a float32 joint attention in 6 row blocks whose logits
    overflow only in the last query row, which the worker's part holds."""
    n, heads = 12, 2
    monkeypatch.setattr(lanes, "LANES", 2)
    monkeypatch.setattr(T, "_ATTN_BLOCK_BYTES", 2 * heads * n * 4)
    first, second = T._attn_parts(T._attn_blocks(1, heads, n, 4), whole_groups=False)
    assert first[-1][1].stop < n - 1 < second[-1][1].stop
    rng = np.random.default_rng(186)
    q = rng.standard_normal((1, n, 4)).astype(np.float32)
    k = np.abs(rng.standard_normal((1, n, 4))).astype(np.float32) + 1
    q[0, -1] = 3e38                                 # finite, but its logits are not
    return [Tensor(a, requires_grad=True) for a in (q, k, k)], heads, np.arange(n)[None]


def test_attention_lanes_keep_the_callers_errstate(monkeypatch):
    qkv, heads, groups = _last_row_overflows(monkeypatch)
    errors = []
    for n_lanes in (1, 2):
        monkeypatch.setattr(lanes, "LANES", n_lanes)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError) as e:
            T.attention(*qkv, heads, groups)
        errors.append(str(e.value))
    assert errors[1] == errors[0] == "overflow encountered in matmul"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            out = T.attention(*qkv, heads, groups)
            T.backward(T.sum_(out))
    assert np.isnan(out.data[0, -1]).all() and np.isfinite(out.data[0, :-1]).all()


# ---------------------------------------------------------------------------
# dense kernel lanes


# name: leading axes, d_in, d_out, and the part count on two lanes of each
# forward kernel of gelu(linear(layer_norm(x))): 2 above
# lanes.SPLIT_ELEMENTS, else 1.  Each kernel makes one lanes.run call
# forward and one backward.  An embedding projects a constant x with linear
# alone.  The last case is no model's: d_out = 1 above the split, whose
# second column part is empty.
DENSE_CASES = {
    "divided 64->64": ((2, 3137), 64, 64, (2, 2, 2)),
    "divided 64->256": ((2, 3137), 64, 256, (2, 2, 2)),
    "divided 256->64": ((2, 3137), 256, 64, (2, 2, 2)),
    "joint 64->256": ((2, 1568), 64, 256, (1, 2, 2)),
    "embedding divided 768->64": ((2, 3136), 768, 64, (2,)),
    "embedding joint 1536->64": ((2, 1568), 1536, 64, (1,)),
    "decoder 32->128": ((2, 1568), 32, 128, (1, 2, 2)),
    "decoder 128->32": ((2, 1568), 128, 32, (2, 1, 1)),
    "decoder recon 32->1536": ((2, 1411), 32, 1536, (1, 2, 2)),
    "desk 32->128": ((4, 129), 32, 128, (1, 1, 1)),
    "desk eval 128->32": ((8, 129), 128, 32, (1, 1, 1)),
    "d_out 1 4->1": ((2, 131073), 4, 1, (2, 2, 2)),
}


@DTYPES
@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_kernel_bits_do_not_depend_on_the_lane_count(case, dtype, lane_parts, monkeypatch):
    """Every dense shape the models use at paper and desk geometry, on one
    lane and on two: each kernel's output and every gradient are the same
    bits.  Desk shapes make only one-part calls."""
    lead, d_in, d_out, parts = DENSE_CASES[case]
    embedding = case.startswith("embedding")
    rng = np.random.default_rng(187)
    arrays = [(rng.standard_normal(lead + (d_in,)) * 3).astype(dtype),
              rng.standard_normal((d_in, d_out)).astype(dtype),
              rng.standard_normal(d_out).astype(dtype),
              rng.standard_normal(d_in).astype(dtype),
              rng.standard_normal(d_in).astype(dtype)]
    weight = Tensor(rng.standard_normal(lead + (d_out,)), dtype=dtype)
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                   # the lanes interleave as finely as they can
    try:
        for n_lanes in (1, 2):
            monkeypatch.setattr(lanes, "LANES", n_lanes)
            x, w, b, gamma, beta = (Tensor(a, requires_grad=not (embedding and i == 0))
                                    for i, a in enumerate(arrays))
            if embedding:
                outs = [T.linear(x, w, b)]
            else:
                outs = [T.layer_norm(x, gamma, beta)]
                outs.append(T.linear(outs[-1], w, b))
                outs.append(T.gelu(outs[-1]))
            T.backward(T.sum_(T.mul(outs[-1], weight)))
            leaves = [w, b] if embedding else [x, w, b, gamma, beta]
            results.append([o.data for o in outs] + [t.grad for t in leaves])
    finally:
        sys.setswitchinterval(interval)
    _same_bits(results[1], results[0])
    # forward in order, backward in reverse, on one lane and then on two
    assert lane_parts == [1] * 2 * len(parts) + list(parts) + list(parts[::-1])


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
