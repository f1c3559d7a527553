"""Acceptance gate.

One test per acceptance criterion, each printing one pass line with the
measured numbers (run with -s to see them on success; under plain -v the
per-test PASSED/FAILED line carries the verdict).  Expected values come
from independent loop-level oracles or hand-constructed fixtures, never
from the implementation under test.
"""

import time

import numpy as np
import pytest

from vslr import tensor as T
from vslr import video as V
from vslr.attention import (BlockWeights, PassWeights, divided_block,
                            joint_block, multi_head_attention)
from vslr.embedding import EmbeddingConfig, TokenBatch
from vslr.mae import MaeConfig, MaeModel, PretrainConfig, make_tube_mask, pretrain
from vslr.tensor import Tensor
from vslr.train import (ABLATION_COLUMNS, Adam, ClassifierModel, ModelConfig,
                        TrainConfig, cross_entropy, evaluate, freeze_layers,
                        run_ablation, topk_accuracy)
from vslr.video import derive_rng


def _line(name: str, detail: str = "") -> None:
    print(f"[acceptance] {name}: PASS" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """The pinned desk-scale dataset: 4 classes, 24 videos, nominal 8
    frames, 32x32 pixels."""
    root = tmp_path_factory.mktemp("accept")
    manifest = V.make_synthetic_dataset(root, num_classes=4, per_class=6,
                                        nominal_frames=8, size=32, seed=0)
    assert len(manifest.instances) == 24
    return manifest, root / "videos"


# ---------------------------------------------------------------------------
# scale note


def test_full_benchmark_accuracy_out_of_scope():
    """Benchmark top-1 numbers require large-scale pretrained weights and
    the full 2038-video corpus; neither exists here, so no accuracy claim
    is made or checked at that scale.  Desk-scale suites below carry the
    acceptance instead."""
    full = EmbeddingConfig("joint", 32, 224, 16, 16, tube_depth=2)
    desk = EmbeddingConfig("joint", 32, 32, 8, 8, tube_depth=2)
    assert desk.n_tokens < full.n_tokens // 20
    _line("scale note", "full-benchmark accuracy not claimed; "
          f"desk tokens {desk.n_tokens} vs full {full.n_tokens}")


# ---------------------------------------------------------------------------
# token counts


def test_token_count_formula_exact():
    joint = EmbeddingConfig("joint", 32, 224, 16, 16, tube_depth=2)
    assert joint.grid == (8, 14, 14)
    assert joint.n_tokens == 8 * 14 * 14 == 1568
    div = EmbeddingConfig("divided", 32, 224, 16, 16)
    assert div.grid == (16, 14, 14)
    assert div.n_tokens // div.frames == 14 * 14 == 196
    _line("token counts", "joint 1568 = 8x14x14, divided 196/frame, exact")


# ---------------------------------------------------------------------------
# gradient suite


def _scalarized(op):
    """Wrap op so grad_check sees a scalar: weighted sum with weights
    fixed per call site."""
    cache = {}

    def f(t):
        y = op(t)
        if "w" not in cache:
            cache["w"] = Tensor(np.random.default_rng(99).standard_normal(y.shape))
        return T.sum_(T.mul(y, cache["w"]))

    return f


def test_gradient_suite_all_primitives_and_blocks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = {}

    def shapes(rank_lo=1, rank_hi=3, n=10):
        for _ in range(n):
            rank = int(rng.integers(rank_lo, rank_hi + 1))
            yield tuple(int(rng.integers(2, 5)) for _ in range(rank))

    def check(name, make_f, shape_iter):
        errs = []
        for shp in shape_iter:
            x = Tensor(rng.standard_normal(shp), requires_grad=True)
            errs.append(T.grad_check(_scalarized(make_f(shp)), x))
        worst[name] = max(errs)

    # partners are drawn once per shape (default arg), keeping f pure
    check("add", lambda s: (lambda t, o=Tensor(rng.standard_normal(s)): T.add(t, o)),
          shapes())
    check("sub", lambda s: (lambda t, o=Tensor(rng.standard_normal(s)): T.sub(o, t)),
          shapes())
    check("mul", lambda s: (lambda t, o=Tensor(rng.standard_normal(s)): T.mul(t, o)),
          shapes())
    check("scale", lambda s: (lambda t: T.scale(t, -1.7)), shapes())
    check("gelu", lambda s: (lambda t: T.gelu(t)), shapes())
    check("softmax", lambda s: (lambda t: T.softmax(t, axis=-1)), shapes())
    check("reshape", lambda s: (lambda t: T.reshape(t, (-1,))), shapes())
    check("sum", lambda s: (lambda t: T.sum_(t, axis=0, keepdims=True)), shapes())
    check("mean", lambda s: (lambda t: T.mean(t, axis=-1, keepdims=True)), shapes())
    check("repeat", lambda s: (lambda t: T.repeat(T.reshape(t, (1,) + s), 3, axis=0)),
          shapes())

    def mat_shapes(n=10):
        for _ in range(n):
            b, m, k, o = (int(rng.integers(2, 5)) for _ in range(4))
            yield (b, m, k), (k, o)

    errs = []
    for xs, ws in mat_shapes():
        w = Tensor(rng.standard_normal(ws))
        b = Tensor(rng.standard_normal(ws[-1]))
        x = Tensor(rng.standard_normal(xs), requires_grad=True)
        errs.append(T.grad_check(_scalarized(lambda t: T.matmul(t, w)), x))
        w2 = Tensor(rng.standard_normal(ws), requires_grad=True)
        errs.append(T.grad_check(
            _scalarized(lambda t: T.linear(Tensor(x.data.copy()), t, b)), w2))
    worst["matmul/linear"] = max(errs)

    errs = []
    for _ in range(10):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        g = Tensor(rng.standard_normal(d), requires_grad=True)
        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        beta = Tensor(rng.standard_normal(d))
        errs.append(T.grad_check(
            _scalarized(lambda t: T.layer_norm(t, Tensor(np.ones(d)), beta)), x))
        errs.append(T.grad_check(
            _scalarized(lambda t: T.layer_norm(Tensor(x.data.copy()), t, beta)), g))
    worst["layer_norm"] = max(errs)

    errs = []
    for _ in range(10):
        pieces = int(rng.integers(2, 4))
        shp = (3, int(rng.integers(2, 4)))
        others = [Tensor(rng.standard_normal(shp)) for _ in range(pieces - 1)]
        x = Tensor(rng.standard_normal(shp), requires_grad=True)
        errs.append(T.grad_check(
            _scalarized(lambda t: T.concat([t] + others, axis=0)), x))
        errs.append(T.grad_check(
            _scalarized(lambda t: T.slice_along(t, axis=1, start=0, stop=1)), x))
        idx = np.array([2, 0, 1])
        errs.append(T.grad_check(_scalarized(lambda t: T.take(t, idx, axis=0)), x))
        errs.append(T.grad_check(
            _scalarized(lambda t: T.transpose(t, (1, 0))), x))
    worst["concat/slice/take/transpose"] = max(errs)

    errs = []
    for _ in range(10):
        b, c = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        y = rng.integers(0, c, size=b)
        x = Tensor(rng.standard_normal((b, c)), requires_grad=True)
        errs.append(T.grad_check(lambda t: cross_entropy(t, y), x))
    worst["cross_entropy"] = max(errs)

    for variant, block in (("divided", divided_block), ("joint", joint_block)):
        errs = []
        for _ in range(10):
            heads = int(rng.choice([1, 2]))
            d = heads * int(rng.integers(2, 5))
            f = int(rng.integers(1, 4))
            hs, ws = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            if variant == "divided" and hs * ws < 2:
                hs = 2
            cls = variant == "divided"
            n = f * hs * ws + (1 if cls else 0)
            w = BlockWeights(rng, variant, d, dtype=np.float64)
            grid = (f, hs, ws)
            x = Tensor(rng.standard_normal((1, n, d)), requires_grad=True)
            errs.append(T.grad_check(_scalarized(
                lambda t: block(TokenBatch(t, grid, cls), w, heads)[0].tokens), x))
        worst[f"{variant}_block"] = max(errs)

    elapsed = time.perf_counter() - t0
    assert max(worst.values()) < 1e-4, worst
    assert elapsed < 120.0
    _line("gradient suite",
          f"max rel err {max(worst.values()):.2e} over {len(worst)} op groups, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# attention normalization


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(21)
    rows, worst = 0, 0.0
    for _ in range(20):
        variant = str(rng.choice(["divided", "joint"]))
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.integers(2, 5))
        f, hs, ws = (int(rng.integers(1, 4)) for _ in range(3))
        if variant == "divided":
            hs = max(hs, 2)
        cls = bool(rng.integers(0, 2)) if variant == "divided" else False
        n = f * hs * ws + (1 if cls else 0)
        tb = TokenBatch(Tensor(rng.standard_normal((2, n, d))), (f, hs, ws), cls)
        w = BlockWeights(rng, variant, d, dtype=np.float64)
        block = divided_block if variant == "divided" else joint_block
        _, trace = block(tb, w, heads, want_trace=True)
        for arr in trace.values():
            worst = max(worst, float(np.abs(arr.sum(axis=-1) - 1.0).max()))
            rows += arr.size // arr.shape[-1]
    assert worst <= 1e-6
    _line("attention normalization",
          f"{rows} rows across 20 random configs, max |sum-1| {worst:.2e}")


# ---------------------------------------------------------------------------
# tube masks


def test_tube_mask_suite():
    rng = np.random.default_rng(31)
    checked = 0
    for grid in [(2, 4, 4), (4, 3, 5), (1, 14, 14), (4, 4, 4)]:
        cells = grid[1] * grid[2]
        for ratio in (0.25, 0.5, 0.75, 0.9):
            want = int(np.floor(ratio * cells + 0.5))
            if want < 1 or want >= cells:
                continue
            for _ in range(25):
                mask = make_tube_mask(grid, ratio, rng)
                assert mask.masked_cells == want
                tok = np.zeros(grid[0] * cells, dtype=bool)
                tok[mask.masked_token_ids] = True
                by_t = tok.reshape(grid[0], cells)
                assert np.all(by_t == by_t[0])      # tube property
                checked += 1

    ratio, draws = 0.75, 10_000
    freq = np.zeros((4, 4))
    for _ in range(draws):
        freq += make_tube_mask((2, 4, 4), ratio, rng).spatial
    freq /= draws
    dev = float(np.abs(freq - ratio).max())
    assert dev < 0.02
    _line("tube masks",
          f"{checked} masks exact count + tube property; 10k-draw per-cell "
          f"frequency dev {dev:.4f} < 0.02")


# ---------------------------------------------------------------------------
# oracle equivalence, >= 100 instances each


def _mha_oracle(x, w, heads):
    """Per-head, per-query loops; softmax by explicit row loops."""
    g, n, d = x.shape
    dh = d // heads
    q = x @ w.q.w.data + w.q.b.data
    k = x @ w.k.w.data + w.k.b.data
    v = x @ w.v.w.data + w.v.b.data
    merged = np.zeros((g, n, d))
    for gi in range(g):
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(n):
                scores = np.empty(n)
                for j in range(n):
                    scores[j] = float(q[gi, i, sl] @ k[gi, j, sl]) / np.sqrt(dh)
                e = np.exp(scores - scores.max())
                a = e / e.sum()
                acc = np.zeros(dh)
                for j in range(n):
                    acc += a[j] * v[gi, j, sl]
                merged[gi, i, sl] = acc
    return merged @ w.o.w.data + w.o.b.data


def test_oracle_equivalence_hundred_instances_each():
    rng = np.random.default_rng(41)

    worst = 0.0
    for _ in range(100):
        if rng.random() < 0.5:
            a = rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5))))
            b = rng.standard_normal((a.shape[1], int(rng.integers(1, 5))))
            ref = np.zeros((a.shape[0], b.shape[1]))
            for i in range(a.shape[0]):
                for j in range(b.shape[1]):
                    for k in range(a.shape[1]):
                        ref[i, j] += a[i, k] * b[k, j]
        else:
            g = int(rng.integers(1, 4))
            a = rng.standard_normal((g, 3, 4))
            b = rng.standard_normal((g, 4, 2))
            ref = np.zeros((g, 3, 2))
            for gi in range(g):
                for i in range(3):
                    for j in range(2):
                        for k in range(4):
                            ref[gi, i, j] += a[gi, i, k] * b[gi, k, j]
        got = T.matmul(Tensor(a), Tensor(b)).data
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-10
    mat_worst = worst

    worst = 0.0
    for _ in range(100):
        row = rng.standard_normal(int(rng.integers(2, 9))) * rng.choice([1.0, 100.0])
        e = [float(np.exp(v - max(row))) for v in row]
        ref = np.array([v / sum(e) for v in e])
        got = T.softmax(Tensor(row[None]), axis=-1).data[0]
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-12
    soft_worst = worst

    worst = 0.0
    for _ in range(100):
        heads = int(rng.choice([1, 2]))
        d = heads * int(rng.integers(2, 5))
        g, n = int(rng.integers(1, 3)), int(rng.integers(2, 7))
        w = PassWeights(rng, d, dtype=np.float64)
        x = rng.standard_normal((g, n, d))
        got, _ = multi_head_attention(Tensor(x), w, heads, np.arange(n)[None])
        worst = max(worst, float(np.abs(got.data - _mha_oracle(x, w, heads)).max()))
    assert worst < 1e-10
    mha_worst = worst

    worst = 0.0
    for _ in range(100):
        b, c = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        z = rng.standard_normal((b, c)) * rng.choice([1.0, 30.0])
        y = rng.integers(0, c, size=b)
        ref = 0.0
        for i in range(b):
            e = np.exp(z[i] - z[i].max())
            ref += -np.log(e[y[i]] / e.sum())
        ref /= b
        got = float(cross_entropy(Tensor(z), y).data)
        worst = max(worst, abs(got - ref))
    assert worst < 1e-10
    ce_worst = worst

    for _ in range(100):
        b, c = int(rng.integers(1, 8)), int(rng.integers(3, 12))
        z = rng.standard_normal((b, c))
        if rng.random() < 0.5:
            z = np.round(z * 2) / 2          # provoke ties
        y = rng.integers(0, c, size=b)
        ks = tuple(sorted({1, min(5, c), min(10, c)}))
        ref = {}
        for k in ks:
            hits = 0
            for i in range(b):
                order = sorted(range(c), key=lambda j: (-z[i, j], j))
                hits += order.index(y[i]) < k
            ref[k] = hits / b
        assert topk_accuracy(z, y, ks) == ref

    _line("oracle equivalence",
          f"100 instances each; max dev matmul {mat_worst:.1e}, softmax "
          f"{soft_worst:.1e}, MHA {mha_worst:.1e}, CE {ce_worst:.1e}, top-K exact")


# ---------------------------------------------------------------------------
# MAE desk-scale learning


def test_mae_pretraining_halves_loss(synth):
    manifest, videos = synth
    t0 = time.perf_counter()
    cfg = MaeConfig()                     # 32x32, 2x8x8 cubes, 4x4x4 grid
    assert cfg.embedding_config().grid == (4, 4, 4)
    model = MaeModel(cfg, derive_rng(0, "init"))
    pcfg = PretrainConfig(ratio=0.75, steps=200, batch=2, lr=1e-3, seed=0)
    pipe = V.PipelineConfig(frames=8, sampling="even", crop=32)
    curve = pretrain(model, manifest, videos, pcfg, pipe)
    losses = [l for _, l in curve]
    first = float(np.mean(losses[:10]))
    last = float(np.mean(losses[-10:]))
    elapsed = time.perf_counter() - t0
    assert last <= 0.5 * first, (first, last)
    assert elapsed < 600.0
    _line("MAE learning",
          f"10-step mean loss {first:.3f} -> {last:.3f} "
          f"({100 * last / first:.0f}% of start) in {elapsed:.0f}s / 200 steps")


# ---------------------------------------------------------------------------
# fine-tune overfit and frozen layers


def _train_steps(model, insts, videos, pipe, lr, layers, seed, max_steps,
                 stop_check=None):
    """Mirror of the fine-tuning inner loop with a step budget."""
    trainable = freeze_layers(model, layers)
    opt = Adam(trainable, lr)
    dtype = model.head.w.data.dtype
    losses, step, epoch = [], 0, 0
    while step < max_steps:
        perm = derive_rng(seed, "shuffle", epoch).permutation(len(insts))
        for lo in range(0, len(perm), 4):
            if step >= max_steps:
                break
            xs, ys = [], []
            for j in perm[lo:lo + 4]:
                inst = insts[int(j)]
                rng = derive_rng(seed, inst.video_id, epoch)
                video = V.load_instance_video(videos, inst)
                clip = V.prepare_clip(video, pipe, train=True, rng=rng, label=inst.label)
                xs.append(V.to_model_tensor(clip, dtype))
                ys.append(inst.label)
            logits = model.forward(Tensor(np.stack(xs)))
            loss = cross_entropy(logits, np.array(ys))
            T.backward(loss)
            opt.step()
            opt.zero_grad()
            losses.append(float(loss.data))
            step += 1
        epoch += 1
        if stop_check is not None and stop_check():
            break
    return losses, step


def test_finetune_overfits_and_freezing_holds(synth):
    manifest, videos = synth
    merged = V.merge_train_val(manifest)
    insts = merged.by_split("train")
    assert len(insts) == 20
    pipe = V.PipelineConfig(frames=8, sampling="consecutive", crop=32)
    mcfg = ModelConfig(variant="divided", dim=32, depth=2, heads=4,
                       image_size=32, patch=8, frames=8)
    t0 = time.perf_counter()

    # full fine-tune: >= 95% train top-1 within 300 steps
    model = ClassifierModel(mcfg, 4, derive_rng(1, "init"))
    state = {"top1": 0.0}

    def reached():
        state["top1"] = evaluate(model, merged, videos, pipe, seed=1,
                                 split="train").topk[1]
        return state["top1"] >= 0.95

    _, steps = _train_steps(model, insts, videos, pipe, lr=1e-3, layers="all",
                            seed=1, max_steps=300, stop_check=reached)
    assert state["top1"] >= 0.95, (state["top1"], steps)

    # frozen run: only the last block, final norm, and head may move
    frozen_model = ClassifierModel(mcfg, 4, derive_rng(2, "init"))
    before = {k: v.data.copy() for k, v in frozen_model.named().items()}
    losses, _ = _train_steps(frozen_model, insts, videos, pipe, lr=1e-3,
                             layers=1, seed=2, max_steps=40)
    first, last = float(np.mean(losses[:5])), float(np.mean(losses[-5:]))
    assert last <= 0.8 * first, (first, last)
    moved, held = [], []
    for name, t in frozen_model.named().items():
        (held if np.array_equal(before[name], t.data) else moved).append(name)
    frozen_names = [n for n in before if n.startswith(("embed.", "enc.0."))]
    assert all(n in held for n in frozen_names), moved
    assert any(n.startswith("enc.1.") for n in moved)
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _line("fine-tune overfit",
          f"train top-1 {100 * state['top1']:.0f}% after {steps} steps; frozen run "
          f"loss {first:.2f} -> {last:.2f} with {len(frozen_names)} weights "
          f"bit-identical; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# ablation harness structure


def test_ablation_harness_structure(synth, tmp_path):
    manifest, videos = synth
    mcfg = ModelConfig(variant="divided", dim=16, depth=2, heads=2,
                       image_size=32, patch=8, frames=8)
    grid = [
        TrainConfig(batch=4, epochs=1, lr=1e-3, frames=8,
                    sampling="consecutive", layers="all", seed=0),
        TrainConfig(batch=4, epochs=1, lr=1e-3, frames=8,
                    sampling="even", layers="all", seed=0),
    ]
    out = tmp_path / "ablation.csv"
    rows = run_ablation(grid, manifest, videos, mcfg, crop=32, out_csv=out)
    import csv as _csv

    with open(out, newline="") as fh:
        parsed = list(_csv.reader(fh))
    assert parsed[0] == ["Batch", "Epochs", "Frames", "Init. LR", "Model",
                         "Fine-Tuned Layers", "Sampling", "Top-1 Acc. (%)"]
    assert parsed[0] == ABLATION_COLUMNS
    assert len(parsed) == 3                      # header + one row per config
    assert [r[6] for r in parsed[1:]] == ["Consec.", "Even"]
    for r in parsed[1:]:
        assert 0.0 <= float(r[7]) <= 100.0       # values are desk-scale only
    _line("ablation harness",
          "2-config grid -> CSV with the published column set; "
          "Consec./Even rows; values desk-scale, not compared to benchmarks")


# ---------------------------------------------------------------------------
# preprocessing goldens


def _solid(values, h=4, w=5):
    return np.stack([np.full((h, w, 3), v, dtype=np.uint8) for v in values])


def test_preprocessing_goldens():
    # even sampling: floor(i * 10 / 4) -> 0, 2, 5, 7
    clip = V.sample_even(V.RawVideo(_solid(range(10)), "v"), 4)
    assert clip.sampled_indices == [0, 2, 5, 7]
    assert clip.frames[:, 0, 0, 0].tolist() == [0, 2, 5, 7]

    # 12 -> 16 padding: simulate the four Bernoulli draws on a twin stream
    rng_impl = derive_rng(7, "pad")
    rng_sim = derive_rng(7, "pad")
    back = sum(bool(rng_sim.random() < 0.5) for _ in range(4))
    front = 4 - back
    clip = V.sample_consecutive(V.RawVideo(_solid(range(12)), "v"), 16, rng_impl)
    assert clip.sampled_indices == [-1] * front + list(range(12)) + [-1] * back
    got = clip.frames[:, 0, 0, 0].tolist()
    assert got == [0] * front + list(range(12)) + [11] * back

    # resize rule: upscale short sides to 226, cap long sides at 256; the
    # 200x400 input hits both and the cap wins (a crop of at most 128 keeps
    # the short-side stage out)
    assert V.resize_plan(113, 128) == (226, 256)
    assert V.resize_plan(200, 400) == (128, 256)
    assert V.resize_plan(240, 250) == (240, 250)
    small = np.full((1, 200, 400, 3), 77, dtype=np.uint8)
    out = V.resize_rule(small, 128)
    assert out.shape == (1, 128, 256, 3)
    assert np.all(out == 77)                     # constant image stays constant

    # half-pixel bilinear on a hand-computed 2x2 -> 4x4 ramp
    src = np.zeros((2, 2, 3), dtype=np.uint8)
    src[..., :] = np.array([[0, 100], [200, 60]])[..., None]
    want = np.array([[0, 25, 75, 100],
                     [50, 60, 80, 90],
                     [150, 130, 90, 70],
                     [200, 165, 95, 60]], dtype=np.uint8)
    got = V.resize_bilinear(src, 4, 4)
    assert np.array_equal(got, np.repeat(want[..., None], 3, axis=2))

    # center crop of a 6x8 frame to 4: offsets floor((6-4)/2)=1, floor((8-4)/2)=2
    px = np.arange(6 * 8 * 3, dtype=np.uint8).reshape(6, 8, 3)
    cropped = V.crop_center(V.VideoClip(px[None].copy(), "v", [0], channel_order="RGB"), 4)
    assert cropped.crop_offset == (1, 2)
    assert np.array_equal(cropped.frames[0], px[1:5, 2:6])
    _line("preprocessing goldens",
          "even sampling [0,2,5,7]; 12->16 padding; 200x400 -> 128x256; "
          "bilinear 2x2->4x4 hand values; center crop offsets (1,2)")


def test_pipeline_determinism_under_fixed_seed(synth):
    manifest, videos = synth
    inst = manifest.instances[0]
    pipe = V.PipelineConfig(frames=8, sampling="consecutive", crop=32)
    outs = []
    for _ in range(2):
        video = V.load_instance_video(videos, inst)
        clip = V.prepare_clip(video, pipe, train=True,
                              rng=derive_rng(123, inst.video_id, 0), label=inst.label)
        outs.append(V.to_model_tensor(clip))
    assert np.array_equal(outs[0], outs[1])
    assert outs[0].tobytes() == outs[1].tobytes()
    _line("pipeline determinism", "same seed twice -> bit-identical tensors")


# ---------------------------------------------------------------------------
# top-1 formula


def test_top1_formula_three_of_four():
    z = np.full((4, 10), -5.0)
    labels = np.array([3, 1, 8, 0])
    for i in range(3):
        z[i, labels[i]] = 5.0                    # rows 0..2 rank their label first
    z[3, 9] = 5.0                                # row 3 misses
    acc = topk_accuracy(z, labels, ks=(1,))
    assert acc[1] == 0.75
    _line("top-1 formula", "3 of 4 correct -> 0.75 exactly")
