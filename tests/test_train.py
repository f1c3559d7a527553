"""Classifier training stack: fused cross-entropy vs a loop oracle, Adam
vs a scalar reference, top-K ranking with deterministic tie-breaks, layer
freezing, evaluation reports, fine-tune determinism, and the ablation CSV."""

import csv

import numpy as np
import pytest

from vslr import tensor as T
from vslr import train as TR
from vslr.errors import VslrError
from vslr.tensor import Tensor
from vslr.train import (ABLATION_COLUMNS, Adam, ClassifierModel, ModelConfig,
                        TrainConfig, cross_entropy, evaluate, finetune,
                        freeze_layers, load_batch, run_ablation, topk_accuracy,
                        train_step)
from vslr.video import (Manifest, PipelineConfig, derive_rng, load_instance_video,
                        load_manifest, make_synthetic_dataset, merge_train_val,
                        prepare_clip, to_model_tensor)


# ---------------------------------------------------------------------------
# oracles


def ce_oracle(z, labels):
    """Per-row stabilized softmax cross-entropy, averaged, in loops."""
    total = 0.0
    for i, row in enumerate(z):
        e = np.exp(row - row.max())
        p = e / e.sum()
        total += -np.log(p[labels[i]])
    return total / len(z)


def adam_oracle(w0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam applied elementwise."""
    w = w0.astype(np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def topk_oracle(z, labels, ks):
    """Rank via explicit candidate sort on (-score, class index)."""
    out = {k: 0 for k in ks}
    for row, y in zip(z, labels):
        order = sorted(range(len(row)), key=lambda c: (-row[c], c))
        rank = order.index(y)
        for k in out:
            out[k] += rank < k
    return {k: n / len(z) for k, n in out.items()}


# ---------------------------------------------------------------------------
# cross-entropy


def test_cross_entropy_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b, c = rng.integers(1, 9), rng.integers(2, 12)
        z = rng.standard_normal((b, c)) * rng.choice([1.0, 50.0])
        y = rng.integers(0, c, size=b)
        loss = cross_entropy(Tensor(z), y)
        assert np.isclose(float(loss.data), ce_oracle(z, y), rtol=1e-10)


def test_cross_entropy_stable_for_large_logits():
    z = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    loss = cross_entropy(Tensor(z), np.array([0, 1]))
    assert np.isfinite(loss.data) and float(loss.data) < 1e-6


def test_cross_entropy_gradient():
    rng = np.random.default_rng(1)
    z = Tensor(rng.standard_normal((5, 7)), requires_grad=True)
    y = rng.integers(0, 7, size=5)
    assert T.grad_check(lambda t: cross_entropy(t, y), z) < 1e-7


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((3, 4))
    grads = [rng.standard_normal((3, 4)) for _ in range(12)]
    p = Tensor(w0.copy(), requires_grad=True)
    opt = Adam([p], lr=0.05)
    for g in grads:
        p.grad = g.copy()
        opt.step()
        opt.zero_grad()
    assert np.allclose(p.data, adam_oracle(w0, grads, 0.05), atol=1e-12)


def test_adam_skips_missing_grads():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    p.grad = np.ones(3)
    opt.step()
    assert not np.array_equal(p.data, np.ones(3))
    assert np.array_equal(q.data, np.ones(3))


# ---------------------------------------------------------------------------
# top-K


def test_topk_matches_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b, c = rng.integers(1, 10), rng.integers(3, 30)
        z = rng.standard_normal((b, c))
        if rng.random() < 0.4:                       # force ties
            z = np.round(z)
        y = rng.integers(0, c, size=b)
        ks = (1, min(5, c), min(10, c))
        assert topk_accuracy(z, y, ks) == topk_oracle(z, y, ks)


def test_topk_tie_breaks_toward_lower_index():
    z = np.zeros((2, 6))
    # all scores tied: ranking is by class index, so label 0 is rank 0
    # and label 5 is rank 5
    acc = topk_accuracy(z, np.array([0, 5]), ks=(1, 5, 6))
    assert acc == {1: 0.5, 5: 0.5, 6: 1.0}


def test_top1_three_of_four_is_exactly_three_quarters():
    z = np.full((4, 10), -1.0)
    labels = np.array([2, 5, 7, 9])
    for i in (0, 1, 2):
        z[i, labels[i]] = 1.0                        # three hits, one miss
    z[3, 0] = 1.0
    acc = topk_accuracy(z, labels, ks=(1,))
    assert acc[1] == 0.75


# ---------------------------------------------------------------------------
# freezing


def _tiny_model(variant="divided", rng_seed=0, num_classes=3):
    cfg = ModelConfig(variant=variant, dim=16, depth=2, heads=2,
                      image_size=16, patch=8, frames=4, tube_depth=2)
    return ClassifierModel(cfg, num_classes, np.random.default_rng(rng_seed))


def test_freeze_top_block_only():
    model = _tiny_model()
    freeze_layers(model, 1)
    named = model.named()
    frozen = {n for n, p in named.items() if not p.requires_grad}
    live = {n for n, p in named.items() if p.requires_grad}
    assert all(n.startswith(("embed.", "enc.0.")) for n in frozen)
    assert any(n.startswith("enc.1.") for n in live)
    assert "enc.norm.g" in live and "head.w" in live
    assert "embed.pos" in frozen


def test_freeze_all_unfreezes_embedding():
    for count in (2, "all"):                         # depth == 2
        model = _tiny_model()
        freeze_layers(model, count)
        assert all(p.requires_grad for p in model.named().values()), count


def test_freeze_bounds():
    model = _tiny_model()
    for bad in (0, 3, -1, 2.0, "half"):
        with pytest.raises(ValueError, match="fine-tuned layer count"):
            freeze_layers(model, bad)


# ---------------------------------------------------------------------------
# evaluation and fine-tuning on a small synthetic set


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainset")
    manifest = make_synthetic_dataset(root, num_classes=2, per_class=6,
                                      nominal_frames=6, size=16, seed=11)
    return manifest, root / "videos"


def test_evaluate_report_shape(dataset):
    manifest, videos = dataset
    model = _tiny_model(num_classes=2)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    report = evaluate(model, manifest, videos, pipe, seed=1, ks=(1, 2))
    n_test = len(manifest.by_split("test"))
    assert report.num_instances == n_test
    assert set(report.topk) == {1, 2}
    assert report.topk[2] == 1.0                     # two classes, K covers all
    assert len(report.per_class) == 2
    conf = np.array(report.confusion)
    assert conf.shape == (2, 2) and conf.sum() == n_test
    assert report.config["sampling"] == "even"
    parsed = __import__("json").loads(report.to_json())
    assert parsed["num_instances"] == n_test


def test_evaluate_leaves_trainable_flags_as_found(dataset):
    manifest, videos = dataset
    model = _tiny_model(num_classes=2)
    freeze_layers(model, 1)
    before = {n: p.requires_grad for n, p in model.named().items()}
    evaluate(model, manifest, videos, PipelineConfig(frames=4, sampling="even", crop=16))
    assert {n: p.requires_grad for n, p in model.named().items()} == before


def test_evaluate_rejects_head_mismatch(dataset):
    manifest, videos = dataset
    model = _tiny_model(num_classes=5)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    with pytest.raises(ValueError, match="head/class mismatch"):
        evaluate(model, manifest, videos, pipe)


def test_finetune_zero_epochs_is_initial_eval(dataset):
    manifest, videos = dataset
    merged = merge_train_val(manifest)
    model = _tiny_model(num_classes=2)
    cfg = TrainConfig(batch=4, epochs=0, lr=1e-3, frames=4, sampling="even",
                      layers="all", seed=7)
    reports, log = finetune(model, merged, videos, cfg, crop=16)
    assert len(reports) == 1 and log == []
    direct = evaluate(_tiny_model(num_classes=2), manifest, videos,
                      PipelineConfig(4, "even", 16), seed=7)
    assert reports[0].topk == direct.topk


def test_finetune_requires_merged_manifest(dataset):
    manifest, videos = dataset
    model = _tiny_model(num_classes=2)
    with pytest.raises(ValueError, match="merge_train_val"):
        finetune(model, manifest, videos, TrainConfig(epochs=1, frames=4), crop=16)


def test_finetune_is_bit_deterministic(dataset, tmp_path):
    manifest, videos = dataset
    merged = merge_train_val(manifest)
    cfg = TrainConfig(batch=4, epochs=2, lr=1e-3, frames=4,
                      sampling="consecutive", layers="all", seed=9)
    runs = []
    for tag in ("a", "b"):
        model = _tiny_model(rng_seed=21, num_classes=2)
        reports, log = finetune(model, merged, videos, cfg, crop=16,
                                out_dir=tmp_path / tag)
        runs.append((reports, log, {k: v.data.copy() for k, v in model.named().items()}))
    (r1, l1, w1), (r2, l2, w2) = runs
    assert [r.topk for r in r1] == [r.topk for r in r2]
    assert [(s, loss) for s, loss, *_ in l1] == [(s, loss) for s, loss, *_ in l2]
    for name in w1:
        assert np.array_equal(w1[name], w2[name]), name
    log_csv = (tmp_path / "a" / "train_log.csv").read_text().splitlines()
    assert log_csv[0] == "step,loss,lr,wall_ms"
    assert len(log_csv) == 1 + len(l1)
    assert (tmp_path / "a" / "model.ckpt").exists()


def test_finetune_divergence_guard(dataset):
    manifest, videos = dataset
    merged = merge_train_val(manifest)
    model = _tiny_model(num_classes=2)
    model.head.w.data[:] = np.inf
    cfg = TrainConfig(batch=4, epochs=1, lr=1e-3, frames=4, layers=1, seed=0)
    with pytest.raises(VslrError, match="diverged") as e:
        finetune(model, merged, videos, cfg, crop=16)
    assert e.value.cls == "divergence"


def test_finetune_stops_on_non_finite_gradient(dataset, tmp_path):
    """A huge MLP weight leaves the loss finite but overflows the backward
    pass; the run stops before Adam writes NaN into the weights."""
    manifest, videos = dataset
    merged = merge_train_val(manifest)
    cfg = ModelConfig(variant="joint", dim=16, depth=1, heads=2, image_size=16,
                      patch=8, frames=4)
    model = ClassifierModel(cfg, 2, np.random.default_rng(0))
    model.blocks[0].mlp0.w.data *= np.float32(1e21)
    before = {k: v.data.copy() for k, v in model.named().items()}
    run = TrainConfig(batch=4, epochs=1, lr=1e-3, frames=4, layers="all", seed=0)
    with pytest.raises(VslrError, match="non-finite gradient of embed.proj.w at step 0") as e:
        finetune(model, merged, videos, run, crop=16, out_dir=tmp_path)
    assert e.value.cls == "divergence"
    assert not (tmp_path / "model.ckpt").exists()
    for name, p in model.named().items():
        assert np.array_equal(p.data, before[name]), name


def test_finetune_checks_the_test_split_before_preparing_a_clip(dataset, monkeypatch):
    manifest, videos = dataset
    merged = merge_train_val(manifest)
    no_test = Manifest(merged.glosses, merged.by_split("train"))
    prepared = []
    monkeypatch.setattr(TR, "prepare_clip", lambda *a, **k: prepared.append(a))
    cfg = TrainConfig(batch=2, epochs=1, lr=1e-3, frames=4, layers="all", seed=0)
    with pytest.raises(VslrError, match="no instances in split 'test'") as e:
        finetune(_tiny_model(num_classes=2), no_test, videos, cfg, crop=16)
    assert e.value.cls == "manifest"
    assert prepared == []


def test_train_step_stops_on_non_finite_weight():
    """At lr 1e300 Adam's float32 update overflows while the loss and the
    gradients stay finite: the weight check after the step names the first
    stepped parameter and passes over the frozen one."""
    w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    frozen = Tensor(np.ones(2, dtype=np.float32))
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    opt = Adam([w, b], lr=1e300)
    with pytest.raises(VslrError, match="^run diverged: non-finite weight of w at step 3$") as e:
        train_step(lambda: cross_entropy(T.linear(x, w, b), np.array([0, 1])),
                   {"frozen": frozen, "w": w, "b": b}, opt, 3, "run")
    assert e.value.cls == "divergence"


def test_train_step_returns_the_loss_and_clears_gradients():
    w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    y = np.array([0, 1])
    expected = float(cross_entropy(T.matmul(x, w), y).data)
    opt = Adam([w], lr=1e-2)
    loss = train_step(lambda: cross_entropy(T.matmul(x, w), y), {"w": w}, opt, 0, "run")
    assert loss == expected
    assert w.grad is None and opt.t == 1
    assert not np.array_equal(w.data, np.ones((3, 2), dtype=np.float32))


def test_load_batch_matches_per_clip_preparation(dataset):
    """One fresh array per call, equal to the per-clip tensors stacked."""
    manifest, videos = dataset
    insts = manifest.by_split("train")[:3]
    pipe = PipelineConfig(frames=4, sampling="consecutive", crop=16)

    def rngs():
        return [derive_rng(9, inst.video_id) for inst in insts]

    for train in (True, False):
        batch = load_batch(videos, insts, rngs(), pipe, train, np.float64)
        expected = np.stack([
            to_model_tensor(prepare_clip(load_instance_video(videos, inst), pipe, train, rng),
                            np.float64)
            for inst, rng in zip(insts, rngs())])
        assert batch.dtype == np.float64 and batch.shape == (3, 4, 3, 16, 16)
        assert np.array_equal(batch, expected)
        again = load_batch(videos, insts, rngs(), pipe, train, np.float64)
        assert np.array_equal(again, batch) and not np.shares_memory(again, batch)


def test_train_config_validation():
    for kw in ({"batch": 0}, {"epochs": -1}, {"lr": 0.0},
               {"sampling": "random"}, {"layers": 0}, {"variant": "huge"}):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


# ---------------------------------------------------------------------------
# ablation sweep


def test_ablation_csv_structure_and_error_rows(dataset, tmp_path):
    manifest, videos = dataset
    mcfg = ModelConfig(variant="divided", dim=16, depth=2, heads=2,
                       image_size=16, patch=8, frames=4, tube_depth=2)
    grid = [
        TrainConfig(batch=4, epochs=1, lr=1e-3, frames=4, sampling="consecutive",
                    layers="all", seed=1, variant="divided"),
        TrainConfig(batch=4, epochs=1, lr=1e-4, frames=4, sampling="even",
                    layers=1, seed=1, variant="joint"),
        TrainConfig(batch=4, epochs=1, lr=1e-3, frames=4, sampling="even",
                    layers=5, seed=1),               # exceeds depth: error row
    ]
    out = tmp_path / "ablation.csv"
    rows = run_ablation(grid, manifest, videos, mcfg, crop=16, out_csv=out,
                        num_classes=2)
    assert len(rows) == 3
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ABLATION_COLUMNS
    assert len(parsed) == 4
    assert parsed[1][4:7] == ["divided", "All", "Consec."]
    assert parsed[2][4:7] == ["joint", "1", "Even"]
    assert parsed[3][7] == "error[config]"
    for row in parsed[1:3]:
        assert 0.0 <= float(row[7]) <= 100.0
    assert parsed[1][3] == "0.001" and parsed[2][3] == "0.0001"


def test_ablation_lets_a_non_vslr_error_propagate(dataset, tmp_path, monkeypatch):
    # only a VslrError becomes an error[<class>] cell; a bug keeps its traceback
    import vslr.train as train_module

    def broken(*args, **kwargs):
        raise RuntimeError("bug inside a row")

    monkeypatch.setattr(train_module, "finetune", broken)
    manifest, videos = dataset
    mcfg = ModelConfig(variant="divided", dim=16, depth=2, heads=2,
                       image_size=16, patch=8, frames=4, tube_depth=2)
    grid = [TrainConfig(batch=4, epochs=1, lr=1e-3, frames=4, sampling="even",
                        layers="all", seed=1, variant="divided")]
    with pytest.raises(RuntimeError, match="bug inside a row"):
        run_ablation(grid, manifest, videos, mcfg, crop=16,
                     out_csv=tmp_path / "ablation.csv", num_classes=2)
    assert not (tmp_path / "ablation.csv").exists()
