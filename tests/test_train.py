"""Classifier training stack: fused cross-entropy vs a loop oracle, Adam
vs a scalar reference, top-K ranking with deterministic tie-breaks, layer
freezing, evaluation reports, fine-tune determinism, and the ablation CSV."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from vslr import lanes
from vslr import tensor as T
from vslr import train as TR
from vslr.__main__ import _THREAD_VARS
from vslr.checkpoint import load_checkpoint, load_into, save_checkpoint
from vslr.errors import VslrError
from vslr.mae import MaeConfig, MaeModel, PretrainConfig, load_encoder, pretrain
from vslr.tensor import Tensor
from vslr.train import (ABLATION_COLUMNS, Adam, ClassifierModel, ModelConfig,
                        TrainConfig, cross_entropy, evaluate, finetune,
                        freeze_layers, load_batch, no_grad, run_ablation,
                        topk_accuracy, train_step)
from vslr.video import (Manifest, PipelineConfig, derive_rng, load_instance_video,
                        load_manifest, make_synthetic_dataset, merge_train_val,
                        parse_manifest, prepare_clip, to_model_tensor)

import reference as R
from reference import cube_pixels


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
    assert R.grad_check(lambda t: cross_entropy(t, y), z) < 1e-7


# ---------------------------------------------------------------------------
# optimizer


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(2)
    w0 = rng.standard_normal((3, 4))
    grads = [rng.standard_normal((3, 4)) for _ in range(12)]
    p = Tensor(w0.copy(), requires_grad=True)
    opt = Adam({"p": p}, lr=0.05)
    for g in grads:
        p.grad = g.copy()
        opt.gather()
        opt.step()
        opt.zero_grad()
    assert np.allclose(p.data, adam_oracle(w0, grads, 0.05), atol=1e-12)


def test_adam_refuses_a_missing_gradient():
    """Every parameter the optimizer holds must have a gradient; gather
    names each one that has none and leaves the weights as they were."""
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(3), requires_grad=True)
    r = Tensor(np.ones(3), requires_grad=True)
    opt = Adam({"p": p, "q": q, "r": r}, lr=0.1)
    p.grad = np.ones(3)
    with pytest.raises(ValueError, match=r"^Adam: no gradient for \['q', 'r'\]$"):
        opt.gather()
    assert opt.t == 0 and not opt.grad.any()
    assert all(np.array_equal(t.data, np.ones(3)) for t in (p, q, r))


class PerTensorAdam:
    """The per-tensor Adam step the flat one replaced: one new array per
    term."""

    def __init__(self, weights, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.w = [w.copy() for w in weights]
        self.m = [np.zeros_like(w) for w in weights]
        self.v = [np.zeros_like(w) for w in weights]
        self.lr, self.b1, self.b2, self.eps, self.t = lr, b1, b2, eps, 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.b1, self.b2
        for i, g in enumerate(grads):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            self.w[i] = self.w[i] - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _desk_trainables(which):
    if which == "mae":
        return MaeModel(MaeConfig(), np.random.default_rng(5)).named()
    return freeze_layers(ClassifierModel(ModelConfig(), 10, np.random.default_rng(5)), 1)


@pytest.mark.parametrize("which", ["mae", "classifier_top_block"])
def test_flat_adam_matches_per_tensor_step_bit_for_bit(which):
    """Five steps on a desk model's trainables: every weight and both
    moments keep the per-tensor step's bits."""
    named = _desk_trainables(which)
    opt = Adam(named, lr=1e-3)
    params = list(named.values())
    ref = PerTensorAdam([p.data for p in params], lr=1e-3)
    rng = np.random.default_rng(6)
    for step in range(1, 6):
        grads = [(rng.standard_normal(p.data.shape) * rng.choice([1e-4, 1.0, 30.0]))
                 .astype(np.float32) for p in params]
        for p, g in zip(params, grads):
            p.grad = g
        opt.gather()
        opt.step()
        opt.zero_grad()
        ref.step(grads)
        for i, p in enumerate(params):
            lo, hi = opt.offsets[i], opt.offsets[i + 1]
            assert np.array_equal(p.data, ref.w[i]), (step, i)
            assert np.array_equal(opt.m[lo:hi], ref.m[i].ravel()), (step, i)
            assert np.array_equal(opt.v[lo:hi], ref.v[i].ravel()), (step, i)


def test_adam_packs_any_subset_and_steps_it_in_place():
    """Adam's trainables become views into its flat array and the frozen
    parameters do not; a scattered subset, not one run of ``named()``,
    packs and steps in place too."""
    model = _tiny_model()
    trainable = freeze_layers(model, 1)
    opt = Adam(trainable, lr=1e-3)
    assert opt.flat.size == sum(p.data.size for p in trainable.values())
    for name, p in model.named().items():
        assert np.shares_memory(p.data, opt.flat) == (name in trainable), name
    scattered = dict(list(model.named().items())[::2])
    before = {n: p.data.copy() for n, p in model.named().items()}
    opt = Adam(scattered, lr=1e-3)
    assert all(np.shares_memory(p.data, opt.flat) for p in scattered.values())
    for p in scattered.values():
        p.grad = np.ones_like(p.data)
    opt.gather()
    opt.step()
    for name, p in model.named().items():
        assert np.array_equal(p.data, before[name]) == (name not in scattered), name


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


@pytest.mark.parametrize("variant", ["divided", "joint"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_freeze_returns_the_trainable_parameters_by_name(variant, depth):
    """The returned dict is exactly what trains, in ``named()`` order: the
    top ``count`` blocks, final norm and head, plus the embedding at full
    depth; its tensors are the model's own."""
    cfg = ModelConfig(variant=variant, dim=16, depth=depth, heads=2,
                      image_size=16, patch=8, frames=4, tube_depth=2)
    model = ClassifierModel(cfg, 3, np.random.default_rng(0))
    for count in [*range(1, depth + 1), "all"]:
        top = depth if count == "all" else count
        kept = tuple(f"enc.{i}." for i in range(depth - top, depth)) + ("enc.norm.", "head.")
        named = model.named()
        want = [n for n in named if top == depth or n.startswith(kept)]
        trainable = freeze_layers(model, count)
        assert list(trainable) == want, count
        assert all(trainable[n] is named[n] for n in want)
        assert [n for n, p in named.items() if p.requires_grad] == want, count


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
    report = evaluate(model, manifest, videos, pipe, seed=1)
    n_test = len(manifest.by_split("test"))
    assert report.num_instances == n_test
    assert set(report.topk) == {1, 5, 10}
    assert report.topk[5] == 1.0                     # two classes, K covers all
    assert len(report.per_class) == 2
    conf = np.array(report.confusion)
    assert conf.shape == (2, 2) and conf.sum() == n_test
    assert report.config["sampling"] == "even"
    parsed = __import__("json").loads(report.to_json())
    assert parsed["num_instances"] == n_test


def test_evaluate_bookkeeping_matches_loops(dataset):
    """Confusion counts and per-class accuracy against per-instance loops,
    with a third class that has no test instance and so scores 0.0."""
    manifest, videos = dataset
    three = Manifest(manifest.glosses + ["zz_unseen"], manifest.instances)
    model = _tiny_model(num_classes=3)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    report = evaluate(model, three, videos, pipe, seed=2)
    insts = three.by_split("test")
    pred = TR._batched_logits(model, insts, videos, pipe, 2).argmax(1)
    confusion = [[0] * 3 for _ in range(3)]
    for inst, p in zip(insts, pred):
        confusion[inst.label][p] += 1
    per_class = []
    for cls in range(3):
        hits = [p == cls for inst, p in zip(insts, pred) if inst.label == cls]
        per_class.append(sum(hits) / len(hits) if hits else 0.0)
    assert report.confusion == confusion
    assert report.per_class == per_class
    assert per_class[2] == 0.0 and confusion[2] == [0, 0, 0]


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


def test_finetune_zero_epochs_is_initial_eval(dataset, tmp_path):
    manifest, videos = dataset
    merged = merge_train_val(manifest)
    model = _tiny_model(num_classes=2)
    cfg = TrainConfig(batch=4, epochs=0, lr=1e-3, frames=4, sampling="even",
                      layers="all", seed=7)
    reports, log = finetune(model, merged, videos, cfg, crop=16, out_dir=tmp_path)
    assert len(reports) == 1 and log == []
    direct = evaluate(_tiny_model(num_classes=2), manifest, videos,
                      PipelineConfig(4, "even", 16), seed=7)
    assert reports[0].topk == direct.topk
    # the run leaves through the one exit that saves: initial weights, header-only log
    saved = load_checkpoint(tmp_path / "model.ckpt")
    initial = _tiny_model(num_classes=2).named()
    assert all(np.array_equal(saved[n], p.data) for n, p in initial.items())
    assert (tmp_path / "train_log.csv").read_bytes() == b"step,loss,lr,wall_ms\r\n"


def test_train_config_defaults_fit_the_default_model():
    # the CLI's fine-tuning defaults are TrainConfig's, and they train ModelConfig()
    model = ClassifierModel(ModelConfig(), 2, np.random.default_rng(0))
    cfg = TrainConfig()
    assert (cfg.batch, cfg.epochs, cfg.lr, cfg.layers) == (4, 2, 1e-3, "all")
    assert len(freeze_layers(model, cfg.layers)) == len(model.params())


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


def test_evaluate_refuses_non_finite_logits(dataset):
    """A finite head whose forward overflows: evaluate stops with
    error[divergence] instead of ranking infinite or NaN logits."""
    manifest, videos = dataset
    model = _tiny_model(num_classes=2)
    model.head.w.data[:] = np.finfo(np.float32).max
    assert np.isfinite(model.head.w.data).all()
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    with pytest.raises(VslrError, match="^evaluation diverged: non-finite logits on split 'test'$") as e:
        evaluate(model, manifest, videos, pipe, seed=1)
    assert e.value.cls == "divergence"


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


def _one_flat(params) -> bool:
    """Whether every parameter's data is a view into one flat array."""
    bases = {id(p.data.base): p.data.base for p in params}
    base = next(iter(bases.values()))
    return len(bases) == 1 and base is not None and base.ndim == 1


def _trainable(model) -> list:
    return [p for p in model.params() if p.requires_grad]


def test_parameters_stay_views_into_one_flat_array(dataset, tmp_path):
    """Every path that writes a parameter writes through its view: a
    parameter rebound to a new array would silently drop out of the
    optimizer's flat step.  After each one, every trainable parameter is a
    view into one flat array."""
    manifest, videos = dataset
    mae_cfg = MaeConfig(dim=16, depth=3, heads=2, decoder_dim=8, decoder_depth=1,
                        decoder_heads=2, image_size=16, patch=8, frames=4, tube_depth=2)
    clf, mae = _tiny_model("joint", num_classes=2), MaeModel(mae_cfg, np.random.default_rng(1))
    assert _one_flat(clf.params()) and _one_flat(mae.params())
    for model, other in ((clf, _tiny_model("joint", rng_seed=3, num_classes=2)),
                         (mae, MaeModel(mae_cfg, np.random.default_rng(4)))):
        save_checkpoint(tmp_path / "other.ckpt", other.named())
        load_into(model.named(), load_checkpoint(tmp_path / "other.ckpt"))
        assert all(np.array_equal(p.data, q.data) for p, q in zip(model.params(), other.params()))
        assert _one_flat(model.params()), "load_into"
    load_encoder(clf.named(), {n: p.data for n, p in mae.named().items()})
    assert np.array_equal(clf.named()["enc.1.joint.q.w"].data, mae.enc_blocks[1].joint.q.w.data)
    assert _one_flat(clf.params()), "load_encoder"
    freeze_layers(clf, 1)
    assert _one_flat(_trainable(clf)), "freeze_layers"
    for model in (clf, mae):
        with no_grad(model.params()):
            assert _one_flat(model.params()), "no_grad"
        assert _one_flat(_trainable(model)), "after no_grad"
    before = {n: p.data.copy() for n, p in clf.named().items()}
    cfg = TrainConfig(batch=4, epochs=1, lr=1e-3, frames=4, layers=1, seed=0, variant="joint")
    finetune(clf, merge_train_val(manifest), videos, cfg, crop=16)
    trained = _trainable(clf)
    assert _one_flat(trained), "finetune"
    frozen = [p for p in clf.params() if not p.requires_grad]
    assert not any(np.shares_memory(p.data, trained[0].data.base) for p in frozen)
    assert {n for n, p in clf.named().items() if not np.array_equal(p.data, before[n])} \
        <= {n for n, p in clf.named().items() if p.requires_grad}
    assert not all(np.array_equal(p.data, before[n]) for n, p in clf.named().items())
    pretrain(mae, manifest, videos, PretrainConfig(ratio=0.5, steps=1, batch=2),
             PipelineConfig(frames=4, sampling="consecutive", crop=16))
    assert _one_flat(_trainable(mae)), "pretrain"


def test_finetune_keeps_the_best_epochs_weights(dataset, monkeypatch):
    """finetune leaves the model holding the weights of its best epoch by
    test top-1, here the middle one of three, and the frozen parameters
    keep their bits."""
    manifest, videos = dataset
    model = _tiny_model(num_classes=2)
    before = {n: p.data.copy() for n, p in model.named().items()}
    seen, top1 = [], iter([0.25, 0.75, 0.5])

    def scripted(model, *args, **kwargs):
        seen.append({n: p.data.copy() for n, p in model.named().items()})
        return TR.EvalReport({1: next(top1)}, [], [], 0, 0.0, 0)

    monkeypatch.setattr(TR, "evaluate", scripted)
    cfg = TrainConfig(batch=4, epochs=3, lr=1e-3, frames=4, layers=1, seed=0)
    reports, _ = finetune(model, merge_train_val(manifest), videos, cfg, crop=16)
    assert [r.topk[1] for r in reports] == [0.25, 0.75, 0.5]
    trainable = {n for n, p in model.named().items() if p.requires_grad}
    assert trainable and trainable != set(before)
    assert any(not np.array_equal(seen[1][n], seen[2][n]) for n in trainable)
    for name, p in model.named().items():
        assert p.data.tobytes() == seen[1][name].tobytes(), name
        if name not in trainable:
            assert p.data.tobytes() == before[name].tobytes(), name


def _probe_env() -> dict:
    """A probe process's environment: this package and the test
    references on the path, and one BLAS thread, as under the CLI."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(TR.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    return dict(os.environ, PYTHONPATH=path, **dict.fromkeys(_THREAD_VARS, "1"))


_FAULT_PROBE = """
import resource
import numpy as np
from vslr import train as TR
from reference import cube_pixels
model = TR.ClassifierModel(TR.ModelConfig(), 10, np.random.default_rng(0))
opt = TR.Adam(TR.freeze_layers(model, "all"), 1e-3)
x = cube_pixels(np.random.default_rng(1).random((4, 8, 3, 32, 32), dtype=np.float32),
                model.embed.cfg)
y = np.arange(4)
for step in range(6):
    if step == 1:
        warm = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    TR.train_step(lambda: TR.cross_entropy(model.forward(x), y), opt, step, "run")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - warm)
"""


@pytest.mark.skipif(not T._HEAP_PAGES_KEPT, reason="no glibc mallopt, so no allocator policy")
def test_second_desk_step_faults_in_no_new_pages():
    """After one warm step, identical desk fine-tune steps (divided, batch
    4) reuse the heap pages the first one freed and write the weights in
    place, so steps 2-6 together take fewer than 50 minor page faults a
    step (about 1,800 a step without the allocator policy).  A single
    step can take a burst of a few dozen, depending on where the heap
    places a vjp's scratch, so the bound is on the five-step total."""
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=_probe_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert int(out.stdout) < 5 * 50, out.stdout


_DESK_LANE_PROBE = """
import sys, threading
import numpy as np
from vslr.mae import MaeConfig, MaeModel, PretrainConfig, pretrain
from vslr.train import ClassifierModel, ModelConfig, TrainConfig, evaluate, finetune
from vslr.video import (PipelineConfig, RawVideo, load_instance_video, make_synthetic_dataset,
                        merge_train_val, prepare_clip, to_model_tensor)
manifest = make_synthetic_dataset(sys.argv[1], size=32, seed=18)
videos = sys.argv[1] + "/videos"
pipe = PipelineConfig(frames=8, crop=32)
for variant in ("divided", "joint"):
    cfg = ModelConfig(variant, dim=32, depth=2, heads=4, image_size=32, patch=8, frames=8)
    model = ClassifierModel(cfg, len(manifest.glosses), np.random.default_rng(18))
    finetune(model, merge_train_val(manifest), videos,
             TrainConfig(batch=4, epochs=1, lr=1e-3, frames=8, seed=18), crop=32)
    evaluate(model, manifest, videos, pipe, 18)
pretrain(MaeModel(MaeConfig(), np.random.default_rng(18)), manifest, videos,
         PretrainConfig(ratio=0.75, steps=1, batch=4, seed=18), pipe)
for i, inst in enumerate(manifest.instances):
    clip = prepare_clip(load_instance_video(videos, inst), pipe, True,
                        np.random.default_rng([18, i]), inst.label)
    to_model_tensor(clip, np.float32)
one = RawVideo(np.zeros((1, 100, 100, 3), dtype=np.uint8))
to_model_tensor(prepare_clip(one, PipelineConfig(frames=1), True, np.random.default_rng(18)))
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""


def test_desk_runs_start_no_lane_worker(tmp_path):
    """Every desk attention pass is one block, every desk linear, layer
    norm, GELU and cast is under lanes.SPLIT_ELEMENTS, and a desk crop is
    a slice, not a resample, so a desk fine-tune epoch and eval pass (both
    variants), a desk MAE step and the benchmark's prep loop over every
    desk clip run serially, as does the resample of a 1-frame 224 clip:
    no thread is started and concurrent.futures is never imported."""
    out = subprocess.run([sys.executable, "-c", _DESK_LANE_PROBE, str(tmp_path)], env=_probe_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1", "False"], out.stdout


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
    parameter."""
    w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    opt = Adam({"w": w, "b": b}, lr=1e300)
    with pytest.raises(VslrError, match="^run diverged: non-finite weight of w at step 3$") as e:
        train_step(lambda: cross_entropy(T.linear(x, w, b), np.array([0, 1])), opt, 3, "run")
    assert e.value.cls == "divergence"


def test_train_step_returns_the_loss_and_clears_gradients():
    w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    y = np.array([0, 1])
    expected = float(cross_entropy(R.matmul(x, w), y).data)
    opt = Adam({"w": w}, lr=1e-2)
    loss = train_step(lambda: cross_entropy(R.matmul(x, w), y), opt, 0, "run")
    assert loss == expected
    assert w.grad is None and opt.t == 1
    assert not np.array_equal(w.data, np.ones((3, 2), dtype=np.float32))


def test_load_batch_matches_per_clip_preparation(dataset):
    """One fresh array per call: the cube rows of the per-clip tensors
    stacked."""
    manifest, videos = dataset
    insts = manifest.by_split("train")[:3]
    pipe = PipelineConfig(frames=4, sampling="consecutive", crop=16)
    cfg = _tiny_model().embed.cfg

    def rngs():
        return [derive_rng(9, inst.video_id) for inst in insts]

    for train in (True, False):
        batch = load_batch(videos, insts, rngs(), pipe, train, np.float64, cfg)
        expected = np.stack([
            to_model_tensor(prepare_clip(load_instance_video(videos, inst), pipe, train, rng),
                            np.float64)
            for inst, rng in zip(insts, rngs())])
        assert batch.dtype == np.float64 and batch.shape == (3, cfg.n_tokens, cfg.cube_dim)
        assert np.array_equal(batch, cube_pixels(expected, cfg))
        again = load_batch(videos, insts, rngs(), pipe, train, np.float64, cfg)
        assert np.array_equal(again, batch) and not np.shares_memory(again, batch)


# desk and paper model geometry, and the synthetic set each reads
_GEOMETRY = {"desk": dict(dim=32, depth=2, heads=4, image_size=32, patch=8, frames=8),
             "paper": dict(dim=64, depth=2, heads=4, image_size=224, patch=16, frames=16)}


@pytest.fixture(scope="module")
def geometry_sets(tmp_path_factory):
    """Per geometry, a set of two classes (videos stored BGR, so clips are
    channel-reversed views): two train clips and one test clip each."""
    sets = {}
    for name, g in _GEOMETRY.items():
        root = tmp_path_factory.mktemp(f"{name}set")
        make_synthetic_dataset(root, num_classes=2, per_class=3, nominal_frames=g["frames"],
                               size=g["image_size"], seed=31)
        entries = json.loads((root / "manifest.json").read_text())
        for entry in entries:
            entry["instances"][2]["split"] = "test"
        sets[name] = parse_manifest(entries), root / "videos"
    return sets


@pytest.mark.parametrize("n_lanes", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["divided", "joint"])
@pytest.mark.parametrize("geometry", ["desk", "paper"])
def test_load_batch_rows_are_the_cubes_of_the_clip_batch(geometry_sets, geometry, variant,
                                                         dtype, n_lanes, monkeypatch):
    """Each clip cast straight into its slot of the rows gives the bits of
    the [B, F, 3, H, W] clip batch put through ``cube_pixels``: tube
    depth 1 and 2, either dtype, on one lane and on two."""
    monkeypatch.setattr(lanes, "LANES", n_lanes)
    manifest, videos = geometry_sets[geometry]
    insts = manifest.by_split("train")[:2]
    g = _GEOMETRY[geometry]
    cfg = ModelConfig(variant, **g).embedding_config()
    pipe = PipelineConfig(frames=g["frames"], crop=g["image_size"])
    for train in (True, False):
        rngs = [derive_rng(31, inst.video_id) for inst in insts]
        rows = load_batch(videos, insts, rngs, pipe, train, dtype, cfg)
        clips = np.stack([
            to_model_tensor(prepare_clip(load_instance_video(videos, inst), pipe, train,
                                         derive_rng(31, inst.video_id)), dtype)
            for inst in insts])
        assert rows.dtype == dtype and np.array_equal(rows, cube_pixels(clips, cfg))


def _run_with_unfit_pipelines(manifest, videos) -> None:
    """finetune, evaluate and pretrain of desk models, each with a
    pipeline whose frames or crop do not fit, raise ``cube_pixels``'s
    ValueError naming the frame count or the crop."""
    g = _GEOMETRY["desk"]
    f, s = g["frames"], g["image_size"]
    model = ClassifierModel(ModelConfig("divided", **g), 2, np.random.default_rng(0))
    mae = MaeModel(MaeConfig(image_size=s, patch=g["patch"], frames=f), np.random.default_rng(0))
    for pipe, message in [
            (PipelineConfig(frames=f // 2, crop=s),
             f"frame count {f // 2} does not match configured {f}"),
            (PipelineConfig(frames=f, crop=s // 2),
             f"spatial size {s // 2}x{s // 2} does not match configured {s}")]:
        with pytest.raises(ValueError, match=message):
            finetune(model, manifest, videos,
                     TrainConfig(batch=2, epochs=1, frames=pipe.frames), pipe.crop)
        with pytest.raises(ValueError, match=message):
            evaluate(model, manifest, videos, pipe)
        with pytest.raises(ValueError, match=message):
            pretrain(mae, manifest, videos, PretrainConfig(steps=1), pipe)


def test_a_pipeline_that_does_not_fit_the_model_raises_the_cube_errors(geometry_sets):
    _run_with_unfit_pipelines(*geometry_sets["desk"])


def test_a_pipeline_that_does_not_fit_the_model_loads_no_clip(geometry_sets, monkeypatch):
    from vslr import mae as M

    def no_load(*args):
        raise AssertionError("a clip loaded")

    for mod in (TR, M):
        monkeypatch.setattr(mod, "load_instance_video", no_load)
    _run_with_unfit_pipelines(*geometry_sets["desk"])


def _record_batches(monkeypatch, proj_w) -> tuple:
    """Record every ``out`` a clip is cast into, and the input array that
    each linear node whose weight is proj_w keeps for backward."""
    from vslr import mae as M

    slots, kept = [], []
    cast = to_model_tensor

    def recording_cast(clip, dtype=np.float32, out=None):
        slots.append(out)
        return cast(clip, dtype, out=out)

    linear = T.linear

    def recording_linear(x, w, b):
        out = linear(x, w, b)
        if w is proj_w and out._parents:
            kept.append(out._parents[0].data)
        return out

    for mod in (TR, M):
        monkeypatch.setattr(mod, "to_model_tensor", recording_cast)
    monkeypatch.setattr(T, "linear", recording_linear)
    return slots, kept


def test_the_embedding_keeps_the_loaded_rows_themselves(geometry_sets, monkeypatch):
    """The batch is held once: the embedding's linear node keeps the very
    array each clip was cast into, in a fine-tune step and a pretrain step."""
    manifest, videos = geometry_sets["desk"]
    g = _GEOMETRY["desk"]
    model = ClassifierModel(ModelConfig("joint", **g), 2, np.random.default_rng(0))
    slots, kept = _record_batches(monkeypatch, model.embed.proj.w)
    finetune(model, manifest, videos, TrainConfig(batch=4, epochs=1, frames=g["frames"]),
             g["image_size"])
    assert len(slots) == 6 and len(kept) == 1          # one train step, then the test pass
    assert all(np.shares_memory(slot, kept[0]) for slot in slots[:4])

    mae = MaeModel(MaeConfig(image_size=g["image_size"], patch=g["patch"], frames=g["frames"]),
                   np.random.default_rng(0))
    slots, kept = _record_batches(monkeypatch, mae.embed.proj.w)
    pretrain(mae, manifest, videos, PretrainConfig(steps=1, batch=2),
             PipelineConfig(frames=g["frames"], crop=g["image_size"]))
    assert len(slots) == 2 and len(kept) == 1
    assert all(np.shares_memory(slot, kept[0]) for slot in slots)


def _traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_paper_finetune_call_peak_holds_the_batch_once(geometry_sets):
    """A paper divided fine-tune call (batch 2: two train steps and the
    test pass), the clip loads inside the measured window, peaks under
    140 MiB; holding each batch both as clips and as cube rows took 151."""
    manifest, videos = geometry_sets["paper"]
    g = _GEOMETRY["paper"]
    model = ClassifierModel(ModelConfig("divided", **g), 2, np.random.default_rng(0))
    cfg = TrainConfig(batch=2, epochs=1, frames=g["frames"], seed=3)
    peak = _traced_peak_mib(lambda: finetune(model, manifest, videos, cfg, g["image_size"]))
    assert peak < 140, peak


def test_paper_pretrain_step_peak_holds_the_batch_once(geometry_sets):
    """One paper MAE step (batch 2, ratio 0.9), the clip loads inside the
    measured window, peaks under 112 MiB; the clip batch next to its cube
    rows and the loss's kept difference took 129."""
    manifest, videos = geometry_sets["paper"]
    g = _GEOMETRY["paper"]
    cfg = MaeConfig(dim=64, depth=2, heads=4, decoder_dim=32, decoder_depth=1,
                    decoder_heads=2, image_size=224, patch=16, frames=16, tube_depth=2)
    model = MaeModel(cfg, np.random.default_rng(0))
    pipe = PipelineConfig(frames=g["frames"], crop=g["image_size"])
    peak = _traced_peak_mib(lambda: pretrain(model, manifest, videos,
                                             PretrainConfig(ratio=0.9, steps=1, batch=2,
                                                            seed=3), pipe))
    assert peak < 112, peak


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
    rows = run_ablation(grid, manifest, videos, mcfg, out_csv=out)
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
        run_ablation(grid, manifest, videos, mcfg, out_csv=tmp_path / "ablation.csv")
    assert not (tmp_path / "ablation.csv").exists()


# The loss curve and weights sha256 of one desk fine-tune epoch (32 px,
# 8 px patches, 8 frames, dim 32, depth 2, 4 heads, batch 4) at one BLAS
# thread, as conftest.py sets it, recorded before the in-place kernels of
# tensor.py, which must leave every bit as it was.  The divided pin was
# re-recorded at one thread: OpenBLAS's threaded sgemm rounds the weight
# gradient x2.T @ g2 at [128, 516] @ [516, 32] differently.
DESK_FINETUNE_PINS = {
    "divided": ([1.3875842094421387, 1.2755160331726074, 1.5701929330825806,
                 1.6470999717712402, 1.4740803241729736],
                "5dd8f088439a96bbaa46a377629e5c2154721c07c415c777abac133135ba7ffc"),
    "joint": ([1.458034634590149, 1.3083667755126953, 1.492587685585022,
               1.6728463172912598, 1.4501091241836548],
              "44ad259d38fc2603b93608df2e9030ba6e7bf2947e2d5ce8f6436379dd3f11ea"),
}


def _desk_finetune_epoch(variant, root):
    """The loss curve and weights, in ``named()`` order, of one desk
    fine-tune epoch."""
    manifest = merge_train_val(make_synthetic_dataset(root, size=32, seed=18))
    model = ClassifierModel(ModelConfig(variant, dim=32, depth=2, heads=4, image_size=32,
                                        patch=8, frames=8),
                            len(manifest.glosses), np.random.default_rng(18))
    cfg = TrainConfig(batch=4, epochs=1, lr=1e-3, frames=8, seed=18)
    _, log = finetune(model, manifest, root / "videos", cfg, crop=32)
    return [loss for _, loss, *_ in log], model.params()


@pytest.mark.parametrize("variant", sorted(DESK_FINETUNE_PINS))
def test_desk_finetune_epoch_digest(variant, tmp_path, sha256):
    curve, params = _desk_finetune_epoch(variant, tmp_path)
    assert (curve, sha256(p.data for p in params)) == DESK_FINETUNE_PINS[variant]


_DESK_EPOCH_PROBE = """
import hashlib, json, sys
import numpy as np
from vslr import lanes
from vslr.train import ClassifierModel, ModelConfig, TrainConfig, finetune
from vslr.video import make_synthetic_dataset, merge_train_val
lanes.LANES = 1
manifest = merge_train_val(make_synthetic_dataset(sys.argv[1], size=32, seed=18))
runs = {}
for variant in ("divided", "joint"):
    model = ClassifierModel(ModelConfig(variant, dim=32, depth=2, heads=4, image_size=32,
                                        patch=8, frames=8),
                            len(manifest.glosses), np.random.default_rng(18))
    _, log = finetune(model, manifest, sys.argv[1] + "/videos",
                      TrainConfig(batch=4, epochs=1, lr=1e-3, frames=8, seed=18), crop=32)
    runs[variant] = ([float(loss) for _, loss, *_ in log],
                     hashlib.sha256(b"".join(p.data.tobytes() for p in model.params()))
                     .hexdigest())
print(json.dumps(runs))
"""


def test_desk_finetune_epoch_is_the_same_at_the_cli_setting(tmp_path, sha256):
    """A desk fine-tune epoch of each variant in a new process at the
    CLI's setting, one BLAS thread, and on one lane, as on a host with one
    allowed CPU, gives the loss curve and weights this process gives, bit
    for bit."""
    out = subprocess.run([sys.executable, "-c", _DESK_EPOCH_PROBE, str(tmp_path / "probe")],
                         env=_probe_env(), capture_output=True, text=True, timeout=120, check=True)
    runs = json.loads(out.stdout)
    assert sorted(runs) == sorted(DESK_FINETUNE_PINS)
    for variant, (curve, digest) in runs.items():
        here, params = _desk_finetune_epoch(variant, tmp_path / variant)
        assert (curve, digest) == (here, sha256(p.data for p in params)), variant
