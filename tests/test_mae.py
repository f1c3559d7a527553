"""Tube masking and the masked autoencoder: exact mask counts, the tube
property, no-leakage and zero-visible-contribution checks, loss oracle,
encoder cost at high masking, and pretraining determinism."""

import csv

import numpy as np
import pytest

from vslr import tensor as T
from vslr.checkpoint import load_checkpoint
from vslr.embedding import EmbeddingConfig, cube_pixels
from vslr.errors import VslrError
from vslr.mae import (MaeConfig, MaeModel, PretrainConfig, load_encoder,
                      mae_forward, make_tube_mask, normalized_cube_targets,
                      pretrain, reconstruction_loss, tube_token_ids)
from vslr.tensor import Tensor
from vslr.train import ClassifierModel, ModelConfig
from vslr.video import PipelineConfig, derive_rng, make_synthetic_dataset


def _masks(grid, ratio, rng, n):
    return np.stack([make_tube_mask(grid, ratio, rng) for _ in range(n)])


def _desk_model(rng=None, dtype=np.float32, **kw):
    cfg = MaeConfig(dim=16, depth=2, heads=2, decoder_dim=8, decoder_depth=1,
                    decoder_heads=2, image_size=16, patch=4, frames=4,
                    tube_depth=2, **kw)
    return MaeModel(cfg, rng or np.random.default_rng(0), dtype)


# ---------------------------------------------------------------------------
# tube mask


def test_mask_count_is_round_half_up():
    rng = np.random.default_rng(0)
    grid = (4, 4, 4)                      # 16 spatial cells
    for ratio, want in [(0.9, 14), (0.75, 12), (0.5, 8), (0.53125, 9), (0.1, 2)]:
        mask = make_tube_mask(grid, ratio, rng)
        assert mask.dtype == np.bool_ and mask.shape == (4, 4)
        assert mask.sum() == want, ratio


def test_degenerate_ratios_rejected():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="zero visible"):
        make_tube_mask((2, 4, 4), 0.97, rng)    # rounds to all 16 cells
    with pytest.raises(ValueError, match="zero of"):
        make_tube_mask((2, 4, 4), 0.02, rng)    # rounds to no cells
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        make_tube_mask((2, 4, 4), 1.0, rng)


def test_masked_tokens_form_tubes():
    rng = np.random.default_rng(2)
    n = 4 * 15
    for _ in range(10):
        masks = _masks((4, 3, 5), 0.6, rng, 5)
        vis, hidden = tube_token_ids(masks, 4)
        assert vis.shape == (5, 4 * 6) and hidden.shape == (5, 4 * 9)
        for b in range(5):
            token_mask = np.zeros(n, dtype=bool)
            token_mask[hidden[b]] = True
            by_time = token_mask.reshape(4, 15)
            # the row's own spatial cells are hidden in every temporal slice
            assert np.all(by_time == masks[b].ravel())
            # visible + masked ids partition the token range, each in order
            assert np.all(np.diff(vis[b]) > 0) and np.all(np.diff(hidden[b]) > 0)
            both = np.concatenate([vis[b], hidden[b]])
            assert np.array_equal(np.sort(both), np.arange(n))


def test_per_cell_mask_frequency_tracks_ratio():
    rng = np.random.default_rng(3)
    ratio, draws = 0.75, 1000
    freq = np.zeros((4, 4))
    for _ in range(draws):
        freq += make_tube_mask((2, 4, 4), ratio, rng)
    freq /= draws
    assert np.all(np.abs(freq - ratio) < 0.05)


# ---------------------------------------------------------------------------
# targets and loss


def targets_oracle(x, cfg):
    """Loop-level per-cube normalization with eps 1e-6."""
    cubes = cube_pixels(x, cfg)
    out = np.zeros_like(cubes)
    for b in range(cubes.shape[0]):
        for i in range(cubes.shape[1]):
            v = cubes[b, i]
            out[b, i] = (v - v.mean()) / np.sqrt(v.var() + 1e-6)
    return out


def test_normalized_targets_match_oracle():
    rng = np.random.default_rng(4)
    cfg = EmbeddingConfig("joint", 8, 8, 4, 4, tube_depth=2)
    x = rng.random((2, 4, 3, 8, 8))
    want = targets_oracle(x, cfg)
    every = np.tile(np.arange(cfg.n_tokens), (2, 1))
    assert np.allclose(normalized_cube_targets(x, cfg, every), want, atol=1e-10)
    _, ids = tube_token_ids(_masks(cfg.grid, 0.5, rng, 2), cfg.grid[0])
    got = normalized_cube_targets(x, cfg, ids)
    assert np.allclose(got, np.take_along_axis(want, ids[:, :, None], axis=1), atol=1e-10)


def test_normalized_targets_reject_a_wrong_shaped_clip():
    cfg = EmbeddingConfig("joint", 8, 8, 4, 4, tube_depth=2)
    ids = np.zeros((1, 2), dtype=np.intp)
    with pytest.raises(ValueError, match="must be \\[B, F, 3, H, W\\]"):
        normalized_cube_targets(np.zeros((4, 3, 8, 8)), cfg, ids)
    with pytest.raises(ValueError, match="frame count 2"):
        normalized_cube_targets(np.zeros((1, 2, 3, 8, 8)), cfg, ids)
    with pytest.raises(ValueError, match="spatial size 8x12"):
        normalized_cube_targets(np.zeros((1, 4, 3, 8, 12)), cfg, ids)


def test_reconstruction_loss_matches_loop_oracle():
    rng = np.random.default_rng(5)
    cfg = EmbeddingConfig("joint", 8, 8, 4, 4, tube_depth=2)
    x = rng.random((2, 4, 3, 8, 8))
    _, ids = tube_token_ids(_masks(cfg.grid, 0.5, rng, 2), cfg.grid[0])
    every = targets_oracle(x, cfg)
    pred = rng.standard_normal((2, ids.shape[1], cfg.cube_dim))

    total, count = 0.0, 0
    for b in range(2):
        for j, tok in enumerate(ids[b]):
            diff = pred[b, j] - every[b, tok]
            total += float((diff * diff).sum())
            count += diff.size
    loss = reconstruction_loss(Tensor(pred, dtype=np.float64),
                               normalized_cube_targets(x, cfg, ids))
    assert np.isclose(float(loss.data), total / count, atol=1e-12)
    with pytest.raises(ValueError, match="does not match prediction"):
        reconstruction_loss(Tensor(pred[:, 1:]), normalized_cube_targets(x, cfg, ids))


def test_visible_tokens_contribute_zero_loss():
    # targets are built for masked cubes only, so no visible pixel reaches them
    rng = np.random.default_rng(6)
    cfg = EmbeddingConfig("joint", 8, 8, 4, 4, tube_depth=2)
    x = rng.random((1, 4, 3, 8, 8))
    mask = _masks(cfg.grid, 0.5, rng, 1)
    _, ids = tube_token_ids(mask, cfg.grid[0])
    targets = normalized_cube_targets(x, cfg, ids)
    pred = Tensor(rng.standard_normal((1, ids.shape[1], cfg.cube_dim)))
    base = reconstruction_loss(pred, targets)
    x2 = x.copy()
    p = cfg.patch
    for my, mx in np.argwhere(~mask[0]):
        x2[:, :, :, my * p:(my + 1) * p, mx * p:(mx + 1) * p] += rng.random((1, 4, 3, p, p))
    bumped_targets = normalized_cube_targets(x2, cfg, ids)
    assert np.array_equal(targets, bumped_targets)
    assert float(base.data) == float(reconstruction_loss(pred, bumped_targets).data)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_shapes_and_leakage():
    rng = np.random.default_rng(7)
    model = _desk_model()
    grid = model.embed.cfg.grid
    mask = make_tube_mask(grid, 0.75, rng)
    masks = np.stack([mask, mask])
    x = rng.random((2, 4, 3, 16, 16)).astype(np.float32)
    pred, loss = mae_forward(Tensor(x), masks, model)
    cube_dim = model.embed.cfg.cube_dim
    assert pred.shape == (2, grid[0] * mask.sum(), cube_dim)
    assert loss.data.shape == ()

    # perturbing pixels inside masked tubes cannot reach the encoder, so
    # predictions are bit-identical; only the targets (and loss) move.
    # The noise must not be constant per cube or normalization removes it.
    x2 = x.copy()
    my, mx = np.argwhere(mask)[0]
    p = model.embed.cfg.patch
    block = x2[:, :, :, my * p:(my + 1) * p, mx * p:(mx + 1) * p]
    block += rng.random(block.shape, dtype=np.float32)
    pred2, loss2 = mae_forward(Tensor(x2), masks, model)
    assert np.array_equal(pred.data, pred2.data)
    assert float(loss.data) != float(loss2.data)


def test_mask_grid_must_match_model():
    model = _desk_model()
    rng = np.random.default_rng(8)
    x = Tensor(np.zeros((1, 4, 3, 16, 16), dtype=np.float32))
    with pytest.raises(ValueError, match=r"\(1, 3, 3\) do not fit a batch of 1 on model grid"):
        mae_forward(x, _masks((2, 3, 3), 0.5, rng, 1), model)
    good = _masks(model.embed.cfg.grid, 0.5, rng, 1)
    with pytest.raises(ValueError, match="masks uint8"):
        mae_forward(x, good.astype(np.uint8), model)


def test_batched_forward_matches_per_clip_loop():
    rng = np.random.default_rng(9)
    model = _desk_model()
    grid = model.embed.cfg.grid
    masks = _masks(grid, 0.75, rng, 3)
    assert len({mk.tobytes() for mk in masks}) == 3
    x = rng.random((3, 4, 3, 16, 16)).astype(np.float32)
    pred, loss = mae_forward(Tensor(x), masks, model)
    losses = []
    for b in range(3):
        row_pred, row_loss = mae_forward(Tensor(x[b:b + 1]), masks[b:b + 1], model)
        assert np.allclose(pred.data[b], row_pred.data[0], atol=1e-5)
        losses.append(float(row_loss.data))
    assert np.isclose(float(loss.data), np.mean(losses), atol=1e-6)


def test_decoder_places_mask_tokens_at_masked_positions():
    # with no decoder blocks each position's output depends on its own
    # input only, so a masked prediction must be recon(norm(mask + pos))
    rng = np.random.default_rng(15)
    cfg = MaeConfig(dim=16, depth=2, heads=2, decoder_dim=8, decoder_depth=0,
                    decoder_heads=2, image_size=16, patch=4, frames=4, tube_depth=2)
    model = MaeModel(cfg, rng, np.float64)
    grid = model.embed.cfg.grid
    masks = _masks(grid, 0.75, rng, 2)
    pred, _ = mae_forward(Tensor(rng.random((2, 4, 3, 16, 16))), masks, model)
    _, ids = tube_token_ids(masks, grid[0])
    for b in range(2):
        dec_in = Tensor(model.mask_token.data[0] + model.dec_pos.data[ids[b]])
        normed = T.layer_norm(dec_in, model.dec_norm.g, model.dec_norm.b)
        want = T.linear(normed, model.recon.w, model.recon.b)
        assert np.allclose(pred.data[b], want.data, rtol=0, atol=1e-12)


def test_mask_list_must_fit_batch():
    rng = np.random.default_rng(14)
    model = _desk_model()
    grid = model.embed.cfg.grid
    x = Tensor(rng.random((2, 4, 3, 16, 16)).astype(np.float32))
    mask = make_tube_mask(grid, 0.75, rng)
    with pytest.raises(ValueError, match=r"\(1, 4, 4\) do not fit a batch of 2"):
        mae_forward(x, mask[None], model)
    with pytest.raises(ValueError, match=r"equal cell counts, got \[8, 12\]"):
        mae_forward(x, np.stack([mask, make_tube_mask(grid, 0.5, rng)]), model)


def test_config_asymmetry_enforced():
    with pytest.raises(ValueError, match="decoder depth"):
        MaeConfig(depth=2, decoder_depth=2)
    with pytest.raises(ValueError, match="narrower"):
        MaeConfig(dim=16, decoder_dim=16, depth=3, decoder_depth=1)


def test_mae_gradients_reach_all_parts():
    rng = np.random.default_rng(10)
    model = _desk_model(dtype=np.float64)
    masks = _masks(model.embed.cfg.grid, 0.75, rng, 1)
    x = Tensor(rng.random((1, 4, 3, 16, 16)))
    _, loss = mae_forward(Tensor(x.data.astype(np.float64)), masks, model)
    T.backward(loss)
    for name in ("embed.proj.w", "enc.0.joint.q.w", "dec.mask", "dec.pos",
                 "dec.0.joint.q.w", "recon.w"):
        assert model.named()[name].grad is not None, name


def test_mae_gradcheck_mask_token_and_head():
    # two clips with distinct masks, so the per-row gathers' scatter
    # backward is checked at a nonzero row offset too
    rng = np.random.default_rng(11)
    model = _desk_model(dtype=np.float64)
    masks = _masks(model.embed.cfg.grid, 0.75, rng, 2)
    x = Tensor(rng.random((2, 4, 3, 16, 16)))

    def loss_fn(_):
        _, loss = mae_forward(x, masks, model)
        return loss

    assert T.grad_check(loss_fn, model.mask_token) < 1e-6
    assert T.grad_check(loss_fn, model.recon.b) < 1e-6


def test_mae_step_digest_at_paper_geometry(sha256):
    """One MAE step at paper geometry (224 px, 16 px patches, 16 frames,
    tube depth 2, ratio 0.9, batch 2): the loss and every parameter
    gradient, pinned bit for bit, so a faster loss, target or gather
    cannot drift the numerics unseen."""
    rng = np.random.default_rng(1414)
    cfg = MaeConfig(dim=64, depth=2, heads=4, decoder_dim=32, decoder_depth=1,
                    decoder_heads=2, image_size=224, patch=16, frames=16, tube_depth=2)
    model = MaeModel(cfg, rng)
    masks = _masks(cfg.embedding_config().grid, 0.9, rng, 2)
    x = rng.random((2, 16, 3, 224, 224), dtype=np.float32)
    _, loss = mae_forward(Tensor(x), masks, model)
    T.backward(loss)
    assert float(loss.data) == 1.009480357170105
    assert sha256([loss.data]) == \
        "34d432da4228565be2531b40f25407e8da89e041e904bb32f7642dbc3c1a7082"
    assert sha256(p.grad for p in model.named().values()) == \
        "2ee5a126e8000e555a8749adb8104e89a0ee81ce283faa9dc141b191df76f72a"


def test_encoder_cost_shrinks_quadratically_at_high_ratio():
    # 14x14 spatial grid; ratio 0.9 leaves 20 of 196 tubes visible, and
    # joint attention cost scales with the square of the token count
    rng = np.random.default_rng(12)
    cfg = MaeConfig(dim=8, depth=2, heads=2, decoder_dim=4, decoder_depth=1,
                    decoder_heads=1, image_size=14, patch=1, frames=2, tube_depth=2)
    model = MaeModel(cfg, rng)
    grid = cfg.embedding_config().grid
    mask = _masks(grid, 0.9, rng, 1)
    assert (~mask).sum() == 20
    x = Tensor(rng.random((1, 2, 3, 14, 14)).astype(np.float32))
    tokens = model.embed.embed(x).tokens

    from vslr.mae import _encode_visible
    from vslr.attention import encoder_forward
    from vslr.embedding import TokenBatch

    T.reset_macs()
    _encode_visible(model, tokens, tube_token_ids(mask, grid[0])[0])
    vis_macs = T.mac_count("attn")
    T.reset_macs()
    encoder_forward(TokenBatch(tokens, grid, False),
                    model.enc_blocks, cfg.heads, model.enc_norm)
    full_macs = T.mac_count("attn")
    assert vis_macs * 196 ** 2 == full_macs * 20 ** 2
    assert vis_macs / full_macs <= 0.015


# ---------------------------------------------------------------------------
# pretraining loop


def test_pretrain_runs_and_is_deterministic(tmp_path, sha256):
    manifest = make_synthetic_dataset(tmp_path / "data", num_classes=2, per_class=3,
                                      nominal_frames=6, size=16, seed=3)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    pcfg = PretrainConfig(ratio=0.75, steps=4, batch=2, lr=1e-3, seed=5)

    curves, weights = [], []
    for run in range(2):
        model = _desk_model(rng=derive_rng(5, "init"))
        curve = pretrain(model, manifest, tmp_path / "data" / "videos", pcfg, pipe,
                         out_dir=tmp_path / f"run{run}")
        curves.append(curve)
        weights.append(sha256(p.data for p in model.named().values()))
    assert curves[0] == curves[1] and weights[0] == weights[1]
    # pinned bit for bit: a change to the MAE step must not drift them
    assert curves[0] == [(0, 0.9967448115348816), (1, 0.9829869866371155),
                         (2, 0.964471161365509), (3, 0.9571921229362488)]
    assert weights[0] == "6419b51249a592df7529558c3becf4695e2f64f2ff36fb7b41c708acddeb88b8"
    assert (tmp_path / "run0" / "loss.csv").exists()
    assert (tmp_path / "run0" / "mae_final.ckpt").exists()


def test_pretrain_checkpoint_interval(tmp_path):
    manifest = make_synthetic_dataset(tmp_path / "data", num_classes=2, per_class=3,
                                      nominal_frames=6, size=16, seed=3)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    model = _desk_model(rng=derive_rng(5, "init"))
    pcfg = PretrainConfig(ratio=0.75, steps=5, batch=2, lr=1e-3, seed=5, checkpoint_interval=2)
    out = tmp_path / "run"
    pretrain(model, manifest, tmp_path / "data" / "videos", pcfg, pipe, out_dir=out)
    assert sorted(p.name for p in out.glob("*.ckpt")) == [
        "mae_00002.ckpt", "mae_00004.ckpt", "mae_final.ckpt"]
    with open(out / "loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss"] and [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]

    step4, final = load_checkpoint(out / "mae_00004.ckpt"), load_checkpoint(out / "mae_final.ckpt")
    assert list(step4) == list(final) == list(model.named())
    assert all(np.array_equal(final[n], t.data) for n, t in model.named().items())
    assert not np.array_equal(step4["embed.proj.w"], final["embed.proj.w"])

    clf = ClassifierModel(ModelConfig("joint", 16, 2, 2, 16, 4, 4, 2), 3,
                          np.random.default_rng(13))
    load_encoder(clf.named(), step4)
    assert np.array_equal(clf.named()["embed.proj.w"].data, step4["embed.proj.w"])
    assert np.array_equal(clf.named()["enc.1.joint.v.w"].data, step4["enc.1.joint.v.w"])


def test_pretrain_stops_on_non_finite_gradient(tmp_path):
    manifest = make_synthetic_dataset(tmp_path / "data", num_classes=2, per_class=3,
                                      nominal_frames=6, size=16, seed=3)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    model = _desk_model(rng=derive_rng(5, "init"))
    model.enc_blocks[0].mlp0.w.data *= np.float32(1e21)     # finite loss, overflowing grads
    pcfg = PretrainConfig(ratio=0.75, steps=2, batch=2, lr=1e-3, seed=5)
    with pytest.raises(VslrError, match="non-finite gradient of embed.proj.w at step 0") as e:
        pretrain(model, manifest, tmp_path / "data" / "videos", pcfg, pipe,
                 out_dir=tmp_path / "run")
    assert e.value.cls == "divergence"
    assert not (tmp_path / "run" / "mae_final.ckpt").exists()


def test_pretrain_that_diverges_leaves_no_run_directory(tmp_path):
    """The run directory appears with the first checkpoint: at lr 1e300
    the first step diverges, and no empty directory is left behind."""
    manifest = make_synthetic_dataset(tmp_path / "data", num_classes=2, per_class=3,
                                      nominal_frames=6, size=16, seed=3)
    pipe = PipelineConfig(frames=4, sampling="even", crop=16)
    model = _desk_model(rng=derive_rng(5, "init"))
    pcfg = PretrainConfig(ratio=0.75, steps=1, batch=2, lr=1e300, seed=5)
    with pytest.raises(VslrError, match="diverged") as e:
        pretrain(model, manifest, tmp_path / "data" / "videos", pcfg, pipe,
                 out_dir=tmp_path / "pre")
    assert e.value.cls == "divergence"
    assert not (tmp_path / "pre").exists()


def test_load_encoder_copies_encoder():
    model = _desk_model(rng=np.random.default_rng(42))
    cfg = ModelConfig("joint", 16, 2, 2, 16, 4, 4, 2)
    clf = ClassifierModel(cfg, 3, np.random.default_rng(13))
    src, dst = model.named(), clf.named()
    src_arrays = {n: t.data for n, t in src.items()}
    head = dst["head.w"].data.copy()
    load_encoder(dst, src_arrays)
    assert np.array_equal(src["embed.proj.w"].data, dst["embed.proj.w"].data)
    assert np.array_equal(src["enc.1.joint.v.w"].data, dst["enc.1.joint.v.w"].data)
    assert np.array_equal(dst["head.w"].data, head)
    x = Tensor(np.random.default_rng(0).random((2, 4, 3, 16, 16)).astype(np.float32))
    assert clf.forward(x).shape == (2, 3)

    wide = ClassifierModel(ModelConfig("joint", 24, 2, 2, 16, 4, 4, 2), 3,
                           np.random.default_rng(13))
    with pytest.raises(ValueError, match="checkpoint: shape mismatch"):
        load_encoder(wide.named(), src_arrays)
    with pytest.raises(ValueError, match="checkpoint: no encoder weights"):
        load_encoder(clf.named(), {"dec.pos": src_arrays["dec.pos"]})
