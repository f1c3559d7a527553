"""Checkpoint container: bit-exact round trips and format guards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vslr.checkpoint import load_checkpoint, load_into, save_checkpoint
from vslr.errors import VslrError
from vslr.tensor import Tensor


def test_round_trip_is_bit_exact_float32(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "embed.proj.w": rng.standard_normal((192, 32)).astype(np.float32),
        "enc.0.temporal.q.w": rng.standard_normal((32, 32)).astype(np.float32),
        "enc.norm.g": np.ones(32, dtype=np.float32),
        "scalar_like": np.float32(3.5) * np.ones((), dtype=np.float32),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    for name, arr in params.items():
        assert back[name].dtype == np.float32
        assert back[name].shape == arr.shape
        assert arr.tobytes() == back[name].tobytes()


def test_round_trip_is_bit_exact_float64(tmp_path):
    rng = np.random.default_rng(1)
    params = {"w": rng.standard_normal((5, 7))}
    path = tmp_path / "model64.ckpt"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert back["w"].dtype == np.float64
    assert params["w"].tobytes() == back["w"].tobytes()


def test_save_accepts_tensors(tmp_path):
    t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    save_checkpoint(tmp_path / "t.ckpt", {"x": t})
    back = load_checkpoint(tmp_path / "t.ckpt")
    assert np.array_equal(back["x"], t.data)


def test_magic_and_width_guards(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
    with pytest.raises(TypeError, match="mixes scalar widths"):
        save_checkpoint(tmp_path / "mix.ckpt", {
            "a": np.ones(2, dtype=np.float32),
            "b": np.ones(2, dtype=np.float64),
        })


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="checkpoint: truncated payload of 'w'"):
        load_checkpoint(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:10])
    with pytest.raises(ValueError, match="checkpoint: truncated header"):
        load_checkpoint(path)
    # every cut past the magic, wherever it lands, is the same typed error
    for cut in range(4, len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="checkpoint: truncated"):
            load_checkpoint(path)


def test_non_utf8_entry_name_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    name_at = 4 + 9 + 4                 # magic, header, name length
    assert blob[name_at:name_at + 1] == b"w"
    blob[name_at] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"checkpoint: entry name at byte {name_at} is not UTF-8"):
        load_checkpoint(path)


def test_load_into_checks_names_and_shapes(tmp_path):
    model = {"a": Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)}
    save_checkpoint(tmp_path / "ok.ckpt", {"a": np.ones((2, 2), dtype=np.float32)})
    load_into(model, load_checkpoint(tmp_path / "ok.ckpt"))
    assert np.array_equal(model["a"].data, np.ones((2, 2)))

    save_checkpoint(tmp_path / "wrong.ckpt", {"a": np.ones((3, 2), dtype=np.float32)})
    with pytest.raises(ValueError, match="shape mismatch"):
        load_into(model, load_checkpoint(tmp_path / "wrong.ckpt"))
    save_checkpoint(tmp_path / "extra.ckpt", {"a": np.ones((2, 2), dtype=np.float32),
                                              "b": np.ones(1, dtype=np.float32)})
    with pytest.raises(ValueError, match="name mismatch"):
        load_into(model, load_checkpoint(tmp_path / "extra.ckpt"))


@pytest.fixture(scope="module")
def real_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "real.ckpt"
    save_checkpoint(path, {"embed.proj.w": np.ones((2, 3), dtype=np.float32),
                           "b": np.arange(4, dtype=np.float32),
                           "s": np.ones((), dtype=np.float32),
                           "z": np.ones((0, 3), dtype=np.float32)})
    return path, path.read_bytes()


@st.composite
def _mutations(draw):
    """Up to 6 (offset, byte) overwrites, then an optional cut or tail."""
    edits = draw(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=6))
    cut = draw(st.none() | st.integers(0, 200))
    tail = draw(st.binary(max_size=12))
    return edits, cut, tail


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutation=_mutations())
def test_load_checkpoint_fuzz(real_checkpoint, mutation):
    """Every mutation of a real checkpoint either loads as float32 arrays
    or raises VslrError of class checkpoint."""
    path, blob = real_checkpoint
    edits, cut, tail = mutation
    data = bytearray(blob)
    for at, byte in edits:
        data[at % len(data)] = byte
    mutated = path.with_name("mutated.ckpt")
    mutated.write_bytes(bytes(data[:cut]) + tail)
    try:
        loaded = load_checkpoint(mutated)
    except VslrError as e:
        assert e.cls == "checkpoint" and str(e).startswith("checkpoint: ")
        return
    assert all(isinstance(a, np.ndarray) and a.dtype == np.float32 for a in loaded.values())
