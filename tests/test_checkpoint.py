"""Checkpoint persistence: bit-exact round-trips and failure modes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import DAMAGE, damaged
from sdag.errors import CorruptCheckpoint, VersionMismatch
from sdag.router.checkpoint import load_checkpoint, save_checkpoint
from sdag.router.model import RouterDims, init_params, tensor_shapes

DIMS = RouterDims(d_s=3, d_q=5, h=4, L=2)


def test_round_trip_bit_exact(tmp_path):
    params = init_params(DIMS, seed=17, embedder="hashed(d=5)")
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == params.dims
    assert loaded.seed == 17
    assert loaded.embedder == "hashed(d=5)"
    for name in tensor_shapes(DIMS):
        assert np.array_equal(loaded.tensors[name], params.tensors[name]), name
        assert loaded.tensors[name].dtype == np.float64


def test_save_is_deterministic_bytes(tmp_path):
    params = init_params(DIMS, seed=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(params, p1)
    save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("version", [1, 99])
def test_version_mismatch(tmp_path, version):
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(VersionMismatch):
        load_checkpoint(path)


def test_truncated_file_is_corrupt(tmp_path):
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_missing_version_is_corrupt(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{}")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_non_object_is_corrupt(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_missing_tensor_is_corrupt(tmp_path):
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    del payload["tensors"]["init.w"]
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_wrong_tensor_size_is_corrupt(tmp_path):
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["tensors"]["init.b"] = [0.0]  # wrong element count
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_non_finite_tensor_is_corrupt(tmp_path):
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["tensors"]["init.b"] = ["NaN"] + payload["tensors"]["init.b"][1:]
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_bad_dims_is_corrupt(tmp_path):
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["dims"]["h"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)


def test_nan_rejected_at_save(tmp_path):
    params = init_params(DIMS, seed=0)
    params.tensors["init.b"][0] = np.nan
    with pytest.raises(ValueError):
        save_checkpoint(params, tmp_path / "ckpt.json")


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("damage") / "ckpt.json"
    save_checkpoint(init_params(DIMS, seed=5, embedder="hashed(d=5)"), path)
    return path


@settings(max_examples=300, deadline=None)
@given(damage=DAMAGE)
def test_damaged_file_loads_or_raises_designated_error(saved_checkpoint, damage):
    path = saved_checkpoint.with_name("damaged.json")
    path.write_bytes(damaged(saved_checkpoint.read_bytes(), damage))
    try:
        load_checkpoint(path)
    except (CorruptCheckpoint, VersionMismatch):
        pass


def test_non_utf8_file_is_corrupt(saved_checkpoint):
    path = saved_checkpoint.with_name("latin.json")
    path.write_bytes(saved_checkpoint.read_bytes().replace(b'"hashed', b'"\xffhashed', 1))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(path)
