"""Checkpoint persistence: bit-exact round-trips and failure modes."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import DAMAGE, damaged
from sdag.errors import CorruptCheckpoint, VersionMismatch
from sdag.router.checkpoint import load_checkpoint, save_checkpoint
from sdag.router.model import RouterDims, RouterParams, init_params, tensor_shapes

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


@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
def test_non_finite_number_in_tensor_is_corrupt(tmp_path, literal):
    # Python's json reads these literals as floats; the string "NaN" of the
    # test above is rejected earlier, as not numeric.
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["tensors"]["init.b"][0] = "LITERAL"
    path.write_text(json.dumps(payload).replace('"LITERAL"', literal))
    with pytest.raises(CorruptCheckpoint, match="tensor init.b has non-finite values"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "name, value, kind",
    [
        ("node_head.b2", True, "bool"),
        ("init.b", ["1.5", "2", "3", "4"], "<U3"),
    ],
)
def test_tensor_that_is_not_numbers_is_corrupt(tmp_path, name, value, kind):
    # np.asarray(..., dtype=float64) would read these as [1.0] and as floats.
    params = init_params(DIMS, seed=0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["tensors"][name] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptCheckpoint) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: tensor {name} is not numeric ({kind})"


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


# -- streamed, atomic save ----------------------------------------------------


def one_shot_bytes(params) -> bytes:
    """Reference bytes: the whole payload through a single json.dumps."""
    payload = {
        "version": 2,
        "dims": {
            "d_s": params.dims.d_s,
            "d_q": params.dims.d_q,
            "h": params.dims.h,
            "L": params.dims.L,
            "activation": params.dims.activation,
        },
        "seed": params.seed,
        "embedder": params.embedder,
        "tensors": {name: arr.reshape(-1).tolist() for name, arr in params.tensors.items()},
    }
    text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -1.0]
FLOATS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
ESCAPED = '"{}[]:,\\ /\n\u00e9\u6f22\U0001f600ab'  # quotes, braces, non-ASCII
LABELS = st.none() | st.text(alphabet=ESCAPED, max_size=12) | st.text(max_size=12)


@st.composite
def router_params(draw):
    dims = RouterDims(
        d_s=draw(st.integers(1, 4)),
        d_q=draw(st.integers(1, 6)),
        h=draw(st.integers(1, 4)),
        L=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["relu", "linear"])),
    )
    tensors = {
        name: draw(arrays(np.float64, shape, elements=FLOATS))
        for name, shape in tensor_shapes(dims).items()
    }
    seed = draw(st.none() | st.integers(-(2**70), 2**70))
    return RouterParams(dims=dims, tensors=tensors, seed=seed, embedder=draw(LABELS))


@settings(max_examples=150, deadline=None)
@given(params=router_params())
@example(params=init_params(RouterDims(), seed=11, embedder='hashed(d="256"){}'))
def test_save_bytes_equal_one_shot_dump(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("stream") / "ckpt.json"
    save_checkpoint(params, path)
    assert path.read_bytes() == one_shot_bytes(params)
    loaded = load_checkpoint(path)
    assert (loaded.seed, loaded.embedder) == (params.seed, params.embedder)
    for name, arr in params.tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes(), name


def test_failed_save_keeps_previous_file(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(DIMS, seed=1), path)
    before = path.read_bytes()
    params = init_params(DIMS, seed=2)
    # Last in sorted order, so every other tensor is written before the failure.
    params.tensors["subject_embeddings"][-1, -1] = np.nan
    with pytest.raises(ValueError):
        save_checkpoint(params, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_save_peak_memory_is_about_one_tensor(tmp_path):
    # The default dims hold 190,274 parameters; a one-shot dump of all of them
    # peaks at about 17 MiB of Python objects, one tensor at a time at about 7.
    params = init_params(RouterDims(), seed=0)
    tracemalloc.start()
    try:
        save_checkpoint(params, tmp_path / "ckpt.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"
