"""Router network: shapes, seeded init, and hand-checked toy forwards."""

import numpy as np
import pytest

from sdag.errors import DimensionMismatch
from sdag.router.model import (
    NUM_PAIRS,
    PAIR_DST,
    PAIR_SRC,
    ForwardTape,
    RouterDims,
    RouterParams,
    init_node_features,
    init_params,
    message_pass,
    predict,
    route,
    tensor_shapes,
)
from sdag.subjects import NUM_SUBJECTS


def zero_params(dims: RouterDims, **overrides) -> RouterParams:
    tensors = {name: np.zeros(shape) for name, shape in tensor_shapes(dims).items()}
    for name, value in overrides.items():
        tensors[name] = np.asarray(value, dtype=np.float64).reshape(tensors[name].shape)
    return RouterParams(dims=dims, tensors=tensors)


def test_pair_index_covers_off_diagonal():
    assert NUM_PAIRS == NUM_SUBJECTS * (NUM_SUBJECTS - 1) == 210
    pairs = set(zip(PAIR_SRC.tolist(), PAIR_DST.tolist()))
    assert len(pairs) == 210
    assert all(i != j for i, j in pairs)


def test_tensor_shapes_naming_scheme():
    dims = RouterDims(d_s=4, d_q=6, h=8, L=3)
    shapes = tensor_shapes(dims)
    assert shapes["subject_embeddings"] == (15, 4)
    assert shapes["init.w"] == (10, 8)
    assert shapes["init.b"] == (8,)
    for layer in range(3):
        assert shapes[f"mp{layer}.w_self"] == (8, 8)
        assert shapes[f"mp{layer}.w_in"] == (8, 8)
        assert shapes[f"mp{layer}.w_out"] == (8, 8)
        assert shapes[f"mp{layer}.b"] == (8,)
    assert "mp3.w_self" not in shapes
    assert shapes["node_head.w2"] == (8, 1)
    assert shapes["edge_head.w1"] == (2 * 8 + 6, 8)


def test_dims_validation():
    with pytest.raises(ValueError):
        RouterDims(d_s=0)
    with pytest.raises(ValueError):
        RouterDims(L=0)
    with pytest.raises(ValueError):
        RouterDims(activation="tanh")


def test_init_params_seeded_and_biases_zero():
    dims = RouterDims(d_s=4, d_q=4, h=4, L=2)
    a = init_params(dims, seed=5)
    b = init_params(dims, seed=5)
    c = init_params(dims, seed=6)
    for name in tensor_shapes(dims):
        assert np.array_equal(a.tensors[name], b.tensors[name])
        if name.endswith((".b", ".b1", ".b2")):
            assert np.array_equal(a.tensors[name], np.zeros_like(a.tensors[name]))
        else:
            assert not np.array_equal(a.tensors[name], c.tensors[name])
    weights = np.concatenate(
        [v.ravel() for k, v in init_params(RouterDims(), seed=0).tensors.items()
         if not k.endswith((".b", ".b1", ".b2"))]
    )
    assert 0.05 < weights.std() < 0.15  # scale 0.1 initialization


def test_params_shape_guards():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1)
    tensors = {name: np.zeros(shape) for name, shape in tensor_shapes(dims).items()}
    missing = dict(tensors)
    del missing["init.w"]
    with pytest.raises(DimensionMismatch):
        RouterParams(dims=dims, tensors=missing)
    wrong = dict(tensors)
    wrong["init.w"] = np.zeros((3, 3))
    with pytest.raises(DimensionMismatch):
        RouterParams(dims=dims, tensors=wrong)
    bad = dict(tensors)
    bad["init.b"] = np.array([np.nan, 0.0])
    with pytest.raises(ValueError):
        RouterParams(dims=dims, tensors=bad)


def test_init_features_zero_params_give_zero():
    dims = RouterDims(d_s=3, d_q=3, h=3, L=1)
    x0 = init_node_features(zero_params(dims), np.ones(3))
    assert np.array_equal(x0, np.zeros((15, 3)))


def test_init_features_one_dim_toy():
    # d_s = d_q = h = 1, fused weight [1, 1], bias 0, every subject
    # embedding 0.2, question embedding 0.3: ReLU(0.2 + 0.3) = 0.5.
    dims = RouterDims(d_s=1, d_q=1, h=1, L=1)
    params = zero_params(
        dims,
        subject_embeddings=np.full((15, 1), 0.2),
        **{"init.w": np.array([[1.0], [1.0]])},
    )
    x0 = init_node_features(params, np.array([0.3]))
    assert np.allclose(x0, np.full((15, 1), 0.5))


def test_init_features_negative_preactivation_clamps():
    dims = RouterDims(d_s=1, d_q=1, h=1, L=1)
    params = zero_params(
        dims,
        subject_embeddings=np.full((15, 1), -1.0),
        **{"init.w": np.array([[1.0], [1.0]])},
    )
    x0 = init_node_features(params, np.array([0.0]))
    assert np.array_equal(x0, np.zeros((15, 1)))


def test_message_pass_zero_weights_zero_output():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((15, 2))
    assert np.array_equal(message_pass(zero_params(dims), x), np.zeros((15, 2)))


def test_message_pass_identity_configuration():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1, activation="linear")
    params = zero_params(dims, **{"mp0.w_self": np.eye(2)})
    rng = np.random.default_rng(1)
    x = rng.standard_normal((15, 2))
    assert np.allclose(message_pass(params, x), x)


def test_message_pass_mean_of_identical_neighbors():
    dims = RouterDims(d_s=3, d_q=3, h=3, L=1, activation="linear")
    params = zero_params(dims, **{"mp0.w_in": np.eye(3)})
    v = np.array([1.0, -2.0, 3.0])
    x = np.tile(v, (15, 1))
    out = message_pass(params, x)
    # Mean over the other 14 identical rows is v itself.
    assert np.allclose(out, x)


def test_message_pass_shape_guard():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1)
    with pytest.raises(DimensionMismatch):
        message_pass(zero_params(dims), np.zeros((14, 2)))


def test_predict_zero_heads_give_half():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1)
    out = predict(zero_params(dims), np.zeros((15, 2)), np.zeros(2))
    assert np.allclose(out.node_probs, 0.5)
    off_diag = ~np.eye(15, dtype=bool)
    assert np.allclose(out.edge_probs[off_diag], 0.5)
    assert np.array_equal(np.diag(out.edge_probs), np.zeros(15))


def test_predict_saturated_logit():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1)
    params = zero_params(dims, **{"node_head.b2": np.array([20.0])})
    out = predict(params, np.zeros((15, 2)), np.zeros(2))
    assert np.all(np.abs(out.node_probs - 1.0) < 1e-8)
    assert np.allclose(out.node_logits, 20.0)


def test_route_full_pass_properties():
    dims = RouterDims(d_s=8, d_q=16, h=8, L=2)
    params = init_params(dims, seed=3)
    rng = np.random.default_rng(3)
    out = route(params, rng.standard_normal(16))
    assert out.node_probs.shape == (15,)
    assert out.edge_probs.shape == (15, 15)
    assert np.all((out.node_probs > 0) & (out.node_probs < 1))
    off_diag = ~np.eye(15, dtype=bool)
    assert np.all((out.edge_probs[off_diag] > 0) & (out.edge_probs[off_diag] < 1))
    assert np.array_equal(np.diag(out.edge_probs), np.zeros(15))
    assert np.array_equal(np.diag(out.edge_logits), np.zeros(15))
    with pytest.raises(DimensionMismatch):
        route(params, np.zeros(17))


def test_forward_tape_matches_wrappers():
    dims = RouterDims(d_s=4, d_q=4, h=4, L=2)
    params = init_params(dims, seed=9)
    h_q = np.random.default_rng(9).standard_normal(4)
    tape = ForwardTape(params, h_q)
    x0 = init_node_features(params, h_q)
    assert np.array_equal(tape.x0, x0)
    assert np.array_equal(tape.x_final, message_pass(params, x0))
    via_predict = predict(params, tape.x_final, h_q)
    full = tape.output()
    assert np.array_equal(full.node_probs, via_predict.node_probs)
    assert np.array_equal(full.edge_probs, via_predict.edge_probs)
