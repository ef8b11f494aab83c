"""Router network: shapes, seeded init, and hand-checked toy forwards."""

import numpy as np
import pytest

from sdag.errors import DimensionMismatch
from sdag.router.loss import loss_and_gradients
from sdag.router.model import (
    ALL_ROWS,
    PAIR_DST,
    PAIR_SRC,
    ForwardTape,
    RouterDims,
    RouterParams,
    init_params,
    question_blocks,
    route,
    _edge_output,
    _sigmoid,
    tensor_shapes,
)
from sdag.subjects import NUM_SUBJECTS


def zero_params(dims: RouterDims, **overrides) -> RouterParams:
    tensors = {name: np.zeros(shape) for name, shape in tensor_shapes(dims).items()}
    for name, value in overrides.items():
        tensors[name] = np.asarray(value, dtype=np.float64).reshape(tensors[name].shape)
    return RouterParams(dims=dims, tensors=tensors)


def test_pair_index_covers_off_diagonal():
    assert len(PAIR_SRC) == NUM_SUBJECTS * (NUM_SUBJECTS - 1) == 210
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
        assert shapes[f"mp{layer}.w_msg"] == (8, 8)
        assert shapes[f"mp{layer}.b"] == (8,)
    assert "mp3.w_self" not in shapes
    assert shapes["node_head.w2"] == (8, 1)
    assert shapes["edge_head.w1"] == (2 * 8 + 6, 8)


def test_question_blocks_are_the_rows_that_meet_the_question_embedding():
    # Row first + k of a block gets gradient h_q[k] * (the block's output
    # gradient), so it is zero exactly where h_q is; the row just ahead of the
    # block does not meet h_q and is not.
    dims = RouterDims(d_s=3, d_q=5, h=4, L=1, activation="linear")
    params = init_params(dims, seed=1)
    h_q = np.array([0.0, 0.6, 0.0, -0.8, 0.0])
    labels = np.ones(NUM_SUBJECTS), np.roll(np.eye(NUM_SUBJECTS), 1, axis=1)
    _, grads = loss_and_gradients(params, h_q, *labels)
    for name, first in question_blocks(dims).items():
        assert tensor_shapes(dims)[name][0] == first + dims.d_q
        rows = grads[name][first:]
        assert not rows[h_q == 0].any() and rows[h_q != 0].any(axis=1).all(), name
        assert grads[name][first - 1].any(), name


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


def fed_params(dims: RouterDims, x, **overrides) -> RouterParams:
    """Parameters whose init stage hands `x` (15 x h) to the first layer
    unchanged: linear activation, d_s = h, the subject block of `init.w` the
    identity, subject embeddings `x`, question block and bias zero."""
    assert dims.activation == "linear" and dims.d_s == dims.h
    init_w = np.zeros((dims.d_s + dims.d_q, dims.h))
    init_w[: dims.d_s] = np.eye(dims.h)
    return zero_params(dims, subject_embeddings=x, **{"init.w": init_w}, **overrides)


def test_init_features_zero_params_give_zero():
    dims = RouterDims(d_s=3, d_q=3, h=3, L=1)
    x0 = ForwardTape(zero_params(dims), np.ones(3)).xs[0]
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
    x0 = ForwardTape(params, np.array([0.3])).xs[0]
    assert np.allclose(x0, np.full((15, 1), 0.5))


def test_init_features_negative_preactivation_clamps():
    dims = RouterDims(d_s=1, d_q=1, h=1, L=1)
    params = zero_params(
        dims,
        subject_embeddings=np.full((15, 1), -1.0),
        **{"init.w": np.array([[1.0], [1.0]])},
    )
    x0 = ForwardTape(params, np.array([0.0])).xs[0]
    assert np.array_equal(x0, np.zeros((15, 1)))


def test_fed_params_feed_the_chosen_states():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1, activation="linear")
    x = np.random.default_rng(2).standard_normal((15, 2))
    assert np.array_equal(ForwardTape(fed_params(dims, x), np.ones(2)).xs[0], x)


def test_message_pass_zero_weights_zero_output():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=2, activation="linear")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((15, 2))
    tape = ForwardTape(fed_params(dims, x), np.zeros(2))
    assert np.array_equal(tape.xs[1], np.zeros((15, 2)))
    assert np.array_equal(tape.x_final, np.zeros((15, 2)))


def test_message_pass_identity_configuration():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1, activation="linear")
    rng = np.random.default_rng(1)
    x = rng.standard_normal((15, 2))
    params = fed_params(dims, x, **{"mp0.w_self": np.eye(2)})
    assert np.allclose(ForwardTape(params, np.zeros(2)).xs[1], x)


def test_message_pass_mean_of_identical_neighbors():
    dims = RouterDims(d_s=3, d_q=3, h=3, L=1, activation="linear")
    v = np.array([1.0, -2.0, 3.0])
    x = np.tile(v, (15, 1))
    params = fed_params(dims, x, **{"mp0.w_msg": np.eye(3)})
    # Mean over the other 14 identical rows is v itself.
    assert np.allclose(ForwardTape(params, np.zeros(3)).xs[1], x)


def test_predict_zero_heads_give_half():
    # Zero parameters route every question to zero node states, so the heads
    # alone decide: every logit is 0.
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1)
    out = route(zero_params(dims), np.zeros(2))
    assert np.allclose(out.node_probs, 0.5)
    off_diag = ~np.eye(15, dtype=bool)
    assert np.allclose(out.edge_probs[off_diag], 0.5)
    assert np.array_equal(np.diag(out.edge_probs), np.zeros(15))


def test_predict_saturated_logit():
    dims = RouterDims(d_s=2, d_q=2, h=2, L=1)
    params = zero_params(dims, **{"node_head.b2": np.array([20.0])})
    out = route(params, np.zeros(2))
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
    # route() and the tape run the same stages: equal outputs, bit for bit.
    dims = RouterDims(d_s=4, d_q=4, h=4, L=2)
    params = init_params(dims, seed=9)
    h_q = np.random.default_rng(9).standard_normal(4)
    via_route = route(params, h_q)
    tape = ForwardTape(params, h_q)
    edge_logits, edge_probs = _edge_output(tape.edge_logits.copy(), ALL_ROWS)
    full = {"node_probs": _sigmoid(tape.node_logits), "node_logits": tape.node_logits,
            "edge_probs": edge_probs, "edge_logits": edge_logits}
    for name, want in full.items():
        assert np.array_equal(want, getattr(via_route, name)), name


def test_route_edge_rows_are_the_full_grid_rows_bit_for_bit():
    dims = RouterDims(d_s=32, d_q=256, h=64, L=2)
    rng = np.random.default_rng(5)
    for seed in range(4):
        params = init_params(dims, seed=seed)
        h_q = rng.standard_normal(256)
        full = route(params, h_q).edge_probs
        for size in range(1, 16):
            rows = sorted(rng.choice(15, size=size, replace=False).tolist())
            grid = route(params, h_q).edge_rows(rows)
            assert grid[rows].tobytes() == full[rows].tobytes(), (seed, rows)
            others = [i for i in range(15) if i not in rows]
            assert not grid[others].any()
        # No rows asked, none scored.
        assert not route(params, h_q).edge_rows([]).any()
