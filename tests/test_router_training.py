"""Training loop: determinism, loss descent, and config guards."""

import numpy as np
import pytest

from sdag.embedding import HashedEmbedder
from sdag.errors import EmptySplit
from sdag.router.loss import LossConfig
from sdag.router.model import RouterDims, init_params, tensor_shapes
from sdag.router.training import ADAM_EPS, TrainConfig, TrainSample, train, train_router
from sdag.subjects import Subject, build_ground_truth_dag

M, P, B, C = Subject.MATH, Subject.PHYSICS, Subject.BIOLOGY, Subject.CHEMISTRY

DIMS = RouterDims(d_s=8, d_q=16, h=8, L=2)


def tiny_samples():
    emb = HashedEmbedder(d=16)
    dataset = [
        ("math math math physics", build_ground_truth_dag({M: 0.7, P: 0.3})),
        ("biology chemistry chemistry", build_ground_truth_dag({C: 0.6, B: 0.4})),
        ("physics law physics physics", build_ground_truth_dag({P: 0.75, Subject.LAW: 0.25})),
    ]
    return [TrainSample.from_dag(emb.embed(q), g) for q, g in dataset]


def test_train_config_guards():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(loss=LossConfig(lambda_node=0.0, lambda_edge=0.0))


def test_train_empty_dataset_rejected():
    with pytest.raises(EmptySplit):
        train(init_params(DIMS), [])
    with pytest.raises(EmptySplit):
        train_router([], HashedEmbedder(d=16))


def test_train_reduces_loss_and_counts_steps():
    params = init_params(DIMS, seed=0)
    samples = tiny_samples()
    result = train(params, samples, TrainConfig(epochs=25, seed=0))
    assert result.steps == 25 * len(samples)
    assert len(result.loss_curve) == 25
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_train_does_not_mutate_input_params():
    params = init_params(DIMS, seed=0)
    before = {k: v.copy() for k, v in params.tensors.items()}
    train(params, tiny_samples(), TrainConfig(epochs=2, seed=0))
    for name in before:
        assert np.array_equal(params.tensors[name], before[name])


def test_training_determinism_bitwise():
    samples = tiny_samples()
    r1 = train(init_params(DIMS, seed=7), samples, TrainConfig(epochs=5, seed=7))
    r2 = train(init_params(DIMS, seed=7), samples, TrainConfig(epochs=5, seed=7))
    assert r1.loss_curve == r2.loss_curve
    for name in tensor_shapes(DIMS):
        assert np.array_equal(r1.params.tensors[name], r2.params.tensors[name])


def test_different_seed_changes_trajectory():
    samples = tiny_samples()
    r1 = train(init_params(DIMS, seed=0), samples, TrainConfig(epochs=3, seed=0))
    r2 = train(init_params(DIMS, seed=1), samples, TrainConfig(epochs=3, seed=1))
    assert r1.loss_curve != r2.loss_curve


def test_adam_single_step_matches_hand_computation():
    # One sample, one epoch: theta' = theta - lr * g1 / (|g1| + eps) after
    # bias correction collapses (m/bc1 = g, sqrt(v/bc2) = |g|) at t=1.
    params = init_params(DIMS, seed=3)
    sample = tiny_samples()[0]
    from sdag.router.loss import loss_and_gradients

    _, grads = loss_and_gradients(params, sample.h_q, sample.node_labels, sample.edge_labels)
    cfg = TrainConfig(epochs=1, lr=1e-3)
    result = train(params, [sample], cfg)
    for name, g in grads.items():
        expected = params.tensors[name] - cfg.lr * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(result.params.tensors[name], expected, atol=1e-12), name


def test_train_router_wires_embedder_descriptor():
    emb = HashedEmbedder(d=16)
    dataset = [("math physics", build_ground_truth_dag({M: 0.7, P: 0.3}))]
    result = train_router(dataset, emb, TrainConfig(epochs=1, seed=0), dims=DIMS)
    assert result.params.embedder == "hashed(d=16)"
    assert result.params.dims == DIMS
    # Default dims pick up the embedder's dimension.
    r2 = train_router(dataset, emb, TrainConfig(epochs=1, seed=0))
    assert r2.params.dims.d_q == 16


def test_train_sample_stores_float64_label_arrays():
    sample = tiny_samples()[0]
    assert sample.node_labels.dtype == np.float64 and sample.node_labels.shape == (15,)
    assert sample.edge_labels.dtype == np.float64 and sample.edge_labels.shape == (15, 15)
    assert sample.node_labels[M.index] == 1.0 and sample.edge_labels[P.index, M.index] == 1.0
