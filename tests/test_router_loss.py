"""Masked multi-task BCE: values, masking exactness, and gradients."""

import math

import numpy as np
import pytest

from sdag.router.loss import (
    PROB_EPS,
    LossConfig,
    edge_mask,
    logit_gradients,
    loss_and_gradients,
    masked_bce_loss,
)
from sdag.router.model import (
    PAIR_DST,
    PAIR_SRC,
    ForwardTape,
    RouterDims,
    RouterOutput,
    init_params,
)
from sdag.subjects import SDag, SDagEdge, SDagNode, Subject, build_ground_truth_dag

M, P, B = Subject.MATH, Subject.PHYSICS, Subject.BIOLOGY


def labels_for(dag: SDag):
    s, a = dag.to_labels()
    return np.array(s, dtype=np.float64), np.array(a, dtype=np.float64)


def probs_output(node_probs, edge_probs):
    return RouterOutput(node_probs=np.asarray(node_probs), edge_probs=np.asarray(edge_probs))


def test_loss_config_guards():
    with pytest.raises(ValueError):
        LossConfig(lambda_node=-1.0)
    with pytest.raises(ValueError):
        LossConfig(lambda_node=0.0, lambda_edge=0.0)
    LossConfig(lambda_node=0.0, lambda_edge=1.0)


def test_edge_mask_definition():
    s = np.zeros(15)
    s[M.index] = 1
    mask = edge_mask(s)
    assert not mask.diagonal().any()
    # Pairs touching the active node are unmasked, in both directions.
    assert mask[M.index, P.index] and mask[P.index, M.index]
    # Pairs between two inactive nodes are masked.
    assert not mask[P.index, B.index]
    assert mask.sum() == 28  # 14 out-pairs + 14 in-pairs of the single active node


def test_single_node_bce_is_ln2():
    # One active node at probability 0.5 contributes ln 2. The other 14
    # inactive nodes sit at probability 0, clamped to PROB_EPS, adding
    # -log(1 - PROB_EPS) each; the expected value accounts for that exactly.
    node_probs = np.zeros(15)
    node_probs[M.index] = 0.5
    s = np.zeros(15)
    s[M.index] = 1.0
    a = np.zeros((15, 15))
    loss = masked_bce_loss(
        probs_output(node_probs, np.zeros((15, 15))), s, a,
        LossConfig(lambda_node=1.0, lambda_edge=0.0),
    )
    expected = math.log(2.0) + 14 * (-math.log1p(-PROB_EPS))
    assert loss == pytest.approx(expected, rel=1e-12)
    assert loss == pytest.approx(math.log(2.0), abs=2e-6)


def test_perfect_prediction_loss_is_clamp_floor():
    g = build_ground_truth_dag({M: 0.5, P: 0.3, B: 0.2})
    s, a = labels_for(g)
    loss = masked_bce_loss(probs_output(s.copy(), a.copy()), s, a)
    # Exact probabilities clamp to [eps, 1-eps]; each term is ~1e-7.
    n_unmasked = int(edge_mask(s).sum())
    expected = (15 + n_unmasked) * (-math.log1p(-PROB_EPS))
    assert loss == pytest.approx(expected, rel=1e-9)
    assert loss < 1e-4


def test_masked_edge_contributes_exactly_zero():
    # A confident wrong edge between two inactive subjects must not move
    # the loss at all: bitwise-equal values, not approximately equal.
    s = np.zeros(15)
    s[M.index] = 1.0
    s[P.index] = 1.0
    a = np.zeros((15, 15))
    a[P.index, M.index] = 1.0
    edge_probs = np.full((15, 15), 0.5)
    np.fill_diagonal(edge_probs, 0.0)
    base = masked_bce_loss(probs_output(np.full(15, 0.5), edge_probs.copy()), s, a)
    perturbed = edge_probs.copy()
    perturbed[B.index, Subject.HISTORY.index] = 0.9
    after = masked_bce_loss(probs_output(np.full(15, 0.5), perturbed), s, a)
    assert base == after  # exact equality


def test_lambda_weights_scale_terms():
    g = build_ground_truth_dag({M: 0.5, P: 0.3, B: 0.2})
    s, a = labels_for(g)
    out = probs_output(np.full(15, 0.3), np.full((15, 15), 0.3))
    node_only = masked_bce_loss(out, s, a, LossConfig(lambda_node=1.0, lambda_edge=0.0))
    edge_only = masked_bce_loss(out, s, a, LossConfig(lambda_node=0.0, lambda_edge=1.0))
    both = masked_bce_loss(out, s, a, LossConfig(lambda_node=2.0, lambda_edge=3.0))
    assert both == pytest.approx(2 * node_only + 3 * edge_only, rel=1e-12)


def test_label_validation():
    out = probs_output(np.full(15, 0.5), np.full((15, 15), 0.5))
    with pytest.raises(ValueError):
        masked_bce_loss(out, np.full(15, 0.5), np.zeros((15, 15)))  # non-binary
    with pytest.raises(ValueError):
        masked_bce_loss(out, np.zeros(14), np.zeros((15, 15)))  # wrong shape
    bad_diag = np.zeros((15, 15))
    bad_diag[3, 3] = 1.0
    with pytest.raises(ValueError):
        masked_bce_loss(out, np.zeros(15), bad_diag)


def test_gradients_zero_at_masked_edge_logits():
    dims = RouterDims(d_s=8, d_q=8, h=8, L=2)
    params = init_params(dims, seed=2)
    h_q = np.random.default_rng(2).standard_normal(8)
    s = np.zeros(15)
    s[M.index] = 1.0
    s[P.index] = 1.0
    a = np.zeros((15, 15))
    a[P.index, M.index] = 1.0
    _, _, d_edge = logit_gradients(ForwardTape(params, h_q), s, a)
    mask = edge_mask(s)[PAIR_SRC, PAIR_DST]
    grads = d_edge[PAIR_SRC, PAIR_DST]
    assert np.array_equal(grads[~mask], np.zeros((~mask).sum()))
    assert np.any(grads[mask] != 0.0)


def test_saturated_logits_have_zero_gradient():
    # Logits far past the PROB_EPS clamp: the clamped loss is flat there, and
    # the sigmoid must neither overflow nor produce NaN on the way.
    params = init_params(RouterDims(d_s=2, d_q=2, h=2, L=1), seed=5)
    params.tensors["node_head.b2"][:] = 800.0
    params.tensors["edge_head.b2"][:] = -800.0
    s = np.zeros(15)
    s[M.index] = 1.0
    a = np.zeros((15, 15))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value, d_node, d_edge = logit_gradients(ForwardTape(params, np.ones(2)), s, a)
    assert np.isfinite(value)
    assert not d_node.any() and not d_edge.any()


def test_masked_label_flip_leaves_gradients_bitwise_identical():
    # Flipping the label of a masked pair must change nothing: the label
    # only ever enters the loss multiplied by the zero mask.
    dims = RouterDims(d_s=8, d_q=8, h=8, L=2)
    params = init_params(dims, seed=3)
    h_q = np.random.default_rng(3).standard_normal(8)
    s = np.zeros(15)
    s[M.index] = 1.0
    a = np.zeros((15, 15))
    v1, g1 = loss_and_gradients(params, h_q, s, a)
    flipped = a.copy()
    flipped[P.index, B.index] = 1.0  # both endpoints inactive -> masked
    v2, g2 = loss_and_gradients(params, h_q, s, flipped)
    assert v1 == v2
    for name in g1:
        assert np.array_equal(g1[name], g2[name]), name


@pytest.mark.parametrize("activation, layers", [("relu", 1), ("linear", 3)])
def test_small_gradcheck(activation, layers):
    dims = RouterDims(d_s=4, d_q=4, h=4, L=layers, activation=activation)
    params = init_params(dims, seed=4)
    rng = np.random.default_rng(4)
    h_q = rng.standard_normal(4)
    g = build_ground_truth_dag({M: 0.6, P: 0.4})
    s, a = labels_for(g)
    _, grads = loss_and_gradients(params, h_q, s, a)
    step = 1e-5
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        idxs = rng.choice(flat.size, size=min(5, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = loss_and_gradients(params, h_q, s, a, LossConfig())
            flat[i] = orig - step
            lo, _ = loss_and_gradients(params, h_q, s, a, LossConfig())
            flat[i] = orig
            numeric = (hi - lo) / (2 * step)
            analytic = grads[name].ravel()[i]
            # Floor the denominator at 1e-4: below that, float64 cancellation
            # in (hi - lo) dominates and the ratio measures noise, not error.
            denom = max(abs(numeric), abs(analytic), 1e-4)
            worst = max(worst, abs(numeric - analytic) / denom)
    assert worst <= 1e-4, worst
