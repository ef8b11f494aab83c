"""The training step against the formulas it replaced, bit for bit.

The loss clamps with `np.maximum`/`np.minimum` and sums with
`np.add.reduce`, reads its probabilities off the `ForwardTape`, and
`backward` writes each question block from the nonzero entries of `h_q`. The
references below are the earlier formulas, copied: `np.clip` and `.sum()` on
the probabilities of the tape's logits, and dense `np.multiply.outer`
products. The node term's weight, once `LossConfig.lambda_node`, stays the
`1.0 *` that every caller used, so dropping the multiply is checked too.
The loss takes one log per element (`log(p)` where y = 1, else
`log(1 - p)`), checked against the two-log reference; targets prepared for
many samples at once are checked against the label-taking call. Every value
and gradient must keep its bytes, signed zeros and NaNs included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Probs
from sdag.errors import NonFiniteLoss
from sdag.router.loss import (
    PROB_EPS,
    LossConfig,
    edge_mask,
    logit_gradients,
    loss_and_gradients,
    masked_bce_loss,
    targets,
)
from sdag.router.model import (
    PAIR_DST,
    PAIR_SRC,
    ForwardTape,
    RouterDims,
    _activation_grad,
    _question_block_grad,
    _sigmoid,
    backward,
    init_params,
)
from sdag.subjects import NUM_SUBJECTS

TINY = 5e-324  # the least subnormal
SUBNORMAL = 2.0e-310


# -- references: the formulas before direct ufunc calls and sparse question rows


def reference_masked_bce(output, node_labels, edge_labels, config):
    mask = edge_mask(node_labels)
    node_p = np.clip(np.asarray(output.node_probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    pair_p = np.clip(np.asarray(output.edge_probs, dtype=np.float64)[PAIR_SRC, PAIR_DST],
                     PROB_EPS, 1.0 - PROB_EPS)
    pair_y = edge_labels[PAIR_SRC, PAIR_DST]
    pair_mask = mask[PAIR_SRC, PAIR_DST]
    node_sum = (node_labels * np.log(node_p) + (1.0 - node_labels) * np.log(1.0 - node_p)).sum()
    edge_sum = ((pair_y * np.log(pair_p) + (1.0 - pair_y) * np.log(1.0 - pair_p)) * pair_mask).sum()
    loss = 1.0 * (-1.0 * node_sum) + config.lambda_edge * (-1.0 * edge_sum)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")
    return float(loss)


def reference_residual(probs, labels):
    return (probs - labels) * ((probs > PROB_EPS) & (probs < 1.0 - PROB_EPS))


def reference_logit_gradients(tape, node_labels, edge_labels, config):
    # The probabilities of the full router output: self-edges scored 0.
    edge_logits = tape.edge_logits.copy()
    np.fill_diagonal(edge_logits, 0.0)
    edge_probs = _sigmoid(edge_logits)
    np.fill_diagonal(edge_probs, 0.0)
    output = Probs(_sigmoid(tape.node_logits), edge_probs)
    mask = edge_mask(node_labels)
    value = reference_masked_bce(output, node_labels, edge_labels, config)
    d_node = 1.0 * reference_residual(output.node_probs, node_labels)
    d_edge = config.lambda_edge * mask * reference_residual(output.edge_probs, edge_labels)
    return value, d_node, d_edge


def reference_backward(tape, d_node_logits, d_edge_logits):
    t, dims = tape.params.tensors, tape.params.dims
    h, d_s = dims.h, dims.d_s
    x = tape.x_final
    g = {name: np.empty_like(arr) for name, arr in t.items()}

    d_hidden = np.multiply.outer(d_node_logits, t["node_head.w2"][:, 0])
    d_hidden *= tape.node_hidden > 0.0
    np.matmul(tape.node_hidden.T, d_node_logits, out=g["node_head.w2"][:, 0])
    g["node_head.b2"][0] = d_node_logits.sum()
    np.matmul(x.T, d_hidden, out=g["node_head.w1"])
    np.sum(d_hidden, axis=0, out=g["node_head.b1"])
    dx = d_hidden @ t["node_head.w1"].T

    d_pre = np.multiply(d_edge_logits[:, :, None], t["edge_head.w2"][:, 0])
    d_pre *= tape.edge_hidden > 0.0
    d_src, d_dst = d_pre.sum(axis=1), d_pre.sum(axis=0)
    d_question = np.sum(d_src, axis=0, out=g["edge_head.b1"])
    w1, g_w1 = t["edge_head.w1"], g["edge_head.w1"]
    np.matmul(tape.edge_hidden.reshape(-1, h).T, d_edge_logits.reshape(-1),
              out=g["edge_head.w2"][:, 0])
    g["edge_head.b2"][0] = d_edge_logits.sum()
    np.matmul(x.T, d_src, out=g_w1[:h])
    np.matmul(x.T, d_dst, out=g_w1[h : 2 * h])
    np.multiply.outer(tape.h_q, d_question, out=g_w1[2 * h :])
    dx += d_src @ w1[:h].T + d_dst @ w1[h : 2 * h].T

    for layer in reversed(range(dims.L)):
        d_pre = _activation_grad(dims, dx, tape.xs[layer + 1])
        np.matmul(tape.xs[layer].T, d_pre, out=g[f"mp{layer}.w_self"])
        np.matmul(tape.means[layer].T, d_pre, out=g[f"mp{layer}.w_msg"])
        np.sum(d_pre, axis=0, out=g[f"mp{layer}.b"])
        d_mean = d_pre @ t[f"mp{layer}.w_msg"].T
        dx = d_pre @ t[f"mp{layer}.w_self"].T + (d_mean.sum(axis=0) - d_mean) / (NUM_SUBJECTS - 1)

    d_pre = _activation_grad(dims, dx, tape.x0)
    d_bias = np.sum(d_pre, axis=0, out=g["init.b"])
    w, g_w = t["init.w"], g["init.w"]
    np.matmul(d_pre, w[:d_s].T, out=g["subject_embeddings"])
    np.matmul(t["subject_embeddings"].T, d_pre, out=g_w[:d_s])
    np.multiply.outer(tape.h_q, d_bias, out=g_w[d_s:])
    return g


# -- backward ------------------------------------------------------------------

ORDINARY = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
# An embedding entry: mostly +0.0, as a question hits few buckets, else a
# special value; no NaN (see the backward test's docstring).
EMBEDDING_ENTRY = st.one_of(
    st.just(0.0), st.just(0.0), st.just(0.0),
    st.sampled_from([-0.0, np.inf, -np.inf, TINY, -TINY, SUBNORMAL, -SUBNORMAL]), ORDINARY)
GRADIENT_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]), ORDINARY, ORDINARY, ORDINARY)


@settings(max_examples=60, deadline=None)
@given(h_q=st.lists(EMBEDDING_ENTRY, min_size=6, max_size=6),
       d=st.lists(st.one_of(GRADIENT_ENTRY, st.just(np.nan)), min_size=1, max_size=5))
def test_question_block_grad_is_the_dense_outer_product(h_q, d):
    h_q, d = np.array(h_q), np.array(d)
    out = np.full((len(h_q), len(d)), 7.0)
    with np.errstate(all="ignore"):
        _question_block_grad(h_q, d, out)
        expected = np.multiply.outer(h_q, d)
    assert out.tobytes() == expected.tobytes()


def test_question_block_grad_keeps_the_sign_of_zero_rows():
    h_q = np.array([0.0, -0.0, 2.0, 0.0])
    d = np.array([-1.0, 1.0, -0.0, np.inf])
    out = np.empty((4, 4))
    with np.errstate(invalid="ignore"):
        _question_block_grad(h_q, d, out)
    assert np.signbit(out[0, :3]).tolist() == [True, False, True]
    assert np.signbit(out[1, :3]).tolist() == [False, True, False]
    assert np.isnan(out[[0, 1, 3], 3]).all() and out[2, 3] == np.inf


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    layers=st.sampled_from([1, 2]),
    activation=st.sampled_from(["relu", "linear"]),
    h_q=st.lists(EMBEDDING_ENTRY, min_size=6, max_size=6),
    d_node=st.lists(GRADIENT_ENTRY, min_size=NUM_SUBJECTS, max_size=NUM_SUBJECTS),
    d_edge=st.lists(GRADIENT_ENTRY, min_size=NUM_SUBJECTS**2, max_size=NUM_SUBJECTS**2),
)
def test_backward_into_out_matches_the_dense_formula(seed, layers, activation, h_q, d_node,
                                                     d_edge):
    """Every gradient has the bytes of the dense formula, signed zeros and NaNs
    included, for embeddings holding +-0, +-inf, subnormals and ordinary values
    and logit gradients holding signed zeros and infinities.

    Excluded: an entry of `h_q` that is NaN while the block's output gradient
    is NaN too. Both formulas then multiply two NaNs, and which payload the
    product carries is left open by IEEE 754 and may differ between the dense
    loop and the sparse rows. `train()` never gets there, since a non-finite
    loss raises before `backward` runs.
    """
    dims = RouterDims(d_s=3, d_q=6, h=4, L=layers, activation=activation)
    params = init_params(dims, seed=seed)
    tape = ForwardTape(params, np.random.default_rng(seed).standard_normal(dims.d_q))
    tape.h_q = np.array(h_q)  # read only by the question blocks
    d_node = np.array(d_node)
    d_edge = np.array(d_edge).reshape(NUM_SUBJECTS, NUM_SUBJECTS)
    np.fill_diagonal(d_edge, 0.0)

    out = {name: np.full(arr.shape, 7.0) for name, arr in params.tensors.items()}
    with np.errstate(all="ignore"):  # infinities meet zeros on purpose
        expected = reference_backward(tape, d_node, d_edge)
        grads = backward(tape, d_node, d_edge, out=out)
    assert list(grads) == list(params.tensors)
    for name, grad in grads.items():
        assert grad is out[name]
        assert grad.tobytes() == expected[name].tobytes(), name


# -- loss ----------------------------------------------------------------------


def _ulp_neighbours(p):
    return [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]


# Each clamp bound, and one ulp on either side of it.
CLAMP_EDGES = _ulp_neighbours(PROB_EPS) + _ulp_neighbours(1.0 - PROB_EPS)
PROBABILITY = st.one_of(st.sampled_from(CLAMP_EDGES + [0.0, 1.0]),
                        st.floats(0.0, 1.0, allow_nan=False))
LABELS = dict(
    nodes=st.lists(st.booleans(), min_size=NUM_SUBJECTS, max_size=NUM_SUBJECTS),
    edges=st.lists(st.booleans(), min_size=NUM_SUBJECTS**2, max_size=NUM_SUBJECTS**2),
    lambda_edge=st.sampled_from([0.0, 1.0, 2.0]),
)


def _labels(nodes, edges):
    node_labels = np.array(nodes, dtype=np.float64)
    edge_labels = np.array(edges, dtype=np.float64).reshape(NUM_SUBJECTS, NUM_SUBJECTS)
    np.fill_diagonal(edge_labels, 0.0)
    return node_labels, edge_labels


def test_clamp_edges_are_distinct_floats():
    assert len(set(CLAMP_EDGES)) == 6
    assert CLAMP_EDGES[0] < PROB_EPS < CLAMP_EDGES[2]
    assert CLAMP_EDGES[3] < 1.0 - PROB_EPS < CLAMP_EDGES[5]


@settings(max_examples=80, deadline=None)
@given(node_probs=st.lists(PROBABILITY, min_size=NUM_SUBJECTS, max_size=NUM_SUBJECTS),
       edge_probs=st.lists(PROBABILITY, min_size=NUM_SUBJECTS**2, max_size=NUM_SUBJECTS**2),
       **LABELS)
def test_masked_bce_loss_matches_clip_and_sum(node_probs, edge_probs, nodes, edges, lambda_edge):
    node_labels, edge_labels = _labels(nodes, edges)
    output = Probs(np.array(node_probs), np.array(edge_probs).reshape(NUM_SUBJECTS, NUM_SUBJECTS))
    config = LossConfig(lambda_edge=lambda_edge)
    value = masked_bce_loss(output, node_labels, edge_labels, config)
    expected = reference_masked_bce(output, node_labels, edge_labels, config)
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()


def _logit_at(p):
    """A logit whose probability under the tape's sigmoid is at most `p` while
    that of the next float up is above it, searched one ulp at a time."""
    x = np.log(p) - np.log1p(-p)
    while _sigmoid(np.array([x]))[0] > p:
        x = np.nextafter(x, -np.inf)
    while _sigmoid(np.array([np.nextafter(x, np.inf)]))[0] <= p:
        x = np.nextafter(x, np.inf)
    return x


# Logits whose probabilities sit just below and above each clamp bound, as
# near as the sigmoid reaches (near PROB_EPS one ulp of the logit moves its
# probability by about 26 ulps), plus saturating and ordinary ones.
EDGE_LOGITS = sorted({float(f(_logit_at(p))) for p in CLAMP_EDGES
                      for f in (lambda x: x, lambda x: np.nextafter(x, np.inf))})
LOGIT = st.one_of(st.sampled_from(EDGE_LOGITS + [-np.inf, np.inf, -800.0, 800.0]),
                  st.floats(-40.0, 40.0, allow_nan=False))


def test_edge_logits_straddle_each_clamp_bound():
    probs = _sigmoid(np.array(EDGE_LOGITS))
    for bound in (PROB_EPS, 1.0 - PROB_EPS):
        assert (probs < bound).any() and (probs > bound).any()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16),
       node_logits=st.lists(LOGIT, min_size=NUM_SUBJECTS, max_size=NUM_SUBJECTS),
       edge_logits=st.lists(LOGIT, min_size=NUM_SUBJECTS**2, max_size=NUM_SUBJECTS**2),
       self_edge=st.sampled_from([0.0, 3.0, np.inf, np.nan]),
       **LABELS)
def test_logit_gradients_match_the_output_formula(seed, node_logits, edge_logits, self_edge,
                                                  nodes, edges, lambda_edge):
    dims = RouterDims(d_s=3, d_q=6, h=4, L=1)
    tape = ForwardTape(init_params(dims, seed=seed), np.ones(dims.d_q))
    tape.node_logits = np.array(node_logits)
    tape.edge_logits = np.array(edge_logits).reshape(NUM_SUBJECTS, NUM_SUBJECTS)
    # The tape's self-edge logits are computed but never read: any value will do.
    np.fill_diagonal(tape.edge_logits, self_edge)
    before = tape.edge_logits.copy()
    node_labels, edge_labels = _labels(nodes, edges)
    config = LossConfig(lambda_edge=lambda_edge)

    value, d_node, d_edge = logit_gradients(tape, node_labels, edge_labels, config)
    expected = reference_logit_gradients(tape, node_labels, edge_labels, config)
    assert np.float64(value).tobytes() == np.float64(expected[0]).tobytes()
    assert d_node.tobytes() == expected[1].tobytes()
    assert d_edge.tobytes() == expected[2].tobytes()
    assert tape.edge_logits.tobytes() == before.tobytes()  # the tape keeps its own logits


# A label vector or grid all 0, all 1, or mixed.
NODE_ROW = st.one_of(st.just([False] * NUM_SUBJECTS), st.just([True] * NUM_SUBJECTS),
                     st.lists(st.booleans(), min_size=NUM_SUBJECTS, max_size=NUM_SUBJECTS))
EDGE_ROWS = st.one_of(st.just([False] * NUM_SUBJECTS**2), st.just([True] * NUM_SUBJECTS**2),
                      st.lists(st.booleans(), min_size=NUM_SUBJECTS**2, max_size=NUM_SUBJECTS**2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       samples=st.lists(st.tuples(
           st.lists(LOGIT, min_size=NUM_SUBJECTS, max_size=NUM_SUBJECTS),
           st.lists(LOGIT, min_size=NUM_SUBJECTS**2, max_size=NUM_SUBJECTS**2),
           NODE_ROW, EDGE_ROWS), min_size=1, max_size=4),
       lambda_edge=LABELS["lambda_edge"])
def test_prepared_targets_give_the_bits_of_the_per_call_path(seed, samples, lambda_edge):
    """Targets prepared for several samples at once, as `train()` makes them,
    give each sample's loss and gradients the bits of the label-taking call:
    logits whose probabilities sit at and past both clamp bounds, label rows
    all 0, all 1 or mixed, and the signed zeros of masked pairs included."""
    dims = RouterDims(d_s=3, d_q=6, h=4, L=1)
    params = init_params(dims, seed=seed)
    h_q = np.random.default_rng(seed).standard_normal(dims.d_q)
    labels = [_labels(nodes, edges) for _, _, nodes, edges in samples]
    prepared = targets([node for node, _ in labels], [edge for _, edge in labels])
    config = LossConfig(lambda_edge=lambda_edge)
    for (node_logits, edge_logits, _, _), (node_labels, edge_labels), target in zip(
            samples, labels, prepared):
        assert target.node_labels is node_labels and target.edge_labels is edge_labels
        tape = ForwardTape(params, h_q)
        tape.node_logits = np.array(node_logits)
        tape.edge_logits = np.array(edge_logits).reshape(NUM_SUBJECTS, NUM_SUBJECTS)
        got = logit_gradients(tape, None, None, config, target)
        want = logit_gradients(tape, node_labels, edge_labels, config)
        for g, w in zip(got, want):
            assert np.float64(g).tobytes() == np.float64(w).tobytes()

        value, grads = loss_and_gradients(params, h_q, None, None, config, target=target)
        want_value, want_grads = loss_and_gradients(params, h_q, node_labels, edge_labels, config)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert all(grads[name].tobytes() == want_grads[name].tobytes() for name in want_grads)


def test_masked_pairs_labelled_1_get_negative_zero_gradients():
    # With no subject active every pair is masked, so a pair labelled 1 gets
    # lambda_edge * 0 * (p - 1): -0.0, which the prepared target keeps too.
    node_labels, edge_labels = _labels([False] * NUM_SUBJECTS, [True] * NUM_SUBJECTS**2)
    tape = ForwardTape(init_params(RouterDims(d_s=3, d_q=6, h=4, L=1)), np.ones(6))
    config = LossConfig(lambda_edge=2.0)
    target = targets([node_labels], [edge_labels])[0]
    d_edge = logit_gradients(tape, None, None, config, target)[2]
    off_diagonal = ~np.eye(NUM_SUBJECTS, dtype=bool)
    assert not d_edge.any()
    assert np.signbit(d_edge[off_diagonal]).all() and not np.signbit(d_edge.diagonal()).any()
    assert d_edge.tobytes() == logit_gradients(tape, node_labels, edge_labels, config)[2].tobytes()


def test_a_target_is_not_taken_with_labels():
    node_labels, edge_labels = _labels([True] + [False] * 14, [False] * NUM_SUBJECTS**2)
    target = targets([node_labels], [edge_labels])[0]
    params = init_params(RouterDims(d_s=3, d_q=6, h=4, L=1))
    for labels in ((node_labels, edge_labels), (node_labels, None), (None, edge_labels)):
        with pytest.raises(TypeError, match="^give the labels or a target, not both$"):
            loss_and_gradients(params, np.ones(6), *labels, target=target)


def test_nan_probability_raises_the_same_nonfinite_loss():
    node_labels, edge_labels = _labels([True] + [False] * 14, [False] * NUM_SUBJECTS**2)
    node_probs = np.full(NUM_SUBJECTS, 0.5)
    node_probs[3] = np.nan
    output = Probs(node_probs, np.full((15, 15), 0.5))
    with pytest.raises(NonFiniteLoss) as expected:
        reference_masked_bce(output, node_labels, edge_labels, LossConfig())
    with pytest.raises(NonFiniteLoss) as raised:
        masked_bce_loss(output, node_labels, edge_labels)
    assert str(raised.value) == str(expected.value) == "loss is nan"

    tape = ForwardTape(init_params(RouterDims(d_s=3, d_q=6, h=4, L=1)), np.ones(6))
    tape.edge_logits = np.full((NUM_SUBJECTS, NUM_SUBJECTS), np.nan)
    with pytest.raises(NonFiniteLoss, match="^loss is nan$"):
        logit_gradients(tape, node_labels, edge_labels)
