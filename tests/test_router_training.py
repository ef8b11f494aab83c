"""Training loop: determinism, loss descent, and config guards."""

import contextlib
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdag.embedding import HashedEmbedder
from sdag.errors import DimensionMismatch, EmptySplit
from sdag.router.checkpoint import save_checkpoint
from sdag.router.loss import LossConfig, logit_gradients, loss_and_gradients
from sdag.router import training
from sdag.router.model import (
    ForwardTape, RouterDims, backward, init_params, question_blocks, tensor_shapes,
)
from sdag.router.training import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainConfig, TrainSample, train, train_router,
)
from sdag.subjects import NUM_SUBJECTS, SDag, Subject, build_ground_truth_dag

M, P, B, C = Subject.MATH, Subject.PHYSICS, Subject.BIOLOGY, Subject.CHEMISTRY

DIMS = RouterDims(d_s=8, d_q=16, h=8, L=2)
BENCH_DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)


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
        TrainConfig(loss=LossConfig(lambda_edge=-1.0))


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


def reference_labels(dag: SDag) -> tuple[list[int], list[list[int]]]:
    """The labels as `SDag.to_labels` built them: a binary node vector and
    adjacency matrix over the full taxonomy, as lists."""
    s_vec = [0] * NUM_SUBJECTS
    a_mat = [[0] * NUM_SUBJECTS for _ in range(NUM_SUBJECTS)]
    for n in dag.nodes:
        s_vec[n.subject.index] = 1
    for e in dag.edges:
        a_mat[e.src.index][e.dst.index] = 1
    return s_vec, a_mat


def test_train_sample_labels_equal_to_labels_arrays():
    emb = HashedEmbedder(d=16)
    dags = [build_ground_truth_dag({M: 0.4, P: 0.3, C: 0.2, B: 0.1}),
            build_ground_truth_dag({Subject.LAW: 1.0}), SDag()]
    for dag in dags:
        sample = TrainSample.from_dag(emb.embed("math"), dag)
        node_labels, edge_labels = reference_labels(dag)
        for got, want in ((sample.node_labels, node_labels), (sample.edge_labels, edge_labels)):
            want = np.asarray(want, dtype=np.float64)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


# -- the optimizer against the dense Adam that updates every parameter --------


class _DenseAdam:
    """The optimizer as it was before frozen question rows were skipped: Adam
    over one flat buffer that holds every parameter, updated at every step."""

    def __init__(self, flat, tensors, lr):
        self.flat, self.lr, self.t = flat, lr, 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.g = np.empty_like(flat)
        self.grads = _dense_views(self.g, tensors)
        self.scratch = np.empty_like(flat)

    def step(self):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, g, s = self.m, self.v, self.g, self.scratch
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
        np.square(g, out=s)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, s, out=s)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        np.divide(m, bc1, out=s)
        np.multiply(self.lr, s, out=s)
        s /= g
        self.flat -= s


def _dense_views(flat, tensors):
    views, start = {}, 0
    for name, arr in tensors.items():
        views[name] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def dense_train(params, samples, config):
    flat = np.concatenate(list(params.tensors.values()), axis=None, dtype=np.float64)
    params = replace(params, tensors=_dense_views(flat, params.tensors))
    optimizer = _DenseAdam(flat, params.tensors, config.lr)
    rng = np.random.default_rng(config.seed)
    loss_curve = []
    for _ in range(config.epochs):
        losses = []
        for idx in rng.permutation(len(samples)):
            s = samples[idx]
            value, _ = loss_and_gradients(params, s.h_q, s.node_labels, s.edge_labels,
                                          config.loss, out=optimizer.grads)
            optimizer.step()
            losses.append(value)
        loss_curve.append(float(np.mean(losses)))
    return params, loss_curve, optimizer.t


def _random_sample(rng, d_q, buckets):
    """A unit question embedding over `buckets` (none: all zero), as the hashed
    embedder makes them, and random labels."""
    h_q = np.zeros(d_q)
    h_q[buckets] = rng.integers(1, 4, len(buckets)) * rng.choice([-1.0, 1.0], len(buckets))
    if len(buckets):
        h_q /= np.linalg.norm(h_q)
    node_labels = (rng.random(15) < 0.3).astype(np.float64)
    edge_labels = (rng.random((15, 15)) < 0.2).astype(np.float64)
    np.fill_diagonal(edge_labels, 0.0)
    return TrainSample(h_q, node_labels, edge_labels)


def random_corpus(rng, d_q, kind, n):
    """`few`: every question hits one to three of a handful of buckets;
    `every`: the questions between them hit every bucket; `empty`: as `few`,
    plus a question with no tokens, whose embedding is all zero."""
    if kind == "every":
        hits = [rng.choice(d_q, rng.integers(1, d_q + 1), replace=False) for _ in range(n - 1)]
        hits.append(np.arange(d_q))
    else:
        pool = rng.choice(d_q, min(d_q, 3), replace=False)
        hits = [rng.choice(pool, rng.integers(1, len(pool) + 1), replace=False) for _ in range(n)]
        if kind == "empty":
            hits[rng.integers(n)] = np.array([], dtype=np.intp)
    return [_random_sample(rng, d_q, np.sort(b)) for b in hits]


@st.composite
def training_runs(draw):
    dims = RouterDims(d_s=draw(st.integers(1, 5)), d_q=draw(st.integers(2, 12)),
                      h=draw(st.integers(1, 6)), L=draw(st.sampled_from([1, 2])),
                      activation=draw(st.sampled_from(["relu", "linear"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    samples = random_corpus(rng, dims.d_q, draw(st.sampled_from(["few", "every", "empty"])),
                            draw(st.integers(1, 4)))
    config = TrainConfig(epochs=draw(st.integers(1, 3)), lr=draw(st.sampled_from([1e-3, 5e-2])),
                         seed=draw(st.integers(0, 3)))
    return init_params(dims, seed=draw(st.integers(0, 3))), samples, config, draw(st.booleans())


def skip_costs(free):
    """Unpatched, Adam skips the frozen rows when they outweigh their gather;
    with a free gather it skips them whenever there are any."""
    if not free:
        return contextlib.nullcontext()
    return mock.patch.object(training, "GATHER_COST", 0.0)


@settings(max_examples=60, deadline=None)
@given(training_runs())
def test_train_matches_dense_adam_bit_for_bit(run):
    params, samples, config, free = run
    with skip_costs(free):
        result = train(params, samples, config)
    ref_params, ref_curve, ref_steps = dense_train(params, samples, config)
    assert result.loss_curve == ref_curve and result.steps == ref_steps
    assert list(result.params.tensors) == list(ref_params.tensors)
    for name, ref in ref_params.tensors.items():
        assert result.params.tensors[name].tobytes() == ref.tobytes(), name


@settings(max_examples=30, deadline=None)
@given(training_runs())
def test_frozen_question_rows_come_back_untouched(run):
    params, samples, config, free = run
    before = {name: arr.tobytes() for name, arr in params.tensors.items()}
    with skip_costs(free):
        result = train(params, samples, config)
    assert {name: arr.tobytes() for name, arr in params.tensors.items()} == before
    hit = np.any([s.h_q != 0.0 for s in samples], axis=0)
    for name, first in question_blocks(params.dims).items():
        got, given_rows = result.params.tensors[name][first:], params.tensors[name][first:]
        assert got[~hit].tobytes() == given_rows[~hit].tobytes(), name
    for name, arr in result.params.tensors.items():
        assert arr.dtype == np.float64 and arr.flags.c_contiguous, name


def test_checkpoint_bytes_equal_the_dense_optimizers(tmp_path):
    rng = np.random.default_rng(5)
    params = init_params(DIMS, seed=5)
    samples = random_corpus(rng, DIMS.d_q, "empty", 6)
    config = TrainConfig(epochs=4, lr=2e-2, seed=5)
    save_checkpoint(train(params, samples, config).params, tmp_path / "sparse.json")
    save_checkpoint(dense_train(params, samples, config)[0], tmp_path / "dense.json")
    assert (tmp_path / "sparse.json").read_bytes() == (tmp_path / "dense.json").read_bytes()


def test_skipping_every_other_bucket_at_the_benchmark_dims_matches_dense_adam(tmp_path):
    params = init_params(BENCH_DIMS, seed=2)
    hit = np.arange(0, 256, 2)
    rng = np.random.default_rng(2)
    samples = [_random_sample(rng, 256, hit[i::4]) for i in range(4)]
    config = TrainConfig(epochs=2, lr=2e-2, seed=2)
    # Unpatched, Adam skips the 128 frozen rows of each block.
    optimizer = training._Adam(params, training._live_buckets(256, samples), config.lr)
    assert optimizer.rows.tolist() == hit.tolist()
    result = train(params, samples, config)
    reference = dense_train(params, samples, config)[0]
    for name, ref in reference.tensors.items():
        assert result.params.tensors[name].tobytes() == ref.tobytes(), name
    save_checkpoint(result.params, tmp_path / "sparse.json")
    save_checkpoint(reference, tmp_path / "dense.json")
    assert (tmp_path / "sparse.json").read_bytes() == (tmp_path / "dense.json").read_bytes()


@settings(max_examples=30, deadline=None)
@given(training_runs())
def test_backward_writes_every_question_row_adam_reads(run):
    """Into an `out` of NaNs, `backward(rows=_Adam.rows)` writes every tensor
    but the question rows that Adam skips, with the bits of the dense gradient."""
    params, samples, config, _ = run
    with skip_costs(True):
        optimizer = training._Adam(params, training._live_buckets(params.dims.d_q, samples),
                                   config.lr)
    blocks = question_blocks(params.dims)
    rows = np.arange(params.dims.d_q) if optimizer.rows is None else optimizer.rows
    for sample in samples:
        tape = ForwardTape(params, sample.h_q)
        _, d_node, d_edge = logit_gradients(tape, sample.node_labels, sample.edge_labels)
        dense = backward(tape, d_node, d_edge)
        for grad in optimizer.grads.values():
            grad[...] = np.nan
        backward(tape, d_node, d_edge, out=optimizer.grads, rows=optimizer.rows)
        for name, grad in optimizer.grads.items():
            if name not in blocks:
                assert grad.tobytes() == dense[name].tobytes(), name
                continue
            first = blocks[name]
            assert grad[:first].tobytes() == dense[name][:first].tobytes(), name
            assert grad[first:][rows].tobytes() == dense[name][first:][rows].tobytes(), name
            assert not np.isnan(grad[first:][rows]).any(), name


def _label_cases():
    node, edge = tiny_samples()[0].node_labels, tiny_samples()[0].edge_labels
    diagonal = edge.copy()
    diagonal[2, 2] = 1.0
    return [
        ("node_labels", np.where(node == 1.0, 0.5, 0.0), "labels must be 0 or 1"),
        ("edge_labels", edge * 2.0, "labels must be 0 or 1"),
        ("edge_labels", diagonal, "edge labels must have a zero diagonal"),
        ("node_labels", np.zeros(NUM_SUBJECTS - 1), "node labels have shape (14,)"),
        ("edge_labels", np.zeros((NUM_SUBJECTS, NUM_SUBJECTS - 1)),
         "edge labels have shape (15, 14)"),
    ]


@pytest.mark.parametrize("field, labels, message", _label_cases())
def test_train_checks_every_label_before_its_first_step(field, labels, message):
    samples = tiny_samples()
    samples[-1] = replace(samples[-1], **{field: labels})
    with mock.patch.object(training, "loss_and_gradients",
                           side_effect=AssertionError("a step ran")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(init_params(DIMS), samples, TrainConfig(epochs=1))


def test_train_rejects_a_question_embedding_of_the_wrong_shape():
    samples = tiny_samples()
    samples.append(TrainSample(np.ones(DIMS.d_q + 1), samples[0].node_labels,
                               samples[0].edge_labels))
    with pytest.raises(DimensionMismatch, match="question embedding"):
        train(init_params(DIMS), samples, TrainConfig(epochs=1))


def test_adam_skips_once_the_frozen_rows_outweigh_their_gather():
    # Skipping f frozen rows saves 2f rows' updates and gathers the 2(256 - f)
    # live question rows and the 32 rows of init.w ahead of its question block.
    params = init_params(BENCH_DIMS, seed=0)
    size = sum(arr.size for arr in params.tensors.values())
    boundary = next(f for f in range(257) if 2 * f > training.GATHER_COST * (2 * (256 - f) + 32))
    assert 1 < boundary < 256
    for frozen, skips in [(boundary - 1, False), (boundary, True)]:
        optimizer = training._Adam(params, np.arange(256) >= frozen, 1e-3)
        assert (optimizer.rows is not None) == skips, frozen
        # Skipping, Adam updates every element but the frozen rows', once.
        assert optimizer.p.size == size - skips * 2 * frozen * BENCH_DIMS.h, frozen


def _reads(params, live, name, row) -> bool:
    """Whether a NaN gradient in question row `row` of block `name` reaches
    the parameters through one Adam step."""
    optimizer = training._Adam(params, live, 1e-3)
    for grad in optimizer.grads.values():
        grad[...] = 0.0
    optimizer.grads[name][question_blocks(params.dims)[name] + row] = np.nan
    optimizer.step()
    return any(np.isnan(arr).any() for arr in optimizer.tensors.values())


@pytest.mark.parametrize("hit, skips", [(np.arange(1, 256), False), (np.arange(14), True),
                                       (np.arange(0, 256, 2), True), (np.arange(256), False)])
def test_adam_skips_question_rows_only_where_they_pay(hit, skips):
    # At the benchmark dims: a few hit buckets, or every other one, leave
    # enough frozen rows to skip; one frozen row, or none, is updated in place.
    params = init_params(BENCH_DIMS, seed=0)
    live = np.zeros(256, dtype=bool)
    live[hit] = True
    optimizer = training._Adam(params, live, 1e-3)
    size = sum(arr.size for arr in params.tensors.values())
    assert (optimizer.p.size < size) == skips
    assert bool(optimizer._gathered) == skips
    # The rows it exposes are exactly the question rows it reads, in both blocks.
    assert (optimizer.rows is not None) == skips
    rows = list(range(256)) if optimizer.rows is None else optimizer.rows.tolist()
    assert set(hit.tolist()) <= set(rows)
    for name in question_blocks(params.dims):
        assert [row for row in range(256) if _reads(params, live, name, row)] == rows, name
