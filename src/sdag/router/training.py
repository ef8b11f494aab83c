"""Training loop for the routing network.

Plain stochastic training: one Adam update per sample, a seeded shuffle per
epoch. Runs are bit-reproducible for a fixed seed, sample list, and starting
parameters.

`train()` lays out its working copy of the parameters in one flat float64
buffer, in tensor order, and each of the copy's tensors is a reshaped view
into it. Only that copy, which `train()` returns, views the buffer; the
caller's parameters are never touched. Adam's gradient buffer shares that
layout, and `backward` writes each step's gradients straight into views of it,
so no gradient is copied. Adam then updates the whole parameter buffer in
place with a fixed handful of element-wise ufuncs per step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import EmptySplit
from ..subjects import SDag
from .loss import LossConfig, loss_and_gradients
from .model import RouterDims, RouterParams, init_params

Array = np.ndarray

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainSample:
    """Question embedding paired with target node/edge labels."""

    h_q: Array
    node_labels: Array
    edge_labels: Array

    @classmethod
    def from_dag(cls, h_q: Array, dag: SDag) -> "TrainSample":
        node_labels, edge_labels = dag.to_labels()
        return cls(h_q=np.asarray(h_q, dtype=np.float64),
                   node_labels=np.asarray(node_labels, dtype=np.float64),
                   edge_labels=np.asarray(edge_labels, dtype=np.float64))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")


@dataclass
class TrainResult:
    params: RouterParams
    loss_curve: list[float]
    steps: int


class _Adam:
    """Adam (Kingma & Ba) over one flat float64 parameter buffer, in place.

    `flat` is the buffer behind `train()`'s working copy of the parameters,
    whose tensors are views into it in the order of `tensors`. The moments `m`
    and `v`, the gradient buffer `g` and one scratch buffer share its layout,
    so a step allocates nothing. `grads` holds views of `g` shaped like
    `tensors`; the caller writes a step's gradients into them before `step()`.
    Each operation is element-wise and keeps the operands and order of the
    per-tensor update `p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`, so results
    are bit for bit those of updating each tensor on its own.
    """

    def __init__(self, flat: Array, tensors: dict[str, Array], lr: float):
        self.flat = flat
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.g = np.empty_like(flat)
        self.grads = _views(self.g, tensors)
        self.scratch = np.empty_like(flat)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, g, s = self.m, self.v, self.g, self.scratch
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=s)
        np.square(g, out=s)  # exactly g * g, and faster than multiply(g, g)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, s, out=s)
        # g is spent; it holds the denominator from here on.
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        np.divide(m, bc1, out=s)
        np.multiply(self.lr, s, out=s)
        s /= g
        self.flat -= s


def _views(flat: Array, tensors: dict[str, Array]) -> dict[str, Array]:
    """Reshaped views of `flat`, one per tensor, laid out in `tensors` order."""
    views: dict[str, Array] = {}
    start = 0
    for name, arr in tensors.items():
        views[name] = flat[start : start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


def _flat_copy(params: RouterParams) -> tuple[RouterParams, Array]:
    """Copy `params` into one flat float64 buffer; the copy's tensors view it."""
    flat = np.concatenate(list(params.tensors.values()), axis=None, dtype=np.float64)
    return replace(params, tensors=_views(flat, params.tensors)), flat


def train(
    params: RouterParams, samples: list[TrainSample], config: TrainConfig = TrainConfig()
) -> TrainResult:
    """Train a copy of `params` on `samples`; the input is left untouched."""
    if not samples:
        raise EmptySplit("no training samples")
    params, flat = _flat_copy(params)
    optimizer = _Adam(flat, params.tensors, config.lr)
    rng = np.random.default_rng(config.seed)
    loss_curve: list[float] = []

    for epoch in range(config.epochs):
        epoch_losses = []
        for idx in rng.permutation(len(samples)):
            sample = samples[idx]
            value, _ = loss_and_gradients(
                params, sample.h_q, sample.node_labels, sample.edge_labels, config.loss,
                out=optimizer.grads,
            )
            optimizer.step()
            epoch_losses.append(value)
        mean_loss = float(np.mean(epoch_losses))
        loss_curve.append(mean_loss)
        logger.debug("epoch %d/%d mean loss %.6f", epoch + 1, config.epochs, mean_loss)

    return TrainResult(params=params, loss_curve=loss_curve, steps=optimizer.t)


def train_router(
    dataset: list[tuple[str, SDag]],
    embedder,
    config: TrainConfig = TrainConfig(),
    dims: RouterDims | None = None,
) -> TrainResult:
    """End-to-end training from (question, target DAG) pairs.

    Initializes fresh parameters from the config seed, embeds every question
    once up front, and runs the per-sample loop.
    """
    if not dataset:
        raise EmptySplit("no training samples")
    if dims is None:
        dims = RouterDims(d_q=embedder.d)
    params = init_params(dims, seed=config.seed, embedder=embedder.describe())
    samples = [TrainSample.from_dag(embedder.embed(question), dag) for question, dag in dataset]
    return train(params, samples, config)
