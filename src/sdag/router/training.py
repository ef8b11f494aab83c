"""Training loop for the routing network.

Plain stochastic training: one Adam update per sample, a seeded shuffle per
epoch. Runs are bit-reproducible for a fixed seed, sample list, and starting
parameters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptySplit
from ..subjects import SDag
from .loss import LossConfig, loss_and_gradients
from .model import RouterDims, RouterParams, init_params

Array = np.ndarray

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
        return cls(h_q=np.asarray(h_q, dtype=np.float64), node_labels=node_labels,
                   edge_labels=edge_labels)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")


@dataclass
class TrainResult:
    params: RouterParams
    loss_curve: list[float]
    steps: int


class _Adam:
    def __init__(self, tensors: dict[str, Array], config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in tensors.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in tensors.items()}

    def step(self, tensors: dict[str, Array], grads: dict[str, Array]) -> None:
        cfg = self.config
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            tensors[name] -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)


def train(
    params: RouterParams, samples: list[TrainSample], config: TrainConfig = TrainConfig()
) -> TrainResult:
    """Train a copy of `params` on `samples`; the input is left untouched."""
    if not samples:
        raise EmptySplit("no training samples")
    params = params.copy()
    optimizer = _Adam(params.tensors, config)
    rng = np.random.default_rng(config.seed)
    loss_curve: list[float] = []

    for epoch in range(config.epochs):
        order = rng.permutation(len(samples)) if config.shuffle else np.arange(len(samples))
        epoch_losses = []
        for idx in order:
            sample = samples[idx]
            value, grads = loss_and_gradients(
                params, sample.h_q, sample.node_labels, sample.edge_labels, config.loss
            )
            optimizer.step(params.tensors, grads)
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
    init_scale: float = 0.1,
) -> TrainResult:
    """End-to-end training from (question, target DAG) pairs.

    Initializes fresh parameters from the config seed, embeds every question
    once up front, and runs the per-sample loop.
    """
    if not dataset:
        raise EmptySplit("no training samples")
    if dims is None:
        dims = RouterDims(d_q=embedder.d)
    params = init_params(dims, seed=config.seed, scale=init_scale, embedder=embedder.describe())
    samples = [TrainSample.from_dag(embedder.embed(question), dag) for question, dag in dataset]
    return train(params, samples, config)
