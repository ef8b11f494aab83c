"""Masked multi-task objective for the routing network.

Total loss is the node-relevance BCE over all 15 subjects plus `lambda_edge`
times the edge BCE over ordered subject pairs. A pair is excluded from the
edge term exactly when both endpoints are inactive in the ground truth, so
the network is never penalized for edges between subjects the question does
not involve.

A training step is mostly calls on arrays of 15 to 225 elements, where
NumPy's Python wrappers cost as much as the work. So the loss calls the
ufuncs that `np.clip` and `.sum()` dispatch to, `np.maximum`/`np.minimum`
and `np.add.reduce`, on the same operands in the same order, and
`logit_gradients` reads the probabilities off the `ForwardTape`. Values and
gradients keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss
from ..subjects import NUM_SUBJECTS
from .model import (
    ALL_ROWS,
    ForwardTape,
    RouterOutput,
    RouterParams,
    _edge_output,
    _sigmoid,
    backward,
    route,
)

Array = np.ndarray

# Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before the log.
PROB_EPS = 1e-7
# Picks a grid's ordered pairs row by row, the order of `model.PAIR_SRC` and
# `model.PAIR_DST`, in one boolean index instead of two index arrays.
OFF_DIAGONAL = ~np.eye(NUM_SUBJECTS, dtype=bool)


@dataclass(frozen=True)
class LossConfig:
    """The edge term's weight; the node term's is 1."""

    lambda_edge: float = 1.0

    def __post_init__(self):
        if self.lambda_edge < 0:
            raise ValueError("the edge loss weight must be non-negative")


def _check_labels(node_labels: Array, edge_labels: Array) -> tuple[Array, Array]:
    node_labels = np.asarray(node_labels, dtype=np.float64)
    edge_labels = np.asarray(edge_labels, dtype=np.float64)
    if node_labels.shape != (NUM_SUBJECTS,):
        raise ValueError(f"node labels have shape {node_labels.shape}")
    if edge_labels.shape != (NUM_SUBJECTS, NUM_SUBJECTS):
        raise ValueError(f"edge labels have shape {edge_labels.shape}")
    for labels in (node_labels, edge_labels):
        if not ((labels == 0.0) | (labels == 1.0)).all():
            raise ValueError("labels must be 0 or 1")
    if np.diagonal(edge_labels).any():
        raise ValueError("edge labels must have a zero diagonal")
    return node_labels, edge_labels


def edge_mask(node_labels: Array) -> Array:
    """Boolean pair mask: off-diagonal, at least one endpoint active."""
    active = np.asarray(node_labels) != 0
    mask = active[:, None] | active[None, :]
    np.fill_diagonal(mask, False)
    return mask


def masked_bce_loss(
    output: RouterOutput,
    node_labels: Array,
    edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> float:
    """Evaluate the objective on already-computed probabilities."""
    node_labels, edge_labels = _check_labels(node_labels, edge_labels)
    return _masked_bce(np.asarray(output.node_probs, dtype=np.float64),
                       np.asarray(output.edge_probs, dtype=np.float64),
                       node_labels, edge_labels, edge_mask(node_labels), config)


def _clamped(probs: Array) -> Array:
    """`probs` clamped into [PROB_EPS, 1 - PROB_EPS], as `np.clip` does."""
    return np.minimum(np.maximum(probs, PROB_EPS), 1.0 - PROB_EPS)


def _masked_bce(
    node_probs: Array, edge_probs: Array, node_labels: Array, edge_labels: Array,
    mask: Array, config: LossConfig,
) -> float:
    """`masked_bce_loss` on float64 probabilities, checked labels and their
    `edge_mask`."""
    node_p = _clamped(node_probs)
    pair_p = _clamped(edge_probs[OFF_DIAGONAL])
    pair_y = edge_labels[OFF_DIAGONAL]
    pair_mask = mask[OFF_DIAGONAL]

    node_sum = np.add.reduce(node_labels * np.log(node_p)
                             + (1.0 - node_labels) * np.log(1.0 - node_p))
    edge_sum = np.add.reduce((pair_y * np.log(pair_p) + (1.0 - pair_y) * np.log(1.0 - pair_p))
                             * pair_mask)
    loss = (-1.0 * node_sum) + config.lambda_edge * (-1.0 * edge_sum)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")
    return float(loss)


def _clamped_residual(probs: Array, labels: Array) -> Array:
    # The clamped loss is flat outside (PROB_EPS, 1 - PROB_EPS): zero gradient there.
    return (probs - labels) * ((probs > PROB_EPS) & (probs < 1.0 - PROB_EPS))


def logit_gradients(
    tape: ForwardTape,
    node_labels: Array,
    edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> tuple[float, Array, Array]:
    """Objective value and its gradient at the node and edge logits.

    The BCE gradient at a logit is (p - y), times `lambda_edge` for an edge,
    and zero where the clamp is active. The edge gradient is a 15 x 15 grid,
    exactly zero on masked pairs and on the diagonal.
    """
    node_labels, edge_labels = _check_labels(node_labels, edge_labels)
    # The probabilities of `route()`'s output, read off the tape.
    node_probs = _sigmoid(tape.node_logits)
    edge_probs = _edge_output(tape.edge_logits.copy(), ALL_ROWS)[1]
    mask = edge_mask(node_labels)
    value = _masked_bce(node_probs, edge_probs, node_labels, edge_labels, mask, config)
    d_node = _clamped_residual(node_probs, node_labels)
    d_edge = config.lambda_edge * mask * _clamped_residual(edge_probs, edge_labels)
    return value, d_node, d_edge


def loss_and_gradients(
    params: RouterParams,
    h_q: Array,
    node_labels: Array,
    edge_labels: Array,
    config: LossConfig = LossConfig(),
    out: dict[str, Array] | None = None,
) -> tuple[float, dict[str, Array]]:
    """Forward pass, objective, and hand-derived parameter gradients.

    Gradients are written into `out` when given (see `backward`).
    """
    tape = ForwardTape(params, h_q)
    value, d_node, d_edge = logit_gradients(tape, node_labels, edge_labels, config)
    return value, backward(tape, d_node, d_edge, out)


def loss_for_dag_output(
    params: RouterParams, h_q: Array, node_labels: Array, edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> float:
    """Objective value only, from `route()`'s probabilities.

    This is the inference forward pass, not training's `ForwardTape`, so a
    finite-difference check of `backward` runs through a separate path.
    """
    return masked_bce_loss(route(params, h_q), node_labels, edge_labels, config)


__all__ = [
    "PROB_EPS",
    "LossConfig",
    "edge_mask",
    "masked_bce_loss",
    "logit_gradients",
    "loss_and_gradients",
    "loss_for_dag_output",
]
