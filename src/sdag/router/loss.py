"""Masked multi-task objective for the routing network.

Total loss is a weighted sum of node-relevance BCE over all 15 subjects and
edge BCE over ordered subject pairs. A pair is excluded from the edge term
exactly when both endpoints are inactive in the ground truth, so the network
is never penalized for edges between subjects the question does not involve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteLoss
from ..subjects import NUM_SUBJECTS
from .model import PAIR_DST, PAIR_SRC, ForwardTape, RouterOutput, RouterParams, backward, route

Array = np.ndarray

# Probabilities are clamped into [PROB_EPS, 1 - PROB_EPS] before the log.
PROB_EPS = 1e-7


@dataclass(frozen=True)
class LossConfig:
    lambda_node: float = 1.0
    lambda_edge: float = 1.0

    def __post_init__(self):
        if self.lambda_node < 0 or self.lambda_edge < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lambda_node == 0 and self.lambda_edge == 0:
            raise ValueError("at least one loss weight must be positive")


def _check_labels(node_labels: Array, edge_labels: Array) -> tuple[Array, Array]:
    node_labels = np.asarray(node_labels, dtype=np.float64)
    edge_labels = np.asarray(edge_labels, dtype=np.float64)
    if node_labels.shape != (NUM_SUBJECTS,):
        raise ValueError(f"node labels have shape {node_labels.shape}")
    if edge_labels.shape != (NUM_SUBJECTS, NUM_SUBJECTS):
        raise ValueError(f"edge labels have shape {edge_labels.shape}")
    if not np.isin(node_labels, (0.0, 1.0)).all() or not np.isin(edge_labels, (0.0, 1.0)).all():
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
    node_p = np.clip(np.asarray(output.node_probs, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    pair_p = np.clip(
        np.asarray(output.edge_probs, dtype=np.float64)[PAIR_SRC, PAIR_DST],
        PROB_EPS,
        1.0 - PROB_EPS,
    )
    pair_y = edge_labels[PAIR_SRC, PAIR_DST]
    mask = edge_mask(node_labels)[PAIR_SRC, PAIR_DST]

    node_sum = (node_labels * np.log(node_p) + (1.0 - node_labels) * np.log(1.0 - node_p)).sum()
    edge_sum = ((pair_y * np.log(pair_p) + (1.0 - pair_y) * np.log(1.0 - pair_p)) * mask).sum()
    loss = config.lambda_node * (-1.0 * node_sum) + config.lambda_edge * (-1.0 * edge_sum)
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

    The BCE gradient at a logit is lambda * (p - y), zero where the clamp is
    active. The edge gradient is a 15 x 15 grid, exactly zero on masked pairs
    and on the diagonal.
    """
    node_labels, edge_labels = _check_labels(node_labels, edge_labels)
    output = tape.output()
    value = masked_bce_loss(output, node_labels, edge_labels, config)
    d_node = config.lambda_node * _clamped_residual(output.node_probs, node_labels)
    d_edge = (
        config.lambda_edge
        * edge_mask(node_labels)
        * _clamped_residual(output.edge_probs, edge_labels)
    )
    return value, d_node, d_edge


def loss_and_gradients(
    params: RouterParams,
    h_q: Array,
    node_labels: Array,
    edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> tuple[float, dict[str, Array]]:
    """Forward pass, objective, and hand-derived parameter gradients."""
    tape = ForwardTape(params, h_q)
    value, d_node, d_edge = logit_gradients(tape, node_labels, edge_labels, config)
    return value, backward(tape, d_node, d_edge)


def loss_for_dag_output(
    params: RouterParams, h_q: Array, node_labels: Array, edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> float:
    """Objective value only, via the same forward path as training."""
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
