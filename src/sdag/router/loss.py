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
`logit_gradients` reads the probabilities off the `ForwardTape`. The checks
and masks that come from the labels alone make a `Target`, which `train()`
prepares for all its samples at once. A term is `log(p)` where y = 1 and
`log(1 - p)` where y = 0, the bits of `y*log(p) + (1-y)*log(1-p)`, whose
other product is -0.0. Values and gradients keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Target(NamedTuple):
    """One sample's float64 0/1 labels, checked, and the masks the loss takes
    from them: which labels are 1 (`pair_ones` over the off-diagonal pairs,
    in `OFF_DIAGONAL` order) and the `edge_mask`."""

    node_labels: Array
    edge_labels: Array
    node_ones: Array
    pair_ones: Array
    mask: Array


def targets(node_labels: list, edge_labels: list) -> list[Target]:
    """Check the labels of many samples and prepare their targets, in a few
    array operations over all of them stacked; float64 labels are kept, not
    copied. Raises `ValueError` for labels of the wrong shape, a label that
    is not 0 or 1, or an edge label on the diagonal."""
    nodes = [np.asarray(labels, dtype=np.float64) for labels in node_labels]
    edges = [np.asarray(labels, dtype=np.float64) for labels in edge_labels]
    for node, edge in zip(nodes, edges):
        if node.shape != (NUM_SUBJECTS,):
            raise ValueError(f"node labels have shape {node.shape}")
        if edge.shape != (NUM_SUBJECTS, NUM_SUBJECTS):
            raise ValueError(f"edge labels have shape {edge.shape}")
    node, edge = np.array(nodes), np.array(edges)
    node_ones, edge_ones = node == 1.0, edge == 1.0
    if not ((node_ones | (node == 0.0)).all() and (edge_ones | (edge == 0.0)).all()):
        raise ValueError("labels must be 0 or 1")
    if edge[:, ALL_ROWS, ALL_ROWS].any():
        raise ValueError("edge labels must have a zero diagonal")
    return [Target(*arrays) for arrays in zip(nodes, edges, node_ones, edge_ones[:, OFF_DIAGONAL],
                                               edge_mask(node_ones))]


def edge_mask(node_labels: Array) -> Array:
    """Boolean pair mask: off-diagonal, at least one endpoint active (per vector of a stack)."""
    active = np.asarray(node_labels) != 0
    mask = active[..., :, None] | active[..., None, :]
    mask[..., ALL_ROWS, ALL_ROWS] = False
    return mask


def masked_bce_loss(
    output: RouterOutput,
    node_labels: Array,
    edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> float:
    """Evaluate the objective on already-computed probabilities."""
    return _masked_bce(np.asarray(output.node_probs, dtype=np.float64),
                       np.asarray(output.edge_probs, dtype=np.float64),
                       targets([node_labels], [edge_labels])[0], config)


def _clamped(probs: Array) -> Array:
    """`probs` clamped into [PROB_EPS, 1 - PROB_EPS], as `np.clip` does."""
    return np.minimum(np.maximum(probs, PROB_EPS), 1.0 - PROB_EPS)


def _masked_bce(node_probs: Array, edge_probs: Array, target: Target, config: LossConfig) -> float:
    """`masked_bce_loss` on float64 probabilities and a prepared target."""
    node_p = _clamped(node_probs)
    pair_p = _clamped(edge_probs[OFF_DIAGONAL])
    node_sum = np.add.reduce(np.log(np.where(target.node_ones, node_p, 1.0 - node_p)))
    edge_sum = np.add.reduce(np.log(np.where(target.pair_ones, pair_p, 1.0 - pair_p))
                             * target.mask[OFF_DIAGONAL])
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
    target: Target | None = None,
) -> tuple[float, Array, Array]:
    """Objective value and its gradient at the node and edge logits.

    The BCE gradient at a logit is (p - y), times `lambda_edge` for an edge,
    and zero where the clamp is active. The edge gradient is a 15 x 15 grid,
    exactly zero on masked pairs and on the diagonal. A `target` made ahead
    by `targets()`, as `train()` does, replaces the labels, which are then None.
    """
    if target is None:
        target = targets([node_labels], [edge_labels])[0]
    elif node_labels is not None or edge_labels is not None:
        raise TypeError("give the labels or a target, not both")
    # The probabilities of `route()`'s output, read off the tape.
    node_probs = _sigmoid(tape.node_logits)
    edge_probs = _edge_output(tape.edge_logits.copy(), ALL_ROWS)[1]
    value = _masked_bce(node_probs, edge_probs, target, config)
    d_node = _clamped_residual(node_probs, target.node_labels)
    d_edge = config.lambda_edge * target.mask * _clamped_residual(edge_probs, target.edge_labels)
    return value, d_node, d_edge


def loss_and_gradients(
    params: RouterParams,
    h_q: Array,
    node_labels: Array,
    edge_labels: Array,
    config: LossConfig = LossConfig(),
    out: dict[str, Array] | None = None,
    rows: Array | None = None,
    target: Target | None = None,
) -> tuple[float, dict[str, Array]]:
    """Forward pass, objective, and hand-derived parameter gradients.

    `out` and `rows` are as in `backward`, `target` as in `logit_gradients`.
    """
    tape = ForwardTape(params, h_q)
    value, d_node, d_edge = logit_gradients(tape, node_labels, edge_labels, config, target)
    return value, backward(tape, d_node, d_edge, out, rows)


def loss_for_dag_output(
    params: RouterParams, h_q: Array, node_labels: Array, edge_labels: Array,
    config: LossConfig = LossConfig(),
) -> float:
    """Objective value only, from `route()`'s probabilities.

    This is the inference forward pass, not training's `ForwardTape`, so a
    finite-difference check of `backward` runs through a separate path.
    """
    return masked_bce_loss(route(params, h_q), node_labels, edge_labels, config)
