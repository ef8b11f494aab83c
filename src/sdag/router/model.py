"""The trainable routing network: parameters, forward and backward pass.

Every subject node starts from a learned subject embedding fused with the
question embedding, is refined by directional message passing over the fully
connected subject graph, and feeds two classifier heads: one scoring subject
relevance, one scoring each ordered subject pair as a dependency edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatch
from ..subjects import NUM_SUBJECTS

Array = np.ndarray

# Ordered (src, dst) index pairs for the off-diagonal of the full subject graph.
PAIR_SRC = np.array([i for i in range(NUM_SUBJECTS) for j in range(NUM_SUBJECTS) if i != j])
PAIR_DST = np.array([j for i in range(NUM_SUBJECTS) for j in range(NUM_SUBJECTS) if i != j])
NUM_PAIRS = len(PAIR_SRC)


@dataclass(frozen=True)
class RouterDims:
    """Dimension record: subject embedding, question embedding, hidden, layers."""

    d_s: int = 64
    d_q: int = 256
    h: int = 128
    L: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if min(self.d_s, self.d_q, self.h) < 1 or self.L < 1:
            raise ValueError(f"invalid dimensions: {self}")
        if self.activation not in ("relu", "linear"):
            raise ValueError(f"unsupported activation: {self.activation}")


# Tensor names and shapes, in initialization and checkpoint order.
def tensor_shapes(dims: RouterDims) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "subject_embeddings": (NUM_SUBJECTS, dims.d_s),
        "init.w": (dims.d_s + dims.d_q, dims.h),
        "init.b": (dims.h,),
    }
    for layer in range(dims.L):
        shapes[f"mp{layer}.w_self"] = (dims.h, dims.h)
        shapes[f"mp{layer}.w_in"] = (dims.h, dims.h)
        shapes[f"mp{layer}.w_out"] = (dims.h, dims.h)
        shapes[f"mp{layer}.b"] = (dims.h,)
    shapes.update(
        {
            "node_head.w1": (dims.h, dims.h),
            "node_head.b1": (dims.h,),
            "node_head.w2": (dims.h, 1),
            "node_head.b2": (1,),
            "edge_head.w1": (2 * dims.h + dims.d_q, dims.h),
            "edge_head.b1": (dims.h,),
            "edge_head.w2": (dims.h, 1),
            "edge_head.b2": (1,),
        }
    )
    return shapes


@dataclass
class RouterParams:
    """All learnable tensors, keyed by the documented naming scheme."""

    dims: RouterDims
    tensors: dict[str, Array]
    seed: int | None = None
    embedder: str | None = None

    def __post_init__(self):
        expected = tensor_shapes(self.dims)
        if set(self.tensors) != set(expected):
            missing = sorted(set(expected) - set(self.tensors))
            extra = sorted(set(self.tensors) - set(expected))
            raise DimensionMismatch(f"tensor set mismatch: missing={missing} extra={extra}")
        for name, shape in expected.items():
            if self.tensors[name].shape != shape:
                raise DimensionMismatch(
                    f"{name}: shape {self.tensors[name].shape}, expected {shape}"
                )
            if not np.all(np.isfinite(self.tensors[name])):
                raise ValueError(f"{name}: non-finite values")

    def copy(self) -> "RouterParams":
        return RouterParams(
            dims=self.dims,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            seed=self.seed,
            embedder=self.embedder,
        )


def init_params(
    dims: RouterDims, seed: int = 0, scale: float = 0.1, embedder: str | None = None
) -> RouterParams:
    """Draw weights from a seeded normal (scale 0.1); biases start at zero."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Array] = {}
    for name, shape in tensor_shapes(dims).items():
        if name.endswith((".b", ".b1", ".b2")):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.standard_normal(shape) * scale
    return RouterParams(dims=dims, tensors=tensors, seed=seed, embedder=embedder)


@dataclass
class RouterOutput:
    """Per-subject relevance probabilities and pairwise edge probabilities.

    The edge matrix diagonal is never produced by the network and must not be
    consumed; it is stored as 0.
    """

    node_probs: Array
    edge_probs: Array
    node_logits: Array = field(repr=False, default=None)  # type: ignore[assignment]
    edge_logits: Array = field(repr=False, default=None)  # type: ignore[assignment]


def _sigmoid(x: Array) -> Array:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _activate(dims: RouterDims, pre: Array) -> Array:
    return np.maximum(pre, 0.0) if dims.activation == "relu" else pre


def _activation_grad(dims: RouterDims, d_out: Array, out: Array) -> Array:
    """Pull a gradient back through `_activate`, given its output."""
    return d_out * (out > 0.0) if dims.activation == "relu" else d_out


def _checked(x: Array, shape: tuple[int, ...], what: str) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected {shape}")
    return x


# -- forward stages, shared by ForwardTape and the public wrappers -----------


def _init_stage(params: RouterParams, h_q: Array) -> Array:
    """Fuse every subject embedding with the question embedding (15 x h)."""
    t = params.tensors
    w = t["init.w"]
    d_s = params.dims.d_s
    # concat(subject, h_q) @ w, split into its subject and question blocks.
    pre = t["subject_embeddings"] @ w[:d_s] + (h_q @ w[d_s:] + t["init.b"])
    return _activate(params.dims, pre)


def _layer_stage(params: RouterParams, layer: int, x: Array) -> tuple[Array, Array]:
    """One message-passing layer; returns (neighbour mean, new node states)."""
    t = params.tensors
    # Row i is the mean of every row except i.
    mean = (x.sum(axis=0) - x) / (NUM_SUBJECTS - 1)
    # w_in and w_out act on the same symmetric mean, so only their sum matters.
    w_msg = t[f"mp{layer}.w_in"] + t[f"mp{layer}.w_out"]
    pre = x @ t[f"mp{layer}.w_self"] + mean @ w_msg + t[f"mp{layer}.b"]
    return mean, _activate(params.dims, pre)


def _heads_stage(params: RouterParams, x: Array, h_q: Array) -> tuple[Array, Array, Array, Array]:
    """Node and edge heads: (node hidden, node logits, edge hidden, edge logits).

    Edge arrays cover the full 15 x 15 grid, entry [i, j] scoring the edge
    i -> j; the diagonal is computed but never read.
    """
    t = params.tensors
    h = params.dims.h
    node_hidden = np.maximum(x @ t["node_head.w1"] + t["node_head.b1"], 0.0)
    node_logits = node_hidden @ t["node_head.w2"][:, 0] + t["node_head.b2"][0]

    # concat(x[i], x[j], h_q) @ w1, split into its source, target and question blocks.
    w1 = t["edge_head.w1"]
    edge_pre = (
        (x @ w1[:h])[:, None, :]
        + (x @ w1[h : 2 * h])[None, :, :]
        + (h_q @ w1[2 * h :] + t["edge_head.b1"])
    )
    edge_hidden = np.maximum(edge_pre, 0.0)
    edge_logits = edge_hidden @ t["edge_head.w2"][:, 0] + t["edge_head.b2"][0]
    return node_hidden, node_logits, edge_hidden, edge_logits


def _output(node_logits: Array, edge_logits: Array) -> RouterOutput:
    edge_logits = edge_logits.copy()
    np.fill_diagonal(edge_logits, 0.0)
    edge_probs = _sigmoid(edge_logits)
    np.fill_diagonal(edge_probs, 0.0)
    return RouterOutput(
        node_probs=_sigmoid(node_logits),
        edge_probs=edge_probs,
        node_logits=node_logits.copy(),
        edge_logits=edge_logits,
    )


class ForwardTape:
    """One forward pass, keeping the intermediates that `backward` reads."""

    def __init__(self, params: RouterParams, h_q: Array):
        self.params = params
        self.h_q = _checked(h_q, (params.dims.d_q,), "question embedding")
        # Node states after the init stage and after each message-passing layer.
        self.xs = [_init_stage(params, self.h_q)]
        self.means: list[Array] = []
        for layer in range(params.dims.L):
            mean, x = _layer_stage(params, layer, self.xs[-1])
            self.means.append(mean)
            self.xs.append(x)
        self.x0, self.x_final = self.xs[0], self.xs[-1]
        self.node_hidden, self.node_logits, self.edge_hidden, self.edge_logits = _heads_stage(
            params, self.x_final, self.h_q
        )

    def output(self) -> RouterOutput:
        return _output(self.node_logits, self.edge_logits)


def backward(tape: ForwardTape, d_node_logits: Array, d_edge_logits: Array) -> dict[str, Array]:
    """Gradient of every parameter, given the loss gradient at the logits.

    `d_node_logits` has shape (15,); `d_edge_logits` is the 15 x 15 grid of
    `ForwardTape.edge_logits` and must have a zero diagonal. Gradients are
    returned in tensor order; `mp{l}.w_in` and `mp{l}.w_out` get equal ones.
    """
    t, dims = tape.params.tensors, tape.params.dims
    h = dims.h
    x = tape.x_final
    g: dict[str, Array] = {}

    d_hidden = np.outer(d_node_logits, t["node_head.w2"][:, 0]) * (tape.node_hidden > 0.0)
    g["node_head.w2"] = (tape.node_hidden.T @ d_node_logits)[:, None]
    g["node_head.b2"] = np.array([d_node_logits.sum()])
    g["node_head.w1"] = x.T @ d_hidden
    g["node_head.b1"] = d_hidden.sum(axis=0)
    dx = d_hidden @ t["node_head.w1"].T

    # Each block of the edge head's w1 collects its gradient summed over the
    # axis of the grid it was broadcast along.
    d_pre = d_edge_logits[:, :, None] * t["edge_head.w2"][:, 0] * (tape.edge_hidden > 0.0)
    d_src, d_dst = d_pre.sum(axis=1), d_pre.sum(axis=0)
    d_question = d_src.sum(axis=0)
    w1 = t["edge_head.w1"]
    g["edge_head.w2"] = (tape.edge_hidden.reshape(-1, h).T @ d_edge_logits.reshape(-1))[:, None]
    g["edge_head.b2"] = np.array([d_edge_logits.sum()])
    g["edge_head.w1"] = np.concatenate([x.T @ d_src, x.T @ d_dst, np.outer(tape.h_q, d_question)])
    g["edge_head.b1"] = d_question
    dx += d_src @ w1[:h].T + d_dst @ w1[h : 2 * h].T

    for layer in reversed(range(dims.L)):
        d_pre = _activation_grad(dims, dx, tape.xs[layer + 1])
        g[f"mp{layer}.w_self"] = tape.xs[layer].T @ d_pre
        g[f"mp{layer}.w_in"] = tape.means[layer].T @ d_pre
        g[f"mp{layer}.w_out"] = g[f"mp{layer}.w_in"].copy()
        g[f"mp{layer}.b"] = d_pre.sum(axis=0)
        d_mean = d_pre @ (t[f"mp{layer}.w_in"] + t[f"mp{layer}.w_out"]).T
        # The neighbour-mean operator is symmetric, hence its own transpose.
        dx = d_pre @ t[f"mp{layer}.w_self"].T + (d_mean.sum(axis=0) - d_mean) / (NUM_SUBJECTS - 1)

    d_pre = _activation_grad(dims, dx, tape.x0)
    d_bias = d_pre.sum(axis=0)
    w = t["init.w"]
    g["subject_embeddings"] = d_pre @ w[: dims.d_s].T
    g["init.w"] = np.concatenate([t["subject_embeddings"].T @ d_pre, np.outer(tape.h_q, d_bias)])
    g["init.b"] = d_bias
    return {name: g[name] for name in t}


def init_node_features(params: RouterParams, h_q: Array) -> Array:
    """Fused subject+question features before message passing (15 x h)."""
    return _init_stage(params, _checked(h_q, (params.dims.d_q,), "question embedding"))


def message_pass(params: RouterParams, x0: Array) -> Array:
    """Apply the configured message-passing layers to given node features."""
    x = _checked(x0, (NUM_SUBJECTS, params.dims.h), "node features")
    for layer in range(params.dims.L):
        x = _layer_stage(params, layer, x)[1]
    return x


def predict(params: RouterParams, x_final: Array, h_q: Array) -> RouterOutput:
    """Run only the node/edge heads on final node states."""
    x = _checked(x_final, (NUM_SUBJECTS, params.dims.h), "node states")
    h_q = _checked(h_q, (params.dims.d_q,), "question embedding")
    _, node_logits, _, edge_logits = _heads_stage(params, x, h_q)
    return _output(node_logits, edge_logits)


def route(params: RouterParams, h_q: Array) -> RouterOutput:
    """Full forward pass: fuse, message-pass, and score nodes and edges."""
    return ForwardTape(params, h_q).output()
