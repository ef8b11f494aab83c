"""The trainable routing network: parameters, forward and backward pass.

Every subject node starts from a learned subject embedding fused with the
question embedding, is refined by layers that each combine its state with the
mean of the other 14 states, and feeds two classifier heads: one scoring
subject relevance, one scoring each ordered subject pair as a dependency edge.

The edge head scores one source subject's row of 15 targets at a time, so a
row's scores do not depend on which other rows are scored. Training scores
all 15 rows; `route()` scores edges on demand, so a DAG that keeps k subjects
pays for k rows, not the full grid.

The forward stages take one question's (15, h) node states or a (B, 15, h)
stack of them. A stacked matmul runs one BLAS call per (15, h) slice, and
every other step is element-wise or reduces within one slice, so a question
routed in a stack gets the same bits as routed alone; flattening the stack
into one (B * 15, h) product would not. Training passes single questions;
evaluation routes its questions in stacked chunks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch
from ..subjects import NUM_SUBJECTS

Array = np.ndarray

# Ordered (src, dst) index pairs for the off-diagonal of the full subject graph.
PAIR_SRC = np.array([i for i in range(NUM_SUBJECTS) for j in range(NUM_SUBJECTS) if i != j])
PAIR_DST = np.array([j for i in range(NUM_SUBJECTS) for j in range(NUM_SUBJECTS) if i != j])
NUM_PAIRS = len(PAIR_SRC)
# Every subject as an edge source: the full 15 x 15 edge grid.
ALL_ROWS = np.arange(NUM_SUBJECTS)


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
        shapes[f"mp{layer}.w_msg"] = (dims.h, dims.h)
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


# The tensors that take the question embedding, each with the row at which its
# question block starts: `init.w` takes concat(subject, h_q) and `edge_head.w1`
# takes concat(x[i], x[j], h_q). Row first + k of a block is multiplied by h_q[k].
def question_blocks(dims: RouterDims) -> dict[str, int]:
    return {"init.w": dims.d_s, "edge_head.w1": 2 * dims.h}


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


def init_params(
    dims: RouterDims, seed: int = 0, scale: float = 0.1, embedder: str | None = None
) -> RouterParams:
    """Draw weights from a seeded normal (scale 0.1); biases start at zero.

    Each `mp{l}.w_msg` is the sum of two consecutive draws, so a seed starts
    the same router as it did under checkpoint version 1.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, Array] = {}
    for name, shape in tensor_shapes(dims).items():
        if name.endswith((".b", ".b1", ".b2")):
            tensors[name] = np.zeros(shape)
        elif name.endswith(".w_msg"):
            tensors[name] = rng.standard_normal(shape) * scale + rng.standard_normal(shape) * scale
        else:
            tensors[name] = rng.standard_normal(shape) * scale
    return RouterParams(dims=dims, tensors=tensors, seed=seed, embedder=embedder)


def _sigmoid(x: Array) -> Array:
    e = np.exp(-np.abs(x))
    # 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with one divide.
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)


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


# -- forward stages, shared by ForwardTape and route() -----------------------


def _init_stage(params: RouterParams, h_q: Array) -> Array:
    """Fuse every subject embedding with the question embedding: (15, h)
    node states for a (d_q,) embedding, (B, 15, h) for a (B, 1, d_q) stack."""
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
    mean = (np.add.reduce(x, axis=-2, keepdims=True) - x) / (NUM_SUBJECTS - 1)
    pre = x @ t[f"mp{layer}.w_self"] + mean @ t[f"mp{layer}.w_msg"] + t[f"mp{layer}.b"]
    return mean, _activate(params.dims, pre)


def _node_stage(params: RouterParams, x: Array) -> tuple[Array, Array]:
    """Node head: (hidden, logits), one row per subject."""
    t = params.tensors
    hidden = np.maximum(x @ t["node_head.w1"] + t["node_head.b1"], 0.0)
    return hidden, hidden @ t["node_head.w2"][:, 0] + t["node_head.b2"][0]


def _edge_stage(params: RouterParams, x: Array, h_q: Array, at: tuple) -> tuple[Array, Array]:
    """Edge head for chosen source subjects against all 15 targets.

    `at` indexes the source rows in the leading axes of `x`: `(rows,)` for
    one question's (15, h) states, `(questions, rows)` pairs for a (B, 15, h)
    stack. Returns (hidden, logits) of shapes (P, 15, h) and (P, 15) for P
    sources; entry [k, j] scores the edge from source k to subject j of its
    question, self-edges included. Each source is reduced on its own (15, h)
    block, so its logits are the same bits whichever other rows are scored
    with it.
    """
    t = params.tensors
    h = params.dims.h
    # Each source meets the target and question blocks of its own question;
    # for one question `question` is () and they broadcast whole.
    question = at[:-1]
    # concat(x[i], x[j], h_q) @ w1, split into its source, target and question
    # blocks, summed and rectified in one buffer.
    w1 = t["edge_head.w1"]
    hidden = np.add((x @ w1[:h])[at][:, None, :], (x @ w1[h : 2 * h])[question])
    hidden += (h_q @ w1[2 * h :] + t["edge_head.b1"])[question]
    np.maximum(hidden, 0.0, out=hidden)
    return hidden, hidden @ t["edge_head.w2"][:, 0] + t["edge_head.b2"][0]


def _edge_output(logits: Array, rows: Array) -> tuple[Array, Array]:
    """Zero the self-edge entries of edge logits for source rows `rows`, in
    place, and return (logits, probabilities), with 0 on the self-edges too."""
    self_edges = (np.arange(len(rows)), rows)
    logits[self_edges] = 0.0
    probs = _sigmoid(logits)
    probs[self_edges] = 0.0
    return logits, probs


class RouterOutput:
    """Per-subject relevance probabilities and pairwise edge probabilities,
    for one question or, with a leading axis on every array, for a stack.

    Entry [i, j] of the 15 x 15 edge grids scores the edge i -> j. The
    diagonal is never produced by the network and must not be consumed; it
    is stored as 0. Edges are scored per source row on demand: the full grids
    on first read of `edge_probs` or `edge_logits`, bit for bit as
    `ForwardTape` scores them, or only chosen rows through `edge_rows`.
    """

    def __init__(self, params: RouterParams, x: Array, h_q: Array):
        self._edge_inputs = (params, x, h_q)
        self.node_logits = _node_stage(params, x)[1]
        self.node_probs = _sigmoid(self.node_logits)

    def _scored(self, rows) -> tuple[Array, Array]:
        """Edge (logits, probabilities) grids with rows `rows` scored and the
        other entries 0; for a stack, `rows` holds one list per question."""
        params, x, h_q = self._edge_inputs
        if x.ndim == 2:
            at = (np.asarray(rows, dtype=np.intp),)
        else:
            at = (np.repeat(np.arange(len(x)), [len(r) for r in rows]),
                  np.array([i for r in rows for i in r], dtype=np.intp))
        logits = np.zeros(x.shape[:-1] + (NUM_SUBJECTS,))
        probs = np.zeros_like(logits)
        if len(at[-1]):
            logits[at], probs[at] = _edge_output(_edge_stage(params, x, h_q, at)[1], at[-1])
        return logits, probs

    @functools.cached_property
    def _edges(self) -> tuple[Array, Array]:
        x = self._edge_inputs[1]
        return self._scored(ALL_ROWS if x.ndim == 2 else [ALL_ROWS] * len(x))

    edge_logits = property(lambda self: self._edges[0])
    edge_probs = property(lambda self: self._edges[1])

    def edge_rows(self, rows) -> Array:
        """An edge probability grid with rows `rows` scored and the others 0;
        a stacked output takes one list of rows per question."""
        return self._scored(rows)[1]


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
        self.node_hidden, self.node_logits = _node_stage(params, self.x_final)
        # The full 15 x 15 grid; its diagonal is computed but never read.
        self.edge_hidden, self.edge_logits = _edge_stage(
            params, self.x_final, self.h_q, (ALL_ROWS,)
        )


def _question_block_grad(h_q: Array, d: Array, out: Array, rows: Array | None = None) -> None:
    """Write the gradient of a question block, `np.multiply.outer(h_q, d)`,
    into the (d_q, n) rows `out` (only rows `rows` and those `h_q` hits, when
    given), given the block's output gradient `d`.

    A question hits few of the d_q buckets, so most rows are the product of
    +0.0 with `d`. That row, `np.multiply(0.0, d)`, is computed once and
    broadcast into each row, signed zeros and NaNs of `0 * inf` included;
    only the rows whose entry of `h_q` is not +0.0 (its bits nonzero, so -0.0
    counts) are multiplied out. Each entry is the product of the same two
    operands as in the dense outer product, so it has the same bits; only
    where both are NaN may the NaN's payload differ, which IEEE 754 leaves open.
    """
    out[... if rows is None else rows] = np.multiply(0.0, d)
    hit = np.flatnonzero(h_q.view(np.uint64))
    out[hit] = np.multiply.outer(h_q[hit], d)


def backward(
    tape: ForwardTape,
    d_node_logits: Array,
    d_edge_logits: Array,
    out: dict[str, Array] | None = None,
    rows: Array | None = None,
) -> dict[str, Array]:
    """Gradient of every parameter, given the loss gradient at the logits.

    `d_node_logits` has shape (15,); `d_edge_logits` is the 15 x 15 grid of
    `ForwardTape.edge_logits` and must have a zero diagonal. Each gradient is
    written into `out[name]`, a C-contiguous float64 array of the tensor's
    shape, which is overwritten in full (but see `rows`) and returned;
    `train()` passes views of Adam's flat gradient buffer. Without `out`,
    fresh arrays are returned. Gradients are returned in tensor order.

    Sums are `np.add.reduce` calls, the ufunc that `np.sum` and `.sum()`
    dispatch to, on the same operands. The question blocks of `init.w` and
    `edge_head.w1` (`question_blocks`) are written by `_question_block_grad`
    from the nonzero rows of `h_q`; given `rows`, only those rows of each
    block are written, and `train()` passes the ones its optimizer reads.
    """
    t, dims = tape.params.tensors, tape.params.dims
    h, d_s = dims.h, dims.d_s
    x = tape.x_final
    g = out if out is not None else {name: np.empty_like(arr) for name, arr in t.items()}

    d_hidden = np.multiply.outer(d_node_logits, t["node_head.w2"][:, 0])
    d_hidden *= tape.node_hidden > 0.0
    np.matmul(tape.node_hidden.T, d_node_logits, out=g["node_head.w2"][:, 0])
    np.add.reduce(d_node_logits, keepdims=True, out=g["node_head.b2"])
    np.matmul(x.T, d_hidden, out=g["node_head.w1"])
    np.add.reduce(d_hidden, axis=0, out=g["node_head.b1"])
    dx = d_hidden @ t["node_head.w1"].T

    # Each block of the edge head's w1 collects its gradient summed over the
    # axis of the grid it was broadcast along.
    # Copied, then scaled: a product of two broadcast operands takes two NumPy buffers.
    d_pre = np.empty(d_edge_logits.shape + (h,))
    d_pre[...] = d_edge_logits[:, :, None]
    d_pre *= t["edge_head.w2"][:, 0]
    d_pre *= tape.edge_hidden > 0.0
    d_src, d_dst = np.add.reduce(d_pre, axis=1), np.add.reduce(d_pre, axis=0)
    d_question = np.add.reduce(d_src, axis=0, out=g["edge_head.b1"])
    w1, g_w1 = t["edge_head.w1"], g["edge_head.w1"]
    np.matmul(tape.edge_hidden.reshape(-1, h).T, d_edge_logits.reshape(-1),
              out=g["edge_head.w2"][:, 0])
    np.add.reduce(d_edge_logits.reshape(-1), keepdims=True, out=g["edge_head.b2"])
    np.matmul(x.T, d_src, out=g_w1[:h])
    np.matmul(x.T, d_dst, out=g_w1[h : 2 * h])
    _question_block_grad(tape.h_q, d_question, g_w1[2 * h :], rows)
    dx += d_src @ w1[:h].T + d_dst @ w1[h : 2 * h].T

    for layer in reversed(range(dims.L)):
        d_pre = _activation_grad(dims, dx, tape.xs[layer + 1])
        np.matmul(tape.xs[layer].T, d_pre, out=g[f"mp{layer}.w_self"])
        np.matmul(tape.means[layer].T, d_pre, out=g[f"mp{layer}.w_msg"])
        np.add.reduce(d_pre, axis=0, out=g[f"mp{layer}.b"])
        d_mean = d_pre @ t[f"mp{layer}.w_msg"].T
        # The neighbour-mean operator is symmetric, hence its own transpose.
        dx = (d_pre @ t[f"mp{layer}.w_self"].T
              + (np.add.reduce(d_mean, axis=0) - d_mean) / (NUM_SUBJECTS - 1))

    d_pre = _activation_grad(dims, dx, tape.x0)
    d_bias = np.add.reduce(d_pre, axis=0, out=g["init.b"])
    w, g_w = t["init.w"], g["init.w"]
    np.matmul(d_pre, w[:d_s].T, out=g["subject_embeddings"])
    np.matmul(t["subject_embeddings"].T, d_pre, out=g_w[:d_s])
    _question_block_grad(tape.h_q, d_bias, g_w[d_s:], rows)
    return {name: g[name] for name in t}


def route(params: RouterParams, h_q: Array) -> RouterOutput:
    """Full forward pass: fuse, message-pass and score the nodes; edges are
    scored per source row on demand (see `RouterOutput.edge_rows`).

    `h_q` is one (d_q,) question embedding, or a (B, d_q) stack of them whose
    output carries a leading axis of B questions, each with the same bits as
    routed alone.
    """
    h_q = np.asarray(h_q, dtype=np.float64)
    d_q = params.dims.d_q
    h_q = _checked(h_q, (len(h_q), d_q) if h_q.ndim == 2 else (d_q,), "question embedding")
    if h_q.ndim == 2:
        h_q = h_q[:, None, :]  # each question's (1, d_q) slice meets its (15, h) one
    x = _init_stage(params, h_q)
    for layer in range(params.dims.L):
        x = _layer_stage(params, layer, x)[1]
    return RouterOutput(params, x, h_q)
