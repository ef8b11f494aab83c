"""Training loop for the routing network.

Plain stochastic training: one Adam update per sample, a seeded shuffle per
epoch, the labels checked and their masks made once per call
(`loss.targets`). Runs are bit-reproducible for a fixed seed, sample list,
and starting parameters.

`train()` lays out its working copy of the parameters in one flat float64
buffer, and each of the copy's tensors is a view into it. Only that copy,
which `train()` returns, views the buffer; the caller's parameters are never
touched. `backward` writes each step's gradients straight into views of a
gradient buffer with the same layout. Adam then updates them in place, with a
fixed handful of element-wise ufuncs per step. It may skip whole rows that
cannot move: the rows of the question blocks of `init.w` and `edge_head.w1`
whose bucket no sample's question embedding hits. Those rows get a zero
gradient at every step, so Adam would leave them as they are, and `backward`
does not write their gradients. Skipping costs a gather of the rows that do
move, so Adam skips every such row, or none when too few are frozen to pay
for the gather; `_Adam` says how the layout is built and why the result is
bit for bit that of updating every parameter.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import EmptySplit
from ..subjects import NUM_SUBJECTS, SDag
from .loss import LossConfig, loss_and_gradients, targets
from .model import RouterDims, RouterParams, init_params, question_blocks

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
        """The 0/1 node vector and adjacency matrix of `dag` over the full
        taxonomy, as float64 arrays."""
        node_labels = np.zeros(NUM_SUBJECTS)
        for node in dag.nodes:
            node_labels[node.subject.index] = 1.0
        edge_labels = np.zeros((NUM_SUBJECTS, NUM_SUBJECTS))
        for edge in dag.edges:
            edge_labels[edge.src.index, edge.dst.index] = 1.0
        return cls(h_q=np.asarray(h_q, dtype=np.float64),
                   node_labels=node_labels, edge_labels=edge_labels)


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


def _live_buckets(d_q: int, samples: list[TrainSample]) -> Array:
    """Whether each question bucket is nonzero in some sample's embedding.

    An embedding of the wrong shape is skipped here; the forward pass rejects it.
    """
    live = np.zeros(d_q, dtype=bool)
    for sample in samples:
        h_q = np.asarray(sample.h_q)
        if h_q.shape == (d_q,):
            live |= h_q != 0.0
    return live


# Skipping the frozen question rows pays when they hold more elements than
# this share of the elements that Adam then gathers: gathering an element's
# gradient into its slot and writing its parameter back cost about 0.15 of its
# Adam update (about 6.1 ns on a 2-vCPU Xeon VM, NumPy 2.4). At the benchmark
# dims, Adam skips from 36 frozen rows on.
GATHER_COST = 0.15


class _Adam:
    """Adam (Kingma & Ba) over the parameters that can move, in place.

    The gradient of a question-block row is the outer product of `h_q` with
    the block's output gradient, so a row whose bucket no sample hits gets a
    gradient of +-0 at every step. Its moments stay +0.0 and its update is
    +0.0, which leaves the row bit for bit as it was. Adam skips all such rows
    when their elements outnumber `GATHER_COST` times the elements it gathers,
    and else updates every element.

    `tensors` is the working copy of the parameters. Its tensors are views of
    one flat float64 buffer, laid out with every tensor that takes no question
    embedding first, then the ones that do (`model.question_blocks`), the one
    with more rows ahead of its question block first. When Adam skips, it
    updates one contiguous region of that buffer: the layout up to the first
    block's question rows, and in front of it one slot per row that it
    updates after them. Those are the first tensor's live question rows, and
    the later tensor's rows ahead of its block and its live question rows.
    Each step first gathers those rows' gradients into the slots, one `take`
    per tensor, and last writes the updated slots back into the tensors. When
    Adam does not skip, the region is the whole layout and nothing is copied.

    `grads` holds views of a zeroed gradient buffer with the same layout; the
    caller writes a step's gradients into them, of the question blocks only
    rows `rows`, before `step()`. The moments and one scratch buffer cover the
    region only, so a step allocates nothing. Each operation is element-wise
    and keeps the operands and order of the per-tensor update
    `p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`, so updated elements get the
    bits of updating each tensor on its own.
    """

    def __init__(self, params: RouterParams, live_buckets: Array, lr: float):
        blocks = question_blocks(params.dims)
        tensors = params.tensors
        # The later block tensor's rows ahead of its question block are
        # gathered whenever Adam skips, so the one with fewer of them goes last.
        first, later = sorted(blocks, key=blocks.get, reverse=True)
        order = [name for name in tensors if name not in blocks] + [first, later]
        offsets = dict(zip(order, np.cumsum([0] + [tensors[n].size for n in order]).tolist()))
        size = offsets[later] + tensors[later].size
        live = np.flatnonzero(live_buckets)
        gathered = {first: blocks[first] + live,
                    later: np.concatenate([np.arange(blocks[later]), blocks[later] + live])}
        width = params.dims.h
        frozen = len(blocks) * (len(live_buckets) - len(live)) * width
        slots = sum(rows.size for rows in gathered.values()) * width
        if frozen <= GATHER_COST * slots:
            gathered, slots = {}, 0

        flat = np.empty(slots + size)
        grad = np.zeros_like(flat)
        self.tensors, self.grads = {}, {}
        for name, arr in tensors.items():
            at = slice(slots + offsets[name], slots + offsets[name] + arr.size)
            self.tensors[name] = flat[at].reshape(arr.shape)
            self.grads[name] = grad[at].reshape(arr.shape)
            self.tensors[name][...] = arr
        # Per block tensor: its parameters and gradients, the rows gathered
        # from them, and those rows' parameter and gradient slots.
        self._gathered = []
        slot = 0
        for name, rows in gathered.items():
            at = slice(slot, slot + rows.size * width)
            p, g = flat[at].reshape(-1, width), grad[at].reshape(-1, width)
            p[...] = self.tensors[name][rows]
            self._gathered.append((self.tensors[name], self.grads[name], rows, p, g))
            slot = at.stop
        self.rows = live if gathered else None

        region = slots + offsets[first] + blocks[first] * width if gathered else size
        self.p, self.g = flat[:region], grad[:region]
        self.lr = lr
        self.t = 0
        self.m = np.zeros(region)
        self.v = np.zeros(region)
        self.scratch = np.empty(region)

    def step(self) -> None:
        for _, grad, rows, _, slots in self._gathered:
            np.take(grad, rows, axis=0, out=slots, mode="clip")
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
        self.p -= s
        for tensor, _, rows, slots, _ in self._gathered:
            tensor[rows] = slots


def train(
    params: RouterParams, samples: list[TrainSample], config: TrainConfig = TrainConfig()
) -> TrainResult:
    """Train a copy of `params` on `samples`; the input is left untouched."""
    if not samples:
        raise EmptySplit("no training samples")
    prepared = targets([s.node_labels for s in samples], [s.edge_labels for s in samples])
    optimizer = _Adam(params, _live_buckets(params.dims.d_q, samples), config.lr)
    params = replace(params, tensors=optimizer.tensors)
    rng = np.random.default_rng(config.seed)
    loss_curve: list[float] = []

    for epoch in range(config.epochs):
        epoch_losses = []
        for idx in rng.permutation(len(samples)):
            value, _ = loss_and_gradients(params, samples[idx].h_q, None, None, config.loss,
                                          optimizer.grads, optimizer.rows, target=prepared[idx])
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
