"""Inputs, set-up, timed phases and output checks of the sdag benchmark.

Set-up trains a small router on a fixed synthetic corpus, saves and loads its
checkpoint, profiles the oracle mock pool, and draws the questions and the
training corpus from the workload seed. A run then interleaves four phases:

- train: `train_router` in the acceptance training configuration;
- offline: `evaluate()` plus `render_report(json)` in modes sdag, no_gnn and
  fcg at parallelism 1, over mock backends whose latency is simulated;
- realtime: `evaluate()` in modes sdag and fcg under a closed loop of two
  clients, over backends that sleep their scaled simulated latency;
- reference: the fixed step of reference.py, which gauges machine speed.

The benchmark calls into the package only through module attributes (for
example `evaluation.evaluate`, `training.train_router`), so a traced run can
rebind them; see spans.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from sdag import evaluation, profiling
from sdag.backends import BackendConfig, build_client
from sdag.embedding import HashedEmbedder
from sdag.errors import NonFiniteLoss
from sdag.evaluation import EvalConfig
from sdag.profiling import ModelPoolEntry
from sdag.router import checkpoint, training
from sdag.router.loss import LossConfig
from sdag.router.model import RouterDims
from sdag.router.training import TrainConfig
from sdag.subjects import SUBJECTS, QuestionRecord, Subject
from sdag.synthetic import SyntheticConfig, dag_dataset, generate_synthetic_records

from reference import NOMINAL_STEPS_PER_S, reference_step
from sleeping_backend import sleeping_client

# Acceptance-criterion-3 router dimensions and loss weights.
DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)
TRAIN_LR = 1e-3
LAMBDA_EDGE = 2.0

OFFLINE_MODES = ("sdag", "no_gnn", "fcg")
REALTIME_MODES = ("sdag", "fcg")
# Simulated latency of every mock call, and the share of it that realtime
# backends sleep: 8-12 ms a call. The mocks' default range (5-50 ms) makes the
# median question of a few hundred depend on which questions the seed drew,
# by about 10%; this narrower range keeps it within a few percent. Sleeping
# 40% of it keeps the CPU-bound share of a realtime question, which swings
# with the machine's speed, to about a fifth of its wall time.
MOCK_LATENCY_MS = (20.0, 30.0)
LATENCY_SCALE = 0.4
# Closed loop of two clients, one per core of a 2-vCPU machine.
REALTIME_CLIENTS = 2
# One request in flight per expert endpoint, so the two clients contend for
# an expert whenever their questions route to the same subject.
REALTIME_MAX_IN_FLIGHT = 1
# Set-up, training and offline evaluation serve one client and run on one
# core; the realtime phase's two clients get every core. On a virtual machine
# a thread woken on the other core waits a host-dependent time, which swung
# the offline rates by up to 2x between runs of the same code.
ALL_CPUS = frozenset(os.sched_getaffinity(0))
ONE_CPU = frozenset({min(ALL_CPUS)})
# Repeat checks need at least two runs of each timed block.
MIN_REPEATS = 2
# Criterion 7: routed accuracy must beat random model choice by this much.
MIN_ROUTING_GAP = 0.30
# Questions per offline block: small blocks give many repeats of each.
SLICE_QUESTIONS = 10
# Mock replies and latencies do not depend on the evaluation seed, so more
# seeds would only repeat the same questions.
EVAL_SEEDS = 1
TRAIN_EPOCHS = 2
# The set-up router is trained on one fixed corpus, so every workload seed
# routes its questions with the same model.
ROUTER_CORPUS_SEED = 1_000_003

SPECIALTIES = tuple(s for s in SUBJECTS if s is not Subject.OTHER)


@dataclass(frozen=True)
class Sizes:
    setup_repeats: int
    setup_samples: int
    setup_epochs: int
    setup_lr: float
    train_samples: int
    train_chunk: int
    questions: int


FULL = Sizes(
    setup_repeats=3, setup_samples=100, setup_epochs=6, setup_lr=1e-2,
    train_samples=500, train_chunk=25, questions=120,
)
# For the smoke test: every phase and check, in a few seconds.
TINY = Sizes(
    setup_repeats=2, setup_samples=100, setup_epochs=4, setup_lr=6e-3,
    train_samples=40, train_chunk=20, questions=30,
)


# -- inputs -----------------------------------------------------------------


def _slug(subject: Subject) -> str:
    return subject.value.lower().replace(" ", "-")


def oracle_backend_configs() -> list[BackendConfig]:
    """One mock per specialty: the gold label iff the question's dominant
    subject is the mock's specialty, otherwise a wrong label."""
    return [
        BackendConfig(
            name=f"mock-{_slug(s)}",
            kind="mock",
            seed=1,
            latency_ms=MOCK_LATENCY_MS,
            script=[
                {
                    "match": {"metadata": {"field": "dominant_subject", "equals": s.value}},
                    "reply": "<<{gold}>>",
                },
                {"reply": "<<{wrong}>>"},
            ],
        )
        for s in SPECIALTIES
    ]


def oracle_pool() -> list[ModelPoolEntry]:
    return [
        ModelPoolEntry(model_id=f"expert-{_slug(s)}", backend=f"mock-{_slug(s)}",
                       declared_subjects=(s,))
        for s in SPECIALTIES
    ]


def profiling_records() -> list[QuestionRecord]:
    """Two questions per specialty with that specialty dominant."""
    records = []
    for i, subject in enumerate(SPECIALTIES):
        partner = SPECIALTIES[(i + 1) % len(SPECIALTIES)]
        text = f"{subject.value.lower()} {subject.value.lower()} {partner.value.lower()}"
        for j in range(2):
            records.append(
                QuestionRecord(
                    id=f"prof-{i:02d}-{j}",
                    question=text,
                    options=["choice 1", "choice 2", "choice 3", "choice 4"],
                    gold="A",
                    subjects={subject: 0.6, partner: 0.4},
                    split="profiling",
                )
            )
    return records


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode())
        h.update(params.tensors[name].tobytes())
    return h.hexdigest()


@dataclass
class World:
    seed: int
    sizes: Sizes
    configs: list[BackendConfig]
    pool: list[ModelPoolEntry]
    questions: list[QuestionRecord]
    embedder: HashedEmbedder
    params: object
    store: object
    train_dataset: list

    def fingerprint(self) -> tuple:
        profiles = sorted(
            (m, tuple(sorted((s.value, v) for s, v in p.normalized.items())))
            for m, p in self.store.profiles.items()
        )
        return params_digest(self.params), tuple(profiles)


def set_up(seed: int, sizes: Sizes, workdir: Path) -> World:
    """Train a small router, round-trip its checkpoint, profile the pool, and
    draw the questions and the training corpus from the workload seed."""
    os.sched_setaffinity(0, ONE_CPU)
    embedder = HashedEmbedder(d=DIMS.d_q)
    corpus = generate_synthetic_records(
        SyntheticConfig(n_questions=sizes.setup_samples, seed=ROUTER_CORPUS_SEED)
    )
    config = TrainConfig(epochs=sizes.setup_epochs, lr=sizes.setup_lr, seed=0,
                         loss=LossConfig(lambda_edge=LAMBDA_EDGE))
    trained = training.train_router(dag_dataset(corpus), embedder, config, dims=DIMS)
    path = workdir / f"router-{os.getpid()}.json"
    checkpoint.save_checkpoint(trained.params, path)
    params = checkpoint.load_checkpoint(path)
    path.unlink()
    configs = oracle_backend_configs()
    pool = oracle_pool()
    store = profiling.run_profiling(pool, profiling_records(), build_client(configs), seed=seed)
    questions = generate_synthetic_records(
        SyntheticConfig(n_questions=sizes.questions, seed=2 * seed)
    )
    train_records = generate_synthetic_records(
        SyntheticConfig(n_questions=sizes.train_samples, seed=2 * seed + 1)
    )
    return World(
        seed=seed, sizes=sizes, configs=configs, pool=pool, questions=questions,
        embedder=embedder, params=params, store=store,
        train_dataset=dag_dataset(train_records),
    )


def gauge(seconds: float) -> float:
    """Machine speed relative to the nominal machine of reference.py, from
    reference steps run for about `seconds` on the set-up core."""
    os.sched_setaffinity(0, ONE_CPU)
    steps, start = 0, time.perf_counter()
    while steps < 10 or time.perf_counter() - start < seconds:
        reference_step()
        steps += 1
    return steps / (time.perf_counter() - start) / NOMINAL_STEPS_PER_S


# Reference steps run before and after each set-up to gauge the machine.
SETUP_GAUGE_S = 0.1


def set_up_timed(seed: int, sizes: Sizes, workdir: Path, repeats: int):
    """Set up `repeats` times. Returns each set-up's time scaled to the
    nominal machine by the speed gauged around it, the world, and any
    problems: every repeat must build an identical router and profiles."""
    nominal, world, problems = [], None, []
    for _ in range(repeats):
        before = gauge(SETUP_GAUGE_S)
        start = time.perf_counter()
        fresh = set_up(seed, sizes, workdir)
        elapsed = time.perf_counter() - start
        nominal.append(elapsed * (before + gauge(SETUP_GAUGE_S)) / 2)
        if world is None:
            world = fresh
        elif fresh.fingerprint() != world.fingerprint():
            problems.append("setup: router or profiles differ between repeats")
    return nominal, world, problems


# -- timed phases -----------------------------------------------------------


@dataclass
class Block:
    """One timed unit of work: a training run, or one evaluate() call."""

    seconds: float
    ops: int
    # Per-question wall times of a realtime block.
    walls: list[float] = field(default_factory=list)


@dataclass
class Measurement:
    reference: list[Block] = field(default_factory=list)
    train: list[Block] = field(default_factory=list)
    # Offline blocks per mode, keyed by which slice of the questions they ran.
    offline: dict[str, dict[int, list[Block]]] = field(default_factory=dict)
    realtime: dict[str, list[Block]] = field(default_factory=dict)
    # The scaled simulated critical path of each realtime question, per mode,
    # in the order of the blocks' wall times.
    rt_paths: dict[str, list[float]] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)
    calls: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def rt_walls(self, mode: str) -> list[float]:
        return [w for b in self.realtime[mode] for w in b.walls]

    def offline_ops(self, mode: str) -> int:
        return sum(b.ops for blocks in self.offline[mode].values() for b in blocks)

    def count_outcomes(self, report) -> None:
        """A question fails if any of its nodes failed or no answer came out."""
        for o in report.outcomes:
            self.attempted += 1
            if o.answer is None or any(r["failed"] for r in o.trace):
                self.failed += 1


def _router_kwargs(world: World) -> dict:
    return dict(params=world.params, embedder=world.embedder, store=world.store)


class Phase:
    """A unit of work that `measure` repeats; `step` runs one timed block."""

    name = ""
    cpus = ONE_CPU

    def __init__(self, world: World, m: Measurement, tracer):
        self.world, self.m, self.tracer = world, m, tracer
        self.steps = 0
        self.spent = 0.0

    def run_step(self) -> None:
        os.sched_setaffinity(0, self.cpus)
        start = time.perf_counter()
        self.step()
        self.steps += 1
        self.spent += time.perf_counter() - start

    def tag(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = label

    def finish(self) -> None:
        """Checks that need every block; run once after the last one."""


class ReferencePhase(Phase):
    """The fixed reference step, timed between the program's blocks."""

    name = "reference"
    steps_per_block = 10

    def minimum_met(self) -> bool:
        return self.steps >= MIN_REPEATS

    def step(self) -> None:
        self.tag("reference")
        start = time.perf_counter()
        for _ in range(self.steps_per_block):
            reference_step()
        self.m.reference.append(Block(time.perf_counter() - start, self.steps_per_block))


class TrainPhase(Phase):
    """`train_router` in the acceptance configuration on successive chunks of
    the training corpus. Chunk 0 is trained first and again last, and both
    runs must be bit-identical."""

    name = "train"

    def __init__(self, world, m, tracer):
        super().__init__(world, m, tracer)
        self.config = TrainConfig(epochs=TRAIN_EPOCHS, lr=TRAIN_LR, seed=world.seed,
                                  loss=LossConfig(lambda_edge=LAMBDA_EDGE))
        data, size = world.train_dataset, world.sizes.train_chunk
        self.chunks = [data[i:i + size] for i in range(0, len(data), size)]
        self.first = None

    def minimum_met(self) -> bool:
        return self.steps >= MIN_REPEATS

    def _train(self, index: int):
        self.tag("train")
        m = self.m
        start = time.perf_counter()
        try:
            result = training.train_router(self.chunks[index], self.world.embedder,
                                           self.config, dims=DIMS)
        except NonFiniteLoss as exc:
            m.attempted += 1
            m.failed += 1
            m.problems.append(f"train chunk {index}: {exc}")
            return None
        m.train.append(Block(time.perf_counter() - start, result.steps))
        m.attempted += result.steps
        curve = result.loss_curve
        if not curve[-1] < curve[0]:
            m.problems.append(f"train chunk {index}: final-epoch loss {curve[-1]} "
                              f"not below first {curve[0]}")
        return params_digest(result.params), curve

    def step(self) -> None:
        outcome = self._train(self.steps % len(self.chunks))
        if self.steps == 0:
            self.first = outcome

    def finish(self) -> None:
        if self._train(0) != self.first:
            self.m.problems.append("train: parameters or loss curve differ between "
                                   "repeats of chunk 0")


class OfflinePhase(Phase):
    """evaluate() plus render_report(json), one slice of the questions and one
    mode per block. The first round records each question's answer, call
    count and simulated critical path as the reference for realtime."""

    name = "offline"

    def __init__(self, world, m, tracer):
        super().__init__(world, m, tracer)
        self.slices = [world.questions[i:i + SLICE_QUESTIONS]
                       for i in range(0, len(world.questions), SLICE_QUESTIONS)]
        self.order = [(i, mode) for i in range(len(self.slices)) for mode in OFFLINE_MODES]
        self.digests: dict[tuple[int, str], str] = {}
        self.reference: dict = {}
        for mode in OFFLINE_MODES:
            m.offline[mode] = {i: [] for i in range(len(self.slices))}

    def covered(self) -> bool:
        return self.steps >= len(self.order)

    def minimum_met(self) -> bool:
        return self.steps >= MIN_REPEATS * len(self.order)

    def step(self) -> None:
        index, mode = self.order[self.steps % len(self.order)]
        self.tag(f"offline.{mode}")
        world, m = self.world, self.m
        client = build_client(world.configs)
        cfg = EvalConfig(mode=mode, seeds=EVAL_SEEDS)
        start = time.perf_counter()
        report = evaluation.evaluate(self.slices[index], client, world.pool, cfg,
                                     **_router_kwargs(world))
        text = evaluation.render_report(report, "json")
        m.offline[mode][index].append(Block(time.perf_counter() - start, len(report.outcomes)))
        m.count_outcomes(report)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (index, mode) not in self.digests:
            self.digests[index, mode] = digest
            for o in report.outcomes:
                self.reference[mode, o.seed, o.question_id] = o
        elif digest != self.digests[index, mode]:
            m.problems.append(f"offline {mode}: JSON report of slice {index} differs "
                              "between repeats")

    def finish(self) -> None:
        """Accuracy per mode, and the criterion-7 gap over random model choice."""
        world, m = self.world, self.m
        for mode in OFFLINE_MODES:
            first = [o for (mo, _, _), o in self.reference.items() if mo == mode]
            m.accuracy[mode] = sum(o.correct for o in first) / len(first)
            m.calls[mode] = sum(o.llm_calls for o in first) / len(first)
        self.tag("check")
        random_report = evaluation.evaluate(
            world.questions, build_client(world.configs), world.pool,
            EvalConfig(mode="random_model", seeds=EVAL_SEEDS),
        )
        m.accuracy["random_model"] = random_report.accuracy_mean
        if m.accuracy["no_gnn"] != 1.0:
            m.problems.append(f"offline no_gnn: accuracy {m.accuracy['no_gnn']} on the "
                              "oracle pool, not 1.0")
        gap = m.accuracy["sdag"] - m.accuracy["random_model"]
        if gap < MIN_ROUTING_GAP:
            m.problems.append(f"offline sdag: accuracy gap over random_model {gap:.3f} "
                              f"< {MIN_ROUTING_GAP}")


class RealtimePhase(Phase):
    """All questions under a closed loop of two clients over sleeping
    backends, one mode per block. Every answer and call count must equal the
    offline reference."""

    name = "realtime"
    cpus = ALL_CPUS

    def __init__(self, world, m, tracer, reference: dict):
        super().__init__(world, m, tracer)
        self.reference = reference
        self.configs = [dataclasses.replace(c, max_in_flight=REALTIME_MAX_IN_FLIGHT)
                        for c in world.configs]
        for mode in REALTIME_MODES:
            m.realtime[mode], m.rt_paths[mode] = [], []

    def minimum_met(self) -> bool:
        return self.steps >= MIN_REPEATS * len(REALTIME_MODES)

    def step(self) -> None:
        mode = REALTIME_MODES[self.steps % len(REALTIME_MODES)]
        self.tag(f"realtime.{mode}")
        world, m = self.world, self.m
        client = sleeping_client(self.configs, LATENCY_SCALE)
        cfg = EvalConfig(mode=mode, seeds=EVAL_SEEDS, parallelism=REALTIME_CLIENTS)
        start = time.perf_counter()
        report = evaluation.evaluate(world.questions, client, world.pool, cfg,
                                     **_router_kwargs(world))
        block = Block(time.perf_counter() - start, len(report.outcomes),
                      [o.wall_time for o in report.outcomes])
        m.realtime[mode].append(block)
        m.count_outcomes(report)
        for o in report.outcomes:
            offline = self.reference[mode, o.seed, o.question_id]
            if (o.answer, o.llm_calls) != (offline.answer, offline.llm_calls):
                m.problems.append(
                    f"realtime {mode}: seed {o.seed} {o.question_id} answered {o.answer!r} "
                    f"in {o.llm_calls} calls, offline {offline.answer!r} in {offline.llm_calls}"
                )
            m.rt_paths[mode].append(LATENCY_SCALE * offline.wall_time)


PRIMARY = {"train": "train", "eval_offline": "offline", "eval_realtime": "realtime"}
REFERENCE_SHARE = 0.1


def measure(world: World, workload: str, seconds: float, tracer=None) -> Measurement:
    """Run the three phases for `seconds` in all, interleaved block by block.

    The reference step gets a tenth of the time, the workload's own phase
    half of the rest and each other phase a quarter. Interleaving spreads
    every phase's blocks over the whole run, so a slow spell of the machine
    hits all phases and the reference alike."""
    m = Measurement()
    offline = OfflinePhase(world, m, tracer)
    while not offline.covered():
        offline.run_step()
    phases = [offline, RealtimePhase(world, m, tracer, offline.reference),
              TrainPhase(world, m, tracer), ReferencePhase(world, m, tracer)]
    rest = 1 - REFERENCE_SHARE
    share = {p.name: rest * (0.5 if p.name == PRIMARY[workload] else 0.25) for p in phases}
    share["reference"] = REFERENCE_SHARE
    deadline = time.perf_counter() + seconds - offline.spent
    while True:
        pending = [p for p in phases if not p.minimum_met()]
        if not pending and time.perf_counter() >= deadline:
            break
        choice = pending or phases
        min(choice, key=lambda p: p.spent / share[p.name]).run_step()
    for p in phases:
        p.finish()
    os.sched_setaffinity(0, ALL_CPUS)
    return m


# -- end-to-end metrics -----------------------------------------------------


def median_rate(blocks_by_slice: dict) -> float:
    """Operations per second with each slice of work at its median repeat.

    Slices run different inputs, so each contributes its own median time."""
    ops = sum(blocks[0].ops for blocks in blocks_by_slice.values())
    return ops / sum(statistics.median(b.seconds for b in blocks)
                     for blocks in blocks_by_slice.values())


def total_rate(blocks: list[Block]) -> float:
    return sum(b.ops for b in blocks) / sum(b.seconds for b in blocks)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that leaves at
    least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def block_tail(blocks: list[Block]) -> tuple[float, float, int, int]:
    """(value, percentile, samples per block, blocks): the median over blocks
    of each block's tail. A slow spell of the machine inflates the tail of
    the blocks it hits; the median over blocks is steady against that."""
    tails = [tail(b.walls) for b in blocks]
    _, pct, n = tails[0]
    return statistics.median(t[0] for t in tails), pct, n, len(tails)


def speed(m: Measurement) -> float:
    """How fast the machine ran during the measurement, relative to the
    nominal machine of reference.py."""
    return median_rate({0: m.reference}) / NOMINAL_STEPS_PER_S


def end_to_end(setup_nominal: list[float], m: Measurement, peak_rss_mb: float) -> dict:
    """Set-up time and the CPU-bound rates are scaled to the nominal machine;
    realtime figures are mostly waiting and are reported as measured."""
    s = speed(m)
    metrics = {
        "setup_s": (statistics.median(setup_nominal), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # Training cost per step does not depend on which chunk is trained.
        "train_samples_per_s": (median_rate({0: m.train}) / s, "1/s"),
    }
    for mode in OFFLINE_MODES:
        metrics[f"qps.{mode}"] = (median_rate(m.offline[mode]) / s, "1/s")
    for mode in REALTIME_MODES:
        metrics[f"rt_qps.{mode}"] = (total_rate(m.realtime[mode]), "1/s")
    for mode in REALTIME_MODES:
        metrics[f"rt_p50_ms.{mode}"] = (1000 * statistics.median(m.rt_walls(mode)), "ms")
    for mode in REALTIME_MODES:
        metrics[f"rt_tail_ms.{mode}"] = (1000 * block_tail(m.realtime[mode])[0], "ms")
    return metrics
