"""Benchmark harness: run a question set through a routing mode and report.

Modes mirror the ablation grid: full routing (sdag), annotation-derived
graphs without the router (no_gnn), fully connected execution (fcg), random
model assignment (random_model), and a single-model chain-of-thought
baseline (single_cot). Accuracy is averaged over seeded trials; wall time
per question is the simulated critical path when every backend is a mock,
or measured time otherwise, from when a worker starts the question, so time
spent pending is not counted. Every question's DAG is built once, before the
first seed runs; the router takes the questions in stacked chunks of
ROUTE_CHUNK, so measured time never includes routing. Each question's models,
and so the backends it calls, are chosen before any question of its seed
runs.

With parallelism above 1, a free worker takes the oldest pending question
whose backends all have a free `max_in_flight` slot, looking no further than
the DISPATCH_SCAN oldest, else the oldest pending one. Outcomes are reported
in question order whichever order they ran in, so the report's bytes do not
depend on it. Once a question raises, no further question starts, and the
first error propagates once the questions in flight have finished.

Each `evaluate()` call owns at most one thread pool, built only when a
question needs a thread: with parallelism above 1, or with a live backend in
any mode but single_cot. The question workers besides the caller's thread
and the nodes of live plans share it. Each question in flight holds one
thread that waits on its plan, plus at most MAX_DAG_NODES running nodes, so
the pool has parallelism x (MAX_DAG_NODES + 1) - 1 workers.

The JSON report is `json.dumps(report.to_dict(), sort_keys=True, indent=2)`,
byte for byte. A writer that knows the report's schema hands each outcome's
scalar fields and its whole trace list to the C encoder in one call each and
re-pads the text between trace records; a report of any other shape, or a
run without the C encoder, is written by json.dumps itself.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import json.encoder
import logging
import threading
import time
from collections import deque
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .backends import ChatClient
from .errors import EmptySplit
from .orchestrator import (
    ExecutionTrace,
    execute_dag,
    execute_fcg,
    execute_single_cot,
)
from .profiling import ModelPoolEntry, ProfileStore, check_pool_backends, selection_map
from .router.generation import GenerationConfig, generate_sdag
from .subjects import MAX_DAG_NODES, SUBJECTS, QuestionRecord, answer_key, build_ground_truth_dag

logger = logging.getLogger(__name__)

MODES = ("sdag", "no_gnn", "fcg", "random_model", "single_cot")

# Questions per stacked router call. At the benchmark dims the routing time per
# question stops falling at about this size; larger stacks only hold more memory.
ROUTE_CHUNK = 32

# A free worker looks at no more than this many of the oldest pending
# questions for one whose backends are free, so taking a question costs the
# same however many are pending.
DISPATCH_SCAN = 16


@dataclass(frozen=True)
class EvalConfig:
    mode: str
    seeds: int = 3
    parallelism: int = 1
    single_cot_model: str | None = None
    generation: GenerationConfig = field(default_factory=GenerationConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class QuestionOutcome:
    seed: int
    question_id: str
    answer: str | None
    gold: str
    correct: bool
    llm_calls: int
    wall_time: float
    trace: list[dict]


@dataclass
class EvalReport:
    mode: str
    seeds: int
    questions: int
    accuracy_mean: float
    accuracy_std: float
    avg_seconds: float
    avg_calls: float
    total_llm_calls: int
    outcomes: list[QuestionOutcome]

    def to_dict(self) -> dict:
        """The report as JSON-ready data: its fields and each outcome's."""
        return {**vars(self), "outcomes": [dict(vars(o)) for o in self.outcomes]}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# Looked up by name for every question, so a tracer can rebind it to mark
# which question the calling thread is working on.
_extra_metadata = answer_key


def evaluate(
    records: list[QuestionRecord],
    client: ChatClient,
    pool: list[ModelPoolEntry],
    cfg: EvalConfig,
    params=None,
    embedder=None,
    store: ProfileStore | None = None,
) -> EvalReport:
    """Run every question under every seed in the configured mode.

    When every backend is a mock, only random_model's outcomes can differ
    between seeds: mock replies and latencies are pure functions of the
    request, and no request carries the seed. So under mocks every other
    mode runs seed 0 only, and each later seed repeats its outcomes (sharing
    their trace records) with only `seed` changed.
    """
    if not records:
        raise EmptySplit("no questions to evaluate")
    if not pool:
        raise ValueError("empty model pool")
    check_pool_backends(pool, client.backends)
    records = sorted(records, key=lambda r: r.id)
    pool_backends = {e.model_id: e.backend for e in pool}
    model_ids = sorted(pool_backends)

    # sdag always routes; fcg and random_model route when given a checkpoint,
    # and otherwise build their DAGs from the annotations, as no_gnn does.
    routed = params is not None and cfg.mode in ("sdag", "fcg", "random_model")
    _require(embedder is not None if routed else cfg.mode != "sdag",
             f"{cfg.mode} mode needs a router checkpoint and its embedder")
    _require(store is not None or cfg.mode not in ("sdag", "no_gnn", "fcg"),
             f"{cfg.mode} mode needs capability profiles")
    _require(routed or cfg.mode == "single_cot" or all(r.subjects for r in records),
             f"{cfg.mode} mode without a routed DAG needs subject annotations")
    single_cot_model = cfg.single_cot_model or model_ids[0]
    _require(cfg.mode != "single_cot" or single_cot_model in pool_backends,
             f"single_cot model {single_cot_model!r} is not in the pool")
    # Profiles are fixed for the whole run, so every subject's model is chosen
    # once; a question then only looks its subjects up.
    table = (
        selection_map(list(SUBJECTS), store)
        if cfg.mode in ("sdag", "no_gnn", "fcg") else None
    )

    # A question's DAG does not depend on the seed, so every DAG is built once,
    # up front. The router path never consults stored annotations; the
    # annotation path never consults the router. Fully connected execution
    # reads only the nodes, so fcg scores no edges.
    if cfg.mode == "single_cot":
        dags = []  # one model answers without a DAG
    elif not routed:
        dags = [build_ground_truth_dag(r.subjects) for r in records]
    else:
        dags = [
            dag
            for start in range(0, len(records), ROUTE_CHUNK)
            for dag in generate_sdag(
                [r.question for r in records[start : start + ROUTE_CHUNK]],
                params, embedder, cfg.generation, edges=cfg.mode != "fcg",
            )
        ]

    def select(seed: int) -> list[dict]:
        """Each question's subject -> model map: from the table, or in
        random_model one seeded draw per subject; None in single_cot."""
        if cfg.mode == "single_cot":
            return [None] * len(records)
        if cfg.mode != "random_model":
            return [{s: table[s] for s in dag.subjects()} for dag in dags]
        selections = []
        for index, dag in enumerate(dags):
            rng = np.random.default_rng([seed, index])
            selections.append(
                {s: model_ids[int(rng.integers(0, len(model_ids)))] for s in dag.subjects()}
            )
        return selections

    def run_question(seed: int, index: int, selection: dict | None) -> QuestionOutcome:
        record = records[index]
        started = time.monotonic()
        extra = _extra_metadata(record)
        if cfg.mode == "single_cot":
            trace: ExecutionTrace = execute_single_cot(
                record, single_cot_model, pool_backends[single_cot_model], client,
                extra_metadata=extra,
            )
        elif cfg.mode == "fcg":
            trace = execute_fcg(
                dags[index].nodes, record, selection, pool_backends, client,
                extra_metadata=extra, executor=executor,
            )
        else:
            trace = execute_dag(
                dags[index], record, selection, pool_backends, client,
                extra_metadata=extra, executor=executor,
            )
        wall = trace.wall_time if trace.simulated else time.monotonic() - started
        answer = trace.final_answer
        return QuestionOutcome(
            seed=seed,
            question_id=record.id,
            answer=answer,
            gold=record.gold,
            correct=answer == record.gold,
            llm_calls=trace.llm_calls,
            wall_time=wall,
            trace=[r.to_dict() for r in trace.records],
        )

    distinct_seeds = (
        cfg.seeds if cfg.mode == "random_model" or not client.all_simulated else 1
    )
    outcomes: list[QuestionOutcome] = []
    per_seed_accuracy: list[float] = []
    live_plans = not client.all_simulated and cfg.mode != "single_cot"
    executor = (
        ThreadPoolExecutor(max_workers=cfg.parallelism * (MAX_DAG_NODES + 1) - 1)
        if cfg.parallelism > 1 or live_plans else None
    )
    try:
        for seed in range(cfg.seeds):
            if seed >= distinct_seeds:
                seed_outcomes = [
                    dataclasses.replace(o, seed=seed) for o in outcomes[: len(records)]
                ]
            else:
                selections = select(seed)
                if cfg.parallelism == 1:
                    seed_outcomes = [
                        run_question(seed, i, selection) for i, selection in enumerate(selections)
                    ]
                else:
                    if cfg.mode == "single_cot":
                        needs = [(pool_backends[single_cot_model],)] * len(records)
                    else:
                        # A model outside the pool fails when its question runs.
                        needs = [
                            tuple({pool_backends[m] for m in sel.values() if m in pool_backends})
                            for sel in selections
                        ]
                    seed_outcomes = _dispatch(
                        lambda i: run_question(seed, i, selections[i]),
                        needs, client.max_in_flight, cfg.parallelism, executor,
                    )
            per_seed_accuracy.append(
                sum(1 for o in seed_outcomes if o.correct) / len(seed_outcomes)
            )
            outcomes.extend(seed_outcomes)
    finally:
        if executor is not None:
            executor.shutdown()

    return EvalReport(
        mode=cfg.mode,
        seeds=cfg.seeds,
        questions=len(records),
        accuracy_mean=float(np.mean(per_seed_accuracy)),
        accuracy_std=float(np.std(per_seed_accuracy)),
        avg_seconds=float(np.mean([o.wall_time for o in outcomes])),
        avg_calls=float(np.mean([o.llm_calls for o in outcomes])),
        total_llm_calls=int(sum(o.llm_calls for o in outcomes)),
        outcomes=outcomes,
    )


def _dispatch(run, needs: list[tuple[str, ...]], limits: dict[str, int],
              workers: int, executor: Executor) -> list:
    """`[run(i) for i in range(len(needs))]`, run by `workers` worker loops:
    one on the caller's thread and the rest on `executor`, but no more loops
    than questions.

    `needs[i]` names the backends that question i calls, and `limits` gives
    each backend's max_in_flight. Under one lock, a free worker takes the
    oldest pending question whose backends all hold fewer reservations than
    their limit, among the DISPATCH_SCAN oldest; if there is none, it takes
    the oldest pending question. It reserves that question's backends until
    the question returns. So a worker starts a question that can call at
    once, not one that would wait at a gate held by another worker's
    question. When every question needs the same backends, the order is
    first in, first out.

    Once a question raises, no worker starts another. Questions in flight
    finish, and then the first error raised propagates unchanged.
    """
    results: list = [None] * len(needs)
    pending = deque(range(len(needs)))
    held = dict.fromkeys(limits, 0)
    errors: list[BaseException] = []
    lock = threading.Lock()

    def take() -> int:
        for place, i in zip(range(DISPATCH_SCAN), pending):
            if all(held[b] < limits[b] for b in needs[i]):
                break
        else:
            place, i = 0, pending[0]
        del pending[place]
        for b in needs[i]:
            held[b] += 1
        return i

    def work() -> None:
        while True:
            with lock:
                if errors or not pending:
                    return
                i = take()
            try:
                results[i] = run(i)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
            finally:
                with lock:
                    for b in needs[i]:
                        held[b] -= 1

    loops = [executor.submit(work) for _ in range(min(workers, len(needs)) - 1)]
    work()
    for loop in loops:
        loop.result()
    if errors:
        raise errors[0]
    return results


_SCALARS = frozenset({str, int, float, bool, type(None)})
_LIST, _DICT = frozenset({list}), frozenset({dict})


@functools.lru_cache(maxsize=None)  # one entry per indentation
def _c_encoder(inner: str):
    """The C encoder that writes a container of scalars with each item on its
    own line at indentation `inner`, as json.dumps would with indent=2."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + inner, True, False, True,
    )


def _trace_json(trace: list[dict], encode) -> str:
    """One outcome's checked trace list, as `_report_json` writes it with
    `encode`, the C encoder at the indentation of its records."""
    if not trace:
        return "[]"
    body = "".join(encode(trace, 0))[2:-2]
    return ("[\n        {\n          "
            + body.replace("},\n          {", "\n        },\n        {\n          ")
            + "\n        }\n      ]")


def _report_json(report: EvalReport) -> str:
    """Exactly `json.dumps(report.to_dict(), sort_keys=True, indent=2)`.

    CPython's C encoder cannot indent, so json.dumps runs its pure-Python
    encoder. This writer knows the report's shape instead, whose dict keys are
    its dataclasses' fields: the C encoder writes the report's scalar fields
    in one call, and per outcome its scalar fields in one call and its whole
    trace list in another, each with the item separator at the indentation of
    its items; a placeholder 0 holds the place of the outcomes and of each
    trace. Escaped strings hold no raw newline, so the separators are the only
    line breaks, and the text between two trace records is the one place
    where `},` precedes one: re-padding there gives the indented form. A
    trace list that several outcomes share, as every seed shares seed 0's
    under all-mock clients, is checked and written once. Any
    other shape (a container among the scalar fields or inside a trace record,
    an empty or non-dict record, a value of another type) is written by
    json.dumps, as is every report when the C encoder is missing.
    """
    head = {**vars(report), "outcomes": 0}
    fields = [{**vars(o), "trace": 0} for o in report.outcomes]
    traces = [o.trace for o in report.outcomes]
    # Keyed by identity; `traces` keeps every list alive, so no id is reused.
    distinct = {id(trace): trace for trace in traces}
    lists = _LIST.issuperset(map(type, distinct.values()))
    records = [*chain.from_iterable(distinct.values())] if lists else []
    if (json.encoder.c_make_encoder is None or not lists or not all(records)
            or not _DICT.issuperset(map(type, records))
            or not _SCALARS.issuperset(map(type, chain(
                head.values(), chain.from_iterable(map(dict.values, fields)),
                chain.from_iterable(map(dict.values, records)))))):
        return json.dumps(report.to_dict(), sort_keys=True, indent=2)
    encode_field, encode_trace = _c_encoder(" " * 6), _c_encoder(" " * 10)
    texts = {key: _trace_json(trace, encode_trace) for key, trace in distinct.items()}
    out = []
    for field_map, trace in zip(fields, traces):
        before, _, after = "".join(encode_field(field_map, 0)).partition(
            ',\n      "trace": 0,\n      ')
        out += ("{\n      ", before[1:], ',\n      "trace": ', texts[id(trace)], ",\n      ",
                after[:-1], "\n    },\n    ")
    if out:  # the first outcome opens the list and the last one closes it
        out[0], out[-1] = "[\n    {\n      ", "\n    }\n  ]"
    before, _, after = "".join(_c_encoder("  ")(head, 0)).partition(',\n  "outcomes": 0,\n  ')
    return "".join(["{\n  ", before[1:], ',\n  "outcomes": ', *(out or ["[]"]), ",\n  ",
                    after[:-1], "\n}"])


def render_report(report: EvalReport, format: str = "text") -> str:
    """Table-shaped text summary, or canonical JSON (byte-stable)."""
    if format == "json":
        return _report_json(report) + "\n"
    if format != "text":
        raise ValueError(f"unknown report format: {format!r}")
    header = ("Variant", "Accuracy", "Inf. Time", "#LLM Calls")
    row = (
        report.mode,
        f"{report.accuracy_mean * 100:.2f} ± {report.accuracy_std * 100:.2f}",
        f"{report.avg_seconds:.2f}",
        f"{report.avg_calls:.1f}",
    )
    widths = [max(len(h), len(c)) for h, c in zip(header, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(),
    ]
    return "\n".join(lines) + "\n"
