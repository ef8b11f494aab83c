"""In-memory spans around the calls the benchmark makes into each layer.

A traced run rebinds the module and class attributes that the program calls
through (for example `sdag.evaluation.execute_dag`, `sdag.router.loss.backward`
and `sdag.orchestrator.ThreadPoolExecutor`) to timing wrappers, and restores
them when it ends. Nothing in the package is edited, and an untraced run never
installs a wrapper. Each call records one span: name, start, end, parent span,
question id, and the benchmark phase it ran in. Spans stay in memory until the
run writes them out.

Parent and question id follow the calling thread. The wrapped thread pools
carry them into their worker threads, so a node call made on an executor
thread is a child of the `execute_*` span that submitted it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    question: str | None
    phase: str
    ok: bool
    info: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dag_size(dag) -> tuple[int, int]:
    return len(dag.nodes), len(dag.edges)


def _attempts(response) -> int:
    return response.attempts


# (module, attribute path, span name, summary of the return value)
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("sdag.embedding", "HashedEmbedder.embed", "embedding.embed", None),
    ("sdag.router.model", "route", "router.model.route", None),
    ("sdag.router.loss", "ForwardTape", "router.model.forward", None),
    ("sdag.router.loss", "backward", "router.loss.backward", None),
    ("sdag.router.training", "loss_and_gradients", "router.loss.step", None),
    ("sdag.router.training", "train", "router.training.train", None),
    ("sdag.router.training", "train_router", "router.training.train_router", None),
    ("sdag.router.generation", "assemble_dag", "router.generation.assemble_dag", _dag_size),
    ("sdag.evaluation", "generate_sdag", "router.generation.generate_sdag", None),
    ("sdag.router.checkpoint", "save_checkpoint", "router.checkpoint.save", None),
    ("sdag.router.checkpoint", "load_checkpoint", "router.checkpoint.load", None),
    ("sdag.profiling", "run_profiling", "profiling.run", None),
    ("sdag.evaluation", "selection_map", "profiling.select", None),
    ("sdag.evaluation", "execute_dag", "orchestrator.execute_dag", None),
    ("sdag.evaluation", "execute_fcg", "orchestrator.execute_fcg", None),
    ("sdag.backends", "ChatClient.complete", "backends.complete", _attempts),
    ("sdag.backends", "MockBackend.complete", "backends.backend_call", None),
    ("sleeping_backend", "SleepingBackend.complete", "backends.backend_call", None),
    ("sdag.evaluation", "evaluate", "evaluation.evaluate", None),
    ("sdag.evaluation", "render_report", "evaluation.render_report", None),
)

# Thread pools whose constructions are counted and whose workers inherit the
# submitting thread's span context.
POOLS = (
    ("sdag.orchestrator", "ThreadPoolExecutor", "orchestrator.pool"),
    ("sdag.evaluation", "ThreadPoolExecutor", "evaluation.pool"),
)

# `evaluate` calls this first for every question; the hook marks which
# question the calling thread is working on.
QUESTION_HOOK = ("sdag.evaluation", "_extra_metadata")


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _context(self) -> tuple[int | None, str | None]:
        local = self._local
        return getattr(local, "parent", None), getattr(local, "question", None)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[(name, self.phase)] += 1

    def wrap(self, name: str, fn: Callable, summary: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            parent, question = tracer._context()
            if parent is None:
                # A root span starts outside any question.
                local.question = question = None
            span_id = next(tracer._ids)
            local.parent = span_id
            phase = tracer.phase
            ok, info = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if summary is not None:
                    info = summary(result)
                return result
            finally:
                end = time.perf_counter()
                local.parent = parent
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, question, phase, ok, info)
                )

        # `updated=()` because `fn` may be a class (ForwardTape).
        return functools.update_wrapper(traced, fn, updated=())

    def _pool_class(self, base: type, count_name: str) -> type:
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.count(count_name)
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                parent, question = tracer._context()

                def in_context():
                    local = tracer._local
                    saved = tracer._context()
                    local.parent, local.question = parent, question
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        local.parent, local.question = saved

                return super().submit(in_context)

        return TracedPool

    def _question_hook(self, fn: Callable) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def mark_question(record, *args, **kwargs):
            local.question = record.id
            return fn(record, *args, **kwargs)

        return mark_question

    # -- installation -------------------------------------------------------

    def _rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Rebind every hooked attribute; raises if one no longer exists."""
        for module_name, path, name, summary in HOOKS:
            owner, attr = _resolve(module_name, path)
            self._rebind(owner, attr, self.wrap(name, getattr(owner, attr), summary))
        for module_name, path, name in POOLS:
            owner, attr = _resolve(module_name, path)
            self._rebind(owner, attr, self._pool_class(getattr(owner, attr), name))
        owner, attr = _resolve(*QUESTION_HOOK)
        self._rebind(owner, attr, self._question_hook(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(s._asdict()) + "\n")


# -- analysis ---------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanIndex:
    """Spans grouped by name and by parent, with self time per span."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def select(self, name: str, phases: tuple[str, ...] | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name and (phases is None or s.phase in phases)]

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, [])
        return span.duration - covered([(k.start, k.end) for k in kids], span.start, span.end)
