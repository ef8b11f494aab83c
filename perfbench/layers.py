"""Per-layer metrics from the spans of a traced run.

Times are means per call unless named `self_*`; a self time is a span's
duration minus the part of it that its child spans cover. Each metric is
listed with the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics

from harness import OFFLINE_MODES, REALTIME_MODES, Measurement
from spans import SpanIndex, Tracer

OFFLINE = tuple(f"offline.{mode}" for mode in OFFLINE_MODES)
REALTIME = tuple(f"realtime.{mode}" for mode in REALTIME_MODES)
ROUTED = ("offline.sdag", "offline.fcg")


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def per_layer(tracer: Tracer, m: Measurement) -> dict[str, tuple[float, str]]:
    idx = SpanIndex(tracer.spans)

    def mean_us(name, phases):
        return 1e6 * _mean(s.duration for s in idx.select(name, phases))

    def self_us(names, phases):
        return 1e6 * sum(idx.self_time(s) for n in names for s in idx.select(n, phases))

    steps = len(idx.select("router.loss.step", ("train",)))
    dags = [s.info for s in idx.select("router.generation.assemble_dag", ROUTED)]
    completes = idx.select("backends.complete")
    gate_waits = [
        min(k.start for k in idx.children[s.id]) - s.start
        for s in idx.select("backends.complete", REALTIME)
        if s.id in idx.children
    ]
    all_offline = sum(m.offline_ops(mode) for mode in OFFLINE_MODES)

    metrics = {
        # qps.sdag
        "embedding.embed_us": (mean_us("embedding.embed", ROUTED), "us"),
        # qps.sdag, qps.fcg, rt_p50_ms.sdag
        "router.model.route_us": (mean_us("router.model.route", ROUTED), "us"),
        # train_samples_per_s
        "router.model.forward_us": (mean_us("router.model.forward", ("train",)), "us"),
        "router.loss.backward_us": (mean_us("router.loss.backward", ("train",)), "us"),
        "router.loss.step_us": (mean_us("router.loss.step", ("train",)), "us"),
        "router.training.optimizer_us": (
            self_us(["router.training.train"], ("train",)) / max(steps, 1), "us"),
        # qps.sdag; DAG size sets the number of backend calls
        "router.generation.assemble_us": (
            mean_us("router.generation.assemble_dag", ROUTED), "us"),
        "router.generation.nodes_per_dag": (_mean(n for n, _ in dags), "count"),
        "router.generation.edges_per_dag": (_mean(e for _, e in dags), "count"),
        # setup_s
        "router.checkpoint.load_ms": (
            mean_us("router.checkpoint.load", ("setup",)) / 1000, "ms"),
        "profiling.run_ms": (mean_us("profiling.run", ("setup",)) / 1000, "ms"),
        # qps.*
        "profiling.select_us": (mean_us("profiling.select", OFFLINE), "us"),
    }
    for mode in OFFLINE_MODES:
        # qps.no_gnn, qps.fcg
        phase = (f"offline.{mode}",)
        executes = ["orchestrator.execute_dag", "orchestrator.execute_fcg"]
        n_exec = sum(len(idx.select(n, phase)) for n in executes)
        metrics[f"orchestrator.self_us.{mode}"] = (self_us(executes, phase) / max(n_exec, 1), "us")
    for mode in OFFLINE_MODES:
        pools = tracer.counts[("orchestrator.pool", f"offline.{mode}")]
        metrics[f"orchestrator.pools_per_question.{mode}"] = (
            pools / m.offline_ops(mode), "count")
    for mode in REALTIME_MODES:
        # rt_p50_ms.*: measured wall time minus the scaled simulated critical path
        over = [w - p for w, p in zip(m.rt_walls(mode), m.rt_paths[mode])]
        metrics[f"orchestrator.overhead_ms.{mode}"] = (1000 * _mean(over), "ms")
    # qps.fcg
    metrics["backends.complete_us"] = (mean_us("backends.complete", OFFLINE), "us")
    # rt_tail_ms.*
    metrics["backends.gate_wait_ms"] = (1000 * _mean(gate_waits), "ms")
    for mode in OFFLINE_MODES:
        calls = len(idx.select("backends.complete", (f"offline.{mode}",)))
        metrics[f"backends.calls_per_question.{mode}"] = (
            calls / m.offline_ops(mode), "count")
    metrics["backends.failed_calls"] = (sum(1 for s in completes if not s.ok), "count")
    metrics["backends.retries"] = (sum(s.info - 1 for s in completes if s.ok), "count")
    for mode in OFFLINE_MODES:
        metrics[f"evaluation.accuracy.{mode}"] = (m.accuracy[mode], "ratio")
    # qps.no_gnn
    metrics["evaluation.self_us_per_question"] = (
        self_us(["evaluation.evaluate", "evaluation.render_report"], OFFLINE) / all_offline, "us")
    return metrics


def self_time_by_layer(tracer: Tracer, phase: str) -> dict[str, float]:
    """Total self time per layer over every span of one phase, in seconds."""
    idx = SpanIndex(tracer.spans)
    totals: dict[str, float] = {}
    for s in tracer.spans:
        if s.phase == phase:
            layer = layer_of(s.name)
            totals[layer] = totals.get(layer, 0.0) + idx.self_time(s)
    return totals
