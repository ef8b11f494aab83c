"""The sdag benchmark: one command, three workloads, every metric by name.

Run from the repository root:

    python3 perfbench/run.py --workload eval_offline --seed 1 --seconds 25 --trace 0

Each run sets up its inputs from the seed (see harness.py), then interleaves a
train phase, an offline evaluation phase, a realtime evaluation phase and a
fixed reference step (see reference.py) for `--seconds` in total. The
workload's own phase gets half of the program's time and each other phase a
quarter; BENCHMARK.json says why each workload exists. Set-up time and the
CPU-bound rates are scaled to a nominal machine speed gauged by the reference
step; the `#` lines show the figures as measured and the gauged speed.

`--trace 0` measures untraced and prints the end-to-end metrics. `--trace 1`
measures half the time untraced and half traced (see spans.py), prints the
per-layer metrics, reports the tracing overhead, and writes the spans to
`.perfbench_out/`. Both print the run's environment and checks on `#` lines;
the last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. A run whose output checks fail prints `"correct": false` and exits
with status 1. `--tiny` shrinks every input, for the smoke test:

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before NumPy loads, as the test suite does.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train", "eval_offline", "eval_realtime")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def say(label: str, value) -> None:
    print(f"# {label}: {value}", flush=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_revision(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def report_measurement(harness, label, m) -> None:
    """Figures as measured, before scaling to the nominal machine."""
    say(f"{label} machine speed",
        f"{harness.speed(m):.4f} of nominal over {len(m.reference)} reference blocks")
    for mode in harness.OFFLINE_MODES:
        say(f"{label} offline {mode}",
            f"accuracy {m.accuracy[mode]:.4f}, llm calls/question {m.calls[mode]:.3f}, "
            f"{harness.median_rate(m.offline[mode]):.1f} questions/s over "
            f"{m.offline_ops(mode)} questions")
    say(f"{label} offline random_model", f"accuracy {m.accuracy['random_model']:.4f}")
    for mode in harness.REALTIME_MODES:
        value, pct, n, blocks = harness.block_tail(m.realtime[mode])
        pooled, pooled_pct, pooled_n = harness.tail(m.rt_walls(mode))
        walls, paths = m.rt_walls(mode), m.rt_paths[mode]
        say(f"{label} realtime {mode}",
            f"rt_tail_ms is the median over {blocks} blocks of p{pct:.2f} of {n} questions "
            f"({1000 * value:.3f} ms); pooled p{pooled_pct:.2f} of {pooled_n} is "
            f"{1000 * pooled:.3f} ms; "
            f"measured wall {1000 * statistics.fmean(walls):.3f} ms/question vs scaled "
            f"simulated critical path {1000 * statistics.fmean(paths):.3f} ms "
            f"(ratio {sum(walls) / sum(paths):.3f})")
    say(f"{label} train",
        f"{harness.median_rate({0: m.train}):.1f} samples/s over {len(m.train)} chunks, "
        f"{sum(b.ops for b in m.train)} steps")


def run(args) -> int:
    import harness
    import layers
    import spans

    sizes = harness.TINY if args.tiny else harness.FULL
    OUT.mkdir(exist_ok=True)
    say("env", json.dumps(environment(args), sort_keys=True))

    if not args.trace:
        setup_seconds, world, problems = harness.set_up_timed(args.seed, sizes, OUT,
                                                              sizes.setup_repeats)
        say("setup_s repeats at nominal speed", [round(s, 6) for s in setup_seconds])
        m = harness.measure(world, args.workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = harness.end_to_end(setup_seconds, m, rss_mb)
        report_measurement(harness, "untraced", m)
        measurements = [m]
    else:
        plain_setup, world, problems = harness.set_up_timed(args.seed, sizes, OUT, 1)
        plain = harness.measure(world, args.workload, args.seconds / 2)
        tracer = spans.Tracer()
        with tracer:
            traced_setup, traced_world, _ = harness.set_up_timed(args.seed, sizes, OUT, 1)
            traced = harness.measure(world, args.workload, args.seconds / 2, tracer)
        if traced_world.fingerprint() != world.fingerprint():
            problems.append("setup: router or profiles differ between repeats")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report_measurement(harness, "untraced", plain)
        report_measurement(harness, "traced", traced)
        report_overhead(harness, layers, tracer, plain_setup, plain, traced_setup, traced, rss_mb)
        metrics = layers.per_layer(tracer, traced)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        say("spans", f"{len(tracer.spans)} written to {path.relative_to(ROOT)}")
        measurements = [plain, traced]

    for m in measurements:
        problems.extend(m.problems)
    attempted = sum(m.attempted for m in measurements)
    failed = sum(m.failed for m in measurements)
    correct = not problems and failed == 0
    for problem in problems:
        say("CHECK FAILED", problem)
    say("checks", "all passed" if correct else f"{len(problems)} failed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def all_blocks(blocks_by_slice: dict) -> list:
    return [b for blocks in blocks_by_slice.values() for b in blocks]


def report_overhead(harness, layers, tracer, plain_setup, plain, traced_setup, traced, rss_mb):
    """Tracing overhead per end-to-end metric, and the offline sdag layer sum."""
    e0 = harness.end_to_end(plain_setup, plain, rss_mb)
    e1 = harness.end_to_end(traced_setup, traced, rss_mb)
    for name, (v0, unit) in e0.items():
        v1 = e1[name][0]
        say(f"tracing overhead {name}",
            f"untraced {v0:.6g} {unit}, traced {v1:.6g} {unit} ({100 * (v1 / v0 - 1):+.1f}%)")

    questions = traced.offline_ops("sdag")
    by_layer = layers.self_time_by_layer(tracer, "offline.sdag")
    layer_sum = 1e6 * sum(by_layer.values()) / questions
    # Mean times per question, like the layer sum; the untraced one as it
    # would read at the traced half's machine speed.
    untraced_us = (1e6 / harness.total_rate(all_blocks(plain.offline["sdag"]))
                   * harness.speed(plain) / harness.speed(traced))
    traced_us = 1e6 / harness.total_rate(all_blocks(traced.offline["sdag"]))
    overhead_us = traced_us - untraced_us
    breakdown = ", ".join(
        f"{layer} {1e6 * t / questions:.1f}" for layer, t in sorted(by_layer.items())
    )
    say("offline sdag self time per question (us)", breakdown)
    say("offline sdag layer sum vs untraced",
        f"sum {layer_sum:.1f} us, untraced {untraced_us:.1f} us, traced {traced_us:.1f} us, "
        f"tracing overhead {overhead_us:+.1f} us; within overhead: "
        f"{abs(layer_sum - untraced_us) <= abs(overhead_us) + 0.02 * untraced_us}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdag" / "__init__.py").is_file():
        print(f"perfbench: the sdag package is not at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
