"""Where each realtime question's time beyond its backend calls goes.

    python3 tools/realtime_gap.py [--json] .perfbench_out/spans-*.jsonl

In perfbench's realtime phases a question's measured wall time exceeds its
scaled simulated critical path (`orchestrator.overhead_ms.*`). For every
`orchestrator.execute_dag` or `orchestrator.execute_fcg` span of a
`realtime.*` phase in a traced run's spans, this splits the parts of that
gap that spans show into four, in ms:

- first_call: from the execute span's start to its first `backends.complete`
  call's start;
- gate_wait: the longest time one of its calls waited at its backend's
  `max_in_flight` gate, from the `backends.complete` span's start to the
  start of its backend call;
- between_rounds: the time between the first call's start and the last
  call's end during which none of the question's calls was in flight, the
  hand-off from one round of dependent calls to the next;
- tail: from the last call's end to the execute span's end.

A backend call is a `backends.backend_call` span whose parent is a
`backends.complete` span. In the realtime phases `SleepingBackend.complete`
is that span, and the `MockBackend.complete` it wraps records a second
`backends.backend_call` as its child, which is neither counted nor timed.
For each phase this prints the questions, backend calls per question, and
each part's median and mean over questions. Several files are pooled.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "perfbench")]
from span_self_times import load_spans  # noqa: E402
from spans import Span, SpanIndex, covered  # noqa: E402

PARTS = ("first_call", "gate_wait", "between_rounds", "tail")
EXECUTES = ("orchestrator.execute_dag", "orchestrator.execute_fcg")


def question_gaps(spans: list[Span]) -> dict[str, list[dict[str, float]]]:
    """Phase -> one {part: seconds, "calls": backend calls} per realtime question."""
    idx = SpanIndex(spans)
    gaps: dict[str, list[dict[str, float]]] = {}
    for s in spans:
        if s.name not in EXECUTES or not s.phase.startswith("realtime."):
            continue
        calls = [c for c in idx.children.get(s.id, []) if c.name == "backends.complete"]
        if not calls:
            continue
        waits, count = [], 0
        for c in calls:
            backend = [b for b in idx.children.get(c.id, []) if b.name == "backends.backend_call"]
            count += len(backend)
            if backend:
                waits.append(min(b.start for b in backend) - c.start)
        first = min(c.start for c in calls)
        last = max(c.end for c in calls)
        in_flight = covered([(c.start, c.end) for c in calls], first, last)
        gaps.setdefault(s.phase, []).append({
            "first_call": first - s.start,
            "gate_wait": max(waits, default=0.0),
            "between_rounds": last - first - in_flight,
            "tail": s.end - last,
            "calls": count,
        })
    return gaps


def summarize(paths) -> dict:
    """Per phase: questions, calls per question, and each part's median and
    mean in ms, over the questions of every file."""
    pooled: dict[str, list[dict[str, float]]] = {}
    for path in paths:
        for phase, rows in question_gaps(load_spans(path)).items():
            pooled.setdefault(phase, []).extend(rows)
    summary = {}
    for phase, rows in sorted(pooled.items()):
        summary[phase] = {
            "questions": len(rows),
            "calls_per_question": round(statistics.fmean(r["calls"] for r in rows), 3),
            **{
                part: {
                    "median_ms": round(1000 * statistics.median(r[part] for r in rows), 3),
                    "mean_ms": round(1000 * statistics.fmean(r[part] for r in rows), 3),
                }
                for part in PARTS
            },
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="perfbench spans JSONL files")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    summary = summarize(args.files)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    for phase, row in summary.items():
        print(f"{phase} ({row['questions']} questions, "
              f"{row['calls_per_question']} backend calls per question)")
        print(f"  {'part':<16} {'median ms':>10} {'mean ms':>10}")
        for part in PARTS:
            print(f"  {part:<16} {row[part]['median_ms']:>10.3f} {row[part]['mean_ms']:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
