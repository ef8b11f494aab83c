"""Self time per question of every span name in perfbench spans files.

    python3 tools/span_self_times.py [--phase P] .perfbench_out/spans-*.jsonl

A traced perfbench run (`--trace 1`) writes one JSON span per line. A span's
self time is its duration minus the part of it that its child spans cover
(overlapping children count once). For each phase and span name this prints
the number of spans and their summed self time per question, in us. A phase's
questions are its distinct (root span, question id) pairs, so a question
that one `evaluate()` call runs counts once however many spans it makes.
Spans without a question id count too: `evaluate()` routes its questions in
stacked chunks before running any, so its routing spans (one route and one
generate_sdag per chunk, embed and assemble_dag per question) carry none,
and their self time is spread over the phase's questions.
Phases without questions (setup, train, reference) print the total instead.
Several files are pooled: counts, self times and questions add up.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Span, SpanIndex  # noqa: E402


def load_spans(path: str | Path) -> list[Span]:
    with open(path, encoding="utf-8") as f:
        return [Span(**json.loads(line)) for line in f if line.strip()]


class SelfTimes:
    """Span counts, summed self times (s) and question counts, per phase."""

    def __init__(self):
        self.count: Counter = Counter()  # (phase, name) -> spans
        self.seconds: defaultdict = defaultdict(float)  # (phase, name) -> self time
        self.questions: Counter = Counter()  # phase -> questions

    def add(self, spans: list[Span]) -> None:
        idx = SpanIndex(spans)
        by_id = {s.id: s for s in spans}

        def root(s: Span) -> int:
            while s.parent is not None:
                s = by_id[s.parent]
            return s.id

        asked = set()
        for s in spans:
            self.count[s.phase, s.name] += 1
            self.seconds[s.phase, s.name] += idx.self_time(s)
            if s.question is not None:
                asked.add((s.phase, root(s), s.question))
        self.questions.update(phase for phase, _, _ in asked)

    def rows(self, phase: str | None = None) -> list[tuple[str, str, int, float, bool]]:
        """(phase, name, spans, us, per question) rows; per question when the
        phase has questions, else the total. Sorted by phase, then by time."""
        rows = []
        for (p, name), n in self.count.items():
            if phase is not None and p != phase:
                continue
            questions = self.questions[p]
            us = 1e6 * self.seconds[p, name] / (questions or 1)
            rows.append((p, name, n, us, bool(questions)))
        return sorted(rows, key=lambda r: (r[0], -r[3], r[1]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="perfbench spans JSONL files")
    parser.add_argument("--phase", help="print only this phase, e.g. offline.fcg")
    args = parser.parse_args(argv)
    times = SelfTimes()
    for path in args.files:
        times.add(load_spans(path))
    current = None
    for phase, name, n, us, per_question in times.rows(args.phase):
        if phase != current:
            current = phase
            questions = times.questions[phase]
            unit = f"{questions} questions, self us per question" if questions else "total self us"
            print(f"{phase} ({unit})")
        print(f"  {name:<36} {n:>8} {us:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
