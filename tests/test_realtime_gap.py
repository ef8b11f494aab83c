"""Realtime gap split from a perfbench spans file (tools/realtime_gap.py)."""

import json

import pytest

import realtime_gap


def span(id, name, start, end, parent=None, question=None, phase="realtime.fcg"):
    # Times in ms here; spans files hold seconds.
    return {"id": id, "name": name, "start": start / 1e3, "end": end / 1e3, "parent": parent,
            "question": question, "phase": phase, "ok": True, "info": None}


def call(id, parent, question, start, backend_start, end, phase="realtime.fcg"):
    """A `backends.complete` span, its sleeping backend's call from
    `backend_start`, and the mock call nested in that one, 1 ms later."""
    return [
        span(id, "backends.complete", start, end, parent, question, phase),
        span(id + 1, "backends.backend_call", backend_start, end, id, question, phase),
        span(id + 2, "backends.backend_call", backend_start + 1, end - 1, id + 1, question,
             phase),
    ]


SPANS = [
    span(1, "evaluation.evaluate", 0, 200, phase="realtime.fcg"),
    # An fcg question of two subjects: two rounds of two calls.
    span(2, "orchestrator.execute_fcg", 10, 60, 1, "q1"),
    *call(10, 2, "q1", 11, 11, 20),
    *call(20, 2, "q1", 11, 15, 22),  # waited 4 ms at its gate
    *call(30, 2, "q1", 25, 25, 40),  # round 2 starts 3 ms after round 1 ends
    *call(40, 2, "q1", 26, 26, 55),
    # A second question: one call that waited 9 ms.
    span(3, "orchestrator.execute_fcg", 100, 140, 1, "q2"),
    *call(50, 3, "q2", 102, 111, 130),
    span(4, "evaluation.evaluate", 0, 50, phase="realtime.sdag"),
    span(5, "orchestrator.execute_dag", 5, 30, 4, "q1", phase="realtime.sdag"),
    *call(60, 5, "q1", 6, 6, 25, phase="realtime.sdag"),
    # Offline questions are not split.
    span(6, "orchestrator.execute_dag", 0, 9, phase="offline.sdag"),
    *call(70, 6, "q1", 1, 1, 8, phase="offline.sdag"),
]


@pytest.fixture()
def spans_file(tmp_path):
    path = tmp_path / "spans-eval_realtime-seed1.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in SPANS))
    return path


def test_question_gaps_split_each_realtime_question(spans_file):
    gaps = realtime_gap.question_gaps(realtime_gap.load_spans(spans_file))
    rounded = {
        phase: [{k: round(1000 * v, 6) if k != "calls" else v for k, v in row.items()}
                for row in rows]
        for phase, rows in gaps.items()
    }
    assert rounded == {
        "realtime.fcg": [
            # Only the sleeping backend's calls count, not the mocks inside them.
            {"first_call": 1.0, "gate_wait": 4.0, "between_rounds": 3.0, "tail": 5.0,
             "calls": 4},
            {"first_call": 2.0, "gate_wait": 9.0, "between_rounds": 0.0, "tail": 10.0,
             "calls": 1},
        ],
        "realtime.sdag": [
            {"first_call": 1.0, "gate_wait": 0.0, "between_rounds": 0.0, "tail": 5.0,
             "calls": 1},
        ],
    }


def test_summary_pools_files(spans_file, capsys):
    summary = realtime_gap.summarize([spans_file, spans_file])
    fcg = summary["realtime.fcg"]
    assert fcg["questions"] == 4
    assert fcg["calls_per_question"] == 2.5
    assert fcg["gate_wait"] == {"median_ms": 6.5, "mean_ms": 6.5}
    assert fcg["tail"] == {"median_ms": 7.5, "mean_ms": 7.5}
    assert summary["realtime.sdag"]["questions"] == 2
    assert realtime_gap.main([str(spans_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == realtime_gap.summarize([spans_file])
    assert realtime_gap.main([str(spans_file)]) == 0
    assert "realtime.fcg (2 questions, 2.5 backend calls per question)" in capsys.readouterr().out
