"""Self times per question from a perfbench spans file (tools/span_self_times.py)."""

import json

import pytest

import span_self_times


def span(id, name, start, end, parent=None, question=None, phase="offline.sdag"):
    # Times in ms here; spans files hold seconds.
    return {"id": id, "name": name, "start": start / 1e3, "end": end / 1e3, "parent": parent,
            "question": question, "phase": phase, "ok": True, "info": None}


SPANS = [
    # One evaluate() over two questions.
    span(1, "evaluate", 0, 100),
    span(2, "generate", 10, 30, 1, "q1"),
    span(3, "route", 12, 20, 2, "q1"),
    span(4, "execute", 30, 60, 1, "q1"),
    # Two overlapping children: together they cover 35-55 ms of execute.
    span(5, "complete", 35, 50, 4, "q1"),
    span(6, "complete", 40, 55, 4, "q1"),
    span(7, "generate", 60, 80, 1, "q2"),
    # A second evaluate() over q1 again: one more question.
    span(8, "evaluate", 100, 110),
    span(9, "generate", 101, 105, 8, "q1"),
    # A phase without questions.
    span(10, "train", 0, 7, phase="train"),
]


@pytest.fixture()
def spans_file(tmp_path):
    path = tmp_path / "spans-eval_offline-seed1.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in SPANS))
    return path


def test_self_times_per_question(spans_file):
    times = span_self_times.SelfTimes()
    times.add(span_self_times.load_spans(spans_file))
    assert times.questions == {"offline.sdag": 3}
    rows = {(p, n): (count, round(us, 6), per_q) for p, n, count, us, per_q in times.rows()}
    assert rows == {
        # evaluate: 100 - (20 + 30 + 20) + 10 - 4 = 36 ms over 3 questions
        ("offline.sdag", "evaluate"): (2, 12000.0, True),
        # generate: (20 - 8) + 20 + 4 = 36 ms
        ("offline.sdag", "generate"): (3, 12000.0, True),
        # execute: 30 - 20 = 10 ms
        ("offline.sdag", "execute"): (1, round(10000 / 3, 6), True),
        # complete: 15 + 15 = 30 ms
        ("offline.sdag", "complete"): (2, 10000.0, True),
        ("offline.sdag", "route"): (1, round(8000 / 3, 6), True),
        ("train", "train"): (1, 7000.0, False),
    }


def test_chunk_level_spans_are_spread_over_the_phase_questions(tmp_path):
    # evaluate() routes its questions in one chunk before any question runs,
    # so the chunk's spans carry no question id; their self time still counts
    # per question of the phase.
    chunked = [
        span(1, "evaluate", 0, 100),
        span(2, "generate", 0, 40, 1),
        span(3, "route", 10, 30, 2),
        span(4, "execute", 40, 70, 1, "q1"),
        span(5, "execute", 70, 100, 1, "q2"),
    ]
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in chunked))
    times = span_self_times.SelfTimes()
    times.add(span_self_times.load_spans(path))
    assert times.questions == {"offline.sdag": 2}
    rows = {n: (count, round(us, 6)) for _, n, count, us, _ in times.rows()}
    assert rows == {
        "generate": (1, 10000.0),  # (40 - 20) ms over 2 questions
        "route": (1, 10000.0),
        "execute": (2, 30000.0),
        "evaluate": (1, 0.0),
    }


def test_files_pool_and_phase_filter(spans_file, capsys):
    assert span_self_times.main([str(spans_file), str(spans_file), "--phase", "train"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "train (total self us)"
    assert out[1].split() == ["train", "2", "14000.0"]
    assert len(out) == 2
