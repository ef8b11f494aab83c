"""tools/train_probe.py: the summary on synthetic runs, and one child run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import train_probe  # noqa: E402

STAGES = ("forward_us", "logit_gradients_us", "backward_us", "adam_us")


def run(pair, side, step_us, sha="a", backward_us=200.0):
    metrics = {"step_us": step_us, **dict.fromkeys(STAGES, 100.0), "backward_us": backward_us,
               "buckets_per_question": 3.11}
    result = {"correct": True, "failed": 0, "sha256": sha,
              "metrics": {name: {"value": value} for name, value in metrics.items()}}
    return {"pair": pair, "side": side, "result": result}


def test_summary_pairs_step_times_and_checks_the_bits():
    runs = [run(1, "parent", 880.0), run(1, "change", 700.0),
            run(2, "change", 905.0), run(2, "parent", 890.0),
            run(3, "parent", 870.0), run(3, "change", 720.0)]
    summary = train_probe.summarize_probe(runs)
    step = summary["metrics"]["step_us"]
    assert summary["pairs"] == 3 and step["better"] == "lower"
    assert step["parent_q1_median_q3"] == [875.0, 880.0, 885.0]
    assert step["change_wins"] == "2/3" and step["parent_iqr"] == 10.0
    assert summary["same_bits"]
    runs.append(run(4, "change", 700.0, sha="b"))
    assert not train_probe.summarize_probe(runs)["same_bits"]


def test_summary_pairs_each_stage_and_the_bucket_count():
    runs = [run(1, "parent", 880.0, backward_us=200.0), run(1, "change", 850.0, backward_us=180.0),
            run(2, "change", 860.0, backward_us=170.0), run(2, "parent", 870.0, backward_us=210.0)]
    metrics = train_probe.summarize_probe(runs)["metrics"]
    assert list(metrics) == list(train_probe.METRICS)
    assert metrics["backward_us"]["change_wins"] == "2/2"
    assert metrics["backward_us"]["median_change_pct"] == round(100 * (175 / 205 - 1), 2)
    assert metrics["forward_us"]["change_wins"] == "0/2"  # ties count for neither side
    assert metrics["buckets_per_question"]["parent_q1_median_q3"] == [3.11, 3.11, 3.11]


def test_a_child_reports_every_metric_and_a_digest(monkeypatch):
    monkeypatch.setattr(train_probe, "REPEATS", 1)
    monkeypatch.setattr(train_probe, "STAGE_STEPS", 3)
    result = train_probe.run_once(Path(__file__).resolve().parents[1], "synthetic")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(train_probe.METRICS)
    assert all(metrics[name] > 0 for name in ("step_us", *STAGES))
    # The synthetic questions hash to the 14 subject-keyword buckets, about 3 each.
    assert result["buckets_hit"] == 14
    assert 1.0 <= metrics["buckets_per_question"] <= 5.0
    assert result["correct"] and len(result["sha256"]) == 64
