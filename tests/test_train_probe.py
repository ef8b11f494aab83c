"""The summary of tools/train_probe.py, on synthetic runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import train_probe  # noqa: E402


def run(pair, side, step_us, sha="a"):
    result = {"correct": True, "failed": 0, "metrics": {"step_us": {"value": step_us}},
              "sha256": sha}
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
