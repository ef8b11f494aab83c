"""tools/ab.py: the summary of in-process A/B calls."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab  # noqa: E402


def call(pair, side, ms, half):
    return {"pair": pair, "side": side, "half": half,
            "result": {"correct": True, "failed": 0, "metrics": {"call_ms": {"value": ms}}}}


def test_summary_gives_per_pair_ratios_by_half():
    runs = [call(1, "parent", 40.0, 0), call(1, "change", 36.0, 0),
            call(2, "change", 42.0, 0), call(2, "parent", 40.0, 0),
            call(3, "parent", 50.0, 1), call(3, "change", 45.0, 1),
            call(4, "change", 38.0, 1), call(4, "parent", 40.0, 1)]
    summary = ab.summarize_ab(runs)
    # Ratios 0.9, 1.05, 0.9 and 0.95, in pair order.
    assert summary["ratio_q1_median_q3"] == [0.9, 0.925, 0.975]
    assert summary["ratio_median_by_half"] == [0.975, 0.925]
    call_ms = summary["metrics"]["call_ms"]
    assert summary["pairs"] == 4 and call_ms["better"] == "lower"
    assert call_ms["change_wins"] == "3/4"
    assert call_ms["parent_q1_median_q3"] == [40.0, 40.0, 42.5]
