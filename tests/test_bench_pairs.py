"""The parent/change pair summary of tools/bench_pairs.py, on synthetic runs."""

import json
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parents[1]


def run(pair, side, failed=0, correct=True, **values):
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return {"workload": "w", "pair": pair, "side": side, "result": result}


BETTER = {"qps": "higher", "rss": "lower"}


def test_summary_quartiles_wins_and_ties():
    runs = [
        run(1, "parent", qps=10.0, rss=50.0), run(1, "change", qps=12.0, rss=50.0),
        run(2, "change", qps=9.0, rss=40.0), run(2, "parent", qps=11.0, rss=60.0),
        run(3, "parent", qps=12.0, rss=70.0), run(3, "change", qps=13.0, rss=80.0),
    ]
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["pairs"] == 3
    assert summary["failed"] == {"parent": 0, "change": 0}
    assert summary["correct"] == {"parent": True, "change": True}
    qps = summary["metrics"]["qps"]
    assert qps["better"] == "higher"
    assert qps["parent_q1_median_q3"] == [10.5, 11.0, 11.5]
    assert qps["change_q1_median_q3"] == [10.5, 12.0, 12.5]
    assert qps["median_change_pct"] == 9.09
    assert qps["parent_iqr"] == 1.0
    assert qps["change_wins"] == "2/3"
    # Lower is better: pair 2 is a win, pair 3 a loss and pair 1 a tie,
    # which counts for neither side.
    rss = summary["metrics"]["rss"]
    assert rss["better"] == "lower"
    assert rss["change_wins"] == "1/3"
    assert rss["median_change_pct"] == -16.67
    assert rss["parent_iqr"] == 10.0


def test_summary_counts_failures_and_skips_unknown_metrics():
    runs = [
        run(1, "parent", qps=10.0, other=1.0),
        run(1, "change", failed=2, correct=False, qps=10.0, other=2.0),
    ]
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert summary["correct"] == {"parent": True, "change": False}
    assert set(summary["metrics"]) == {"qps"}
    assert summary["metrics"]["qps"]["parent_q1_median_q3"] == [10.0, 10.0, 10.0]
    assert summary["metrics"]["qps"]["change_wins"] == "0/1"


def test_directions_cover_every_benchmark_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = bench_pairs.metric_directions(benchmark)
    assert directions["qps.no_gnn"] == "higher"
    assert directions["peak_rss_mb"] == "lower"
    assert set(directions.values()) == {"higher", "lower"}


def qps_pairs(parent, change):
    return [run(i, side, qps=v) for i, (p, c) in enumerate(zip(parent, change), 1)
            for side, v in (("parent", p), ("change", c))]


def qps_verdict(parent, change, better="higher", bound=0.25):
    summary = bench_pairs.summarize(qps_pairs(parent, change), {"qps": better}, {"qps": bound})
    return summary["metrics"]["qps"]["verdict"]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def test_verdict_gain_needs_nine_of_ten_wins_and_a_median_beyond_the_iqr():
    assert qps_verdict(PARENT, [p + 5.0 for p in PARENT]) == "gain"
    # Lower is better: the same runs read the other way round are no gain.
    assert qps_verdict(PARENT, [p + 5.0 for p in PARENT], better="lower") == "no change"
    # 8 of 10 wins is not enough, however large the median move.
    eight = [p + 5.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    assert qps_verdict(PARENT, eight) == "no change"
    # Winning every pair by less than the parent IQR (1.0) is no gain either.
    assert qps_verdict(PARENT, [p + 0.5 for p in PARENT]) == "no change"


def test_verdict_regression_is_a_median_worse_than_the_bound():
    assert qps_verdict(PARENT, [p * 0.7 for p in PARENT]) == "regression"
    assert qps_verdict(PARENT, [p * 0.8 for p in PARENT]) == "no change"
    assert qps_verdict(PARENT, [p * 1.3 for p in PARENT], better="lower") == "regression"


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 60.0, 140.0, 70.0, 130.0]
    assert qps_verdict(wide, [100.0] * 10) == "unresolved"
    # Unless every change run beats every parent run; a gain must still
    # move the median by more than the parent IQR (60).
    assert qps_verdict(wide, [141.0 + i for i in range(10)]) == "no change"
    assert qps_verdict(wide, [161.0 + i for i in range(10)]) == "gain"
    assert qps_verdict(wide, [141.0] * 9 + [139.0]) == "unresolved"
    assert qps_verdict(wide, [100.0] * 10, bound=0.75) == "no change"


def test_verdicts_only_for_metrics_with_a_bound():
    summary = bench_pairs.summarize(qps_pairs(PARENT, PARENT), {"qps": "higher"})
    assert "verdict" not in summary["metrics"]["qps"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = bench_pairs.metric_bounds(benchmark)
    assert bounds["qps.sdag"] == 0.25
    assert "router.model.route_us" not in bounds


def test_runs_join_a_file_of_in_process_ab_records(tmp_path, monkeypatch):
    def run_once(command, tree, workload, seed, trace):
        result = {"correct": True, "failed": 0,
                  "metrics": {"train_samples_per_s": {"value": 100.0 + seed, "unit": "1/s"}}}
        return {"exit": 0, "wall_s": 1.0, "env": {"git_rev": tree.name}, "result": result}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_test.json"
    out.write_text(json.dumps({"ab": {"synthetic": {"same_bits": True}}}), encoding="utf-8")
    args = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
            "--workload", "train", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(args) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["ab"] == {"synthetic": {"same_bits": True}}
    assert record["what"] == bench_pairs.WHAT and len(record["runs"]) == 4
    assert (record["parent"], record["change"]) == ("p", "c")
    assert record["summary"]["train"]["metrics"]["train_samples_per_s"]["change_wins"] == "0/2"
