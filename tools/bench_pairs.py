"""Run alternating parent/change pairs of the benchmark and record them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --pairs N --out BENCH_x.json [--trace 1]

Pair i runs `python3 perfbench/run.py --workload W --seed i --seconds 25` in
each tree, one run at a time; the parent runs first in odd pairs. Each run
keeps its `# env:` line and its final JSON line. The runs are added to the
output file, after any earlier pairs of the same workload (numbering and
seeds continue from them), and the workload's summary is recomputed over all
of its pairs, so one file holds every run made of several workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 25
SIDES = ("parent", "change")
WHAT = (
    "Alternating parent/change runs of `perfbench/run.py --workload W --seed N "
    f"--seconds {SECONDS} --trace T`, one at a time on one machine. Pair i uses seed i, "
    "and the parent runs first in odd pairs. Each run keeps its `# env:` line (env) and "
    "its final JSON line (result). Summaries are keyed by workload, with `/trace` for "
    "traced runs. Per metric they give each side's quartiles (inclusive method), the "
    "median change, the parent's interquartile range and how many pairs the change "
    "won; ties count for neither side. Which direction is better comes from "
    "BENCHMARK.json. Each metric with a bound there (the end-to-end ones) gets a verdict: "
    "`gain` when the change wins at least 9 of 10 pairs and the medians differ by more "
    "than the parent IQR; `regression` when the change's median is worse than the "
    "parent's by more than bound x the parent median; `unresolved` when the parent IQR "
    "exceeds bound x the parent median, unless every change run beats every parent run; "
    "otherwise `no change`."
)


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from a BENCHMARK.json object."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def metric_bounds(benchmark: dict) -> dict[str, float]:
    """Metric name -> the share by which it may worsen, for the metrics that have one."""
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"] if "bound" in m}


def run_once(command: list[str], tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in `tree`: its exit code, wall time, env and result."""
    command = command + ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(SECONDS), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    env = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("# env: "):
            env = json.loads(line[len("# env: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return {"exit": proc.returncode, "wall_s": round(wall, 1), "env": env, "result": result}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _compare(pairs: list[tuple[float, float]], better: str) -> tuple[list, list, int]:
    """Each side's quartiles over (parent, change) pairs, and how many pairs
    the change won; ties count for neither side."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    return _quartiles([p for p, _ in pairs]), _quartiles([c for _, c in pairs]), wins


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """The verdict on one metric's (parent, change) pairs; see WHAT."""
    sign = 1 if better == "higher" else -1
    parent_q, change_q, wins = _compare(pairs, better)
    iqr = parent_q[2] - parent_q[0]
    gained = sign * (change_q[1] - parent_q[1])
    if 10 * wins >= 9 * len(pairs) and gained > iqr:
        return "gain"
    if -gained > bound * abs(parent_q[1]):
        return "regression"
    beats_all = min(sign * c for _, c in pairs) > max(sign * p for p, _ in pairs)
    if iqr > bound * abs(parent_q[1]) and not beats_all:
        return "unresolved"
    return "no change"


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Summary of one workload's runs, paired by their `pair` number; metrics
    with a bound in `bounds` get a verdict."""
    by_pair: dict[int, dict[str, dict | None]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    results = {side: [pair.get(side) for pair in by_pair.values()] for side in SIDES}
    summary = {
        "pairs": len(by_pair),
        "failed": {side: sum(r["failed"] for r in results[side] if r) for side in SIDES},
        "correct": {side: all(r and r["correct"] for r in results[side]) for side in SIDES},
        "metrics": {},
    }
    names = [name for r in results["parent"] if r for name in r["metrics"]]
    for name in dict.fromkeys(names):
        if name not in better:
            continue
        pairs = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in zip(results["parent"], results["change"])
            if p and c and name in p["metrics"] and name in c["metrics"]
        ]
        if not pairs:
            continue
        parent_q, change_q, wins = _compare(pairs, better[name])
        summary["metrics"][name] = {
            "better": better[name],
            "parent_q1_median_q3": [round(v, 4) for v in parent_q],
            "change_q1_median_q3": [round(v, 4) for v in change_q],
            "median_change_pct": (round(100 * (change_q[1] / parent_q[1] - 1), 2)
                                  if parent_q[1] else None),
            "parent_iqr": round(parent_q[2] - parent_q[0], 4),
            "change_wins": f"{wins}/{len(pairs)}",
        }
        if bounds and name in bounds:
            summary["metrics"][name]["verdict"] = verdict(pairs, better[name], bounds[name])
    return summary


def run_order(first: int, pairs: int):
    """(pair, side, ran_first) for pairs first, first + 1, ... in the order they
    run: the parent runs first in odd pairs."""
    for pair in range(first, first + pairs):
        order = SIDES if pair % 2 else SIDES[::-1]
        for position, side in enumerate(order):
            yield pair, side, position == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to add the runs to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = metric_directions(benchmark)
    key = args.workload + ("/trace" if args.trace else "")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    record = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
              else {"what": WHAT, "runs": []})
    earlier = [r for r in record["runs"]
               if (r["workload"], r["trace"]) == (args.workload, args.trace)]
    first = max((r["pair"] for r in earlier), default=0) + 1

    runs = []
    for pair, side, ran_first in run_order(first, args.pairs):
        run = {"workload": args.workload, "pair": pair, "seed": pair, "side": side,
               "ran_first": ran_first, "trace": args.trace,
               **run_once(benchmark["command"], trees[side], args.workload, pair, args.trace)}
        runs.append(run)
        print(f"{key} pair {pair} {side}: exit {run['exit']}, {run['wall_s']} s", flush=True)

    record["runs"] += runs
    for side in SIDES:
        revs = {r["env"]["git_rev"] for r in record["runs"] if r["side"] == side and r["env"]}
        record[side] = ", ".join(sorted(revs))
    record.setdefault("summary", {})[key] = summarize(earlier + runs, better,
                                                       metric_bounds(benchmark))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
