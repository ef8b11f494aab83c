"""Time `train_router` of two source trees in one process and record it.

    python3 tools/ab.py --parent REV --change REV [--out BENCH_x.json --name KEY]

Each REV is a git revision, `git archive`d into a temporary directory. A
tree's `src/sdag` is imported as a package of its own name (every import
inside `src/sdag` is relative), so both trees run in one process, pinned to
one CPU with BLAS on one thread.

The workload is the benchmark's `train` workload: `train_router` at the
acceptance dims (32, 256, 64, 2), lr 1e-3, edge weight 2 and 2 epochs, on
25-sample chunks of a 500-question synthetic corpus. Before timing, each
tree trains every chunk; the two trees' parameter bits and loss curves must
be equal, or the tool exits 1 without timing. Then pair i of `PAIRS` trains
chunk i mod 20 once on each side, the parent first in odd pairs, and records
each call's wall time. A tree loaded second runs about 1 % faster, so each
tree is loaded twice: the first half of the pairs runs the copies loaded
parent first, the second half the copies loaded change first.

The summary is `bench_pairs.summarize` over the calls (metric `call_ms`),
plus the quartiles of the per-pair ratio change/parent and the median ratio
of each half. With `--out`, the runs and summary are stored under
`ab.<KEY>` in the file, whose other keys are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, _quartiles, run_order, summarize

ROOT = Path(__file__).resolve().parents[1]
CORPUS_SIZE, CHUNK, CORPUS_SEED = 500, 25, 3
EPOCHS, LR, LAMBDA_EDGE, TRAIN_SEED = 2, 1e-3, 2.0, 1
DIMS = dict(d_s=32, d_q=256, h=64, L=2)
# Timed pairs, half of them on the copies loaded parent first.
PAIRS = 80


def checkout(rev: str, into: Path) -> Path:
    """The `src/sdag` of revision `rev`, `git archive`d under `into`."""
    tree = into / rev.replace("/", "_")
    tree.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/sdag"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree / "src" / "sdag"


def load(src: Path, name: str):
    """Import the package at `src` as `name`, and return a function that
    trains its chunk i of the workload."""
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    synthetic = importlib.import_module(f"{name}.synthetic")
    training = importlib.import_module(f"{name}.router.training")
    loss = importlib.import_module(f"{name}.router.loss")
    model = importlib.import_module(f"{name}.router.model")
    embedding = importlib.import_module(f"{name}.embedding")

    data = synthetic.dag_dataset(synthetic.generate_synthetic_records(
        synthetic.SyntheticConfig(n_questions=CORPUS_SIZE, seed=CORPUS_SEED)))
    chunks = [data[i : i + CHUNK] for i in range(0, len(data), CHUNK)]
    embedder = embedding.HashedEmbedder(d=DIMS["d_q"])
    dims = model.RouterDims(**DIMS)
    config = training.TrainConfig(epochs=EPOCHS, lr=LR, seed=TRAIN_SEED,
                                  loss=loss.LossConfig(lambda_edge=LAMBDA_EDGE))
    return lambda i: training.train_router(chunks[i % len(chunks)], embedder, config, dims=dims)


def digest(result) -> str:
    """SHA-256 of a training result's parameter bytes and loss curve."""
    sha = hashlib.sha256()
    for name in sorted(result.params.tensors):
        sha.update(name.encode() + result.params.tensors[name].tobytes())
    sha.update(json.dumps(result.loss_curve).encode())
    return sha.hexdigest()


def same_bits(trainers: dict) -> bool:
    """Whether every trainer gives the same bits on every chunk."""
    return all(len({digest(train(i)) for train in trainers.values()}) == 1
               for i in range(CORPUS_SIZE // CHUNK))


def time_pairs(trainers: dict, first: int, pairs: int, half: int) -> list[dict]:
    runs = []
    for pair, side, ran_first in run_order(first, pairs):
        start = time.perf_counter()
        result = trainers[side](pair)
        took = (time.perf_counter() - start) * 1e3
        runs.append({"pair": pair, "side": side, "ran_first": ran_first, "half": half,
                     "result": {"correct": True, "failed": 0, "steps": result.steps,
                                "metrics": {"call_ms": {"value": took}}}})
    return runs


def summarize_ab(runs: list[dict]) -> dict:
    """`bench_pairs.summarize` over the calls, plus the per-pair ratios."""
    calls: dict[int, dict[str, float]] = {}
    halves: dict[int, int] = {}
    for run in runs:
        value = run["result"]["metrics"]["call_ms"]["value"]
        calls.setdefault(run["pair"], {})[run["side"]] = value
        halves[run["pair"]] = run["half"]
    ratios = {pair: c["change"] / c["parent"] for pair, c in calls.items()}
    summary = summarize(runs, {"call_ms": "lower"})
    summary["ratio_q1_median_q3"] = [round(v, 4) for v in _quartiles(list(ratios.values()))]
    summary["ratio_median_by_half"] = [
        round(statistics.median(r for pair, r in ratios.items() if halves[pair] == half), 4)
        for half in sorted(set(halves.values()))]
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--out", type=Path, help="BENCH_*.json to store the runs in")
    parser.add_argument("--name", help="key of this A/B in the output file")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.name is None):
        parser.error("--out and --name go together")
    # The trees import NumPy when they load, after this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as scratch:
        src = {side: checkout(getattr(args, side), Path(scratch) / side) for side in SIDES}
        # Half 0 loads the parent first, half 1 the change.
        loaded = [{side: load(src[side], f"ab_{side}_{half}") for side in order}
                  for half, order in enumerate((SIDES, SIDES[::-1]))]
    if not same_bits({f"{side}_{half}": trainers[side]
                      for half, trainers in enumerate(loaded) for side in SIDES}):
        print("the trees train different bits; not timed", file=sys.stderr)
        return 1
    half = PAIRS // 2
    runs = time_pairs(loaded[0], 1, half, 0) + time_pairs(loaded[1], half + 1, half, 1)
    summary = summarize_ab(runs)
    call = summary["metrics"]["call_ms"]
    print(f"change/parent per pair: {summary['ratio_q1_median_q3']} (q1, median, q3), "
          f"by half {summary['ratio_median_by_half']}, change won {call['change_wins']}")
    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record.setdefault("ab", {})[args.name] = {
            "what": __doc__.split("\n\n", 1)[1].strip(), "parent": args.parent,
            "change": args.change, "same_bits": True, "runs": runs, "summary": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
