"""Time `train_router` of two source trees in one process and record it.

    python3 tools/ab.py --parent REV --change REV [--corpus C] \
        [--out BENCH_x.json --name KEY]

Each REV is a git revision, `git archive`d into a temporary directory. A
tree's `src/sdag` is imported as a package of its own name (every import
inside `src/sdag` is relative), so both trees run in one process, pinned to
one CPU with BLAS on one thread.

The workload is the benchmark's `train` workload: `train_router` at the
acceptance dims (32, 256, 64, 2), lr 1e-3, edge weight 2 and 2 epochs, one
call per 25-question chunk of a 500-question synthetic corpus. `--corpus`
sets how many of the 256 question buckets a chunk hits: `synthetic` (the
default) the 14 of the subject keywords, as generated; `dense-50`,
`dense-75`, `dense-90` and `dense` 50, 75, 90 and 100 %, by tokens `v0, v1,
...` dealt round-robin over the chunk's questions. So Adam reads 19, 187 and,
from `dense-75` on, all 256 question rows. The tokens change no DAG or label.

Before timing, each tree trains every chunk; the two trees' parameter bits
and loss curves must be equal, or the tool exits 1 without timing. Then pair
i of `PAIRS` trains chunk i mod 20 once on each side, the parent first in
odd pairs, and records each call's wall time. A tree loaded second runs
about 1 % faster, so each tree is loaded twice: the first half of the pairs
runs the copies loaded parent first, the second half the copies loaded
change first.

The summary is `bench_pairs.summarize` over the calls (metric `call_ms`),
plus the quartiles of the per-pair ratio change/parent and the median ratio
of each half. With `--out`, the runs and summary are stored under
`ab.<KEY>` in the file, whose other keys are kept, with the corpus, the
buckets each chunk hits and the mean number of nonzero buckets per question.
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

# One thread for BLAS, before NumPy and the trees load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from bench_pairs import SIDES, _quartiles, run_order, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CORPUS_SIZE, CHUNK, CORPUS_SEED = 500, 25, 3
EPOCHS, LR, LAMBDA_EDGE, TRAIN_SEED = 2, 1e-3, 2.0, 1
DIMS = dict(d_s=32, d_q=256, h=64, L=2)
# Timed pairs, half of them on the copies loaded parent first.
PAIRS = 80
# The share of the question buckets each chunk of a corpus hits, at least.
CORPORA = {"synthetic": 0.0, "dense-50": 0.5, "dense-75": 0.75, "dense-90": 0.9, "dense": 1.0}


def checkout(rev: str, into: Path) -> Path:
    """The `src/sdag` of revision `rev`, `git archive`d under `into`."""
    tree = into / rev.replace("/", "_")
    tree.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/sdag"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree / "src" / "sdag"


def load(src: Path, name: str, corpus: str):
    """Import the package at `src` as `name`, and return its `workload`."""
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return workload(name, corpus)


def workload(package: str, corpus: str):
    """A function that trains chunk i of `corpus` with the imported `package`,
    and the buckets each chunk hits and the mean nonzero buckets a question."""
    synthetic = importlib.import_module(f"{package}.synthetic")
    training = importlib.import_module(f"{package}.router.training")
    loss = importlib.import_module(f"{package}.router.loss")
    model = importlib.import_module(f"{package}.router.model")
    embedding = importlib.import_module(f"{package}.embedding")

    data = synthetic.dag_dataset(synthetic.generate_synthetic_records(
        synthetic.SyntheticConfig(n_questions=CORPUS_SIZE, seed=CORPUS_SEED)))
    embedder = embedding.HashedEmbedder(d=DIMS["d_q"])
    chunks = [deal(data[i : i + CHUNK], embedder, CORPORA[corpus])
              for i in range(0, len(data), CHUNK)]
    nonzero = [np.array([embedder.embed(q) != 0 for q, _ in chunk]) for chunk in chunks]
    dims = model.RouterDims(**DIMS)
    config = training.TrainConfig(epochs=EPOCHS, lr=LR, seed=TRAIN_SEED,
                                  loss=loss.LossConfig(lambda_edge=LAMBDA_EDGE))
    train = lambda i: training.train_router(chunks[i % len(chunks)], embedder, config, dims=dims)
    return train, {"buckets_hit_per_chunk": [int(n.any(axis=0).sum()) for n in nonzero],
                   "buckets_per_question": float(np.mean([n.sum(axis=1) for n in nonzero]))}


def deal(chunk: list, embedder, share: float) -> list:
    """`chunk` with tokens `v0, v1, ...` dealt round-robin over its questions
    until their embeddings are nonzero in `share` of the buckets."""
    texts = [question for question, _ in chunk]
    nonzero = np.array([embedder.embed(text) != 0 for text in texts])
    k = 0
    while nonzero.any(axis=0).sum() < share * embedder.d:
        q = k % len(texts)
        texts[q] += f" v{k}"
        nonzero[q] = embedder.embed(texts[q]) != 0
        k += 1
    return [(text, dag) for text, (_, dag) in zip(texts, chunk)]


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
    parser.add_argument("--corpus", choices=CORPORA, default="synthetic")
    parser.add_argument("--out", type=Path, help="BENCH_*.json to store the runs in")
    parser.add_argument("--name", help="key of this A/B in the output file")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.name is None):
        parser.error("--out and --name go together")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as scratch:
        src = {side: checkout(getattr(args, side), Path(scratch) / side) for side in SIDES}
        # Half 0 loads the parent first, half 1 the change.
        workloads = [{side: load(src[side], f"ab_{side}_{half}", args.corpus) for side in order}
                     for half, order in enumerate((SIDES, SIDES[::-1]))]
    loaded = [{side: train for side, (train, _) in w.items()} for w in workloads]
    corpus = {"corpus": args.corpus, **workloads[0]["parent"][1]}
    if not same_bits({f"{side}_{half}": trainers[side]
                      for half, trainers in enumerate(loaded) for side in SIDES}):
        print("the trees train different bits; not timed", file=sys.stderr)
        return 1
    half = PAIRS // 2
    runs = time_pairs(loaded[0], 1, half, 0) + time_pairs(loaded[1], half + 1, half, 1)
    summary = summarize_ab(runs)
    call = summary["metrics"]["call_ms"]
    print(f"{args.corpus}: change/parent per pair {summary['ratio_q1_median_q3']} (q1, median, "
          f"q3), by half {summary['ratio_median_by_half']}, change won {call['change_wins']}")
    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record.setdefault("ab", {})[args.name] = {
            "what": __doc__.split("\n\n", 1)[1].strip(), "parent": args.parent,
            "change": args.change, **corpus, "same_bits": True, "runs": runs, "summary": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
