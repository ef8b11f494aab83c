"""Time `train()` in alternating fresh processes of two trees and record them.

    python3 tools/train_probe.py --parent DIR --change DIR --corpus C \
        --pairs N --out BENCH_x.json

Each run is a new `python3` process with `DIR/src` on its path, BLAS on one
thread and the process pinned to one CPU. It trains the benchmark's set-up
router (acceptance dims, 100 questions, 6 epochs, lr 1e-2, edge weight 2)
three times on one corpus. Its result has the shape of a benchmark result,
with a digest of the trained parameters and loss curve, so that the two
trees' results can be compared bit for bit. Its metrics:

- `step_us`: the least time per step of the three `train()` calls;
- `forward_us`, `logit_gradients_us`, `backward_us`, `adam_us`: one step's
  stages (`ForwardTape`, `logit_gradients`, `backward` into Adam's gradient
  buffer, `_Adam.step`) on the corpus's first sample, each the least of
  `STAGE_STEPS` steps timed call by call;
- `buckets_per_question`: the mean number of nonzero buckets in a
  question's embedding, the rows of a question block's gradient that are
  multiplied out.

The stages run the public per-call path: `logit_gradients` from the labels,
and `backward` into every question row. `train()` prepares each sample's
labels once and writes only the question rows Adam reads, which trees before
those changes cannot do, and the child must run on both trees of a pair. So
`logit_gradients_us` and `backward_us` read more than a step of `train()`
spends there; `step_us` times `train()` itself.

Corpora:

- `synthetic`: the set-up corpus as generated; its questions hash to the 14
  buckets of the subject keywords;
- `dense-50`, `dense-75`, `dense-90`: the same questions, each with extra
  tokens dealt round-robin from a list that is cut where the questions hit
  50, 75 or 90 % of the 256 buckets; the buckets left unhit are scattered;
- `dense`: the list uncut, so that the questions hit every bucket.

Runs are ordered and summarized as in bench_pairs.py, under
`train_probe.<corpus>` in the output file, whose other keys are kept. The
summary adds `same_bits`: whether every run trained the same bits.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_pairs import run_order, summarize

REPEATS = 3
STAGE_STEPS = 300
# Every metric of a child's result; lower is better for each.
METRICS = ("step_us", "forward_us", "logit_gradients_us", "backward_us", "adam_us",
           "buckets_per_question")
CORPORA = {"synthetic": 0.0, "dense-50": 0.5, "dense-75": 0.75, "dense-90": 0.9, "dense": 1.0}

CHILD = r"""
import hashlib, json, os, sys, time
from dataclasses import replace
import numpy as np
from sdag.embedding import HashedEmbedder
from sdag.router.loss import LossConfig, logit_gradients
from sdag.router.model import ForwardTape, RouterDims, backward, init_params
from sdag.router.training import TrainConfig, TrainSample, _Adam, _live_buckets, train
from sdag.synthetic import SyntheticConfig, dag_dataset, generate_synthetic_records

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
share, repeats = float(sys.argv[1]), int(sys.argv[2])
dims = RouterDims(d_s=32, d_q=256, h=64, L=2)
embedder = HashedEmbedder(d=dims.d_q)
dataset = dag_dataset(generate_synthetic_records(SyntheticConfig(n_questions=100, seed=1_000_003)))
texts = [question for question, _ in dataset]
hit = set(np.flatnonzero(np.any([embedder.embed(t) != 0 for t in texts], axis=0)).tolist())
extra, k = [[] for _ in texts], 0
while len(hit) < share * dims.d_q:
    token = f"v{k}"
    hit.update(np.flatnonzero(embedder.embed(token)).tolist())
    extra[k % len(texts)].append(token)
    k += 1
texts = [" ".join([text] + tokens) for text, tokens in zip(texts, extra)]
samples = [TrainSample.from_dag(embedder.embed(t), dag) for t, (_, dag) in zip(texts, dataset)]
config = TrainConfig(epochs=6, lr=1e-2, seed=0, loss=LossConfig(lambda_edge=2.0))
step_us = []
for _ in range(repeats):
    params = init_params(dims, seed=0)
    start = time.perf_counter()
    result = train(params, samples, config)
    step_us.append((time.perf_counter() - start) / result.steps * 1e6)
initial, first = init_params(dims, seed=0), samples[0]
optimizer = _Adam(initial, _live_buckets(dims.d_q, samples), config.lr)
params = replace(initial, tensors=optimizer.tensors)
stage_us = {"forward_us": [], "logit_gradients_us": [], "backward_us": [], "adam_us": []}
clock = time.perf_counter
for _ in range(int(sys.argv[3])):
    t0 = clock()
    tape = ForwardTape(params, first.h_q)
    t1 = clock()
    _, d_node, d_edge = logit_gradients(tape, first.node_labels, first.edge_labels, config.loss)
    t2 = clock()
    backward(tape, d_node, d_edge, out=optimizer.grads)
    t3 = clock()
    optimizer.step()
    t4 = clock()
    for name, took in zip(stage_us, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
        stage_us[name].append(took * 1e6)
metrics = {"step_us": min(step_us), **{name: min(us) for name, us in stage_us.items()},
           "buckets_per_question": float(np.mean([np.count_nonzero(s.h_q) for s in samples]))}
digest = hashlib.sha256()
for name in sorted(result.params.tensors):
    digest.update(name.encode() + result.params.tensors[name].tobytes())
digest.update(json.dumps(result.loss_curve).encode())
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {name: {"value": value} for name, value in metrics.items()},
                  "step_us": step_us, "buckets_hit": len(hit), "sha256": digest.hexdigest()}))
"""


def run_once(tree: Path, corpus: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(CORPORA[corpus]), str(REPEATS),
                           str(STAGE_STEPS)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize_probe(runs: list[dict]) -> dict:
    summary = summarize(runs, dict.fromkeys(METRICS, "lower"))
    summary["same_bits"] = len({run["result"]["sha256"] for run in runs}) == 1
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--corpus", choices=CORPORA, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to add the runs to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    probe = record.setdefault("train_probe", {}).setdefault(args.corpus, {"runs": []})
    probe["what"] = __doc__.split("\n\n", 1)[1].strip()
    first = max((r["pair"] for r in probe["runs"]), default=0) + 1
    for pair, side, ran_first in run_order(first, args.pairs):
        result = run_once(trees[side], args.corpus)
        probe["runs"].append({"pair": pair, "side": side, "ran_first": ran_first,
                              "result": result})
        print(f"{args.corpus} pair {pair} {side}: {result['metrics']['step_us']['value']:.1f}"
              " us/step", flush=True)
    probe["summary"] = summarize_probe(probe["runs"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
