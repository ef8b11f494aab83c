"""`generate_sdag` at the benchmark dims pinned against a committed capture.

tests/golden/dags_bench_dims.jsonl holds the DAGs that three seeded,
untrained routers build for 40 synthetic questions at the dims the benchmark
trains and routes with (h = 64): a header line with the dims, router seeds
and question count, then one line per (router seed, question) with the kept
nodes and edges and their scores. Untrained routers score edges near 0.5, so
unlike the benchmark's trained router they keep edges, and the capture pins
the edge scores `generate_sdag` reads. JSON writes each float as its shortest
round-tripping text, so the scores are compared exactly. Regenerate (only
for an intended change of routing) with:

    PYTHONPATH=src python tests/test_golden_dags.py
"""

import json
from pathlib import Path

from sdag.embedding import HashedEmbedder
from sdag.router.generation import generate_sdag
from sdag.router.model import RouterDims, init_params
from sdag.synthetic import SyntheticConfig, generate_synthetic_records

GOLDEN = Path(__file__).parent / "golden" / "dags_bench_dims.jsonl"
DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)
ROUTER_SEEDS = (0, 1, 2)
QUESTIONS = 40


def _capture() -> list[dict]:
    embedder = HashedEmbedder(d=DIMS.d_q)
    records = generate_synthetic_records(SyntheticConfig(n_questions=QUESTIONS, seed=0))
    lines = [{"dims": {"d_s": DIMS.d_s, "d_q": DIMS.d_q, "h": DIMS.h, "L": DIMS.L},
              "router_seeds": list(ROUTER_SEEDS), "questions": QUESTIONS}]
    for seed in ROUTER_SEEDS:
        params = init_params(DIMS, seed=seed)
        for record in records:
            dag = generate_sdag(record.question, params, embedder)
            lines.append({
                "seed": seed,
                "question": record.question,
                "nodes": [[n.subject.value, n.score] for n in dag.nodes],
                "edges": [[e.src.value, e.dst.value, e.score] for e in dag.edges],
            })
    return lines


def test_generate_sdag_at_benchmark_dims_matches_golden():
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    got = _capture()
    assert len(got) == len(golden) == 1 + len(ROUTER_SEEDS) * QUESTIONS
    # The capture exercises edges and multi-node DAGs, not only single nodes.
    assert sum(len(line["edges"]) for line in golden[1:]) > 0
    for mine, theirs in zip(got, golden):
        assert mine == theirs, (mine.get("seed"), mine.get("question"))


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in _capture()))
    print(f"wrote {GOLDEN.name}")
