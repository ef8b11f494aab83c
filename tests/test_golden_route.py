"""`route()` at the benchmark dims pinned bit for bit against a committed capture.

tests/golden/route_bench_dims_seed0.jsonl holds the seeded initial router's
logits and probabilities for 20 synthetic questions at the dims the benchmark
trains and routes with (h = 64): a header line with the dims and seed, then
one line per question. The logits are pinned as well as the
probabilities: near p = 0.5 a 1-ulp drift in a logit does not move its
sigmoid, so only the logits show a reordered sum in the edge grid. Regenerate
(only for an intended change of the forward pass) with:

    PYTHONPATH=src python tests/test_golden_route.py
"""

import json
from pathlib import Path

import numpy as np

from sdag.embedding import HashedEmbedder
from sdag.router.model import RouterDims, init_params, route
from sdag.synthetic import SyntheticConfig, generate_synthetic_records

GOLDEN = Path(__file__).parent / "golden" / "route_bench_dims_seed0.jsonl"
DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)
SEED = 0
QUESTIONS = 20


def _capture() -> list[dict]:
    params = init_params(DIMS, seed=SEED)
    embedder = HashedEmbedder(d=DIMS.d_q)
    lines = [{"dims": {"d_s": DIMS.d_s, "d_q": DIMS.d_q, "h": DIMS.h, "L": DIMS.L},
              "seed": SEED}]
    for record in generate_synthetic_records(SyntheticConfig(n_questions=QUESTIONS, seed=SEED)):
        out = route(params, embedder.embed(record.question))
        lines.append({"question": record.question,
                      "node_logits": out.node_logits.tolist(),
                      "edge_logits": out.edge_logits.tolist(),
                      "node_probs": out.node_probs.tolist(),
                      "edge_probs": out.edge_probs.tolist()})
    return lines


def test_route_at_benchmark_dims_matches_golden():
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    got = _capture()
    assert got[0] == golden[0]
    assert len(got) == len(golden) == QUESTIONS + 1
    for mine, theirs in zip(got[1:], golden[1:]):
        assert mine["question"] == theirs["question"]
        for key in ("node_logits", "edge_logits", "node_probs", "edge_probs"):
            # JSON round-trips float64 exactly, -0.0 included; compare the bytes.
            assert np.array(mine[key]).tobytes() == np.array(theirs[key]).tobytes(), (
                mine["question"], key)


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in _capture()))
    print(f"wrote {GOLDEN.name}")
