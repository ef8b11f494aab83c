"""`loss_and_gradients` at the benchmark dims pinned bit for bit against a capture.

tests/golden/gradients_bench_dims.json holds, for the seeded initial router
at the dims the benchmark trains with and 20 synthetic samples (edge weight
2), the SHA-256 of the 20 loss values' float64 bytes and, per tensor, of its
20 gradients' bytes in sample order. The params golden of
test_golden_training.py cannot see a flipped zero sign in a gradient, since
Adam turns +0.0 and -0.0 into the same update; this digest does. Regenerate
(only for an intended change of the loss or the backward pass) with:

    PYTHONPATH=src python tests/test_golden_gradients.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sdag.embedding import HashedEmbedder
from sdag.router.loss import LossConfig, loss_and_gradients
from sdag.router.model import RouterDims, init_params
from sdag.router.training import TrainSample
from sdag.synthetic import SyntheticConfig, dag_dataset, generate_synthetic_records

GOLDEN = Path(__file__).parent / "golden" / "gradients_bench_dims.json"
DIMS = RouterDims(d_s=32, d_q=256, h=64, L=2)
SEED = 0
SAMPLES = 20
CONFIG = LossConfig(lambda_edge=2.0)


def _capture(into_out: bool) -> dict:
    params = init_params(DIMS, seed=SEED)
    embedder = HashedEmbedder(d=DIMS.d_q)
    dataset = dag_dataset(generate_synthetic_records(SyntheticConfig(n_questions=SAMPLES,
                                                                     seed=SEED)))
    losses = []
    digests = {name: hashlib.sha256() for name in params.tensors}
    for question, dag in dataset:
        sample = TrainSample.from_dag(embedder.embed(question), dag)
        # Stale NaNs in `out` show any gradient entry that backward leaves unwritten.
        out = ({name: np.full(arr.shape, np.nan) for name, arr in params.tensors.items()}
               if into_out else None)
        value, grads = loss_and_gradients(params, sample.h_q, sample.node_labels,
                                          sample.edge_labels, CONFIG, out=out)
        losses.append(value)
        for name, grad in grads.items():
            digests[name].update(grad.tobytes())
    return {"dims": {"d_s": DIMS.d_s, "d_q": DIMS.d_q, "h": DIMS.h, "L": DIMS.L},
            "seed": SEED, "samples": len(losses), "lambda_edge": CONFIG.lambda_edge,
            "loss_sha256": hashlib.sha256(np.array(losses).tobytes()).hexdigest(),
            "grad_sha256": {name: d.hexdigest() for name, d in digests.items()}}


@pytest.mark.parametrize("into_out", [False, True], ids=["fresh", "out"])
def test_gradients_match_golden(into_out):
    assert _capture(into_out) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(False), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN.name}")
