"""Seeded training runs pinned bit for bit against a committed capture.

tests/golden/training_seed0.json was written by the per-tensor Adam loop
that preceded the flat in-place optimizer; every configuration must still
end at exactly the same parameters, loss curve and step count. The params
digest is a sha256 over the sorted tensor names and their raw bytes, so a
flipped -0.0 or a 1-ulp drift shows. Regenerate (only for an intended change
of the training trajectory) with:

    PYTHONPATH=src python tests/test_golden_training.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from sdag.embedding import HashedEmbedder
from sdag.router.loss import LossConfig
from sdag.router.model import RouterDims
from sdag.router.training import TrainConfig, train_router
from sdag.synthetic import SyntheticConfig, dag_dataset, generate_synthetic_records

GOLDEN = Path(__file__).parent / "golden" / "training_seed0.json"
SAMPLES = 30
CONFIG = TrainConfig(epochs=3, lr=1e-2, seed=0, loss=LossConfig(lambda_edge=2.0))

# The acceptance dims (tensors up to 288 x 64 float64) and a small linear router.
CASES = {
    "acceptance": RouterDims(d_s=32, d_q=256, h=64, L=2, activation="relu"),
    "small_linear": RouterDims(d_s=8, d_q=32, h=8, L=1, activation="linear"),
}


def _digest(tensors) -> str:
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(name.encode("utf-8"))
        h.update(tensors[name].tobytes())
    return h.hexdigest()


def _capture(dims: RouterDims) -> dict:
    dataset = dag_dataset(generate_synthetic_records(SyntheticConfig(n_questions=SAMPLES, seed=0)))
    result = train_router(dataset, HashedEmbedder(d=dims.d_q), CONFIG, dims=dims)
    return {"params_sha256": _digest(result.params.tensors),
            "loss_curve": result.loss_curve,
            "steps": result.steps}


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())[case]
    assert _capture(CASES[case]) == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: _capture(dims) for case, dims in CASES.items()},
                                 sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN.name}")
