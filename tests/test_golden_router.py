"""The seeded initial router pinned bit for bit against a committed capture.

tests/golden/router_init_seed0.json was written by the checkpoint-version-1
router, whose message weight was stored as two halves that only acted
through their sum. `init_params` must still start every seed at exactly that
function. Regenerate (only for an intended change of the starting router)
with:

    PYTHONPATH=src python tests/test_golden_router.py
"""

import json
from pathlib import Path

import numpy as np

from sdag.router.model import RouterDims, init_params, route, tensor_shapes

GOLDEN = Path(__file__).parent / "golden" / "router_init_seed0.json"
DIMS = RouterDims(d_s=8, d_q=8, h=8, L=2)
SEED = 0


def _capture(h_q):
    out = route(init_params(DIMS, seed=SEED), h_q)
    return {"dims": {"d_s": DIMS.d_s, "d_q": DIMS.d_q, "h": DIMS.h, "L": DIMS.L},
            "seed": SEED, "h_q": h_q.tolist(),
            "node_probs": out.node_probs.tolist(), "edge_probs": out.edge_probs.tolist()}


def test_seeded_initial_router_matches_golden():
    # Checkpoint version 2 stores one message weight per layer.
    assert not [n for n in tensor_shapes(DIMS) if n.endswith((".w_in", ".w_out"))]
    golden = json.loads(GOLDEN.read_text())
    got = _capture(np.array(golden["h_q"]))
    assert got["dims"] == golden["dims"] and got["seed"] == golden["seed"]
    assert np.array_equal(got["node_probs"], golden["node_probs"])
    assert np.array_equal(got["edge_probs"], golden["edge_probs"])


if __name__ == "__main__":
    h_q = np.random.default_rng(2024).standard_normal(DIMS.d_q)
    GOLDEN.write_text(json.dumps(_capture(h_q), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN.name}")
