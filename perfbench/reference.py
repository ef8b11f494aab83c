"""A fixed reference step that gauges how fast the machine runs right now.

On a shared 2-vCPU Intel Xeon virtual machine the speed drifts by up to 2x
over minutes, and slow spells slow every phase of a run alike. The
benchmark times this step alongside its own blocks and scales its CPU-bound
figures to a machine that runs the step in exactly half a millisecond. The step
mixes what the program spends its time on: many small NumPy products, Python
object churn, and a short-lived thread pool. It never changes with the
program, so a change to the program moves the scaled rates and a change of
machine speed does not.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Reference steps per second of the nominal machine; one core of a 2-vCPU
# Intel Xeon virtual machine runs about this many.
NOMINAL_STEPS_PER_S = 2000.0

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((15, 288))
_W1 = _rng.standard_normal((288, 64)) * 0.1
_W2 = _rng.standard_normal((64, 64)) * 0.1
_PAIRS = _rng.standard_normal((210, 192))
_W3 = _rng.standard_normal((192, 64)) * 0.1


def _node(i: int) -> str:
    return hashlib.sha256((f"node {i} reply " * 20).encode()).hexdigest()


def reference_step() -> float:
    """A two-layer forward and backward pass, a serialized record list, and a
    three-thread pool."""
    h = np.maximum(_X @ _W1, 0.0)
    g = np.maximum(h @ _W2, 0.0)
    e = np.maximum(_PAIRS @ _W3, 0.0)
    dg = (g > 0).astype(np.float64)
    dh = (dg @ _W2.T) * (h > 0)
    grad = float((_X.T @ dh)[0, 0] + (h.T @ dg)[0, 0])
    records = [{"subject": i, "reply": f"<<{i % 4}>>", "latency": i * 1e-3} for i in range(40)]
    text = json.dumps(records, sort_keys=True)
    with ThreadPoolExecutor(max_workers=3) as pool:
        digests = list(pool.map(_node, range(3)))
    return grad + float(e.sum()) + len(text) + len(digests)
