"""Checkpoint files for router parameters.

Plain JSON: format version, dimension record, seed and embedder provenance,
and every tensor flattened row-major. Float round-tripping through JSON
preserves 64-bit values exactly, so save/load is bit-exact. Saves stream
tensor by tensor into a temporary file that replaces the target.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import CorruptCheckpoint
from ..fileio import CHECKPOINT_FIELDS, DIMS_FIELDS, atomic_writer, check_fields, read_versioned
from .model import RouterDims, RouterParams, tensor_shapes

CHECKPOINT_VERSION = 2


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False, separators=(",", ":"))


def save_checkpoint(params: RouterParams, path: str | Path) -> None:
    """Write `params` to `path`, one tensor at a time, replacing it atomically.

    The bytes equal json.dumps(payload, sort_keys=True, allow_nan=False,
    separators=(",", ":")) + "\n" of the whole payload, but only one tensor's
    float list and JSON text exist at once. The text goes through
    `atomic_writer`, so a failed save (say, a tensor that turned non-finite)
    leaves any previous checkpoint intact.
    """
    dims = asdict(params.dims)
    with atomic_writer(path) as f:
        # Top-level keys in sorted order, as sort_keys=True would emit them.
        f.write(f'{{"dims":{_dumps(dims)},"embedder":{_dumps(params.embedder)},')
        f.write(f'"seed":{_dumps(params.seed)},"tensors":{{')
        for i, name in enumerate(sorted(params.tensors)):
            values = _dumps(params.tensors[name].reshape(-1).tolist())
            f.write(f'{"," if i else ""}{_dumps(name)}:{values}')
        f.write(f'}},"version":{CHECKPOINT_VERSION}}}\n')


def load_checkpoint(path: str | Path) -> RouterParams:
    payload = read_versioned(path, CorruptCheckpoint, CHECKPOINT_VERSION, CHECKPOINT_FIELDS)
    check_fields(f"{path}: dims", payload["dims"], DIMS_FIELDS, CorruptCheckpoint)
    try:
        dims = RouterDims(**payload["dims"])
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: bad dims record ({exc})") from exc

    raw_tensors = payload["tensors"]
    expected = tensor_shapes(dims)
    if set(raw_tensors) != set(expected):
        raise CorruptCheckpoint(f"{path}: tensor names do not match the dims record")
    tensors = {}
    for name, shape in expected.items():
        try:
            # Read as found first: booleans, strings and other values must
            # not pass as numbers by conversion.
            arr = np.asarray(raw_tensors[name])
            if arr.dtype.kind in "bUO":
                raise CorruptCheckpoint(f"{path}: tensor {name} is not numeric ({arr.dtype})")
            arr = arr.astype(np.float64, copy=False).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise CorruptCheckpoint(f"{path}: tensor {name} is malformed ({exc})") from exc
        if not np.all(np.isfinite(arr)):
            raise CorruptCheckpoint(f"{path}: tensor {name} has non-finite values")
        tensors[name] = arr
    return RouterParams(
        dims=dims, tensors=tensors, seed=payload.get("seed"), embedder=payload.get("embedder")
    )
