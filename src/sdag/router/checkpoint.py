"""Checkpoint files for router parameters.

Plain JSON: format version, dimension record, seed and embedder provenance,
and every tensor flattened row-major. Float round-tripping through JSON
preserves 64-bit values exactly, so save/load is bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import CorruptCheckpoint, VersionMismatch
from .model import RouterDims, RouterParams, tensor_shapes

CHECKPOINT_VERSION = 2


def save_checkpoint(params: RouterParams, path: str | Path) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "dims": {
            "d_s": params.dims.d_s,
            "d_q": params.dims.d_q,
            "h": params.dims.h,
            "L": params.dims.L,
            "activation": params.dims.activation,
        },
        "seed": params.seed,
        "embedder": params.embedder,
        "tensors": {name: arr.reshape(-1).tolist() for name, arr in params.tensors.items()},
    }
    text = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> RouterParams:
    data = Path(path).read_bytes()
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptCheckpoint(f"{path}: top level is not an object")

    version = payload.get("version")
    if not isinstance(version, int):
        raise CorruptCheckpoint(f"{path}: missing or malformed version field")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"{path}: checkpoint version {version}, supported {CHECKPOINT_VERSION}"
        )

    try:
        dims = RouterDims(**payload["dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"{path}: bad dims record ({exc})") from exc

    raw_tensors = payload.get("tensors")
    if not isinstance(raw_tensors, dict):
        raise CorruptCheckpoint(f"{path}: missing tensors")
    expected = tensor_shapes(dims)
    if set(raw_tensors) != set(expected):
        raise CorruptCheckpoint(f"{path}: tensor names do not match the dims record")
    tensors = {}
    for name, shape in expected.items():
        try:
            arr = np.asarray(raw_tensors[name], dtype=np.float64).reshape(shape)
        except (TypeError, ValueError) as exc:
            raise CorruptCheckpoint(f"{path}: tensor {name} is malformed ({exc})") from exc
        if not np.all(np.isfinite(arr)):
            raise CorruptCheckpoint(f"{path}: tensor {name} has non-finite values")
        tensors[name] = arr

    seed = payload.get("seed")
    embedder = payload.get("embedder")
    try:
        return RouterParams(dims=dims, tensors=tensors, seed=seed, embedder=embedder)
    except Exception as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
