"""Question embedding providers.

The router consumes a dense question vector from a provider with a declared,
fixed dimension. The shipped provider is a bit-exact offline feature-hashing
embedder; its descriptor is stored in router checkpoints so the CLI can
rebuild it.
"""

from __future__ import annotations

import functools
import re

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_TOKEN_RE = re.compile(r"[a-z0-9]+")


# Questions reuse a small vocabulary; the memo spares rehashing a token byte by byte.
@functools.lru_cache(maxsize=1 << 16)
def _fnv1a_64(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def embed_hashed(text: str, d: int = 256) -> np.ndarray:
    """Signed feature-hashing bag-of-words embedding; bit-exact everywhere.

    Lowercases, tokenizes on runs of non-alphanumerics, FNV-1a-hashes each
    token to a bucket (sign taken from bit 32 of the hash), and L2-normalizes
    the accumulated vector. Token order never matters; an input with no
    tokens yields the all-zero vector.
    """
    if d < 2:
        raise ValueError(f"embedding dimension must be >= 2, got {d}")
    vec = np.zeros(d, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.lower()):
        h = _fnv1a_64(token)
        sign = 1.0 if (h >> 32) & 1 == 0 else -1.0
        vec[h % d] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


class HashedEmbedder:
    """Offline provider wrapping embed_hashed with a fixed dimension."""

    def __init__(self, d: int = 256):
        if d < 2:
            raise ValueError(f"embedding dimension must be >= 2, got {d}")
        self.d = d

    def embed(self, text: str) -> np.ndarray:
        return embed_hashed(text, self.d)

    def describe(self) -> str:
        return f"hashed(d={self.d})"
