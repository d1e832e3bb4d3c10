"""Seeded inputs for the benchmark, written in the formats the README documents.

The benchmark draws every input itself with NumPy and hands the program
only files (or, for in-memory calls, arrays), so a change inside the
program cannot change what is measured. The same seed always gives the
same bytes. Each input kind draws from its own stream, ``(seed, STREAM)``.
"""

from __future__ import annotations

import json

import numpy as np

# Paper sizes (README and ROADMAP aim 1).
DIM = 512  # embedding and bank dimension
PEDESTRIANS = 600
BACKGROUNDS = 400
SEPARATION = 8.0
BANK_N = 50
HEADS = 8
D_MODEL = 64
CHANNELS = 256
BLOCKS = 100  # proposal blocks per batch
BLOCK_HW = 7  # proposal blocks are BLOCK_HW x BLOCK_HW x CHANNELS

_BANK, _FEATURES, _UPSTREAM, _QUERIES, _FD = 1, 2, 3, 4, 5


def write_embeddings(path, seed: int) -> None:
    """Labeled embedding JSONL: two unit-noise Gaussian clusters whose means
    sit SEPARATION apart along the normalized all-ones direction.

    The geometry is the one the README's ``gen-synthetic`` defaults describe,
    drawn here from ``default_rng(seed)``: pedestrians first, then
    backgrounds.
    """
    rng = np.random.default_rng(seed)
    offset = 0.5 * SEPARATION * np.ones(DIM) / np.sqrt(DIM)
    peds = rng.normal(size=(PEDESTRIANS, DIM)) + offset
    bgs = rng.normal(size=(BACKGROUNDS, DIM)) - offset
    with open(path, "w", encoding="utf-8") as fh:
        for prefix, label, rows in (("ped", "pedestrian", peds), ("bg", "background", bgs)):
            for i, row in enumerate(rows):
                doc = {"id": f"{prefix}-{i:05d}", "label": label, "vector": row.tolist()}
                fh.write(json.dumps(doc, allow_nan=False))
                fh.write("\n")


def bank_arrays(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codewords ``f_q`` shaped like unnormalized pedestrian centroids, small
    hints ``f_h``, and their exact sum ``f_k``."""
    rng = np.random.default_rng((seed, _BANK))
    offset = 0.5 * SEPARATION * np.ones(DIM) / np.sqrt(DIM)
    f_q = rng.normal(size=(BANK_N, DIM)) + offset
    f_h = rng.normal(0.0, 0.01, size=(BANK_N, DIM))
    return f_q, f_h, f_q + f_h


def write_bank(path, seed: int) -> None:
    """Version-1 bank JSON; ``f_k == f_q + f_h`` holds exactly after a reload
    because every float is written in shortest round-trip form."""
    f_q, f_h, f_k = bank_arrays(seed)
    doc = {
        "version": 1,
        "n": BANK_N,
        "dim": DIM,
        "f_q": f_q.tolist(),
        "f_h": f_h.tolist(),
        "f_k": f_k.tolist(),
        "meta": {"source": "benchmark", "seed": str(seed)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, allow_nan=False))
        fh.write("\n")


def proposal_blocks(seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, _FEATURES))
    return rng.normal(size=(BLOCKS, BLOCK_HW, BLOCK_HW, CHANNELS))


def upstream_cotangent(seed: int) -> np.ndarray:
    rng = np.random.default_rng((seed, _UPSTREAM))
    return rng.normal(size=(BLOCKS, BLOCK_HW, BLOCK_HW, CHANNELS))


def write_feature_batch(path, blocks: np.ndarray) -> None:
    """Proposal feature-batch JSON with row-major ``data``, streamed one block
    at a time so that writing it adds little to the process's peak memory."""
    m, h, w, c = blocks.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"c": {c}, "data": [')
        for i, block in enumerate(blocks):
            if i:
                fh.write(", ")
            fh.write(", ".join(map(repr, block.ravel().tolist())))
        fh.write(f'], "h": {h}, "m": {m}, "mode": "proposal", "w": {w}}}\n')


class QueryStream:
    """Endless seeded stream of distinct ``(CHANNELS,)`` query vectors."""

    def __init__(self, seed: int, chunk: int = 1024):
        self._rng = np.random.default_rng((seed, _QUERIES))
        self._chunk = chunk
        self._buf = np.empty((0, CHANNELS))
        self._next = 0

    def next(self) -> np.ndarray:
        if self._next == self._buf.shape[0]:
            self._buf = self._rng.normal(size=(self._chunk, CHANNELS))
            self._next = 0
        row = self._buf[self._next]
        self._next += 1
        return row


def fd_rng(seed: int) -> np.random.Generator:
    """Stream for the finite-difference direction and sampled oracle rows."""
    return np.random.default_rng((seed, _FD))
