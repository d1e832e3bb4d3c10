"""Portable bank artifact bundling codewords, hints, and their composition.

The file is a single JSON document with round-trip exact floats, so saves
are byte-identical for a given bank and loads reproduce every coordinate.
The composition ``f_k = f_q + f_h`` is re-derived and enforced both before
writing and after reading, which makes hand-edited files detectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import DimensionError, ParseError, PreconditionError, check_array, check_sizes
from .hints import HintSet
from .quantizer import Codebook

BANK_FORMAT_VERSION = 1
_MATRICES = ("f_q", "f_h", "f_k")


@dataclass(frozen=True)
class KnowledgeBank:
    """Versioned container for the quantized codewords ``f_q``, the learned
    hints ``f_h``, and the composed features ``f_k``."""

    n: int
    dim: int
    f_q: np.ndarray
    f_h: np.ndarray
    f_k: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)
    version: int = BANK_FORMAT_VERSION

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check every invariant, sizes before arrays; also called by ``save_bank``."""
        if type(self.version) is not int or self.version != BANK_FORMAT_VERSION:
            raise PreconditionError(
                f"unsupported bank format version {self.version!r} "
                f"(supported: {BANK_FORMAT_VERSION})"
            )
        check_sizes(n=self.n, dim=self.dim)
        for name in _MATRICES:
            arr = check_array(name, getattr(self, name), (self.n, self.dim))
            object.__setattr__(self, name, arr)
        if not np.array_equal(self.f_k, self.f_q + self.f_h):
            raise PreconditionError(
                "composed features f_k must equal f_q + f_h exactly"
            )
        if not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.meta.items()
        ):
            raise PreconditionError("meta must map strings to strings")


def assemble_bank(codebook: Codebook, hints: HintSet, meta: dict[str, str]) -> KnowledgeBank:
    """Compose ``f_k = f_q + f_h`` and bundle it with provenance metadata."""
    if (codebook.n, codebook.dim) != (hints.n, hints.dim):
        raise DimensionError(
            f"codebook (n, dim)=({codebook.n}, {codebook.dim}) does not match "
            f"hints ({hints.n}, {hints.dim})"
        )
    f_q = codebook.centroids.copy()
    f_h = hints.hints.copy()
    return KnowledgeBank(
        n=codebook.n, dim=codebook.dim, f_q=f_q, f_h=f_h, f_k=f_q + f_h, meta=dict(meta)
    )


def save_bank(bank: KnowledgeBank, path) -> None:
    """Write the bank as one JSON document; output bytes are deterministic."""
    bank.validate()
    jsonio.write_documents(path, [{
        "version": bank.version, "n": bank.n, "dim": bank.dim, "meta": bank.meta,
        "f_q": bank.f_q.tolist(), "f_h": bank.f_h.tolist(), "f_k": bank.f_k.tolist(),
    }])


def load_bank(path) -> KnowledgeBank:
    """Parse and validate a bank file; a tampered composition is rejected."""
    doc = jsonio.read_document(path, ("version", "n", "dim", "meta") + _MATRICES)
    version = jsonio.read_version(doc, path, BANK_FORMAT_VERSION, "bank format")
    n, dim = jsonio.read_size(doc, "n", path), jsonio.read_size(doc, "dim", path)
    matrices = {key: jsonio.read_array(doc, key, path, (n, dim)) for key in _MATRICES}
    meta = doc["meta"]
    if not isinstance(meta, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in meta.items()
    ):
        raise ParseError(f"{path}: meta must map strings to strings")
    return KnowledgeBank(n=n, dim=dim, meta=meta, version=version, **matrices)
