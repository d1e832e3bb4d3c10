"""Portable bank artifact bundling codewords, hints, and their composition.

A bank is built from its codewords ``f_q``, its hints ``f_h`` and a
string-to-string ``meta`` map; the sizes ``n`` and ``dim`` are read off the
arrays, and the composition ``f_k = f_q + f_h`` is computed once, at
construction. The file is a single JSON document with round-trip exact
floats, so saves are byte-identical for a given bank and loads reproduce
every coordinate. The file also holds the format version, the sizes and
``f_k``; ``load_bank`` checks each against the arrays and the derived
composition, which makes hand-edited files detectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import ParseError, PreconditionError, check_array, owned_readonly
from .hints import HintSet
from .quantizer import Codebook

BANK_FORMAT_VERSION = 1
_MATRICES = ("f_q", "f_h", "f_k")


@dataclass(frozen=True, eq=False)
class KnowledgeBank:
    """The quantized codewords ``f_q``, the learned hints ``f_h``, the composed
    features ``f_k = f_q + f_h`` and a string-to-string ``meta`` map.

    The bank keeps its own read-only float64 arrays (``errors.owned_readonly``)
    and its own copy of ``meta``, so a caller's later writes to the arrays or
    the dict it passed in do not change the bank. ``dataclasses.replace``
    computes ``f_k`` again.
    """

    f_q: np.ndarray
    f_h: np.ndarray
    f_k: np.ndarray = field(init=False)
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        f_q = owned_readonly(check_array("f_q", self.f_q, (None, None)))
        f_h = owned_readonly(check_array("f_h", self.f_h, f_q.shape))
        f_k = f_q + f_h
        f_k.flags.writeable = False  # a new array, so the bank keeps it without a copy
        self.validate()
        for name, value in (("f_q", f_q), ("f_h", f_h), ("f_k", f_k), ("meta", dict(self.meta))):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # a copy is checked and owned by the constructor again
        return type(self), (self.f_q, self.f_h, self.meta)

    def validate(self) -> None:
        """Check that ``meta`` maps strings to strings; also called by
        ``save_bank``, since a caller can still write into ``bank.meta``."""
        if not isinstance(self.meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.meta.items()
        ):
            raise PreconditionError("meta must map strings to strings")

    @property
    def n(self) -> int:
        return self.f_q.shape[0]

    @property
    def dim(self) -> int:
        return self.f_q.shape[1]


def assemble_bank(codebook: Codebook, hints: HintSet, meta: dict[str, str]) -> KnowledgeBank:
    """Bundle the codewords and hints, composed as ``f_k = f_q + f_h``, with
    provenance metadata; hints of another shape raise ``DimensionError``."""
    return KnowledgeBank(f_q=codebook.centroids, f_h=hints.hints, meta=meta)


def save_bank(bank: KnowledgeBank, path) -> None:
    """Write the bank as one JSON document; output bytes are deterministic."""
    bank.validate()
    jsonio.write_documents(path, [{
        "version": BANK_FORMAT_VERSION, "n": bank.n, "dim": bank.dim, "meta": bank.meta,
        "f_q": bank.f_q, "f_h": bank.f_h, "f_k": bank.f_k,
    }])


def load_bank(path) -> KnowledgeBank:
    """Parse and validate a bank file; a tampered composition is rejected."""
    doc = jsonio.read_document(path, ("version", "n", "dim", "meta") + _MATRICES)
    jsonio.read_version(doc, path, BANK_FORMAT_VERSION, "bank format")
    n, dim = jsonio.read_size(doc, "n", path), jsonio.read_size(doc, "dim", path)
    f_q, f_h, f_k = (jsonio.read_array(doc, key, path, (n, dim)) for key in _MATRICES)
    f_q.flags.writeable = f_h.flags.writeable = False  # handed over: kept without a copy
    try:  # the arrays passed every rule above, so only the meta rule can fail here
        bank = KnowledgeBank(f_q=f_q, f_h=f_h, meta=doc["meta"])
    except PreconditionError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.array_equal(f_k, bank.f_k):
        raise PreconditionError("composed features f_k must equal f_q + f_h exactly")
    return bank
