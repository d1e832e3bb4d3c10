"""Ingest, validate, and partition labeled instance embeddings.

Embeddings are produced by an external encoder and arrive as JSON-lines
files, one record per line: ``{"id": str, "label": "pedestrian" |
"background", "vector": [numbers]}``. Line order is significant and is
preserved by every operation here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import DimensionError, ParseError, PreconditionError

PEDESTRIAN = "pedestrian"
BACKGROUND = "background"
LABELS = (PEDESTRIAN, BACKGROUND)


@dataclass(frozen=True)
class EmbeddingRecord:
    """A single labeled embedding of dimension ``len(vector)``."""

    id: str
    label: str
    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        object.__setattr__(self, "vector", vec)
        if not isinstance(self.id, str) or not self.id:
            raise PreconditionError("record id must be a non-empty string")
        if self.label not in LABELS:
            raise PreconditionError(
                f"record {self.id!r}: label must be one of {LABELS}, got {self.label!r}"
            )
        if vec.ndim != 1 or vec.size == 0:
            raise DimensionError(f"record {self.id!r}: vector must be a non-empty 1-d array")
        if not np.all(np.isfinite(vec)):
            raise PreconditionError(f"record {self.id!r}: vector has non-finite coordinates")


@dataclass(frozen=True)
class EmbeddingDataset:
    """Ordered records sharing one embedding dimension.

    ``dim`` is ``None`` only for an empty dataset parsed from an empty
    file, where no dimension can be inferred.
    """

    dim: int | None
    records: tuple[EmbeddingRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            if self.dim is not None and self.dim < 1:
                raise DimensionError("dim must be positive or None for an empty dataset")
            return
        if self.dim is None or self.dim < 1:
            raise DimensionError("a non-empty dataset must declare a positive dim")
        seen = set()
        for rec in self.records:
            if rec.vector.shape[0] != self.dim:
                raise DimensionError(
                    f"record {rec.id!r} has dimension {rec.vector.shape[0]}, expected {self.dim}"
                )
            if rec.id in seen:
                raise PreconditionError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def matrix(self) -> np.ndarray:
        """Stack all vectors into a ``(len, dim)`` array (``(0, 0)`` when empty)."""
        if not self.records:
            return np.zeros((0, 0))
        return np.stack([rec.vector for rec in self.records])

    def ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.records)


def parse_embedding_file(path, normalize: bool = False) -> EmbeddingDataset:
    """Parse a JSON-lines embedding file, preserving line order.

    Every line must be an object with exactly the keys ``id``, ``label``,
    and ``vector``; the dataset dimension is inferred from the first
    record. With ``normalize`` set, each vector is L2-normalized at
    ingestion. Errors name the offending 1-based line.
    """
    records: list[EmbeddingRecord] = []
    dim: int | None = None
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}: line {lineno}"
            line = raw.strip()
            if not line:
                raise ParseError(f"{where}: blank line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or set(obj) != {"id", "label", "vector"}:
                raise ParseError(f"{where}: expected an object with keys id, label, vector")
            rec_id, label = obj["id"], obj["label"]
            if not isinstance(rec_id, str) or not rec_id:
                raise ParseError(f"{where}: id must be a non-empty string")
            if label not in LABELS:
                raise ParseError(f"{where}: unknown label {label!r}")
            vec = jsonio.read_array(obj, "vector", where, (None,))
            if dim is None:
                dim = int(vec.shape[0])
            elif vec.shape[0] != dim:
                raise DimensionError(
                    f"{where}: vector has {vec.shape[0]} coordinates, expected {dim}"
                )
            if rec_id in seen_ids:
                raise ParseError(f"{where}: duplicate id {rec_id!r}")
            seen_ids.add(rec_id)
            if normalize:
                try:
                    vec = l2_normalize(vec)
                except PreconditionError as exc:
                    raise PreconditionError(f"{where}: {exc}") from exc
            records.append(EmbeddingRecord(rec_id, label, vec))
    return EmbeddingDataset(dim=dim, records=tuple(records))


def write_embedding_file(dataset: EmbeddingDataset, path) -> None:
    """Serialize a dataset as JSON lines with round-trip exact floats."""
    jsonio.write_documents(
        path,
        ({"id": rec.id, "label": rec.label, "vector": rec.vector.tolist()} for rec in dataset),
    )


def split_by_label(dataset: EmbeddingDataset) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Partition into (pedestrians, backgrounds), preserving record order."""
    peds = tuple(r for r in dataset if r.label == PEDESTRIAN)
    bgs = tuple(r for r in dataset if r.label == BACKGROUND)
    return (
        EmbeddingDataset(dim=dataset.dim, records=peds),
        EmbeddingDataset(dim=dataset.dim, records=bgs),
    )


def l2_normalize(vector) -> np.ndarray:
    """Scale a vector to unit Euclidean norm; the direction is preserved."""
    vec = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise PreconditionError("cannot normalize a zero vector")
    return vec / norm


def generate_synthetic(
    seed: int,
    pedestrians: int,
    backgrounds: int,
    dim: int = 512,
    separation: float = 8.0,
) -> EmbeddingDataset:
    """Draw two labeled Gaussian clusters with unit isotropic noise.

    Cluster means sit ``separation`` apart along the normalized all-ones
    direction (pedestrians on the positive side), so datasets generated
    from different seeds share the same geometry and can serve as held-out
    splits for each other. ``separation`` 0 makes the labels statistically
    indistinguishable.
    """
    if pedestrians < 1 or backgrounds < 1:
        raise PreconditionError("pedestrian and background counts must be positive")
    if dim < 2:
        raise PreconditionError("dim must be at least 2")
    if separation < 0:
        raise PreconditionError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    direction = np.ones(dim) / np.sqrt(dim)
    offset = 0.5 * separation * direction
    ped_vecs = rng.normal(size=(pedestrians, dim)) + offset
    bg_vecs = rng.normal(size=(backgrounds, dim)) - offset
    records = [
        EmbeddingRecord(f"ped-{i:05d}", PEDESTRIAN, ped_vecs[i]) for i in range(pedestrians)
    ]
    records += [
        EmbeddingRecord(f"bg-{i:05d}", BACKGROUND, bg_vecs[i]) for i in range(backgrounds)
    ]
    return EmbeddingDataset(dim=dim, records=tuple(records))
