"""Ingest, validate, and partition labeled instance embeddings.

Embeddings are produced by an external encoder and arrive as JSON-lines
files, one record per line: ``{"id": str, "label": "pedestrian" |
"background", "vector": [numbers]}``. Line order is significant and is
preserved by every operation here. In memory a file is one
``EmbeddingDataset``: the ids, the labels and one ``(len, dim)`` matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import DimensionError, ParseError, PreconditionError, check_array, check_sizes

PEDESTRIAN = "pedestrian"
BACKGROUND = "background"
LABELS = (PEDESTRIAN, BACKGROUND)


@dataclass(frozen=True)
class EmbeddingDataset:
    """Labeled embeddings as columns: row ``i`` is ``ids[i]``, ``labels[i]``
    and ``vectors[i]``.

    ``vectors`` is an owned, read-only float64 ``(len, dim)`` array. ``dim``
    is ``None`` only for an empty dataset parsed from an empty file, where no
    dimension can be inferred; its ``vectors`` is ``(0, 0)``.
    """

    ids: tuple[str, ...]
    labels: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self):
        ids, labels = tuple(self.ids), tuple(self.labels)
        vectors = check_array("vectors", self.vectors, (None, None)).copy()
        vectors.flags.writeable = False
        for name, value in (("ids", ids), ("labels", labels), ("vectors", vectors)):
            object.__setattr__(self, name, value)
        if not len(ids) == len(labels) == vectors.shape[0]:
            raise DimensionError(
                f"need one id and one label per row of vectors, got "
                f"{len(ids)} ids, {len(labels)} labels and vectors of shape {vectors.shape}"
            )
        if ids and vectors.shape[1] == 0:
            raise DimensionError("vectors must have at least one coordinate")
        if not all(isinstance(i, str) and i for i in ids):
            raise PreconditionError("record ids must be non-empty strings")
        if len(set(ids)) != len(ids):
            raise PreconditionError("duplicate record id")
        if not set(labels) <= set(LABELS):
            raise PreconditionError(f"labels must be in {LABELS}")

    @property
    def dim(self) -> int | None:
        return self.vectors.shape[1] or None

    def __len__(self) -> int:
        return len(self.ids)


def parse_embedding_file(path, normalize: bool = False) -> EmbeddingDataset:
    """Parse a JSON-lines embedding file, preserving line order.

    Every line must be an object with exactly the keys ``id``, ``label``,
    and ``vector``; the dataset dimension is inferred from the first
    record. With ``normalize`` set, each vector is L2-normalized at
    ingestion. Errors name the offending 1-based line.
    """
    ids: list[str] = []
    labels: list[str] = []
    rows = bytearray()  # float64 bytes of every vector in line order: one buffer, not an array per row
    dim: int | None = None
    seen: set[str] = set()
    for lineno, raw in jsonio.read_lines(path):
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
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise DimensionError(f"{where}: vector has {vec.shape[0]} coordinates, expected {dim}")
        if rec_id in seen:
            raise ParseError(f"{where}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        if normalize:
            try:
                vec = l2_normalize(vec)
            except PreconditionError as exc:
                raise PreconditionError(f"{where}: {exc}") from exc
        ids.append(rec_id)
        labels.append(label)
        rows += vec.tobytes()
    vectors = np.frombuffer(rows).reshape(len(ids), dim or 0)
    return EmbeddingDataset(ids=tuple(ids), labels=tuple(labels), vectors=vectors)


def write_embedding_file(dataset: EmbeddingDataset, path) -> None:
    """Serialize a dataset as JSON lines with round-trip exact floats."""
    jsonio.write_documents(path, (
        {"id": rec_id, "label": label, "vector": vector}
        for rec_id, label, vector in zip(dataset.ids, dataset.labels, dataset.vectors.tolist())
    ))


def split_by_label(dataset: EmbeddingDataset) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Partition into (pedestrians, backgrounds), preserving row order."""

    def labeled(label: str) -> EmbeddingDataset:
        rows = [i for i, row_label in enumerate(dataset.labels) if row_label == label]
        return EmbeddingDataset(
            ids=tuple(dataset.ids[i] for i in rows),
            labels=(label,) * len(rows),
            vectors=dataset.vectors[rows],
        )

    return labeled(PEDESTRIAN), labeled(BACKGROUND)


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
    check_sizes(pedestrians=pedestrians, backgrounds=backgrounds)
    if dim < 2:
        raise PreconditionError("dim must be at least 2")
    if separation < 0:
        raise PreconditionError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    direction = np.ones(dim) / np.sqrt(dim)
    offset = 0.5 * separation * direction
    ped_vecs = rng.normal(size=(pedestrians, dim)) + offset
    bg_vecs = rng.normal(size=(backgrounds, dim)) - offset
    return EmbeddingDataset(
        ids=tuple(f"ped-{i:05d}" for i in range(pedestrians))
        + tuple(f"bg-{i:05d}" for i in range(backgrounds)),
        labels=(PEDESTRIAN,) * pedestrians + (BACKGROUND,) * backgrounds,
        vectors=np.concatenate([ped_vecs, bg_vecs]),
    )
