"""Strict JSON documents: the one reader and writer behind the embeddings,
bank, feature-batch and attention-parameter files.

Numbers are JSON ints or floats, never bools; versions and sizes are JSON
integers; arrays must have their declared shape and finite values. Every
violation is a ``ParseError`` naming the file and the key, and so is a
file that is not UTF-8 text.

``write_documents`` is the one place that turns arrays into JSON text:
callers hand it float64 arrays, and it writes sorted keys and shortest
round-trip floats, so the same object always produces the same bytes,
``json.dumps(doc, sort_keys=True, allow_nan=False)`` of the nested lists.
Each array is streamed to the file in chunks of whole first-axis items,
about ``CHUNK_VALUES`` values each.
An array of at least ``POOL_MIN_VALUES`` values, on a platform that reports
more than one CPU available to the process, has its chunks formatted in
forked worker processes; the bytes do not depend on which way ran.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ParseError

_NUMBERS = {int, float}

# Values formatted per chunk: about 330 kB of text, and a transient of
# about 2 MB for the chunk's Python floats and strings.
CHUNK_VALUES = 1 << 14
# Smallest array whose chunks go to worker processes. Starting the workers
# and passing chunks and text between processes costs tens of milliseconds:
# on two CPUs, in a 250 MB process, 131 072 values took 171 ms in-process
# and 207 ms pooled, 262 144 values 304 ms and 192 ms. The 50 x 512 bank
# matrices stay in-process; a 100 x 7 x 7 x 256 feature batch is pooled.
POOL_MIN_VALUES = 1 << 18


def read_lines(path):
    """Yield ``(lineno, line)`` for every line of the UTF-8 text file ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_document(path, keys) -> dict:
    """Load a JSON object from ``path`` that holds at least ``keys``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    missing = set(keys) - set(doc)
    if missing:
        raise ParseError(f"{path}: missing keys {sorted(missing)}")
    return doc


def read_version(doc: dict, where, supported: int, kind: str) -> int:
    version = doc["version"]
    if type(version) is not int or version != supported:
        raise ParseError(
            f"{where}: unsupported {kind} version {version!r} (supported: {supported})"
        )
    return version


def read_size(doc: dict, key: str, where) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise ParseError(f"{where}: {key} must be a positive integer")
    return value


def read_array(doc: dict, key: str, where, shape: tuple) -> np.ndarray:
    """The value under ``key`` as a float64 array of ``shape``.

    ``None`` in ``shape`` allows any positive length on that axis; ``()``
    reads a single number.
    """
    rows = [[doc[key]]]
    for axis, size in enumerate(shape):
        rows = [r for row in rows for r in row]
        if not all(type(r) is list and (len(r) == size if size else r) for r in rows):
            want = f"length {size}" if size else "a positive length"
            raise ParseError(f"{where}: {key} must be a number array with {want} on axis {axis}")
    if not all(set(map(type, r)) <= _NUMBERS for r in rows):
        raise ParseError(f"{where}: {key} must hold only numbers")
    non_finite = ParseError(f"{where}: {key} has a non-finite value")
    try:
        arr = np.array(doc[key], dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise non_finite from exc
    if not np.isfinite(arr).all():
        raise non_finite
    return arr


def write_documents(path, docs) -> None:
    """Write each document as one line of JSON.

    Values that are NumPy arrays must be float64 and finite; every other
    value goes through ``json.dumps``. All documents are checked before the
    file is opened, so a rejected write (``ValueError``) leaves an existing
    file as it was.
    """
    parts = [_document_parts(doc) for doc in docs]
    with open(path, "w", encoding="utf-8") as fh:
        for doc_parts in parts:
            for part in doc_parts:
                if isinstance(part, str):
                    fh.write(part)
                else:
                    _write_array(fh, part)
            fh.write("\n")


def _document_parts(doc: dict) -> list:
    """The text of ``doc`` as strings with its arrays left in place, in
    ``json.dumps(doc, sort_keys=True)`` order and separators."""
    parts, text = [], "{"
    for i, (key, value) in enumerate(sorted(doc.items())):
        text += (", " if i else "") + json.dumps(key) + ": "
        if isinstance(value, np.ndarray):
            if value.dtype != np.float64 or not np.isfinite(value).all():
                raise ValueError(f"{key} must be a finite float64 array")
            parts += [text, value]
            text = ""
        else:
            text += json.dumps(value, sort_keys=True, allow_nan=False)
    return parts + [text + "}"]


def _write_array(fh, arr: np.ndarray) -> None:
    """Stream ``arr`` as nested JSON lists, formatting chunks of whole
    axis-0 items in order, in worker processes when it is large."""
    step = max(1, CHUNK_VALUES // max(1, math.prod(arr.shape[1:])))
    chunks = [arr[i:i + step] for i in range(0, len(arr), step)]
    workers = min(_cpus(), len(chunks)) if arr.size >= POOL_MIN_VALUES else 1
    fh.write("[")
    if workers > 1:
        # Imported here: they add about 10 ms to every import of the package.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Fork, not spawn: a worker starts from the parent's memory in
        # milliseconds, where spawn would import NumPy and this package
        # again. The workers run nothing but ``_format_chunk``.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            _write_joined(fh, pool.map(_format_chunk, chunks))
    else:
        _write_joined(fh, map(_format_chunk, chunks))
    fh.write("]")


def _write_joined(fh, texts) -> None:
    for i, text in enumerate(texts):
        if i:
            fh.write(", ")
        fh.write(text)


def _format_chunk(chunk: np.ndarray) -> str:
    """The items of ``chunk`` as JSON text, comma separated, without the
    enclosing brackets; floats as ``float.__repr__``, as ``json`` writes them."""
    if chunk.ndim == 1:
        return ", ".join(map(repr, chunk.tolist()))
    return ", ".join("[" + _format_chunk(item) + "]" for item in chunk)


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
