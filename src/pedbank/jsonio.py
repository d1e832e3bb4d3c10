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

Large inputs are read and written on every CPU, by one size rule (at least
``POOL_MIN_VALUES`` values, on a platform that reports more than one CPU
available to the process) and through one map, ``_pooled_map``, which forks
its workers: they format the chunks of a large array, and they parse a
large JSON-lines file (``map_lines``) or the flat array of a large document
(``read_document``) in parts of about ``CHUNK_VALUES`` values. The bytes
written, the arrays read and every error do not depend on which way ran: a
reader whose parts break a rule, or that meets a layout a cut could misread,
parses the whole file again in this process, which decides.
Every writer of the package goes through ``replacing``, so a failed write
leaves an existing file as it was.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import pickle
import stat
from json.decoder import WHITESPACE, scanstring

import numpy as np

from .errors import ParseError, PedbankError

_NUMBERS = {int, float}
_ARRAYS = (list, np.ndarray)

# Values formatted per chunk: about 330 kB of text, and a transient of
# about 2 MB for the chunk's Python floats and strings.
CHUNK_VALUES = 1 << 14
# The size rule of the writer and of both readers: the least work, in values,
# that goes to worker processes. Starting the workers and passing work and
# results between processes costs tens of milliseconds. On two CPUs, in a
# 250 MB process, writing 131 072 values took 171 ms in-process and 207 ms
# pooled, 262 144 values 304 ms and 192 ms; reading a JSON-lines file with
# normalization and a flat array, 65 536 values took 51 and 45 ms in-process
# against 53 and 43 ms pooled, 131 072 values 100 and 81 ms against 71 and
# 74 ms, 262 144 values 187 and 157 ms against 136 and 138 ms. The bank and
# parameter files stay in-process; a 1000 x 512 embeddings file and a
# 100 x 7 x 7 x 256 feature batch are pooled, read and written.
POOL_MIN_VALUES = 1 << 18
# Bytes of JSON text per value, by which the readers count the values of a
# file: a shortest round-trip float64 and its ", " separator, as
# ``write_documents`` writes them, take 20 to 22 bytes.
TEXT_BYTES_PER_VALUE = 20


def read_lines(path):
    """Yield ``(lineno, line)`` for every line of the UTF-8 text file ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def map_lines(path, function, *args) -> list | None:
    """``function(lines, *args)`` for each range of ``path`` that holds
    about ``CHUNK_VALUES`` values of text, cut at line breaks, in order, in
    forked processes that read their ranges themselves. ``lines`` holds
    ``(lineno, line)`` numbered from 1 within the range, as ``read_lines``
    would yield them but for the line break.

    ``None`` when ``path`` is not a regular file or is below the size rule,
    when a range holds a ``\\r`` (which text mode reads as a line break) or
    bytes that are not UTF-8, or when ``function`` raises a ``PedbankError``
    or ``ValueError``: the caller then reads the file through ``read_lines``,
    which decides.
    """
    size = os.path.getsize(path) if os.path.isfile(path) else 0  # a pipe is read once, in order
    values = size // TEXT_BYTES_PER_VALUE
    if _workers(values, _cpus()) < 2:
        return None
    step = CHUNK_VALUES * TEXT_BYTES_PER_VALUE
    cuts = {0, size}
    with open(path, "rb") as fh:
        for offset in range(step, size, step):
            fh.seek(offset)
            fh.readline()  # to the end of the line that holds byte ``offset``
            cuts.add(fh.tell())
    bounds = sorted(cuts)
    workers = _workers(values, len(bounds) - 1)
    if workers < 2:
        return None
    work = functools.partial(_map_range, function, path, args)
    try:
        return list(_pooled_map(work, bounds[:-1], bounds[1:], workers=workers))
    except (PedbankError, ValueError):
        return None


def read_document(path, keys, flat=None) -> dict:
    """Load a JSON object from ``path`` that holds at least ``keys``.

    Where the text is above the size rule and the object's ``flat`` key holds
    a flat array, its items are parsed on every CPU and come back as a
    float64 array that has passed ``read_array``'s number and finiteness
    rules. Every other layout, and an array that breaks a rule, is parsed by
    ``json`` in this process, so the values and every error are the same.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    doc = _parse_flat(text, flat) if flat is not None else None
    if doc is None:
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also an integer longer than int() takes
            raise ParseError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
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
    reads a single number. A flat array that ``read_document`` parsed on every
    CPU has passed every rule but its length.
    """
    rows = [[doc[key]]]
    for axis, size in enumerate(shape):
        rows = [r for row in rows for r in row]
        if not all(type(r) in _ARRAYS and (len(r) == size if size else len(r)) for r in rows):
            want = f"length {size}" if size else "a positive length"
            raise ParseError(f"{where}: {key} must be a number array with {want} on axis {axis}")
    if type(doc[key]) is np.ndarray:
        return doc[key]
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
    """Write each document as one line of JSON, through ``replacing``.

    Values that are NumPy arrays must be float64 and finite; every other
    value goes through ``json.dumps``. Each array is checked right before it
    is streamed, and a rejected value (``ValueError``) or any later failure
    removes the new file, so an existing file keeps its bytes; a pipe or a
    device, written in place, may have received part of the text.
    """
    with replacing(path) as fh:
        for doc in docs:
            fh.write("{")
            for i, (key, value) in enumerate(sorted(doc.items())):
                fh.write((", " if i else "") + json.dumps(key) + ": ")
                if isinstance(value, np.ndarray):
                    if value.dtype != np.float64 or not np.isfinite(value).all():
                        raise ValueError(f"{key} must be a finite float64 array")
                    _write_array(fh, value)
                else:
                    fh.write(json.dumps(value, sort_keys=True, allow_nan=False))
            fh.write("}\n")


@contextlib.contextmanager
def replacing(path):
    """A text file whose contents replace ``path`` when the block completes.

    The text goes to a new file in the destination's directory, created
    with the permissions ``open(path, "w")`` would give, and is moved over
    ``path`` with ``os.replace`` at the end. On any exception the new file
    is removed and an existing ``path`` keeps its bytes. The move is atomic
    for other processes, but nothing is flushed to disk before it. A path
    through a symbolic link replaces the link's target; a destination that
    is not a regular file (a device or a pipe) is written in place, since
    replacing it would remove it.
    """
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            yield fh
        return
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(6).hex()}.tmp")
    try:
        # 0o666 less the umask, as open() creates files; mkstemp would give 0o600.
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the destination, as open(path, "w") would
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if exists:  # open() keeps an existing file's permissions
                os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _write_array(fh, arr: np.ndarray) -> None:
    """Stream ``arr`` as nested JSON lists, formatting chunks of whole
    axis-0 items in order, in worker processes when it is large."""
    step = max(1, CHUNK_VALUES // max(1, math.prod(arr.shape[1:])))
    chunks = [arr[i:i + step] for i in range(0, len(arr), step)]
    fh.write("[")
    _write_joined(fh, _pooled_map(_format_chunk, chunks, workers=_workers(arr.size, len(chunks))))
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


def _workers(values: int, parts: int) -> int:
    """The size rule: processes to spread ``parts`` over for work on
    ``values`` values, one per CPU and at most one per part from
    ``POOL_MIN_VALUES`` values on, else 1."""
    return min(_cpus(), parts) if values >= POOL_MIN_VALUES else 1


def _pooled_map(function, *iterables, workers: int):
    """``map(function, *iterables)``, in order; with more than one worker,
    the calls run in a ``ProcessPoolExecutor`` of as many forked processes.
    ``function`` and the arguments reach the workers through the fork, which
    copies no memory until it is written: the pool is sent only the index
    of each call. Spawned workers would import NumPy and this package again,
    and receive the readers' text pickled.

    Each worker pickles its result, and the caller's thread unpickles it:
    objects the executor's thread builds land in a heap of that thread,
    which the process keeps. On two CPUs, the ``build`` benchmark's peak
    resident size read 66.7 and 67.0 MB that way, 61.3 and 63.6 MB this way,
    against 59.0 MB with no workers.

    An exception a call raises is raised here; a worker that ends without
    its results raises ``BrokenProcessPool``. Abandoning the map cancels the
    calls not yet started and waits for the workers to end.
    """
    global _calls
    calls = list(zip(*iterables))
    if workers < 2:
        yield from itertools.starmap(function, calls)
        return
    # Imported here: they add about 10 ms to every import of the package.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A fork-context pool forks all its workers at the first submit, which
    # ``pool.map`` makes before it returns, so each worker holds these calls.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    _calls = function, calls
    try:
        for result in pool.map(_run_call, range(len(calls))):
            yield pickle.loads(result)
    finally:
        _calls = None
        pool.shutdown(cancel_futures=True)


# The function and arguments of the map being started, for its workers; one
# map starts at a time, as the package runs no threads of its own.
_calls = None


def _run_call(index: int):
    """The pickled result of call ``index`` of the map whose workers this
    process was forked for."""
    function, calls = _calls
    return pickle.dumps(function(*calls[index]), pickle.HIGHEST_PROTOCOL)


def _map_range(function, path, args, start: int, stop: int):
    """One part of ``map_lines``: ``function`` over the lines in bytes
    ``start`` to ``stop`` of ``path``."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    if b"\r" in data:
        raise ValueError("a carriage return, which text mode reads as a line break")
    lines = data.decode("utf-8").split("\n")
    if data.endswith(b"\n"):
        lines.pop()
    return function(enumerate(lines, start=1), *args)


def _parse_flat(text: str, key: str) -> dict | None:
    """``json.loads(text)`` with the items of ``key``'s flat array parsed on
    every CPU into a float64 array; ``None`` where the text is below the size
    rule, is not such an object, or the array breaks a rule of ``read_array``."""
    values = len(text) // TEXT_BYTES_PER_VALUE
    found = _locate_flat(text, key) if _workers(values, _cpus()) > 1 else None
    if found is None:
        return None
    doc, start, stop = found
    step = CHUNK_VALUES * TEXT_BYTES_PER_VALUE
    commas = {text.find(",", at, stop) for at in range(start + step, stop, step)}
    commas = sorted(commas - {-1})  # between numbers, a comma ends an item
    starts, stops = [start] + [c + 1 for c in commas], commas + [stop]
    workers = _workers(values, len(starts))
    if workers < 2:
        return None
    work = functools.partial(_parse_slice, text)
    try:
        parts = list(_pooled_map(work, starts, stops, workers=workers))
    except (PedbankError, ValueError):
        return None
    doc[key] = np.frombuffer(bytearray().join(parts))
    return doc


def _locate_flat(text: str, key: str):
    """``(doc, start, stop)`` where ``text`` is one JSON object with distinct
    keys whose ``key`` holds an array: ``text[start:stop]`` runs from the
    array's ``[`` to its first ``]``, which closes it if its items are
    numbers, and ``doc`` holds every other key, read by the ``json``
    decoder. ``None`` for any other text."""
    decoder = json.JSONDecoder()
    doc, items = {}, None
    i = WHITESPACE.match(text).end() + 1
    if text[i - 1:i] != "{":
        return None
    try:
        while True:
            i = WHITESPACE.match(text, i).end()
            if text[i:i + 1] != '"':
                return None
            name, i = scanstring(text, i + 1)
            i = WHITESPACE.match(text, i).end()
            if text[i:i + 1] != ":" or name in doc or (name == key and items):
                return None
            i = WHITESPACE.match(text, i + 1).end()
            if name == key:  # numbers hold no "]"; other items fail in _parse_slice
                stop = text.find("]", i)
                if text[i:i + 1] != "[" or stop < 0:
                    return None
                items, i = (i + 1, stop), stop + 1
            else:
                doc[name], i = decoder.raw_decode(text, i)
            i = WHITESPACE.match(text, i).end()
            if text[i:i + 1] != ",":
                break
            i += 1
    except ValueError:  # invalid JSON, or an integer longer than int() takes
        return None
    if text[i:i + 1] != "}" or not items or WHITESPACE.match(text, i + 1).end() != len(text):
        return None
    return doc, *items


def _parse_slice(text: str, start: int, stop: int) -> bytes:
    """One part of ``_parse_flat``: the float64 bytes of the comma-separated
    items in ``text[start:stop]``, checked by ``read_array``."""
    items = json.loads("[" + text[start:stop] + "]")
    return read_array({"items": items}, "items", "", (None,)).tobytes()
