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
about ``CHUNK_VALUES`` values each. The float text of a chunk, and of
``write_csv``, comes from one NumPy kernel, ``_float_text``: it finds the
shortest digits that read back as the same double with exact integer
arithmetic, for every value from 1e-4 up to 1e16, and lays the text out in
a byte matrix; zeros are written directly, and values outside that range,
where ``repr`` writes an exponent, leave a ``%a`` in the text that one ``%``
format fills with their ``float.__repr__``. The bytes are those
``json.dumps`` and ``repr`` write.

Large inputs are read and written on every CPU, by one size rule (at least
``POOL_MIN_VALUES`` values, on a platform that reports more than one CPU
available to the process) and through one map, ``_pooled_map``, which forks
its workers: they format the chunks of a large array, and they parse a
JSON-lines file (``map_lines``) or the flat array of a document, which
``json`` itself finds (``read_document``), in the parts that ``_map_parts``
cuts, each read from the descriptor the parent opened; ``_map_parts`` also
holds the readers' fall-back. The bytes written, the arrays read and every
error do not depend on which way ran. Each map's calls go only to its own
workers, so readers and writers may run in several threads at once. Every
writer goes through ``replacing``: a failed write leaves a file as it was.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import pickle
import re
import stat
import threading
import time

import numpy as np

from .errors import ParseError, PedbankError

_NUMBERS = {int, float}
_ARRAYS = (list, np.ndarray)

# Values formatted per chunk: about 330 kB of text, and a transient of
# about 2.5 MB for the kernel's arrays.
CHUNK_VALUES = 1 << 14
# The size rule of the writer and of both readers: the least work, in values,
# that goes to worker processes. Starting the workers and passing work and
# results between processes costs tens of milliseconds. Medians of 7 on two
# CPUs, in a 250 MB process, in-process against pooled: writing 65 536 values
# took 38 and 59 ms, 131 072 values 71 to 73 and 63 to 67 ms (two runs),
# 262 144 values 140 and 119 ms, 524 288 values 230 and 159 ms, 1 048 576
# values 405 and 298 ms; reading a JSON-lines file with normalization and a
# flat array, 65 536 values took 49 and 42 ms against 48 and 42 ms pooled,
# 131 072 values 95 and 83 ms against 74 and 68 ms in one run, 99 and 86
# against 100 and 85 ms in another, 262 144 values 186 and 158 ms against
# 146 and 128 ms. Both gain from 2**18 on in every run. The bank and
# parameter files stay in-process; a 1000 x 512 embeddings file and a
# 100 x 7 x 7 x 256 feature batch are pooled, read and written.
POOL_MIN_VALUES = 1 << 18
# Bytes of JSON text per value, by which the readers count the values of a
# file: a shortest round-trip float64 and its ", " separator, as
# ``write_documents`` writes them, take 20 to 22 bytes.
TEXT_BYTES_PER_VALUE = 20

# Powers of ten for ``_float_text``: doubles (exact up to 10**22) split into
# 26-bit halves for Dekker's product, and int64; powers of five and two.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
_POW5 = 5 ** np.arange(21, dtype=np.int64)
_POW2 = 2.0 ** np.arange(49)


def read_lines(path, data: bytes | None = None):
    """Yield ``(lineno, line)``, numbered from 1, for every line of the UTF-8
    text file ``path``, streamed, or of ``data``, bytes read from it, read as
    text mode reads them."""
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        with io.TextIOWrapper(fh, encoding="utf-8") as text:
            try:
                yield from enumerate(text, start=1)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def map_lines(path, function, *args) -> list | None:
    """``function(read_lines(path, data), *args)`` for the bytes ``data`` of
    each range of ``path`` cut at line breaks, in order, through
    ``_map_parts``, in forked processes that read their ranges from the
    descriptor this process opened, so all come from the same file.

    ``None`` when ``path`` is not a regular file (a pipe is read once, in
    order) and wherever ``_map_parts`` gives ``None``: the caller then reads
    the file through ``read_lines``, which decides.
    """
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:  # a cut at byte ``at`` ends the line that holds it
        fd = fh.fileno()
        return _map_parts(lambda a, b: function(read_lines(path, os.pread(fd, b - a, a)), *args), 0,
                          os.fstat(fd).st_size, lambda at: fh.seek(at) + len(fh.readline()))


def read_document(path, keys, flat=None) -> dict:
    """Load a JSON object from ``path`` that holds at least ``keys``.

    Where the object's ``flat`` key holds a flat array, its items are cut at
    commas and parsed through ``_map_parts`` (``_parse_flat``), and come back
    as a float64 array that has passed ``read_array``'s number and finiteness
    rules. Every other layout, and wherever ``_map_parts`` gives ``None``, is
    parsed by ``json`` in this process, so the values and every error are
    the same.
    """
    with open(path, "rb") as fh:
        doc = _parse_flat(fh.fileno(), flat) if flat is not None else None
        try:  # not decoded in text mode: JSON takes a "\r" as it takes a "\n"
            doc = json.loads(fh.read().decode("utf-8")) if doc is None else doc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except ValueError as exc:  # also an integer longer than int() takes
            raise ParseError(f"{path}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    missing = set(keys) - set(doc)
    if missing:
        raise ParseError(f"{path}: missing keys {sorted(missing)}")
    return doc


def read_version(doc: dict, where, supported: int, kind: str) -> None:
    version = doc["version"]
    if type(version) is not int or version != supported:
        raise ParseError(
            f"{where}: unsupported {kind} version {version!r} (supported: {supported})"
        )


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
    value, and the float of a 0-d array, goes through ``json.dumps``. Each
    array is checked right before it is streamed, and a rejected value
    (``ValueError``) or any later failure removes the new file, so an
    existing file keeps its bytes; a pipe or a device, written in place, may
    have received part of the text.
    """
    with replacing(path) as fh:
        for doc in docs:
            fh.write("{")
            for i, (key, value) in enumerate(sorted(doc.items())):
                fh.write((", " if i else "") + json.dumps(key) + ": ")
                if isinstance(value, np.ndarray):
                    if value.dtype != np.float64 or not np.isfinite(value).all():
                        raise ValueError(f"{key} must be a finite float64 array")
                    if value.ndim:
                        _write_array(fh, value)
                        continue
                    value = value.tolist()  # a 0-d array is one float
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


def write_csv(path, matrix: np.ndarray) -> None:
    """Write the finite float64 ``matrix`` as CSV through ``replacing``:
    ``,`` between the values of a row and ``\\n`` after each row, each value
    as ``float.__repr__`` writes it (``_float_text``)."""
    with replacing(path) as fh:
        for chunk in _chunks(matrix):
            fh.write(_float_text(chunk, [",", "\n"], "\n"))


def _chunks(arr: np.ndarray) -> list:
    """``arr`` cut into runs of whole axis-0 items, about ``CHUNK_VALUES``
    values each."""
    step = max(1, CHUNK_VALUES // max(1, math.prod(arr.shape[1:])))
    return [arr[i:i + step] for i in range(0, len(arr), step)]


def _write_array(fh, arr: np.ndarray) -> None:
    """Stream ``arr`` as nested JSON lists, formatting its ``_chunks`` in
    order, in worker processes when it is large."""
    chunks = _chunks(arr)
    texts = _pooled_map(_format_chunk, chunks, workers=_workers(arr.size, len(chunks)))
    fh.write("[")
    for i, text in enumerate(texts):
        if i:
            fh.write(", ")
        fh.write(text)
    fh.write("]")


def _format_chunk(chunk: np.ndarray) -> str:
    """The items of ``chunk`` as JSON text, comma separated, without the
    enclosing brackets: ``json.dumps(chunk.tolist())[1:-1]``."""
    if not chunk.size:  # nested empty lists, and no float to write
        return json.dumps(chunk.tolist())[1:-1]
    depth = chunk.ndim
    separators = ["]" * k + ", " + "[" * k for k in range(depth)]
    return "[" * (depth - 1) + _float_text(chunk, separators, "]" * (depth - 1))


def _float_text(arr: np.ndarray, separators, end: str) -> str:
    """The values of the finite float64 array ``arr``, in C order, each as
    ``float.__repr__`` writes it and followed by ``separators[k]``, where
    ``k`` counts the axes after the first that the value ends (0 inside the
    last axis, 1 at the end of a row of a matrix), or by ``end`` if it is
    the last value. ``separators`` and ``end`` hold no ``%``: the writer's
    brackets and ``", "``, and the CSV's ``,`` and ``\\n``.

    Values from 1e-4 up to 1e16, where ``repr`` writes no exponent, take
    the digits of ``_shortest_digits``, laid out by ``_lay_out``; zeros are
    written directly, and every other value takes ``float.__repr__``.
    """
    values = arr.ravel()
    after = np.zeros(values.size, np.int8)  # which separator follows each value
    stride = 1
    for size in reversed(arr.shape[1:]):
        stride *= size
        after[stride - 1::stride] += 1
    after[-1:] = len(separators)
    separators = [*separators, end]
    magnitude = np.abs(values)
    searched = (magnitude >= 1e-4) & (magnitude < 1e16)
    if not searched.any():
        return _repr_text(values, separators, after)
    digits, exponent, trimmed = _shortest_digits(np.where(searched, magnitude, 1.0))
    searched &= exponent < 16  # 16: rounded up to 1e16
    fallback = ~searched & (magnitude != 0)
    # zeros, and the rows of fallback values, are laid out as 0 * 10**-16: "0.0"
    for column, empty in ((digits, 0), (exponent, 0), (trimmed, 16)):
        np.putmask(column, ~searched, empty)
    return _lay_out(values, digits, exponent, trimmed, fallback, separators, after)


def _repr_text(values: np.ndarray, separators, after: np.ndarray) -> str:
    """``_float_text`` where every value takes ``float.__repr__``: the runs
    inside the last axis are joined as ``json`` joins a list."""
    texts = list(map(repr, values.tolist()))
    starts = [0, *(np.flatnonzero(after[:-1]) + 1).tolist()]
    stops = [*starts[1:], len(texts)]
    return "".join(separators[0].join(texts[i:j]) + separators[after[j - 1]] for i, j in zip(starts, stops))


def _lay_out(values, digits, exponent, trimmed, fallback, separators, after) -> str:
    """``_float_text`` from the decimals of ``_shortest_digits``: a byte matrix
    with one row per value (a sign, the integer digits, ``.``, the fraction
    digits and the separator) and a mask of the bytes each row writes,
    compressed into one string. The rows of ``fallback`` values write ``%a``
    in their sign and decimal-point columns, and one ``%`` format of the
    bytes fills in each such value's ``repr``; the separators hold no ``%``.
    A bytes format finds each ``%`` with ``memchr``: a ``str`` format took
    0.30 ms, against 0.03 ms, to step through a 16 384-value chunk of none.
    """
    point = 16 - exponent  # digits after the decimal point, 1 to 20
    scale = _POW10_INT[np.minimum(point, 17)]
    whole = digits // scale
    rest = digits - whole * scale
    scale = _POW10_INT[np.maximum(point - 4, 0)]  # the first 20 fraction digits: 4 in top, 16 in tail
    top = rest // scale
    tail = (rest - top * scale) * _POW10_INT[np.minimum(20 - point, 16)]
    top *= _POW10_INT[np.maximum(4 - point, 0)]
    int_count = np.where(fallback, 0, np.maximum(exponent, 0) + 1)
    frac_count = np.where(fallback, 0, np.maximum(16 - trimmed - exponent, 1))
    int_w, frac_w = int(int_count.max()), int(frac_count.max())
    int_groups = -(-int_w // 4)
    ascii = np.empty((len(values), int_groups + 5), np.uint32)  # 4 ASCII digits in each
    _put_digits(ascii[:, :int_groups], whole)
    _put_digits(ascii[:, int_groups:int_groups + 1], top)
    _put_digits(ascii[:, int_groups + 1:], tail)
    del point, scale, whole, rest, top, tail  # a writer's transient memory
    ascii = ascii.view(np.uint8)[:, 4 * int_groups - int_w:]
    table = np.zeros((len(separators), max(map(len, separators))), np.uint8)
    for i, separator in enumerate(separators):
        table[i, :len(separator)] = np.frombuffer(separator.encode("ascii"), np.uint8)
    # columns: sign, int_w integer digits, ".", frac_w fraction digits, separator
    frac_at = 2 + int_w
    sep_at = frac_at + frac_w
    row = np.zeros(sep_at + table.shape[1], np.uint8)
    row[[0, frac_at - 1]] = ord("-"), ord(".")
    row[sep_at:] = table[0]
    text = np.empty((len(values), len(row)), np.uint8)
    text[:] = row
    keep = np.empty(text.shape, bool)
    keep[:] = row != 0
    keep[:, 0] = np.signbit(values) | fallback
    text[np.ix_(fallback, [0, frac_at - 1])] = ord("%"), ord("a")
    text[:, 1:frac_at - 1] = ascii[:, :int_w]
    np.greater_equal(np.arange(int_w, dtype=np.int8), (int_w - int_count).astype(np.int8)[:, None],
                     out=keep[:, 1:frac_at - 1])
    text[:, frac_at:sep_at] = ascii[:, int_w:int_w + frac_w]
    np.less(np.arange(frac_w, dtype=np.int8), frac_count.astype(np.int8)[:, None],
            out=keep[:, frac_at:sep_at])
    ends = np.flatnonzero(after)  # values that end an axis, and the last one
    text[ends, sep_at:] = table[after[ends]]
    keep[ends, sep_at:] = table[after[ends]] != 0
    packed = text[keep]
    del text, keep, ascii
    return str(packed.tobytes() % tuple(values[fallback].tolist()), "ascii")


def _put_digits(out: np.ndarray, number: np.ndarray) -> None:
    """Fill the uint32 columns of ``out``, the last first, with the groups of
    four decimal digits of ``number``, as ASCII."""
    for g in reversed(range(out.shape[1])):
        above = number // 10000  # not divmod: NumPy divides by a scalar faster
        out[:, g] = np.take(_digit_groups(), number - above * 10000)
        number = above


@functools.cache
def _digit_groups() -> np.ndarray:
    """The four ASCII digits of each number below 10 000, as one uint32 each
    (built on first use, so that importing the package does not pay for it)."""
    numbers = np.arange(10000)[:, None]
    return (ord("0") + numbers // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8).view(np.uint32).ravel()


def _shortest_digits(a: np.ndarray):
    """``(digits, exponent, trimmed)`` for doubles ``a`` from 1e-4 up to
    1e16: ``digits * 10**(exponent - 16)``, with ``10**16 <= digits <
    10**17`` and ``trimmed`` trailing zeros, is the decimal that
    ``float.__repr__`` writes for each value: the shortest that reads back
    as the same double and, among those, the nearest (``dtoa`` mode 0).

    Each value ``x = m * 2**e`` (``m`` of 53 bits) is scaled to ``X = x *
    10**(16 - exponent)``, between ``10**16`` and ``10**17``. Dekker's
    product gives ``X`` exactly as ``hi + lo``; in units of ``2**-sh``,
    ``lo`` and the distances to both neighbouring doubles are int64, so
    the test of a candidate is exact. The round-trip interval holds half
    the gap to each neighbour (the gap below a power of two is half the
    gap above it), with its ends when ``m`` is even. For ``q`` = 1 to 16,
    a value keeps ``q`` trailing zeros while the multiple of ``10**q`` just
    below ``X`` or just above it lies in the interval; where both do, the
    nearer wins, and a tie goes to the even digit. With no ``q``, the 17
    digits are ``X`` rounded to the nearest integer, a tie to even.
    """
    exponent = np.floor(np.log10(a)).astype(np.int64)  # may be 1 off next to a power of ten
    hi, lo = _times_power_of_ten(a, 16 - exponent)
    wrong = np.flatnonzero((hi < 1e16) | (hi > 1e17) | ((hi == 1e16) & (lo < 0)) | ((hi == 1e17) & (lo >= 0)))
    if len(wrong):  # X below 10**16 or from 10**17 on
        exponent[wrong] += np.where(hi[wrong] > 1e16, 1, -1)
        hi[wrong], lo[wrong] = _times_power_of_ten(a[wrong], 16 - exponent[wrong])
    fraction, power = np.frexp(a)  # a = fraction * 2**power, fraction in [0.5, 1)
    sh = 39 - power + exponent  # lo is a multiple of 2**-sh (sh from 0 to 48)
    units = (lo * _POW2[sh]).astype(np.int64)
    whole = hi.astype(np.int64) + (units >> sh)  # X = whole + part / 2**sh
    part = units & ((np.int64(1) << sh) - 1)
    odd = (fraction * 2.0 ** 53).astype(np.int64) & 1  # an odd m excludes the interval's ends
    gap = 2 * _POW5[16 - exponent]  # half the gap to a neighbour, in units of 2**-sh
    above = gap - odd  # the largest distance above X that reads back
    below = np.where(fraction == 0.5, gap // 2, above)  # m = 2**52 is even
    # A multiple of 10**q at whole - r lies in the interval when r <= down,
    # the one at whole - r + 10**q when 10**q - r <= up.
    down = (below - part) >> sh
    up = (above + part) >> sh
    del hi, lo, units, fraction, power, odd, gap, above, below  # a writer's transient memory
    trimmed = np.zeros(len(a), np.int64)
    live = np.arange(len(a))
    for q in range(1, 17):
        at = whole[live]
        r = at - at // _POW10_INT[q] * _POW10_INT[q]  # not %: NumPy divides by a scalar faster
        live = live[(r <= down[live]) | (_POW10_INT[q] - r <= up[live])]
        if not len(live):
            break
        trimmed[live] = q
    step = _POW10_INT[trimmed]
    r = whole % step
    # Up, where only the multiple above reads back or it is the nearer one;
    # the distances are compared only where both read back, and then both
    # are below 16.
    margin = ((np.minimum(step - r, 16) - np.minimum(r, 16)) << sh) - 2 * part
    rounds_up = (step - r <= up) & (
        (r > down) | (margin < 0) | ((margin == 0) & ((whole - r) // step % 2 == 1))
    )
    digits = whole - r + rounds_up * step
    carried = digits == _POW10_INT[17]
    return np.where(carried, _POW10_INT[16], digits), exponent + carried, np.where(carried, 16, trimmed)


def _times_power_of_ten(a: np.ndarray, k: np.ndarray):
    """``a * 10**k`` exactly, as ``hi + lo``: Dekker's product of two doubles
    split into 26-bit halves, exact for ``0 <= k <= 22``, where ``10**k`` is
    a double."""
    hi = a * _POW10[k]
    big = _SPLIT * a
    a_hi = big - (big - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


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
    ``function`` and the arguments reach the workers through the fork, as
    the arguments of the pool's initializer, which copies no memory until it
    is written: the pool is sent only the index of each call. Spawned
    workers would import NumPy and this package again, and receive the
    readers' text pickled. Each map's calls live only in its own workers, so
    maps may run in several threads at once, with POSIX's caveats on a fork
    from several threads (a lock another thread held stays held).

    Each worker pickles its result, and the caller's thread unpickles it:
    objects the executor's thread builds land in a heap of that thread,
    which the process keeps. On two CPUs, the ``build`` benchmark's peak
    resident size read 66.7 and 67.0 MB that way, 61.3 and 63.6 MB this way,
    against 59.0 MB with no workers.

    ``function`` must not call BLAS: each forked worker starts a BLAS thread
    per CPU, and on two CPUs attending the two halves of a 100x7x7x256 batch
    in two workers took 0.17 s against 0.06 s in this process.

    An exception a call raises is raised here; a worker that ends without
    its results raises ``BrokenProcessPool``. Abandoning the map cancels the
    calls not yet started and waits for the workers to end. A worker whose
    parent dies ends within about half a second.
    """
    calls = list(zip(*iterables))
    if workers < 2:
        yield from itertools.starmap(function, calls)
        return
    # Imported here: they add about 10 ms to every import of the package.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_keep_calls, initargs=(function, calls, os.getpid()))
    try:
        for result in pool.map(_run_call, range(len(calls))):
            yield pickle.loads(result)
    finally:
        pool.shutdown(cancel_futures=True)


def _keep_calls(function, calls, parent: int) -> None:
    """The initializer of each worker of a ``_pooled_map``: its calls, and a
    daemon thread that ends the worker once ``parent``, the process that
    forked it, has died. Nothing else would: each worker blocks on the
    pool's call queue and holds the write end of its pipe open itself.
    ``parent`` is the pid the parent read itself, so a parent that dies
    before this initializer runs is caught too."""
    global _calls
    _calls = function, calls
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    """End this process once ``parent`` is no longer its parent, polled
    about twice a second."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _run_call(index: int):
    """The pickled result of call ``index`` of the map whose workers this
    process was forked for."""
    function, calls = _calls
    return pickle.dumps(function(*calls[index]), pickle.HIGHEST_PROTOCOL)


def _map_parts(work, start: int, stop: int, cut) -> list | None:
    """``work(a, b)`` for each part ``[a, b)`` of ``[start, stop)``, in
    order, through ``_pooled_map``: the size rule and the fall-back of both
    readers. ``[start, stop)`` is bytes of a file's text, counted as
    ``TEXT_BYTES_PER_VALUE`` per value; each part holds about
    ``CHUNK_VALUES`` values and ends at ``cut(offset)``, just after the
    first separator from ``offset`` on, or at ``stop``.

    ``None`` below the size rule, before any ``cut``, and when a part raises
    a ``PedbankError`` or ``ValueError``: the caller then reads the whole
    text in this process, which decides. Any other exception is raised.
    """
    workers = _workers((stop - start) // TEXT_BYTES_PER_VALUE, _cpus())
    if workers < 2:
        return None
    step = CHUNK_VALUES * TEXT_BYTES_PER_VALUE
    bounds = sorted({start, stop, *map(cut, range(start + step, stop, step))})
    try:
        return list(_pooled_map(work, bounds[:-1], bounds[1:], workers=min(workers, len(bounds) - 1)))
    except (PedbankError, ValueError):
        return None


def _parse_flat(fd: int, key: str) -> dict | None:
    """``json.loads`` of the file open at ``fd`` with ``key``'s flat array
    parsed through ``_map_parts`` into a float64 array, or ``None``. This
    process keeps the text only of the head, up to the first ``"key": [``,
    and of the tail, from the first ``]`` on, and ``json`` reads them with
    ``NaN`` between; only a ``dict`` whose ``key`` holds that ``NaN``, the
    one constant, passes. The cut is then the array: the ``[`` lies outside
    strings, as a bare word is not JSON; a ``]`` in a string leaves text lexed
    with strings and structure swapped, which meets a ``\\`` outside a string
    or ends inside one; one closing a nested array leaves an unmatched ``]``."""
    size = os.fstat(fd).st_size
    if _workers(size // TEXT_BYTES_PER_VALUE, _cpus()) < 2:  # read in one piece
        return None
    pattern = re.compile(rb'"%s"[ \t\n\r]*:[ \t\n\r]*\[' % re.escape(key.encode()))
    head = b""  # read in windows that double
    while not (found := pattern.search(head)) and (
            more := os.pread(fd, max(TEXT_BYTES_PER_VALUE, len(head)), len(head))):
        head += more
    start = found.end() if found else size
    stop = _find(fd, b"]", start, size, CHUNK_VALUES * TEXT_BYTES_PER_VALUE) + 1
    if not stop:
        return None
    constants = []
    try:
        doc = json.loads((head[:start - 1] + b"NaN" + os.pread(fd, size - stop, stop)).decode("utf-8"),
                         parse_constant=lambda name: constants.append(name) or constants)
    except ValueError:  # not UTF-8, invalid JSON, or an integer longer than int() takes
        return None
    if type(doc) is not dict or doc.get(key) is not constants or len(constants) != 1:
        return None
    parts = _map_parts(functools.partial(_parse_slice, fd), start, stop,
                       lambda at: _find(fd, b",", at, stop, TEXT_BYTES_PER_VALUE) + 1 or stop)
    if parts is None:
        return None
    doc[key] = np.frombuffer(bytearray().join(parts))
    return doc


def _find(fd: int, byte: bytes, at: int, stop: int, width: int) -> int:
    """The offset of the first ``byte`` from ``at`` to ``stop`` of ``fd``, or -1."""
    while at < stop and (window := os.pread(fd, min(width, stop - at), at)):
        if (found := window.find(byte)) >= 0:
            return at + found
        at += len(window)
    return -1


def _parse_slice(fd: int, start: int, stop: int) -> bytes:
    """One part of ``_parse_flat``: the float64 bytes of the comma-separated
    items in bytes ``start`` to ``stop`` of ``fd``, checked by ``read_array``;
    the part's last byte, a comma or the closing ``]``, is dropped."""
    items = json.loads("[" + os.pread(fd, stop - start - 1, start).decode("utf-8") + "]")
    return read_array({"items": items}, "items", "", (None,)).tobytes()
