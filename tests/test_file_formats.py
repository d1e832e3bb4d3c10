"""One set of rules for every file the package reads and writes.

Writers must keep producing the exact bytes pinned below, and every reader
must reject malformed values with exit code 2 and name the file.
"""

import contextlib
import hashlib
import json
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedbank import jsonio
from pedbank.attention import (
    AttentionParams, FeatureBatch, init_attention, load_attention_params, load_feature_batch,
    save_attention_params, save_feature_batch,
)
from pedbank.bank import KnowledgeBank, load_bank, save_bank
from pedbank.cli import EXIT_PARSE, main
from pedbank.embeddings import generate_synthetic, write_embedding_file
from pedbank.errors import ParseError, PedbankError

from support import first_float_text_mismatch, hard_doubles, outcome, pool_every_array, random_bank

# sha256 of each file written by ``write_golden_files``; a writer that
# changes a single byte of its output fails here.
GOLDEN = {
    "bank.json": "6d2e7b45a975dffce7efb7fb837e437902fb5ebb3e9d38e184aa6ba66453f007",
    "proposal.json": "829dc91cc22416ac1d7d97916b132fa4c6c5a8c7e9f4aa684ecb3d36d32b072f",
    "query.json": "f619417a4bd4ccba0933dfec1cddd3edf519b0eaddbe569934d55097a0ed2e32",
    "params.json": "0d0f7bdb2316ee4a97e8d8dd143a22c8ea6333b56f26ca7b8dd9f59559b5ded0",
    "embeddings.jsonl": "ef84ab7b3efb8e728965755fb871b58a65cd6e341b6e12472739dbbbec1b1b60",
}


def write_golden_files(directory):
    rng = np.random.default_rng(0)
    proposal = rng.normal(size=(2, 2, 3, 4))
    query = rng.normal(size=(2, 1, 5))
    query[0, 0] = [0.0, -0.0, 1.0, 1e300, 5e-324]  # float text edge cases
    save_bank(random_bank(seed=0, n=3, dim=4, meta={"seed": "0", "note": "golden"}),
              directory / "bank.json")
    save_feature_batch(FeatureBatch("proposal", proposal), directory / "proposal.json")
    save_feature_batch(FeatureBatch("query", query), directory / "query.json")
    save_attention_params(init_attention(c=4, d=6, d_m=2, heads=2, seed=1),
                          directory / "params.json")
    write_embedding_file(generate_synthetic(seed=0, pedestrians=3, backgrounds=2, dim=4),
                         directory / "embeddings.jsonl")


def test_writers_match_golden_digests(tmp_path):
    write_golden_files(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


@pytest.fixture()
def valid_files(tmp_path):
    """One small valid file per reader; together they make a valid complement run."""
    rng = np.random.default_rng(3)
    files = {name: tmp_path / f"{name}.json" for name in ("bank", "proposal", "query", "params")}
    files["embeddings"] = tmp_path / "embeddings.jsonl"
    save_bank(random_bank(seed=3, n=2, dim=3), files["bank"])
    save_feature_batch(FeatureBatch("proposal", rng.normal(size=(1, 1, 2, 4))), files["proposal"])
    save_feature_batch(FeatureBatch("query", rng.normal(size=(1, 1, 4))), files["query"])
    save_attention_params(init_attention(c=4, d=3, d_m=2, heads=2), files["params"])
    write_embedding_file(generate_synthetic(seed=3, pedestrians=2, backgrounds=2, dim=3),
                         files["embeddings"])
    return files


# (file, path to the edited value inside the document, new value)
MALFORMED = [
    ("bank", ("version",), True),
    ("bank", ("f_h", 0, 0), float("nan")),
    ("bank", ("meta",), {"source": 1}),
    ("bank", ("meta",), ["a"]),
    ("params", ("version",), True),
    ("params", ("heads",), 2.7),
    ("params", ("heads",), "2"),
    ("params", ("eps",), "1e-5"),
    ("params", ("gain", 0), True),
    ("params", ("c",), 5),
    ("params", ("d",), 4),
    ("query", ("m",), True),
    ("proposal", ("data", 0), True),
    ("embeddings", ("vector", 0), True),
]


def argv_reading(name, files, tmp_path):
    """A CLI run that reads ``files[name]``."""
    if name == "embeddings":
        argv = ["build-bank", files["embeddings"], tmp_path / "out.json"]
    else:
        features = files["query" if name == "query" else "proposal"]
        argv = ["complement", files["bank"], features, tmp_path / "out.json",
                "--params", files["params"]]
    return [str(a) for a in argv]


@pytest.mark.parametrize(
    "name, keys, value", MALFORMED,
    ids=[f"{name}-{'.'.join(map(str, keys))}={value!r}" for name, keys, value in MALFORMED],
)
def test_malformed_value_exits_2_naming_the_file(tmp_path, capsys, valid_files, name, keys, value):
    path = valid_files[name]
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    lines[0] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")

    assert main(argv_reading(name, valid_files, tmp_path)) == EXIT_PARSE
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bank", "proposal", "query", "params", "embeddings"])
def test_non_utf8_file_exits_2_naming_the_file(tmp_path, capsys, valid_files, name):
    path = valid_files[name]
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(argv_reading(name, valid_files, tmp_path)) == EXIT_PARSE
    assert str(path) in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("name", ["bank", "proposal", "query", "params", "embeddings"])
def test_an_integer_past_the_digit_limit_exits_2_naming_the_file(tmp_path, capsys, valid_files, name):
    path = valid_files[name]
    path.write_text('{"extra": ' + "1" * 5000 + ", " + path.read_text()[1:])
    assert main(argv_reading(name, valid_files, tmp_path)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"{path}{': line 1' if name == 'embeddings' else ''}: invalid JSON (Exceeds the limit" in err


# Float text edge cases: signed zero, the smallest subnormal, and the points
# where repr switches between positional and exponent notation.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e300, 1e-7]


def reference_line(doc):
    """The line ``write_documents`` must produce: ``json.dumps`` of the
    document with its arrays as nested lists."""
    listed = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}
    return json.dumps(listed, sort_keys=True, allow_nan=False) + "\n"


@st.composite
def float_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    values = st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    flat = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.float64).reshape(shape)


@pytest.mark.parametrize("path", ["in-process", "pooled"])
@settings(deadline=None, max_examples=25)
@given(first=float_arrays(), second=float_arrays())
def test_written_bytes_equal_json_dumps_of_the_lists(tmp_path_factory, path, first, second):
    docs = [
        {"version": 1, "data": first, "meta": {"b": "x", "a": "y"}, "eps": 1e-5},
        {"z": second, "a": first.ravel(), "id": "r\u00e9-1"},
    ]
    out = tmp_path_factory.mktemp("writer") / "docs.json"
    with pytest.MonkeyPatch.context() as mp:
        if path == "pooled":
            pool_every_array(mp)
        jsonio.write_documents(out, docs)
    assert out.read_text(encoding="utf-8") == "".join(map(reference_line, docs))


def test_edge_floats_and_empty_axes_match_json_dumps(tmp_path):
    docs = [{"a": np.array(EDGE_FLOATS), "b": np.empty((2, 0)), "c": np.empty(0)}]
    jsonio.write_documents(tmp_path / "d.json", docs)
    assert (tmp_path / "d.json").read_text() == "".join(map(reference_line, docs))


def test_float_text_is_repr_on_hard_doubles():
    values = hard_doubles(np.random.default_rng(15))
    assert first_float_text_mismatch(values) is None


@pytest.mark.parametrize("value", [1e-7, 1e300, -5e-324, 1e16])
@pytest.mark.parametrize("shape", [(300,), (3, 4, 25)], ids=["flat", "nested"])
def test_a_chunk_of_fallback_values_keeps_its_bytes(value, shape):
    chunk = np.full(shape, value)
    chunk.flat[::7] = 0.0  # with zeros among them
    assert jsonio._format_chunk(chunk) == json.dumps(chunk.tolist())[1:-1]
    chunk.flat[::7] = value
    assert jsonio._format_chunk(chunk) == json.dumps(chunk.tolist())[1:-1]
    # distinct values among N(0,1) ones: first, at every row end, last, and in half of them
    rng = np.random.default_rng(16)
    for spots in (np.s_[:1, :1], np.s_[:, -1:], np.s_[-1:, -1:], np.s_[:, ::2]):
        mixed = rng.normal(size=shape)
        rows = mixed.reshape(-1, shape[-1])
        rows[spots] = value * rng.uniform(1, 2, rows[spots].shape)
        assert jsonio._format_chunk(mixed) == json.dumps(mixed.tolist())[1:-1]


def _pid_chunk(chunk):
    return str(os.getpid())


def test_large_arrays_are_formatted_in_other_processes(tmp_path, pooled, monkeypatch):
    monkeypatch.setattr(jsonio, "_format_chunk", _pid_chunk)
    jsonio.write_documents(tmp_path / "d.json", [{"data": np.zeros(20)}])
    pids = json.loads((tmp_path / "d.json").read_text())["data"]
    assert len(pids) == 4 and os.getpid() not in pids


def _failing_chunk(chunk):
    raise ArithmeticError("chunk failed")


def _dying_chunk(chunk):
    os._exit(3)


@pytest.mark.parametrize("chunk_function, error", [
    (_failing_chunk, ArithmeticError), (_dying_chunk, BrokenProcessPool),
], ids=["raises", "exits"])
def test_a_failing_worker_raises_in_the_caller(tmp_path, pooled, monkeypatch, chunk_function, error):
    monkeypatch.setattr(jsonio, "_format_chunk", chunk_function)
    path = tmp_path / "d.json"
    path.write_bytes(b"previous bytes\n")
    with pytest.raises(error):
        jsonio.write_documents(path, [{"data": np.zeros(20)}])
    assert path.read_bytes() == b"previous bytes\n"
    assert os.listdir(tmp_path) == ["d.json"]  # no temporary file left behind


class _DoesNotPickle(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _returns_a_lock(i):
    return threading.Lock()


def _raises_what_does_not_pickle(i):
    raise _DoesNotPickle()


def _raises_an_arithmetic_error(i):
    raise ArithmeticError(f"call {i} failed")


def _second_worker_kills_itself(i):
    if i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return i


def _killed_while_sending(i):
    """Call 0 waits 1.5 s; call 1's worker returns 1 MiB, more than a pipe
    holds, and is killed 0.5 s later, part-way through sending it."""
    if i == 0:
        time.sleep(1.5)
        return i
    threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return bytes(1 << 20)


@pytest.mark.parametrize("call, error, message", [
    (_returns_a_lock, TypeError, "cannot pickle '_thread.lock'"),
    (_raises_what_does_not_pickle, TypeError, "this exception does not pickle"),
    (_raises_an_arithmetic_error, ArithmeticError, "call 0 failed"),
    (_second_worker_kills_itself, BrokenProcessPool, ""),
    (_killed_while_sending, BrokenProcessPool, ""),
], ids=["result does not pickle", "exception does not pickle", "raises", "killed", "killed while sending"])
def test_a_pooled_map_raises_what_its_worker_met(call, error, message):
    raised = []

    def consume():
        try:
            list(jsonio._pooled_map(call, range(4), workers=2))
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the map did not end"
    assert [type(exc) for exc in raised] == [error] and message in str(raised[0])
    if error is ArithmeticError:  # chained to the worker's traceback
        assert "_raises_an_arithmetic_error" in str(raised[0].__cause__)
    with pytest.raises(ChildProcessError):  # no child left to reap
        os.waitpid(-1, os.WNOHANG)


def _pid_slice(text, start, stop):
    return np.full(stop - start, os.getpid(), dtype=np.float64).tobytes()  # one per byte: every part fits


def test_large_files_are_read_in_other_processes(tmp_path, pooled, monkeypatch):
    lines = tmp_path / "lines.jsonl"
    lines.write_text("".join(f'{{"line": {i}}}\n' for i in range(4)))
    pids = [pid for share, pid in jsonio.map_lines(lines, lambda numbered: os.getpid())]
    assert len(pids) == 4 and os.getpid() not in pids

    monkeypatch.setattr(jsonio, "_parse_slice", _pid_slice)
    flat = tmp_path / "flat.json"
    flat.write_text('{"a": 1, "data": [%s]}' % ", ".join(["1.5"] * 20))
    pids = jsonio.read_document(flat, ("a", "data"), flat="data")["data"].tolist()
    assert len(pids) > 1 and os.getpid() not in pids


def _part_fails(error):
    def work(start, stop):
        if start == 10:
            raise error
        return start, stop
    return work


def test_map_parts_cuts_at_the_size_rule_only(pooled, monkeypatch):
    cuts = []

    def cut(offset):
        cuts.append(offset)
        return offset + 1

    monkeypatch.setattr(jsonio, "POOL_MIN_VALUES", 20)
    assert jsonio._map_parts(_part_fails(ArithmeticError()), 0, 19, cut) is None
    assert cuts == []
    parts = jsonio._map_parts(lambda *part: part, 0, 20, cut)
    assert cuts == [5, 10, 15]  # before any part is taken
    assert [part for share, part in parts] == [(0, 6), (6, 11), (11, 16), (16, 20)]


@pytest.mark.parametrize("error", [ParseError("part"), ValueError("part")], ids=["ParseError", "ValueError"])
def test_map_parts_raises_a_rule_break_as_its_part_is_taken(pooled, error):
    parts = jsonio._map_parts(_part_fails(error), 0, 20, lambda offset: offset)
    assert [next(parts), next(parts)] == [(0.25, (0, 5)), (0.25, (5, 10))]
    with pytest.raises(type(error), match="part"):
        next(parts)


def test_map_parts_raises_any_other_error_of_a_part(pooled):
    with pytest.raises(ArithmeticError, match="part"):
        list(jsonio._map_parts(_part_fails(ArithmeticError("part")), 0, 20, lambda offset: offset))


def test_more_workers_than_cpus_keep_the_order():
    assert list(jsonio._pooled_map(abs, range(-50, 0), workers=5)) == list(range(50, 0, -1))


def _sleeps_after_the_first(x):
    if x != -20:
        time.sleep(60)
    return abs(x)


@pytest.mark.parametrize("call", [abs, _sleeps_after_the_first], ids=["quick calls", "60 s calls"])
def test_an_abandoned_map_ends_its_workers(call):
    results = jsonio._pooled_map(call, range(-20, 0), workers=2)
    assert next(results) == 20
    start = time.monotonic()
    results.close()
    assert time.monotonic() - start < 2, "closing the map waited for its running calls"
    with pytest.raises(ChildProcessError):  # no child left to reap
        os.waitpid(-1, os.WNOHANG)


def _first_call_fails(index):
    if index == 0:
        raise ArithmeticError("call 0 failed")
    return bytes(1 << 20)  # more than a pipe between two processes holds


def test_a_failing_call_ends_a_map_of_three_workers_promptly():
    raised = []

    def consume():
        try:
            list(jsonio._pooled_map(_first_call_fails, range(12), workers=3))
        except ArithmeticError as exc:
            raised.append(exc)

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the map did not end"
    assert [str(exc) for exc in raised] == ["call 0 failed"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _in_two_threads(task, rounds=20):
    """``task(0)`` and ``task(1)``, started together in two daemon threads,
    ``rounds`` times; every exception they raised."""
    raised = []
    for _ in range(rounds):
        barrier = threading.Barrier(2)

        def run(k):
            barrier.wait()
            try:
                task(k)
            except Exception as exc:
                raised.append(exc)

        threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "a pooled map did not end"
    return raised


def test_two_threads_write_their_own_arrays_at_once(tmp_path, pooled):
    arrays = [np.random.default_rng(k).normal(size=(60 + k, 8)) for k in range(2)]
    paths = [tmp_path / f"{k}.json" for k in range(2)]
    wrong = []

    def write(k):
        jsonio.write_documents(paths[k], [{"data": arrays[k]}])
        if json.loads(paths[k].read_text())["data"] != arrays[k].tolist():
            wrong.append(k)

    assert _in_two_threads(write) == [] and wrong == []


def test_two_threads_load_their_own_batches_at_once(tmp_path, pooled):
    rng = np.random.default_rng(3)
    batches = [FeatureBatch("proposal", rng.normal(size=(4 + k, 2, 2, 5))) for k in range(2)]
    paths = [tmp_path / f"{k}.json" for k in range(2)]
    for batch, path in zip(batches, paths):
        save_feature_batch(batch, path)
    wrong = []

    def load(k):
        loaded = load_feature_batch(paths[k])
        if loaded.mode != "proposal" or not np.array_equal(loaded.blocks, batches[k].blocks):
            wrong.append(k)

    assert _in_two_threads(load) == [] and wrong == []


# A two-worker map whose calls each write their worker's pid to a file in
# the directory argv[1] names, then sleep.
_SLEEPING_MAP = """
import os, sys, time
from pedbank import jsonio

def call(i):
    with open(os.path.join(sys.argv[1], str(os.getpid())), "w"):
        pass
    time.sleep(60)

list(jsonio._pooled_map(call, range(2), workers=2))
"""


def _ended(pid):
    """Whether process ``pid`` has ended; on Linux a zombie, ended but not
    yet reaped by its new parent, counts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except OSError:
        return False


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_workers_end_when_their_parent_is_killed(tmp_path, sig):
    src = Path(jsonio.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen([sys.executable, "-c", _SLEEPING_MAP, str(tmp_path)], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while len(pids) < 2 and parent.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = [int(path.name) for path in tmp_path.iterdir()]
        assert len(pids) == 2, "the map's two workers did not start"
        parent.send_signal(sig)
        parent.wait(timeout=60)
        deadline = time.monotonic() + 2  # README promises about half a second
        while not all(map(_ended, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_ended, pids)), "a worker outlived its parent by 2 s"
    finally:
        parent.kill()
        parent.wait(timeout=60)
        for pid in pids:
            if not _ended(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


def test_a_written_file_gets_the_permissions_open_gives(tmp_path):
    plain, written = tmp_path / "plain.json", tmp_path / "written.json"
    with open(plain, "w", encoding="utf-8"):
        pass
    jsonio.write_documents(written, [{"a": 1}])
    assert stat.S_IMODE(os.stat(written).st_mode) == stat.S_IMODE(os.stat(plain).st_mode)
    os.chmod(written, 0o640)  # open(path, "w") keeps an existing file's mode
    jsonio.write_documents(written, [{"a": 2}])
    assert stat.S_IMODE(os.stat(written).st_mode) == 0o640
    assert written.read_text() == '{"a": 2}\n'


def test_a_write_through_a_link_replaces_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    jsonio.write_documents(link, [{"a": 1}])
    assert link.is_symlink() and target.read_text() == '{"a": 1}\n'


def test_a_missing_directory_raises_naming_the_destination(tmp_path):
    path = tmp_path / "missing" / "d.json"
    with pytest.raises(FileNotFoundError) as raised:
        jsonio.write_documents(path, [{"a": 1}])
    assert raised.value.filename == str(path)


def test_a_pipe_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    jsonio.write_documents(pipe, [{"a": 1}])
    reader.join(timeout=10)
    assert not reader.is_alive() and received == [b'{"a": 1}\n']
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


@pytest.mark.parametrize("doc", [
    {"data": np.array([1.0, np.nan])},
    {"data": np.array([[np.inf], [1.0]])},
    {"data": np.array([1.0, 2.0]), "eps": float("-inf")},
    {"data": np.array([1, 2])},
], ids=["nan", "inf", "non-finite-scalar", "int-array"])
def test_a_rejected_document_leaves_an_existing_file_unchanged(tmp_path, doc):
    path = tmp_path / "d.json"
    path.write_bytes(b"previous bytes\n")
    docs = [{"data": np.zeros(3)}, doc]  # the bad document comes second
    with pytest.raises(ValueError):
        jsonio.write_documents(path, docs)
    assert path.read_bytes() == b"previous bytes\n"


@pytest.mark.parametrize("docs", [
    [{}],
    [{"data": np.arange(6.0).reshape(2, 3)}],
    [{"data": np.empty((3, 0))}, {"data": np.empty((2, 0, 4)), "n": 2}],
    [],
    [{"x": np.array(1.5), "y": np.array(-1e-7), "z": np.zeros(2)}],
], ids=["empty-document", "only-an-array", "zero-length-inner-axis", "no-documents", "0-d-arrays"])
def test_edge_documents_match_json_dumps(tmp_path, docs):
    jsonio.write_documents(tmp_path / "d.json", docs)
    assert (tmp_path / "d.json").read_text() == "".join(map(reference_line, docs))


def test_documents_may_come_from_a_generator(tmp_path):
    docs = [{"i": i, "data": np.full((2, 2), float(i))} for i in range(3)]
    jsonio.write_documents(tmp_path / "d.json", (doc for doc in docs))
    assert (tmp_path / "d.json").read_text() == "".join(map(reference_line, docs))


@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "new-file"])
@pytest.mark.parametrize("bad", [
    np.array([1.0, np.nan]), np.array([1, 2]), float("inf"),
], ids=["nan-array", "int-array", "inf-scalar"])
def test_a_rejected_document_leaves_no_temporary_file(tmp_path, existing, bad):
    path = tmp_path / "d.json"
    if existing:
        path.write_bytes(b"previous bytes\n")
    docs = ({"data": np.zeros(3)}, {"a": 1.0, "data": bad})  # rejected part way through
    with pytest.raises(ValueError):
        jsonio.write_documents(path, iter(docs))
    assert os.listdir(tmp_path) == (["d.json"] if existing else [])
    if existing:
        assert path.read_bytes() == b"previous bytes\n"


def params_of_sizes(sizes):
    """One-head ``AttentionParams`` with ``c`` channels over a bank of dimension ``d``."""
    c, d = sizes
    return AttentionParams(
        heads=1, d_model=2, w_q=np.ones((1, c, 2)), w_k=np.ones((1, d, 2)),
        w_v=np.ones((1, d, 2)), w_o=np.ones((2, c)), gain=np.ones(c), bias=np.zeros(c),
    )


# kind -> (builder from a shape, writer, reader)
ROUND_TRIPS = {
    "bank": (lambda shape: KnowledgeBank(np.full(shape, 0.5), np.full(shape, 0.25)),
             save_bank, load_bank),
    "params (c, d)": (params_of_sizes, save_attention_params, load_attention_params),
    "proposal": (lambda shape: FeatureBatch("proposal", np.full(shape, 0.5)),
                 save_feature_batch, load_feature_batch),
    "query": (lambda shape: FeatureBatch("query", np.full(shape, 0.5)),
              save_feature_batch, load_feature_batch),
}
SHAPES = [
    ("bank", (2, 3)), ("bank", (0, 3)), ("bank", (2, 0)),
    ("params (c, d)", (3, 2)), ("params (c, d)", (0, 2)), ("params (c, d)", (3, 0)),
    ("proposal", (1, 2, 2, 3)), ("proposal", (0, 2, 2, 3)), ("proposal", (1, 2, 0, 3)),
    ("query", (2, 1, 3)), ("query", (0, 1, 3)), ("query", (2, 1, 0)),
]


@pytest.mark.parametrize("kind, shape", SHAPES, ids=[f"{kind}-{shape}" for kind, shape in SHAPES])
def test_what_constructs_also_loads_after_saving(tmp_path, kind, shape):
    # a size the readers reject (0) must not construct either
    build, save, load = ROUND_TRIPS[kind]
    try:
        value = build(shape)
    except PedbankError:
        assert 0 in shape
        return
    path = tmp_path / "value.json"
    save(value, path)
    assert outcome(load, path) == outcome(lambda _: value, path)
