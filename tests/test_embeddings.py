import contextlib
import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedbank import jsonio
from pedbank.embeddings import (
    BACKGROUND,
    PEDESTRIAN,
    EmbeddingDataset,
    generate_synthetic,
    l2_normalize,
    parse_embedding_file,
    split_by_label,
    write_embedding_file,
)
from pedbank.errors import DimensionError, ParseError, PreconditionError

from support import make_dataset, read_both_ways


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestParse:
    def test_preserves_order_and_values(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [
            '{"id": "a", "label": "pedestrian", "vector": [1.0, 2.0, 3.0, 4.0]}',
            '{"id": "b", "label": "background", "vector": [0.5, -1.25, 0.0, 9.0]}',
        ])
        ds = parse_embedding_file(path)
        assert len(ds) == 2 and ds.dim == 4
        assert ds.ids == ("a", "b")
        assert ds.labels[0] == PEDESTRIAN
        assert ds.labels[1] == BACKGROUND
        np.testing.assert_array_equal(ds.vectors[1], [0.5, -1.25, 0.0, 9.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [
            '{"id": "a", "label": "pedestrian", "vector": [1.0, 2.0, 3.0, 4.0]}',
            '{"id": "b", "label": "pedestrian", "vector": [1.0, 2.0, 3.0]}',
        ])
        with pytest.raises(DimensionError, match="line 2"):
            parse_embedding_file(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [
            '{"id": "a", "label": "pedestrian", "vector": [1.0]}',
            '{"id": "b", "label": ',
        ])
        with pytest.raises(ParseError, match="line 2"):
            parse_embedding_file(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [
            '{"id": "a", "label": "pedestrian", "vector": [1.0]}',
            '{"id": "a", "label": "background", "vector": [2.0]}',
        ])
        with pytest.raises(ParseError, match="duplicate id"):
            parse_embedding_file(path)

    def test_empty_id_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [
            '{"id": "a", "label": "pedestrian", "vector": [1.0]}',
            '{"id": "", "label": "pedestrian", "vector": [2.0]}',
        ])
        with pytest.raises(ParseError, match="line 2: id must be a non-empty string"):
            parse_embedding_file(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, ['{"id": "a", "label": "person", "vector": [1.0]}'])
        with pytest.raises(ParseError, match="label"):
            parse_embedding_file(path)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, ['{"id": "a", "label": "pedestrian", "vector": [1.0, NaN]}'])
        with pytest.raises(ParseError, match="non-finite"):
            parse_embedding_file(path)

    def test_extra_keys_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, ['{"id": "a", "label": "pedestrian", "vector": [1.0], "x": 1}'])
        with pytest.raises(ParseError, match="keys"):
            parse_embedding_file(path)

    def test_empty_file_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("", encoding="utf-8")
        ds = parse_embedding_file(path)
        assert len(ds) == 0 and ds.dim is None

    def test_normalize_flag_applies_at_ingestion(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [
            '{"id": "a", "label": "pedestrian", "vector": [3.0, 4.0]}',
            '{"id": "b", "label": "background", "vector": [0.0, -2.0]}',
        ])
        ds = parse_embedding_file(path, normalize=True)
        for vector in ds.vectors:
            assert math.isclose(float(np.linalg.norm(vector)), 1.0, abs_tol=1e-9)
        raw = parse_embedding_file(path)
        assert not math.isclose(float(np.linalg.norm(raw.vectors[0])), 1.0)

    def test_normalize_scales_vectors_whose_norm_over_or_underflows(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_lines(path, [record("a", [1e200, 1e200]), record("b", [1e-200, 3e-200], "background")])
        ds = parse_embedding_file(path, normalize=True)
        np.testing.assert_allclose(ds.vectors, [[0.5 ** 0.5] * 2, [0.1 ** 0.5, 0.9 ** 0.5]], rtol=1e-15)


@pytest.mark.usefixtures("pooled")
class TestParsePooled(TestParse):
    """Every case of ``TestParse``, with each file of more than one line cut
    at every line break and parsed in two forked workers."""


def record(rec_id, vector, label="pedestrian"):
    return json.dumps({"id": rec_id, "label": label, "vector": vector})


# Files whose parts can each pass the per-line checks, or that text mode
# reads otherwise than a split at b"\n" would.
VALID = [record("a", [3.0, 4.0]), record("b", [1e-150, -0.0]),
         record("c", [5e-324, 1e16]), record("d", [0.1, -2.0])]
SPLIT_CASES = {
    "valid": "\n".join(VALID) + "\n",
    "valid without a final line break": "\n".join(VALID),
    "valid with CRLF line breaks": "\r\n".join(VALID) + "\r\n",
    "valid with lone CR line breaks": "\r".join(VALID) + "\r",
    "duplicate id across the split": "\n".join(VALID[:3] + [record("a", [0.1, -2.0])]) + "\n",
    "dimension mismatch across the split": "\n".join(
        VALID[:2] + [record("c", [1.0]), record("d", [2.0])]) + "\n",
    "carriage return inside a record": "\n".join(VALID[:3] + [VALID[3].replace(", ", ",\r", 1)]) + "\n",
    "trailing blank line": "\n".join(VALID) + "\n\n",
    "zero vector": "\n".join(VALID[:3] + [record("d", [0, 0.0])]) + "\n",
    "integer past the digit limit": "\n".join(VALID[:3] + [record("d", [1.0, 2.0]).replace(
        "1.0", "1" * 5000)]) + "\n",
    # the first part has the fewest values per byte, so the array sized from it grows
    "a long first line, so the array grows": "\n".join(
        [record("a" * 300, [3.0, 4.0])] + VALID[1:]) + "\n",
    "normal rows, then zero rows": "\n".join(
        [record("a", [0.12345678901234568, -1.2345678901234568e-07, 9.87654321098765, -0.5555555555555556])]
        + [record(rec_id, [0.0] * 4) for rec_id in "bcdef"]) + "\n",
}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name", SPLIT_CASES)
def test_pooled_and_in_process_parses_agree(tmp_path, monkeypatch, name, normalize):
    if name == "integer past the digit limit" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    path = tmp_path / "e.jsonl"
    path.write_bytes(SPLIT_CASES[name].encode())
    parts = []  # how many parts each parse took
    map_lines = jsonio.map_lines

    def map_counted(*args):
        parts.append(0)
        with contextlib.closing(map_lines(*args)) as results:
            for result in results:
                parts[-1] += 1
                yield result

    monkeypatch.setattr(jsonio, "map_lines", map_counted)

    def parse(p):
        return parse_embedding_file(p, normalize=normalize)

    in_process, pooled = read_both_ways(parse, path)
    assert pooled == in_process
    if name.startswith("valid"):
        assert isinstance(in_process, list)
    if name.startswith("valid") or "across" in name or "grows" in name:
        # every part passed; files are cut only after a "\n"
        assert parts[-1] == (1 if "lone CR" in name else 4)
    if "zero rows" in name and not normalize:  # normalizing a zero row is an error
        assert parts[-1] == 6 and isinstance(in_process, list)


def test_a_pipe_is_read_once_in_this_process(tmp_path, pooled):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_text(SPLIT_CASES["valid"]), daemon=True)
    writer.start()
    ds = parse_embedding_file(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive() and ds.ids == ("a", "b", "c", "d")


def test_a_pooled_parse_holds_about_one_copy_of_the_vectors(paper_dir, tmp_path, monkeypatch):
    # each part's vectors are copied into the array, sized from the first part, as they
    # arrive: the array, its slack of about one part, the parts on their way into it and the ids
    monkeypatch.setattr(jsonio, "_cpus", lambda: 2)
    small = tmp_path / "small.jsonl"
    small.write_text(SPLIT_CASES["valid"])
    with pytest.MonkeyPatch.context() as mp:  # the pool's modules are imported outside the trace
        mp.setattr(jsonio, "POOL_MIN_VALUES", 1)
        parse_embedding_file(small, normalize=True)
    tracemalloc.start()
    try:
        dataset = parse_embedding_file(paper_dir / "paper.jsonl", normalize=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * dataset.vectors.nbytes, peak / dataset.vectors.nbytes


def test_write_then_parse_is_identical(tmp_path):
    ds = generate_synthetic(seed=7, pedestrians=600, backgrounds=400, dim=512)
    path = tmp_path / "synth.jsonl"
    write_embedding_file(ds, path)
    back = parse_embedding_file(path)
    assert back.ids == ds.ids
    assert back.labels == ds.labels
    np.testing.assert_array_equal(back.vectors, ds.vectors)
    # a second serialization of the parsed dataset is byte-identical
    again = tmp_path / "again.jsonl"
    write_embedding_file(back, again)
    assert again.read_bytes() == path.read_bytes()


class TestSplit:
    def test_partition_preserves_order(self):
        ds = make_dataset(
            [[1.0], [2.0], [3.0], [4.0], [5.0]],
            labels=[PEDESTRIAN, BACKGROUND, PEDESTRIAN, PEDESTRIAN, BACKGROUND],
        )
        peds, bgs = split_by_label(ds)
        assert peds.ids == ("r0", "r2", "r3")
        assert bgs.ids == ("r1", "r4")
        assert set(peds.ids) | set(bgs.ids) == set(ds.ids)

    def test_all_pedestrian_gives_empty_background(self):
        ds = make_dataset([[1.0], [2.0]])
        peds, bgs = split_by_label(ds)
        assert len(peds) == 2 and len(bgs) == 0

    def test_synthetic_600_400(self):
        ds = generate_synthetic(seed=7, pedestrians=600, backgrounds=400, dim=16)
        peds, bgs = split_by_label(ds)
        assert len(peds) == 600 and len(bgs) == 400
        assert set(peds.ids) | set(bgs.ids) == set(ds.ids)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(l2_normalize(v), v)

    @pytest.mark.parametrize("v, unit", [
        ([1e200, 1e200], [0.5 ** 0.5] * 2),  # the norm overflows
        ([1e-200, 3e-200], [0.1 ** 0.5, 0.9 ** 0.5]),  # the squares underflow
        ([5e-324, 0.0], [1.0, 0.0]),  # the smallest subnormal
        ([2e-162, 0.0], [1.0, 0.0]),  # the square is subnormal
        ([1e-160, 1e-160], [0.5 ** 0.5] * 2),  # the sum of squares is subnormal
    ], ids=["overflow", "underflow", "subnormal", "subnormal square", "subnormal sum of squares"])
    def test_norm_out_of_range_still_gives_unit_length(self, v, unit):
        np.testing.assert_allclose(l2_normalize(v), unit, rtol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError, match="zero"):
            l2_normalize(np.zeros(4))

    def test_unit_norm_random(self):
        v = np.random.default_rng(1).normal(size=512)
        assert abs(float(np.linalg.norm(l2_normalize(v))) - 1.0) <= 1e-9

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=8,
        ).filter(lambda v: float(np.linalg.norm(v)) > 1e-6)
    )
    def test_idempotent(self, v):
        once = l2_normalize(v)
        np.testing.assert_allclose(l2_normalize(once), once, atol=1e-9)


class TestGenerateSynthetic:
    def test_deterministic_and_ordered(self):
        a = generate_synthetic(seed=9, pedestrians=5, backgrounds=3, dim=4)
        b = generate_synthetic(seed=9, pedestrians=5, backgrounds=3, dim=4)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert list(a.labels) == [PEDESTRIAN] * 5 + [BACKGROUND] * 3

    def test_separation_realized(self):
        ds = generate_synthetic(seed=6, pedestrians=1000, backgrounds=1000, dim=16, separation=8.0)
        peds, bgs = split_by_label(ds)
        u = np.ones(16) / 4.0
        gap = float((peds.vectors.mean(axis=0) - bgs.vectors.mean(axis=0)) @ u)
        assert abs(gap - 8.0) < 0.2

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionError):
            generate_synthetic(seed=0, pedestrians=0, backgrounds=1, dim=4)
        with pytest.raises(PreconditionError):
            generate_synthetic(seed=0, pedestrians=1, backgrounds=1, dim=1)
        with pytest.raises(PreconditionError):
            generate_synthetic(seed=0, pedestrians=1, backgrounds=1, dim=4, separation=-1.0)
        for dim in (3.0, "3"):
            with pytest.raises(PreconditionError):
                generate_synthetic(seed=0, pedestrians=1, backgrounds=1, dim=dim)

    @pytest.mark.parametrize("count", [True, 2.5])
    def test_counts_must_be_positive_integers(self, count):
        with pytest.raises(PreconditionError, match="positive integers"):
            generate_synthetic(seed=0, pedestrians=count, backgrounds=1, dim=4)
        with pytest.raises(PreconditionError, match="positive integers"):
            generate_synthetic(seed=0, pedestrians=1, backgrounds=count, dim=4)


class TestDatasetInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(PreconditionError, match="duplicate"):
            EmbeddingDataset(ids=("a", "a"), labels=(PEDESTRIAN,) * 2, vectors=[[1.0], [1.0]])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            EmbeddingDataset(ids=("a", "b"), labels=(PEDESTRIAN,) * 2, vectors=[[1.0], [1.0, 2.0]])

    def test_record_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            EmbeddingDataset(ids=("a",), labels=(PEDESTRIAN,), vectors=[[1.0, np.inf]])

    @pytest.mark.parametrize("ids, labels, vectors, error", [
        (("a",), (PEDESTRIAN, PEDESTRIAN), [[1.0]], DimensionError),
        (("a", "b"), (PEDESTRIAN, PEDESTRIAN), [[1.0]], DimensionError),
        (("a",), (PEDESTRIAN,), [1.0], DimensionError),
        (("a",), (PEDESTRIAN,), [[]], DimensionError),
        (("",), (PEDESTRIAN,), [[1.0]], PreconditionError),
        ((1,), (PEDESTRIAN,), [[1.0]], PreconditionError),
        (("a",), ("person",), [[1.0]], PreconditionError),
    ])
    def test_constructor_checks_every_column(self, ids, labels, vectors, error):
        with pytest.raises(error):
            EmbeddingDataset(ids=ids, labels=labels, vectors=vectors)

    def test_vectors_are_an_owned_read_only_matrix(self):
        source = np.array([[1.0, 2.0]])
        ds = EmbeddingDataset(ids=("a",), labels=(PEDESTRIAN,), vectors=source)
        source[0, 0] = 5.0
        assert ds.vectors[0, 0] == 1.0
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 3.0

    def test_empty_split_keeps_the_dimension(self):
        peds, bgs = split_by_label(make_dataset([[1.0, 2.0]]))
        assert (len(peds), peds.dim) == (1, 2)
        assert (len(bgs), bgs.dim) == (0, 2)
