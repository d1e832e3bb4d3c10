"""The one array rule (``errors.check_array``) at every place a caller's array comes in."""

import numpy as np
import pytest

from pedbank.attention import AttentionParams, FeatureBatch, attention_gradients, init_attention
from pedbank.bank import KnowledgeBank
from pedbank.embeddings import PEDESTRIAN, EmbeddingDataset
from pedbank.errors import DimensionError, PreconditionError, check_array, owned_readonly
from pedbank.hints import ClassifierParams, HintSet
from pedbank.quantizer import Codebook, quantize

PARAMS = init_attention(c=2, d=2, d_m=1, heads=1, seed=0)
PARAM_ARRAYS = {
    name: getattr(PARAMS, name) for name in ("w_q", "w_k", "w_v", "w_o", "gain", "bias")
}
CLASSIFIER = {"w1": [[1.0, 2.0], [3.0, 4.0]], "b1": [0.5, -0.5], "w2": [[1.0, -1.0]], "b2": 0.5}
BANK = {"f_q": [[1.0, 2.0]], "f_h": [[0.0, 0.5]], "f_k": [[1.0, 2.5]]}
QUERY = FeatureBatch("query", [[[3.0, 4.0]]])
ONE_ROW_BANK = KnowledgeBank(n=1, dim=2, **BANK)


def with_value(values, name, value):
    return {**values, name: value}


# call site -> (a valid value, a builder that passes the value in at that site)
CALL_SITES = {
    "Codebook.centroids": (np.eye(2), lambda v: Codebook(n=2, dim=2, centroids=v)),
    "HintSet.hints": (np.eye(2), lambda v: HintSet(n=2, dim=2, hints=v)),
    **{
        f"ClassifierParams.{name}": (
            CLASSIFIER[name],
            lambda v, name=name: ClassifierParams(**with_value(CLASSIFIER, name, v)),
        )
        for name in CLASSIFIER
    },
    **{
        f"KnowledgeBank.{name}": (
            BANK[name], lambda v, name=name: KnowledgeBank(n=1, dim=2, **with_value(BANK, name, v))
        )
        for name in BANK
    },
    "FeatureBatch.blocks (proposal)": ([[[[3.0, 4.0]]]], lambda v: FeatureBatch("proposal", v)),
    "FeatureBatch.blocks (query)": ([[[3.0, 4.0]]], lambda v: FeatureBatch("query", v)),
    **{
        f"AttentionParams.{name}": (
            PARAM_ARRAYS[name],
            lambda v, name=name: AttentionParams(
                heads=1, d_model=1, **with_value(PARAM_ARRAYS, name, v)
            ),
        )
        for name in PARAM_ARRAYS
    },
    "EmbeddingDataset.vectors": (
        [[1.0, 2.0]], lambda v: EmbeddingDataset(ids=("a",), labels=(PEDESTRIAN,), vectors=v)
    ),
    "quantize probe": (
        [1.0, 0.0], lambda v: quantize(v, Codebook(n=2, dim=2, centroids=np.eye(2)))
    ),
    "attention_gradients upstream": (
        [[[0.5, 1.0]]], lambda v: attention_gradients(QUERY, ONE_ROW_BANK, PARAMS, v)
    ),
}


def as_strings(valid):
    return np.asarray(valid, dtype=np.float64).astype(str).tolist()


def as_bools(valid):
    return (np.asarray(valid, dtype=np.float64) != 0).tolist()


def mixed_bool(valid):
    """The valid value with its first number replaced by ``True``; NumPy alone
    would promote the list to float64. A scalar site has nothing to mix with."""
    rows = np.asarray(valid, dtype=np.float64).tolist()
    if not isinstance(rows, list):
        return True
    first = rows
    while isinstance(first[0], list):
        first = first[0]
    first[0] = True
    return rows


def ragged(valid):
    return [[0.0], [0.0, 0.0]]  # whatever shape the site wants, rows of two lengths are not one


def with_nan(valid):
    arr = np.array(valid, dtype=np.float64)
    arr.flat[0] = np.nan
    return arr.tolist()


BAD_VALUES = {
    "string": (as_strings, PreconditionError, "int or float"),
    "bool": (as_bools, PreconditionError, "int or float"),
    "mixed bool": (mixed_bool, PreconditionError, "int or float"),
    "ragged": (ragged, DimensionError, "rectangular"),
    "nan": (with_nan, PreconditionError, "must be finite"),
}


@pytest.mark.parametrize("site", CALL_SITES)
def test_call_site_accepts_its_valid_value(site):
    valid, build = CALL_SITES[site]
    build(valid)


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("site", CALL_SITES)
def test_call_site_rejects_what_the_file_readers_reject(site, bad):
    valid, build = CALL_SITES[site]
    make, error, message = BAD_VALUES[bad]
    with pytest.raises(error, match=message):
        build(make(valid))


def test_float64_input_is_kept_and_ints_are_converted():
    arr = np.ones((2, 3))
    assert check_array("a", arr, (2, None)) is arr
    converted = check_array("a", [[1, 2, 3]], (None, 3))
    assert converted.dtype == np.float64 and converted.tolist() == [[1.0, 2.0, 3.0]]



def test_bool_scan_also_finds_bools_inside_nested_arrays():
    with pytest.raises(PreconditionError, match="got a bool"):
        check_array("a", [np.array([True, False]), np.array([1.0, 2.0])], (2, 2))
    with pytest.raises(PreconditionError, match="got a bool"):
        check_array("a", [[np.True_, 2.5]], (1, 2))


def test_owned_readonly_copies_only_what_a_caller_could_still_write():
    handed_over = np.ones((2, 3))
    handed_over.flags.writeable = False
    assert owned_readonly(handed_over) is handed_over

    writable = np.ones((2, 3))
    kept = owned_readonly(writable)
    assert kept is not writable and not kept.flags.writeable and kept.base is None
    writable[0, 0] = 5.0
    assert kept[0, 0] == 1.0

    view = handed_over[:, :2]  # read-only, but its data belongs to another array
    kept_view = owned_readonly(view)
    assert kept_view is not view and kept_view.base is None
    np.testing.assert_array_equal(kept_view, view)
