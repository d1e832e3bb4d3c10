"""The one array rule (``errors.check_array``) at every place a caller's array comes in."""

import copy
import pickle

import numpy as np
import pytest

from pedbank.attention import (
    AttentionGrads,
    AttentionParams,
    AttentionTrace,
    FeatureBatch,
    attention_gradients,
    cross_attend,
    init_attention,
)
from pedbank.bank import KnowledgeBank
from pedbank.embeddings import PEDESTRIAN, EmbeddingDataset, generate_synthetic
from pedbank.errors import DimensionError, PreconditionError, check_array, owned_readonly
from pedbank.hints import (
    ClassifierGrads,
    ClassifierParams,
    ForwardCache,
    HintSet,
    TrainConfig,
    init_classifier,
    init_hints,
)
from pedbank.quantizer import Codebook, KMeansConfig, quantize

PARAMS = init_attention(c=2, d=2, d_m=1, heads=1, seed=0)
PARAM_ARRAYS = {
    name: getattr(PARAMS, name) for name in ("w_q", "w_k", "w_v", "w_o", "gain", "bias")
}
CLASSIFIER = {"w1": [[1.0, 2.0], [3.0, 4.0]], "b1": [0.5, -0.5], "w2": [[1.0, -1.0]], "b2": 0.5}
BANK = {"f_q": [[1.0, 2.0]], "f_h": [[0.0, 0.5]]}
QUERY = FeatureBatch("query", [[[3.0, 4.0]]])
ONE_ROW_BANK = KnowledgeBank(**BANK)
USED_BATCH = FeatureBatch("proposal", [[[[1.0, 2.0], [3.0, 5.0]]]])
USED_TRACE = cross_attend(USED_BATCH, ONE_ROW_BANK, PARAMS)[1]  # held, so the batch's record is live


def with_value(values, name, value):
    return {**values, name: value}


# call site -> (a valid value, a builder that passes the value in at that site)
CALL_SITES = {
    "Codebook.centroids": (np.eye(2), lambda v: Codebook(v)),
    "HintSet.hints": (np.eye(2), lambda v: HintSet(v)),
    **{
        f"ClassifierParams.{name}": (
            CLASSIFIER[name],
            lambda v, name=name: ClassifierParams(**with_value(CLASSIFIER, name, v)),
        )
        for name in CLASSIFIER
    },
    **{
        f"KnowledgeBank.{name}": (
            BANK[name], lambda v, name=name: KnowledgeBank(**with_value(BANK, name, v))
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
        [1.0, 0.0], lambda v: quantize(v, Codebook(np.eye(2)))
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



def test_none_allows_any_positive_length():
    assert check_array("a", np.ones((1, 3)), (None, None)).shape == (1, 3)
    for shape in [(0, 3), (3, 0), (0, 0)]:
        with pytest.raises(DimensionError, match=r"shape \(positive, positive\)"):
            check_array("a", np.ones(shape), (None, None))


def test_an_axis_fixed_at_zero_lets_the_none_axes_take_any_length():
    # EmbeddingDataset's empty matrices: (0, 0) for an empty file, (0, dim) for an empty split
    for shape in [(0, 0), (0, 4)]:
        assert check_array("a", np.ones(shape), (0, None)).shape == shape
    with pytest.raises(DimensionError):
        check_array("a", np.ones((1, 0)), (1, None))


@pytest.mark.parametrize("hidden, dim", [(2, 0), (0, 2)])
def test_classifier_rejects_a_w1_with_no_values(hidden, dim):
    with pytest.raises(DimensionError, match="w1 must have shape"):
        ClassifierParams(
            w1=np.ones((hidden, dim)), b1=np.zeros(hidden), w2=np.ones((1, hidden)), b2=0.0
        )


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


# class -> (an instance, the names of the owned read-only arrays it keeps)
OWNERS = {
    "KnowledgeBank": (ONE_ROW_BANK, ("f_q", "f_h", "f_k")),
    "AttentionParams": (PARAMS, tuple(PARAM_ARRAYS)),
    "EmbeddingDataset": (generate_synthetic(seed=0, pedestrians=1, backgrounds=1, dim=2), ("vectors",)),
    "FeatureBatch": (USED_BATCH, ("blocks",)),
}


@pytest.mark.parametrize("round_trip", [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("owner", OWNERS)
def test_a_pickled_or_copied_owner_keeps_the_ownership_rule(owner, round_trip):
    value, names = OWNERS[owner]
    again = round_trip(value)
    for name in names:
        arr = getattr(again, name)
        np.testing.assert_array_equal(arr, getattr(value, name))
        assert not arr.flags.writeable and arr.base is None
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 5.0
    if owner == "KnowledgeBank":
        np.testing.assert_array_equal(again.f_k, again.f_q + again.f_h)


# scalar setting -> (a valid value, a builder that passes the value in and
# returns the value kept, or for generate_synthetic the vectors it drew)
SCALAR_SETTINGS = {
    "TrainConfig.lr": (0.1, lambda v: TrainConfig(lr=v, steps=3).lr),
    "KMeansConfig.tol": (1e-6, lambda v: KMeansConfig(n=2, tol=v).tol),
    "AttentionParams.eps": (
        1e-5, lambda v: AttentionParams(heads=1, d_model=1, eps=v, **PARAM_ARRAYS).eps
    ),
    "generate_synthetic separation": (
        8.0,
        lambda v: generate_synthetic(
            seed=0, pedestrians=1, backgrounds=1, dim=2, separation=v
        ).vectors,
    ),
}


@pytest.mark.parametrize("bad", BAD_VALUES)
@pytest.mark.parametrize("setting", SCALAR_SETTINGS)
def test_scalar_setting_rejects_what_the_array_rule_rejects(setting, bad):
    valid, build = SCALAR_SETTINGS[setting]
    make, error, message = BAD_VALUES[bad]
    with pytest.raises(error, match=message):
        build(make(valid))


@pytest.mark.parametrize("setting", SCALAR_SETTINGS)
def test_scalar_setting_rejects_infinity(setting):
    _, build = SCALAR_SETTINGS[setting]
    with pytest.raises(PreconditionError, match="must be finite"):
        build(float("inf"))


@pytest.mark.parametrize("setting", SCALAR_SETTINGS)
def test_scalar_setting_keeps_the_bits_of_a_valid_value(setting):
    valid, build = SCALAR_SETTINGS[setting]
    near = np.nextafter(valid, np.inf)  # one ulp away, as a NumPy scalar
    kept = build(near)
    reference = build(float(near))
    if setting.startswith("generate_synthetic"):
        np.testing.assert_array_equal(kept, reference)
        np.testing.assert_array_equal(build(8), build(8.0))
    else:
        assert type(kept) is float and kept.hex() == float(near).hex() == reference.hex()


# every place that takes a seed -> a builder that passes the seed in
SEEDED = {
    "KMeansConfig": lambda s: KMeansConfig(n=2, seed=s),
    "TrainConfig": lambda s: TrainConfig(lr=0.1, steps=1, seed=s),
    "init_hints": lambda s: init_hints(n=1, dim=2, seed=s),
    "init_classifier": lambda s: init_classifier(dim=2, hidden=1, seed=s),
    "init_attention": lambda s: init_attention(c=2, d=2, d_m=1, heads=1, seed=s),
    "generate_synthetic": lambda s: generate_synthetic(seed=s, pedestrians=1, backgrounds=1, dim=2),
}


@pytest.mark.parametrize("seed", [-1, np.int64(-1), True, 1.0, "1", None])
@pytest.mark.parametrize("site", SEEDED)
def test_seed_rule_rejects_what_is_not_a_nonnegative_integer(site, seed):
    with pytest.raises(PreconditionError, match="seed must be a nonnegative integer"):
        SEEDED[site](seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**64])
@pytest.mark.parametrize("site", SEEDED)
def test_seed_rule_accepts_nonnegative_integers(site, seed):
    SEEDED[site](seed)


# class -> a builder of an instance from fresh arrays, equal on every call
ARRAY_HOLDERS = {
    "FeatureBatch": lambda: FeatureBatch("query", np.ones((2, 1, 2))),
    "AttentionParams": lambda: AttentionParams(
        heads=1, d_model=1, **{name: arr.copy() for name, arr in PARAM_ARRAYS.items()}
    ),
    "AttentionTrace": lambda: AttentionTrace(np.full((1, 1, 1, 2), 0.5), np.ones((1, 1, 2)), np.ones((1, 1, 2))),
    "AttentionGrads": lambda: AttentionGrads(**{name: arr.copy() for name, arr in PARAM_ARRAYS.items()}),
    "KnowledgeBank": lambda: KnowledgeBank(f_q=np.eye(2), f_h=np.zeros((2, 2))),
    "EmbeddingDataset": lambda: EmbeddingDataset(ids=("a", "b"), labels=(PEDESTRIAN,) * 2, vectors=np.eye(2)),
    "HintSet": lambda: HintSet(np.eye(2)),
    "Codebook": lambda: Codebook(np.eye(2)),
    "ForwardCache": lambda: ForwardCache(index=0, x=np.ones(2), pre=np.ones(2), hid=np.ones(2), logit=0.5),
    "ClassifierGrads": lambda: ClassifierGrads(x=np.ones(2), b1=np.ones(2), w2=np.ones((1, 2)), b2=0.5, hint=np.ones(2)),
    "ClassifierParams": lambda: ClassifierParams(**CLASSIFIER),
}


@pytest.mark.parametrize("holder", ARRAY_HOLDERS)
def test_an_array_holder_compares_by_identity_and_hashes(holder):
    one, other = ARRAY_HOLDERS[holder](), ARRAY_HOLDERS[holder]()
    assert one == one
    assert one != other and not one == other  # equal arrays, another instance: no array truth value
    assert hash(one) == hash(one) and len({one, other}) == 2
