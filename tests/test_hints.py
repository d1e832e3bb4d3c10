import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedbank.embeddings import (
    EmbeddingDataset,
    generate_synthetic,
    l2_normalize,
    split_by_label,
)
from pedbank.errors import DimensionError, NumericalError, PreconditionError
from pedbank.gradcheck import classifier_check
from pedbank.hints import (
    W1_BLOCK_STEPS,
    ClassifierParams,
    HintSet,
    TrainConfig,
    _backward,
    _forward,
    backward,
    bce_loss,
    forward_classify,
    init_classifier,
    init_hints,
    train_hints,
    write_history,
)
from pedbank.quantizer import Codebook, KMeansConfig, kmeans_with_objectives, quantize, route

from support import make_dataset

SEPARATION = 16.0
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e300, 1e-7]


def scalar_net(w1=1.0, b1=0.0, w2=1.0, b2=0.0):
    return ClassifierParams(
        w1=np.array([[w1]]), b1=np.array([b1]), w2=np.array([[w2]]), b2=b2
    )


class TestInit:
    def test_hints_deterministic(self):
        a = init_hints(5, 3, seed=9)
        b = init_hints(5, 3, seed=9)
        np.testing.assert_array_equal(a.hints, b.hints)

    def test_hints_scale(self):
        single = init_hints(1, 1, seed=0).hints[0, 0]
        assert abs(single) < 0.08
        big = init_hints(50, 512, seed=9).hints
        # sample mean of N(0, 0.01^2) over 25600 draws, three standard errors
        assert abs(float(big.mean())) <= 3 * 0.01 / math.sqrt(big.size)

    def test_classifier_shapes_and_zero_biases(self):
        clf = init_classifier(dim=16, hidden=128, seed=4)
        assert clf.w1.shape == (128, 16) and clf.w2.shape == (1, 128)
        np.testing.assert_array_equal(clf.b1, np.zeros(128))
        assert clf.b2 == 0.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(PreconditionError):
            init_hints(0, 4, seed=0)
        with pytest.raises(PreconditionError):
            init_classifier(4, 0, seed=0)

    @pytest.mark.parametrize("size", [0, True, 1.0, 2.5])
    def test_train_config_sizes_must_be_positive_integers(self, size):
        with pytest.raises(PreconditionError, match="positive integers"):
            TrainConfig(lr=0.1, steps=size)
        with pytest.raises(PreconditionError, match="positive integers"):
            TrainConfig(lr=0.1, steps=1, hidden=size)


class TestForward:
    def test_identity_network(self):
        cb = Codebook(np.array([[2.0]]))
        hs = HintSet(np.array([[0.0]]))
        logit, cache = forward_classify(quantize([1.0], cb), cb, hs, scalar_net())
        assert logit == 2.0 and cache.index == 0

    def test_zero_w2_gives_bias_logit(self):
        cb = Codebook(np.array([[2.0]]))
        hs = HintSet(np.array([[0.3]]))
        logit, _ = forward_classify(quantize([1.0], cb), cb, hs, scalar_net(w2=0.0, b2=-1.5))
        assert logit == -1.5

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(17)
        n, dim, hidden = 3, 8, 4
        cb = Codebook(rng.normal(size=(n, dim)))
        hs = HintSet(rng.normal(scale=0.1, size=(n, dim)))
        clf = init_classifier(dim, hidden, seed=17)
        p = rng.normal(size=dim)
        logit, cache = forward_classify(quantize(p, cb), cb, hs, clf)
        scores = [float(np.dot(cb.centroids[i], p)) for i in range(n)]
        index = int(np.argmax(scores))
        x = cb.centroids[index] + hs.hints[index]
        hid = [max(0.0, float(np.dot(clf.w1[r], x)) + float(clf.b1[r])) for r in range(hidden)]
        expect = sum(float(clf.w2[0, r]) * hid[r] for r in range(hidden)) + clf.b2
        assert cache.index == index
        assert math.isclose(logit, expect, rel_tol=1e-12, abs_tol=1e-12)

    def test_selection_ignores_hints(self):
        # routing uses the codewords only, so hint changes cannot move it
        cb = Codebook(np.array([[1.0, 0.0], [0.0, 1.0]]))
        clf = init_classifier(2, 4, seed=0)
        p = [0.9, 0.2]
        for scale in (0.0, 5.0):
            hs = HintSet(np.full((2, 2), scale))
            _, cache = forward_classify(quantize(p, cb), cb, hs, clf)
            assert cache.index == 0

    @pytest.mark.parametrize("index", [-1, 2, True, 1.0])
    def test_rejects_index_outside_the_codebook(self, index):
        # a negative index must not wrap around to the last codeword
        cb = Codebook(np.array([[1.0, 0.0], [0.0, 1.0]]))
        hs = HintSet(np.zeros((2, 2)))
        with pytest.raises(PreconditionError, match="index"):
            forward_classify(index, cb, hs, init_classifier(2, 4, seed=0))

    @pytest.mark.parametrize("hints, dim", [((2, 3), 2), ((2, 2), 3)], ids=["hints", "classifier"])
    def test_rejects_hints_or_classifier_of_another_size(self, hints, dim):
        cb = Codebook(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(DimensionError, match="hints disagree" if dim == 2 else "classifier input"):
            forward_classify(0, cb, HintSet(np.zeros(hints)), init_classifier(dim, 4, seed=0))


class TestBceLoss:
    def test_zero_logit_is_ln_two(self):
        assert bce_loss(0.0, 1) == math.log(2.0)
        assert bce_loss(0.0, 0) == math.log(2.0)

    def test_confident_correct_logit(self):
        expected = math.log1p(math.exp(-4.0))
        assert bce_loss(4.0, 1) == expected
        assert abs(expected - 0.0181499) < 1e-7

    def test_label_symmetry_exact(self):
        for x in (-17.5, -2.0, 0.25, 8.0, 40.0):
            assert bce_loss(x, 1) == bce_loss(-x, 0)

    @settings(deadline=None)
    @given(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.sampled_from([0, 1]),
    )
    def test_finite_and_nonnegative(self, logit, label):
        loss = bce_loss(logit, label)
        assert math.isfinite(loss) and loss >= 0.0

    def test_rejects_bad_label(self):
        with pytest.raises(PreconditionError):
            bce_loss(0.0, 2)

    @pytest.mark.parametrize("logit", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_logit(self, logit):
        with pytest.raises(NumericalError, match="non-finite logit"):
            bce_loss(logit, 1)


class TestBackward:
    def test_gradient_at_zero_logit(self):
        cb = Codebook(np.array([[1.0]]))
        hs = HintSet(np.array([[0.0]]))
        clf = scalar_net(w2=0.0)
        _, cache = forward_classify(quantize([1.0], cb), cb, hs, clf)
        assert backward(cache, clf, 1).b2 == -0.5
        assert backward(cache, clf, 0).b2 == 0.5

    def test_rejects_bad_label(self):
        cb, hs, clf = Codebook(np.array([[1.0]])), HintSet(np.array([[0.0]])), scalar_net()
        _, cache = forward_classify(0, cb, hs, clf)
        with pytest.raises(PreconditionError, match="label must be 0 or 1, got 2"):
            backward(cache, clf, 2)

    def test_zero_w2_blocks_upstream_grads(self):
        cb = Codebook(np.array([[1.0]]))
        hs = HintSet(np.array([[0.0]]))
        clf = scalar_net(w2=0.0)
        _, cache = forward_classify(quantize([1.0], cb), cb, hs, clf)
        grads = backward(cache, clf, 1)
        np.testing.assert_array_equal(grads.w1, np.zeros((1, 1)))
        np.testing.assert_array_equal(grads.hint, np.zeros(1))

    def test_dead_units_have_zero_grads(self):
        cb = Codebook(np.array([[1.0, 1.0]]))
        hs = HintSet(np.zeros((1, 2)))
        clf = ClassifierParams(
            w1=np.ones((3, 2)), b1=np.full(3, -1e3), w2=np.ones((1, 3)), b2=0.0
        )
        _, cache = forward_classify(quantize([1.0, 0.0], cb), cb, hs, clf)
        grads = backward(cache, clf, 1)
        np.testing.assert_array_equal(grads.w1, np.zeros((3, 2)))
        np.testing.assert_array_equal(grads.w2, np.zeros((1, 3)))
        np.testing.assert_array_equal(grads.hint, np.zeros(2))
        assert grads.b2 != 0.0

    def test_w1_gradient_is_the_outer_product_of_b1_and_x(self):
        rng = np.random.default_rng(23)
        n, dim, hidden = 3, 8, 16
        cb = Codebook(rng.normal(size=(n, dim)))
        hs = HintSet(rng.normal(scale=0.1, size=(n, dim)))
        clf = init_classifier(dim, hidden, seed=23)
        _, cache = forward_classify(quantize(rng.normal(size=dim), cb), cb, hs, clf)
        for label in (1, 0):
            grads = backward(cache, clf, label)
            np.testing.assert_array_equal(grads.w1, np.outer(grads.b1, cache.x))

    def test_matches_central_finite_differences(self):
        errors = classifier_check(seed=21)
        assert max(errors.values()) < 1e-6, errors


@pytest.fixture(scope="module")
def separable():
    train = generate_synthetic(
        seed=2, pedestrians=600, backgrounds=400, dim=16, separation=SEPARATION
    )
    peds, bgs = split_by_label(train)
    codebook = kmeans_with_objectives(peds, KMeansConfig(n=4, seed=2))[0]
    return peds, bgs, codebook


class TestTrain:
    def test_separable_training_reaches_accuracy(self, separable):
        peds, bgs, codebook = separable
        hint_set, clf, history = train_hints(
            peds, bgs, codebook, TrainConfig(lr=0.1, steps=2000, seed=2)
        )
        assert len(history["loss"]) == 2000
        tail = float(np.mean(history["loss"][-200:]))
        assert tail < 0.1
        held = generate_synthetic(
            seed=3, pedestrians=300, backgrounds=200, dim=16, separation=SEPARATION
        )
        correct = 0
        for label, vector in zip(held.labels, held.vectors):
            logit, _ = forward_classify(quantize(vector, codebook), codebook, hint_set, clf)
            predicted = 1 if logit > 0 else 0
            correct += int(predicted == (1 if label == "pedestrian" else 0))
        assert correct / len(held) >= 0.95

    def test_hints_off_returns_exact_initialization(self, separable):
        peds, bgs, codebook = separable
        config = TrainConfig(lr=0.1, steps=60, seed=2, train_hints=False)
        hint_set, _, history = train_hints(peds, bgs, codebook, config)
        np.testing.assert_array_equal(
            hint_set.hints, init_hints(codebook.n, codebook.dim, config.seed).hints
        )
        assert len(history["loss"]) == 60

    def test_only_selected_rows_move(self, separable):
        peds, bgs, codebook = separable
        config = TrainConfig(lr=0.1, steps=5, seed=11)
        before = init_hints(codebook.n, codebook.dim, config.seed).hints
        frozen = codebook.centroids.copy()
        hint_set, _, history = train_hints(peds, bgs, codebook, config)
        touched = set(history["ped_index"].tolist()) | set(history["bg_index"].tolist())
        for row in range(codebook.n):
            if row not in touched:
                np.testing.assert_array_equal(hint_set.hints[row], before[row])
        np.testing.assert_array_equal(codebook.centroids, frozen)

    def test_history_records_per_sample_losses(self, separable):
        peds, bgs, codebook = separable
        _, _, history = train_hints(peds, bgs, codebook, TrainConfig(lr=0.1, steps=1, seed=0))
        assert all(len(column) == 1 for column in history.values())
        loss, ped_loss, bg_loss = (history[k][0] for k in ("loss", "ped_loss", "bg_loss"))
        ped_index, bg_index = history["ped_index"][0], history["bg_index"][0]
        assert loss == ped_loss + bg_loss
        assert ped_loss >= 0.0 and bg_loss >= 0.0
        assert 0 <= ped_index < codebook.n and 0 <= bg_index < codebook.n

    def test_training_is_deterministic(self, separable):
        peds, bgs, codebook = separable
        config = TrainConfig(lr=0.1, steps=40, seed=7)
        h1, c1, hist1 = train_hints(peds, bgs, codebook, config)
        h2, c2, hist2 = train_hints(peds, bgs, codebook, config)
        np.testing.assert_array_equal(h1.hints, h2.hints)
        np.testing.assert_array_equal(c1.w1, c2.w1)
        assert c1.b2 == c2.b2
        assert hist1.keys() == hist2.keys()
        for name in hist1:
            np.testing.assert_array_equal(hist1[name], hist2[name])

    def test_rejects_missing_label(self, separable):
        peds, _, codebook = separable
        empty = make_dataset([])
        with pytest.raises(PreconditionError, match="both"):
            train_hints(peds, empty, codebook, TrainConfig(lr=0.1, steps=1))

    def test_rejects_dimension_mismatch(self, separable):
        peds, bgs, _ = separable
        other = Codebook(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(DimensionError):
            train_hints(peds, bgs, other, TrainConfig(lr=0.1, steps=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_step(self, separable):
        peds, bgs, codebook = separable
        with pytest.raises(
            NumericalError, match=r"^non-finite logit at step 1 \(label 1, codeword 2\)$"
        ):
            train_hints(peds, bgs, codebook, TrainConfig(lr=1e308, steps=50, seed=0))

    def test_a_non_finite_loss_aborts_with_step(self, separable, monkeypatch):
        peds, bgs, codebook = separable
        monkeypatch.setattr("pedbank.hints.bce_loss", lambda logit, label: math.inf if label else 0.5)
        with pytest.raises(
            NumericalError, match=r"^non-finite loss at step 0 \(pedestrian loss inf, background loss 0.5\)$"
        ):
            train_hints(peds, bgs, codebook, TrainConfig(lr=0.1, steps=3, seed=0))

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            TrainConfig(lr=0.0, steps=1)
        with pytest.raises(PreconditionError):
            TrainConfig(lr=0.1, steps=0)


# sha256 of the history file, the hint matrix and the classifier arrays
# (little-endian float64) of two seeded runs; training must stay bit-identical.
GOLDEN_TRAINING = {
    "separable": {
        "history": "7ada6a8b5cc9891cb420e053c2c552b992b52959a96da8ff8eabcdd1205cc6ae",
        "hints": "12ed4588ee304529e45e628930fe7ec5cfb404eed9e7ebf7b5c86cd188c8174e",
        "classifier": "12ff869acf1129a8fb41d448d1f2d7bf4a7c6391a5e53cb57e891da55ca56d8b",
    },
    "normalized": {
        "history": "12937062585614531a4b3c4a7f1720c6823f02d21613f695261fb894588c672a",
        "hints": "6002c438dc5a4f9b53d1720cf181053bb7e0b7b80e33656d4f356aebbc44d399",
        "classifier": "3f5fbb2eb43f049bc7db437cc1c1d3a235e3a80a38b4d9c54aeadb84efc188cd",
    },
}


def training_digests(peds, bgs, codebook, config, path):
    hint_set, clf, history = train_hints(peds, bgs, codebook, config)
    write_history(history, path)

    def sha(*arrays):
        data = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
        return hashlib.sha256(data).hexdigest()

    return {
        "history": hashlib.sha256(path.read_bytes()).hexdigest(),
        "hints": sha(hint_set.hints),
        "classifier": sha(clf.w1, clf.b1, clf.w2, clf.b2),
    }


def test_training_matches_golden_digests(separable, tmp_path):
    peds, bgs, codebook = separable
    config = TrainConfig(lr=0.1, steps=500, seed=2)
    assert training_digests(peds, bgs, codebook, config, tmp_path / "a.jsonl") == (
        GOLDEN_TRAINING["separable"]
    )
    raw = generate_synthetic(seed=5, pedestrians=300, backgrounds=200, dim=64, separation=8.0)
    normalized = EmbeddingDataset(
        ids=raw.ids, labels=raw.labels, vectors=[l2_normalize(vector) for vector in raw.vectors]
    )
    peds, bgs = split_by_label(normalized)
    codebook = kmeans_with_objectives(peds, KMeansConfig(n=8, seed=5))[0]
    config = TrainConfig(lr=0.1, steps=500, seed=5, hidden=32)
    assert training_digests(peds, bgs, codebook, config, tmp_path / "b.jsonl") == (
        GOLDEN_TRAINING["normalized"]
    )


def test_write_history_json_lines(tmp_path):
    train = generate_synthetic(seed=2, pedestrians=40, backgrounds=30, dim=8, separation=SEPARATION)
    peds, bgs = split_by_label(train)
    codebook = kmeans_with_objectives(peds, KMeansConfig(n=3, seed=2))[0]
    _, _, history = train_hints(peds, bgs, codebook, TrainConfig(lr=0.1, steps=3, seed=4))
    path = tmp_path / "history.jsonl"
    write_history(history, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 6
    for step in range(3):
        ped_line, bg_line = lines[2 * step], lines[2 * step + 1]
        assert ped_line == {
            "step": step,
            "loss": history["ped_loss"][step],
            "selected": history["ped_index"][step],
            "label": 1,
        }
        assert bg_line == {
            "step": step,
            "loss": history["bg_loss"][step],
            "selected": history["bg_index"][step],
            "label": 0,
        }


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**40),
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
            st.integers(0, 2**40),
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_write_history_bytes_equal_json_dumps_per_line(tmp_path_factory, rows):
    ped_index, ped_loss, bg_index, bg_loss = map(np.array, zip(*rows))
    history = {
        "loss": np.zeros(len(rows)),  # not written
        "ped_index": ped_index,
        "ped_loss": ped_loss,
        "bg_index": bg_index,
        "bg_loss": bg_loss,
    }
    path = tmp_path_factory.mktemp("history") / "history.jsonl"
    write_history(history, path)
    expected = "".join(
        json.dumps({"step": step, "loss": loss, "selected": index, "label": label}) + "\n"
        for step, (p_index, p_loss, b_index, b_loss) in enumerate(rows)
        for loss, index, label in ((p_loss, p_index, 1), (b_loss, b_index, 0))
    )
    assert path.read_bytes() == expected.encode("utf-8")


def reference_train(pedestrians, backgrounds, codebook, config):
    """``train_hints`` as it was before the rank-2 ``w1`` update.

    Same initializations, routing and sample draws; each sample is
    forwarded on its own, its dense ``w1`` gradient is formed with
    ``np.outer``, the two are summed, scaled and subtracted in every step.
    """
    hints = init_hints(codebook.n, codebook.dim, config.seed)
    clf = init_classifier(codebook.dim, config.hidden, config.seed + 1)
    rng = np.random.default_rng(config.seed + 2)
    ped_routes = route(pedestrians.vectors, codebook).tolist()
    bg_routes = route(backgrounds.vectors, codebook).tolist()
    rows = []
    lr = config.lr
    for _ in range(config.steps):
        ped = ped_routes[int(rng.integers(len(ped_routes)))]
        bg = bg_routes[int(rng.integers(len(bg_routes)))]
        losses, grads = [], []
        for index, label in ((ped, 1), (bg, 0)):
            logit, cache = forward_classify(index, codebook, hints, clf)
            losses.append(bce_loss(logit, label))
            grads.append(backward(cache, clf, label))
        g0, g1 = grads
        clf.w1 -= lr * (np.outer(g0.b1, g0.x) + np.outer(g1.b1, g1.x))
        clf.b1 -= lr * (g0.b1 + g1.b1)
        clf.w2 -= lr * (g0.w2 + g1.w2)
        clf.b2 = clf.b2 - lr * (g0.b2 + g1.b2)
        if config.train_hints:
            hints.hints[ped] -= lr * g0.hint
            hints.hints[bg] -= lr * g1.hint
        rows.append((losses[0] + losses[1], ped, losses[0], bg, losses[1]))
    columns = ("loss", "ped_index", "ped_loss", "bg_index", "bg_loss")
    return hints, clf, dict(zip(columns, map(np.array, zip(*rows))))


def normalized_fixture():
    """The ``normalized`` run of ``test_training_matches_golden_digests``."""
    raw = generate_synthetic(seed=5, pedestrians=300, backgrounds=200, dim=64, separation=8.0)
    normalized = EmbeddingDataset(
        ids=raw.ids, labels=raw.labels, vectors=[l2_normalize(vector) for vector in raw.vectors]
    )
    peds, bgs = split_by_label(normalized)
    codebook = kmeans_with_objectives(peds, KMeansConfig(n=8, seed=5))[0]
    return peds, bgs, codebook, TrainConfig(lr=0.1, steps=500, seed=5, hidden=32)


# (fixture, steps, train hints): 500 steps as in the golden runs, and step
# counts that leave a partial block of deferred w1 updates for the flush
# after the last step.
TRACKED_RUNS = {
    "separable": ("separable", 500, True),
    "normalized": ("normalized", 500, True),
    "separable-1-step": ("separable", 1, True),
    "normalized-block-minus-1": ("normalized", W1_BLOCK_STEPS - 1, True),
    "separable-block-plus-1": ("separable", W1_BLOCK_STEPS + 1, True),
    "normalized-2-blocks-plus-3": ("normalized", 2 * W1_BLOCK_STEPS + 3, True),
    "separable-hints-off": ("separable", 2 * W1_BLOCK_STEPS + 3, False),
}


@pytest.mark.parametrize("case", list(TRACKED_RUNS))
def test_rank_two_update_tracks_the_outer_product_reference(separable, case):
    fixture, steps, hints_on = TRACKED_RUNS[case]
    if fixture == "separable":
        peds, bgs, codebook = separable
        config = TrainConfig(lr=0.1, steps=500, seed=2)
    else:
        peds, bgs, codebook, config = normalized_fixture()
    config = dataclasses.replace(config, steps=steps, train_hints=hints_on)
    hint_set, clf, history = train_hints(peds, bgs, codebook, config)
    ref_hints, ref_clf, ref_history = reference_train(peds, bgs, codebook, config)
    for field in ("ped_index", "bg_index"):
        np.testing.assert_array_equal(history[field], ref_history[field])
    for field in ("loss", "ped_loss", "bg_loss"):
        assert len(history[field]) == steps
        np.testing.assert_allclose(history[field], ref_history[field], rtol=0, atol=1e-12)
    if hints_on:
        np.testing.assert_allclose(hint_set.hints, ref_hints.hints, rtol=0, atol=1e-12)
    else:
        np.testing.assert_array_equal(
            hint_set.hints, init_hints(codebook.n, codebook.dim, config.seed).hints
        )
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(getattr(clf, name), getattr(ref_clf, name), rtol=0, atol=1e-12)


def test_rank_two_product_equals_summed_outer_products(separable):
    peds, bgs, codebook = separable
    hints = init_hints(codebook.n, codebook.dim, seed=2)
    clf = init_classifier(codebook.dim, 128, seed=3)
    lr = 0.1
    grads = []
    for ds, label in ((peds, 1), (bgs, 0)):
        _, cache = forward_classify(int(route(ds.vectors[:1], codebook)[0]), codebook, hints, clf)
        grads.append(backward(cache, clf, label))
    g0, g1 = grads
    product = (lr * np.array([g0.b1, g1.b1]).T) @ np.array([g0.x, g1.x])
    dense = lr * (g0.w1 + g1.w1)
    assert np.count_nonzero(dense) > 0
    assert np.max(np.abs(product - dense)) <= 1e-15 * np.max(np.abs(dense))


@pytest.mark.parametrize("pending", [0, 6])
def test_two_rows_at_once_equal_two_single_rows(pending):
    # Training forwards and back-propagates its two samples as one k = 2
    # call; forward_classify and backward make k = 1 calls. Errors are
    # relative to the largest value of the pass: the logit is a sum with
    # cancellation, so it alone can hold a larger relative rounding error.
    rng = np.random.default_rng(29)
    dim, hidden = 64, 32
    clf = init_classifier(dim, hidden, seed=29)
    b1 = rng.normal(scale=0.1, size=hidden)
    x = rng.normal(size=(2, dim))
    factors = (rng.normal(scale=1e-2, size=(hidden, pending)), rng.normal(size=(pending, dim)))
    factors = factors if pending else ()
    labels = (1, 0)
    forward = _forward(x, clf.w1, b1, clf.w2, 0.3, *factors)
    grads = _backward(*forward[:2], forward[2].tolist(), labels, clf.w1, clf.w2, *factors)
    for row in range(2):
        forward1 = _forward(x[row:row + 1], clf.w1, b1, clf.w2, 0.3, *factors)
        grads1 = _backward(
            *forward1[:2], forward1[2].tolist(), labels[row:row + 1], clf.w1, clf.w2, *factors
        )
        for both, one in ((forward, forward1), (grads, grads1)):
            paired = np.concatenate([np.ravel(out[row]) for out in both])
            single = np.concatenate([np.ravel(out[0]) for out in one])
            assert np.max(np.abs(paired - single)) <= 1e-15 * np.max(np.abs(single))
