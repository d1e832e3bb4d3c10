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
    ClassifierParams,
    HintSet,
    TrainConfig,
    backward,
    bce_loss,
    forward_classify,
    init_classifier,
    init_hints,
    train_hints,
    write_history,
)
from pedbank.quantizer import Codebook, KMeansConfig, kmeans, quantize

from support import make_dataset

SEPARATION = 16.0


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

    @pytest.mark.parametrize("size", [0, True, 1.0])
    def test_hint_set_sizes_must_be_positive_integers(self, size):
        # hints of the matching shape, so only the size rule can reject
        with pytest.raises(PreconditionError, match="positive integers"):
            HintSet(n=size, dim=2, hints=np.zeros((int(size), 2)))
        with pytest.raises(PreconditionError, match="positive integers"):
            HintSet(n=1, dim=size, hints=np.zeros((1, int(size))))

    @pytest.mark.parametrize("size", [0, True, 1.0, 2.5])
    def test_train_config_sizes_must_be_positive_integers(self, size):
        with pytest.raises(PreconditionError, match="positive integers"):
            TrainConfig(lr=0.1, steps=size)
        with pytest.raises(PreconditionError, match="positive integers"):
            TrainConfig(lr=0.1, steps=1, hidden=size)


class TestForward:
    def test_identity_network(self):
        cb = Codebook(n=1, dim=1, centroids=np.array([[2.0]]))
        hs = HintSet(n=1, dim=1, hints=np.array([[0.0]]))
        logit, cache = forward_classify(quantize([1.0], cb), cb, hs, scalar_net())
        assert logit == 2.0 and cache.index == 0

    def test_zero_w2_gives_bias_logit(self):
        cb = Codebook(n=1, dim=1, centroids=np.array([[2.0]]))
        hs = HintSet(n=1, dim=1, hints=np.array([[0.3]]))
        logit, _ = forward_classify(quantize([1.0], cb), cb, hs, scalar_net(w2=0.0, b2=-1.5))
        assert logit == -1.5

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(17)
        n, dim, hidden = 3, 8, 4
        cb = Codebook(n=n, dim=dim, centroids=rng.normal(size=(n, dim)))
        hs = HintSet(n=n, dim=dim, hints=rng.normal(scale=0.1, size=(n, dim)))
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
        cb = Codebook(n=2, dim=2, centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))
        clf = init_classifier(2, 4, seed=0)
        p = [0.9, 0.2]
        for scale in (0.0, 5.0):
            hs = HintSet(n=2, dim=2, hints=np.full((2, 2), scale))
            _, cache = forward_classify(quantize(p, cb), cb, hs, clf)
            assert cache.index == 0

    @pytest.mark.parametrize("index", [-1, 2, True, 1.0])
    def test_rejects_index_outside_the_codebook(self, index):
        # a negative index must not wrap around to the last codeword
        cb = Codebook(n=2, dim=2, centroids=np.array([[1.0, 0.0], [0.0, 1.0]]))
        hs = HintSet(n=2, dim=2, hints=np.zeros((2, 2)))
        with pytest.raises(PreconditionError, match="index"):
            forward_classify(index, cb, hs, init_classifier(2, 4, seed=0))


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


class TestBackward:
    def test_gradient_at_zero_logit(self):
        cb = Codebook(n=1, dim=1, centroids=np.array([[1.0]]))
        hs = HintSet(n=1, dim=1, hints=np.array([[0.0]]))
        clf = scalar_net(w2=0.0)
        _, cache = forward_classify(quantize([1.0], cb), cb, hs, clf)
        assert backward(cache, clf, 1).b2 == -0.5
        assert backward(cache, clf, 0).b2 == 0.5

    def test_zero_w2_blocks_upstream_grads(self):
        cb = Codebook(n=1, dim=1, centroids=np.array([[1.0]]))
        hs = HintSet(n=1, dim=1, hints=np.array([[0.0]]))
        clf = scalar_net(w2=0.0)
        _, cache = forward_classify(quantize([1.0], cb), cb, hs, clf)
        grads = backward(cache, clf, 1)
        np.testing.assert_array_equal(grads.w1, np.zeros((1, 1)))
        np.testing.assert_array_equal(grads.hint, np.zeros(1))

    def test_dead_units_have_zero_grads(self):
        cb = Codebook(n=1, dim=2, centroids=np.array([[1.0, 1.0]]))
        hs = HintSet(n=1, dim=2, hints=np.zeros((1, 2)))
        clf = ClassifierParams(
            w1=np.ones((3, 2)), b1=np.full(3, -1e3), w2=np.ones((1, 3)), b2=0.0
        )
        _, cache = forward_classify(quantize([1.0, 0.0], cb), cb, hs, clf)
        grads = backward(cache, clf, 1)
        np.testing.assert_array_equal(grads.w1, np.zeros((3, 2)))
        np.testing.assert_array_equal(grads.w2, np.zeros((1, 3)))
        np.testing.assert_array_equal(grads.hint, np.zeros(2))
        assert grads.b2 != 0.0

    def test_matches_central_finite_differences(self):
        errors = classifier_check(seed=21)
        assert max(errors.values()) < 1e-6, errors


@pytest.fixture(scope="module")
def separable():
    train = generate_synthetic(
        seed=2, pedestrians=600, backgrounds=400, dim=16, separation=SEPARATION
    )
    peds, bgs = split_by_label(train)
    codebook = kmeans(peds, KMeansConfig(n=4, seed=2))
    return peds, bgs, codebook


class TestTrain:
    def test_separable_training_reaches_accuracy(self, separable):
        peds, bgs, codebook = separable
        hint_set, clf, history = train_hints(
            peds, bgs, codebook, TrainConfig(lr=0.1, steps=2000, seed=2)
        )
        assert len(history) == 2000
        tail = float(np.mean([rec.loss for rec in history[-200:]]))
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
        assert len(history) == 60

    def test_only_selected_rows_move(self, separable):
        peds, bgs, codebook = separable
        config = TrainConfig(lr=0.1, steps=5, seed=11)
        before = init_hints(codebook.n, codebook.dim, config.seed).hints
        frozen = codebook.centroids.copy()
        hint_set, _, history = train_hints(peds, bgs, codebook, config)
        touched = {rec.ped_index for rec in history} | {rec.bg_index for rec in history}
        for row in range(codebook.n):
            if row not in touched:
                np.testing.assert_array_equal(hint_set.hints[row], before[row])
        np.testing.assert_array_equal(codebook.centroids, frozen)

    def test_history_records_per_sample_losses(self, separable):
        peds, bgs, codebook = separable
        _, _, history = train_hints(peds, bgs, codebook, TrainConfig(lr=0.1, steps=1, seed=0))
        assert len(history) == 1
        rec = history[0]
        assert rec.loss == rec.ped_loss + rec.bg_loss
        assert rec.ped_loss >= 0.0 and rec.bg_loss >= 0.0
        assert 0 <= rec.ped_index < codebook.n and 0 <= rec.bg_index < codebook.n

    def test_training_is_deterministic(self, separable):
        peds, bgs, codebook = separable
        config = TrainConfig(lr=0.1, steps=40, seed=7)
        h1, c1, hist1 = train_hints(peds, bgs, codebook, config)
        h2, c2, hist2 = train_hints(peds, bgs, codebook, config)
        np.testing.assert_array_equal(h1.hints, h2.hints)
        np.testing.assert_array_equal(c1.w1, c2.w1)
        assert c1.b2 == c2.b2
        assert hist1 == hist2

    def test_rejects_missing_label(self, separable):
        peds, _, codebook = separable
        empty = make_dataset([])
        with pytest.raises(PreconditionError, match="both"):
            train_hints(peds, empty, codebook, TrainConfig(lr=0.1, steps=1))

    def test_rejects_dimension_mismatch(self, separable):
        peds, bgs, _ = separable
        other = Codebook(n=2, dim=3, centroids=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(DimensionError):
            train_hints(peds, bgs, other, TrainConfig(lr=0.1, steps=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_step(self, separable):
        peds, bgs, codebook = separable
        with pytest.raises(NumericalError, match="step"):
            train_hints(peds, bgs, codebook, TrainConfig(lr=1e308, steps=50, seed=0))

    def test_config_validation(self):
        with pytest.raises(PreconditionError):
            TrainConfig(lr=0.0, steps=1)
        with pytest.raises(PreconditionError):
            TrainConfig(lr=0.1, steps=0)


# sha256 of the history file, the hint matrix and the classifier arrays
# (little-endian float64) of two seeded runs; training must stay bit-identical.
GOLDEN_TRAINING = {
    "separable": {
        "history": "1ad039b36b2d2af60eea32e706390483830d92fd6e1c90aa7fad6e9feda6a933",
        "hints": "46403e712fa97777b40d6f173cc4ab38a6ad15a4dd0100cdcc859fbd9171e00e",
        "classifier": "7b0414c7a1f3767bd877e3e707c4490fe5ef69ccf512fb6808f2581885e080eb",
    },
    "normalized": {
        "history": "f5bd54e5c664c21dec8b9be9a42db450a0d541aff55cc27ae61bd1a946de57db",
        "hints": "bc7be6a05908a7998e7aa8374d9b935f710be6b49e8b7d8c2ab89fc2f2eda7c6",
        "classifier": "cc9b0c82a91de23065b01fea601c9c60687d9f30c0c386d760a3ed0bd8b2e96c",
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
    codebook = kmeans(peds, KMeansConfig(n=8, seed=5))
    config = TrainConfig(lr=0.1, steps=500, seed=5, hidden=32)
    assert training_digests(peds, bgs, codebook, config, tmp_path / "b.jsonl") == (
        GOLDEN_TRAINING["normalized"]
    )


def test_write_history_json_lines(tmp_path):
    train = generate_synthetic(seed=2, pedestrians=40, backgrounds=30, dim=8, separation=SEPARATION)
    peds, bgs = split_by_label(train)
    codebook = kmeans(peds, KMeansConfig(n=3, seed=2))
    _, _, history = train_hints(peds, bgs, codebook, TrainConfig(lr=0.1, steps=3, seed=4))
    path = tmp_path / "history.jsonl"
    write_history(history, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 6
    for step, rec in enumerate(history):
        ped_line, bg_line = lines[2 * step], lines[2 * step + 1]
        assert ped_line == {"step": step, "loss": rec.ped_loss, "selected": rec.ped_index, "label": 1}
        assert bg_line == {"step": step, "loss": rec.bg_loss, "selected": rec.bg_index, "label": 0}
