"""Learnable additive hints trained through binary pedestrian classification.

Each selected codeword is refined by adding a per-codeword hint vector; the
composed feature (codeword plus hint) feeds a two-layer rectifier head that
scores pedestrian versus background. Codewords stay frozen: gradients flow
only into the classifier and the hint row selected by the routing argmax.
Every training step draws one pedestrian and one background sample, sums
their two loss gradients, and applies a single SGD update.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingDataset
from .errors import DimensionError, NumericalError, PreconditionError, check_array, check_sizes
from .quantizer import Codebook, route


@dataclass(frozen=True)
class HintSet:
    """One additive hint row per codeword."""

    n: int
    dim: int
    hints: np.ndarray

    def __post_init__(self):
        check_sizes(n=self.n, dim=self.dim)
        object.__setattr__(self, "hints", check_array("hints", self.hints, (self.n, self.dim)))


@dataclass
class ClassifierParams:
    """Two-layer rectifier head: logit = w2 @ relu(w1 @ x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self):
        self.w1 = check_array("w1", self.w1, (None, None))
        if self.hidden < 1:
            raise DimensionError("w1 must have at least one hidden row")
        self.b1 = check_array("b1", self.b1, (self.hidden,))
        self.w2 = check_array("w2", self.w2, (1, self.hidden))
        self.b2 = float(check_array("b2", self.b2))

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def dim(self) -> int:
        return self.w1.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    steps: int
    seed: int = 0
    hidden: int = 128
    train_hints: bool = True

    def __post_init__(self):
        if not self.lr > 0:
            raise PreconditionError("lr must be positive")
        check_sizes(steps=self.steps, hidden=self.hidden)


@dataclass(frozen=True)
class StepRecord:
    """One training step: total loss plus the per-sample selections."""

    loss: float
    ped_index: int
    ped_loss: float
    bg_index: int
    bg_loss: float


@dataclass(frozen=True)
class ForwardCache:
    """Intermediates of one forward pass, consumed by ``backward``."""

    index: int
    x: np.ndarray
    pre: np.ndarray
    hid: np.ndarray
    logit: float


@dataclass(frozen=True)
class ClassifierGrads:
    """Loss gradients for the classifier and the selected hint row."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    hint: np.ndarray


def init_hints(n: int, dim: int, seed: int) -> HintSet:
    """Zero-mean Gaussian hints at scale 0.01, deterministic per seed."""
    check_sizes(n=n, dim=dim)
    rng = np.random.default_rng(seed)
    return HintSet(n=n, dim=dim, hints=rng.normal(0.0, 0.01, size=(n, dim)))


def init_classifier(dim: int, hidden: int, seed: int) -> ClassifierParams:
    """1/sqrt(fan-in) Gaussian weights, zero biases, deterministic per seed."""
    check_sizes(dim=dim, hidden=hidden)
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(hidden, dim))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(1, hidden))
    return ClassifierParams(w1=w1, b1=np.zeros(hidden), w2=w2, b2=0.0)


def forward_classify(index, codebook: Codebook, hints: HintSet, classifier: ClassifierParams):
    """Score the composed feature of codeword ``index``.

    Returns ``(logit, cache)``. A probe reaches the classifier only through
    its routing index (``quantize`` or ``route``), so callers route first and
    hint training cannot change which codeword a probe selects.
    """
    if (codebook.n, codebook.dim) != (hints.n, hints.dim):
        raise DimensionError("codebook and hints disagree on (n, dim)")
    if classifier.dim != codebook.dim:
        raise DimensionError(
            f"classifier input dimension {classifier.dim} != codebook dimension {codebook.dim}"
        )
    n = codebook.n
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or not 0 <= index < n:
        raise PreconditionError(f"codeword index must be an integer in [0, {n}), got {index!r}")
    index = int(index)
    x = codebook.centroids[index] + hints.hints[index]
    pre = classifier.w1 @ x + classifier.b1
    hid = np.maximum(pre, 0.0)
    logit = float(classifier.w2[0] @ hid + classifier.b2)
    return logit, ForwardCache(index=index, x=x, pre=pre, hid=hid, logit=logit)


def bce_loss(logit: float, label: int) -> float:
    """Sigmoid cross-entropy from the logit: softplus(logit) - label * logit.

    Evaluated as max(x, 0) - x * label + log1p(exp(-|x|)), which stays
    finite for any finite logit.
    """
    if label not in (0, 1):
        raise PreconditionError(f"label must be 0 or 1, got {label!r}")
    x = float(logit)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite logit {x!r}")
    return max(x, 0.0) - x * label + math.log1p(math.exp(-abs(x)))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def backward(cache: ForwardCache, classifier: ClassifierParams, label: int) -> ClassifierGrads:
    """Analytic loss gradients at the forward pass ``cache`` of ``classifier``.

    Covers the classifier parameters and the hint row selected during the
    forward pass; every other hint row receives exactly zero gradient and
    the codebook receives none.
    """
    if label not in (0, 1):
        raise PreconditionError(f"label must be 0 or 1, got {label!r}")
    d_logit = _sigmoid(cache.logit) - float(label)
    d_w2 = (d_logit * cache.hid)[None, :]
    d_hid = d_logit * classifier.w2[0]
    d_pre = np.where(cache.pre > 0.0, d_hid, 0.0)
    d_w1 = np.outer(d_pre, cache.x)
    d_hint = classifier.w1.T @ d_pre
    return ClassifierGrads(w1=d_w1, b1=d_pre, w2=d_w2, b2=d_logit, hint=d_hint)


def train_hints(
    pedestrians: EmbeddingDataset,
    backgrounds: EmbeddingDataset,
    codebook: Codebook,
    config: TrainConfig,
) -> tuple[HintSet, ClassifierParams, list[StepRecord]]:
    """SGD over paired pedestrian/background samples.

    Hints start from ``init_hints(n, dim, config.seed)``, the classifier
    from ``init_classifier(dim, config.hidden, config.seed + 1)``, and
    sample draws use seed ``config.seed + 2``. The frozen codebook routes
    every embedding once, up front. Each step forwards the route of one
    uniformly drawn embedding of each label, sums the two gradients, and
    applies one update to the classifier and, when ``config.train_hints`` is
    set, to the selected hint rows. With it unset the returned hints equal
    their initialization exactly.
    """
    if len(pedestrians) == 0 or len(backgrounds) == 0:
        raise PreconditionError("hint training requires records of both labels")
    for name, ds in (("pedestrian", pedestrians), ("background", backgrounds)):
        if ds.dim != codebook.dim:
            raise DimensionError(
                f"{name} dataset dimension {ds.dim} != codebook dimension {codebook.dim}"
            )
    hints = init_hints(codebook.n, codebook.dim, config.seed)
    clf = init_classifier(codebook.dim, config.hidden, config.seed + 1)
    rng = np.random.default_rng(config.seed + 2)
    ped_routes = route(pedestrians.vectors, codebook).tolist()
    bg_routes = route(backgrounds.vectors, codebook).tolist()

    history: list[StepRecord] = []
    lr = config.lr
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            ped = ped_routes[int(rng.integers(len(ped_routes)))]
            bg = bg_routes[int(rng.integers(len(bg_routes)))]
            losses: list[float] = []
            grads: list[ClassifierGrads] = []
            for index, label in ((ped, 1), (bg, 0)):
                logit, cache = forward_classify(index, codebook, hints, clf)
                if not math.isfinite(logit):
                    raise NumericalError(
                        f"non-finite logit at step {step} "
                        f"(label {label}, codeword {cache.index})"
                    )
                losses.append(bce_loss(logit, label))
                grads.append(backward(cache, clf, label))
            total = losses[0] + losses[1]
            if not math.isfinite(total):
                raise NumericalError(
                    f"non-finite loss at step {step} "
                    f"(pedestrian loss {losses[0]}, background loss {losses[1]})"
                )
            clf.w1 -= lr * (grads[0].w1 + grads[1].w1)
            clf.b1 -= lr * (grads[0].b1 + grads[1].b1)
            clf.w2 -= lr * (grads[0].w2 + grads[1].w2)
            clf.b2 = clf.b2 - lr * (grads[0].b2 + grads[1].b2)
            if config.train_hints:
                hints.hints[ped] -= lr * grads[0].hint
                hints.hints[bg] -= lr * grads[1].hint
            history.append(
                StepRecord(
                    loss=total,
                    ped_index=ped,
                    ped_loss=losses[0],
                    bg_index=bg,
                    bg_loss=losses[1],
                )
            )
    return hints, clf, history


def write_history(history: list[StepRecord], path) -> None:
    """Export the history as JSON lines, one line per sample.

    Each step contributes two lines (pedestrian first) with keys ``step``,
    ``loss``, ``selected``, and ``label``.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for step, rec in enumerate(history):
            for loss, index, label in (
                (rec.ped_loss, rec.ped_index, 1),
                (rec.bg_loss, rec.bg_index, 0),
            ):
                fh.write(
                    json.dumps({"step": step, "loss": loss, "selected": index, "label": label})
                )
                fh.write("\n")
