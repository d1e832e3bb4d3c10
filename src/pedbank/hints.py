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
    """Loss gradients for the classifier and the selected hint row.

    The ``w1`` gradient has rank one, ``outer(b1, x)``: ``b1`` is the
    gradient at the hidden pre-activations (zero on dead rows) and ``x`` the
    composed input of the forward pass. It is kept in that factored form;
    the ``w1`` property builds the dense matrix on demand.
    """

    x: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    hint: np.ndarray

    @property
    def w1(self) -> np.ndarray:
        return np.outer(self.b1, self.x)


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
    pre, hid, logit = _forward(x, classifier.w1, classifier.b1, classifier.w2, classifier.b2)
    return logit, ForwardCache(index=index, x=x, pre=pre, hid=hid, logit=logit)


def _forward(x, w1, b1, w2, b2):
    """``(pre, hid, logit)`` of the classifier at input ``x``; shared by
    ``forward_classify`` and the training loop."""
    pre = w1 @ x + b1
    hid = np.maximum(pre, 0.0)
    return pre, hid, float(w2[0] @ hid + b2)


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
    the codebook receives none. The ``w1`` gradient stays factored as
    ``(b1, x)`` and is not formed here.
    """
    if label not in (0, 1):
        raise PreconditionError(f"label must be 0 or 1, got {label!r}")
    d_pre, d_w2, d_logit, d_hint = _backward(
        cache.pre, cache.hid, cache.logit, classifier.w1, classifier.w2, label
    )
    return ClassifierGrads(x=cache.x, b1=d_pre, w2=d_w2, b2=d_logit, hint=d_hint)


def _backward(pre, hid, logit, w1, w2, label):
    """``(d_pre, d_w2, d_logit, d_hint)`` of one forward pass; shared by
    ``backward`` and the training loop."""
    d_logit = _sigmoid(logit) - float(label)
    d_w2 = (d_logit * hid)[None, :]
    d_hid = d_logit * w2[0]
    d_pre = np.where(pre > 0.0, d_hid, 0.0)
    return d_pre, d_w2, d_logit, w1.T @ d_pre


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
    their initialization exactly. The two rank-one ``w1`` gradients are
    applied together as one ``(hidden, 2) @ (2, dim)`` product, so no step
    forms a dense ``w1`` gradient. The hint matrix and the classifier arrays
    are updated as locals, through the arithmetic of ``forward_classify``
    and ``backward``, and wrapped once at return.
    """
    if len(pedestrians) == 0 or len(backgrounds) == 0:
        raise PreconditionError("hint training requires records of both labels")
    for name, ds in (("pedestrian", pedestrians), ("background", backgrounds)):
        if ds.dim != codebook.dim:
            raise DimensionError(
                f"{name} dataset dimension {ds.dim} != codebook dimension {codebook.dim}"
            )
    h = init_hints(codebook.n, codebook.dim, config.seed).hints
    clf = init_classifier(codebook.dim, config.hidden, config.seed + 1)
    w1, b1, w2, b2 = clf.w1, clf.b1, clf.w2, clf.b2
    centroids = codebook.centroids
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
            grads = []
            for index, label in ((ped, 1), (bg, 0)):
                x = centroids[index] + h[index]
                pre, hid, logit = _forward(x, w1, b1, w2, b2)
                if not math.isfinite(logit):
                    raise NumericalError(
                        f"non-finite logit at step {step} (label {label}, codeword {index})"
                    )
                losses.append(bce_loss(logit, label))
                grads.append((x, *_backward(pre, hid, logit, w1, w2, label)))
            total = losses[0] + losses[1]
            if not math.isfinite(total):
                raise NumericalError(
                    f"non-finite loss at step {step} "
                    f"(pedestrian loss {losses[0]}, background loss {losses[1]})"
                )
            xs, d_pre, d_w2, d_logit, d_hint = zip(*grads)  # (pedestrian, background)
            w1 -= (lr * np.array(d_pre).T) @ np.array(xs)
            b1 -= lr * (d_pre[0] + d_pre[1])
            w2 -= lr * (d_w2[0] + d_w2[1])
            b2 = b2 - lr * (d_logit[0] + d_logit[1])
            if config.train_hints:
                h[ped] -= lr * d_hint[0]
                h[bg] -= lr * d_hint[1]
            history.append(
                StepRecord(
                    loss=total,
                    ped_index=ped,
                    ped_loss=losses[0],
                    bg_index=bg,
                    bg_loss=losses[1],
                )
            )
    hint_set = HintSet(n=codebook.n, dim=codebook.dim, hints=h)
    return hint_set, ClassifierParams(w1=w1, b1=b1, w2=w2, b2=b2), history


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
