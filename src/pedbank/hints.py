"""Learnable additive hints trained through binary pedestrian classification.

Each selected codeword is refined by adding a per-codeword hint vector; the
composed feature (codeword plus hint) feeds a two-layer rectifier head that
scores pedestrian versus background. Codewords stay frozen: gradients flow
only into the classifier and the hint row selected by the routing argmax.
Every training step draws one pedestrian and one background sample, runs
both through the classifier as the two rows of one forward and backward
pass, sums their two loss gradients, and applies a single SGD update whose
rank-two ``w1`` part is deferred (see ``train_hints``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .embeddings import EmbeddingDataset
from .errors import (
    DimensionError, NumericalError, PreconditionError, check_array, check_seed, check_sizes,
)
from .quantizer import Codebook, route


# Training steps whose rank-two ``w1`` updates are held as factors and
# applied as one product. 2000 steps on 1000 x 512 normalized embeddings
# (n = 50, hidden = 128), medians of 21 runs on a 2-vCPU VM: 341 ms at 1,
# 267 at 4, 260 at 16, 298 at 64; larger blocks lengthen the correction
# products that every step computes.
W1_BLOCK_STEPS = 16

HISTORY_COLUMNS = ("loss", "ped_index", "ped_loss", "bg_index", "bg_loss")


@dataclass(frozen=True, eq=False)
class HintSet:
    """One additive hint row per codeword, ``(n, dim)``."""

    hints: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hints", check_array("hints", self.hints, (None, None)))


@dataclass(eq=False)
class ClassifierParams:
    """Two-layer rectifier head: logit = w2 @ relu(w1 @ x + b1) + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float

    def __post_init__(self):
        self.w1 = check_array("w1", self.w1, (None, None))
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
        object.__setattr__(self, "lr", float(check_array("lr", self.lr)))
        if not self.lr > 0:
            raise PreconditionError("lr must be positive")
        check_sizes(steps=self.steps, hidden=self.hidden)
        check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """Intermediates of one forward pass, consumed by ``backward``."""

    index: int
    x: np.ndarray
    pre: np.ndarray
    hid: np.ndarray
    logit: float


@dataclass(frozen=True, eq=False)
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
    check_seed(seed)
    rng = np.random.default_rng(seed)
    return HintSet(rng.normal(0.0, 0.01, size=(n, dim)))


def init_classifier(dim: int, hidden: int, seed: int) -> ClassifierParams:
    """1/sqrt(fan-in) Gaussian weights, zero biases, deterministic per seed."""
    check_sizes(dim=dim, hidden=hidden)
    check_seed(seed)
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
    if codebook.centroids.shape != hints.hints.shape:
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
    pre, hid, logits = _forward(
        x[None], classifier.w1, classifier.b1, classifier.w2, classifier.b2
    )
    logit = float(logits[0])
    return logit, ForwardCache(index=index, x=x, pre=pre[0], hid=hid[0], logit=logit)


def _forward(x, w1, b1, w2, b2, u=None, v=None):
    """``(pre, hid, logits)`` of the classifier at the k input rows ``x``
    ``(k, dim)``; shared by ``forward_classify`` (k = 1) and the training
    loop (k = 2). The weights are ``w1 - u @ v`` when ``u`` and ``v`` hold
    pending updates, which are never formed as a dense matrix here."""
    pre = x @ w1.T
    if u is not None:
        pre -= (x @ v.T) @ u.T
    pre += b1
    hid = np.maximum(pre, 0.0)
    return pre, hid, hid @ w2[0] + b2


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
    d_pre, d_w2, d_logits, d_hint = _backward(
        cache.pre[None], cache.hid[None], (cache.logit,), (label,), classifier.w1, classifier.w2
    )
    return ClassifierGrads(x=cache.x, b1=d_pre[0], w2=d_w2, b2=float(d_logits[0]), hint=d_hint[0])


def _backward(pre, hid, logits, labels, w1, w2, u=None, v=None):
    """``(d_pre, d_w2, d_logits, d_hints)`` of a forward pass at k rows, one
    row per sample; shared by ``backward`` and the training loop. ``u`` and
    ``v`` are the pending ``w1`` updates of ``_forward``."""
    d_logits = np.array([_sigmoid(logit) - label for logit, label in zip(logits, labels)])
    d_w2 = d_logits[:, None] * hid
    d_pre = np.where(pre > 0.0, d_logits[:, None] * w2, 0.0)
    d_hints = d_pre @ w1
    if u is not None:
        d_hints -= (d_pre @ u) @ v
    return d_pre, d_w2, d_logits, d_hints


def train_hints(
    pedestrians: EmbeddingDataset,
    backgrounds: EmbeddingDataset,
    codebook: Codebook,
    config: TrainConfig,
) -> tuple[HintSet, ClassifierParams, dict[str, np.ndarray]]:
    """SGD over paired pedestrian/background samples.

    Hints start from ``init_hints(n, dim, config.seed)``, the classifier
    from ``init_classifier(dim, config.hidden, config.seed + 1)``, and
    sample draws use seed ``config.seed + 2``. The frozen codebook routes
    every embedding once, up front. Each step forwards the routes of one
    uniformly drawn embedding of each label together, as two rows, sums the
    two gradients, and applies one update to the classifier and, when
    ``config.train_hints`` is set, to the selected hint rows, pedestrian
    first. With it unset the returned hints equal their initialization
    exactly.

    The rank-two ``w1`` update of a step is not applied at once: the updates
    of up to ``W1_BLOCK_STEPS`` steps are kept as factors ``u (hidden, 2K)``
    and ``v (2K, dim)``, the forward and the hint gradient read ``w1 - u @ v``
    through them, and ``w1 -= u @ v`` is applied once per block and after
    the last step. A step therefore reads ``w1`` once in each direction and
    does not rewrite it. The hint matrix and the classifier arrays are
    updated as locals, through the arithmetic of ``forward_classify`` and
    ``backward``, and wrapped once at return.

    The history holds one array per column, one entry per step: ``loss``
    (the sum of the two sample losses), ``ped_index``, ``ped_loss``,
    ``bg_index`` and ``bg_loss``.
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

    u = np.empty((config.hidden, 2 * W1_BLOCK_STEPS))
    v = np.empty((2 * W1_BLOCK_STEPS, codebook.dim))
    labels = (1, 0)  # pedestrian row first
    rows = []
    lr = config.lr
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            ped = ped_routes[int(rng.integers(len(ped_routes)))]
            bg = bg_routes[int(rng.integers(len(bg_routes)))]
            pending = 2 * (step % W1_BLOCK_STEPS)
            x = v[pending:pending + 2]
            np.add(centroids.take((ped, bg), axis=0), h.take((ped, bg), axis=0), out=x)
            factors = (u[:, :pending], v[:pending])
            pre, hid, logits = _forward(x, w1, b1, w2, b2, *factors)
            logits = logits.tolist()
            for index, label, logit in zip((ped, bg), labels, logits):
                if not math.isfinite(logit):
                    raise NumericalError(
                        f"non-finite logit at step {step} (label {label}, codeword {index})"
                    )
            ped_loss, bg_loss = bce_loss(logits[0], 1), bce_loss(logits[1], 0)
            total = ped_loss + bg_loss
            if not math.isfinite(total):
                raise NumericalError(
                    f"non-finite loss at step {step} "
                    f"(pedestrian loss {ped_loss}, background loss {bg_loss})"
                )
            d_pre, d_w2, d_logits, d_hints = _backward(pre, hid, logits, labels, w1, w2, *factors)
            u[:, pending:pending + 2] = lr * d_pre.T
            if pending + 2 == u.shape[1]:
                w1 -= u @ v
            b1 -= lr * (d_pre[0] + d_pre[1])
            w2 -= lr * (d_w2[0] + d_w2[1])
            b2 = b2 - lr * float(d_logits[0] + d_logits[1])
            if config.train_hints:
                h[ped] -= lr * d_hints[0]
                h[bg] -= lr * d_hints[1]
            rows.append((total, ped, ped_loss, bg, bg_loss))
        pending = 2 * (config.steps % W1_BLOCK_STEPS)
        if pending:
            w1 -= u[:, :pending] @ v[:pending]
    history = dict(zip(HISTORY_COLUMNS, map(np.array, zip(*rows))))
    return HintSet(h), ClassifierParams(w1=w1, b1=b1, w2=w2, b2=b2), history


def write_history(history: dict[str, np.ndarray], path) -> None:
    """Export the history of ``train_hints`` as JSON lines, one line per sample.

    Each step contributes two lines (pedestrian first) with keys ``step``,
    ``loss``, ``selected``, and ``label``; the text is what ``json.dumps``
    writes for each line's dict, floats as ``float.__repr__``.
    """
    columns = (history[name].tolist() for name in HISTORY_COLUMNS[1:])
    with jsonio.replacing(path) as fh:
        fh.writelines(
            f'{{"step": {step}, "loss": {ped_loss!r}, "selected": {ped}, "label": 1}}\n'
            f'{{"step": {step}, "loss": {bg_loss!r}, "selected": {bg}, "label": 0}}\n'
            for step, (ped, ped_loss, bg, bg_loss) in enumerate(zip(*columns))
        )
