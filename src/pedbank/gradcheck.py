"""Central-difference verification of the hand-written backward passes.

The per-coordinate relative error is |analytic - numeric| divided by
max(1, |analytic|, |numeric|); a parameter group's score is the maximum
over its coordinates. Everything runs in double precision with a default
step of 1e-5 against a 1e-6 tolerance.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .attention import (
    PROPOSAL,
    AttentionParams,
    FeatureBatch,
    attention_gradients,
    cross_attend,
    init_attention,
)
from .bank import KnowledgeBank
from .errors import PreconditionError
from .hints import ClassifierParams, HintSet, backward, bce_loss, forward_classify
from .quantizer import Codebook, quantize

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-6

CLASSIFIER_GROUPS = ("w1", "b1", "w2", "b2", "hints")
ATTENTION_GROUPS = ("w_q", "w_k", "w_v", "w_o", "gain", "bias")

# sizes of the one seeded instance each check runs on
CLF_DIM, CLF_N, CLF_HIDDEN = 8, 4, 6
ATTN_M, ATTN_H, ATTN_W, ATTN_C = 1, 2, 2, 8
ATTN_N, ATTN_D, ATTN_D_M, ATTN_HEADS = 4, 8, 4, 2


def relative_error(analytic, numeric) -> float:
    """Worst per-coordinate relative error between two gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise PreconditionError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def central_difference(fn, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Two-sided difference of scalar ``fn`` at ``x``, coordinate by coordinate.

    ``x`` is perturbed in place and restored; ``fn`` must read the current
    array contents on every call.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        f_plus = fn(x)
        x[idx] = orig - step
        f_minus = fn(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def _group_errors(objective, holder, analytic: dict) -> dict[str, float]:
    """Relative error of each ``analytic`` gradient, keyed by a field of
    ``holder``, against the central difference of ``objective`` with that
    field replaced (``dataclasses.replace``) on every evaluation."""
    return {
        name: relative_error(grad, central_difference(
            lambda x: objective(dataclasses.replace(holder, **{name: x})),
            np.array(getattr(holder, name)),
        ))
        for name, grad in analytic.items()
    }


def classifier_check(seed: int) -> dict[str, float]:
    """Max relative error per parameter group of the classifier backward.

    Checks both labels on one random instance; the hints group compares
    against the full hint matrix, which also verifies that unselected rows
    get exactly zero gradient.
    """
    dim, n, hidden = CLF_DIM, CLF_N, CLF_HIDDEN
    rng = np.random.default_rng(seed)
    codebook = Codebook(rng.normal(size=(n, dim)))
    hints = HintSet(rng.normal(scale=0.1, size=(n, dim)))
    clf = ClassifierParams(
        w1=rng.normal(scale=1.0 / np.sqrt(dim), size=(hidden, dim)),
        b1=rng.normal(scale=0.1, size=hidden),
        w2=rng.normal(scale=1.0 / np.sqrt(hidden), size=(1, hidden)),
        b2=float(rng.normal(scale=0.1)),
    )
    errors = []  # one dict per label
    for label in (1, 0):
        index = quantize(rng.normal(size=dim), codebook)
        _, cache = forward_classify(index, codebook, hints, clf)
        grads = backward(cache, clf, label)
        hint_grad = np.zeros((n, dim))
        hint_grad[index] = grads.hint

        def loss(clf2=clf, hints2=hints):
            return bce_loss(forward_classify(index, codebook, hints2, clf2)[0], label)

        analytic = {name: getattr(grads, name) for name in ("w1", "b1", "w2", "b2")}
        errors.append(_group_errors(loss, clf, analytic)
                      | _group_errors(lambda hints2: loss(hints2=hints2), hints, {"hints": hint_grad}))
    return {name: max(e[name] for e in errors) for name in CLASSIFIER_GROUPS}


def attention_check(seed: int) -> dict[str, float]:
    """Max relative error per parameter group of the attention backward."""
    m, h, w, c = ATTN_M, ATTN_H, ATTN_W, ATTN_C
    n, d, d_m, heads = ATTN_N, ATTN_D, ATTN_D_M, ATTN_HEADS
    rng = np.random.default_rng(seed)
    batch = FeatureBatch(mode=PROPOSAL, blocks=rng.normal(size=(m, h, w, c)))
    bank = KnowledgeBank(rng.normal(size=(n, d)), rng.normal(scale=0.1, size=(n, d)))
    params = init_attention(c=c, d=d, d_m=d_m, heads=heads, seed=seed + 1)
    upstream = rng.normal(size=batch.blocks.shape)
    grads = attention_gradients(batch, bank, params, upstream)

    def value(params2: AttentionParams) -> float:
        out, _ = cross_attend(batch, bank, params2)
        return float(np.sum(upstream * out.blocks))

    return _group_errors(value, params, {name: getattr(grads, name) for name in ATTENTION_GROUPS})
