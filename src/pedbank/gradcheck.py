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


def classifier_check(seed: int, negate: str | None = None) -> dict[str, float]:
    """Max relative error per parameter group of the classifier backward.

    Checks both labels on one random instance; the hints group compares
    against the full hint matrix, which also verifies that unselected rows
    get exactly zero gradient. ``negate`` flips one analytic group's sign,
    a hook for proving the detector catches wrong gradients.
    """
    dim, n, hidden = CLF_DIM, CLF_N, CLF_HIDDEN
    rng = np.random.default_rng(seed)
    codebook = Codebook(n=n, dim=dim, centroids=rng.normal(size=(n, dim)))
    hints = HintSet(n=n, dim=dim, hints=rng.normal(scale=0.1, size=(n, dim)))
    clf = ClassifierParams(
        w1=rng.normal(scale=1.0 / np.sqrt(dim), size=(hidden, dim)),
        b1=rng.normal(scale=0.1, size=hidden),
        w2=rng.normal(scale=1.0 / np.sqrt(hidden), size=(1, hidden)),
        b2=float(rng.normal(scale=0.1)),
    )
    worst = {name: 0.0 for name in CLASSIFIER_GROUPS}
    for label in (1, 0):
        index = quantize(rng.normal(size=dim), codebook)
        _, cache = forward_classify(index, codebook, hints, clf)
        grads = backward(cache, clf, label)
        hint_grad = np.zeros((n, dim))
        hint_grad[index] = grads.hint
        analytic = {
            "w1": grads.w1,
            "b1": grads.b1,
            "w2": grads.w2,
            "b2": np.asarray(grads.b2),
            "hints": hint_grad,
        }

        def loss(clf2=clf, hints2=hints):
            logit, _ = forward_classify(index, codebook, hints2, clf2)
            return bce_loss(logit, label)

        numeric = {
            name: central_difference(
                lambda x, _name=name: loss(clf2=dataclasses.replace(clf, **{_name: x})),
                np.array(getattr(clf, name)),
            )
            for name in ("w1", "b1", "w2", "b2")
        }
        numeric["hints"] = central_difference(
            lambda x: loss(hints2=dataclasses.replace(hints, hints=x)), hints.hints.copy()
        )
        for name in CLASSIFIER_GROUPS:
            a = -analytic[name] if negate == name else analytic[name]
            worst[name] = max(worst[name], relative_error(a, numeric[name]))
    return worst


def attention_check(seed: int, negate: str | None = None) -> dict[str, float]:
    """Max relative error per parameter group of the attention backward."""
    m, h, w, c = ATTN_M, ATTN_H, ATTN_W, ATTN_C
    n, d, d_m, heads = ATTN_N, ATTN_D, ATTN_D_M, ATTN_HEADS
    rng = np.random.default_rng(seed)
    batch = FeatureBatch(mode=PROPOSAL, blocks=rng.normal(size=(m, h, w, c)))
    f_q = rng.normal(size=(n, d))
    f_h = rng.normal(scale=0.1, size=(n, d))
    bank = KnowledgeBank(n=n, dim=d, f_q=f_q, f_h=f_h, f_k=f_q + f_h, meta={})
    params = init_attention(c=c, d=d, d_m=d_m, heads=heads, seed=seed + 1)
    upstream = rng.normal(size=batch.blocks.shape)
    grads = attention_gradients(batch, bank, params, upstream)

    def value(params2: AttentionParams) -> float:
        out, _ = cross_attend(batch, bank, params2)
        return float(np.sum(upstream * out.blocks))

    results = {}
    for name in ATTENTION_GROUPS:
        def fn(x, _name=name):
            return value(dataclasses.replace(params, **{_name: x}))

        numeric = central_difference(fn, getattr(params, name).copy())
        analytic = getattr(grads, name)
        results[name] = relative_error(-analytic if negate == name else analytic, numeric)
    return results
