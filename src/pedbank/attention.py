"""Multi-head cross-attention that complements features with bank knowledge.

Per block and head, queries come from the flattened block and keys/values
from the composed bank features ``f_k``; a row-softmax association over the
bank aggregates values, head outputs are concatenated through one shared
output projection, and the result is added back onto the block and
layer-normalized over channels. Parameter gradients are derived by hand and
verified against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .bank import KnowledgeBank
from .errors import (
    DimensionError,
    NumericalError,
    ParseError,
    PreconditionError,
    check_array,
    check_sizes,
)

PROPOSAL = "proposal"
QUERY = "query"
MODES = (PROPOSAL, QUERY)

ATTENTION_PARAMS_VERSION = 1
_PARAM_ARRAYS = ("w_q", "w_k", "w_v", "w_o", "gain", "bias")


@dataclass(frozen=True)
class FeatureBatch:
    """A batch of feature blocks: ``(m, h, w, c)`` arrays in proposal mode,
    ``(m, 1, c)`` in query mode."""

    mode: str
    blocks: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise PreconditionError(f"mode must be one of {MODES}, got {self.mode!r}")
        shape = (None,) * 4 if self.mode == PROPOSAL else (None, 1, None)
        arr = check_array(f"{self.mode} blocks", self.blocks, shape)
        object.__setattr__(self, "blocks", arr)
        if min(arr.shape) < 1:
            raise DimensionError(f"all block sizes must be positive, got shape {arr.shape}")

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def h(self) -> int:
        return self.blocks.shape[1] if self.mode == PROPOSAL else 1

    @property
    def w(self) -> int:
        return self.blocks.shape[2] if self.mode == PROPOSAL else 1

    @property
    def c(self) -> int:
        return self.blocks.shape[-1]

    def rows(self) -> np.ndarray:
        """Row-major view of every block as ``(m, h*w, c)``."""
        return self.blocks.reshape(self.m, self.h * self.w, self.c)


def param_shapes(heads: int, d_model: int, c: int, d: int) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter array for ``c`` channels and bank dimension ``d``."""
    return {
        "w_q": (heads, c, d_model), "w_k": (heads, d, d_model), "w_v": (heads, d, d_model),
        "w_o": (heads * d_model, c), "gain": (c,), "bias": (c,),
    }


@dataclass(frozen=True)
class AttentionParams:
    """Per-head projections, the shared output projection, and the
    layer-norm affine."""

    heads: int
    d_model: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        check_sizes(heads=self.heads, d_model=self.d_model)
        if not self.eps > 0:
            raise PreconditionError("eps must be positive")
        for name in ("w_q", "w_k"):  # c and d are read off these two
            shape = (self.heads, None, self.d_model)
            object.__setattr__(self, name, check_array(name, getattr(self, name), shape))
        for name, shape in param_shapes(self.heads, self.d_model, self.c, self.d).items():
            object.__setattr__(self, name, check_array(name, getattr(self, name), shape))

    @property
    def c(self) -> int:
        return self.w_q.shape[1]

    @property
    def d(self) -> int:
        return self.w_k.shape[1]


@dataclass(frozen=True)
class AttentionTrace:
    """Per-head association matrices, the pre-norm sums, and the output rows."""

    assoc: np.ndarray
    pre_norm: np.ndarray
    output: np.ndarray

    def __post_init__(self):
        sums = self.assoc.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            raise NumericalError("association rows must sum to 1")


@dataclass(frozen=True)
class AttentionGrads:
    """Gradients of a scalar objective for every attention parameter."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    gain: np.ndarray
    bias: np.ndarray


def init_attention(
    c: int, d: int, d_m: int = 64, heads: int = 8, seed: int = 0, eps: float = 1e-5
) -> AttentionParams:
    """Seeded 1/sqrt(fan-in) projections with an identity layer-norm affine."""
    check_sizes(c=c, d=d, d_m=d_m, heads=heads)
    rng = np.random.default_rng(seed)
    w_q = rng.normal(0.0, 1.0 / np.sqrt(c), size=(heads, c, d_m))
    w_k = rng.normal(0.0, 1.0 / np.sqrt(d), size=(heads, d, d_m))
    w_v = rng.normal(0.0, 1.0 / np.sqrt(d), size=(heads, d, d_m))
    w_o = rng.normal(0.0, 1.0 / np.sqrt(heads * d_m), size=(heads * d_m, c))
    return AttentionParams(
        heads=heads, d_model=d_m, w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o,
        gain=np.ones(c), bias=np.zeros(c), eps=eps,
    )


def layer_norm(rows, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """Standardize each row over the channel axis, then apply the affine map.

    Uses the biased variance; ``eps`` keeps constant rows finite, and with
    ``eps == 0`` a constant row raises ``NumericalError``.
    """
    x = np.asarray(rows, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.shape[-1] < 2:
        raise PreconditionError("layer norm needs at least 2 channels")
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise DimensionError("gain and bias must match the channel count")
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    if eps == 0 and np.any(var == 0):
        raise NumericalError("layer norm: a row has zero variance and eps is 0")
    out = x - mean
    out *= gain
    out /= np.sqrt(var + eps)
    out += bias
    return out


def _check_compatible(batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams):
    if params.c != batch.c:
        raise DimensionError(
            f"attention expects {params.c} channels, batch has {batch.c}"
        )
    if params.d != bank.dim:
        raise DimensionError(
            f"attention expects bank dimension {params.d}, bank has {bank.dim}"
        )


def _forward_parts(batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams) -> dict:
    _check_compatible(batch, bank, params)
    x = batch.blocks.reshape(-1, batch.c)  # (M, c): every row of every block
    scale = 1.0 / math.sqrt(params.d_model)
    k = bank.f_k @ params.w_k  # (heads, n, d_m)
    v = bank.f_k @ params.w_v
    w_q = params.w_q.transpose(1, 0, 2).reshape(batch.c, -1)  # heads side by side
    q = (x @ w_q).reshape(len(x), params.heads, -1).transpose(1, 0, 2)  # (heads, M, d_m)
    assoc = q @ k.transpose(0, 2, 1)  # scores (heads, M, n), made the association in place
    assoc *= scale
    if not np.all(np.isfinite(assoc)):
        raise NumericalError("non-finite attention scores")
    assoc -= assoc.max(axis=-1, keepdims=True)  # row softmax over the bank entries
    np.exp(assoc, out=assoc)
    assoc /= assoc.sum(axis=-1, keepdims=True)
    concat = (assoc @ v).transpose(1, 0, 2).reshape(len(x), -1)  # (M, heads*d_m)
    pre = x + concat @ params.w_o
    if not np.all(np.isfinite(pre)):
        raise NumericalError("non-finite pre-normalization features")
    return {
        "x": x, "scale": scale, "k": k, "v": v, "q": q,
        "assoc": assoc, "concat": concat, "pre": pre,
    }


def cross_attend(
    batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams
) -> tuple[FeatureBatch, AttentionTrace]:
    """Complement every block with bank knowledge.

    Output blocks keep the input shape; proposal blocks of size 1x1 go
    through exactly the same arithmetic as query blocks. Returns the
    complemented batch plus a trace holding the per-head association
    matrices, the pre-norm sums, and the output rows.
    """
    parts = _forward_parts(batch, bank, params)
    pre = parts["pre"].reshape(batch.m, -1, batch.c)
    out_rows = layer_norm(pre, params.gain, params.bias, params.eps)
    out = FeatureBatch(mode=batch.mode, blocks=out_rows.reshape(batch.blocks.shape))
    assoc = parts["assoc"].reshape(params.heads, batch.m, -1, bank.n).transpose(1, 0, 2, 3)
    trace = AttentionTrace(assoc=assoc, pre_norm=pre, output=out_rows)
    return out, trace


def attention_gradients(
    batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams, upstream
) -> AttentionGrads:
    """Gradients of ``sum(upstream * cross_attend(...).blocks)``.

    ``upstream`` must match the block array shape and be finite. Gradients
    cover every projection matrix and the layer-norm affine; they are exact
    and are checked against central finite differences in the test suite.
    """
    up = check_array("upstream", upstream, batch.blocks.shape)
    parts = _forward_parts(batch, bank, params)
    x, pre, assoc = parts["x"], parts["pre"], parts["assoc"]

    du = up.reshape(pre.shape)
    inv = 1.0 / np.sqrt(pre.var(axis=-1, keepdims=True) + params.eps)
    xhat = pre - pre.mean(axis=-1, keepdims=True)
    xhat *= inv
    d_bias = du.sum(axis=0)
    d_gain = (du * xhat).sum(axis=0)
    dxhat = du * params.gain
    ds = dxhat - dxhat.mean(axis=-1, keepdims=True)
    ds -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    ds *= inv
    # residual: ds is the cotangent of f_o (the input branch needs no gradient)
    d_wo = parts["concat"].T @ ds
    d_heads = (ds @ params.w_o.T).reshape(len(x), params.heads, -1).transpose(1, 0, 2)
    d_v = assoc.transpose(0, 2, 1) @ d_heads
    # softmax and scale backward, in place on d_assoc to spare two (heads, M, n) arrays
    d_assoc = d_heads @ parts["v"].transpose(0, 2, 1)
    d_assoc -= (d_assoc * assoc).sum(axis=-1, keepdims=True)
    d_assoc *= assoc
    d_assoc *= parts["scale"]
    d_q = d_assoc @ parts["k"]
    d_k = d_assoc.transpose(0, 2, 1) @ parts["q"]
    d_wq = x.T @ d_q
    d_wk = bank.f_k.T @ d_k
    d_wv = bank.f_k.T @ d_v
    return AttentionGrads(w_q=d_wq, w_k=d_wk, w_v=d_wv, w_o=d_wo, gain=d_gain, bias=d_bias)


def load_feature_batch(path) -> FeatureBatch:
    """Parse a feature batch file: mode, m, h, w, c, and flat row-major data."""
    doc = jsonio.read_document(path, ("mode", "m", "h", "w", "c", "data"))
    mode = doc["mode"]
    if mode not in MODES:
        raise ParseError(f"{path}: mode must be one of {MODES}, got {mode!r}")
    m, h, w, c = (jsonio.read_size(doc, key, path) for key in ("m", "h", "w", "c"))
    if mode == QUERY and (h != 1 or w != 1):
        raise ParseError(f"{path}: query batches require h == w == 1")
    data = jsonio.read_array(doc, "data", path, (m * h * w * c,))
    shape = (m, h, w, c) if mode == PROPOSAL else (m, 1, c)
    return FeatureBatch(mode=mode, blocks=data.reshape(shape))


def save_feature_batch(batch: FeatureBatch, path) -> None:
    """Write a feature batch with round-trip exact floats; bytes are
    deterministic for a given batch."""
    jsonio.write_documents(path, [{
        "mode": batch.mode, "m": batch.m, "h": batch.h, "w": batch.w, "c": batch.c,
        "data": batch.blocks.ravel().tolist(),
    }])


def save_attention_params(params: AttentionParams, path) -> None:
    """Serialize attention parameters with round-trip exact floats."""
    jsonio.write_documents(path, [{
        "version": ATTENTION_PARAMS_VERSION, "heads": params.heads, "d_model": params.d_model,
        "c": params.c, "d": params.d, "eps": params.eps,
        **{name: getattr(params, name).tolist() for name in _PARAM_ARRAYS},
    }])


def load_attention_params(path) -> AttentionParams:
    """Parse an attention parameter file written by ``save_attention_params``.

    The declared ``heads``, ``d_model``, ``c`` and ``d`` must match the arrays.
    """
    sizes = ("heads", "d_model", "c", "d")
    doc = jsonio.read_document(path, ("version", "eps") + sizes + _PARAM_ARRAYS)
    jsonio.read_version(doc, path, ATTENTION_PARAMS_VERSION, "params")
    heads, d_model, c, d = (jsonio.read_size(doc, key, path) for key in sizes)
    arrays = {
        key: jsonio.read_array(doc, key, path, shape)
        for key, shape in param_shapes(heads, d_model, c, d).items()
    }
    eps = float(jsonio.read_array(doc, "eps", path, ()))
    return AttentionParams(heads=heads, d_model=d_model, eps=eps, **arrays)
