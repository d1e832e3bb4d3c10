"""Multi-head cross-attention that complements features with bank knowledge.

Per block and head, queries come from the flattened block and keys/values
from the composed bank features ``f_k``; a row-softmax association over the
bank aggregates values, head outputs are concatenated through one shared
output projection, and the result is added back onto the block and
layer-normalized over channels. The bank is frozen, so its keys and values
are folded into the query and output weights once per (bank, params) pair.
Parameter gradients are derived by hand and verified against central finite
differences.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .bank import KnowledgeBank
from .errors import (
    DimensionError,
    NumericalError,
    ParseError,
    PreconditionError,
    check_array,
    check_seed,
    check_sizes,
    owned_readonly,
)

PROPOSAL = "proposal"
QUERY = "query"
MODES = (PROPOSAL, QUERY)

ATTENTION_PARAMS_VERSION = 1
_PARAM_ARRAYS = ("w_q", "w_k", "w_v", "w_o", "gain", "bias")
# The longest inner dimension summed in one BLAS call, by the value product over the bank
# entries and by the row blocks of attention and of its gradient sums; longer ones are cut
# into nearly equal blocks added in a fixed order. On OpenBLAS 0.3.31 on two CPUs (SkylakeX
# kernels) the value product over 400 entries in one call changed output and gradient bits
# with the thread count; row blocks of up to 512 kept them, and keep 256 so no bit moves.
INNER_MAX = 256


@dataclass(frozen=True, eq=False)
class FeatureBatch:
    """A batch of feature blocks: ``(m, h, w, c)`` arrays in proposal mode,
    ``(m, 1, c)`` in query mode, kept owned and read-only (``errors.owned_readonly``)."""

    mode: str
    blocks: np.ndarray
    # (f_k, weakref(params), weakref(trace)) of its last cross_attend, one tuple (_saved_blocks)
    _forward: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise PreconditionError(f"mode must be one of {MODES}, got {self.mode!r}")
        shape = (None,) * 4 if self.mode == PROPOSAL else (None, 1, None)
        blocks = check_array(f"{self.mode} blocks", self.blocks, shape)
        object.__setattr__(self, "blocks", owned_readonly(blocks))

    def __reduce__(self):  # a weak reference does not pickle; a copy keeps no record
        return type(self), (self.mode, self.blocks)

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def h(self) -> int:
        return self.blocks.shape[1]

    @property
    def w(self) -> int:
        return self.blocks.shape[-2]

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


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Per-head projections, the shared output projection, and the
    layer-norm affine, each kept as an owned read-only float64 array
    (``errors.owned_readonly``)."""

    heads: int
    d_model: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    eps: float = 1e-5
    # ``(f_k, (k, v, a, b))``: the fold of the last bank these params attended
    # over (``_project``), read and replaced as one tuple. ``f_k`` is the
    # fold's only bank input and each bank computes its own, so holding it
    # keeps no bank alive, lets no other bank's array match and, unlike a
    # weak reference, lets the params pickle.
    _fold: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_sizes(heads=self.heads, d_model=self.d_model)
        object.__setattr__(self, "eps", float(check_array("eps", self.eps)))
        if not self.eps > 0:
            raise PreconditionError("eps must be positive")
        shapes = param_shapes(self.heads, self.d_model, None, None)
        for name in _PARAM_ARRAYS:  # each checked once, w_q and w_k first
            if name == "w_v":  # c and d are read off w_q and w_k from here on
                shapes = param_shapes(self.heads, self.d_model, self.c, self.d)
            arr = check_array(name, getattr(self, name), shapes[name])
            object.__setattr__(self, name, owned_readonly(arr))

    def __reduce__(self):  # a copy is checked and owned again, and folds afresh
        arrays = (getattr(self, name) for name in _PARAM_ARRAYS)
        return type(self), (self.heads, self.d_model, *arrays, self.eps)

    @property
    def c(self) -> int:
        return self.w_q.shape[1]

    @property
    def d(self) -> int:
        return self.w_k.shape[1]


@dataclass(frozen=True, eq=False)
class AttentionTrace:
    """Per-head association matrices, the pre-norm sums, and the output rows."""

    assoc: np.ndarray
    pre_norm: np.ndarray
    output: np.ndarray

    def __post_init__(self):
        if not np.abs(self.assoc.sum(axis=-1) - 1.0).max(initial=0.0) <= 1e-6:  # NaN fails too
            raise NumericalError("association rows must sum to 1")


@dataclass(frozen=True, eq=False)
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
    check_seed(seed)
    rng = np.random.default_rng(seed)
    w_q = rng.normal(0.0, 1.0 / np.sqrt(c), size=(heads, c, d_m))
    w_k = rng.normal(0.0, 1.0 / np.sqrt(d), size=(heads, d, d_m))
    w_v = rng.normal(0.0, 1.0 / np.sqrt(d), size=(heads, d, d_m))
    w_o = rng.normal(0.0, 1.0 / np.sqrt(heads * d_m), size=(heads * d_m, c))
    arrays = {"w_q": w_q, "w_k": w_k, "w_v": w_v, "w_o": w_o,
              "gain": np.ones(c), "bias": np.zeros(c)}
    for arr in arrays.values():
        arr.flags.writeable = False  # handed over, so the params keep them without a copy
    return AttentionParams(heads=heads, d_model=d_m, eps=eps, **arrays)


def layer_norm(rows, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """Standardize each row over the channel axis, then apply the affine map.

    Uses the biased variance; ``eps`` keeps constant rows finite, and with
    ``eps == 0`` a constant row raises ``NumericalError``. ``eps`` follows
    the array rule: a finite int or float, not a bool.
    """
    x = np.asarray(rows, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.shape[-1] < 2:
        raise PreconditionError("layer norm needs at least 2 channels")
    if type(eps) is not float or not math.isfinite(eps):  # a finite float already passes
        eps = float(check_array("eps", eps))
    if eps < 0:
        raise PreconditionError("eps must be nonnegative")
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise DimensionError("gain and bias must match the channel count")
    return _layer_norm(x, gain, bias, eps)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float, out=None) -> np.ndarray:
    """``layer_norm`` unchecked, of float64 rows, with ``AttentionParams``' affine; into ``out`` if given."""
    mean = x.sum(axis=-1, keepdims=True) / x.shape[-1]  # the bits of x.mean
    out = x - mean if out is None else np.subtract(x, mean, out=out)  # "-" beats out=None per call
    var = (out * out).sum(axis=-1, keepdims=True) / x.shape[-1]  # the bits of x.var
    if eps == 0 and np.any(var == 0):
        raise NumericalError("layer norm: a row has zero variance and eps is 0")
    out *= gain
    out /= np.sqrt(var + eps)
    out += bias
    return out


def _project(bank: KnowledgeBank, params: AttentionParams):
    """The bank keys ``k`` and values ``v``, each ``(heads, n, d_m)``, folded
    into the score weights ``a = scale * w_q[h] @ k[h].T`` laid out as
    ``(c, heads*n)`` and the value-output weights ``b = v[h] @ w_o[h]`` laid
    out as ``(heads*n, c)``, computed once per (bank, params)."""
    fold = params._fold
    if fold is not None and fold[0] is bank.f_k:
        return fold[1]
    k = bank.f_k @ params.w_k
    v = bank.f_k @ params.w_v
    a = params.w_q @ k.transpose(0, 2, 1)  # (heads, c, n)
    a *= 1.0 / math.sqrt(params.d_model)
    a = a.transpose(1, 0, 2).reshape(params.c, -1)
    b = (v @ params.w_o.reshape(params.heads, params.d_model, -1)).reshape(-1, params.c)
    projection = (k, v, a, b)
    for arr in projection:
        arr.flags.writeable = False
    object.__setattr__(params, "_fold", (bank.f_k, projection))
    return projection


def _row_blocks(batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams, assoc=None, pre=None):
    """``(rows, x, assoc, pre)`` for each slice ``rows`` of ``_inner_blocks(M)``,
    in order: the rows ``x`` of the batch, their association ``(len, heads*n)``
    and pre-norm sums ``(len, c)``, into ``assoc[rows]`` and ``pre[rows]`` if
    given. The value product sums over the ``heads*n`` bank entries in blocks
    of at most ``INNER_MAX``, added in order, so its bits do not depend on the
    BLAS thread count. Non-finite scores raise at once, non-finite sums after
    the last block, with no block yielded from the first that has them."""
    c = batch.blocks.shape[-1]
    if params.c != c:
        raise DimensionError(f"attention expects {params.c} channels, batch has {c}")
    if params.d != bank.dim:
        raise DimensionError(f"attention expects bank dimension {params.d}, bank has {bank.dim}")
    x = batch.blocks.reshape(-1, c)
    _, _, a, b = _project(bank, params)
    first, *rest = _inner_blocks(len(b))
    failed = False
    for rows in _inner_blocks(len(x)):
        x_rows = x[rows]
        scores = x_rows @ a if assoc is None else np.matmul(x_rows, a, out=assoc[rows])
        if not np.isfinite(scores).all():
            raise NumericalError("non-finite attention scores")
        if failed:  # only a score error still takes precedence
            continue
        per_head = scores.reshape(len(scores), params.heads, -1)  # row softmax over the bank
        per_head -= per_head.max(axis=-1, keepdims=True)
        np.exp(per_head, out=per_head)
        per_head /= per_head.sum(axis=-1, keepdims=True)
        sums = (scores[:, first] @ b[first] if pre is None
                else np.matmul(scores[:, first], b[first], out=pre[rows]))
        for block in rest:
            sums += scores[:, block] @ b[block]
        sums += x_rows
        failed = not np.isfinite(sums).all()
        if not failed:
            yield rows, x_rows, scores, sums
    if failed:
        raise NumericalError("non-finite pre-normalization features")


def _saved_blocks(batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams):
    """``_row_blocks(batch, bank, params)``, read from their last ``cross_attend``'s trace while it lives."""
    trace = (f := batch._forward) and f[0] is bank.f_k and f[1]() is params and f[2]()
    if not trace:
        return _row_blocks(batch, bank, params)
    x, pre = batch.blocks.reshape(-1, params.c), trace.pre_norm.reshape(-1, params.c)
    assoc = trace.assoc.transpose(0, 2, 1, 3).reshape(len(x), -1)
    return ((rows, x[rows], assoc[rows], pre[rows]) for rows in _inner_blocks(len(x)))


@functools.cache
def _inner_blocks(length: int) -> tuple[slice, ...]:
    """``range(length)`` in ``ceil(length / INNER_MAX)`` consecutive, nearly equal blocks."""
    parts = -(-length // INNER_MAX)
    return tuple(slice(length * i // parts, length * (i + 1) // parts) for i in range(parts))


def cross_attend(
    batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams
) -> tuple[FeatureBatch, AttentionTrace]:
    """Complement every block with bank knowledge.

    Output blocks keep the input shape; proposal blocks of size 1x1 go
    through exactly the same arithmetic as query blocks. Its checks are the
    batch's array rule and a ``NumericalError`` naming the first step with a
    non-finite value in any row: score, pre-norm sum, output. Returns the
    complemented batch and a trace of the per-head association matrices, the
    pre-norm sums and the output rows, each row block (``_row_blocks``) written
    into them, built without their constructors' checks, which cannot fail here.
    All are read-only; the batch records the trace weakly (``FeatureBatch``).
    """
    m, c = batch.blocks.shape[0], batch.blocks.shape[-1]
    rows = batch.blocks.size // c
    assoc = pre = out_rows = None  # one block's own arrays become the trace's
    if rows > INNER_MAX:  # more than one row block
        assoc, pre, out_rows = (np.empty((rows, k)) for k in (params.heads * bank.n, c, c))
    failed = False
    for block, _, scores, sums in _row_blocks(batch, bank, params, assoc, pre):
        normed = _layer_norm(sums, params.gain, params.bias, params.eps,
                             None if out_rows is None else out_rows[block])
        failed = failed or not np.isfinite(normed).all()  # a row sum can overflow on finite features
    if c < 2:  # the one check of layer_norm's that AttentionParams does not make
        raise PreconditionError("layer norm needs at least 2 channels")
    if failed:
        raise NumericalError("non-finite layer-norm output")
    if out_rows is None:
        assoc, pre, out_rows = scores, sums, normed
    for arr in (assoc, pre, out_rows):  # before the views below, so none of them can be made writable
        arr.setflags(write=False)
    out_rows.shape = batch.blocks.shape  # in place, so the output batch owns its blocks
    out, trace = object.__new__(FeatureBatch), object.__new__(AttentionTrace)
    vars(out).update(mode=batch.mode, blocks=out_rows)
    assoc = assoc.reshape(m, -1, params.heads, bank.n).transpose(0, 2, 1, 3)
    vars(trace).update(assoc=assoc, pre_norm=pre.reshape(m, -1, c),  # softmax rows sum to 1
                       output=out_rows.reshape(m, -1, c))
    object.__setattr__(batch, "_forward", (bank.f_k, weakref.ref(params), weakref.ref(trace)))
    return out, trace


def attention_gradients(
    batch: FeatureBatch, bank: KnowledgeBank, params: AttentionParams, upstream
) -> AttentionGrads:
    """Gradients of ``sum(upstream * cross_attend(...).blocks)``.

    ``upstream`` must match the block array shape and be finite. Gradients
    cover every projection matrix and the layer-norm affine; they are exact
    and are checked against central finite differences in the test suite.

    It works one row block at a time, with each block's associations and
    pre-norm sums read from the trace of the last ``cross_attend`` over the
    batch while that trace lives and came from this bank and params, else
    recomputed (``_row_blocks``) to the same bits. Sums over rows are added in
    block order, so working memory is a few arrays of one block's rows (10 MiB
    at the paper's sizes) and the bits do not depend on the BLAS thread count.
    """
    up = check_array("upstream", upstream, batch.blocks.shape)
    heads, n, c = params.heads, bank.n, batch.blocks.shape[-1]
    up, totals = up.reshape(-1, c), None  # may view the caller's upstream, so it is only read
    for block, x, assoc, pre in _saved_blocks(batch, bank, params):
        du = up[block]
        xhat = pre - pre.sum(axis=-1, keepdims=True) / c  # a new array: pre may be the trace's
        rows = xhat * xhat  # the one scratch array of the four row products
        inv = 1.0 / np.sqrt(rows.sum(axis=-1, keepdims=True) / c + params.eps)
        xhat *= inv
        d_bias = du.sum(axis=0)
        d_gain = np.multiply(du, xhat, out=rows).sum(axis=0)
        ds = du * params.gain  # dxhat, made ds in place once both its row sums are taken
        proj = np.multiply(ds, xhat, out=rows).sum(axis=-1, keepdims=True) / c
        ds -= ds.sum(axis=-1, keepdims=True) / c
        ds -= np.multiply(xhat, proj, out=rows)
        ds *= inv
        del rows
        # residual: ds is the cotangent of assoc @ b (the input branch needs no gradient)
        d_b = assoc.T @ ds  # (heads*n, c)
        d_assoc = ds @ _project(bank, params)[3].T
        del ds
        # softmax backward per head, in place on d_assoc
        per_head = d_assoc.reshape(len(x), heads, n)
        per_head -= (per_head * assoc.reshape(per_head.shape)).sum(axis=-1, keepdims=True)
        d_assoc *= assoc
        parts = (d_b, x.T @ d_assoc, d_gain, d_bias)  # the first block's own arrays start the totals
        totals = parts if totals is None else [np.add(t, p, out=t) for t, p in zip(totals, parts)]
    d_b, d_a, d_gain, d_bias = totals
    k, v, _, _ = _project(bank, params)
    d_b = d_b.reshape(heads, n, -1)  # (heads, n, c)
    d_a = d_a.reshape(-1, heads, n).transpose(1, 0, 2)  # (heads, c, n)
    d_a *= 1.0 / math.sqrt(params.d_model)
    d_wo = (v.transpose(0, 2, 1) @ d_b).reshape(params.w_o.shape)
    d_v = d_b @ params.w_o.reshape(heads, params.d_model, -1).transpose(0, 2, 1)
    d_wq = d_a @ k
    d_k = d_a.transpose(0, 2, 1) @ params.w_q
    d_wk = bank.f_k.T @ d_k
    d_wv = bank.f_k.T @ d_v
    return AttentionGrads(w_q=d_wq, w_k=d_wk, w_v=d_wv, w_o=d_wo, gain=d_gain, bias=d_bias)


def load_feature_batch(path) -> FeatureBatch:
    """Parse a feature batch file: mode, m, h, w, c, and flat row-major data."""
    doc = jsonio.read_document(path, ("mode", "m", "h", "w", "c", "data"), flat="data")
    mode = doc["mode"]
    if mode not in MODES:
        raise ParseError(f"{path}: mode must be one of {MODES}, got {mode!r}")
    m, h, w, c = (jsonio.read_size(doc, key, path) for key in ("m", "h", "w", "c"))
    if mode == QUERY and (h != 1 or w != 1):
        raise ParseError(f"{path}: query batches require h == w == 1")
    data = jsonio.read_array(doc, "data", path, (m * h * w * c,))
    data.shape = (m, h, w, c) if mode == PROPOSAL else (m, 1, c)  # in place, so it stays owned
    data.flags.writeable = False  # handed over, so the batch keeps it without a copy
    return FeatureBatch(mode=mode, blocks=data)


def save_feature_batch(batch: FeatureBatch, path) -> None:
    """Write a feature batch with round-trip exact floats; bytes are
    deterministic for a given batch."""
    jsonio.write_documents(path, [{
        "mode": batch.mode, "m": batch.m, "h": batch.h, "w": batch.w, "c": batch.c,
        "data": batch.blocks.ravel(),
    }])


def save_attention_params(params: AttentionParams, path) -> None:
    """Serialize attention parameters with round-trip exact floats."""
    jsonio.write_documents(path, [{
        "version": ATTENTION_PARAMS_VERSION, "heads": params.heads, "d_model": params.d_model,
        "c": params.c, "d": params.d, "eps": params.eps,
        **{name: getattr(params, name) for name in _PARAM_ARRAYS},
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
    for arr in arrays.values():
        arr.flags.writeable = False  # handed over, so the params keep them without a copy
    eps = float(jsonio.read_array(doc, "eps", path, ()))
    return AttentionParams(heads=heads, d_model=d_model, eps=eps, **arrays)
