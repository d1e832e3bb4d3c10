"""Shared builders and references for the test suite."""

import math

import numpy as np

from pedbank.bank import KnowledgeBank
from pedbank.embeddings import BACKGROUND, PEDESTRIAN, EmbeddingDataset


def make_dataset(vectors, labels=None, prefix="r"):
    if labels is None:
        labels = [PEDESTRIAN] * len(vectors)
    return EmbeddingDataset(
        ids=tuple(f"{prefix}{i}" for i in range(len(vectors))),
        labels=tuple(labels),
        vectors=vectors if len(vectors) else np.empty((0, 0)),
    )


def random_bank(seed, n, dim, meta=None):
    rng = np.random.default_rng(seed)
    f_q = rng.normal(size=(n, dim))
    f_h = rng.normal(scale=0.1, size=(n, dim))
    return KnowledgeBank(n=n, dim=dim, f_q=f_q, f_h=f_h, f_k=f_q + f_h, meta=meta or {})


def einsum_attention(batch, bank, params, upstream):
    """Reference cross-attention written with one einsum per contraction,
    indexed by block, head, row and bank entry.

    Returns the output blocks, the ``(m, heads, hw, n)`` association, and
    the six gradients of ``sum(upstream * blocks)`` keyed by parameter name.
    """
    flat = batch.rows()  # (m, hw, c)
    m, hw, c = flat.shape
    scale = 1.0 / math.sqrt(params.d_model)
    k = np.einsum("ne,hed->hnd", bank.f_k, params.w_k)  # (heads, n, d_m)
    v = np.einsum("ne,hed->hnd", bank.f_k, params.w_v)
    q = np.einsum("mrc,hcd->mhrd", flat, params.w_q)  # (m, heads, hw, d_m)
    scores = np.einsum("mhrd,hnd->mhrn", q, k) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    assoc = e / e.sum(axis=-1, keepdims=True)
    heads_out = np.einsum("mhrn,hnd->mhrd", assoc, v)
    concat = heads_out.transpose(0, 2, 1, 3).reshape(m, hw, params.heads * params.d_model)
    pre = flat + concat @ params.w_o
    mean = pre.mean(axis=-1, keepdims=True)
    var = pre.var(axis=-1, keepdims=True)
    out = params.gain * (pre - mean) / np.sqrt(var + params.eps) + params.bias
    blocks = out.reshape(batch.blocks.shape)
    inv = 1.0 / np.sqrt(var + params.eps)
    xhat = (pre - mean) * inv

    du = np.asarray(upstream, dtype=np.float64).reshape(m, hw, c)
    dxhat = du * params.gain
    ds = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    d_heads = (ds @ params.w_o.T).reshape(m, hw, params.heads, params.d_model)
    d_heads = d_heads.transpose(0, 2, 1, 3)
    d_assoc = np.einsum("mhrd,hnd->mhrn", d_heads, v)
    d_v = np.einsum("mhrn,mhrd->hnd", assoc, d_heads)
    d_raw = assoc * (d_assoc - (d_assoc * assoc).sum(axis=-1, keepdims=True)) * scale
    d_q = np.einsum("mhrn,hnd->mhrd", d_raw, k)
    d_k = np.einsum("mhrn,mhrd->hnd", d_raw, q)
    grads = {
        "w_q": np.einsum("mrc,mhrd->hcd", flat, d_q),
        "w_k": np.einsum("ne,hnd->hed", bank.f_k, d_k),
        "w_v": np.einsum("ne,hnd->hed", bank.f_k, d_v),
        "w_o": concat.reshape(m * hw, -1).T @ ds.reshape(m * hw, c),
        "gain": (du * xhat).sum(axis=(0, 1)),
        "bias": du.sum(axis=(0, 1)),
    }
    return blocks, assoc, grads


__all__ = ["make_dataset", "random_bank", "einsum_attention", "PEDESTRIAN", "BACKGROUND"]
