"""Shared builders and references for the test suite."""

import ctypes
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest

from pedbank import attention, gradcheck, jsonio
from pedbank.bank import KnowledgeBank
from pedbank.embeddings import PEDESTRIAN, EmbeddingDataset
from pedbank.errors import PedbankError


def make_dataset(vectors, labels=None, prefix="r"):
    if labels is None:
        labels = [PEDESTRIAN] * len(vectors)
    return EmbeddingDataset(
        ids=tuple(f"{prefix}{i}" for i in range(len(vectors))),
        labels=tuple(labels),
        vectors=vectors if len(vectors) else np.empty((0, 0)),
    )


def pool_every_array(monkeypatch):
    """Send every array of more than one chunk to two forked workers, and
    have the readers cut every file at each line break, and flat arrays at
    the first comma after every fifth character, between two forked workers."""
    monkeypatch.setattr(jsonio, "POOL_MIN_VALUES", 1)
    monkeypatch.setattr(jsonio, "CHUNK_VALUES", 5)
    monkeypatch.setattr(jsonio, "TEXT_BYTES_PER_VALUE", 1)
    monkeypatch.setattr(jsonio, "_cpus", lambda: 2)


def negated_gradients(group):
    """``(name, function)``: the backward pass of ``pedbank.gradcheck`` that
    computes ``group`` and a stand-in that gives that group alone the wrong
    sign, to be set with ``setattr(gradcheck, name, function)``.
    ``ClassifierGrads.w1`` is ``outer(b1, x)``, so ``w1`` is negated through
    ``x``, and ``b1`` together with ``x``, which leaves ``w1`` as it was."""
    fields = {"w1": ("x",), "b1": ("b1", "x"), "hints": ("hint",)}.get(group, (group,))
    name = "backward" if group in gradcheck.CLASSIFIER_GROUPS else "attention_gradients"
    gradients = getattr(gradcheck, name)

    def negated(*args):
        grads = gradients(*args)
        return dataclasses.replace(grads, **{f: -getattr(grads, f) for f in fields})

    return name, negated


def outcome(read, path):
    """What ``read(path)`` gives: the fields of its result, arrays as their
    shape and bytes, or the type and message of the error it raises."""
    try:
        result = read(path)
    except PedbankError as exc:
        return type(exc), str(exc)
    return [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in vars(result).values()]


def read_both_ways(read, path):
    """``outcome`` of ``read(path)`` in this process, and split over two workers."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonio, "_cpus", lambda: 1)
        in_process = outcome(read, path)
    with pytest.MonkeyPatch.context() as mp:
        pool_every_array(mp)
        pooled = outcome(read, path)
    return in_process, pooled


def random_bank(seed, n, dim, meta=None):
    rng = np.random.default_rng(seed)
    f_q = rng.normal(size=(n, dim))
    f_h = rng.normal(scale=0.1, size=(n, dim))
    return KnowledgeBank(f_q=f_q, f_h=f_h, meta=meta or {})


def hard_doubles(rng, size=20_000) -> np.ndarray:
    """Finite doubles, both signs, on which a shortest round-trip formatter
    is easy to get wrong, and ``size`` random bit patterns each from the
    whole range and from [1e-4, 1e16), where ``repr`` writes no exponent."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-14, 54)), [float(f"1e{k}") for k in range(-5, 18)]])
    cases = [
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),  # the halved gap below a 2**k
        [9999999999999998.0, 1e-4 * (1 + 2**-52), 1e-4, 1e16, 0.0],  # where repr switches notation
        [float(f"{10**17 - d}e{k}") for k in range(-22, 0) for d in (1, 2, 3, 5, 8)],  # 17 digits carry
    ]
    scattered = rng.normal(size=size // 17) * 10.0 ** rng.integers(-6, 18, size // 17)
    cases += [[float(f"{x:.{digits - 1}e}") for x in scattered] for digits in range(1, 18)]
    bits = rng.integers(0, 0x7FF0_0000_0000_0000, size, dtype=np.int64)
    low, high = np.array([1e-4, 1e16]).view(np.int64)
    cases += [bits.view(np.float64), rng.integers(low, high, size).view(np.float64)]
    values = np.concatenate(cases)
    return np.concatenate([values, -values])


def first_float_text_mismatch(values):
    """``None`` where ``jsonio._float_text`` writes each of ``values`` as
    ``repr`` does, in chunks of ``jsonio.CHUNK_VALUES``; else the first value
    it writes otherwise, its text and ``repr``'s."""
    for at in range(0, len(values), jsonio.CHUNK_VALUES):
        chunk = values[at:at + jsonio.CHUNK_VALUES]
        for value, text in zip(chunk.tolist(), jsonio._float_text(chunk, ["\n"], "").split("\n")):
            if text != repr(value):
                return f"{value.hex()}: written as {text!r}, repr gives {value!r}"
    return None


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


def blas_config() -> str:
    """The config string of NumPy's bundled OpenBLAS, which names the kernels
    it dispatched, or what NumPy was built with."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*.so*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            if (config := getattr(lib, name, None)) is not None:
                config.restype = ctypes.c_char_p
                return config().decode()
    return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])


def reference_attention_gradients(batch, bank, params, upstream):
    """``attention.attention_gradients`` step by step, each step into a new
    array: the same operations on the same operands in the same order, so
    the in-place version must give these bits. The forward comes from the
    trace of ``cross_attend``; the backward runs over the row blocks of
    ``attention._inner_blocks``, and the products and sums over rows are
    taken per block and added in block order. Keyed by parameter name."""
    _, trace = attention.cross_attend(batch, bank, params)
    k, v, _, b = attention._project(bank, params)
    heads, n, c = params.heads, bank.n, batch.c
    x_all = batch.blocks.reshape(-1, c)
    assoc_all = trace.assoc.transpose(0, 2, 1, 3).reshape(len(x_all), heads * n)
    pre_all = trace.pre_norm.reshape(len(x_all), c)
    du_all = np.asarray(upstream, dtype=np.float64).reshape(len(x_all), c)
    blocks = []
    for rows in attention._inner_blocks(len(x_all)):
        x, assoc, pre, du = x_all[rows], assoc_all[rows], pre_all[rows], du_all[rows]
        xhat = pre - pre.sum(axis=-1, keepdims=True) / c
        inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / c + params.eps)
        xhat *= inv
        d_bias = du.sum(axis=0)
        d_gain = (du * xhat).sum(axis=0)
        dxhat = du * params.gain
        ds = dxhat - dxhat.sum(axis=-1, keepdims=True) / c
        ds -= xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / c)
        ds *= inv
        d_b = assoc.T @ ds
        d_assoc = ds @ b.T
        per_head = d_assoc.reshape(len(x), heads, n)
        per_head -= (per_head * assoc.reshape(per_head.shape)).sum(axis=-1, keepdims=True)
        d_assoc *= assoc
        blocks.append((d_b, x.T @ d_assoc, d_gain, d_bias))
    d_b, d_a, d_gain, d_bias = (functools.reduce(np.add, sums) for sums in zip(*blocks))
    d_b = d_b.reshape(heads, n, -1)
    d_a = d_a.reshape(-1, heads, n).transpose(1, 0, 2)
    d_a *= 1.0 / math.sqrt(params.d_model)
    d_wo = (v.transpose(0, 2, 1) @ d_b).reshape(params.w_o.shape)
    d_v = d_b @ params.w_o.reshape(heads, params.d_model, -1).transpose(0, 2, 1)
    d_wq = d_a @ k
    d_k = d_a.transpose(0, 2, 1) @ params.w_q
    d_wk = bank.f_k.T @ d_k
    d_wv = bank.f_k.T @ d_v
    return {"w_q": d_wq, "w_k": d_wk, "w_v": d_wv, "w_o": d_wo, "gain": d_gain, "bias": d_bias}


__all__ = ["make_dataset", "random_bank", "einsum_attention", "reference_attention_gradients", "blas_config",
           "hard_doubles", "first_float_text_mismatch", "PEDESTRIAN"]
