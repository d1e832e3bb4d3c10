"""Independent references for the attention outputs, and computed FLOP counts.

``LoopOracle`` recomputes single output rows with explicit loops over heads,
bank entries and output coordinates, one 1-d dot product at a time, so it
shares no batched code path with the program. ``directional_fd`` checks
``attention_gradients`` against one central difference along a random
direction through all six parameter groups at once.
"""

from __future__ import annotations

import math

import numpy as np

GROUPS = ("w_q", "w_k", "w_v", "w_o", "gain", "bias")
ORACLE_TOL = 1e-9  # absolute, on outputs of unit scale
FD_TOL = 1e-6  # relative; the package's own gradcheck tolerance


class LoopOracle:
    """Loop-and-dot forward pass for one feature row at a time."""

    def __init__(self, f_k: np.ndarray, params):
        self.p = params
        heads, d_m = params.heads, params.d_model
        n = f_k.shape[0]
        self.k = np.empty((heads, n, d_m))
        self.v = np.empty((heads, n, d_m))
        for h in range(heads):
            wk_cols = [np.ascontiguousarray(params.w_k[h][:, t]) for t in range(d_m)]
            wv_cols = [np.ascontiguousarray(params.w_v[h][:, t]) for t in range(d_m)]
            for j in range(n):
                for t in range(d_m):
                    self.k[h, j, t] = np.dot(f_k[j], wk_cols[t])
                    self.v[h, j, t] = np.dot(f_k[j], wv_cols[t])

    def row(self, x: np.ndarray) -> np.ndarray:
        p = self.p
        heads, d_m, c = p.heads, p.d_model, p.c
        n = self.k.shape[1]
        scale = 1.0 / math.sqrt(d_m)
        concat = np.empty(heads * d_m)
        for h in range(heads):
            q = np.array([np.dot(x, p.w_q[h][:, t]) for t in range(d_m)])
            scores = [np.dot(q, self.k[h, j]) * scale for j in range(n)]
            top = max(scores)
            weights = [math.exp(s - top) for s in scores]
            total = math.fsum(weights)
            assoc = np.array([wt / total for wt in weights])
            for t in range(d_m):
                concat[h * d_m + t] = np.dot(assoc, self.v[h][:, t])
        pre = np.array([x[ch] + np.dot(concat, p.w_o[:, ch]) for ch in range(c)])
        mean = math.fsum(pre) / c
        var = math.fsum((pre - mean) ** 2) / c
        return p.gain * (pre - mean) / math.sqrt(var + p.eps) + p.bias


def oracle_mismatch(oracle: LoopOracle, inputs: np.ndarray, outputs: np.ndarray) -> float:
    """Largest absolute difference between oracle rows and program rows."""
    worst = 0.0
    for x, y in zip(inputs, outputs):
        worst = max(worst, float(np.max(np.abs(oracle.row(x) - y))))
    return worst


def directional_fd(attention, batch, bank, params, upstream, grads, rng) -> float:
    """Relative error of one central difference of ``sum(upstream * out)``
    along a random direction over all six parameter groups together."""
    direction = {g: rng.normal(size=getattr(params, g).shape) for g in GROUPS}
    analytic = sum(float(np.sum(getattr(grads, g) * direction[g])) for g in GROUPS)
    step = 1e-6

    def objective(sign: float) -> float:
        moved = {g: getattr(params, g) + sign * step * direction[g] for g in GROUPS}
        shifted = attention.AttentionParams(
            heads=params.heads, d_model=params.d_model, eps=params.eps, **moved
        )
        out, _ = attention.cross_attend(batch, bank, shifted)
        return float(np.sum(upstream * out.blocks))

    numeric = (objective(1.0) - objective(-1.0)) / (2.0 * step)
    return abs(numeric - analytic) / max(abs(analytic), 1e-12)


def forward_flops(rows: int, c: int, n: int, d: int, heads: int, d_m: int) -> int:
    """Multiply-adds x2 of one ``cross_attend``: bank K and V projections,
    Q projection, scores, weighted sum, output projection."""
    hd = heads * d_m
    return 2 * (2 * n * d * hd + rows * c * hd + 2 * rows * n * hd + rows * hd * c)


def backward_flops(rows: int, c: int, n: int, d: int, heads: int, d_m: int) -> int:
    """``attention_gradients`` recomputes the forward pass, then runs the
    matmuls of its backward: d_wo, d_concat, d_assoc, d_v, d_q, d_k, d_wq,
    d_wk and d_wv."""
    hd = heads * d_m
    backward = 2 * (2 * rows * hd * c + 4 * rows * n * hd + rows * c * hd + 2 * n * d * hd)
    return forward_flops(rows, c, n, d, heads, d_m) + backward
