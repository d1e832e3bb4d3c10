import gc
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pedbank import attention, gradcheck, jsonio
from pedbank.attention import (
    ATTENTION_PARAMS_VERSION,
    AttentionParams,
    AttentionTrace,
    FeatureBatch,
    attention_gradients,
    cross_attend,
    init_attention,
    layer_norm,
    load_attention_params,
    load_feature_batch,
    save_attention_params,
    save_feature_batch,
)
from pedbank.bank import KnowledgeBank
from pedbank.errors import DimensionError, NumericalError, ParseError, PreconditionError
from pedbank.gradcheck import attention_check

from support import blas_config, einsum_attention, random_bank, read_both_ways, reference_attention_gradients


def small_setup(seed=3, m=3, h=2, w=2, c=8, n=4, d=8, d_m=4, heads=2):
    rng = np.random.default_rng(seed)
    bank = random_bank(seed=seed + 100, n=n, dim=d)
    batch = FeatureBatch(mode="proposal", blocks=rng.normal(size=(m, h, w, c)))
    params = init_attention(c=c, d=d, d_m=d_m, heads=heads, seed=seed)
    return batch, bank, params


@pytest.fixture(scope="module")
def detection_scale():
    """Full-size operating point: 3 proposal blocks of 7x7x256 against a
    50-entry bank of 512-d features, 8 heads of width 64."""
    rng = np.random.default_rng(10)
    bank = random_bank(seed=10, n=50, dim=512)
    batch = FeatureBatch(mode="proposal", blocks=rng.normal(size=(3, 7, 7, 256)))
    params = init_attention(c=256, d=512, d_m=64, heads=8, seed=10)
    out, trace = cross_attend(batch, bank, params)
    return batch, bank, params, out, trace


def naive_cross_attend(batch, bank, params):
    """Loop-and-dot-product recomputation, one row and head at a time."""
    flat_all = batch.rows()
    n, heads, d_m = bank.n, params.heads, params.d_model
    scale = 1.0 / math.sqrt(d_m)
    k = [[bank.f_k[i] @ params.w_k[h] for i in range(n)] for h in range(heads)]
    v = [[bank.f_k[i] @ params.w_v[h] for i in range(n)] for h in range(heads)]
    blocks = np.empty_like(batch.blocks)
    for b in range(batch.m):
        rows = flat_all[b]
        outs = []
        for r in range(rows.shape[0]):
            concat = []
            for h in range(heads):
                q = rows[r] @ params.w_q[h]
                scores = [float(np.dot(q, k[h][i])) * scale for i in range(n)]
                top = max(scores)
                exps = [math.exp(s - top) for s in scores]
                z = sum(exps)
                head_out = np.zeros(d_m)
                for i in range(n):
                    head_out += (exps[i] / z) * v[h][i]
                concat.append(head_out)
            pre = rows[r] + np.concatenate(concat) @ params.w_o
            mu = float(pre.mean())
            var = float(((pre - mu) ** 2).mean())
            outs.append(params.gain * (pre - mu) / math.sqrt(var + params.eps) + params.bias)
        blocks[b] = np.asarray(outs).reshape(batch.blocks.shape[1:])
    return blocks


class TestInit:
    def test_shapes(self):
        params = init_attention(c=256, d=512)
        assert params.w_q.shape == (8, 256, 64)
        assert params.w_k.shape == (8, 512, 64)
        assert params.w_v.shape == (8, 512, 64)
        assert params.w_o.shape == (512, 256)
        np.testing.assert_array_equal(params.gain, np.ones(256))
        np.testing.assert_array_equal(params.bias, np.zeros(256))

    def test_deterministic(self):
        a = init_attention(c=12, d=6, d_m=4, heads=3, seed=8)
        b = init_attention(c=12, d=6, d_m=4, heads=3, seed=8)
        np.testing.assert_array_equal(a.w_q, b.w_q)
        np.testing.assert_array_equal(a.w_o, b.w_o)

    def test_rejects_bad_sizes(self):
        with pytest.raises(PreconditionError):
            init_attention(c=0, d=4)


class TestRows:
    def test_row_major_order(self):
        h, w = 2, 3
        block = np.empty((h, w, 2))
        for y in range(h):
            for x in range(w):
                block[y, x] = (y, x)
        rows = FeatureBatch(mode="proposal", blocks=block[None]).rows()
        assert rows.shape == (1, 6, 2)
        for y in range(h):
            for x in range(w):
                np.testing.assert_array_equal(rows[0, y * w + x], [y, x])

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            FeatureBatch(mode="proposal", blocks=np.zeros((2, 2)))

    def test_rejects_an_unknown_mode(self):
        with pytest.raises(PreconditionError, match="mode must be one of"):
            FeatureBatch(mode="patch", blocks=np.zeros((1, 1, 1, 2)))


def reference_layer_norm(rows, gain, bias, eps):
    """Layer norm as written with ``np.mean`` for the row mean, step for step."""
    out = rows - rows.mean(axis=-1, keepdims=True)
    var = (out * out).sum(axis=-1, keepdims=True) / rows.shape[-1]
    out *= gain
    out /= np.sqrt(var + eps)
    out += bias
    return out


class TestLayerNorm:
    def test_two_channel_exact(self):
        out = layer_norm(np.array([[2.0, 4.0]]), np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_array_equal(out, [[-1.0, 1.0]])

    def test_constant_row_returns_bias(self):
        bias = np.array([5.0, 6.0, 7.0])
        out = layer_norm(np.array([[4.0, 4.0, 4.0]]), np.full(3, 2.0), bias)
        np.testing.assert_array_equal(out, [bias])

    def test_standardizes_rows(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(40, 64)) * 3.0 + 1.5
        out = layer_norm(rows, np.ones(64), np.zeros(64), eps=1e-9)
        np.testing.assert_array_less(np.abs(out.mean(axis=-1)), 1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-6)

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=16,
        ).filter(lambda xs: float(np.var(xs)) >= 1e-3)
    )
    def test_moments_property(self, values):
        c = len(values)
        out = layer_norm(np.asarray([values]), np.ones(c), np.zeros(c), eps=1e-9)
        assert abs(float(out.mean())) < 1e-9
        assert abs(float(out.var()) - 1.0) < 1e-5

    @pytest.mark.parametrize("rows", [[[1.0, 1.0, 1.0]], [[1.0, 2.0, 4.0], [3.0, 3.0, 3.0]]])
    def test_zero_variance_without_eps_raises(self, rows):
        with pytest.raises(NumericalError, match="layer norm.*zero variance"):
            layer_norm(np.array(rows), np.ones(3), np.zeros(3), eps=0.0)

    @pytest.mark.parametrize("eps", [True, math.inf, "1", -1e-5], ids=repr)
    def test_eps_follows_the_array_rule(self, eps):
        with pytest.raises(PreconditionError, match="eps"):
            layer_norm(np.array([[1.0, 2.0]]), np.ones(2), np.zeros(2), eps=eps)

    def test_an_int_eps_counts_as_its_float(self):
        rows = np.array([[1.0, 2.0, 4.0]])
        np.testing.assert_array_equal(layer_norm(rows, np.ones(3), np.zeros(3), eps=1),
                                      layer_norm(rows, np.ones(3), np.zeros(3), eps=1.0))

    @pytest.mark.parametrize("shape", [(100, 49, 256), (1, 1, 256), (7, 3), (4, 2, 5, 64), (2,)])
    def test_variance_of_the_centered_rows_has_the_bits_of_var(self, shape):
        rng = np.random.default_rng(17)
        rows = rng.normal(size=shape) * 2.5 + 0.75
        gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        want = rows - rows.mean(axis=-1, keepdims=True)
        want *= gain
        want /= np.sqrt(rows.var(axis=-1, keepdims=True) + 1e-5)
        want += bias
        np.testing.assert_array_equal(layer_norm(rows, gain, bias), want)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(1, 5), min_size=0, max_size=3),
        st.integers(2, 300),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-5, 1e-9, 0.5]),
    )
    @example(lead=[1, 1], c=256, seed=0, eps=1e-5)
    @example(lead=[1, 1], c=2, seed=1, eps=1e-5)
    def test_has_the_bits_of_the_mean_formula(self, lead, c, seed, eps):
        rng = np.random.default_rng(seed)
        shape = (*lead, c)
        rows = rng.normal(size=shape) * rng.uniform(0.1, 50.0) + rng.normal()
        gain, bias = rng.normal(size=c), rng.normal(size=c)
        np.testing.assert_array_equal(layer_norm(rows, gain, bias, eps),
                                      reference_layer_norm(rows, gain, bias, eps))

    def test_rejects_single_channel(self):
        with pytest.raises(PreconditionError):
            layer_norm(np.ones((2, 1)), np.ones(1), np.zeros(1))

    def test_rejects_affine_mismatch(self):
        with pytest.raises(DimensionError):
            layer_norm(np.ones((2, 3)), np.ones(2), np.zeros(3))


class TestForward:
    def test_matches_naive_recomputation(self, detection_scale):
        batch, bank, params, out, _ = detection_scale
        expect = naive_cross_attend(batch, bank, params)
        assert np.max(np.abs(out.blocks - expect)) <= 1e-10

    def test_association_rows_are_distributions(self, detection_scale):
        _, bank, params, _, trace = detection_scale
        assert trace.assoc.shape == (3, params.heads, 49, bank.n)
        assert np.all(trace.assoc >= 0.0) and np.all(trace.assoc <= 1.0)
        np.testing.assert_allclose(trace.assoc.sum(axis=-1), 1.0, atol=1e-12)

    # cross_attend builds its trace without the row-sum check of AttentionTrace,
    # so that check must not be able to fire there: scores found finite give
    # rows that sum to 1, also where the softmax saturates (one weight of 1, the
    # rest underflowing to 0), is near uniform, or sums more than INNER_MAX entries.
    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["proposal", "query"]),
        st.integers(1, 8),
        st.integers(1, 50),
        st.sampled_from([0.0, 1e-12, 1.0, 1e4]),
        st.floats(0.5, 2.0),
    )
    @example(seed=0, mode="query", heads=8, n=50, scale=1e4, magnitude=1.0)  # saturated, 400 entries
    @example(seed=1, mode="proposal", heads=6, n=50, scale=1e-12, magnitude=2.0)  # near uniform, 300
    @example(seed=2, mode="proposal", heads=8, n=33, scale=1.0, magnitude=1.0)  # 264 entries
    def test_association_rows_sum_to_1_for_any_finite_batch(
        self, seed, mode, heads, n, scale, magnitude
    ):
        rng = np.random.default_rng(seed)
        c, d = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        bank = random_bank(seed=seed, n=n, dim=d)
        params = init_attention(c=c, d=d, d_m=int(rng.integers(1, 5)), heads=heads, seed=seed)
        params = replace(params, w_q=params.w_q * scale)
        shape = (int(rng.integers(1, 4)), 2, 3, c) if mode == "proposal" else (3, 1, c)
        batch = FeatureBatch(mode=mode, blocks=rng.normal(size=shape) * magnitude)
        _, trace = cross_attend(batch, bank, params)
        assert np.all(trace.assoc >= 0.0) and np.all(trace.assoc <= 1.0)
        assert np.abs(trace.assoc.sum(axis=-1) - 1.0).max() <= 1e-6
        AttentionTrace(trace.assoc, trace.pre_norm, trace.output)  # the check passes

    @pytest.mark.parametrize("mode", ["query", "proposal"])
    def test_the_batch_and_trace_are_what_their_constructors_build(self, mode):
        batch, bank, params = small_setup(seed=23)
        if mode == "query":
            batch = FeatureBatch(mode="query", blocks=batch.rows().reshape(-1, 1, batch.c))
        out, trace = cross_attend(batch, bank, params)
        # the same fields, field by field (== on the instances is identity)
        assert vars(FeatureBatch(out.mode, out.blocks)) == vars(out)
        assert vars(AttentionTrace(trace.assoc, trace.pre_norm, trace.output)) == vars(trace)
        assert out.mode == mode and out.blocks.dtype == np.float64
        assert np.shares_memory(out.blocks, trace.output)

    def test_preserves_shape_and_mode(self, detection_scale):
        batch, _, _, out, _ = detection_scale
        assert out.mode == batch.mode
        assert out.blocks.shape == batch.blocks.shape

    def test_deterministic(self, detection_scale):
        batch, bank, params, out, _ = detection_scale
        again, _ = cross_attend(batch, bank, params)
        np.testing.assert_array_equal(out.blocks, again.blocks)

    def test_zero_output_projection_reduces_to_layer_norm(self):
        batch, bank, params = small_setup(seed=6)
        zeroed = replace(params, w_o=np.zeros_like(params.w_o))
        out, _ = cross_attend(batch, bank, zeroed)
        expect = layer_norm(batch.rows(), params.gain, params.bias, params.eps)
        np.testing.assert_array_equal(out.blocks, expect.reshape(batch.blocks.shape))

    def test_invariant_to_bank_row_order(self):
        batch, bank, params = small_setup(seed=9, n=12, d=16)
        perm = np.random.default_rng(1).permutation(bank.n)
        shuffled = KnowledgeBank(f_q=bank.f_q[perm], f_h=bank.f_h[perm], meta=bank.meta)
        out, _ = cross_attend(batch, bank, params)
        out_shuffled, _ = cross_attend(batch, shuffled, params)
        assert np.max(np.abs(out.blocks - out_shuffled.blocks)) <= 1e-10

    def test_query_equals_unit_proposal_bitwise(self):
        rng = np.random.default_rng(15)
        bank = random_bank(seed=15, n=6, dim=10)
        params = init_attention(c=12, d=10, d_m=4, heads=2, seed=15)
        data = rng.normal(size=(5, 12))
        query = FeatureBatch(mode="query", blocks=data.reshape(5, 1, 12))
        unit = FeatureBatch(mode="proposal", blocks=data.reshape(5, 1, 1, 12))
        out_q, trace_q = cross_attend(query, bank, params)
        out_p, trace_p = cross_attend(unit, bank, params)
        np.testing.assert_array_equal(
            out_q.blocks.reshape(5, 12), out_p.blocks.reshape(5, 12)
        )
        np.testing.assert_array_equal(trace_q.assoc, trace_p.assoc)

    @pytest.mark.parametrize("mode", ["query", "proposal"])
    def test_output_is_layer_norm_of_the_pre_norm_sums(self, mode):
        batch, bank, params = small_setup(seed=21, m=4, h=3, w=3)
        if mode == "query":
            batch = FeatureBatch(mode="query", blocks=batch.rows().reshape(-1, 1, batch.c))
        out, trace = cross_attend(batch, bank, params)
        want = layer_norm(trace.pre_norm, params.gain, params.bias, params.eps)
        np.testing.assert_array_equal(trace.output, want)
        np.testing.assert_array_equal(out.blocks, want.reshape(batch.blocks.shape))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_a_layer_norm_overflow_is_a_numerical_error(self):
        # zero query weights keep the scores finite; the row sum of two
        # channels near the largest double then overflows in layer norm
        bank = random_bank(seed=22, n=4, dim=512)
        params = init_attention(c=8, d=512, d_m=4, heads=2)
        params = replace(params, w_q=np.zeros_like(params.w_q))
        blocks = np.zeros((1, 1, 8))
        blocks[..., :2] = 1.7e308
        with pytest.raises(NumericalError, match="^non-finite layer-norm output$"):
            cross_attend(FeatureBatch(mode="query", blocks=blocks), bank, params)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("w_qk, w_o, step", [
        (1.0, 0.0, "attention scores"),  # x @ a = 2e308
        (0.0, 1e308, "pre-normalization features"),  # uniform association; x + assoc @ b = 2e308
    ])
    def test_an_overflow_before_layer_norm_names_its_step(self, w_qk, w_o, step):
        # one head of width 1 over two unit codewords, so k and v are all ones
        bank = KnowledgeBank(f_q=np.eye(2), f_h=np.zeros((2, 2)))
        params = AttentionParams(
            heads=1, d_model=1, w_q=np.full((1, 2, 1), w_qk), w_k=np.full((1, 2, 1), w_qk),
            w_v=np.ones((1, 2, 1)), w_o=np.array([[w_o, 0.0]]), gain=np.ones(2), bias=np.zeros(2),
        )
        blocks = np.full((1, 1, 2), 1e308)
        with pytest.raises(NumericalError, match=f"^non-finite {step}$"):
            cross_attend(FeatureBatch(mode="query", blocks=blocks), bank, params)

    def test_a_single_channel_is_rejected_by_layer_norm(self):
        batch, bank, params = small_setup(c=1)
        with pytest.raises(PreconditionError, match="^layer norm needs at least 2 channels$"):
            cross_attend(batch, bank, params)

    def test_channel_mismatch(self):
        batch, bank, _ = small_setup()
        params = init_attention(c=9, d=bank.dim, d_m=4, heads=2)
        with pytest.raises(DimensionError):
            cross_attend(batch, bank, params)

    def test_bank_dimension_mismatch(self):
        batch, _, params = small_setup()
        other = random_bank(seed=1, n=4, dim=6)
        with pytest.raises(DimensionError):
            cross_attend(batch, other, params)


class TestAttentionTrace:
    def trace(self, sums):
        assoc = np.full((1, len(sums), 1, 4), 0.25)
        assoc[0, :, 0, 0] += np.asarray(sums) - 1.0
        return AttentionTrace(assoc=assoc, pre_norm=np.zeros((1, 1, 2)), output=np.zeros((1, 1, 2)))

    def test_accepts_rows_within_1e_6_of_1(self):
        self.trace([1.0, 1.0 + 5e-7, 1.0 - 5e-7])

    @pytest.mark.parametrize("sums", [[1.0, 1.0 + 2e-6], [1.0 - 2e-6, 1.0], [1.0, math.nan]],
                             ids=["above", "below", "nan"])
    def test_rejects_a_row_that_does_not_sum_to_1(self, sums):
        with pytest.raises(NumericalError, match="association rows must sum to 1"):
            self.trace(sums)


PARAM_NAMES = ("w_q", "w_k", "w_v", "w_o", "gain", "bias")


def cold(fn, *args):
    """``fn(*args)`` with no bank fold remembered by its params from an earlier call."""
    params = next(arg for arg in args if isinstance(arg, AttentionParams))
    object.__setattr__(params, "_fold", None)
    return fn(*args)


def assert_same_grads(got, want):
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestProjectionMemo:
    """The bank K/V projection is computed once per (bank, params) pair and
    changes no bit of any result."""

    def test_a_repeated_pair_reuses_its_projection(self):
        _, bank, params = small_setup()
        first = cold(attention._project, bank, params)
        assert attention._project(bank, params) is first
        assert attention._project(bank, replace(params)) is not first
        for arr in first:
            assert not arr.flags.writeable

    def test_two_params_over_one_bank_keep_their_own_folds(self):
        _, bank, params = small_setup()
        other = replace(params)
        folds = [cold(attention._project, bank, p) for p in (params, other)]
        assert folds[0] is not folds[1]
        for _ in range(3):  # alternating callers no longer evict each other
            assert attention._project(bank, params) is folds[0]
            assert attention._project(bank, other) is folds[1]

    def test_the_bank_is_folded_into_per_head_score_and_output_weights(self):
        _, bank, params = small_setup(n=5, heads=3)
        k, v, a, b = cold(attention._project, bank, params)
        heads, n, c, d_m = params.heads, bank.n, params.c, params.d_model
        assert a.shape == (c, heads * n) and b.shape == (heads * n, c)
        assert not a.flags.writeable and not b.flags.writeable
        for h in range(heads):
            heads_n, heads_dm = slice(h * n, (h + 1) * n), slice(h * d_m, (h + 1) * d_m)
            want_a = params.w_q[h] @ k[h].T / math.sqrt(d_m)
            np.testing.assert_allclose(a[:, heads_n], want_a, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(b[heads_n], v[h] @ params.w_o[heads_dm], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name, folded", [("w_q", 2), ("w_o", 3)])
    def test_params_with_a_replaced_w_q_or_w_o_get_a_fresh_fold(self, name, folded):
        _, bank, params = small_setup()
        first = cold(attention._project, bank, params)
        changed = replace(params, **{name: -getattr(params, name)})
        again = attention._project(bank, changed)
        assert again is not first
        for i, arr in enumerate(again):  # negating a weight negates its fold exactly
            np.testing.assert_array_equal(arr, -first[i] if i == folded else first[i])

    def test_warm_calls_repeat_the_cold_bits(self):
        batch, bank, params = small_setup()
        upstream = np.random.default_rng(30).normal(size=batch.blocks.shape)
        out_cold, trace_cold = cold(cross_attend, batch, bank, params)
        grads_cold = cold(attention_gradients, batch, bank, params, upstream)
        cross_attend(batch, bank, params)
        out_warm, trace_warm = cross_attend(batch, bank, params)
        grads_warm = attention_gradients(batch, bank, params, upstream)
        np.testing.assert_array_equal(out_warm.blocks, out_cold.blocks)
        np.testing.assert_array_equal(trace_warm.assoc, trace_cold.assoc)
        np.testing.assert_array_equal(trace_warm.pre_norm, trace_cold.pre_norm)
        assert_same_grads(grads_warm, grads_cold)

    def test_another_bank_or_params_gets_its_own_projection(self):
        batch, bank, params = small_setup()
        upstream = np.random.default_rng(31).normal(size=batch.blocks.shape)
        other_bank = random_bank(seed=77, n=bank.n, dim=bank.dim)
        other_params = replace(params, w_k=params.w_v, w_v=params.w_k)
        for pair in ((other_bank, params), (bank, other_params)):
            want_out, _ = cold(cross_attend, batch, *pair)
            want_grads = cold(attention_gradients, batch, *pair, upstream)
            cold(cross_attend, batch, bank, params)  # remember the first pair
            got_out, _ = cross_attend(batch, *pair)
            cold(cross_attend, batch, bank, params)
            got_grads = attention_gradients(batch, *pair, upstream)
            np.testing.assert_array_equal(got_out.blocks, want_out.blocks)
            assert_same_grads(got_grads, want_grads)

    def test_params_that_reuse_a_dead_objects_address_are_projected_afresh(self):
        batch, bank, params = small_setup()
        swapped = {"w_k": params.w_v, "w_v": params.w_k}
        want = [cold(cross_attend, batch, bank, replace(params, **kw))[0] for kw in ({}, swapped)]
        for i in range(8):  # CPython tends to put each new object where the last one died
            out, _ = cross_attend(batch, bank, replace(params, **(swapped if i % 2 else {})))
            np.testing.assert_array_equal(out.blocks, want[i % 2].blocks)

    def test_banks_that_reuse_a_dead_objects_address_are_folded_afresh(self):
        batch, _, params = small_setup()
        seeds = (103, 77)
        want = [cold(cross_attend, batch, random_bank(seed=s, n=4, dim=8), params)[0] for s in seeds]
        for i in range(8):  # each bank dies after its call, so the next may take its place
            out, _ = cross_attend(batch, random_bank(seed=seeds[i % 2], n=4, dim=8), params)
            np.testing.assert_array_equal(out.blocks, want[i % 2].blocks)

    def test_a_used_params_pickles_to_bit_identical_results(self):
        batch, bank, params = small_setup()
        upstream = np.random.default_rng(32).normal(size=batch.blocks.shape)
        want_out, want_trace = cross_attend(batch, bank, params)
        want_grads = attention_gradients(batch, bank, params, upstream)
        copy = pickle.loads(pickle.dumps(params))
        assert copy._fold is None
        got_out, got_trace = cross_attend(batch, bank, copy)
        assert copy._fold[0] is bank.f_k  # the copy folded this bank afresh
        np.testing.assert_array_equal(got_out.blocks, want_out.blocks)
        np.testing.assert_array_equal(got_trace.assoc, want_trace.assoc)
        assert_same_grads(attention_gradients(batch, bank, copy, upstream), want_grads)

    def test_query_equals_unit_proposal_bitwise_with_a_warm_projection(self):
        rng = np.random.default_rng(16)
        bank = random_bank(seed=16, n=6, dim=10)
        params = init_attention(c=12, d=10, d_m=4, heads=2, seed=16)
        data = rng.normal(size=(5, 12))
        unit = FeatureBatch(mode="proposal", blocks=data.reshape(5, 1, 1, 12))
        out_cold, _ = cold(cross_attend, unit, bank, params)
        query = FeatureBatch(mode="query", blocks=data.reshape(5, 1, 12))
        out_q, _ = cross_attend(query, bank, params)
        out_p, _ = cross_attend(unit, bank, params)
        np.testing.assert_array_equal(out_q.blocks.reshape(5, 12), out_cold.blocks.reshape(5, 12))
        np.testing.assert_array_equal(out_p.blocks, out_cold.blocks)

    def test_the_memo_keeps_no_bank_or_params_alive(self):
        batch, bank, params = small_setup()
        cross_attend(batch, bank, params)
        refs = weakref.ref(bank), weakref.ref(params)
        del bank, params
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_bank_and_params_arrays_are_read_only(self):
        _, bank, params = small_setup()
        arrays = [getattr(bank, name) for name in ("f_q", "f_h", "f_k")]
        arrays += [getattr(params, name) for name in PARAM_NAMES]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0

    def test_later_writes_to_the_callers_arrays_do_not_show_through(self):
        batch, bank, params = small_setup()
        given = {name: np.array(getattr(params, name)) for name in PARAM_NAMES}
        mine = AttentionParams(heads=params.heads, d_model=params.d_model, **given)
        out_before, _ = cross_attend(batch, bank, mine)
        for arr in given.values():
            arr += 1.0
        for name in given:
            np.testing.assert_array_equal(getattr(mine, name), getattr(params, name))
        out_after, _ = cross_attend(batch, bank, mine)
        np.testing.assert_array_equal(out_after.blocks, out_before.blocks)

    def test_handed_over_read_only_arrays_are_not_copied(self):
        _, _, params = small_setup()
        again = replace(params, w_o=np.zeros_like(params.w_o))
        assert again.w_q is params.w_q and again.w_k is params.w_k
        assert again.w_o is not params.w_o and not again.w_o.flags.writeable


class TestGradients:
    def test_matches_central_finite_differences(self):
        errors = attention_check(seed=14)
        assert max(errors.values()) < 1e-6, errors

    def test_zero_upstream_gives_zero_grads(self):
        batch, bank, params = small_setup(seed=4)
        grads = attention_gradients(batch, bank, params, np.zeros(batch.blocks.shape))
        for name in ("w_q", "w_k", "w_v", "w_o", "gain", "bias"):
            field = getattr(grads, name)
            np.testing.assert_array_equal(field, np.zeros_like(field))

    def test_blocks_contribute_independently(self):
        # zero-upstream blocks add nothing, so the m=3 gradient with upstream
        # on block 0 only equals the single-block gradient exactly
        batch, bank, params = small_setup(seed=3)
        upstream = np.zeros(batch.blocks.shape)
        upstream[0] = np.random.default_rng(30).normal(size=batch.blocks.shape[1:])
        full = attention_gradients(batch, bank, params, upstream)
        single = attention_gradients(
            FeatureBatch(mode="proposal", blocks=batch.blocks[:1]),
            bank, params, upstream[:1],
        )
        for name in ("w_q", "w_k", "w_v", "w_o", "gain", "bias"):
            np.testing.assert_array_equal(getattr(full, name), getattr(single, name))

    def test_affine_grads_are_channelwise(self):
        batch, bank, params = small_setup(seed=5)
        upstream = np.zeros(batch.blocks.shape)
        upstream[1, 0, 1, 3] = 0.7
        grads = attention_gradients(batch, bank, params, upstream)
        assert grads.bias[3] == 0.7
        mask = np.arange(batch.c) != 3
        np.testing.assert_array_equal(grads.bias[mask], np.zeros(batch.c - 1))
        np.testing.assert_array_equal(grads.gain[mask], np.zeros(batch.c - 1))
        assert grads.gain[3] != 0.0

    def test_rejects_upstream_shape_mismatch(self):
        batch, bank, params = small_setup()
        with pytest.raises(DimensionError):
            attention_gradients(batch, bank, params, np.zeros((1, 2, 2, 8)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_upstream(self, value):
        batch, bank, params = small_setup()
        upstream = np.zeros(batch.blocks.shape)
        upstream[1, 0, 1, 2] = value
        with pytest.raises(PreconditionError, match="upstream must be finite"):
            attention_gradients(batch, bank, params, upstream)


class TestGradientsInPlace:
    """The backward works in its own arrays: the bits of the step-by-step
    reference, the caller's upstream untouched, and a bounded peak."""

    @pytest.mark.parametrize("mode, shape", [
        ("proposal", dict()),
        ("proposal", dict(m=6, h=7, w=7, c=16, n=10, d=12, d_m=5, heads=3)),  # M = 294 rows
        ("proposal", dict(m=3, h=10, w=10, c=12, n=50, d=16, d_m=4, heads=6)),  # heads * n = 300
        ("query", dict(m=300, h=1, w=1, c=8, n=40, d=8, d_m=3, heads=8)),  # heads * n = 320
    ])
    def test_has_the_bits_of_the_reference(self, mode, shape):
        batch, bank, params = small_setup(seed=50, **shape)
        if mode == "query":
            batch = FeatureBatch(mode, batch.blocks.reshape(batch.m, 1, batch.c))
        upstream = np.random.default_rng(51).normal(size=batch.blocks.shape)
        upstream.flags.writeable = False  # kept as it is, so any write into it raises
        want = reference_attention_gradients(batch, bank, params, upstream)
        grads = attention_gradients(batch, bank, params, upstream)
        for name, expect in want.items():
            got = getattr(grads, name)
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), name

    def test_peak_memory_is_a_few_row_blocks(self):
        # 20 blocks of 7x7 are 980 rows, four row blocks of 245; one more array of all
        # M rows, even of c columns, crosses the bound
        batch, bank, params = small_setup(seed=52, m=20, h=7, w=7, c=32, n=25, d=16, d_m=8, heads=4)
        upstream = np.random.default_rng(53).normal(size=batch.blocks.shape)
        attention_gradients(batch, bank, params, upstream)  # the bank fold is built outside the trace
        tracemalloc.start()
        try:
            attention_gradients(batch, bank, params, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = max(s.stop - s.start for s in attention._inner_blocks(batch.blocks.size // batch.c)) * 8
        assoc, rows = block * params.heads * bank.n, block * batch.c
        assert peak <= 4 * assoc + 4 * rows, (peak / assoc, peak / rows)


_GRADIENT_DIGESTS = """
import hashlib, numpy as np
from pedbank import FeatureBatch, attention_gradients, init_attention
from support import random_bank
rng = np.random.default_rng(0)
batch = FeatureBatch("proposal", rng.normal(size=(12, 7, 7, 256)))
params = init_attention(c=256, d=512, d_m=64, heads=8, seed=0)
grads = attention_gradients(batch, random_bank(1, 50, 512), params, rng.normal(size=batch.blocks.shape))
print(*(hashlib.sha256(getattr(grads, name).tobytes()).hexdigest()[:16] for name in vars(grads)))
"""

# one head of width 1 over two unit codewords, so every score is x0 + x1 and the
# value product adds 1e308 to both channels; each row fails at the step it names
_FAILING_ROWS = {"fine": [-5e307, -5e307], "attention scores": [1e308, 1e308],
                 "pre-normalization features": [1e308, -1e308], "layer-norm output": [7e307, 7e307]}


class TestRowBlocks:
    """Attention runs over the row blocks of ``_inner_blocks(M)``: sums over
    rows in a fixed order, errors that do not depend on the block."""

    def test_inner_blocks_cut_only_above_inner_max(self):
        assert attention._inner_blocks(256) == (slice(0, 256),)
        assert attention._inner_blocks(257) == (slice(0, 128), slice(128, 257))
        assert attention._inner_blocks(512) == (slice(0, 256), slice(256, 512))

    def test_a_central_difference_along_a_random_direction_over_two_row_blocks(self):
        # 3 blocks of 10x10 are 300 rows and 6 heads over 50 entries 300 columns: the sums
        # over rows and the value product each span two blocks of _inner_blocks
        batch, bank, params = small_setup(seed=60, m=3, h=10, w=10, c=12, n=50, d=16, d_m=4, heads=6)
        rng = np.random.default_rng(61)
        upstream = rng.normal(size=batch.blocks.shape)
        grads = attention_gradients(batch, bank, params, upstream)

        def value(name, arr):
            out, _ = cross_attend(batch, bank, replace(params, **{name: arr}))
            return float(np.sum(upstream * out.blocks))

        step = gradcheck.DEFAULT_STEP
        for name in gradcheck.ATTENTION_GROUPS:
            direction = rng.normal(size=getattr(params, name).shape)
            direction /= np.linalg.norm(direction)
            at = getattr(params, name)
            numeric = (value(name, at + step * direction) - value(name, at - step * direction)) / (2 * step)
            analytic = float(np.sum(getattr(grads, name) * direction))
            assert gradcheck.relative_error(analytic, numeric) <= gradcheck.DEFAULT_TOLERANCE, name

    def test_gradient_bits_do_not_depend_on_the_blas_thread_count(self):
        # 588 rows: each sum over rows adds three row blocks, not one product whose
        # grouping a multithreaded BLAS may choose by the thread count
        tests, src = Path(__file__).resolve().parent, Path(attention.__file__).resolve().parent.parent
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", _GRADIENT_DIGESTS], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, "")
            digests.append(proc.stdout)
        assert digests[0] == digests[1], f"gradients differ on one and two threads of {blas_config()}"

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize("first, second", [
        ("pre-normalization features", "attention scores"),
        ("attention scores", "layer-norm output"),
        ("layer-norm output", "pre-normalization features"),
        ("pre-normalization features", "layer-norm output"),
    ])
    def test_the_first_step_that_fails_is_named_whichever_block_holds_it(self, first, second):
        rows = np.array([_FAILING_ROWS["fine"]] * 300)
        rows[10], rows[290] = _FAILING_ROWS[first], _FAILING_ROWS[second]
        assert attention._inner_blocks(300) == (slice(0, 150), slice(150, 300))
        bank = KnowledgeBank(f_q=np.eye(2), f_h=np.zeros((2, 2)))
        params = AttentionParams(
            heads=1, d_model=1, w_q=np.ones((1, 2, 1)), w_k=np.ones((1, 2, 1)), w_v=np.ones((1, 2, 1)),
            w_o=np.full((1, 2), 1e308), gain=np.ones(2), bias=np.zeros(2),
        )
        batch = FeatureBatch(mode="query", blocks=rows.reshape(300, 1, 2))
        steps = list(_FAILING_ROWS)
        step = min(first, second, key=steps.index)
        with pytest.raises(NumericalError, match=f"^non-finite {step}$"):
            cross_attend(batch, bank, params)
        if step != "layer-norm output":  # the backward does not compute the output
            with pytest.raises(NumericalError, match=f"^non-finite {step}$"):
                attention_gradients(batch, bank, params, np.ones(batch.blocks.shape))


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestEinsumReference:
    """Rows of different blocks, positions and heads must not be mixed up: the
    finite-difference check runs at m=1 and would not see it."""

    SHAPES = [
        dict(m=3, h=2, w=3, c=10, n=5, d=7, d_m=4, heads=3),
        dict(m=2, h=1, w=4, c=6, n=3, d=9, d_m=5, heads=4),
        # n above c*d_m/(c - d_m) = 8, where folding the bank costs more than it saves
        dict(m=2, h=2, w=2, c=8, n=12, d=6, d_m=4, heads=2),
    ]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_matches(self, shape):
        batch, bank, params = small_setup(seed=40, **shape)
        upstream = np.zeros(batch.blocks.shape)
        blocks, assoc, _ = einsum_attention(batch, bank, params, upstream)
        out, trace = cross_attend(batch, bank, params)
        hw = shape["h"] * shape["w"]
        assert trace.assoc.shape == (shape["m"], shape["heads"], hw, shape["n"])
        assert relative_error(out.blocks, blocks) <= 1e-10
        assert relative_error(trace.assoc, assoc) <= 1e-10

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradients_match(self, shape):
        batch, bank, params = small_setup(seed=41, **shape)
        upstream = np.random.default_rng(42).normal(size=batch.blocks.shape)
        _, _, want = einsum_attention(batch, bank, params, upstream)
        grads = attention_gradients(batch, bank, params, upstream)
        for name, expect in want.items():
            got = getattr(grads, name)
            assert got.shape == expect.shape, name
            assert relative_error(got, expect) <= 1e-10, name


class TestFeatureBatchFiles:
    def test_proposal_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        batch = FeatureBatch(mode="proposal", blocks=rng.normal(size=(2, 2, 3, 4)))
        path = tmp_path / "batch.json"
        save_feature_batch(batch, path)
        loaded = load_feature_batch(path)
        assert loaded.mode == "proposal"
        np.testing.assert_array_equal(loaded.blocks, batch.blocks)

    def test_query_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        batch = FeatureBatch(mode="query", blocks=rng.normal(size=(5, 1, 7)))
        path = tmp_path / "batch.json"
        save_feature_batch(batch, path)
        loaded = load_feature_batch(path)
        assert loaded.mode == "query"
        np.testing.assert_array_equal(loaded.blocks, batch.blocks)

    def test_saves_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(22)
        batch = FeatureBatch(mode="proposal", blocks=rng.normal(size=(1, 2, 2, 3)))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_feature_batch(batch, a)
        save_feature_batch(batch, b)
        assert a.read_bytes() == b.read_bytes()

    def payload(self):
        return {"mode": "proposal", "m": 1, "h": 1, "w": 2, "c": 2, "data": [1.0, 2.0, 3.0, 4.0]}

    def write(self, tmp_path, doc):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc) + "\n")
        return path

    def test_rejects_bad_mode(self, tmp_path):
        doc = self.payload()
        doc["mode"] = "detection"
        with pytest.raises(ParseError, match="mode"):
            load_feature_batch(self.write(tmp_path, doc))

    def test_rejects_missing_key(self, tmp_path):
        doc = self.payload()
        del doc["c"]
        with pytest.raises(ParseError, match="missing"):
            load_feature_batch(self.write(tmp_path, doc))

    def test_rejects_wrong_data_length(self, tmp_path):
        doc = self.payload()
        doc["data"] = doc["data"][:-1]
        with pytest.raises(ParseError, match="length"):
            load_feature_batch(self.write(tmp_path, doc))

    def test_rejects_query_with_spatial_extent(self, tmp_path):
        doc = self.payload()
        doc["mode"] = "query"
        with pytest.raises(ParseError, match="query"):
            load_feature_batch(self.write(tmp_path, doc))

    def test_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(
            '{"mode": "proposal", "m": 1, "h": 1, "w": 1, "c": 2, "data": [1.0, NaN]}\n'
        )
        with pytest.raises(ParseError, match="non-finite"):
            load_feature_batch(path)

    def test_constructor_rejects_query_with_extent(self):
        with pytest.raises(DimensionError):
            FeatureBatch(mode="query", blocks=np.zeros((2, 3, 4)))


@pytest.mark.usefixtures("pooled")
class TestFeatureBatchFilesPooled(TestFeatureBatchFiles):
    """Every case of ``TestFeatureBatchFiles``, with each ``data`` array of
    more than one item cut at commas and parsed in two forked workers."""


HEADER = '"mode": "proposal", "m": 1, "h": 1, "w": 2, "c": 2'
DATA = '"data": [1.0, -0.0, 5e-324, 4]'
# Documents a split of ``data`` at a comma could read otherwise than
# ``json``: the workers parse the "split" ones, the others go to ``json``.
# With the parts of ``pool_every_array``, "a trailing comma in data" ends
# in a part that is the closing "]" alone.
FLAT_CASES = {
    "split: valid": "{%s, %s}" % (HEADER, DATA),
    "split: valid query": '{"mode": "query", "m": 2, "h": 1, "w": 1, "c": 2, %s}' % DATA,
    "split: JSON whitespace everywhere":
        ' \n{ %s ,\r\n"data"\t:[ 1e16 ,\n2.5E-3,-0.0 , 4 ] }\n\n' % HEADER,
    "split: data in a string value": '{"note": "\\"data\\": [9]", %s, %s}' % (HEADER, DATA),
    "data nested in another key": '{"meta": {"data": [9]}, %s, %s}' % (HEADER, DATA),
    "data in an escaped key before data": '{"x\\"data": [9], %s, %s}' % (HEADER, DATA),
    "NaN in another key": '{"n": NaN, %s, %s}' % (HEADER, DATA),
    "split: compact": '{"mode":"proposal","m":1,"h":1,"w":2,"c":2,"data":[1.0,-0.0,5e-324,4]}',
    "split: a string holding ] after data": '{%s, %s, "note": "a]b"}' % (HEADER, DATA),
    "split: a wrong length": '{%s, "data": [1.0, 2.0, 3.0]}' % HEADER,
    "split: a cut at the closing ]": '{%s, "data": [1.0, 2.0, 3.0, 400.0]}' % HEADER,
    "data twice": "{%s, %s, %s}" % (HEADER, DATA, DATA.replace("1.0", "7.0")),
    "split: another key twice": '{"m": 2, %s, %s}' % (HEADER, DATA),
    "nested data": '{%s, "data": [[1.0, 2.0], [3.0, 4.0]]}' % HEADER,
    "a string in data": '{%s, "data": [1.0, "2", 3.0, 4.0]}' % HEADER,
    "a string holding ] in data": '{%s, "data": ["]", 2.0, 3.0, 4.0]}' % HEADER,
    "an object in data": '{%s, "data": [1.0, {"a": 2.0}, 3.0, 4.0]}' % HEADER,
    "true in data": '{%s, "data": [1.0, 2.0, true, 4.0]}' % HEADER,
    "NaN in data": '{%s, "data": [1.0, 2.0, NaN, 4.0]}' % HEADER,
    "1e400 in data": '{%s, "data": [1.0, 2.0, 3.0, 1e400]}' % HEADER,
    "an integer beyond the float range in data": '{%s, "data": [1.0, 2.0, 3.0, 1%s]}' % (HEADER, "0" * 400),
    "an integer past the digit limit in data": '{%s, "data": [1.0, 2.0, 3.0, %s]}' % (HEADER, "1" * 5000),
    "an integer past the digit limit before data": '{"n": %s, %s, %s}' % ("1" * 5000, HEADER, DATA),
    "an empty item in data": '{%s, "data": [1.0, 2.0, , 4.0]}' % HEADER,
    "empty data": '{%s, "data": []}' % HEADER,
    "a trailing comma in data": '{%s, "data": [1.0, 2.0, 3.0, 4.0,]}' % HEADER,
    "an empty item at a cut": '{%s, "data": [1.0, , 3.0, 4.0]}' % HEADER,
    "a trailing comma in the last part": '{%s, "data": [1.0, 2.0, 3, 4,]}' % HEADER,
    "text after the object": "{%s, %s} {}" % (HEADER, DATA),
    "a trailing comma in the object": "{%s, %s,}" % (HEADER, DATA),
    "a top-level array": "[{%s, %s}]" % (HEADER, DATA),
    "a number for data": '{%s, "data": 5}' % HEADER,
}


@pytest.mark.parametrize("name", FLAT_CASES)
def test_pooled_and_in_process_loads_agree(tmp_path, monkeypatch, name):
    if "digit limit" in name and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    path = tmp_path / "batch.json"
    path.write_text(FLAT_CASES[name])
    docs = []
    parse_flat = jsonio._parse_flat
    monkeypatch.setattr(jsonio, "_parse_flat", lambda *args: docs.append(parse_flat(*args)) or docs[-1])
    in_process, pooled = read_both_ways(load_feature_batch, path)
    assert pooled == in_process
    assert (docs[-1] is not None) == name.startswith("split")


def test_a_pooled_load_keeps_no_copy_of_the_text(tmp_path, monkeypatch):
    # the text is about 2.7 times the array; this process holds the parsed parts and the array
    # they are joined into, and of the text only the head, the tail and one window at a time
    monkeypatch.setattr(jsonio, "POOL_MIN_VALUES", 1)
    monkeypatch.setattr(jsonio, "_cpus", lambda: 2)
    path = tmp_path / "batch.json"
    blocks = np.random.default_rng(70).normal(size=(1000, 1, 1, 256))
    save_feature_batch(FeatureBatch("proposal", blocks), path)
    load_feature_batch(path)  # the pool's modules are imported outside the trace
    tracemalloc.start()
    try:
        batch = load_feature_batch(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * batch.blocks.nbytes, peak / batch.blocks.nbytes


# The pieces of the documents below: ``data`` in three layouts, and what a
# search for ``"data": [`` could take for it, before or after the real one.
FLAT_PIECES = [
    DATA, '"data":[1.0,-0.0,5e-324,4]', '"data"\t:\n[ 1e16 ,2.5E-3, -0.0 , 4 ] ',
    '"meta": {"data": [9]}', '"x\\"data": [9]', '"note": "\\"data\\": [9]"', '"note": "a]b"',
    '"n": NaN', '"n": -Infinity', '"m": 2', '"data": [[1.0, 2.0], [3.0, 4.0]]', '"data": [1.0, "]", 3.0, 4.0]',
]


@settings(deadline=None, max_examples=40)
@given(
    items=st.lists(st.sampled_from(FLAT_PIECES), min_size=1, max_size=4).flatmap(
        lambda pieces: st.permutations(HEADER.split(", ") + pieces)
    ),
    separator=st.sampled_from([", ", ",", " ,\r\n"]),
    edit=st.none() | st.tuples(
        st.integers(min_value=0), st.sampled_from(["", " ", ",", ":", "[", "]", "{", '"', "\\", "0"])
    ),
)
def test_pooled_and_in_process_loads_agree_on_mixed_documents(tmp_path_factory, items, separator, edit):
    text = "{" + separator.join(items) + "}"
    if edit is not None:  # one character replaced, or removed
        at = edit[0] % len(text)
        text = text[:at] + edit[1] + text[at + 1:]
    path = tmp_path_factory.mktemp("flat") / "batch.json"
    path.write_text(text)
    in_process, pooled = read_both_ways(load_feature_batch, path)
    assert pooled == in_process


class TestParamsFiles:
    def test_round_trip(self, tmp_path):
        params = init_attention(c=6, d=10, d_m=4, heads=3, seed=5, eps=1e-4)
        path = tmp_path / "params.json"
        save_attention_params(params, path)
        loaded = load_attention_params(path)
        assert loaded.heads == 3 and loaded.d_model == 4 and loaded.eps == 1e-4
        for name in ("w_q", "w_k", "w_v", "w_o", "gain", "bias"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_saves_are_byte_identical(self, tmp_path):
        params = init_attention(c=4, d=6, d_m=2, heads=2, seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_attention_params(params, a)
        save_attention_params(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_version(self, tmp_path):
        params = init_attention(c=4, d=6, d_m=2, heads=2, seed=1)
        path = tmp_path / "params.json"
        save_attention_params(params, path)
        doc = json.loads(path.read_text())
        doc["version"] = ATTENTION_PARAMS_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="version"):
            load_attention_params(path)

    def test_params_validation(self):
        with pytest.raises(DimensionError):
            AttentionParams(
                heads=2, d_model=4,
                w_q=np.zeros((2, 6, 4)), w_k=np.zeros((2, 8, 4)), w_v=np.zeros((2, 8, 4)),
                w_o=np.zeros((7, 6)),  # should be (2*4, 6)
                gain=np.ones(6), bias=np.zeros(6),
            )

    @pytest.mark.parametrize("eps", [0.0, -1e-5])
    def test_rejects_an_eps_that_is_not_positive(self, eps):
        with pytest.raises(PreconditionError, match="eps must be positive"):
            replace(init_attention(c=4, d=6, d_m=2, heads=2, seed=1), eps=eps)

    @pytest.mark.parametrize("size", [2.0, True])
    def test_rejects_sizes_the_loader_rejects(self, size):
        # the loader's size rule: params that construct must also load after saving
        params = init_attention(c=4, d=6, d_m=2, heads=2, seed=1)
        with pytest.raises(PreconditionError, match="positive integers"):
            replace(params, heads=size)
        with pytest.raises(PreconditionError, match="positive integers"):
            replace(params, d_model=size)
