import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedbank.attention import (
    ATTENTION_PARAMS_VERSION,
    AttentionParams,
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
from pedbank.errors import DimensionError, ParseError, PreconditionError
from pedbank.gradcheck import attention_check

from support import random_bank


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
        shuffled = KnowledgeBank(
            n=bank.n, dim=bank.dim,
            f_q=bank.f_q[perm], f_h=bank.f_h[perm], f_k=bank.f_k[perm],
            meta=dict(bank.meta),
        )
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

    @pytest.mark.parametrize("size", [2.0, True])
    def test_rejects_sizes_the_loader_rejects(self, size):
        # the loader's size rule: params that construct must also load after saving
        params = init_attention(c=4, d=6, d_m=2, heads=2, seed=1)
        with pytest.raises(PreconditionError, match="positive integers"):
            replace(params, heads=size)
        with pytest.raises(PreconditionError, match="positive integers"):
            replace(params, d_model=size)
