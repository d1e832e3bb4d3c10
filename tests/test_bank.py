import json

import numpy as np
import pytest

from pedbank.bank import BANK_FORMAT_VERSION, KnowledgeBank, assemble_bank, load_bank, save_bank
from pedbank.errors import DimensionError, ParseError, PreconditionError
from pedbank.hints import HintSet
from pedbank.quantizer import Codebook

from support import random_bank


class TestAssemble:
    def test_composition_holds(self):
        rng = np.random.default_rng(0)
        cb = Codebook(n=4, dim=6, centroids=rng.normal(size=(4, 6)))
        hs = HintSet(n=4, dim=6, hints=rng.normal(scale=0.01, size=(4, 6)))
        bank = assemble_bank(cb, hs, meta={"source": "unit"})
        assert bank.version == BANK_FORMAT_VERSION
        np.testing.assert_array_equal(bank.f_q, cb.centroids)
        np.testing.assert_array_equal(bank.f_h, hs.hints)
        np.testing.assert_array_equal(bank.f_k, cb.centroids + hs.hints)
        assert bank.meta == {"source": "unit"}

    def test_composition_matches_elementwise_loop(self):
        rng = np.random.default_rng(13)
        cb = Codebook(n=6, dim=5, centroids=rng.normal(size=(6, 5)))
        hs = HintSet(n=6, dim=5, hints=rng.normal(scale=0.01, size=(6, 5)))
        composed = assemble_bank(cb, hs, meta={}).f_k
        for i in range(6):
            for j in range(5):
                assert composed[i, j] == cb.centroids[i, j] + hs.hints[i, j]

    def test_bank_keeps_its_own_codewords_and_hints(self):
        rng = np.random.default_rng(14)
        cb = Codebook(n=3, dim=4, centroids=rng.normal(size=(3, 4)))
        hs = HintSet(n=3, dim=4, hints=rng.normal(scale=0.01, size=(3, 4)))
        bank = assemble_bank(cb, hs, meta={})
        f_q, f_h = cb.centroids.copy(), hs.hints.copy()
        cb.centroids[0] += 1.0  # train_hints updates hints.hints in place like this
        hs.hints[0] += 1.0
        np.testing.assert_array_equal(bank.f_q, f_q)
        np.testing.assert_array_equal(bank.f_h, f_h)
        bank.validate()

    def test_zero_hints_compose_to_codewords(self):
        cb = Codebook(n=2, dim=2, centroids=np.eye(2))
        hs = HintSet(n=2, dim=2, hints=np.zeros((2, 2)))
        np.testing.assert_array_equal(assemble_bank(cb, hs, meta={}).f_k, cb.centroids)

    def test_shape_mismatch(self):
        cb = Codebook(n=2, dim=2, centroids=np.eye(2))
        hs = HintSet(n=3, dim=2, hints=np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            assemble_bank(cb, hs, meta={})

    def test_constructor_rejects_broken_composition(self):
        rng = np.random.default_rng(1)
        f_q = rng.normal(size=(3, 4))
        f_h = rng.normal(size=(3, 4))
        with pytest.raises(PreconditionError, match="f_k"):
            KnowledgeBank(n=3, dim=4, f_q=f_q, f_h=f_h, f_k=f_q + f_h + 1e-12)

    def test_rejects_non_string_meta(self):
        rng = np.random.default_rng(2)
        cb = Codebook(n=2, dim=2, centroids=rng.normal(size=(2, 2)))
        hs = HintSet(n=2, dim=2, hints=np.zeros((2, 2)))
        with pytest.raises(PreconditionError):
            assemble_bank(cb, hs, meta={"steps": 2000})

    def test_rejects_wrong_version(self):
        with pytest.raises(PreconditionError, match="version"):
            KnowledgeBank(
                n=1, dim=1,
                f_q=np.ones((1, 1)), f_h=np.zeros((1, 1)), f_k=np.ones((1, 1)),
                version=2,
            )

    def test_rejects_bool_version(self):
        with pytest.raises(PreconditionError, match="version"):
            KnowledgeBank(
                n=1, dim=1,
                f_q=np.ones((1, 1)), f_h=np.zeros((1, 1)), f_k=np.ones((1, 1)),
                version=True,
            )

    @pytest.mark.parametrize("size", [True, 1.0, 0])
    def test_rejects_sizes_the_loader_rejects(self, size):
        # the loader's size rule: a bank that constructs must also load after saving
        with pytest.raises(PreconditionError, match="positive integers"):
            KnowledgeBank(
                n=size, dim=1, f_q=np.ones((1, 1)), f_h=np.zeros((1, 1)), f_k=np.ones((1, 1))
            )
        with pytest.raises(PreconditionError, match="positive integers"):
            KnowledgeBank(
                n=1, dim=size, f_q=np.ones((1, 1)), f_h=np.zeros((1, 1)), f_k=np.ones((1, 1))
            )


class TestRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        bank = random_bank(seed=4, n=50, dim=512, meta={"seed": "4", "note": "round trip"})
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.n == 50 and loaded.dim == 512
        np.testing.assert_array_equal(loaded.f_q, bank.f_q)
        np.testing.assert_array_equal(loaded.f_h, bank.f_h)
        np.testing.assert_array_equal(loaded.f_k, bank.f_k)
        assert loaded.meta == bank.meta

    def test_repeated_saves_are_byte_identical(self, tmp_path):
        bank = random_bank(seed=5, n=8, dim=16)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_bank(bank, first)
        save_bank(bank, second)
        assert first.read_bytes() == second.read_bytes()

    def test_arrays_are_read_only_so_saves_keep_their_bytes(self, tmp_path):
        bank = random_bank(seed=6, n=3, dim=4)
        save_bank(bank, tmp_path / "before.json")
        for name in ("f_q", "f_h", "f_k"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(bank, name)[1, 2] += 0.5
        save_bank(bank, tmp_path / "after.json")
        assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()

    def test_later_writes_to_the_callers_arrays_do_not_show_through(self):
        rng = np.random.default_rng(6)
        f_q, f_h = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        f_k = f_q + f_h
        bank = KnowledgeBank(n=3, dim=4, f_q=f_q, f_h=f_h, f_k=f_k, meta={})
        before = [arr.copy() for arr in (f_q, f_h, f_k)]
        for arr in (f_q, f_h, f_k):
            arr += 1.0
        for name, want in zip(("f_q", "f_h", "f_k"), before):
            np.testing.assert_array_equal(getattr(bank, name), want)
        bank.validate()


class TestLoadRejections:
    def write(self, tmp_path, payload):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(payload) + "\n")
        return path

    def as_payload(self, bank):
        return {
            "version": bank.version,
            "n": bank.n,
            "dim": bank.dim,
            "f_q": [[float(v) for v in row] for row in bank.f_q],
            "f_h": [[float(v) for v in row] for row in bank.f_h],
            "f_k": [[float(v) for v in row] for row in bank.f_k],
            "meta": dict(bank.meta),
        }

    def test_unknown_version(self, tmp_path):
        payload = self.as_payload(random_bank(seed=7, n=2, dim=3))
        payload["version"] = 999
        with pytest.raises(ParseError, match="version"):
            load_bank(self.write(tmp_path, payload))

    def test_tampered_f_k(self, tmp_path):
        payload = self.as_payload(random_bank(seed=8, n=2, dim=3))
        payload["f_k"][0][0] += 1.0
        with pytest.raises(PreconditionError):
            load_bank(self.write(tmp_path, payload))

    def test_missing_key(self, tmp_path):
        payload = self.as_payload(random_bank(seed=9, n=2, dim=3))
        del payload["f_h"]
        with pytest.raises(ParseError):
            load_bank(self.write(tmp_path, payload))

    def test_ragged_matrix(self, tmp_path):
        payload = self.as_payload(random_bank(seed=10, n=2, dim=3))
        payload["f_q"][1] = payload["f_q"][1][:2]
        with pytest.raises(ParseError):
            load_bank(self.write(tmp_path, payload))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text("not a bank\n")
        with pytest.raises(ParseError):
            load_bank(path)

    def test_top_level_not_object(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ParseError):
            load_bank(path)
