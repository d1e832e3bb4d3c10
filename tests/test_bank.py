import dataclasses
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
        cb = Codebook(rng.normal(size=(4, 6)))
        hs = HintSet(rng.normal(scale=0.01, size=(4, 6)))
        bank = assemble_bank(cb, hs, meta={"source": "unit"})
        assert (bank.n, bank.dim) == (4, 6)
        np.testing.assert_array_equal(bank.f_q, cb.centroids)
        np.testing.assert_array_equal(bank.f_h, hs.hints)
        np.testing.assert_array_equal(bank.f_k, cb.centroids + hs.hints)
        assert bank.meta == {"source": "unit"}

    def test_composition_matches_elementwise_loop(self):
        rng = np.random.default_rng(13)
        cb = Codebook(rng.normal(size=(6, 5)))
        hs = HintSet(rng.normal(scale=0.01, size=(6, 5)))
        composed = assemble_bank(cb, hs, meta={}).f_k
        for i in range(6):
            for j in range(5):
                assert composed[i, j] == cb.centroids[i, j] + hs.hints[i, j]

    def test_bank_keeps_its_own_codewords_and_hints(self):
        rng = np.random.default_rng(14)
        cb = Codebook(rng.normal(size=(3, 4)))
        hs = HintSet(rng.normal(scale=0.01, size=(3, 4)))
        bank = assemble_bank(cb, hs, meta={})
        f_q, f_h = cb.centroids.copy(), hs.hints.copy()
        cb.centroids[0] += 1.0  # train_hints updates hints.hints in place like this
        hs.hints[0] += 1.0
        np.testing.assert_array_equal(bank.f_q, f_q)
        np.testing.assert_array_equal(bank.f_h, f_h)
        bank.validate()

    def test_zero_hints_compose_to_codewords(self):
        cb = Codebook(np.eye(2))
        hs = HintSet(np.zeros((2, 2)))
        np.testing.assert_array_equal(assemble_bank(cb, hs, meta={}).f_k, cb.centroids)

    def test_shape_mismatch(self):
        cb = Codebook(np.eye(2))
        hs = HintSet(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            assemble_bank(cb, hs, meta={})

    def test_rejects_non_string_meta(self):
        rng = np.random.default_rng(2)
        cb = Codebook(rng.normal(size=(2, 2)))
        hs = HintSet(np.zeros((2, 2)))
        with pytest.raises(PreconditionError):
            assemble_bank(cb, hs, meta={"steps": 2000})

    def test_keeps_its_own_meta(self, tmp_path):
        meta = {"source": "a"}
        bank = KnowledgeBank(f_q=np.ones((1, 2)), f_h=np.zeros((1, 2)), meta=meta)
        meta["source"] = "changed"
        assert bank.meta == {"source": "a"}
        save_bank(bank, tmp_path / "bank.json")
        assert json.loads((tmp_path / "bank.json").read_text())["meta"] == {"source": "a"}

    def test_save_rejects_meta_written_after_construction(self, tmp_path):
        bank = KnowledgeBank(f_q=np.ones((1, 2)), f_h=np.zeros((1, 2)), meta={"steps": "2"})
        bank.meta["steps"] = 2
        with pytest.raises(PreconditionError, match="meta"):
            save_bank(bank, tmp_path / "bank.json")
        assert not (tmp_path / "bank.json").exists()

    def test_sizes_and_f_k_come_from_the_arrays(self):
        rng = np.random.default_rng(3)
        bank = KnowledgeBank(f_q=rng.normal(size=(3, 4)), f_h=rng.normal(size=(3, 4)))
        assert (bank.n, bank.dim, bank.meta) == (3, 4, {})
        assert not bank.f_k.flags.writeable
        hints = rng.normal(size=(3, 4))
        replaced = dataclasses.replace(bank, f_h=hints)
        np.testing.assert_array_equal(replaced.f_k, bank.f_q + hints)

    @pytest.mark.parametrize("f_q, f_h", [
        (np.ones((0, 2)), np.ones((0, 2))),
        (np.ones((2, 0)), np.ones((2, 0))),
        (np.ones((2, 3)), np.ones((3, 2))),
        (np.ones(3), np.ones(3)),
    ], ids=["no-rows", "no-columns", "two-shapes", "rank-1"])
    def test_rejects_arrays_that_are_not_one_matrix_shape(self, f_q, f_h):
        with pytest.raises(DimensionError, match="must have shape"):
            KnowledgeBank(f_q=f_q, f_h=f_h)


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
        bank = KnowledgeBank(f_q=f_q, f_h=f_h)
        before = [arr.copy() for arr in (f_q, f_h, f_q + f_h)]
        for arr in (f_q, f_h):
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
            "version": BANK_FORMAT_VERSION,
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

    def test_rejects_broken_composition(self, tmp_path):
        # one bit off in every value: still a composition error, not a parse error
        payload = self.as_payload(random_bank(seed=1, n=3, dim=4))
        payload["f_k"] = np.nextafter(np.array(payload["f_k"]), np.inf).tolist()
        with pytest.raises(PreconditionError, match="f_k must equal f_q \\+ f_h exactly"):
            load_bank(self.write(tmp_path, payload))

    def test_negative_zero_in_f_k_reads_back_as_the_sum(self, tmp_path):
        payload = self.as_payload(random_bank(seed=2, n=2, dim=3))
        payload["f_q"][0][0], payload["f_h"][0][0], payload["f_k"][0][0] = 1.5, -1.5, -0.0
        f_k = load_bank(self.write(tmp_path, payload)).f_k
        assert f_k[0, 0] == 0.0 and not np.signbit(f_k[0, 0])

    @pytest.mark.parametrize("key, value", [("n", 3), ("dim", 4), ("n", 0)])
    def test_declared_sizes_must_match_the_arrays(self, tmp_path, key, value):
        payload = self.as_payload(random_bank(seed=3, n=2, dim=3))
        payload[key] = value
        with pytest.raises(ParseError):
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
