"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest -rA`` to see the lines for passing criteria too.
"""

import dataclasses
import json
import time

import numpy as np

from pedbank.attention import (
    FeatureBatch,
    cross_attend,
    init_attention,
    layer_norm,
    load_feature_batch,
    save_feature_batch,
)
from pedbank.bank import KnowledgeBank, load_bank, save_bank
from pedbank.cli import EXIT_OK, main
from pedbank.embeddings import generate_synthetic, split_by_label
from pedbank.gradcheck import attention_check, classifier_check
from pedbank.hints import TrainConfig, forward_classify, init_hints, train_hints
from pedbank.quantizer import Codebook, KMeansConfig, kmeans_with_objectives, quantize

from support import make_dataset, random_bank

SEPARATION = 16.0


def check(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def run(*argv):
    return main([str(a) for a in argv])


def test_quantization_matches_exhaustive_search():
    rng = np.random.default_rng(42)
    codebook = Codebook(rng.normal(size=(50, 512)))
    probes = rng.normal(size=(1000, 512))
    start = time.perf_counter()
    picked = [quantize(p, codebook) for p in probes]
    elapsed = time.perf_counter() - start
    expected = [int(np.argmax([np.dot(c, p) for c in codebook.centroids])) for p in probes]
    check(
        f"quantize agrees with exhaustive inner-product search on 1000 probes "
        f"({elapsed:.3f}s)",
        picked == expected and elapsed < 1.0,
    )


def test_clustering_is_monotone_and_reproducible():
    points = make_dataset(np.random.default_rng(3).normal(size=(500, 8)))
    cb1, obj1 = kmeans_with_objectives(points, KMeansConfig(n=50, seed=3))
    cb2, obj2 = kmeans_with_objectives(points, KMeansConfig(n=50, seed=3))
    monotone = all(b <= a for a, b in zip(obj1, obj1[1:]))
    identical = np.array_equal(cb1.centroids, cb2.centroids) and obj1 == obj2
    check(
        f"k-means objective is non-increasing over {len(obj1)} recorded values "
        "and reruns are bit-identical",
        monotone and identical,
    )


def test_hand_derived_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        worst = max(worst, max(classifier_check(seed=seed).values()))
        worst = max(worst, max(attention_check(seed=seed).values()))
    elapsed = time.perf_counter() - start
    check(
        f"classifier and attention gradients match central differences over "
        f"5 seeds (max rel err {worst:.2e} < 1e-6, {elapsed:.1f}s)",
        worst < 1e-6 and elapsed < 30.0,
    )


def test_hint_training_learns_separable_data(tmp_path):
    train = generate_synthetic(
        seed=2, pedestrians=600, backgrounds=400, dim=16, separation=SEPARATION
    )
    peds, bgs = split_by_label(train)
    codebook = kmeans_with_objectives(peds, KMeansConfig(n=4, seed=2))[0]
    hint_set, clf, history = train_hints(
        peds, bgs, codebook, TrainConfig(lr=0.1, steps=2000, seed=2)
    )
    tail = float(np.mean(history["loss"][-200:]))
    held = generate_synthetic(
        seed=3, pedestrians=300, backgrounds=200, dim=16, separation=SEPARATION
    )
    correct = 0
    for label, vector in zip(held.labels, held.vectors):
        logit, _ = forward_classify(quantize(vector, codebook), codebook, hint_set, clf)
        correct += int((logit > 0) == (label == "pedestrian"))
    accuracy = correct / len(held)

    train_file = tmp_path / "train.jsonl"
    bank_file = tmp_path / "bank.json"
    ok_cli = run(
        "gen-synthetic", train_file, "--seed", 2, "--pedestrians", 120,
        "--backgrounds", 80, "--d", 16, "--separation", SEPARATION,
    ) == EXIT_OK and run(
        "build-bank", train_file, bank_file,
        "--n", 4, "--seed", 5, "--steps", 20, "--hidden", 16, "--hints", "off",
    ) == EXIT_OK
    untouched = np.array_equal(load_bank(bank_file).f_h, init_hints(4, 16, seed=5).hints)
    check(
        f"hint training reaches held-out accuracy {accuracy:.3f} >= 0.95 with "
        f"tail loss {tail:.4f} < 0.1, and disabling it keeps hints at their "
        "initialization exactly",
        accuracy >= 0.95 and tail < 0.1 and ok_cli and untouched,
    )


def test_attention_laws():
    rng = np.random.default_rng(10)
    bank = random_bank(seed=10, n=50, dim=512)
    batch = FeatureBatch(mode="proposal", blocks=rng.normal(size=(3, 7, 7, 256)))
    params = init_attention(c=256, d=512, d_m=64, heads=8, seed=10)
    out, trace = cross_attend(batch, bank, params)
    rows_sum = float(np.max(np.abs(trace.assoc.sum(axis=-1) - 1.0)))

    zeroed = dataclasses.replace(params, w_o=np.zeros_like(params.w_o))
    out_zero, _ = cross_attend(batch, bank, zeroed)
    ln_exact = np.array_equal(
        out_zero.blocks,
        layer_norm(batch.rows(), params.gain, params.bias, params.eps).reshape(
            batch.blocks.shape
        ),
    )

    perm = np.random.default_rng(1).permutation(bank.n)
    shuffled = KnowledgeBank(f_q=bank.f_q[perm], f_h=bank.f_h[perm])
    out_perm, _ = cross_attend(batch, shuffled, params)
    perm_diff = float(np.max(np.abs(out.blocks - out_perm.blocks)))

    data = rng.normal(size=(5, 256))
    out_q, _ = cross_attend(FeatureBatch(mode="query", blocks=data.reshape(5, 1, 256)), bank, params)
    out_u, _ = cross_attend(FeatureBatch(mode="proposal", blocks=data.reshape(5, 1, 1, 256)), bank, params)
    query_bitwise = np.array_equal(out_q.blocks.reshape(5, 256), out_u.blocks.reshape(5, 256))

    check(
        f"attention: association rows sum to 1 (err {rows_sum:.1e}), zeroed "
        f"output projection reduces to layer norm exactly, bank row order is "
        f"irrelevant (diff {perm_diff:.1e} <= 1e-10), and queries equal 1x1 "
        "proposals bitwise",
        rows_sum <= 1e-6 and ln_exact and perm_diff <= 1e-10 and query_bitwise,
    )


def test_bank_scales_across_codebook_sizes(tmp_path):
    train_file = tmp_path / "train.jsonl"
    assert run(
        "gen-synthetic", train_file, "--seed", 4, "--pedestrians", 600,
        "--backgrounds", 200, "--d", 16, "--separation", SEPARATION,
    ) == EXIT_OK
    sizes = (10, 20, 50, 100, 200)
    ok = True
    for n in sizes:
        bank_file = tmp_path / f"bank{n}.json"
        code = run(
            "build-bank", train_file, bank_file,
            "--n", n, "--seed", 4, "--steps", 30, "--hidden", 16,
        )
        loaded = load_bank(bank_file) if code == EXIT_OK else None
        ok = ok and code == EXIT_OK and loaded.n == n and loaded.dim == 16
    check(f"build-bank succeeds for codebook sizes {sizes}", ok)


def test_serialization_round_trips_exactly(tmp_path):
    bank = random_bank(seed=4, n=50, dim=512, meta={"note": "round trip"})
    bank_a, bank_b = tmp_path / "a.json", tmp_path / "b.json"
    save_bank(bank, bank_a)
    save_bank(bank, bank_b)
    loaded = load_bank(bank_a)
    bank_ok = (
        bank_a.read_bytes() == bank_b.read_bytes()
        and np.array_equal(loaded.f_q, bank.f_q)
        and np.array_equal(loaded.f_h, bank.f_h)
        and np.array_equal(loaded.f_k, bank.f_k)
        and loaded.meta == bank.meta
    )
    batch = FeatureBatch(
        mode="proposal", blocks=np.random.default_rng(6).normal(size=(2, 3, 3, 8))
    )
    batch_a, batch_b = tmp_path / "fa.json", tmp_path / "fb.json"
    save_feature_batch(batch, batch_a)
    save_feature_batch(batch, batch_b)
    batch_ok = batch_a.read_bytes() == batch_b.read_bytes() and np.array_equal(
        load_feature_batch(batch_a).blocks, batch.blocks
    )
    check(
        "bank and feature-batch files round-trip exactly and saves are "
        "byte-identical",
        bank_ok and batch_ok,
    )


def test_full_pipeline(tmp_path):
    start = time.perf_counter()
    train_file = tmp_path / "train.jsonl"
    bank_file = tmp_path / "bank.json"
    groups_file = tmp_path / "groups.json"
    out_file = tmp_path / "complemented.json"
    features_file = tmp_path / "queries.json"

    steps = [
        run(
            "gen-synthetic", train_file, "--seed", 7, "--pedestrians", 600,
            "--backgrounds", 400, "--d", 32, "--separation", SEPARATION,
        ),
        run(
            "build-bank", train_file, bank_file,
            "--n", 10, "--seed", 7, "--steps", 200, "--hidden", 32,
        ),
        run(
            "inspect", bank_file, train_file,
            "--groups-out", groups_file, "--fk-csv-out", tmp_path / "fk.csv",
        ),
    ]
    queries = FeatureBatch(
        mode="query", blocks=np.random.default_rng(7).normal(size=(200, 1, 24))
    )
    save_feature_batch(queries, features_file)
    steps.append(
        run(
            "complement", bank_file, features_file, out_file,
            "--d-model", 8, "--heads", 4, "--seed", 7,
        )
    )
    elapsed = time.perf_counter() - start
    doc = json.loads(groups_file.read_text())
    counts_ok = sum(doc["counts"]) == 1000 and doc["records"] == 1000
    out_ok = load_feature_batch(out_file).blocks.shape == (200, 1, 24)
    check(
        f"gen-synthetic -> build-bank -> inspect -> complement all exit 0 in "
        f"{elapsed:.1f}s < 120s with assignment counts summing to 1000",
        all(code == EXIT_OK for code in steps) and counts_ok and out_ok and elapsed < 120.0,
    )
