import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pedbank.attention import init_attention, layer_norm, load_feature_batch, save_attention_params, save_feature_batch, FeatureBatch
from pedbank.bank import KnowledgeBank, load_bank, save_bank
from pedbank import gradcheck, jsonio
from pedbank.cli import (
    EXIT_DIMENSION,
    EXIT_IO,
    EXIT_OK,
    EXIT_OTHER,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_THRESHOLD,
    main,
)
from pedbank.embeddings import (
    EmbeddingDataset,
    generate_synthetic,
    parse_embedding_file,
    split_by_label,
    write_embedding_file,
)
from pedbank.errors import DimensionError, NumericalError, ParseError, PedbankError, PreconditionError
from pedbank.hints import TrainConfig, forward_classify, init_hints, train_hints
from pedbank.quantizer import Codebook, KMeansConfig, assignment_report, kmeans_with_objectives, quantize

from support import negated_gradients, random_bank


README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


def run_in_subprocess(*argv, **env):
    """``python -m pedbank *argv`` in a new interpreter that imports this
    checkout's package, with ``env`` added to the environment."""
    src = Path(jsonio.__file__).resolve().parent.parent
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [
        str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pedbank", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)


def readme_cli_commands():
    """The ``pedbank`` lines of the README's CLI block as argv lists, by subcommand."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pedbank ")]
    return {argv[0]: argv for argv in argvs}


def test_readme_quick_start_runs_with_its_defaults(tmp_path, monkeypatch):
    commands = readme_cli_commands()
    monkeypatch.chdir(tmp_path)
    # the detector's side of complement: the README has it written with save_feature_batch
    features = np.random.default_rng(0).normal(size=(2, 1, 32))
    save_feature_batch(FeatureBatch(mode="query", blocks=features), "features.json")
    for name in ("gen-synthetic", "build-bank", "inspect", "complement"):
        assert main(commands[name]) == EXIT_OK, commands[name]


def test_readme_library_block_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    small = generate_synthetic(seed=0, pedestrians=60, backgrounds=20, dim=16)
    write_embedding_file(small, "train.jsonl")
    # the detector's query vectors, (m, 1, c), which the block takes as given
    scope = {"queries": np.random.default_rng(0).normal(size=(3, 1, 32))}
    exec(block, scope)
    assert scope["out"].blocks.shape == (3, 1, 32)
    assert load_feature_batch("features.json").blocks.tobytes() == scope["queries"].tobytes()
    assert load_bank("bank.json").f_k.tobytes() == scope["bank"].f_k.tobytes()


@pytest.mark.parametrize("command", [
    ["gen-synthetic", "train.jsonl"],
    ["build-bank", "train.jsonl", "bank.json"],
    ["complement", "bank.json", "features.json", "out.json"],
    ["gradcheck"],
], ids=lambda command: command[0])
def test_negative_seed_is_a_usage_error(command, capsys):
    for seed in ("-1", "abc"):  # "abc" is no integer at all
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", seed])
        assert exc.value.code == 2
        assert f"--seed: must be a nonnegative integer, got '{seed}'" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1", "abc"])
def test_tolerance_that_is_not_positive_and_finite_is_a_usage_error(tolerance, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--tolerance", tolerance])
    assert exc.value.code == 2
    assert f"--tolerance: must be a positive finite number, got '{tolerance}'" in capsys.readouterr().err


@pytest.fixture()
def embeddings_file(tmp_path):
    path = tmp_path / "embeddings.jsonl"
    assert run(
        "gen-synthetic", path,
        "--seed", 5, "--pedestrians", 120, "--backgrounds", 80,
        "--d", 16, "--separation", 16.0,
    ) == EXIT_OK
    return path


@pytest.fixture()
def built_bank(tmp_path, embeddings_file):
    path = tmp_path / "bank.json"
    assert run(
        "build-bank", embeddings_file, path,
        "--n", 4, "--seed", 5, "--steps", 50, "--hidden", 16,
    ) == EXIT_OK
    return path


class TestGenSynthetic:
    def test_writes_requested_counts(self, embeddings_file):
        dataset = parse_embedding_file(embeddings_file)
        assert len(dataset) == 200 and dataset.dim == 16
        peds, bgs = split_by_label(dataset)
        assert len(peds) == 120 and len(bgs) == 80

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert run("gen-synthetic", path, "--seed", 3, "--pedestrians", 10,
                       "--backgrounds", 10, "--d", 8) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_reports_what_it_wrote(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        run("gen-synthetic", path, "--pedestrians", 3, "--backgrounds", 2, "--d", 4)
        out = capsys.readouterr().out
        assert "wrote 5 records" in out and str(path) in out


class TestBuildBank:
    def test_produces_loadable_bank(self, tmp_path, embeddings_file, capsys):
        bank_path = tmp_path / "bank.json"
        assert run(
            "build-bank", embeddings_file, bank_path,
            "--n", 4, "--seed", 5, "--steps", 50, "--hidden", 16,
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "final loss:" in out
        assert "assignment entropy:" in out
        loaded = load_bank(bank_path)
        assert loaded.n == 4 and loaded.dim == 16
        assert loaded.meta["hints"] == "on"
        assert loaded.meta["source"] == str(embeddings_file)

    def test_history_export(self, tmp_path, embeddings_file):
        bank_path = tmp_path / "bank.json"
        history_path = tmp_path / "history.jsonl"
        assert run(
            "build-bank", embeddings_file, bank_path,
            "--n", 4, "--seed", 5, "--steps", 12, "--hidden", 16,
            "--history", history_path,
        ) == EXIT_OK
        lines = [json.loads(line) for line in history_path.read_text().splitlines()]
        assert len(lines) == 24
        assert {line["label"] for line in lines} == {0, 1}

    def test_hints_off_keeps_initialization(self, tmp_path, embeddings_file):
        bank_path = tmp_path / "bank.json"
        assert run(
            "build-bank", embeddings_file, bank_path,
            "--n", 4, "--seed", 5, "--steps", 12, "--hidden", 16, "--hints", "off",
        ) == EXIT_OK
        loaded = load_bank(bank_path)
        np.testing.assert_array_equal(loaded.f_h, init_hints(4, 16, seed=5).hints)
        assert loaded.meta["hints"] == "off"

    def test_normalizes_unless_told_not_to(self, tmp_path, embeddings_file):
        for flags, expected in (((), "true"), (("--no-normalize",), "false")):
            bank_path = tmp_path / "bank.json"
            assert run(
                "build-bank", embeddings_file, bank_path, "--n", 4, "--steps", 5, *flags
            ) == EXIT_OK
            assert load_bank(bank_path).meta["normalize"] == expected

    def test_rejects_single_label_input(self, tmp_path):
        dataset = generate_synthetic(seed=1, pedestrians=20, backgrounds=1, dim=8)
        peds, _ = split_by_label(dataset)
        path = tmp_path / "peds.jsonl"
        write_embedding_file(peds, path)
        assert run("build-bank", path, tmp_path / "bank.json", "--n", 2) == EXIT_PRECONDITION

    def test_rejects_too_few_distinct_points(self, tmp_path):
        vec_a, vec_b, vec_c = [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]
        dataset = EmbeddingDataset(
            ids=("p0", "p1", "p2", "p3", "p4", "b0"),
            labels=("pedestrian",) * 5 + ("background",),
            vectors=[vec_a, vec_a, vec_b, vec_b, vec_c, [5.0, 5.0]],
        )
        path = tmp_path / "few.jsonl"
        write_embedding_file(dataset, path)
        assert run("build-bank", path, tmp_path / "bank.json", "--n", 4) == EXIT_PRECONDITION

    def test_malformed_embeddings(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "label": "pedestrian", "vector": [1.0]}\nnot json\n')
        assert run("build-bank", path, tmp_path / "bank.json", "--n", 1) == EXIT_PARSE

    def test_mixed_dimensions(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"id": "a", "label": "pedestrian", "vector": [1.0, 2.0]}\n'
            '{"id": "b", "label": "background", "vector": [1.0]}\n'
        )
        assert run("build-bank", path, tmp_path / "bank.json", "--n", 1) == EXIT_DIMENSION

    def test_missing_file(self, tmp_path):
        assert run("build-bank", tmp_path / "absent.jsonl", tmp_path / "bank.json") == EXIT_IO

    def test_divergent_training_exits_1_naming_the_step(self, tmp_path, embeddings_file, capsys):
        bank_path = tmp_path / "bank.json"
        assert run(
            "build-bank", embeddings_file, bank_path, "--n", 4, "--no-normalize", "--lr", 1e6
        ) == EXIT_OTHER
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite (logit|loss) at step \d+ \(.*\)\n", err), err
        assert not bank_path.exists()


class TestInspect:
    def test_reports_match_library_assignment(self, tmp_path, built_bank, embeddings_file, capsys):
        groups_out = tmp_path / "groups.json"
        csv_out = tmp_path / "fk.csv"
        assert run(
            "inspect", built_bank, embeddings_file,
            "--groups-out", groups_out, "--fk-csv-out", csv_out,
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "records: 200" in out

        loaded = load_bank(built_bank)
        dataset = parse_embedding_file(embeddings_file)
        assigned = assignment_report(
            dataset, Codebook(loaded.f_q)
        )
        doc = json.loads(groups_out.read_text())
        assert doc["records"] == 200
        assert doc["counts"] == np.bincount(assigned, minlength=loaded.n).tolist()
        assert len(doc["groups"]) == loaded.n
        assert sum(doc["counts"]) == 200
        for i in range(loaded.n):
            assert doc["groups"][str(i)] == [r for r, a in zip(dataset.ids, assigned) if a == i]

        rows = [
            [float(cell) for cell in line.split(",")]
            for line in csv_out.read_text().splitlines()
        ]
        np.testing.assert_array_equal(np.asarray(rows), loaded.f_k)

    def test_default_artifact_paths(self, tmp_path, built_bank, embeddings_file):
        assert run("inspect", built_bank, embeddings_file) == EXIT_OK
        assert (tmp_path / "bank.json.groups.json").exists()
        assert (tmp_path / "bank.json.fk.csv").exists()

    def test_reports_are_moved_over_their_destinations(
        self, tmp_path, built_bank, embeddings_file, monkeypatch
    ):
        # written beside the destination first, so a failed write keeps the old file
        replaced = []
        os_replace = os.replace

        def recording_replace(src, dst):
            replaced.append(dst)
            os_replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        assert run("inspect", built_bank, embeddings_file) == EXIT_OK
        reports = ("bank.json.groups.json", "bank.json.fk.csv")
        assert replaced == [os.path.realpath(tmp_path / name) for name in reports]

    def test_empty_embeddings(self, tmp_path, built_bank, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run("inspect", built_bank, empty) == EXIT_OK
        out = capsys.readouterr().out
        assert "records: 0" in out
        doc = json.loads((tmp_path / "bank.json.groups.json").read_text())
        assert doc["counts"] == [0, 0, 0, 0]

    def test_csv_bytes_are_the_repr_of_every_float(self, tmp_path):
        values = np.array([[5e-324, -0.0, 1e16, 1e-7], [-5e-324, 0.1, -1e16, 3.0]])
        bank_path, csv_out = tmp_path / "edge.json", tmp_path / "edge.csv"
        # x + -0.0 is x bit for bit, so f_k keeps the -0.0 of f_q
        save_bank(KnowledgeBank(f_q=values, f_h=np.full((2, 4), -0.0)), bank_path)
        embeddings = tmp_path / "four.jsonl"
        assert run("gen-synthetic", embeddings, "--pedestrians", 3, "--backgrounds", 2, "--d", 4) == EXIT_OK
        assert run("inspect", bank_path, embeddings, "--fk-csv-out", csv_out) == EXIT_OK
        f_k = load_bank(bank_path).f_k
        assert np.signbit(f_k[0, 1])
        want = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in f_k)
        assert csv_out.read_bytes() == want.encode("utf-8")
        assert csv_out.read_text().splitlines()[0] == "5e-324,-0.0,1e+16,1e-07"

    def test_rejects_unknown_bank_version(self, tmp_path, embeddings_file):
        bank_path = tmp_path / "future.json"
        save_bank(random_bank(seed=1, n=2, dim=16), bank_path)
        doc = json.loads(bank_path.read_text())
        doc["version"] = 999
        bank_path.write_text(json.dumps(doc))
        assert run("inspect", bank_path, embeddings_file) == EXIT_PARSE


class TestComplement:
    @pytest.fixture()
    def bank_file(self, tmp_path):
        path = tmp_path / "bank.json"
        save_bank(random_bank(seed=8, n=6, dim=16), path)
        return path

    @pytest.fixture()
    def features_file(self, tmp_path):
        rng = np.random.default_rng(18)
        batch = FeatureBatch(mode="proposal", blocks=rng.normal(size=(3, 2, 2, 12)))
        path = tmp_path / "features.json"
        save_feature_batch(batch, path)
        return path

    def test_runs_and_is_deterministic(self, tmp_path, bank_file, features_file, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out_path in (a, b):
            assert run(
                "complement", bank_file, features_file, out_path,
                "--d-model", 4, "--heads", 2, "--seed", 0,
            ) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert "mode=proposal" in capsys.readouterr().out
        loaded = load_feature_batch(a)
        assert loaded.blocks.shape == (3, 2, 2, 12)

    def test_zero_output_projection(self, tmp_path, bank_file, features_file):
        out_path = tmp_path / "out.json"
        assert run(
            "complement", bank_file, features_file, out_path,
            "--d-model", 4, "--heads", 2, "--zero-output-proj",
        ) == EXIT_OK
        result = load_feature_batch(out_path)
        source = load_feature_batch(features_file)
        expect = layer_norm(source.rows(), np.ones(12), np.zeros(12))
        np.testing.assert_array_equal(result.blocks, expect.reshape(source.blocks.shape))

    def test_params_file_matches_seeded_run(self, tmp_path, bank_file, features_file):
        params_path = tmp_path / "params.json"
        save_attention_params(init_attention(c=12, d=16, d_m=4, heads=2, seed=99), params_path)
        from_file = tmp_path / "from_file.json"
        from_seed = tmp_path / "from_seed.json"
        assert run(
            "complement", bank_file, features_file, from_file, "--params", params_path,
        ) == EXIT_OK
        assert run(
            "complement", bank_file, features_file, from_seed,
            "--d-model", 4, "--heads", 2, "--seed", 99,
        ) == EXIT_OK
        assert from_file.read_bytes() == from_seed.read_bytes()

    def test_params_bank_mismatch(self, tmp_path, bank_file, features_file):
        params_path = tmp_path / "params.json"
        save_attention_params(init_attention(c=12, d=8, d_m=4, heads=2), params_path)
        assert run(
            "complement", bank_file, features_file, tmp_path / "out.json",
            "--params", params_path,
        ) == EXIT_DIMENSION

    def test_a_layer_norm_overflow_exits_1_naming_the_step(self, tmp_path, capsys):
        bank_path, params_path, features = (tmp_path / name for name in ("bank.json", "params.json", "q.json"))
        save_bank(random_bank(seed=22, n=4, dim=512), bank_path)
        params = init_attention(c=8, d=512, d_m=4, heads=2)
        save_attention_params(dataclasses.replace(params, w_q=np.zeros_like(params.w_q)), params_path)
        blocks = np.zeros((1, 1, 8))
        blocks[..., :2] = 1.7e308  # finite, but the row sum overflows
        save_feature_batch(FeatureBatch(mode="query", blocks=blocks), features)
        assert run(
            "complement", bank_path, features, tmp_path / "out.json", "--params", params_path,
        ) == EXIT_OTHER
        assert capsys.readouterr().err == "error: non-finite layer-norm output\n"

    def test_query_mode(self, tmp_path, bank_file):
        rng = np.random.default_rng(19)
        batch = FeatureBatch(mode="query", blocks=rng.normal(size=(4, 1, 12)))
        features = tmp_path / "query.json"
        save_feature_batch(batch, features)
        out_path = tmp_path / "out.json"
        assert run(
            "complement", bank_file, features, out_path, "--d-model", 4, "--heads", 2,
        ) == EXIT_OK
        assert load_feature_batch(out_path).mode == "query"

    def test_a_pooled_write_prints_once_and_keeps_stderr_empty(self, tmp_path, bank_file, monkeypatch):
        # more values than the writer's size rule, so with more than one CPU
        # the output is formatted in forked workers, which must not re-flush
        # the parent's buffered stdout
        blocks = np.random.default_rng(20).normal(size=(jsonio.POOL_MIN_VALUES // 12 + 1, 1, 1, 12))
        features = tmp_path / "features.json"
        save_feature_batch(FeatureBatch(mode="proposal", blocks=blocks), features)

        def argv(out):
            return [str(a) for a in ("complement", bank_file, features, tmp_path / out,
                                     "--d-model", 4, "--heads", 2)]

        proc = run_in_subprocess(*argv("pooled.json"))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.count("wrote complemented batch") == 1
        monkeypatch.setattr(jsonio, "POOL_MIN_VALUES", blocks.size + 1)
        assert main(argv("in_process.json")) == EXIT_OK
        assert (tmp_path / "pooled.json").read_bytes() == (tmp_path / "in_process.json").read_bytes()

    def test_the_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 8 heads over 50 codewords: the value product sums over 400 bank
        # entries, more than a multithreaded BLAS sums in one fixed order
        bank = tmp_path / "bank.json"
        save_bank(random_bank(seed=8, n=50, dim=16), bank)
        blocks = np.random.default_rng(21).normal(size=(200, 1, 1, 32))
        features = tmp_path / "features.json"
        save_feature_batch(FeatureBatch(mode="proposal", blocks=blocks), features)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out_{threads}.json"
            proc = run_in_subprocess("complement", bank, features, out, "--d-model", 8, "--heads", 8,
                                     OPENBLAS_NUM_THREADS=threads)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("error, code", [
    (ParseError("bad format"), EXIT_PARSE),
    (DimensionError("bad shape"), EXIT_DIMENSION),
    (PreconditionError("bad input"), EXIT_PRECONDITION),
    (FileNotFoundError(2, "No such file or directory", "absent.json"), EXIT_IO),
    (PermissionError(13, "Permission denied", "locked.json"), EXIT_IO),
    (NumericalError("non-finite"), EXIT_OTHER),
    (PedbankError("other"), EXIT_OTHER),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value))
def test_each_error_class_exits_with_its_documented_code(error, code, monkeypatch, capsys):
    def fail(**kwargs):
        raise error

    monkeypatch.setattr(gradcheck, "classifier_check", fail)
    assert run("gradcheck") == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_an_error_outside_the_table_propagates(monkeypatch):
    def fail(**kwargs):
        raise ValueError("not a package error")

    monkeypatch.setattr(gradcheck, "classifier_check", fail)
    with pytest.raises(ValueError, match="not a package error"):
        run("gradcheck")


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        assert run("gradcheck", "--seed", 2) == EXIT_OK
        out = capsys.readouterr().out
        assert "gradcheck: OK" in out
        assert "classifier w1:" in out and "attention w_o:" in out

    def test_a_wrong_sign_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck, *negated_gradients("w_q"))
        assert run("gradcheck", "--seed", 2) == EXIT_THRESHOLD
        assert "gradcheck: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("group", gradcheck.CLASSIFIER_GROUPS + gradcheck.ATTENTION_GROUPS)
    def test_a_negated_group_is_the_only_one_that_reaches_the_tolerance(self, monkeypatch, group):
        monkeypatch.setattr(gradcheck, *negated_gradients(group))
        check = (gradcheck.classifier_check if group in gradcheck.CLASSIFIER_GROUPS
                 else gradcheck.attention_check)
        for seed in range(4):
            errors = check(seed=seed)
            assert [g for g, err in errors.items() if err >= gradcheck.DEFAULT_TOLERANCE] == [group], errors

    def test_inject_sign_error_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--inject-sign-error"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-sign-error" in capsys.readouterr().err

    def test_a_positive_finite_tolerance_is_used(self, capsys):
        assert run("gradcheck", "--tolerance", "1e-3") == EXIT_OK
        out = capsys.readouterr().out
        assert "(tolerance 0.001)" in out and "gradcheck: OK" in out

    def test_a_nan_error_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(gradcheck, "classifier_check", lambda seed: {"w1": float("nan")})
        assert run("gradcheck", "--seed", 0) == EXIT_THRESHOLD
        out = capsys.readouterr().out
        assert "classifier w1: nan" in out and "max relative error: nan" in out and "gradcheck: FAIL" in out

    def test_relative_error_divides_by_the_larger_magnitude(self):
        assert gradcheck.relative_error([0.0], [4.0]) == 1.0

    def test_relative_error_of_other_shapes_raises_and_of_no_values_is_0(self):
        with pytest.raises(PreconditionError, match=r"gradient shapes differ: \(2,\) vs \(3,\)"):
            gradcheck.relative_error(np.zeros(2), np.zeros(3))
        assert gradcheck.relative_error(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0


class TestIndistinguishableControl:
    def test_zero_separation_stays_near_chance(self, tmp_path):
        train_file = tmp_path / "train.jsonl"
        assert run(
            "gen-synthetic", train_file,
            "--seed", 2, "--pedestrians", 300, "--backgrounds", 200,
            "--d", 16, "--separation", 0.0,
        ) == EXIT_OK
        peds, bgs = split_by_label(parse_embedding_file(train_file))
        codebook = kmeans_with_objectives(peds, KMeansConfig(n=4, seed=2))[0]
        hint_set, clf, _ = train_hints(
            peds, bgs, codebook, TrainConfig(lr=0.1, steps=400, seed=2)
        )
        held = generate_synthetic(
            seed=3, pedestrians=250, backgrounds=250, dim=16, separation=0.0
        )
        correct = 0
        for label, vector in zip(held.labels, held.vectors):
            logit, _ = forward_classify(quantize(vector, codebook), codebook, hint_set, clf)
            predicted = 1 if logit > 0 else 0
            correct += int(predicted == (1 if label == "pedestrian" else 0))
        accuracy = correct / len(held)
        assert 0.3 <= accuracy <= 0.7, accuracy
