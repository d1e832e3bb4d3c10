"""One set of rules for every file the package reads and writes.

Writers must keep producing the exact bytes pinned below, and every reader
must reject malformed values with exit code 2 and name the file.
"""

import hashlib
import json

import numpy as np
import pytest

from pedbank.attention import FeatureBatch, init_attention, save_attention_params, save_feature_batch
from pedbank.bank import save_bank
from pedbank.cli import EXIT_PARSE, main
from pedbank.embeddings import generate_synthetic, write_embedding_file

from support import random_bank

# sha256 of each file written by ``write_golden_files``; a writer that
# changes a single byte of its output fails here.
GOLDEN = {
    "bank.json": "6d2e7b45a975dffce7efb7fb837e437902fb5ebb3e9d38e184aa6ba66453f007",
    "proposal.json": "829dc91cc22416ac1d7d97916b132fa4c6c5a8c7e9f4aa684ecb3d36d32b072f",
    "query.json": "f619417a4bd4ccba0933dfec1cddd3edf519b0eaddbe569934d55097a0ed2e32",
    "params.json": "0d0f7bdb2316ee4a97e8d8dd143a22c8ea6333b56f26ca7b8dd9f59559b5ded0",
    "embeddings.jsonl": "ef84ab7b3efb8e728965755fb871b58a65cd6e341b6e12472739dbbbec1b1b60",
}


def write_golden_files(directory):
    rng = np.random.default_rng(0)
    proposal = rng.normal(size=(2, 2, 3, 4))
    query = rng.normal(size=(2, 1, 5))
    query[0, 0] = [0.0, -0.0, 1.0, 1e300, 5e-324]  # float text edge cases
    save_bank(random_bank(seed=0, n=3, dim=4, meta={"seed": "0", "note": "golden"}),
              directory / "bank.json")
    save_feature_batch(FeatureBatch("proposal", proposal), directory / "proposal.json")
    save_feature_batch(FeatureBatch("query", query), directory / "query.json")
    save_attention_params(init_attention(c=4, d=6, d_m=2, heads=2, seed=1),
                          directory / "params.json")
    write_embedding_file(generate_synthetic(seed=0, pedestrians=3, backgrounds=2, dim=4),
                         directory / "embeddings.jsonl")


def test_writers_match_golden_digests(tmp_path):
    write_golden_files(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


@pytest.fixture()
def valid_files(tmp_path):
    """One small valid file per reader; together they make a valid complement run."""
    rng = np.random.default_rng(3)
    files = {name: tmp_path / f"{name}.json" for name in ("bank", "proposal", "query", "params")}
    files["embeddings"] = tmp_path / "embeddings.jsonl"
    save_bank(random_bank(seed=3, n=2, dim=3), files["bank"])
    save_feature_batch(FeatureBatch("proposal", rng.normal(size=(1, 1, 2, 4))), files["proposal"])
    save_feature_batch(FeatureBatch("query", rng.normal(size=(1, 1, 4))), files["query"])
    save_attention_params(init_attention(c=4, d=3, d_m=2, heads=2), files["params"])
    write_embedding_file(generate_synthetic(seed=3, pedestrians=2, backgrounds=2, dim=3),
                         files["embeddings"])
    return files


# (file, path to the edited value inside the document, new value)
MALFORMED = [
    ("bank", ("version",), True),
    ("bank", ("f_h", 0, 0), float("nan")),
    ("params", ("version",), True),
    ("params", ("heads",), 2.7),
    ("params", ("heads",), "2"),
    ("params", ("eps",), "1e-5"),
    ("params", ("gain", 0), True),
    ("params", ("c",), 5),
    ("params", ("d",), 4),
    ("query", ("m",), True),
    ("proposal", ("data", 0), True),
    ("embeddings", ("vector", 0), True),
]


def argv_reading(name, files, tmp_path):
    """A CLI run that reads ``files[name]``."""
    if name == "embeddings":
        argv = ["build-bank", files["embeddings"], tmp_path / "out.json"]
    else:
        features = files["query" if name == "query" else "proposal"]
        argv = ["complement", files["bank"], features, tmp_path / "out.json",
                "--params", files["params"]]
    return [str(a) for a in argv]


@pytest.mark.parametrize(
    "name, keys, value", MALFORMED,
    ids=[f"{name}-{'.'.join(map(str, keys))}={value!r}" for name, keys, value in MALFORMED],
)
def test_malformed_value_exits_2_naming_the_file(tmp_path, capsys, valid_files, name, keys, value):
    path = valid_files[name]
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    lines[0] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")

    assert main(argv_reading(name, valid_files, tmp_path)) == EXIT_PARSE
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bank", "proposal", "query", "params", "embeddings"])
def test_non_utf8_file_exits_2_naming_the_file(tmp_path, capsys, valid_files, name):
    path = valid_files[name]
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(argv_reading(name, valid_files, tmp_path)) == EXIT_PARSE
    assert str(path) in capsys.readouterr().err

