"""Fixtures shared by the test modules."""

import pytest

from pedbank.embeddings import generate_synthetic, write_embedding_file

from support import pool_every_array


@pytest.fixture()
def pooled(monkeypatch):
    pool_every_array(monkeypatch)


@pytest.fixture(scope="session")
def paper_dir(tmp_path_factory):
    """A directory holding ``paper.jsonl``, what ``pedbank gen-synthetic
    paper.jsonl --pedestrians 600 --backgrounds 400 --d 512`` writes: 1000
    records of 512 values, more text than the readers' size rule."""
    directory = tmp_path_factory.mktemp("paper")
    write_embedding_file(generate_synthetic(seed=0, pedestrians=600, backgrounds=400), directory / "paper.jsonl")
    return directory
