"""Fixtures shared by the test modules."""

import pytest

from support import pool_every_array


@pytest.fixture()
def pooled(monkeypatch):
    pool_every_array(monkeypatch)
