"""Shared fixtures and collection options for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.table import HashTable
from repro.workloads import dictionary_pairs, passwd_pairs

# Property tests run derandomised and without the example database, so a
# tier-1 result depends on the code alone, not on what an earlier run left
# in a local .hypothesis/ directory.  Counter-examples worth keeping are
# pinned as plain regression tests beside the property that found them.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption(
        "--run-soak",
        action="store_true",
        default=False,
        help="run @pytest.mark.soak tests (long multi-threaded workloads)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-soak"):
        return
    skip = pytest.mark.skip(reason="soak test: pass --run-soak to run")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def small_dict_pairs():
    """500 dictionary pairs (fast unit-test workload)."""
    return list(dictionary_pairs(500))


@pytest.fixture
def passwd_workload():
    """The paper's password dataset (~600 records)."""
    return list(passwd_pairs())


@pytest.fixture
def mem_table():
    """A default in-memory table, closed after the test."""
    t = HashTable.create(None, in_memory=True)
    yield t
    if not t.closed:
        t.close()


@pytest.fixture
def disk_table(tmp_path):
    """A default disk table in a temp dir, closed after the test."""
    t = HashTable.create(tmp_path / "t.db")
    yield t
    if not t.closed:
        t.close()


@pytest.fixture
def tiny_cache_table(tmp_path):
    """A disk table with a minimal buffer pool (forces constant eviction)."""
    t = HashTable.create(tmp_path / "tiny.db", bsize=64, cachesize=0)
    yield t
    if not t.closed:
        t.close()
